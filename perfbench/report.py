"""Print every benchmark metric, by name and unit, for all four workloads.

    python3 perfbench/report.py [--seed N] [--seconds S]

Runs each workload once untraced (end-to-end metrics, plus attempted, failed
and error_rate) and once traced (the per-layer table), using the metric list
in BENCHMARK.json, and exits 1 if any output differs from its expected verdict.
Takes about four minutes at the default run length.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import run

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    args = ap.parse_args(argv)
    names = [w["name"] for w in BENCH["workloads"]]
    plain, traced = {}, {}
    for name in names:
        plain[name] = run.run_workload(name, args.seed, args.seconds, 0)
        traced[name] = run.run_workload(name, args.seed, args.seconds, 1)
    context = plain[names[0]][1]["context"]
    print("context:", json.dumps({k: context[k] for k in
                                  ("python", "nproc", "git_commit", "source_sha256", "seed")}))
    width = max(len(n) for n in names)
    header = f"{'metric':<52} {'unit':<12} " + " ".join(f"{n:>{width}}" for n in names)

    print("\nend to end (untraced; medians over the passes of one run)")
    print(header)
    rows = [(m["name"], m["unit"]) for m in BENCH["end_to_end"]]
    rows += [("attempted", "count"), ("failed", "count"), ("error_rate", "ratio")]
    for metric, unit in rows:
        cells = []
        for n in names:
            result, detail = plain[n]
            value = (detail["error_rate"] if metric == "error_rate" else
                     result[metric] if metric in result else
                     result["metrics"][metric]["value"])
            cells.append(f"{value:>{width}.6g}")
        print(f"{metric:<52} {unit:<12} " + " ".join(cells))

    print("\nper layer (one traced pass)")
    print(header)
    for m in BENCH["per_layer"]:
        cells = [f"{traced[n][0]['metrics'][m['name']]['value']:>{width}.6g}" for n in names]
        print(f"{m['name']:<52} {m['unit']:<12} " + " ".join(cells))

    ok = all(plain[n][0]["correct"] and traced[n][0]["correct"] for n in names)
    print("\nall verdicts as expected" if ok else "\nSOME VERDICTS DIFFER FROM EXPECTED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
