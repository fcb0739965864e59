"""One pass of a workload in a fresh interpreter, as a user's CLI run would be.

    python3 perfbench/worker.py --workload W --seed S --t0 T --workdir DIR
        [--trace 0|1] [--setup-only] [--expect FILE] [--spans FILE]

T is the parent's `time.monotonic()` just before it started this process, so
setup_s covers interpreter start, the `edgeposets` import and input
generation.  The last stdout line is a JSON summary of the pass.  Exit code 2
means the program under test could not be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--expect", default=os.path.join(HERE, "expected.json"))
    ap.add_argument("--spans")
    args = ap.parse_args()

    sys.path.insert(0, SRC)
    try:
        import edgeposets.cli  # noqa: F401
    except ImportError as exc:
        sys.stderr.write(f"cannot import edgeposets from {SRC}: {exc}\n")
        return 2
    if not os.path.abspath(edgeposets.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"edgeposets imported from {edgeposets.__file__}, not {SRC}\n")
        return 2

    import workloads

    os.makedirs(args.workdir, exist_ok=True)
    ops = workloads.build(args.workload, args.seed, args.workdir)
    with open(args.expect) as fh:
        expected = json.load(fh)[args.workload]
    tracer = None
    if args.trace:
        import spans

        tracer = spans.install()
    if args.setup_only:
        print(json.dumps({"setup_s": time.monotonic() - args.t0}))
        return 0

    results = []
    for i, op in enumerate(ops):
        if i == 0:
            setup_s = time.monotonic() - args.t0
        if tracer is not None:
            tracer.begin_op(i)
        start = time.perf_counter()
        try:
            observed = op.run()
            error = None if observed == expected[op.name] else "differs from expected"
        except Exception as exc:  # a crash is a failed operation, not a dead run
            observed, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        results.append({"name": op.name, "seconds": seconds, "error": error,
                        "observed": observed})
    summary = {
        "setup_s": setup_s,
        "wall_s": sum(r["seconds"] for r in results),
        "ops": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        summary["layers"] = tracer.summary()
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
