"""Benchmark of edgeposets: exact verdicts, end-to-end times and per-layer spans.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; nothing needs installing (stdlib only).
Workloads (see workloads.py and BENCHMARK.json for why each was chosen):
sweep-n5, quotient-flow, quotient-biggroup, check-lefschetz.

Each pass of a workload is a fresh interpreter (worker.py) that imports
`edgeposets` from `src/`, generates its inputs from the seed, and runs every
operation once through `edgeposets.cli.main`, as a user's command would, with
no warm-up and `--jobs 1`.  Every operation's output is checked against the
exact verdicts in expected.json.

--trace 0 runs passes back to back while the next one is expected to end
within --seconds (always at least one), plus set-up-only interpreters until
SETUP_SAMPLES set-ups are timed, and reports medians over passes:
  wall_s       seconds for all of a pass's operations
  op_max_s     seconds for the slowest single operation of a pass
  peak_rss_mb  ru_maxrss of the pass's process
  setup_s      interpreter start to the first timed operation
--trace 1 runs one untraced and one traced pass, checks that both give the
same outputs, and reports the traced pass's per-layer calls/self_s/total_s
(spans.py), the exact derived counts, and trace.overhead_s, the difference
between the two passes' wall_s.

The last stdout line is {"correct", "attempted", "failed", "metrics"}; the line
before it is the run context.  The run context, per-pass detail and (traced)
spans are also written under .bench_out/.  Exit code 2: the program under test
is missing or a pass crashed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from hashlib import sha256

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_SAMPLES = 7
RUN_LIMIT_S = 170  # every run must end well within 180 s
# Measured on the 2-CPU shared host where the bounds in BENCHMARK.json were set;
# the noise comes in phases lasting seconds, so it also moves whole runs.
HOST_NOISE = ("a fixed pure-Python loop varied 0.85-1.17 s over 12 runs; "
              "the ~0.1 s calibration loop varied 84-176 ms over 150 back-to-back "
              "repetitions; calibration_s times it at the start and end of this run")


class BenchError(Exception):
    pass


def calibration_loop():
    """Seconds for a fixed pure-Python loop, to show how busy the host was."""
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def git_commit():
    """HEAD of the checkout if it is a git work tree, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        return None
    return None


def source_digest():
    """sha256 over src/edgeposets/*.py, which names the code even without git."""
    pkg = os.path.join(ROOT, "src", "edgeposets")
    h = sha256()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def spawn(workload, seed, workdir, deadline, trace=0, setup_only=False, expect=None,
          spans_path=None):
    """Run one worker to completion and return its JSON summary."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(seed % 4294967296)  # the seed fixes the whole run
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--workdir", workdir, "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    if expect:
        cmd += ["--expect", expect]
    if spans_path:
        cmd += ["--spans", spans_path]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a pass")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env, capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} pass exceeded the run limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr}")
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    summary["process_s"] = time.monotonic() - t0
    return summary


def run_workload(workload, seed, seconds, trace, expect=None):
    """Measure one workload; returns (result line, per-run detail)."""
    if workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}; pick from {workloads.WORKLOADS}")
    if not os.path.isfile(os.path.join(ROOT, "src", "edgeposets", "__init__.py")):
        raise BenchError(f"no edgeposets sources under {ROOT}/src")
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    calibration = [calibration_loop()]
    workdir = os.path.join(OUT, "work", f"{workload}-seed{seed}-pid{os.getpid()}")
    os.makedirs(OUT, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(bool(trace))}"
    try:
        if trace:
            plain = spawn(workload, seed, workdir, deadline, expect=expect)
            traced = spawn(workload, seed, workdir, deadline, trace=1, expect=expect,
                           spans_path=os.path.join(OUT, f"spans-{tag}.jsonl"))
            passes = [plain, traced]
            setups = []
        else:
            passes = []
            while True:
                passes.append(spawn(workload, seed, workdir, deadline, expect=expect))
                longest = max(p["process_s"] for p in passes)
                if time.monotonic() - start + longest > seconds:
                    break
            setups = [p["setup_s"] for p in passes]
            while len(setups) < SETUP_SAMPLES:
                setups.append(spawn(workload, seed, workdir, deadline, setup_only=True,
                                    expect=expect)["setup_s"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    calibration.append(calibration_loop())

    ops = [op for p in passes for op in p["ops"]]
    attempted = len(ops)
    failed = sum(op["error"] is not None for op in ops)
    correct = failed == 0
    if trace:
        same = [a["observed"] for a in plain["ops"]] == [b["observed"] for b in traced["ops"]]
        correct = correct and same
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in traced["layers"].items()}
        metrics["trace.overhead_s"] = {"value": traced["wall_s"] - plain["wall_s"], "unit": "s"}
    else:
        med = statistics.median
        metrics = {
            "wall_s": {"value": med(p["wall_s"] for p in passes), "unit": "s"},
            "op_max_s": {"value": med(max(op["seconds"] for op in p["ops"]) for p in passes),
                         "unit": "s"},
            "peak_rss_mb": {"value": med(p["peak_rss_mb"] for p in passes), "unit": "MB"},
            "setup_s": {"value": med(setups), "unit": "s"},
        }
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    detail = {
        "context": {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "trace": int(bool(trace)),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "git_commit": git_commit(),
            "source_sha256": source_digest(),
            "jobs": 1,
            "host_noise": HOST_NOISE,
            "calibration_s": calibration,
        },
        "error_rate": failed / attempted,
        "passes": [{k: v for k, v in p.items() if k != "layers"} for p in passes],
        "setup_samples": setups,
        "result": result,
    }
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump(detail, fh, indent=1)
    return result, detail


def _layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("calls_per_record"):
        return "calls/record"
    return "count"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result, detail = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 2
    for p in detail["passes"]:
        for op in p["ops"]:
            if op["error"]:
                sys.stderr.write(f"{args.workload}/{op['name']}: {op['error']}\n")
    print("context " + json.dumps(detail["context"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
