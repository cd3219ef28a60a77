#!/usr/bin/env python3
"""Fixed-work benchmark of msregret.

    python3 bench/run.py --workload risk-curves --seed 1 --seconds 24 --trace 0

Workloads: risk-curves, prior-bayes, study-design (see README.md).  A run is
a fixed number of passes over the workload's operation list; each pass is a
fresh worker process (worker.py), started one at a time with BLAS pinned to
one thread.  --seconds sets the number of passes, one per 4 s, from 3 to 9;
the clock never cuts a run short.  The first pass also checks every output
against reference.py, and every pass must produce byte-identical outputs.

The machine this runs on changes speed by up to a half within a minute, so
every time is scaled to a reference speed by probes the worker runs next to
it (see scaled()), and each operation's time is the median of its scaled
times over the passes.  After each pass one more worker stops after set-up,
so setup_s is the median of twice as many set-ups as there are passes.

--trace 0 reports the end-to-end metrics: setup_s, pass_s (the sum of the
operation times), op_ms_p50 and op_ms_p90 over the operations, and
peak_rss_mb.  --trace 1 alternates three plain and three traced passes and
reports the per-layer metrics, with the tracing overhead on standard error.
The last line of standard output is the result as JSON; the full record
goes to bench-out/ under the checkout root.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("risk-curves", "prior-bayes", "study-design")
RUN_LIMIT_S = 170.0
# Times are reported at a reference machine speed: the speed at which
# worker.probe() takes 0.5 ms and worker.setup_probe() 0.25 ms.
PROBE_REF_S = 0.5e-3
SETUP_PROBE_REF_S = 0.25e-3
TRACE_PAIRS = 3
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
            "NUMEXPR_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1"}


class RunError(RuntimeError):
    """A worker failed or the run could not be completed."""


def passes_for(seconds: int) -> int:
    return min(9, max(3, round(seconds / 4)))


def run_worker(workload: str, seed: int, check: bool, trace: bool, deadline: float,
               setup_only: bool = False) -> dict:
    env = dict(os.environ, **BLAS_ENV, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, str(ROOT / "bench" / "worker.py"), "--root", str(ROOT),
           "--workload", workload, "--seed", str(seed),
           "--check", str(int(check)), "--trace", str(int(trace)),
           "--setup-only", str(int(setup_only))]
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        raise RunError("out of time before starting a worker")
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(spawned)], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise RunError(f"worker for {workload} did not finish within the run limit") from None
    if proc.returncode != 0:
        raise RunError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        raise RunError(f"worker printed no result:\n{proc.stderr[-2000:]}") from None


def _quantile(values, q: int) -> float:
    """q-th percentile (inclusive method) of values."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _speed(probes: list, i: int) -> float:
    """Machine speed around operation i: the median of the 16 probes nearest it."""
    return statistics.median(probes[max(0, i - 7):i + 9])


def scaled(p: dict) -> tuple:
    """(set-up time, operation times) of one pass, at the reference speed.

    An operation's time is multiplied by PROBE_REF_S over the probe time
    around it; set-up is scaled by the interpreter probes taken before and
    after it.  Wall-clock times and probes stay in the run record.
    """
    probes = p["probe_s"]
    ops = [t * PROBE_REF_S / _speed(probes, i) for i, t in enumerate(p["op_s"])]
    setup = p["setup_s"] * SETUP_PROBE_REF_S / statistics.fmean(p["setup_probe_s"])
    return setup, ops


def _verdict(passes: list) -> tuple:
    """(correct, failed ops per pass, reasons) from the checked first pass."""
    first = passes[0]
    reasons = []
    for k, other in enumerate(passes[1:], start=1):
        diff = [i for i, (a, b) in enumerate(zip(first["digests"], other["digests"])) if a != b]
        if diff:
            reasons.append(f"pass {k} output differs from pass 0 at operations {diff[:5]}")
    failures = {int(i): why for i, why in first["failures"].items()}
    known = set(first["known_faults"])
    for i, why in sorted(failures.items()):
        if i not in known:
            reasons.append(f"operation {i} ({first['kinds'][i]}): {why}")
    return not reasons, len(failures), reasons


def measure(workload: str, seed: int, seconds: int, deadline: float) -> tuple:
    passes, setup_runs = [], []
    for k in range(passes_for(seconds)):
        passes.append(run_worker(workload, seed, k == 0, False, deadline))
        # set-up alone, a second sample per pass: set-up is short and noisy
        setup_runs.append(run_worker(workload, seed, False, False, deadline, setup_only=True))
    correct, failed_ops, reasons = _verdict(passes)
    setups = [scaled(p)[0] for p in passes + setup_runs]
    best = [statistics.median(times) for times in zip(*(scaled(p)[1] for p in passes))]
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "pass_s": {"value": sum(best), "unit": "s"},
        "op_ms_p50": {"value": 1e3 * statistics.median(best), "unit": "ms"},
        "op_ms_p90": {"value": 1e3 * _quantile(best, 90), "unit": "ms"},
        "peak_rss_mb": {"value": max(p["peak_rss_mb"] for p in passes), "unit": "MB"},
    }
    record = {"passes": len(passes), "operations": len(best), "op_s": best,
              "kinds": passes[0]["kinds"], "failures": passes[0]["failures"],
              "reasons": reasons, "per_pass": [
                  {"setup_s": p["setup_s"], "setup_probe_s": p["setup_probe_s"],
                   "op_s": p["op_s"], "probe_s": p["probe_s"],
                   "peak_rss_mb": p["peak_rss_mb"]} for p in passes],
              "setup_only": [{"setup_s": p["setup_s"], "setup_probe_s": p["setup_probe_s"]}
                             for p in setup_runs]}
    summary = {"correct": correct, "attempted": len(best) * len(passes),
               "failed": failed_ops * len(passes), "metrics": metrics}
    return summary, record


def trace(workload: str, seed: int, deadline: float) -> tuple:
    """Per-layer metrics: three plain and three traced passes, alternating.

    Each per-layer value is its median over the traced passes; the tracing
    overhead is the traced pass_s against the plain pass_s.
    """
    plain, traced = [], []
    for k in range(TRACE_PAIRS):
        plain.append(run_worker(workload, seed, k == 0, False, deadline))
        traced.append(run_worker(workload, seed, False, True, deadline))
    correct, failed_ops, reasons = _verdict(plain + traced)
    plain_s, traced_s = (sum(statistics.median(t) for t in zip(*(scaled(p)[1] for p in ps)))
                         for ps in (plain, traced))
    overhead = {"untraced_pass_s": plain_s, "traced_pass_s": traced_s,
                "overhead": traced_s / plain_s - 1.0}
    print(f"tracing overhead on {workload}: traced pass {traced_s:.3f} s, "
          f"untraced {plain_s:.3f} s ({100 * overhead['overhead']:+.1f}%)", file=sys.stderr)
    metrics = {name: {"value": statistics.median(p["per_layer"][name]["value"] for p in traced),
                      "unit": m["unit"]} for name, m in traced[0]["per_layer"].items()}
    record = {"overhead": overhead, "spans": [p["spans"] for p in traced],
              "failures": plain[0]["failures"], "reasons": reasons}
    summary = {"correct": correct, "attempted": len(plain[0]["op_s"]) * 2 * TRACE_PAIRS,
               "failed": failed_ops * 2 * TRACE_PAIRS, "metrics": metrics}
    return summary, record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=24)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "msregret" / "__init__.py").is_file():
        print(f"error: no msregret sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_LIMIT_S
    try:
        if args.trace:
            summary, record = trace(args.workload, args.seed, deadline)
        else:
            summary, record = measure(args.workload, args.seed, args.seconds, deadline)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for reason in record["reasons"]:
        print(f"incorrect: {reason}", file=sys.stderr)
    out_dir = ROOT / "bench-out"
    out_dir.mkdir(exist_ok=True)
    suffix = "-trace" if args.trace else ""
    with open(out_dir / f"{args.workload}-seed{args.seed}{suffix}.json", "w") as fh:
        json.dump(dict(summary, record=record), fh, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
