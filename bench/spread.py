#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 bench/spread.py --workload risk-curves --seeds 1-10 [--seconds 24]

Runs bench/run.py once per seed, one run at a time, and prints for each
end-to-end metric its median over the runs and the distance between its first
and third quartiles as a share of the median.  Also prints the failed share
of each run, which must be the same in every run.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=24)
    args = p.parse_args()
    runs = []
    for seed in _seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        values = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} {values}", flush=True)
    print(f"{args.workload}, {len(runs)} runs:")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        print(f"  {name:12s} median {q2:.5g} {runs[0]['metrics'][name]['unit']:3s}"
              f"  spread {(q3 - q1) / q2:.4f}")
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"  failed share(s): {sorted(shares)}; all correct: {all(r['correct'] for r in runs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
