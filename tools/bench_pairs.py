#!/usr/bin/env python3
"""Paired before/after runs of the benchmark, for a committed BENCH_*.json.

    python3 tools/bench_pairs.py --parent REV --workload study-design --pairs 10 \
        --out BENCH_tag.json

Exports the committed files of REV (git archive, so the repository gains no
worktree or branch) and copies this working tree's files into two temporary
directories beside the working tree, removed afterwards, and runs the
unmodified bench/run.py of each copy: REV's, then the working tree's,
alternating which side goes first from one pair to the next.  Pair i uses seed
--first-seed + i, and both sides run for the run_seconds of BENCHMARK.json.
Every run, both sides' medians and quartiles of each end-to-end metric, the
change's win count, and whether it stays within the bound BENCHMARK.json
fixes are written under workloads[W] of --out, with each side's median over
the pairs of the per-kind sums of operation times (kind_s: the operation
medians that bench-out/W-seedS.json records for a run, summed by kind, in
seconds at the reference speed).  An existing file keeps its other
workloads, so several invocations fill one file.  A gain is claimed
for a metric when the change wins at least nine tenths of the pairs and the
medians differ by more than the distance between the parent's quartiles.

Each pair also runs the unmodified bench/worker.py of each side once more,
with --check 0, and compares the two lists of output digests: the pair
records outputs_identical and the indices of the operations whose digests
differ (differing_ops), and the workload records whether every pair's
outputs were identical.
"""
from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the environment bench/run.py gives its workers: BLAS on one thread, fixed hashing
WORKER_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "NUMEXPR_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """The committed files of rev, unpacked under dest."""
    data = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                          capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, filter="data")


def copy_worktree(dest: Path, root: Path = ROOT) -> None:
    """The files of the working tree at root that git tracks or would track
    (ignored ones left out), copied under dest."""
    names = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                           cwd=root, check=True, capture_output=True).stdout.decode().split("\0")
    for name in names:
        # a tracked file deleted from the working tree is not copied
        if name and (root / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(root / name, dest / name)


def side_checkout(side: str, root: Path = ROOT) -> tempfile.TemporaryDirectory:
    """The temporary directory one side's files go into: beside root, in
    root's parent directory, named bench-parent-* or bench-change-*, so both
    sides run from copies made alike, at one depth and with paths of one
    length.  With the working tree run in place and the parent exported into
    tempfile's default directory, the parent side ran a few percent faster
    in an A/A run."""
    return tempfile.TemporaryDirectory(prefix=f"bench-{side}-", dir=root.parent)


def run(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"bench/run.py failed in {checkout}:\n{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((checkout / "bench-out" / f"{workload}-seed{seed}.json").read_text())
    kind_s: dict = {}
    for kind, op_s in zip(record["record"]["kinds"], record["record"]["op_s"]):
        kind_s[kind] = kind_s.get(kind, 0.0) + op_s
    return {
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: m["value"] for name, m in out["metrics"].items()},
        "kind_s": kind_s,
    }


def digests(checkout: Path, workload: str, seed: int) -> list:
    """Every operation's output digest from one pass of checkout's bench/worker.py."""
    env = dict(os.environ, **WORKER_ENV)
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, "bench/worker.py", "--root", str(checkout), "--workload", workload,
         "--seed", str(seed), "--check", "0", "--spawned", repr(time.perf_counter())],
        cwd=checkout, env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"bench/worker.py failed in {checkout}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["digests"]


def compare_outputs(parent: list, change: list) -> dict:
    """Whether two passes' output digests agree, and where they do not."""
    differ = [i for i, (p, c) in enumerate(zip(parent, change)) if p != c]
    differ += list(range(min(len(parent), len(change)), max(len(parent), len(change))))
    return {"outputs_identical": not differ, "differing_ops": differ}


def summarize_kinds(pairs: list) -> dict:
    """Median over the pairs of each side's per-kind sum of operation times."""
    return {
        kind: {side + "_median": statistics.median(p[side]["kind_s"][kind] for p in pairs)
               for side in ("parent", "change")}
        for kind in pairs[0]["parent"]["kind_s"]
    }


def summarize(pairs: list, spec: list) -> dict:
    out = {}
    for metric in spec:
        name, lower = metric["name"], metric["better"] == "lower"
        par = [p["parent"]["metrics"][name] for p in pairs]
        chg = [p["change"]["metrics"][name] for p in pairs]
        wins = sum((c < q) if lower else (c > q) for q, c in zip(par, chg))
        q1, _, q3 = statistics.quantiles(par, n=4, method="inclusive")
        c1, _, c3 = statistics.quantiles(chg, n=4, method="inclusive")
        mp, mc = statistics.median(par), statistics.median(chg)
        worse = (mc - mp) / mp if lower else (mp - mc) / mp
        gain = mp - mc if lower else mc - mp
        out[name] = {
            "unit": metric["unit"],
            "parent_median": mp,
            "parent_quartiles": [q1, q3],
            "change_median": mc,
            "change_quartiles": [c1, c3],
            "change_wins": wins,
            "pairs": len(pairs),
            "relative_change": (mc - mp) / mp,
            "within_bound": worse <= metric["bound"],
            "gain_claimable": wins >= math.ceil(0.9 * len(pairs)) and gain > q3 - q1,
        }
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="git revision to compare against")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--out", required=True, type=Path)
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2, the fewest runs that have quartiles")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    parent_sha = git("rev-parse", args.parent)

    pairs = []
    with side_checkout("parent") as parent_tmp, side_checkout("change") as change_tmp:
        parent_root, change_root = Path(parent_tmp), Path(change_tmp)
        export(parent_sha, parent_root)
        copy_worktree(change_root)
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run(parent_root if side == "parent" else change_root,
                                 args.workload, seed, seconds)
            pair.update(compare_outputs(digests(parent_root, args.workload, seed),
                                        digests(change_root, args.workload, seed)))
            pairs.append(pair)
            print(f"{args.workload} seed {seed}: pass_s parent "
                  f"{pair['parent']['metrics']['pass_s']:.4f} change "
                  f"{pair['change']['metrics']['pass_s']:.4f}, outputs "
                  + ("identical" if pair["outputs_identical"]
                     else f"differ at {pair['differing_ops']}"), file=sys.stderr)

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    if doc.get("parent", parent_sha) != parent_sha:
        raise SystemExit(f"{args.out} compares against {doc['parent']}, not {parent_sha}")
    doc.update(
        parent=parent_sha,
        change=f"working tree on {git('rev-parse', 'HEAD')}"
        + (" (uncommitted changes)" if git("status", "--porcelain", "--", "src") else ""),
        machine=f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}",
        command="python3 bench/run.py --workload W --seed S "
        f"--seconds {seconds} --trace 0",
    )
    doc.setdefault("workloads", {})[args.workload] = {
        "summary": summarize(pairs, bench["end_to_end"]),
        "outputs_identical": all(p["outputs_identical"] for p in pairs),
        "kind_s": summarize_kinds(pairs),
        "runs": pairs,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
