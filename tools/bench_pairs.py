#!/usr/bin/env python3
"""Paired before/after runs of the benchmark, for a committed BENCH_*.json.

    python3 tools/bench_pairs.py --parent REV --workload study-design --pairs 10 \
        --out BENCH_tag.json

A --workload that BENCHMARK.json does not list is refused before anything
is exported or copied.  Otherwise it exports the committed files of REV (git
archive, so the repository gains no worktree or branch) and copies this
working tree's files into two temporary directories beside the working
tree, removed afterwards, and runs the
unmodified bench/run.py of each copy: REV's, then the working tree's,
alternating which side goes first from one pair to the next.  Pair i uses seed
--first-seed + i, and both sides run for the run_seconds of BENCHMARK.json.
Every run, both sides' medians and quartiles of each end-to-end metric, the
change's win count, and whether it stays within the bound BENCHMARK.json
fixes are written under workloads[W] of --out, with each side's median over
the pairs of the per-kind sums of operation times (kind_s: the operation
medians that bench-out/W-seedS.json records for a run, summed by kind, in
seconds at the reference speed) and of each kind's fastest and slowest
operation median (kind_range), which places a kind at the rank a percentile
metric reads.  Each run also records percentile_kinds, the kinds of the
operations that op_ms_p50 and op_ms_p90 read (the middle one or two
operation medians, and the two neighbours of the inclusive 90th
percentile), printed per seed and side, so a percentile claim can name
its kind.  A risk operation's kind carries its rule family, read from
bench/workloads.py (risk:bayes-flat, risk:logistic, ...), so kind_s shows
which family a change moved.  An existing file keeps its other workloads, so
several invocations fill one file.  A gain is claimed for a metric when the
change wins at least nine tenths of the pairs and the medians differ by more
than the distance between the parent's quartiles.

Each pair also runs the unmodified bench/worker.py of each side once more,
with --check 0, and compares the two lists of output digests: the pair
records outputs_identical and the indices of the operations whose digests
differ (differing_ops), and the workload records whether every pair's
outputs were identical.

Each metric's summary also records whether it is unresolved: either side's
runs spread, quartile to quartile, by more than the metric's bound relative
to the parent median, so that a median inside the bound does not show the
change to be within it; a change whose every run reads better than every
parent run is resolved.

The document also records each side's source size, since a design change is
judged by the lines it removes: src_lines, the newlines in its
src/msregret/*.py, as wc -l counts them, and src_code_lines, the lines of
those files that are not blank, not comments and not docstrings, so that
deleted prose does not read as deleted code.

The run ends by printing to standard error both sizes of both sides, then
one line per end-to-end metric:
parent -> change median, relative change, wins/pairs, within_bound and
gain_claimable, and for an unresolved metric the parent's spread, so a
change that claims no gain can be checked for regressions from the terminal.
One line per kind follows: the parent -> change median of its kind_s, the
relative change and the change's wins, which show where a change moved.
"""
from __future__ import annotations

import argparse
import ast
import importlib.util
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
import tokenize
from importlib import metadata
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


def src_lines(checkout: Path) -> int:
    """The newlines in checkout's src/msregret/*.py, as wc -l counts them."""
    return sum(path.read_bytes().count(b"\n")
               for path in (checkout / "src" / "msregret").glob("*.py"))


# tokens that hold no code: a line holding only these is blank or a comment
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def src_code_lines(checkout: Path) -> int:
    """The lines of checkout's src/msregret/*.py that hold a token other
    than a comment and lie outside every module, class and function
    docstring."""
    total = 0
    for path in (checkout / "src" / "msregret").glob("*.py"):
        text = path.read_text()
        lines = set()
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type not in _NOT_CODE:
                lines.update(range(tok.start[0], tok.end[0] + 1))
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
                lines.difference_update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
        total += len(lines)
    return total


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
    kinds = family_labels(checkout, workload, seed, record["record"]["kinds"])
    kind_s, kind_range = by_kind(kinds, record["record"]["op_s"])
    return {
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: m["value"] for name, m in out["metrics"].items()},
        "kind_s": kind_s,
        "kind_range": kind_range,
        "percentile_kinds": percentile_kinds(kinds, record["record"]["op_s"]),
    }


def family_labels(checkout: Path, workload: str, seed: int, kinds: list) -> list:
    """kinds with each risk operation labelled by its rule family
    (risk:bayes-flat), read from the operation list that checkout's
    bench/workloads.py builds; a list without risk operations is returned
    as it is."""
    if "risk" not in kinds:
        return kinds
    spec = importlib.util.spec_from_file_location("workloads", checkout / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    ops = workloads.build(workload, seed)
    if len(ops) != len(kinds):
        raise SystemExit(f"{workload} seed {seed}: {len(kinds)} timed operations, "
                         f"but bench/workloads.py builds {len(ops)}")
    return [f"risk:{op['rule']['name']}" if kind == "risk" else kind
            for kind, op in zip(kinds, ops)]


def by_kind(kinds: list, op_s: list) -> tuple:
    """Per kind, the sum of its operations' medians and [fastest, slowest] of them."""
    kind_s: dict = {}
    kind_range: dict = {}
    for kind, t in zip(kinds, op_s):
        kind_s[kind] = kind_s.get(kind, 0.0) + t
        lo, hi = kind_range.get(kind, (t, t))
        kind_range[kind] = [min(lo, t), max(hi, t)]
    return kind_s, kind_range


def percentile_kinds(kinds: list, op_s: list) -> dict:
    """The kinds of the operations that op_ms_p50 and op_ms_p90 read from
    the operation medians op_s: the middle one or two in sorted order, and
    the two neighbours that the inclusive 90th percentile interpolates
    between."""
    order = sorted(range(len(op_s)), key=op_s.__getitem__)
    n = len(order)
    j = 90 * (n - 1) // 100  # statistics.quantiles' inclusive index
    return {"op_ms_p50": [kinds[i] for i in order[(n - 1) // 2 : n // 2 + 1]],
            "op_ms_p90": [kinds[i] for i in order[j : j + 2]]}


def machine() -> str:
    """The hardware and software that set-up time and memory depend on: the
    numpy and scipy versions, whose imports dominate a worker's set-up, and
    whether bytecode writing is off (PYTHONDONTWRITEBYTECODE=1), in which
    case every worker compiles msregret from source as it imports it."""
    return (f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}, "
            f"numpy {metadata.version('numpy')}, scipy {metadata.version('scipy')}, "
            f"dont_write_bytecode {str(sys.dont_write_bytecode).lower()}")


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


def summarize_kind_ranges(pairs: list) -> dict:
    """Median over the pairs of each side's fastest and slowest operation of each kind."""
    return {
        kind: {f"{side}_{end}_median": statistics.median(p[side]["kind_range"][kind][i]
                                                         for p in pairs)
               for side in ("parent", "change") for i, end in enumerate(("fastest", "slowest"))}
        for kind in pairs[0]["parent"]["kind_range"]
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


def unresolved(pairs: list, metric: dict) -> bool:
    """Whether an end-to-end metric's runs spread too widely to tell a change
    within its bound from one outside it: either side's quartile distance,
    over the parent median, exceeds the metric's bound, unless every change
    run reads better than every parent run."""
    name, lower = metric["name"], metric["better"] == "lower"
    par = [p["parent"]["metrics"][name] for p in pairs]
    chg = [p["change"]["metrics"][name] for p in pairs]
    spread = max(q3 - q1 for q1, _, q3 in (
        statistics.quantiles(side, n=4, method="inclusive") for side in (par, chg)))
    better = max(chg) < min(par) if lower else min(chg) > max(par)
    return spread / statistics.median(par) > metric["bound"] and not better


def verdict_lines(workload: str, summary: dict) -> list:
    """One line per end-to-end metric of a summarize result: the parent and
    change medians, the relative change, the change's wins over the pairs,
    and whether the metric is within its bound and a gain claimable; a metric
    flagged unresolved (see unresolved) also gives the parent's quartile
    distance over its median."""
    return [
        f"{workload} {name}: {m['parent_median']:.6g} -> {m['change_median']:.6g} {m['unit']} "
        f"({m['relative_change']:+.1%}), wins {m['change_wins']}/{m['pairs']}, "
        f"within_bound {str(m['within_bound']).lower()}, "
        f"gain_claimable {str(m['gain_claimable']).lower()}"
        + (f", unresolved true (parent spread "
           f"{(m['parent_quartiles'][1] - m['parent_quartiles'][0]) / m['parent_median']:.1%})"
           if m.get("unresolved") else "")
        for name, m in summary.items()
    ]


def kind_verdict_lines(workload: str, pairs: list) -> list:
    """One line per kind of the pairs: the parent and change medians of its
    kind_s (see summarize_kinds), the relative change, and the change's wins,
    the pairs whose change run has the lower sum."""
    return [
        f"{workload} kind_s {kind}: {m['parent_median']:.6g} -> {m['change_median']:.6g} s "
        f"({(m['change_median'] - m['parent_median']) / m['parent_median']:+.1%}), wins "
        f"{sum(p['change']['kind_s'][kind] < p['parent']['kind_s'][kind] for p in pairs)}"
        f"/{len(pairs)}"
        for kind, m in summarize_kinds(pairs).items()
    ]


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
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        p.error(f"--workload must be one of {', '.join(names)}, got {args.workload!r}")
    seconds = bench["run_seconds"]
    parent_sha = git("rev-parse", args.parent)

    pairs = []
    with side_checkout("parent") as parent_tmp, side_checkout("change") as change_tmp:
        parent_root, change_root = Path(parent_tmp), Path(change_tmp)
        export(parent_sha, parent_root)
        copy_worktree(change_root)
        lines = {"parent": src_lines(parent_root), "change": src_lines(change_root)}
        code_lines = {"parent": src_code_lines(parent_root), "change": src_code_lines(change_root)}
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
            for side in ("parent", "change"):
                reads = pair[side]["percentile_kinds"]
                print(f"{args.workload} seed {seed} {side}: op_ms_p50 reads "
                      f"{', '.join(reads['op_ms_p50'])}; op_ms_p90 reads "
                      f"{', '.join(reads['op_ms_p90'])}", file=sys.stderr)

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    if doc.get("parent", parent_sha) != parent_sha:
        raise SystemExit(f"{args.out} compares against {doc['parent']}, not {parent_sha}")
    doc.update(
        parent=parent_sha,
        change=f"working tree on {git('rev-parse', 'HEAD')}"
        + (" (uncommitted changes)" if git("status", "--porcelain", "--", "src") else ""),
        machine=machine(),
        src_lines=lines,
        src_code_lines=code_lines,
        command="python3 bench/run.py --workload W --seed S "
        f"--seconds {seconds} --trace 0",
    )
    summary = summarize(pairs, bench["end_to_end"])
    spec = {metric["name"]: metric for metric in bench["end_to_end"]}
    for name, m in summary.items():
        m["unresolved"] = unresolved(pairs, spec[name])
    doc.setdefault("workloads", {})[args.workload] = {
        "summary": summary,
        "outputs_identical": all(p["outputs_identical"] for p in pairs),
        "kind_s": summarize_kinds(pairs),
        "kind_range": summarize_kind_ranges(pairs),
        "runs": pairs,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"src_lines: {lines['parent']} -> {lines['change']}, src_code_lines: "
          f"{code_lines['parent']} -> {code_lines['change']}", file=sys.stderr)
    for line in verdict_lines(args.workload, summary) + kind_verdict_lines(args.workload, pairs):
        print(line, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
