"""The summary functions and checkout helpers of tools/bench_pairs.py; no
benchmark run starts."""
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

LOWER = [{"name": "pass_s", "unit": "s", "better": "lower", "bound": 0.24}]
HIGHER = [{"name": "ops", "unit": "1/s", "better": "higher", "bound": 0.24}]
PARENT = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]


def _pairs(parent, change, name="pass_s"):
    return [
        {"parent": {"metrics": {name: p}}, "change": {"metrics": {name: c}}}
        for p, c in zip(parent, change)
    ]


class TestSummarize:
    def test_fields_of_a_claimable_gain(self):
        # the parent's quartiles are 12.25 and 16.75: a gain of 5 exceeds their distance
        out = bench_pairs.summarize(_pairs(PARENT, [p - 5.0 for p in PARENT]), LOWER)
        assert out["pass_s"] == {
            "unit": "s",
            "parent_median": 14.5,
            "parent_quartiles": [12.25, 16.75],
            "change_median": 9.5,
            "change_quartiles": [7.25, 11.75],
            "change_wins": 10,
            "pairs": 10,
            "relative_change": -5.0 / 14.5,
            "within_bound": True,
            "gain_claimable": True,
        }

    def test_a_gain_inside_the_parent_spread_is_not_claimable(self):
        out = bench_pairs.summarize(_pairs(PARENT, [p - 3.0 for p in PARENT]), LOWER)
        assert out["pass_s"]["change_wins"] == 10
        assert not out["pass_s"]["gain_claimable"]

    @pytest.mark.parametrize("losses,claimable", [(1, True), (2, False)])
    def test_nine_tenths_of_the_pairs_must_win(self, losses, claimable):
        change = [p - 10.0 for p in PARENT[: 10 - losses]] + [p + 1.0 for p in PARENT[10 - losses:]]
        out = bench_pairs.summarize(_pairs(PARENT, change), LOWER)
        assert out["pass_s"]["change_wins"] == 10 - losses
        assert out["pass_s"]["gain_claimable"] is claimable

    def test_ties_count_for_neither_side(self):
        out = bench_pairs.summarize(_pairs(PARENT, PARENT), LOWER)
        assert out["pass_s"]["change_wins"] == 0
        assert out["pass_s"]["relative_change"] == 0.0
        assert out["pass_s"]["within_bound"]
        assert not out["pass_s"]["gain_claimable"]

    @pytest.mark.parametrize("factor,within", [(1.2, True), (1.3, False)])
    def test_within_bound_compares_the_median_slowdown(self, factor, within):
        out = bench_pairs.summarize(_pairs(PARENT, [p * factor for p in PARENT]), LOWER)
        assert out["pass_s"]["within_bound"] is within
        assert out["pass_s"]["change_wins"] == 0

    def test_higher_is_better(self):
        out = bench_pairs.summarize(_pairs(PARENT, [p + 5.0 for p in PARENT], "ops"), HIGHER)
        assert out["ops"]["change_wins"] == 10
        assert out["ops"]["gain_claimable"]
        assert out["ops"]["within_bound"]
        slower = bench_pairs.summarize(_pairs(PARENT, [p * 0.7 for p in PARENT], "ops"), HIGHER)
        assert not slower["ops"]["within_bound"]


class TestVerdictLines:
    def test_one_line_per_metric_in_spec_order(self):
        spec = LOWER + [{"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05}]
        pairs = [{side: {"metrics": {"pass_s": p - d, "peak_rss_mb": 60.0 + d}}
                  for side, d in (("parent", 0.0), ("change", 5.0))} for p in PARENT]
        lines = bench_pairs.verdict_lines("study-design", bench_pairs.summarize(pairs, spec))
        assert lines == [
            "study-design pass_s: 14.5 -> 9.5 s (-34.5%), wins 10/10, "
            "within_bound true, gain_claimable true",
            "study-design peak_rss_mb: 60 -> 65 MB (+8.3%), wins 0/10, "
            "within_bound false, gain_claimable false",
        ]

    def test_main_ends_with_the_lines(self, tmp_path, monkeypatch, capsys):
        summary = bench_pairs.summarize(_pairs(PARENT, PARENT), LOWER)
        monkeypatch.setattr(bench_pairs, "git", lambda *args: "abc")
        monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: None)
        monkeypatch.setattr(bench_pairs, "copy_worktree", lambda dest: None)
        monkeypatch.setattr(bench_pairs, "run", lambda *args: {
            "metrics": {"pass_s": 1.0}, "percentile_kinds": {"op_ms_p50": [], "op_ms_p90": []}})
        monkeypatch.setattr(bench_pairs, "digests", lambda *args: [])
        monkeypatch.setattr(bench_pairs, "summarize", lambda pairs, spec: summary)
        monkeypatch.setattr(bench_pairs, "summarize_kinds", lambda pairs: {})
        monkeypatch.setattr(bench_pairs, "summarize_kind_ranges", lambda pairs: {})
        monkeypatch.setattr(bench_pairs, "side_checkout",
                            lambda side: bench_pairs.tempfile.TemporaryDirectory(dir=tmp_path))
        monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
        (tmp_path / "BENCHMARK.json").write_text(json.dumps(
            {"run_seconds": 1, "workloads": [{"name": "w"}], "end_to_end": LOWER}))
        out = tmp_path / "bench.json"
        assert bench_pairs.main(["--parent", "HEAD", "--workload", "w", "--pairs", "2",
                                 "--out", str(out)]) == 0
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == ("w pass_s: 14.5 -> 14.5 s (+0.0%), wins 0/10, "
                           "within_bound true, gain_claimable false")
        assert json.loads(out.read_text())["workloads"]["w"]["summary"] == summary


class TestKindVerdictLines:
    def test_one_line_per_kind_with_medians_change_and_wins(self):
        pairs = [
            {"parent": {"kind_s": {"regress": p, "cli": 1.0}},
             "change": {"kind_s": {"regress": c, "cli": 1.0}}}
            for p, c in [(0.016, 0.0125), (0.015, 0.014), (0.014, 0.015)]
        ]
        assert bench_pairs.kind_verdict_lines("study-design", pairs) == [
            "study-design kind_s regress: 0.015 -> 0.014 s (-6.7%), wins 2/3",
            "study-design kind_s cli: 1 -> 1 s (+0.0%), wins 0/3",
        ]

    def test_main_prints_them_after_the_metric_lines(self, tmp_path, monkeypatch, capsys):
        runs = iter([0.02, 0.01, 0.04, 0.03])
        monkeypatch.setattr(bench_pairs, "git", lambda *args: "abc")
        monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: None)
        monkeypatch.setattr(bench_pairs, "copy_worktree", lambda dest: None)
        monkeypatch.setattr(bench_pairs, "run", lambda *args: {
            "metrics": {"pass_s": 1.0}, "kind_s": {"regress": next(runs)},
            "kind_range": {"regress": [0.001, 0.002]},
            "percentile_kinds": {"op_ms_p50": [], "op_ms_p90": []}})
        monkeypatch.setattr(bench_pairs, "digests", lambda *args: [])
        monkeypatch.setattr(bench_pairs, "side_checkout",
                            lambda side: bench_pairs.tempfile.TemporaryDirectory(dir=tmp_path))
        monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
        (tmp_path / "BENCHMARK.json").write_text(json.dumps(
            {"run_seconds": 1, "workloads": [{"name": "w"}], "end_to_end": LOWER}))
        assert bench_pairs.main(["--parent", "HEAD", "--workload", "w", "--pairs", "2",
                                 "--out", str(tmp_path / "bench.json")]) == 0
        # pair 1 runs the parent first (0.02, change 0.01), pair 2 the change (0.04, parent 0.03)
        assert capsys.readouterr().err.splitlines()[-2:] == [
            "w pass_s: 1 -> 1 s (+0.0%), wins 0/2, within_bound true, gain_claimable false",
            "w kind_s regress: 0.025 -> 0.025 s (+0.0%), wins 1/2",
        ]


class TestCompareOutputs:
    def test_identical(self):
        assert bench_pairs.compare_outputs(["a", "b"], ["a", "b"]) == {
            "outputs_identical": True,
            "differing_ops": [],
        }

    def test_differing_digests_are_indexed(self):
        out = bench_pairs.compare_outputs(["a", "b", "c"], ["a", "x", "y"])
        assert out == {"outputs_identical": False, "differing_ops": [1, 2]}

    def test_unmatched_operations_differ(self):
        out = bench_pairs.compare_outputs(["a", "b", "c", "d"], ["z", "b"])
        assert out == {"outputs_identical": False, "differing_ops": [0, 2, 3]}


def test_summarize_kinds_takes_each_sides_median():
    pairs = [
        {"parent": {"kind_s": {"regress": p, "cli": 1.0}},
         "change": {"kind_s": {"regress": c, "cli": 2.0}}}
        for p, c in [(3.0, 1.0), (5.0, 2.0), (4.0, 9.0)]
    ]
    assert bench_pairs.summarize_kinds(pairs) == {
        "regress": {"parent_median": 4.0, "change_median": 2.0},
        "cli": {"parent_median": 1.0, "change_median": 2.0},
    }


def test_by_kind_sums_and_ranges_each_kinds_operations():
    kind_s, kind_range = bench_pairs.by_kind(["table", "tail", "table", "table"],
                                             [0.5, 2.0, 0.25, 1.0])
    assert kind_s == {"table": 1.75, "tail": 2.0}
    assert kind_range == {"table": [0.25, 1.0], "tail": [2.0, 2.0]}


def test_summarize_kind_ranges_takes_each_sides_median():
    pairs = [
        {"parent": {"kind_range": {"tail": [p, p + 1.0]}},
         "change": {"kind_range": {"tail": [c, c + 2.0]}}}
        for p, c in [(3.0, 1.0), (5.0, 2.0), (4.0, 9.0)]
    ]
    assert bench_pairs.summarize_kind_ranges(pairs) == {
        "tail": {"parent_fastest_median": 4.0, "parent_slowest_median": 5.0,
                 "change_fastest_median": 2.0, "change_slowest_median": 4.0},
    }


def test_run_reads_the_kinds_from_the_run_record(tmp_path, monkeypatch):
    # bench/run.py is not started: a stand-in prints its last line and the
    # record it would have written is already in place
    (tmp_path / "bench-out").mkdir()
    record = {"record": {"kinds": ["table", "tail", "table"], "op_s": [0.5, 3.0, 0.25]}}
    (tmp_path / "bench-out" / "prior-bayes-seed7.json").write_text(json.dumps(record))
    last = {"correct": 3, "attempted": 3, "failed": 0,
            "metrics": {"pass_s": {"value": 3.75}, "op_ms_p90": {"value": 3.0}}}
    seen = []

    def fake_run(argv, **kwargs):
        seen.append((argv, kwargs["cwd"]))
        return subprocess.CompletedProcess(argv, 0, stdout="log\n" + json.dumps(last) + "\n",
                                           stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    got = bench_pairs.run(tmp_path, "prior-bayes", 7, 24)
    assert got == {"correct": 3, "attempted": 3, "failed": 0,
                   "metrics": {"pass_s": 3.75, "op_ms_p90": 3.0},
                   "kind_s": {"table": 0.75, "tail": 3.0},
                   "kind_range": {"table": [0.25, 0.5], "tail": [3.0, 3.0]},
                   "percentile_kinds": {"op_ms_p50": ["table"], "op_ms_p90": ["table", "tail"]}}
    (argv, cwd), = seen
    assert argv[1:] == ["bench/run.py", "--workload", "prior-bayes", "--seed", "7",
                        "--seconds", "24", "--trace", "0"] and cwd == tmp_path


@pytest.mark.parametrize("op_s, p50, p90", [
    # five operations: the median is the third fastest, and the 90th
    # percentile sits 0.6 of the way from the fourth to the fifth
    ([0.4, 0.1, 0.5, 0.3, 0.2], ["regress"], ["figure1", "tail"]),
    # four: the median is the mean of the middle two, the 90th percentile
    # 0.7 of the way from the third to the fourth
    ([0.4, 0.1, 0.2, 0.3], ["tail", "regress"], ["regress", "figure1"]),
])
def test_percentile_kinds_name_the_operations_each_percentile_reads(op_s, p50, p90):
    kinds = ["figure1", "sample-size", "tail", "regress", "saddle"][:len(op_s)]
    assert bench_pairs.percentile_kinds(kinds, op_s) == {"op_ms_p50": p50, "op_ms_p90": p90}


def test_main_prints_the_percentile_kinds_per_seed_and_side(tmp_path, monkeypatch, capsys):
    reads = iter([["a"], ["b"], ["c"], ["d"]])
    monkeypatch.setattr(bench_pairs, "git", lambda *args: "abc")
    monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: None)
    monkeypatch.setattr(bench_pairs, "copy_worktree", lambda dest: None)
    monkeypatch.setattr(bench_pairs, "run", lambda *args: {
        "metrics": {"pass_s": 1.0}, "kind_s": {}, "kind_range": {},
        "percentile_kinds": {"op_ms_p50": next(reads), "op_ms_p90": ["x", "y"]}})
    monkeypatch.setattr(bench_pairs, "digests", lambda *args: [])
    monkeypatch.setattr(bench_pairs, "side_checkout",
                        lambda side: bench_pairs.tempfile.TemporaryDirectory(dir=tmp_path))
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 1, "workloads": [{"name": "w"}], "end_to_end": LOWER}))
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", "HEAD", "--workload", "w", "--pairs", "2",
                             "--out", str(out)]) == 0
    err = capsys.readouterr().err.splitlines()
    # pair 1 runs the parent first (a, change b), pair 2 the change (c, parent d)
    assert [line for line in err if " reads " in line] == [
        "w seed 1 parent: op_ms_p50 reads a; op_ms_p90 reads x, y",
        "w seed 1 change: op_ms_p50 reads b; op_ms_p90 reads x, y",
        "w seed 2 parent: op_ms_p50 reads d; op_ms_p90 reads x, y",
        "w seed 2 change: op_ms_p50 reads c; op_ms_p90 reads x, y",
    ]
    runs = json.loads(out.read_text())["workloads"]["w"]["runs"]
    assert [r["parent"]["percentile_kinds"]["op_ms_p50"] for r in runs] == [["a"], ["d"]]


def test_one_pair_is_refused_before_any_run(tmp_path, capsys):
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as excinfo:
        bench_pairs.main(["--parent", "HEAD", "--workload", "study-design", "--pairs", "1",
                          "--out", str(out)])
    assert excinfo.value.code == 2
    assert "--pairs must be at least 2" in capsys.readouterr().err
    assert not out.exists()


def test_a_workload_the_benchmark_does_not_list_is_refused_before_any_copy(
    tmp_path, monkeypatch, capsys
):
    def refuse(*args):
        raise AssertionError("a checkout was made")

    for name in ("side_checkout", "export", "copy_worktree", "run"):
        monkeypatch.setattr(bench_pairs, name, refuse)
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as excinfo:
        bench_pairs.main(["--parent", "HEAD", "--workload", "study-desing", "--out", str(out)])
    assert excinfo.value.code == 2
    assert ("--workload must be one of risk-curves, prior-bayes, study-design, "
            "got 'study-desing'") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("side", ["parent", "change"])
def test_side_checkout_sits_beside_the_working_tree_and_is_removed(tmp_path, side):
    root = tmp_path / "repo"
    root.mkdir()
    with bench_pairs.side_checkout(side, root) as tmp:
        checkout = Path(tmp)
        assert checkout.is_dir()
        assert checkout.parent == tmp_path
        assert checkout.name.startswith(f"bench-{side}-")
    assert not checkout.exists()
    assert [p.name for p in tmp_path.iterdir()] == ["repo"]


def test_side_checkout_defaults_to_beside_the_repository(monkeypatch):
    # no directory is made: only the arguments are read
    seen = {}
    monkeypatch.setattr(bench_pairs.tempfile, "TemporaryDirectory", lambda **kw: seen.update(kw))
    bench_pairs.side_checkout("change")
    assert seen == {"prefix": "bench-change-", "dir": bench_pairs.ROOT.parent}


def test_both_sides_paths_have_one_length(tmp_path):
    root = tmp_path / "repo"
    root.mkdir()
    with bench_pairs.side_checkout("parent", root) as a, bench_pairs.side_checkout("change", root) as b:
        assert len(a) == len(b)


def test_copy_worktree_takes_tracked_and_untracked_files_but_not_ignored_ones(tmp_path):
    root, dest = tmp_path / "repo", tmp_path / "copy"
    (root / "src").mkdir(parents=True)
    dest.mkdir()
    subprocess.run(["git", "init", "-q"], cwd=root, check=True)
    (root / ".gitignore").write_text("/out/\n")
    (root / "src" / "a.py").write_text("tracked, edited\n")
    (root / "src" / "gone.py").write_text("tracked, then deleted\n")
    subprocess.run(["git", "add", "."], cwd=root, check=True)
    (root / "src" / "a.py").write_text("tracked, edited\nagain\n")
    (root / "src" / "gone.py").unlink()
    (root / "new.py").write_text("untracked\n")
    (root / "out").mkdir()
    (root / "out" / "result.json").write_text("ignored\n")
    bench_pairs.copy_worktree(dest, root)
    got = sorted(str(p.relative_to(dest)) for p in dest.rglob("*") if p.is_file())
    assert got == [".gitignore", "new.py", "src/a.py"]
    assert (dest / "src" / "a.py").read_text() == "tracked, edited\nagain\n"


def test_src_lines_counts_the_newlines_of_the_package_modules(tmp_path):
    package = tmp_path / "src" / "msregret"
    package.mkdir(parents=True)
    (package / "a.py").write_text("one\ntwo\n")
    # a last line without a newline is not counted, as wc -l does not
    (package / "b.py").write_bytes(b"x = 1\r\ny = 2")
    (package / "notes.txt").write_text("not a module\n")
    (package / "sub").mkdir()
    (package / "sub" / "c.py").write_text("nested\n")
    (tmp_path / "tools.py").write_text("outside\n")
    assert bench_pairs.src_lines(tmp_path) == 3


CODE_LINES_MODULE = '''"""Module docstring,
over two lines."""
import math  # a comment after code

# a comment line
class A:
    """Class docstring."""

    def f(self):
        \'\'\'Function
        docstring.\'\'\'
        text = """a string
        that is data"""
        return (text,
                math.pi)
'''


def test_src_code_lines_leave_out_blank_lines_comments_and_docstrings(tmp_path):
    package = tmp_path / "src" / "msregret"
    package.mkdir(parents=True)
    (package / "a.py").write_text(CODE_LINES_MODULE)
    (package / "b.py").write_text("x = 1\n    \n")
    (package / "notes.txt").write_text("not = 'a module'\n")
    # the import, class and def lines, the string's two lines, the return's
    # two, and b.py's assignment
    assert bench_pairs.src_code_lines(tmp_path) == 8
    assert bench_pairs.src_lines(tmp_path) == 17


def test_family_labels_name_each_risk_operations_rule_family(tmp_path):
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "workloads.py").write_text(
        "def build(workload, seed):\n"
        "    assert (workload, seed) == ('risk-curves', 5)\n"
        "    return [{'kind': 'risk', 'rule': {'name': 'bayes-flat'}},\n"
        "            {'kind': 'cli', 'argv': ['saddle']},\n"
        "            {'kind': 'risk', 'rule': {'name': 'logistic', 'c': 2.0}}]\n"
    )
    got = bench_pairs.family_labels(tmp_path, "risk-curves", 5, ["risk", "saddle", "risk"])
    assert got == ["risk:bayes-flat", "saddle", "risk:logistic"]
    with pytest.raises(SystemExit, match="2 timed operations, but bench/workloads.py builds 3"):
        bench_pairs.family_labels(tmp_path, "risk-curves", 5, ["risk", "risk"])


def test_family_labels_leave_a_list_without_risk_operations_as_it_is(tmp_path):
    # no bench/workloads.py under tmp_path: nothing is loaded
    kinds = ["table", "tail", "simulate"]
    assert bench_pairs.family_labels(tmp_path, "prior-bayes", 1, kinds) is kinds


def test_family_labels_of_the_risk_curves_workload():
    ops = bench_pairs.family_labels(bench_pairs.ROOT, "risk-curves", 1, ["risk"] * 108)
    kind_s, _ = bench_pairs.by_kind(ops, [1.0] * 108)
    assert kind_s == {"risk:es": 12, "risk:ht": 12, "risk:minimax": 12, "risk:bayes-flat": 18,
                      "risk:post-match": 12, "risk:logistic": 24, "risk:mix": 18}


class TestUnresolved:
    TIGHT = [14.0 + 0.1 * i for i in range(10)]  # quartile distance 0.45 over 14.45: 3%
    WIDE = [10.0 + i for i in range(10)]  # 4.5 over 14.5: 31%, past the 0.24 bound

    def test_tight_spreads_are_resolved(self):
        pairs = _pairs(self.TIGHT, [p * 1.1 for p in self.TIGHT])
        assert not bench_pairs.unresolved(pairs, LOWER[0])

    def test_a_wide_parent_or_change_spread_is_unresolved(self):
        assert bench_pairs.unresolved(_pairs(self.WIDE, self.TIGHT[::-1]), LOWER[0])
        assert bench_pairs.unresolved(_pairs(self.TIGHT, self.WIDE), LOWER[0])

    def test_a_change_better_in_every_run_is_resolved(self):
        better = [p - 10.0 for p in self.WIDE]  # at most 9.0, below the parent's least 10.0
        assert not bench_pairs.unresolved(_pairs(self.WIDE, better), LOWER[0])
        higher = [p + 10.0 for p in self.WIDE]
        assert not bench_pairs.unresolved(_pairs(self.WIDE, higher, "ops"), HIGHER[0])
        # one change run that is not better leaves the spread to decide
        assert bench_pairs.unresolved(_pairs(self.WIDE, better[:-1] + [10.0]), LOWER[0])

    def test_the_verdict_line_gives_the_parent_spread(self):
        summary = bench_pairs.summarize(_pairs(self.WIDE, self.WIDE), LOWER)
        summary["pass_s"]["unresolved"] = True
        assert bench_pairs.verdict_lines("w", summary) == [
            "w pass_s: 14.5 -> 14.5 s (+0.0%), wins 0/10, within_bound true, "
            "gain_claimable false, unresolved true (parent spread 31.0%)"]

    def test_main_records_the_flag_in_each_summary(self, tmp_path, monkeypatch, capsys):
        runs = iter(self.WIDE * 2)
        monkeypatch.setattr(bench_pairs, "git", lambda *args: "abc")
        monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: None)
        monkeypatch.setattr(bench_pairs, "copy_worktree", lambda dest: None)
        monkeypatch.setattr(bench_pairs, "run", lambda *args: {
            "metrics": {"pass_s": next(runs)}, "kind_s": {}, "kind_range": {},
            "percentile_kinds": {"op_ms_p50": [], "op_ms_p90": []}})
        monkeypatch.setattr(bench_pairs, "digests", lambda *args: [])
        monkeypatch.setattr(bench_pairs, "side_checkout",
                            lambda side: bench_pairs.tempfile.TemporaryDirectory(dir=tmp_path))
        monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
        (tmp_path / "BENCHMARK.json").write_text(json.dumps(
            {"run_seconds": 1, "workloads": [{"name": "w"}], "end_to_end": LOWER}))
        out = tmp_path / "bench.json"
        assert bench_pairs.main(["--parent", "HEAD", "--workload", "w", "--pairs", "10",
                                 "--out", str(out)]) == 0
        summary = json.loads(out.read_text())["workloads"]["w"]["summary"]
        assert summary["pass_s"]["unresolved"] is True
        assert ", unresolved true (parent spread " in capsys.readouterr().err.splitlines()[-1]


@pytest.mark.parametrize("off", [True, False])
def test_machine_names_what_set_up_and_memory_depend_on(monkeypatch, off):
    import numpy
    import scipy

    monkeypatch.setattr(bench_pairs.sys, "dont_write_bytecode", off)
    assert bench_pairs.machine().split(", ")[3:] == [
        f"numpy {numpy.__version__}", f"scipy {scipy.__version__}",
        f"dont_write_bytecode {str(off).lower()}"]
