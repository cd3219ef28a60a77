"""The summary functions and checkout helpers of tools/bench_pairs.py; no
benchmark run starts."""
import importlib.util
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


def test_one_pair_is_refused_before_any_run(tmp_path, capsys):
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as excinfo:
        bench_pairs.main(["--parent", "HEAD", "--workload", "study-design", "--pairs", "1",
                          "--out", str(out)])
    assert excinfo.value.code == 2
    assert "--pairs must be at least 2" in capsys.readouterr().err
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
