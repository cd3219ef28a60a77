"""End-to-end command-line tests driven through main(argv) in process."""
import json
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import msregret
import msregret.lfp
from msregret import (
    ComplementMix,
    DominanceCertificate,
    EmpiricalSuccess,
    GaussianExperiment,
    MinimaxMSR,
    RegressionResult,
    RiskReport,
    RngSeed,
    SaddleCertificate,
    SampleSizePlan,
    SimulationSummary,
    Threshold,
    exact_risk,
    plan_es_epsilon,
    plan_ht_power,
    plan_worst_msr,
    risk_curve,
    risk_curve_csv,
    rule_from_dict,
    simulate,
)
from msregret.cli import _build_parser, main

TAU_STAR = 1.22814

TABLE_YBAR = (0.0, 0.2533, 0.5244, 0.8416, 1.2816, 1.6449, 2.3263)
MINIMAX_COLUMN = (
    0.5,
    0.6507132211584851,
    0.7838208851576539,
    0.8876746029563803,
    0.9588285983214327,
    0.9827125350585159,
    0.9967115469943922,
)
BAYES_COLUMN = (
    0.5,
    0.6919432077511519,
    0.8430043075778093,
    0.9379215065283509,
    0.9851191239138508,
    0.9957815743951182,
    0.9996698030497814,
)
POST_MATCH_COLUMN = (
    0.5,
    0.5999818019466037,
    0.699999821735177,
    0.7999940553550331,
    0.9000084999023248,
    0.9500047825316537,
    0.9899987239832013,
)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def payload_of(capsys, argv):
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    payload = json.loads(out)
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    return payload


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--tau", "1"],
            ["no-such-command"],
            ["risk", "--tau", "1", "--no-such-flag"],
            [],
        ],
        ids=["missing-seed", "unknown-subcommand", "unknown-flag", "no-subcommand"],
    )
    def test_usage_errors_from_argparse(self, capsys, argv):
        code, _, _ = run_cli(capsys, argv)
        assert code == 2

    def test_unknown_rule_token(self, capsys):
        code, _, err = run_cli(capsys, ["rule-eval", "--rule", "bogus", "--stat", "0"])
        assert code == 2
        assert "unknown rule token" in err

    def test_malformed_grid(self, capsys):
        code, _, err = run_cli(capsys, ["risk-curve", "--grid", "1:2"])
        assert code == 2
        assert "lo:hi:step" in err

    @pytest.mark.parametrize("grid", ["0:nan:0.1", "0:inf:0.1", "-inf:0:1", "0:1:nan",
                                      "0:1e12:1e-9", "0:1:1e-300"])
    def test_grid_numpy_would_refuse(self, capsys, grid):
        # non-finite ends or steps, and grids too long for numpy to allocate,
        # which it refuses before allocating anything
        code, _, err = run_cli(capsys, ["risk-curve", f"--grid={grid}"])
        assert code == 2
        assert err.count("error:") == 1
        assert err.splitlines()[-1].startswith("error: --grid")

    def test_grid_too_large_to_allocate(self, capsys, monkeypatch):
        # what numpy raises when the allocator refuses a grid, faked so that
        # no grid is built
        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB")

        monkeypatch.setattr(np, "arange", refuse)
        code, _, err = run_cli(capsys, ["risk-curve", "--grid=0:1e12:1"])
        assert code == 2
        assert err.splitlines()[-1] == "error: --grid '0:1e12:1': Unable to allocate 7.28 TiB"

    @pytest.mark.parametrize("argv", [["dominate", "--n", "0"], ["dominate", "--n", "-4"],
                                      ["risk-curve", "--n", "0"], ["risk", "--tau", "1", "--n", "0"]])
    def test_sample_size_below_one(self, capsys, argv):
        code, _, err = run_cli(capsys, argv)
        assert code == 1
        assert err.count("error:") == 1
        assert err.splitlines()[-1] == f"error: n must be an integer >= 1, got {argv[-1]}"

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_bad_solver_tolerance(self, capsys, tol):
        # a NaN tol would end Brent's search at its first point, a negative one never
        code, out, err = run_cli(capsys, ["solve-tau-star", f"--tol={tol}"])
        assert code == 1
        assert out == ""
        assert err.count("error:") == 1
        assert err.splitlines()[-1].startswith("error: tol must be finite and nonnegative")

    def test_malformed_prior(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["rule-eval", "--rule", "prior-bayes", "--prior", "1-0.5", "--stat", "0"],
        )
        assert code == 2
        assert "tau:weight" in err

    def test_prior_bayes_without_prior(self, capsys):
        code, _, err = run_cli(capsys, ["rule-eval", "--rule", "prior-bayes", "--stat", "0"])
        assert code == 2
        assert "requires --prior" in err

    def test_one_sided_prior_is_a_numeric_failure(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["rule-eval", "--rule", "prior-bayes", "--prior", "1:0.5,2:0.5", "--stat", "0"],
        )
        assert code == 1
        assert err.count("error:") == 1

    def test_negative_tau_star(self, capsys):
        code, _, err = run_cli(
            capsys, ["rule-eval", "--rule", "minimax", "--stat", "0", "--tau-star", "-1"]
        )
        assert code == 2
        assert "--tau-star must be positive" in err

    def test_sample_size_missing_epsilon(self, capsys):
        code, _, err = run_cli(capsys, ["sample-size", "--criterion", "worst-msr-target"])
        assert code == 2
        assert "requires --epsilon" in err

    def test_sample_size_missing_alternative(self, capsys):
        code, _, err = run_cli(capsys, ["sample-size", "--criterion", "ht-power"])
        assert code == 2
        assert "requires --tau" in err

    def test_missing_data_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, ["regress", "--data", str(tmp_path / "nope.csv")])
        assert code == 1
        assert "error:" in err

    def test_non_utf8_data_file(self, capsys, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"y,d\n1,0\n\xe9,1\n")
        code, _, err = run_cli(capsys, ["regress", "--data", str(path)])
        assert code == 1
        assert err.splitlines()[-1] == f"error: {path}: not UTF-8 text: byte 0xe9 at offset 8"

    def test_rank_deficient_regression(self, capsys, tmp_path):
        path = tmp_path / "flat.csv"
        path.write_text("y,d\n1,1\n2,1\n3,1\n", encoding="utf-8")
        code, _, err = run_cli(capsys, ["regress", "--data", str(path)])
        assert code == 1
        assert "rank deficient" in err

    def test_invalid_dominance_request(self, capsys):
        code, _, err = run_cli(capsys, ["dominate", "--shrink", "1.0"])
        assert code == 1
        assert "error:" in err

    def test_bad_saddle_candidate(self, capsys):
        code, _, err = run_cli(capsys, ["saddle", "--tau-star", "0.5"])
        assert code == 1
        assert "error:" in err


class TestConfigEcho:
    def test_stderr_carries_one_json_config_line(self, capsys):
        code, _, err = run_cli(
            capsys, ["risk", "--rule", "minimax", "--tau", "1", "--sigma", "2"]
        )
        assert code == 0
        cfg = json.loads(err.splitlines()[0])
        assert cfg["subcommand"] == "risk"
        assert cfg["rule"] == "minimax"
        assert cfg["tau"] == 1.0
        assert cfg["sigma"] == 2.0
        assert cfg["resolved_tau_star"] == TAU_STAR
        assert "func" not in cfg
        assert "tail" not in cfg  # None flags are dropped


class TestJsonOutput:
    @pytest.mark.parametrize("argv", [
        ["solve-tau-star"],
        ["rule-eval", "--rule", "mix:minimax,0.3", "--stat", "0.7"],
        ["risk", "--rule", "bayes-flat", "--tau", "-0.4", "--tail", "0.1", "--tail", "0.3"],
        ["simulate", "--rule", "minimax", "--tau", "0.5", "--reps", "9000", "--seed", "5",
         "--tail", "0.2,0.4"],
        ["saddle"],
        ["dominate", "--t", "0.1", "--tau-bar", "1.25", "--alpha-g", "3"],
        ["sample-size", "--criterion", "es-epsilon-optimal", "--epsilon", "0.05"],
        ["figure1", "--tau", "0.4", "--reps", "500", "--seed", "5"],
        ["regress", "--data", "{csv}", "--unbiased"],
    ], ids=lambda argv: argv[0])
    def test_stdout_is_indented_sorted_json(self, capsys, tmp_path, argv):
        path = tmp_path / "trial.csv"
        path.write_text("y,d,x\n3,1,0.5\n5,1,-1\n1,0,2\n2,0,0.25\n2.5,1,1\n", encoding="utf-8")
        argv = [str(path) if a == "{csv}" else a for a in argv]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


class TestRuleEval:
    def test_minimax_at_zero(self, capsys):
        payload = payload_of(capsys, ["rule-eval", "--rule", "minimax", "--stat", "0"])
        assert payload["fraction"] == 0.5
        assert payload["stat"] == 0.0
        rule = rule_from_dict(payload["rule"])
        assert rule == MinimaxMSR(tau_star=TAU_STAR)

    def test_threshold_token(self, capsys):
        below = payload_of(capsys, ["rule-eval", "--rule", "threshold:0.5", "--stat", "0.4"])
        above = payload_of(capsys, ["rule-eval", "--rule", "threshold:0.5", "--stat", "0.6"])
        assert below["fraction"] == 0.0
        assert above["fraction"] == 1.0

    def test_mix_token_nests_its_base(self, capsys):
        payload = payload_of(
            capsys, ["rule-eval", "--rule", "mix:threshold:0.25,0.3", "--stat", "0.5"]
        )
        assert abs(payload["fraction"] - 0.7) < 1e-15
        rule = rule_from_dict(payload["rule"])
        assert rule == ComplementMix(base=Threshold(t=0.25), lam=0.3)

    def test_ht_token_is_a_size_alpha_test_on_the_unit_scale(self, capsys):
        payload = payload_of(capsys, ["rule-eval", "--rule", "ht", "--stat", "1.7"])
        assert payload["rule"]["kind"] == "hypothesis_test"
        assert payload["fraction"] == 1.0

    def test_symmetric_prior_bayes_is_logistic(self, capsys):
        payload = payload_of(
            capsys,
            ["rule-eval", "--rule", "prior-bayes", "--prior", "1:0.5,-1:0.5", "--stat", "0.3"],
        )
        assert abs(payload["fraction"] - 1.0 / (1.0 + math.exp(-0.6))) < 1e-9


class TestRisk:
    def test_report_matches_the_library(self, capsys):
        payload = payload_of(
            capsys,
            ["risk", "--rule", "minimax", "--tau", "1", "--tail", "0.95"],
        )
        direct = exact_risk(
            MinimaxMSR(tau_star=TAU_STAR),
            GaussianExperiment(tau=1.0, sigma=1.0, n=1),
            tail_thresholds=[0.95],
        )
        assert RiskReport.from_dict(payload["report"]) == direct
        assert payload["tau"] == 1.0

    def test_ht_token_becomes_a_raw_threshold(self, capsys):
        payload = payload_of(
            capsys, ["risk", "--rule", "ht", "--tau", "1", "--sigma", "2", "--n", "1"]
        )
        assert payload["rule"]["kind"] == "threshold"
        assert abs(payload["rule"]["t"] - 2.0 * 1.6448536269514722) < 1e-12


class TestRiskCurve:
    def test_stdout_equals_the_library_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, ["risk-curve", "--rule", "es", "--grid", "0:1:0.5"]
        )
        assert code == 0
        expected = risk_curve_csv(
            risk_curve(EmpiricalSuccess(), np.arange(0.0, 1.25, 0.5), 1.0, 1)
        )
        assert out == expected

    def test_csv_flag_writes_a_file(self, capsys, tmp_path):
        path = tmp_path / "curve.csv"
        code, out, _ = run_cli(
            capsys, ["risk-curve", "--rule", "es", "--grid", "0:1:0.5", "--csv", str(path)]
        )
        assert code == 0
        assert out == ""
        text = path.read_text(encoding="ascii")
        assert text.splitlines()[0] == "tau,mean_regret,regret_sd,msr,welfare_mean,welfare_sd"


class TestSimulate:
    ARGS = ["simulate", "--rule", "es", "--tau", "0.5", "--reps", "2000", "--seed", "42"]

    def test_matches_the_library(self, capsys):
        payload = payload_of(capsys, self.ARGS)
        direct = simulate(
            EmpiricalSuccess(),
            GaussianExperiment(tau=0.5, sigma=1.0, n=1),
            2000,
            RngSeed(42),
        )
        assert SimulationSummary.from_dict(payload["summary"]) == direct

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run_cli(capsys, self.ARGS)
        _, second, _ = run_cli(capsys, self.ARGS)
        assert first == second

    def test_seed_changes_the_output(self, capsys):
        _, first, _ = run_cli(capsys, self.ARGS)
        _, second, _ = run_cli(capsys, self.ARGS[:-1] + ["43"])
        assert first != second


class TestSaddle:
    def test_certificate_is_valid(self, capsys, tmp_path):
        path = tmp_path / "saddle.csv"
        code, out, _ = run_cli(capsys, ["saddle", "--csv", str(path)])
        assert code == 0
        cert = SaddleCertificate.from_dict(json.loads(out))
        assert cert.is_valid
        assert cert.tau_star == TAU_STAR
        header = path.read_text(encoding="ascii").splitlines()[0]
        assert header == "tau,bayes_objective,frequentist_risk"

    def test_worst_case_away_from_tau_star_exits_1(self, capsys):
        code, out, err = run_cli(capsys, ["saddle", "--tau-star", "1.2301"])
        assert code == 1
        assert out == ""
        assert "not within 1e-4" in err


class TestDominate:
    def test_certificate_and_rule_round_trip(self, capsys, tmp_path):
        path = tmp_path / "margins.csv"
        code, out, _ = run_cli(capsys, ["dominate", "--csv", str(path)])
        assert code == 0
        payload = json.loads(out)
        cert = DominanceCertificate.from_dict(payload["certificate"])
        assert cert.is_valid
        rule = rule_from_dict(payload["rule"])
        assert isinstance(rule, ComplementMix)
        assert rule.base == Threshold(t=0.0)
        assert rule.lam == cert.lambda_used
        assert cert.lambda_used == 0.5 * cert.lambda_star
        header = path.read_text(encoding="ascii").splitlines()[0]
        assert header == "tau,risk_singleton,risk_fractional,margin"


class TestSampleSize:
    def test_worst_msr_target(self, capsys):
        payload = payload_of(capsys, ["sample-size", "--epsilon", "0.01"])
        plan = SampleSizePlan.from_dict(payload)
        assert plan == plan_worst_msr(1.0, 0.01, MinimaxMSR(tau_star=TAU_STAR))
        assert plan.n_required == 1199

    def test_es_epsilon_optimal(self, capsys):
        payload = payload_of(
            capsys,
            ["sample-size", "--criterion", "es-epsilon-optimal", "--epsilon", "0.01"],
        )
        plan = SampleSizePlan.from_dict(payload)
        assert plan == plan_es_epsilon(1.0, 0.01, MinimaxMSR(tau_star=TAU_STAR))
        assert plan.n_required == 289
        assert plan.es_comparison.n_rule == 210

    def test_ht_power(self, capsys):
        payload = payload_of(
            capsys,
            ["sample-size", "--criterion", "ht-power", "--beta", "0.8", "--tau", "0.5"],
        )
        plan = SampleSizePlan.from_dict(payload)
        assert plan == plan_ht_power(1.0, 0.05, 0.8, 0.5, TAU_STAR)
        assert plan.n_required == 25


class TestRegress:
    def test_one_arm_experiment(self, capsys, tmp_path):
        path = tmp_path / "trial.csv"
        lines = ["y,d"] + ["1,1"] * 100 + ["-1,1"] * 99
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        payload = payload_of(capsys, ["regress", "--data", str(path), "--no-intercept"])
        result = RegressionResult.from_dict(payload)
        assert abs(result.delta_minimax - 0.5434211662914232) < 1e-12
        assert result.n_obs == 199
        assert result.beta_hat == ()

    def test_unbiased_flag(self, capsys, tmp_path):
        path = tmp_path / "groups.csv"
        path.write_text("y,d\n3,1\n5,1\n1,0\n2,0\n", encoding="utf-8")
        ml = payload_of(capsys, ["regress", "--data", str(path)])
        dof = payload_of(capsys, ["regress", "--data", str(path), "--unbiased"])
        assert dof["sigma2_hat"] == 2.0 * ml["sigma2_hat"]
        assert abs(dof["t_stat"] - math.sqrt(5.0)) < 1e-12


class TestTable1:
    def _rows(self, out):
        lines = out.splitlines()
        assert lines[0] == "ybar,minimax,bayes,posterior_match,es"
        return [[float(cell) for cell in line.split(",")] for line in lines[1:]]

    def test_columns_match_the_published_fractions(self, capsys):
        code, out, _ = run_cli(capsys, ["table1"])
        assert code == 0
        rows = self._rows(out)
        assert len(rows) == 7
        for row, ybar, mm, by, pm in zip(
            rows, TABLE_YBAR, MINIMAX_COLUMN, BAYES_COLUMN, POST_MATCH_COLUMN
        ):
            assert row[0] == ybar
            assert abs(row[1] - mm) < 1e-11
            assert abs(row[2] - by) < 1e-11
            assert abs(row[3] - pm) < 1e-11
            assert row[4] == 1.0  # plug-in rule treats at every nonnegative ybar

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run_cli(capsys, ["table1"])
        _, second, _ = run_cli(capsys, ["table1"])
        assert first == second

    def test_missing_constants_module_changes_nothing(self, capsys, monkeypatch):
        _, shipped, _ = run_cli(capsys, ["table1"])
        monkeypatch.setattr(msregret.lfp, "_cached_tau_star", lambda: None)
        _, solved, _ = run_cli(capsys, ["table1"])
        assert solved == shipped

    def test_tau_star_override_moves_the_minimax_column(self, capsys):
        _, default, _ = run_cli(capsys, ["table1"])
        _, overridden, _ = run_cli(capsys, ["table1", "--tau-star", "1.5"])
        base = self._rows(default)
        moved = self._rows(overridden)
        assert moved[0][1] == 0.5
        assert moved[1][1] != base[1][1]
        assert moved[1][3] == base[1][3]  # posterior matching has no calibration

    def test_csv_flag_writes_a_file(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        _, direct, _ = run_cli(capsys, ["table1"])
        code, out, _ = run_cli(capsys, ["table1", "--csv", str(path)])
        assert code == 0
        assert out == ""
        assert path.read_text(encoding="ascii") == direct


class TestFigure1:
    def test_exact_and_simulated_sections(self, capsys):
        payload = payload_of(
            capsys, ["figure1", "--tau", "1", "--reps", "4000", "--seed", "7"]
        )
        assert set(payload) == {
            "tau",
            "sigma",
            "n",
            "replications",
            "seed",
            "tau_star",
            "tail_thresholds",
            "es",
            "minimax",
        }
        assert payload["tail_thresholds"] == [0.95]
        exp = GaussianExperiment(tau=1.0, sigma=1.0, n=1)
        seed = RngSeed(7)
        for name, rule in (
            ("es", EmpiricalSuccess()),
            ("minimax", MinimaxMSR(tau_star=TAU_STAR)),
        ):
            exact = exact_risk(rule, exp, tail_thresholds=[0.95])
            assert RiskReport.from_dict(payload[name]["exact"]) == exact
            sim = SimulationSummary.from_dict(payload[name]["simulated"])
            assert sim == simulate(rule, exp, 4000, seed, tail_thresholds=[0.95])
            assert abs(sim.mean_regret - exact.mean_regret) < 4.0 * sim.se_mean_regret
            assert (
                abs(sim.mean_square_regret - exact.mean_square_regret)
                < 4.0 * sim.se_mean_square_regret
            )


class TestFigures3To6:
    # the equals form keeps argparse from reading the leading minus as a flag
    ARGS = ["figures3to6", "--grid", "0:1:0.5", "--fraction-grid=-1:1:1"]

    def _table(self, out):
        lines = out.splitlines()
        assert lines[0] == "figure,rule,x,value"
        table = {}
        for line in lines[1:]:
            figure, rule, x, value = line.split(",")
            table[(figure, rule, float(x))] = float(value)
        return table

    def test_row_structure_and_anchor_values(self, capsys):
        code, out, _ = run_cli(capsys, self.ARGS)
        assert code == 0
        table = self._table(out)
        # 5 rules on 3 fraction points plus 3 risk panels on 3 grid points
        assert len(table) == 5 * 3 + 3 * 5 * 3
        figures = {key[0] for key in table}
        assert figures == {"fraction", "msr", "mean_regret", "regret_sd"}
        rules = {key[1] for key in table}
        assert rules == {"es", "ht", "minimax", "bayes-flat", "post-match"}
        assert table[("fraction", "es", 0.0)] == 1.0
        assert table[("fraction", "minimax", 0.0)] == 0.5
        assert abs(table[("fraction", "post-match", -1.0)] - 0.15865525393145707) < 1e-11
        assert table[("msr", "es", 0.0)] == 0.0
        assert abs(table[("mean_regret", "es", 1.0)] - 0.15865525393145707) < 1e-11
        assert abs(table[("msr", "minimax", 1.0)] - 0.11331274782375539) < 1e-11
        assert abs(table[("regret_sd", "es", 1.0)] - 0.36535429973027816) < 1e-11

    def test_byte_identical_reruns_and_csv_file(self, capsys, tmp_path):
        _, first, _ = run_cli(capsys, self.ARGS)
        _, second, _ = run_cli(capsys, self.ARGS)
        assert first == second
        path = tmp_path / "figures.csv"
        code, out, _ = run_cli(capsys, self.ARGS + ["--csv", str(path)])
        assert code == 0
        assert out == ""
        assert path.read_text(encoding="ascii") == first


class TestSolveTauStar:
    def test_reports_the_solution_and_both_objectives(self, capsys):
        payload = payload_of(capsys, ["solve-tau-star"])
        assert abs(payload["tau_star"] - 1.23) < 0.01
        assert abs(payload["bayes_objective"] - payload["frequentist_objective"]) < 1e-8
        assert abs(payload["bayes_objective"] - 0.1199) < 1e-3


class TestProcessFloor:
    def test_no_scipy_optimize_or_linalg_on_import_or_use(self):
        # a fresh interpreter, so modules loaded by this test session do not count
        script = textwrap.dedent(
            """
            import sys
            import numpy as np
            import msregret.cli
            from msregret import (BayesFlatMSR, Dataset, GaussianExperiment, MinimaxMSR,
                                  fit, solve_tau_star, tail_probability, worst_case_msr)
            tau_star = solve_tau_star()
            worst_case_msr(MinimaxMSR(tau_star), 1.0, 1)
            tail_probability(BayesFlatMSR(), GaussianExperiment(1.0, 1.0, 1), 0.3)
            rng = np.random.default_rng(0)
            d = np.arange(20) % 2
            x = np.column_stack([rng.normal(size=20), np.ones(20)])
            fit(Dataset(d + x[:, 0] + rng.normal(size=20), d, x))
            print(sorted(m for m in ("scipy.optimize", "scipy.linalg") if m in sys.modules))
            """
        )
        src = os.path.dirname(os.path.dirname(msregret.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_parser_is_built_once(self, capsys):
        assert _build_parser() is _build_parser()
        argv = ["rule-eval", "--rule", "minimax", "--stat", "0.5"]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv + ["--tau-star", "2.0"])
        _, third, _ = run_cli(capsys, argv)
        # an option given once does not stick to the shared parser
        assert first == third != second
