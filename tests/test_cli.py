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
import msregret.cli as cli
import msregret.dominance as dominance
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
    dominating_rule,
    exact_risk,
    plan_es_epsilon,
    plan_ht_power,
    plan_worst_msr,
    risk_curve,
    risk_curve_csv,
    rule_from_dict,
    rule_to_dict,
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


def subprocess_env() -> dict:
    """The environment of a fresh interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(msregret.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


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

    def test_nan_threshold_token(self, capsys):
        code, out, err = run_cli(capsys, ["rule-eval", "--rule", "threshold:nan", "--stat", "0"])
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == "error: bad threshold rule token 'threshold:nan'"

    def test_malformed_grid(self, capsys):
        code, _, err = run_cli(capsys, ["risk-curve", "--grid", "1:2"])
        assert code == 2
        assert "lo:hi:step" in err

    @pytest.mark.parametrize("grid", ["0:nan:0.1", "0:inf:0.1", "-inf:0:1", "0:1:nan",
                                      "0:1e12:1e-9", "0:1:1e-300", "0:x:1", "1:0:0.1",
                                      "0:1:0"])
    def test_grid_numpy_would_refuse(self, capsys, grid):
        # non-finite ends or steps, grids too long for numpy to allocate,
        # which it refuses before allocating anything, and ends or steps that
        # are not numbers or give no grid
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

    @pytest.mark.parametrize("argv, error", [
        ("risk --rule es --tau 1 --sigma 5e-324 --n 10000000000000000",
         "sigma / sqrt(n) underflows to 0 at sigma = 5e-324, n = 10000000000000000"),
        *((f"{command} --n {10**400}", "n must be at most the float maximum, got 1329 bits")
          for command in ("risk --rule es --tau 1", "risk-curve", "dominate",
                          "simulate --tau 1 --reps 10 --seed 1")),
    ], ids=["risk-sd-underflows", "risk-huge-n", "risk-curve-huge-n", "dominate-huge-n",
            "simulate-huge-n"])
    def test_a_statistic_sd_that_is_not_a_positive_float(self, capsys, argv, error):
        code, _, err = run_cli(capsys, argv.split())
        assert code == 1
        assert err.count("error:") == 1
        assert err.splitlines()[-1] == f"error: {error}"

    @pytest.mark.parametrize(
        "argv",
        [["risk", "--rule", "es", "--tau", "nan", "--tail", "0.5"],
         ["risk", "--rule", "es", "--tau", "inf", "--tail", "0.5"],
         ["simulate", "--rule", "es", "--tau", "nan", "--seed", "1"],
         ["risk", "--rule", "minimax", "--tau", "nan"],
         ["risk", "--rule", "es", "--tau", "1", "--sigma", "inf"]],
        ids=["risk-nan", "risk-inf", "simulate-nan", "minimax-nan", "sigma-inf"],
    )
    def test_a_non_finite_effect_or_noise(self, capsys, argv):
        code, out, err = run_cli(capsys, argv)
        assert code == 1
        assert out == ""
        assert err.count("error:") == 1
        assert err.splitlines()[-1].startswith(("error: tau must be finite",
                                                "error: sigma must be positive and finite"))

    @pytest.mark.parametrize(
        "argv",
        [["risk", "--rule", "minimax", "--tau", "1e200"],
         ["risk", "--rule", "es", "--tau", "1e308"]],
        ids=["minimax-1e200", "es-1e308"],
    )
    def test_moments_past_the_float_range(self, capsys, argv):
        # the squares of the effect overflow; the report would hold a NaN
        with np.errstate(over="ignore", invalid="ignore"):
            code, out, err = run_cli(capsys, argv)
        assert code == 1
        assert out == ""
        assert err.count("error:") == 1
        assert err.splitlines()[-1] == (
            f"error: regret_variance is nan at tau = {float(argv[-1])!r}: the moments overflow"
        )

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

    @pytest.mark.parametrize("point", ["nan", "inf", "-inf"])
    def test_a_support_point_that_is_not_finite(self, capsys, point):
        code, out, err = run_cli(
            capsys,
            ["rule-eval", "--rule", "prior-bayes", f"--prior=-1:0.5,{point}:0.2,1:0.3",
             "--stat", "0.3"],
        )
        assert code == 2 and out == ""
        assert err.splitlines()[-1] == "error: --prior: prior support points must be finite"

    @pytest.mark.parametrize(
        "argv, message",
        [(["rule-eval", "--rule", "prior-bayes", "--prior=-1:a,1:1", "--stat", "0"],
          "--prior values must be numbers, got '-1:a'"),
         (["risk", "--rule", "es", "--tau", "1", "--tail", "0.5,x"],
          "--tail must be comma-separated numbers, got '0.5,x'"),
         (["rule-eval", "--rule", "mix:minimax", "--stat", "0"],
          "mix token must be mix:base,lambda, got 'mix:minimax'"),
         (["rule-eval", "--rule", "mix:minimax,x", "--stat", "0"],
          "bad mix weight in 'mix:minimax,x'")],
        ids=["prior-not-a-number", "tail-not-a-number", "mix-without-comma", "mix-bad-weight"],
    )
    def test_a_malformed_token(self, capsys, argv, message):
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert err.count("error:") == 1
        assert err.splitlines()[-1] == f"error: {message}"

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

    @pytest.mark.parametrize("value, reason", [("nan", "exceed 1"), ("inf", "be finite")])
    def test_an_alpha_g_that_is_not_a_finite_power(self, capsys, recwarn, value, reason):
        argv = ["rule-eval", "--rule", "prior-bayes", "--prior=-1:1,1:1,2:0.5",
                "--alpha-g", value, "--stat", "0.5"]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (1, "")
        lines = err.splitlines()
        assert len(lines) == 2 and math.isnan(json.loads(lines[0])["alpha_g"]) == (value == "nan")
        assert lines[1] == f"error: alpha_g must {reason}, got {value}"
        assert not recwarn.list

    @pytest.mark.parametrize(
        "argv, message",
        [(["rule-eval", "--rule", "prior-bayes", "--prior=-20:1,20:1,2:0.5", "--alpha-g",
           "1e308", "--stat", "0.5"],
          "alpha_g log|tau| must be finite, got alpha_g = 1e+308 at tau = 20.0"),
         (["simulate", "--rule", "es", "--tau", "1", "--seed", "1", "--reps", "100",
           "--tail", "nan"], "threshold must be >= 0, got nan"),
         (["simulate", "--rule", "es", "--tau", "1", "--seed", "1", "--reps", "100",
           "--tail=0.5,-1"], "threshold must be >= 0, got -1.0"),
         (["simulate", "--rule", "es", "--tau", "1", "--seed", "1", "--reps",
           "4611686018427387904"], "replications 4611686018427387904 cannot be held: "
          "array is too big")],
        ids=["alpha-g-log-term", "simulate-nan-tail", "simulate-negative-tail",
             "simulate-reps-past-numpy"],
    )
    def test_refused_before_any_output(self, capsys, recwarn, argv, message):
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (1, "")
        lines = err.splitlines()
        assert len(lines) == 2 and json.loads(lines[0])["subcommand"] == argv[0]
        # numpy's words for a count it cannot index follow the prefix
        assert lines[1].startswith(f"error: {message}")
        assert not recwarn.list

    def test_negative_tau_star(self, capsys):
        # an infinite or NaN calibration is refused the same way, not echoed as NaN
        for argv in (["rule-eval", "--rule", "minimax", "--stat", "0"], ["table1"]):
            for value in ("-1", "inf", "nan"):
                code, out, err = run_cli(capsys, argv + ["--tau-star", value])
                assert code == 2
                assert out == ""
                assert err == f"error: --tau-star must be positive and finite, got {float(value)}\n"

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

    @pytest.mark.parametrize(
        "argv, cause",
        [(["dominate", "--grid-step", "1e-300"], "Maximum allowed size exceeded"),
         (["dominate", "--tau-bar", "1e300", "--sigma", "1e300", "--grid-step", "1e-10"],
          "cannot convert float infinity to integer")],
        ids=["too-long-to-index", "interval-count-overflows"],
    )
    def test_a_dominance_grid_that_cannot_be_built(self, capsys, argv, cause):
        # both are refused before numpy allocates anything
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (1, "")
        lines = err.splitlines()
        assert len(lines) == 2 and json.loads(lines[0])["grid_step"] == float(argv[-1])
        assert lines[1] == f"error: grid_step {float(argv[-1])!r} gives no grid: {cause}"

    @pytest.mark.parametrize(
        "argv",
        [["rule-eval", "--rule", "bayes-flat", "--stat=inf"],
         ["rule-eval", "--rule", "prior-bayes", "--prior=-1:1,1:1", "--stat=nan"]],
        ids=["bayes-flat-inf", "prior-bayes-nan"],
    )
    def test_a_non_finite_statistic(self, capsys, argv):
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert err.count("error:") == 1
        assert err.splitlines()[-1] == f"error: --stat must be finite, got {argv[-1][7:]}"

    @pytest.mark.parametrize("alpha", ["0.0", "0.5", "0.7", "1.5"])
    def test_ht_off_the_unit_scale_checks_its_size(self, capsys, alpha):
        # the raw-scale threshold is built from HypothesisTest(alpha), so an
        # alpha it refuses is refused at every sigma, with its own message
        argv = ["risk", "--rule", "ht", "--alpha", alpha, "--tau", "1", "--sigma", "2"]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (1, "")
        lines = err.splitlines()
        assert len(lines) == 2 and json.loads(lines[0])["alpha"] == float(alpha)
        assert lines[1] == f"error: alpha must lie in (0, 0.5), got {float(alpha)}"

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

    # one invocation of every subcommand, with the configuration it must echo:
    # every flag given or defaulted, None flags dropped, and resolved_tau_star
    # exactly where the subcommand takes --tau-star
    RULE_DEFAULTS = {"alpha": 0.05, "alpha_g": 2.0}
    EVERY_SUBCOMMAND = [
        (["solve-tau-star"], {"tol": 1e-7}),
        (["rule-eval", "--rule", "es", "--stat", "0.5"],
         dict(RULE_DEFAULTS, rule="es", stat=0.5, resolved_tau_star=TAU_STAR)),
        (["risk", "--tau", "1", "--tail", "0.3", "--tau-star", "2"],
         dict(RULE_DEFAULTS, rule="minimax", tau=1.0, sigma=1.0, n=1, tail="0.3",
              tau_star=2.0, resolved_tau_star=2.0)),
        (["risk-curve", "--rule", "bayes-flat", "--grid", "0:1:0.5", "--sigma", "2", "--n", "4"],
         dict(RULE_DEFAULTS, rule="bayes-flat", grid="0:1:0.5", sigma=2.0, n=4,
              resolved_tau_star=TAU_STAR)),
        (["simulate", "--rule", "es", "--tau", "0.5", "--reps", "100", "--seed", "3"],
         dict(RULE_DEFAULTS, rule="es", tau=0.5, sigma=1.0, n=1, reps=100, seed=3,
              resolved_tau_star=TAU_STAR)),
        (["saddle"], {"resolved_tau_star": TAU_STAR}),
        (["dominate"], {"t": 0.0, "tau_bar": 1.0, "alpha_g": 2.0, "shrink": 0.5, "sigma": 1.0,
                        "n": 1, "grid_step": 0.01}),
        (["sample-size", "--criterion", "es-epsilon-optimal", "--epsilon", "0.1"],
         dict(RULE_DEFAULTS, criterion="es-epsilon-optimal", rule="minimax", sigma=1.0,
              epsilon=0.1, beta=0.9, resolved_tau_star=TAU_STAR)),
        (["regress", "--data", "{csv}", "--unbiased"],
         {"data": "{csv}", "no_intercept": False, "unbiased": True,
          "resolved_tau_star": TAU_STAR}),
        (["table1", "--tau-star", "1.5"], {"tau_star": 1.5, "resolved_tau_star": 1.5}),
        (["figure1", "--seed", "3", "--reps", "100"],
         {"tau": 1.0, "sigma": 1.0, "n": 1, "reps": 100, "seed": 3,
          "resolved_tau_star": TAU_STAR}),
        (["figures3to6", "--grid", "0:1:0.5", "--fraction-grid", "0:2:1"],
         {"alpha": 0.05, "grid": "0:1:0.5", "fraction_grid": "0:2:1",
          "resolved_tau_star": TAU_STAR}),
    ]

    def test_the_cases_cover_every_subcommand(self):
        subcommands = _build_parser()._subparsers._group_actions[0].choices
        assert sorted(argv[0] for argv, _ in self.EVERY_SUBCOMMAND) == sorted(subcommands)

    @pytest.mark.parametrize("argv,cfg", EVERY_SUBCOMMAND,
                             ids=[argv[0] for argv, _ in EVERY_SUBCOMMAND])
    def test_every_subcommand_echoes_its_flags_once(self, capsys, tmp_path, argv, cfg):
        path = tmp_path / "trial.csv"
        path.write_text("y,d,x\n3,1,0.5\n5,1,-1\n1,0,2\n2,0,0.25\n2.5,1,1\n", encoding="utf-8")
        argv = [str(path) if a == "{csv}" else a for a in argv]
        cfg = {k: str(path) if v == "{csv}" else v for k, v in cfg.items()}
        code, _, err = run_cli(capsys, argv)
        assert code == 0
        assert err == json.dumps(dict(cfg, subcommand=argv[0]), sort_keys=True) + "\n"
        subparser = _build_parser()._subparsers._group_actions[0].choices[argv[0]]
        takes_tau_star = "--tau-star" in subparser._option_string_actions
        assert ("resolved_tau_star" in cfg) == takes_tau_star

    def test_ten_subcommands_resolve_the_calibration(self):
        assert sum("resolved_tau_star" in cfg for _, cfg in self.EVERY_SUBCOMMAND) == 10

    @pytest.mark.parametrize("rule", ["minimax", "bayes-flat"])
    def test_an_overflowing_effect_prints_the_config_and_one_error(self, rule):
        # a fresh interpreter: pytest records warnings raised in process, so a
        # numpy overflow warning would never reach capsys
        argv = ["risk", "--rule", rule, "--tau", "1e308"]
        proc = subprocess.run([sys.executable, "-m", "msregret.cli", *argv],
                              env=dict(subprocess_env(), PYTHONWARNINGS="default"),
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (1, "")
        config, error = proc.stderr.splitlines()
        assert json.loads(config)["tau"] == 1e308
        assert error == "error: regret_variance is nan at tau = 1e+308: the moments overflow"

    @pytest.mark.parametrize("argv, error", [
        ("sample-size --criterion ht-power --tau 1e-200",
         "the sample size is not representable: its real solution is inf"),
        ("sample-size --sigma 1e300 --epsilon 1e-300", "epsilon^2 underflows at epsilon = 1e-300"),
        ("sample-size --sigma 1e300 --epsilon 0.1",
         "the sample size is not representable: its real solution is inf"),
        ("sample-size --criterion ht-power --sigma 1e300 --tau 1",
         "the sample size is not representable: its real solution is inf"),
        ("sample-size --criterion es-epsilon-optimal --rule es --sigma 1e300 --epsilon 0.1",
         "the sample size is not representable: its real solution is inf"),
        ("simulate --rule minimax --tau 1e300 --sigma 1e300 --reps 100 --seed 1",
         "mean_square_regret is inf at tau = 1e+300: the moments overflow"),
    ], ids=["ht-tiny-alternative", "epsilon-underflow", "msr-huge-sigma", "ht-huge-sigma",
            "es-huge-sigma", "simulate-huge-effect"])
    def test_an_unrepresentable_plan_or_simulation_prints_the_config_and_one_error(
        self, argv, error
    ):
        # a fresh interpreter, so a numpy warning would reach stderr
        proc = subprocess.run([sys.executable, "-m", "msregret.cli", *argv.split()],
                              env=dict(subprocess_env(), PYTHONWARNINGS="default"),
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (1, "")
        config, line = proc.stderr.splitlines()
        assert json.loads(config)["subcommand"] == argv.split()[0]
        assert line == f"error: {error}"


USAGE_CASES = [
    [],
    ["-h"],
    ["--help"],
    ["no-such-command"],
    ["regress", "-h"],
    ["simulate", "--tau", "1"],
    ["risk", "--tau", "1", "--no-such-flag"],
    ["risk", "--tau", "-1"],
]


class TestDirectDispatch:
    """main parses a subcommand's argv with that subcommand's own parser and
    every other argv with the full parser; either way it answers as the full
    parser does, byte for byte on both streams."""

    CASES = [argv for argv, _ in TestConfigEcho.EVERY_SUBCOMMAND] + USAGE_CASES

    @pytest.mark.parametrize("argv", CASES, ids=[" ".join(argv) or "empty" for argv in CASES])
    def test_main_answers_as_the_full_parser(self, capsys, monkeypatch, tmp_path, argv):
        path = tmp_path / "trial.csv"
        path.write_text("y,d,x\n3,1,0.5\n5,1,-1\n1,0,2\n2,0,0.25\n2.5,1,1\n", encoding="utf-8")
        argv = [str(path) if a == "{csv}" else a for a in argv]
        direct = run_cli(capsys, argv)
        # the full parser is cached with every subcommand before the table is
        # emptied, so main hands it every argv
        _build_parser()
        with monkeypatch.context() as m:
            m.setattr(cli, "_COMMANDS", {})
            full = run_cli(capsys, argv)
        assert direct == full

    def test_parsers_are_built_on_first_use(self):
        # a fresh interpreter, so no parser is cached yet
        script = textwrap.dedent(
            """
            import contextlib, io, json
            from msregret import cli
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(["table1"])
            built = [cli._command_parser.cache_info().currsize,
                     cli._build_parser.cache_info().currsize]
            text = io.StringIO()
            with contextlib.redirect_stdout(text):
                help_code = cli.main(["--help"])
            print(json.dumps([code, built, help_code, text.getvalue()]))
            """
        )
        proc = subprocess.run([sys.executable, "-c", script], env=subprocess_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        code, built, help_code, text = json.loads(proc.stdout)
        assert (code, built, help_code) == (0, [1, 0], 0)
        # one line per subcommand, its name indented four spaces
        listed = [line.split()[0] for line in text.splitlines()
                  if line.startswith("    ") and line[4] != " "]
        assert listed == [argv[0] for argv, _ in TestConfigEcho.EVERY_SUBCOMMAND]


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

    def test_one_op_takes_the_tail_bounds_once(self, capsys, monkeypatch):
        calls = []
        bounds = dominance.tail_bounds

        def spy(*args):
            calls.append(args)
            return bounds(*args)

        monkeypatch.setattr(dominance, "tail_bounds", spy)
        payload_of(capsys, ["dominate", "--t", "0.1", "--tau-bar", "1.25", "--alpha-g", "3"])
        assert calls == [(0.1, 1.25, 1.0)]

    def test_the_rule_is_the_library_construction(self, capsys):
        argv = ["dominate", "--t", "0.3", "--tau-bar", "1.25", "--alpha-g", "3",
                "--shrink", "0.7", "--sigma", "2", "--n", "4"]
        payload = payload_of(capsys, argv)
        assert payload["rule"] == rule_to_dict(dominating_rule(0.3, 1.25, 3.0, 1.0, 0.7))


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
        proc = subprocess.run([sys.executable, "-c", script], env=subprocess_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_parser_is_built_once(self, capsys):
        assert _build_parser() is _build_parser()
        parsers = [cli._command_parser(name) for name in cli._COMMANDS]
        assert [cli._command_parser(name) for name in cli._COMMANDS] == parsers
        assert len(set(map(id, parsers))) == len(parsers)
        argv = ["rule-eval", "--rule", "minimax", "--stat", "0.5"]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv + ["--tau-star", "2.0"])
        _, third, _ = run_cli(capsys, argv)
        # an option given once does not stick to the shared parser
        assert first == third != second


class TestSaturatedPlans:
    @pytest.mark.parametrize("argv, rule", [
        ("sample-size --criterion ht-power --tau-star 0.05 --tau 0.5",
         "MinimaxMSR(tau_star=0.05, scale=1.0)"),
        ("sample-size --criterion ht-power --alpha 1e-30 --tau 0.5",
         "HypothesisTest(alpha=1e-30)"),
    ], ids=["flat-minimax", "tiny-alpha"])
    def test_a_unit_whose_scan_saturates_prints_the_config_and_one_error(self, argv, rule):
        # a fresh interpreter, so a numpy warning would reach stderr
        proc = subprocess.run([sys.executable, "-m", "msregret.cli", *argv.split()],
                              env=dict(subprocess_env(), PYTHONWARNINGS="default"),
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (1, "")
        config, line = proc.stderr.splitlines()
        assert json.loads(config)["subcommand"] == "sample-size"
        assert line.startswith(f"error: worst_case_msr of {rule} is not bounded on the scan")
