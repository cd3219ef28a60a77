"""Command-line front end.

Every capability of the library is reachable from one executable with
subcommands; outputs are JSON objects or CSV tables on standard output (or a
file via --csv).  main holds the policy every subcommand shares, so a
handler only computes and emits: it resolves the minimax calibration once
for the subcommands that take --tau-star, echoes the configuration (with
resolved_tau_star exactly where it was resolved) to standard error as a
single JSON line, runs the handler with numpy's overflow warnings off (the
library refuses an overflowed result with its own error), and maps errors to
exit codes: 0 success, 2 usage errors, 1 numeric, data or file failures,
each printed as one "error:" line.

main parses with the named subcommand's own parser, built on first use from
one table of subcommands, and builds the full parser, from the same table,
only for help and usage errors: an empty argv, a help flag first, an
unknown subcommand, or arguments the subcommand does not take.  Usage lines,
help, error messages and exit codes are the full parser's either way.

Rule tokens: es | ht | minimax | bayes-flat | post-match | threshold:T |
mix:BASE,LAMBDA | prior-bayes.  Smooth statistic-based rules are built on the
standardized scale and applied to raw statistics through their scale
parameter (sigma/sqrt(n)); the ht token is HypothesisTest(alpha), which
compares the standardized statistic to its critical value z_{1-alpha}, so on
a raw-statistic subcommand it becomes the threshold at that critical value
times sigma/sqrt(n).

The minimax calibration is the --tau-star flag (positive and finite) when
given, else the shipped constant (default_tau_star).
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import List, Optional, Sequence

import numpy as np

from ._codec import csv_text, json_text
from .dominance import DominanceViolation, verify_dominance
from .lfp import (
    SaddleViolation,
    bayes_objective,
    default_tau_star,
    frequentist_objective,
    solve_tau_star,
    verify_saddle,
)
from .numerics import ConvergenceError, DomainError, RngSeed
from .planning import plan_es_epsilon, plan_ht_power, plan_worst_msr
from .regression import InputError, RankError, fit, load_dataset_csv
from .risk import (
    GaussianExperiment,
    exact_risk,
    risk_curve,
    risk_curve_csv,
    simulate,
)
from .rules import (
    BayesFlatMSR,
    ComplementMix,
    DiscretePrior,
    DiscretePriorBayes,
    EmpiricalSuccess,
    HypothesisTest,
    MinimaxMSR,
    PosteriorMatchFlat,
    PriorSupportError,
    Threshold,
    TreatmentRule,
    rule_to_dict,
)

__all__ = ["main"]

TABLE1_YBAR = (0.0, 0.2533, 0.5244, 0.8416, 1.2816, 1.6449, 2.3263)
FIGURE_RULES = ("es", "ht", "minimax", "bayes-flat", "post-match")

# exit 1: numeric failures, refused data, and files that cannot be read or written
_FAILURES = (
    DomainError,
    ConvergenceError,
    PriorSupportError,
    SaddleViolation,
    DominanceViolation,
    InputError,
    RankError,
    OSError,
)


class _UsageError(Exception):
    """Bad flag value detected after argparse (malformed token syntax)."""


def _parse_grid(text: str, flag: str = "--grid") -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise _UsageError(f"{flag} must be lo:hi:step, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise _UsageError(f"{flag} values must be numbers, got {text!r}") from None
    if not all(map(math.isfinite, (lo, hi, step))):
        raise _UsageError(f"{flag} values must be finite, got {text!r}")
    if step <= 0 or hi < lo:
        raise _UsageError(f"{flag} needs hi >= lo and step > 0, got {text!r}")
    try:
        return np.arange(lo, hi + step / 2, step)
    except (ValueError, MemoryError) as exc:
        # numpy refuses a grid too long to index, and the allocator one too
        # large to hold, before any element is written
        raise _UsageError(f"{flag} {text!r}: {exc}") from None


def _parse_prior(text: str) -> DiscretePrior:
    pairs = []
    for chunk in text.split(","):
        halves = chunk.split(":")
        if len(halves) != 2:
            raise _UsageError(f"--prior entries must be tau:weight, got {chunk!r}")
        try:
            pairs.append((float(halves[0]), float(halves[1])))
        except ValueError:
            raise _UsageError(f"--prior values must be numbers, got {chunk!r}") from None
    try:
        return DiscretePrior.from_pairs(pairs)
    except (DomainError, ValueError) as exc:
        raise _UsageError(f"--prior: {exc}") from None


def _parse_tail(text: str) -> List[float]:
    try:
        return [float(p) for p in text.split(",") if p.strip() != ""]
    except ValueError:
        raise _UsageError(f"--tail must be comma-separated numbers, got {text!r}") from None


def _build_rule(
    token: str,
    tau_star: float,
    sd: float,
    alpha: float,
    prior: Optional[DiscretePrior],
    alpha_g: float,
) -> TreatmentRule:
    """Construct a rule from its CLI token.

    sd is the statistic's standard deviation in the target context: smooth
    standardized rules get scale=sd so they can be applied to the raw
    statistic, and the ht token turns into the raw-scale threshold of its
    test when sd != 1.
    """
    token = token.strip()
    if token == "es":
        return EmpiricalSuccess()
    if token == "ht":
        test = HypothesisTest(alpha=alpha)
        return test if sd == 1.0 else Threshold(t=test.critical_value * sd)
    if token == "minimax":
        return MinimaxMSR(tau_star=tau_star, scale=sd)
    if token == "bayes-flat":
        return BayesFlatMSR(scale=sd)
    if token == "post-match":
        return PosteriorMatchFlat(scale=sd)
    if token.startswith("threshold:"):
        try:
            return Threshold(t=float(token[len("threshold:") :]))
        except ValueError:
            raise _UsageError(f"bad threshold rule token {token!r}") from None
    if token.startswith("mix:"):
        body = token[len("mix:") :]
        base_token, sep, lam_text = body.rpartition(",")
        if not sep:
            raise _UsageError(f"mix token must be mix:base,lambda, got {token!r}")
        try:
            lam = float(lam_text)
        except ValueError:
            raise _UsageError(f"bad mix weight in {token!r}") from None
        base = _build_rule(base_token, tau_star, sd, alpha, prior, alpha_g)
        return ComplementMix(base=base, lam=lam)
    if token == "prior-bayes":
        if prior is None:
            raise _UsageError("rule prior-bayes requires --prior")
        return DiscretePriorBayes(prior=prior, alpha_g=alpha_g, noise_sd=sd)
    raise _UsageError(f"unknown rule token {token!r}")


def _resolve_tau_star(flag: Optional[float]) -> float:
    if flag is None:
        return default_tau_star()
    if not 0.0 < flag < math.inf:
        raise _UsageError(f"--tau-star must be positive and finite, got {flag}")
    return flag


def _echo_config(args: argparse.Namespace) -> None:
    cfg = {k: v for k, v in vars(args).items() if k != "func" and v is not None}
    print(json.dumps(cfg, sort_keys=True), file=sys.stderr)


def _emit_json(payload: dict) -> None:
    print(json_text(payload))


def _emit_csv(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(text)


def _stat_sd(args: argparse.Namespace) -> float:
    # the experiment refuses a non-finite sigma, sigma <= 0 and n < 1 with a DomainError
    return GaussianExperiment(0.0, args.sigma, args.n).stat_sd


def _rule_from_args(args: argparse.Namespace, sd: float) -> TreatmentRule:
    prior = _parse_prior(args.prior) if args.prior else None
    return _build_rule(args.rule, args.resolved_tau_star, sd, args.alpha, prior, args.alpha_g)


def _rule_at_effect(args: argparse.Namespace) -> tuple:
    """The experiment, rule, tail thresholds and payload header of a rule at
    one effect (risk, simulate)."""
    exp = GaussianExperiment(tau=args.tau, sigma=args.sigma, n=args.n)
    rule = _rule_from_args(args, sd=exp.stat_sd)
    tails = _parse_tail(args.tail) if args.tail else []
    header = {"rule": rule_to_dict(rule), "tau": args.tau, "sigma": args.sigma, "n": args.n}
    return exp, rule, tails, header


def _cmd_solve_tau_star(args: argparse.Namespace) -> None:
    value = solve_tau_star(tol=args.tol)
    _emit_json(
        {
            "tau_star": value,
            "bayes_objective": bayes_objective(value),
            "frequentist_objective": frequentist_objective(value),
        }
    )


def _cmd_rule_eval(args: argparse.Namespace) -> None:
    if not math.isfinite(args.stat):
        raise _UsageError(f"--stat must be finite, got {args.stat}")
    rule = _rule_from_args(args, sd=1.0)
    _emit_json(
        {
            "rule": rule_to_dict(rule),
            "stat": args.stat,
            "fraction": float(rule.evaluate(args.stat)),
        }
    )


def _cmd_risk(args: argparse.Namespace) -> None:
    exp, rule, tails, payload = _rule_at_effect(args)
    payload["report"] = exact_risk(rule, exp, tail_thresholds=tails).to_dict()
    _emit_json(payload)


def _cmd_risk_curve(args: argparse.Namespace) -> None:
    exp_sd = _stat_sd(args)
    rule = _rule_from_args(args, sd=exp_sd)
    grid = _parse_grid(args.grid)
    curve = risk_curve(rule, grid, args.sigma, args.n)
    _emit_csv(risk_curve_csv(curve), args.csv)


def _cmd_simulate(args: argparse.Namespace) -> None:
    exp, rule, tails, payload = _rule_at_effect(args)
    summary = simulate(rule, exp, args.reps, RngSeed(args.seed), tail_thresholds=tails)
    payload["summary"] = summary.to_dict()
    _emit_json(payload)


def _cmd_saddle(args: argparse.Namespace) -> None:
    cert = verify_saddle(args.resolved_tau_star)
    if args.csv is not None:
        _emit_csv(cert.to_csv(), args.csv)
    _emit_json(cert.to_dict())


def _cmd_dominate(args: argparse.Namespace) -> None:
    cert = verify_dominance(
        args.t, args.tau_bar, args.alpha_g, _stat_sd(args), args.shrink, grid_step=args.grid_step
    )
    if args.csv is not None:
        _emit_csv(cert.to_csv(), args.csv)
    _emit_json({"certificate": cert.to_dict(), "rule": rule_to_dict(cert.rule)})


def _cmd_sample_size(args: argparse.Namespace) -> None:
    if args.criterion == "ht-power":
        if args.tau is None:
            raise _UsageError("ht-power requires --tau (the alternative)")
        plan = plan_ht_power(args.sigma, args.alpha, args.beta, args.tau, args.resolved_tau_star)
    else:
        if args.epsilon is None:
            raise _UsageError(f"{args.criterion} requires --epsilon")
        planner = plan_worst_msr if args.criterion == "worst-msr-target" else plan_es_epsilon
        plan = planner(args.sigma, args.epsilon, _rule_from_args(args, sd=1.0))
    _emit_json(plan.to_dict())


def _cmd_regress(args: argparse.Namespace) -> None:
    data = load_dataset_csv(args.data, intercept=not args.no_intercept)
    result = fit(data, tau_star=args.resolved_tau_star, unbiased=args.unbiased)
    _emit_json(result.to_dict())


def _cmd_table1(args: argparse.Namespace) -> None:
    rules = [
        _build_rule(name, args.resolved_tau_star, 1.0, 0.05, None, 2.0)
        for name in ("minimax", "bayes-flat", "post-match", "es")
    ]
    rows = ((ybar, *(float(rule.evaluate(ybar)) for rule in rules)) for ybar in TABLE1_YBAR)
    _emit_csv(csv_text("ybar,minimax,bayes,posterior_match,es", rows), args.csv)


def _cmd_figure1(args: argparse.Namespace) -> None:
    exp = GaussianExperiment(tau=args.tau, sigma=args.sigma, n=args.n)
    tails = _parse_tail(args.tail) if args.tail else [0.95]
    seed = RngSeed(args.seed)
    payload = {
        "tau": args.tau,
        "sigma": args.sigma,
        "n": args.n,
        "replications": args.reps,
        "seed": args.seed,
        "tau_star": args.resolved_tau_star,
        "tail_thresholds": tails,
    }
    for name in ("es", "minimax"):
        rule = _build_rule(name, args.resolved_tau_star, exp.stat_sd, 0.05, None, 2.0)
        payload[name] = {
            "exact": exact_risk(rule, exp, tail_thresholds=tails).to_dict(),
            "simulated": simulate(rule, exp, args.reps, seed, tail_thresholds=tails).to_dict(),
        }
    _emit_json(payload)


def _cmd_figures3to6(args: argparse.Namespace) -> None:
    rules = [
        (name, _build_rule(name, args.resolved_tau_star, 1.0, args.alpha, None, 2.0))
        for name in FIGURE_RULES
    ]
    rows = []
    frac_grid = _parse_grid(args.fraction_grid, "--fraction-grid")
    for name, rule in rules:
        values = np.asarray(rule.evaluate(frac_grid), dtype=float)
        rows.extend(("fraction", name, float(x), float(v)) for x, v in zip(frac_grid, values))
    tau_grid = _parse_grid(args.grid)
    curves = {name: risk_curve(rule, tau_grid, 1.0, 1) for name, rule in rules}
    for figure, pick in (
        ("msr", lambda rep: rep.mean_square_regret),
        ("mean_regret", lambda rep: rep.mean_regret),
        ("regret_sd", lambda rep: rep.regret_sd),
    ):
        for name, _ in rules:
            rows.extend((figure, name, tau, pick(rep)) for tau, rep in curves[name])
    _emit_csv(csv_text("figure,rule,x,value", rows), args.csv)


def _add_rule_flags(sub: argparse.ArgumentParser, default: Optional[str] = "minimax") -> None:
    sub.add_argument(
        "--rule",
        default=default,
        required=default is None,
        help="rule token: es|ht|minimax|bayes-flat|post-match|threshold:T|mix:BASE,LAMBDA|prior-bayes",
    )
    sub.add_argument("--prior", help="discrete prior as t1:w1,t2:w2,...")
    sub.add_argument("--alpha-g", type=float, default=2.0, dest="alpha_g",
                     help="regret power for prior-bayes (default 2)")
    sub.add_argument("--alpha", type=float, default=0.05,
                     help="test size for the ht rule (default 0.05)")


def _add_tau_star_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--tau-star", type=float, dest="tau_star",
                     help="override the minimax calibration constant")


def _fill_solve_tau_star(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=float, default=1e-7)
    p.set_defaults(func=_cmd_solve_tau_star)


def _fill_rule_eval(p: argparse.ArgumentParser) -> None:
    _add_rule_flags(p, default=None)
    _add_tau_star_flag(p)
    p.add_argument("--stat", type=float, required=True)
    p.set_defaults(func=_cmd_rule_eval)


def _fill_risk(p: argparse.ArgumentParser) -> None:
    _add_rule_flags(p)
    _add_tau_star_flag(p)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--tail", help="comma-separated regret thresholds")
    p.set_defaults(func=_cmd_risk)


def _fill_risk_curve(p: argparse.ArgumentParser) -> None:
    _add_rule_flags(p)
    _add_tau_star_flag(p)
    p.add_argument("--grid", default="0:3:0.02", help="tau grid lo:hi:step")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--csv", help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_risk_curve)


def _fill_simulate(p: argparse.ArgumentParser) -> None:
    _add_rule_flags(p)
    _add_tau_star_flag(p)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--reps", type=int, default=10000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tail", help="comma-separated regret thresholds")
    p.set_defaults(func=_cmd_simulate)


def _fill_saddle(p: argparse.ArgumentParser) -> None:
    _add_tau_star_flag(p)
    p.add_argument("--csv", help="write the curve samples CSV here")
    p.set_defaults(func=_cmd_saddle)


def _fill_dominate(p: argparse.ArgumentParser) -> None:
    p.add_argument("--t", type=float, default=0.0, help="threshold of the base rule")
    p.add_argument("--tau-bar", type=float, default=1.0, dest="tau_bar")
    p.add_argument("--alpha-g", type=float, default=2.0, dest="alpha_g")
    p.add_argument("--shrink", type=float, default=0.5)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--grid-step", type=float, default=0.01, dest="grid_step")
    p.add_argument("--csv", help="write the margin grid CSV here")
    p.set_defaults(func=_cmd_dominate)


def _fill_sample_size(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--criterion",
        choices=["worst-msr-target", "es-epsilon-optimal", "ht-power"],
        default="worst-msr-target",
    )
    _add_rule_flags(p)
    _add_tau_star_flag(p)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--beta", type=float, default=0.9, help="target power for ht-power")
    p.add_argument("--tau", type=float, help="alternative effect for ht-power")
    p.set_defaults(func=_cmd_sample_size)


def _fill_regress(p: argparse.ArgumentParser) -> None:
    _add_tau_star_flag(p)
    p.add_argument("--data", required=True, help="CSV with columns y and d")
    p.add_argument("--no-intercept", action="store_true", dest="no_intercept")
    p.add_argument("--unbiased", action="store_true",
                   help="use the degrees-of-freedom variance divisor")
    p.set_defaults(func=_cmd_regress)


def _fill_table1(p: argparse.ArgumentParser) -> None:
    _add_tau_star_flag(p)
    p.add_argument("--csv", help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_table1)


def _fill_figure1(p: argparse.ArgumentParser) -> None:
    _add_tau_star_flag(p)
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--reps", type=int, default=10000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tail", help="comma-separated regret thresholds (default 0.95)")
    p.set_defaults(func=_cmd_figure1)


def _fill_figures3to6(p: argparse.ArgumentParser) -> None:
    _add_tau_star_flag(p)
    p.add_argument("--alpha", type=float, default=0.05,
                   help="test size for the ht rule (default 0.05)")
    p.add_argument("--grid", default="0:3:0.02", help="tau grid lo:hi:step")
    p.add_argument("--fraction-grid", default="-3:3:0.02", dest="fraction_grid")
    p.add_argument("--csv", help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_figures3to6)


# each subcommand's help line and the function that adds its arguments and its
# func default, in the order the full parser lists them
_COMMANDS = {
    "solve-tau-star": ("solve the minimax calibration", _fill_solve_tau_star),
    "rule-eval": ("evaluate a rule at a statistic", _fill_rule_eval),
    "risk": ("exact risk report at one effect", _fill_risk),
    "risk-curve": ("risk report along an effect grid (CSV)", _fill_risk_curve),
    "simulate": ("Monte Carlo risk summary", _fill_simulate),
    "saddle": ("verify the minimax saddle, emit the curve", _fill_saddle),
    "dominate": ("dominating fractional rule certificate", _fill_dominate),
    "sample-size": ("plan n under a risk criterion", _fill_sample_size),
    "regress": ("fit y on d and covariates from CSV", _fill_regress),
    "table1": ("treatment fractions at the reference grid (CSV)", _fill_table1),
    "figure1": ("exact and simulated risk summaries (JSON)", _fill_figure1),
    "figures3to6": ("rule fractions and risk curves (long CSV)", _fill_figures3to6),
}


@functools.lru_cache(maxsize=None)
def _command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of one subcommand, as the full parser's subparser for it is
    built; cached per name."""
    parser = argparse.ArgumentParser(prog=f"msregret {name}")
    _COMMANDS[name][1](parser)
    return parser


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args returns a fresh namespace and no
    # command touches the parser or its defaults, so main() can share it
    parser = argparse.ArgumentParser(
        prog="msregret",
        description="Treatment-choice rules under mean square regret.",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name, (summary, fill) in _COMMANDS.items():
        fill(subs.add_parser(name, help=summary))
    return parser


def _parse_args(argv: List[str]) -> argparse.Namespace:
    """argv parsed as the full parser parses it, by the named subcommand's
    own parser where that parser takes every argument that follows."""
    if argv and argv[0] in _COMMANDS:
        args, rest = _command_parser(argv[0]).parse_known_args(argv[1:])
        if not rest:
            args.subcommand = argv[0]
            return args
    return _build_parser().parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # a result that overflows is refused by the library with its own error,
        # so numpy's overflow warning would only add a line to stderr
        with np.errstate(over="ignore"):
            if hasattr(args, "tau_star"):
                args.resolved_tau_star = _resolve_tau_star(args.tau_star)
            _echo_config(args)
            args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _FAILURES as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
