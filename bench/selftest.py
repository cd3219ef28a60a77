#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py [--seed 1]

For each workload it shows that reference.Checker accepts values computed
apart from msregret (and msregret's own outputs where they are right), and
rejects each of them once a single number is perturbed.  It also shows that
the prior-bayes tail operations are rejected for the library's real output,
which is why the benchmark counts them as failed.  Exits 1 on any surprise.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import reference  # noqa: E402
import workloads  # noqa: E402

_results = []


def expect(label: str, why, accepted: bool) -> None:
    ok = (why is None) == accepted
    _results.append(ok)
    verdict = "accepts" if why is None else f"rejects ({why})"
    print(f"{'ok  ' if ok else 'FAIL'} {label}: checker {verdict}")


def risk_curves(seed: int) -> None:
    checker = reference.Checker()
    seen = set()
    for spec in workloads.build("risk-curves", seed):
        family = spec["rule"]["name"]
        if family in seen:
            continue
        seen.add(family)
        rule = reference.risk_rule(spec["rule"])
        sd = spec["sigma"] / math.sqrt(spec["n"])
        ref = reference.risk_moments(rule, spec["tau"], sd)
        ref["welfare_sd"] = math.sqrt(ref["regret_variance"])
        ref["tail"] = [[spec["tail"], reference.tail_probability(rule, spec["tau"], sd, spec["tail"])]]
        expect(f"risk-curves {family} reference", checker.check(spec, ref), True)
        for key in ("mean_regret", "mean_square_regret", "welfare_mean"):
            bad = dict(ref, **{key: ref[key] + 1e-6 + 1e-6 * abs(ref[key])})
            expect(f"risk-curves {family} {key} perturbed", checker.check(spec, bad), False)
        # welfare_sd is checked through its square, the quantity quadrature gives
        bad = dict(ref, welfare_sd=math.sqrt(ref["regret_variance"] + 1e-6))
        expect(f"risk-curves {family} welfare_sd perturbed", checker.check(spec, bad), False)
        bad = dict(ref, tail=[[spec["tail"], ref["tail"][0][1] + 1e-7]])
        expect(f"risk-curves {family} tail perturbed", checker.check(spec, bad), False)


def _reference_summary(rule, tau, sd, reps, c, rng) -> dict:
    """A simulate() payload computed with numpy's own generator."""
    y = tau + sd * rng.standard_normal(reps)
    ind = 1.0 if tau >= 0 else 0.0
    reg = tau * (ind - rule.frac(y))
    r = float(reps)
    sd_reg = float(reg.std(ddof=1))
    p = float((reg > c).mean())
    return {
        "replications": reps, "mean_regret": float(reg.mean()),
        "regret_variance": sd_reg**2, "mean_square_regret": float((reg * reg).mean()),
        "welfare_mean": float((tau * rule.frac(y)).mean()),
        "se_mean_regret": sd_reg / math.sqrt(r), "se_welfare_mean": sd_reg / math.sqrt(r),
        "se_mean_square_regret": float((reg * reg).std(ddof=1)) / math.sqrt(r),
        "se_regret_sd": float(((reg - reg.mean()) ** 2).std(ddof=1)) / math.sqrt(r) / (2 * sd_reg),
        "tail": [[c, p, math.sqrt(p * (1 - p) / r)]],
    }


def prior_bayes(seed: int) -> None:
    import msregret as m

    checker = reference.Checker()
    specs = workloads.build("prior-bayes", seed)
    rng = np.random.default_rng(seed)
    for spec in [s for s in specs if s["kind"] == "table"][:6]:
        ref = reference.prior_fraction(spec["prior"], spec["alpha_g"], spec["noise_sd"],
                                       spec["stats"]).tolist()
        expect(f"prior-bayes table alpha_g={spec['alpha_g']} reference", checker.check(spec, ref), True)
        bad = list(ref)
        bad[5] += 1e-7
        expect("prior-bayes table perturbed", checker.check(spec, bad), False)
    for spec in [s for s in specs if s["kind"] == "simulate"][:2]:
        ref = _reference_summary(reference.prior_rule(spec), spec["tau"], spec["noise_sd"],
                                 spec["reps"], spec["tail"], rng)
        expect("prior-bayes simulate numpy draws", checker.check(spec, ref), True)
        bad = dict(ref, mean_regret=ref["mean_regret"] + 10 * ref["se_mean_regret"])
        expect("prior-bayes simulate mean regret 10 se off", checker.check(spec, bad), False)
    for spec in [s for s in specs if s["kind"] == "tail"][:2]:
        rule = reference.prior_rule(spec)
        p = reference.tail_probability(rule, spec["tau"], spec["noise_sd"], spec["threshold"])
        expect("prior-bayes tail exact inversion", checker.check(spec, p), True)
        expect("prior-bayes tail perturbed", checker.check(spec, p + 1e-7), False)
        lib = m.DiscretePriorBayes(m.DiscretePrior.from_pairs(spec["prior"]), spec["alpha_g"],
                                   spec["noise_sd"])
        got = m.tail_probability(lib, m.GaussianExperiment(spec["tau"], spec["noise_sd"], 1),
                                 spec["threshold"])
        expect("prior-bayes tail from msregret (known fault)", checker.check(spec, got), False)


def _run_cli(argv) -> dict:
    import msregret.cli as cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return {"rc": rc, "stdout": out.getvalue()}


def _perturbed(output: dict, path, delta) -> dict:
    payload = json.loads(output["stdout"])
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = node[path[-1]] + delta
    return {"rc": 0, "stdout": json.dumps(payload)}


def study_design(seed: int, scratch: Path) -> None:
    checker = reference.Checker()
    specs = workloads.build("study-design", seed)
    first = {}
    for k, spec in enumerate(specs):
        argv = spec["argv"]
        key = argv[0] if argv[0] != "sample-size" else argv[2]
        first.setdefault(key, (k, spec))
    perturb = {
        "solve-tau-star": ["tau_star"], "saddle": ["worst_case_risk"],
        "worst-msr-target": ["n_required"], "es-epsilon-optimal": ["es_comparison", "n_rule"],
        "ht-power": ["ht_comparison", "n_minimax"], "dominate": ["certificate", "lambda_used"],
        "simulate": ["summary", "mean_regret"], "figure1": ["minimax", "exact", "mean_regret"],
        "regress": ["se_tau"],
    }
    for key, (k, spec) in first.items():
        argv = list(spec["argv"])
        if "data" in spec:
            path = scratch / f"selftest-{k}.csv"
            path.write_text(workloads.regress_csv(spec["data"]))
            argv = [str(path) if a == "{csv}" else a for a in argv]
        out = _run_cli(argv)
        expect(f"study-design {key} from msregret", checker.check(spec, out), True)
        if key == "table1":
            lines = out["stdout"].split("\n")
            cells = lines[3].split(",")
            cells[1] = repr(float(cells[1]) + 1e-9)
            lines[3] = ",".join(cells)
            bad = {"rc": 0, "stdout": "\n".join(lines)}
        else:
            path = perturb[key]
            value = json.loads(out["stdout"])
            for p in path:
                value = value[p]
            if key == "simulate":
                delta = 10 * json.loads(out["stdout"])["summary"]["se_mean_regret"]
            else:
                delta = 1 if isinstance(value, int) else 1e-6 + 1e-6 * abs(value)
            bad = _perturbed(out, path, delta)
        expect(f"study-design {key} perturbed", checker.check(spec, bad), False)
    expect("study-design nonzero exit code", checker.check(specs[0], {"rc": 1, "stdout": ""}), False)


def main() -> int:
    p = argparse.ArgumentParser(description="self-test of the benchmark's output checks")
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    scratch = ROOT / "bench-out"
    scratch.mkdir(exist_ok=True)
    risk_curves(args.seed)
    prior_bayes(args.seed)
    study_design(args.seed, scratch)
    for path in scratch.glob("selftest-*.csv"):
        path.unlink()
    failed = _results.count(False)
    print(f"{len(_results) - failed} of {len(_results)} expectations met")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
