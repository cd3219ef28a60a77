"""Reference values and output checks for the benchmark.

Nothing here imports msregret: every expected value comes from numpy/scipy
code written apart from the library, so a wrong library number cannot also
be the reference it is checked against.

Routes:
- rule fractions in closed form (logistic, normal CDF, the flat-prior Bayes
  formula, and the discrete-prior first-order condition, which separates into
  delta = A^(1/e) / (A^(1/e) + B^(1/e)) with e = alpha_g - 1);
- Gaussian expectations by adaptive Gauss-Kronrod (scipy.integrate.quad) on
  the standardized scale, split at each jump of a step rule;
- tail probabilities by exact inversion of a monotone rule (logit, ndtri or a
  bracketed root of the closed form), then one normal CDF value;
- worst-case units by a Gauss-Legendre scan over the standardized effect and
  a bounded Brent refinement on the quadrature objective;
- least squares by numpy.linalg.lstsq.

Checker.check(spec, output) returns None when the output is right and a short
reason when it is not.
"""
from __future__ import annotations

import io
import json
import math

import numpy as np
from scipy import integrate, optimize, special

from workloads import TAU_STAR, regress_csv

_Z_LIMIT = 12.0
_GL_Z, _GL_W = np.polynomial.legendre.leggauss(400)
_GL_Z = _GL_Z * 10.0
_GL_W = _GL_W * 10.0 * np.exp(-0.5 * _GL_Z**2) / math.sqrt(2.0 * math.pi)


def cdf(x):
    return 0.5 * special.erfc(-np.asarray(x, dtype=float) / math.sqrt(2.0))


def pdf(x):
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def logistic(x):
    x = np.asarray(x, dtype=float)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def close(a: float, b: float, abs_tol: float, rel_tol: float = 0.0) -> bool:
    return abs(a - b) <= abs_tol + rel_tol * abs(b)


# --- rules -------------------------------------------------------------------

class Rule:
    """A rule's fraction as a function of the raw statistic.

    step is (cut, low, high) for two-valued rules and None otherwise;
    direction is +1 for nondecreasing rules, -1 for nonincreasing ones;
    span is the open interval of values a smooth rule takes.
    """

    def __init__(self, frac, step=None, center=0.0, inverse=None, direction=1, span=(0.0, 1.0)):
        self.frac = frac
        self.step = step
        self.center = center
        self.inverse = inverse
        self.direction = direction
        self.span = span


def step_rule(cut: float, low: float, high: float) -> Rule:
    return Rule(lambda y: np.where(np.asarray(y) >= cut, high, low) + 0.0,
                step=(cut, low, high), center=cut,
                direction=1 if high >= low else -1)


def logistic_rule(c: float, scale: float) -> Rule:
    return Rule(lambda y: logistic(2.0 * c * np.asarray(y) / scale),
                inverse=lambda q: scale * math.log(q / (1.0 - q)) / (2.0 * c))


def bayes_flat_fraction(u):
    u = np.asarray(u, dtype=float)
    return cdf(u) + u * pdf(u) / (1.0 + u * u)


def bayes_flat_rule(scale: float) -> Rule:
    def inverse(q):
        root = optimize.brentq(lambda u: float(bayes_flat_fraction(u)) - q, -40.0, 40.0,
                               xtol=1e-15, rtol=8.9e-16, maxiter=500)
        return scale * root
    return Rule(lambda y: bayes_flat_fraction(np.asarray(y) / scale), inverse=inverse)


def post_match_rule(scale: float) -> Rule:
    return Rule(lambda y: cdf(np.asarray(y) / scale),
                inverse=lambda q: scale * float(special.ndtri(q)))


def mix_rule(base: Rule, lam: float) -> Rule:
    if base.step is not None:
        cut, lo, hi = base.step
        return step_rule(cut, (1 - lam) * lo + lam * (1 - lo), (1 - lam) * hi + lam * (1 - hi))
    inverse = None
    if base.inverse is not None and lam != 0.5:
        inverse = lambda q: base.inverse((q - lam) / (1.0 - 2.0 * lam))  # noqa: E731
    return Rule(lambda y: (1.0 - lam) * base.frac(y) + lam * (1.0 - base.frac(y)),
                center=base.center, inverse=inverse,
                direction=1 if lam < 0.5 else -1, span=(min(lam, 1 - lam), max(lam, 1 - lam)))


def risk_rule(spec: dict) -> Rule:
    """Rule of a risk-curves operation (applied to the raw statistic)."""
    name, scale = spec["name"], spec["scale"]
    if name == "es":
        return step_rule(0.0, 0.0, 1.0)
    if name == "ht":
        return step_rule(float(special.ndtri(1.0 - spec["alpha"])) * scale, 0.0, 1.0)
    if name == "minimax":
        return logistic_rule(TAU_STAR, scale)
    if name == "logistic":
        return logistic_rule(spec["c"], scale)
    if name == "bayes-flat":
        return bayes_flat_rule(scale)
    if name == "post-match":
        return post_match_rule(scale)
    if name == "mix":
        return mix_rule(step_rule(spec["t"], 0.0, 1.0), spec["lam"])
    raise ValueError(f"unknown rule {name!r}")


def token_rule(token: str, tau_star: float, sd: float, alpha: float = 0.05) -> Rule:
    """Rule of a CLI rule token on a statistic with standard deviation sd."""
    if token == "es":
        return step_rule(0.0, 0.0, 1.0)
    if token == "ht":
        return step_rule(float(special.ndtri(1.0 - alpha)) * sd, 0.0, 1.0)
    if token == "minimax":
        return logistic_rule(tau_star, sd)
    if token == "bayes-flat":
        return bayes_flat_rule(sd)
    if token == "post-match":
        return post_match_rule(sd)
    if token.startswith("threshold:"):
        return step_rule(float(token.split(":", 1)[1]), 0.0, 1.0)
    if token.startswith("mix:"):
        base, lam = token[4:].rsplit(",", 1)
        return mix_rule(token_rule(base, tau_star, sd, alpha), float(lam))
    raise ValueError(f"unknown rule token {token!r}")


def prior_fraction(prior, alpha_g: float, noise_sd: float, stat):
    """Discrete-prior Bayes fraction from the separated first-order condition."""
    s = np.atleast_1d(np.asarray(stat, dtype=float))
    taus = np.array([t for t, _ in prior], dtype=float)
    logw = np.log([w for _, w in prior])[None, :] - 0.5 * ((s[:, None] - taus) / noise_sd) ** 2
    logt = alpha_g * np.log(np.abs(taus))[None, :]
    log_a = special.logsumexp(np.where(taus > 0, logw + logt, -np.inf), axis=1)
    log_b = special.logsumexp(np.where(taus < 0, logw + logt, -np.inf), axis=1)
    out = special.expit((log_a - log_b) / (alpha_g - 1.0))
    return out if np.ndim(stat) else float(out[0])


def prior_rule(spec: dict) -> Rule:
    def frac(y):
        return prior_fraction(spec["prior"], spec["alpha_g"], spec["noise_sd"], y)

    def inverse(q):
        return optimize.brentq(lambda y: frac(y) - q, -60.0, 60.0,
                               xtol=1e-14, rtol=8.9e-16, maxiter=500)
    return Rule(frac, inverse=inverse)


# --- risk functionals --------------------------------------------------------

def expect(g, tau: float, sd: float, breaks=()) -> float:
    """E[g(Y)], Y ~ N(tau, sd^2), by Gauss-Kronrod on z in [-12, 12]."""
    pts = sorted({-_Z_LIMIT, _Z_LIMIT}
                 | {float(b) for b in breaks if -_Z_LIMIT < b < _Z_LIMIT})
    total = 0.0
    for lo, hi in zip(pts[:-1], pts[1:]):
        val, _ = integrate.quad(lambda z: float(g(tau + sd * z)) * math.exp(-0.5 * z * z),
                                lo, hi, epsabs=1e-15, epsrel=1e-13, limit=400)
        total += val
    return total / math.sqrt(2.0 * math.pi)


def regret_powers(rule: Rule, tau: float, sd: float, kmax: int = 2) -> list:
    """[E h, E h^2, ..., E h^kmax] for h = 1{tau >= 0} - fraction, so regret = tau h."""
    ind = 1.0 if tau >= 0 else 0.0
    breaks = [(rule.center - tau) / sd]
    return [expect(lambda y: (ind - rule.frac(y)) ** k, tau, sd, breaks)
            for k in range(1, kmax + 1)]


def risk_moments(rule: Rule, tau: float, sd: float) -> dict:
    """Mean regret, mean square regret, regret variance and welfare mean."""
    ind = 1.0 if tau >= 0 else 0.0
    h1, h2 = regret_powers(rule, tau, sd)
    return {
        "mean_regret": tau * h1,
        "mean_square_regret": tau * tau * h2,
        "regret_variance": tau * tau * max(h2 - h1 * h1, 0.0),
        "welfare_mean": tau * (ind - h1),
    }


def tail_probability(rule: Rule, tau: float, sd: float, c: float) -> float:
    """P(regret > c) for a monotone rule, by exact inversion."""
    if tau == 0.0:
        return 0.0
    ind = 1.0 if tau > 0 else 0.0
    if rule.step is not None:
        cut, lo, hi = rule.step
        p_hi = float(cdf((tau - cut) / sd))
        return ((1.0 - p_hi) if tau * (ind - lo) > c else 0.0) + (p_hi if tau * (ind - hi) > c else 0.0)
    # regret > c  <=>  frac < q (tau > 0)  or  frac > q (tau < 0)
    q = 1.0 - c / tau if tau > 0 else c / abs(tau)
    lo, hi = rule.span
    if q <= lo or q >= hi:
        # the rule never crosses q: the event holds everywhere or nowhere
        return 1.0 if (q >= hi) == (tau > 0) else 0.0
    cut = rule.inverse(q)
    below = float(cdf((cut - tau) / sd))
    want_small_frac = tau > 0
    # a nonincreasing rule takes small values above its cut
    if want_small_frac == (rule.direction > 0):
        return below
    return 1.0 - below


def _unit_grid(rule: Rule, power: int, b: np.ndarray) -> np.ndarray:
    ind = (b >= 0).astype(float)
    if rule.step is not None:
        cut, lo, hi = rule.step
        p_hi = cdf(b - cut)
        h = lambda v: (ind - v) ** power  # noqa: E731
        e = h(lo) * (1.0 - p_hi) + h(hi) * p_hi
    else:
        s = b[:, None] + _GL_Z[None, :]
        e = ((ind[:, None] - rule.frac(s)) ** power) @ _GL_W
    return b**power * e


def unit_sup(rule: Rule, power: int):
    """(argmax, max) over b in [-8, 8] of b^p E[(1{b>=0} - f(s))^p], s ~ N(b, 1)."""
    grid = np.arange(-8.0, 8.0 + 1e-9, 0.01)
    vals = _unit_grid(rule, power, grid)
    i = int(np.argmax(vals))

    def obj(b):
        ind = 1.0 if b >= 0 else 0.0
        return b**power * expect(lambda y: (ind - rule.frac(y)) ** power, b, 1.0,
                                 [rule.center - b])

    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
    res = optimize.minimize_scalar(lambda b: -obj(b), bounds=(lo, hi), method="bounded",
                                   options={"xatol": 1e-11})
    return float(res.x), float(-res.fun)


def bayes_objective(a: float) -> float:
    return 0.5 * a * a * expect(lambda s: logistic(-2.0 * a * s), a, 1.0, [-a])


def frequentist_objective(a: float) -> float:
    return a * a * expect(lambda s: logistic(-2.0 * a * s) ** 2, a, 1.0, [-a])


# --- checks ------------------------------------------------------------------

def _within_se(value: float, ref: float, se: float, floor: float = 0.0) -> bool:
    return abs(value - ref) <= 5.0 * se + floor


class Checker:
    """Checks operation outputs; caches worst-case units and tau* across operations."""

    def __init__(self):
        self._units = {}
        self._tau_star = None

    def unit(self, key, rule_fn, power):
        if (key, power) not in self._units:
            self._units[(key, power)] = unit_sup(rule_fn(), power)
        return self._units[(key, power)]

    def tau_star(self) -> float:
        if self._tau_star is None:
            res = optimize.minimize_scalar(lambda a: -frequentist_objective(a),
                                           bounds=(1.1, 1.35), method="bounded",
                                           options={"xatol": 1e-11})
            self._tau_star = float(res.x)
        return self._tau_star

    def check(self, spec: dict, output) -> str | None:
        kind = spec["kind"]
        try:
            if kind == "risk":
                return self._risk(spec, output)
            if kind == "table":
                return self._table(spec, output)
            if kind == "simulate":
                return self._prior_simulate(spec, output)
            if kind == "tail":
                return self._prior_tail(spec, output)
            if kind == "cli":
                return self._cli(spec, output)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return f"malformed output: {type(exc).__name__}: {exc}"
        return f"unknown operation kind {kind!r}"

    # risk-curves
    def _exact(self, rule: Rule, tau: float, sd: float, report: dict, tails=()) -> str | None:
        ref = risk_moments(rule, tau, sd)
        for key in ("mean_regret", "mean_square_regret", "regret_variance", "welfare_mean"):
            if not close(report[key], ref[key], 1e-8, 1e-7):
                return f"{key} {report[key]!r} != reference {ref[key]!r}"
        if not close(report["welfare_sd"] ** 2, ref["regret_variance"], 1e-8, 1e-7):
            return f"welfare_sd^2 {report['welfare_sd'] ** 2!r} != {ref['regret_variance']!r}"
        msr, m1, var = (report["mean_square_regret"], report["mean_regret"],
                        report["regret_variance"])
        if not close(msr, m1 * m1 + var, 1e-8, 1e-7):
            return f"msr {msr!r} != mean_regret^2 + regret_variance {m1 * m1 + var!r}"
        got = [tuple(row) for row in report["tail"]]
        if [c for c, _ in got] != [float(c) for c in tails]:
            return f"tail thresholds {got!r} != {list(tails)!r}"
        for c, p in got:
            p_ref = tail_probability(rule, tau, sd, c)
            if not close(p, p_ref, 1e-9):
                return f"P(regret > {c!r}) {p!r} != reference {p_ref!r}"
        return None

    def _risk(self, spec, report):
        sd = spec["sigma"] / math.sqrt(spec["n"])
        return self._exact(risk_rule(spec["rule"]), spec["tau"], sd, report, [spec["tail"]])

    # prior-bayes
    def _table(self, spec, fractions):
        ref = prior_fraction(spec["prior"], spec["alpha_g"], spec["noise_sd"], spec["stats"])
        got = np.asarray(fractions, dtype=float)
        if got.shape != ref.shape:
            return f"table shape {got.shape} != {ref.shape}"
        bad = np.flatnonzero(np.abs(got - ref) > 1e-9)
        if bad.size:
            i = int(bad[0])
            return f"fraction at stat {spec['stats'][i]!r}: {float(got[i])!r} != FOC root {float(ref[i])!r}"
        if (np.diff(got) < -1e-12).any():
            return "fractions decrease in the statistic"
        return None

    def _simulated(self, rule: Rule, tau: float, sd: float, summary: dict, tails) -> str | None:
        # standard errors: the larger of the reported one and the exact one,
        # since a sample that misses a rare large regret understates its own
        ref = risk_moments(rule, tau, sd)
        r = summary["replications"]
        h1, h2, h3, h4 = regret_powers(rule, tau, sd, 4)
        var = ref["regret_variance"]
        central4 = tau**4 * (h4 - 4 * h3 * h1 + 6 * h2 * h1 * h1 - 3 * h1**4)
        se_mean = max(summary["se_mean_regret"], math.sqrt(var / r))
        se_msr = max(summary["se_mean_square_regret"], tau * tau * math.sqrt(max(h4 - h2 * h2, 0.0) / r))
        se_sd = summary["se_regret_sd"]
        if var > 0:
            se_sd = max(se_sd, math.sqrt(max(central4 - var * var, 0.0) / r) / (2 * math.sqrt(var)))
        pairs = (
            ("mean_regret", ref["mean_regret"], se_mean),
            ("mean_square_regret", ref["mean_square_regret"], se_msr),
            ("welfare_mean", ref["welfare_mean"], se_mean),
            ("regret_sd", math.sqrt(var), se_sd),
        )
        for key, want, se in pairs:
            got = math.sqrt(summary["regret_variance"]) if key == "regret_sd" else summary[key]
            if not _within_se(got, want, se, 1e-12):
                return f"simulated {key} {got!r} is {abs(got - want) / max(se, 1e-300):.1f} se from {want!r}"
        rows = summary["tail"]
        if [row[0] for row in rows] != [float(c) for c in tails]:
            return f"tail thresholds {rows!r} != {list(tails)!r}"
        for c, p, _ in rows:
            p_ref = tail_probability(rule, tau, sd, c)
            if not _within_se(p, p_ref, math.sqrt(max(p_ref * (1.0 - p_ref), 0.0) / r), 1.0 / r):
                return f"simulated P(regret > {c!r}) {p!r} far from {p_ref!r}"
        return None

    def _prior_simulate(self, spec, summary):
        if summary["replications"] != spec["reps"]:
            return f"replications {summary['replications']} != {spec['reps']}"
        return self._simulated(prior_rule(spec), spec["tau"], spec["noise_sd"], summary,
                               [spec["tail"]])

    def _prior_tail(self, spec, p):
        p_ref = tail_probability(prior_rule(spec), spec["tau"], spec["noise_sd"],
                                 spec["threshold"])
        if not close(p, p_ref, 1e-9):
            return f"P(regret > {spec['threshold']!r}) {p!r} != exact inversion {p_ref!r}"
        return None

    # study-design
    def _cli(self, spec, output):
        argv = spec["argv"]
        if output["rc"] != 0:
            return f"exit code {output['rc']}"
        text = output["stdout"]
        cmd = argv[0]
        flags = _flags(argv[1:])
        if cmd == "table1":
            return self._table1(flags, text)
        payload = json.loads(text)
        if cmd == "solve-tau-star":
            return self._solve(payload)
        if cmd == "saddle":
            return self._saddle(payload)
        if cmd == "sample-size":
            return self._sample_size(flags, payload)
        if cmd == "dominate":
            return self._dominate(flags, payload)
        if cmd == "simulate":
            return self._cli_simulate(flags, payload)
        if cmd == "figure1":
            return self._figure1(flags, payload)
        if cmd == "regress":
            return self._regress(spec, flags, payload)
        return f"no check for subcommand {cmd!r}"

    def _solve(self, payload):
        a = payload["tau_star"]
        if not close(a, self.tau_star(), 1e-6):
            return f"tau_star {a!r} != reference argmax {self.tau_star()!r}"
        for key, fn in (("bayes_objective", bayes_objective),
                        ("frequentist_objective", frequentist_objective)):
            if not close(payload[key], fn(a), 1e-10):
                return f"{key} {payload[key]!r} != reference {fn(a)!r}"
        return None

    def _saddle(self, cert):
        if cert["tau_star"] != TAU_STAR:
            return f"certificate for {cert['tau_star']!r}, expected the shipped {TAU_STAR!r}"
        arg, sup = self.unit(("minimax", TAU_STAR, None), lambda: logistic_rule(TAU_STAR, 1.0), 2)
        if not close(cert["bayes_risk_at_lfp"], bayes_objective(TAU_STAR), 1e-10):
            return "bayes_risk_at_lfp differs from the reference objective"
        if not close(cert["worst_case_risk"], sup, 1e-10):
            return f"worst_case_risk {cert['worst_case_risk']!r} != reference {sup!r}"
        if not close(cert["argsup_tau"], abs(arg), 1e-5):
            return f"argsup_tau {cert['argsup_tau']!r} != reference {abs(arg)!r}"
        if not cert["objective_gap"] <= 1e-6:
            return f"objective_gap {cert['objective_gap']!r} above 1e-6"
        rows = cert["curve_samples"]
        if len(rows) != 201:
            return f"{len(rows)} curve samples, expected 201"
        rule = logistic_rule(TAU_STAR, 1.0)
        for tau, b, f in rows[::10]:
            if not close(b, bayes_objective(tau), 1e-8, 1e-7):
                return f"bayes objective at {tau!r}: {b!r} != {bayes_objective(tau)!r}"
            f_ref = risk_moments(rule, tau, 1.0)["mean_square_regret"]
            if not close(f, f_ref, 1e-8, 1e-7):
                return f"frequentist risk at {tau!r}: {f!r} != {f_ref!r}"
        if max(row[2] for row in rows) > sup + 1e-8:
            return "a frequentist risk sample exceeds the reference worst case"
        return None

    def _plan_unit(self, token, tau_star=TAU_STAR, alpha=0.05):
        key = (token, tau_star if token == "minimax" else None, alpha if token == "ht" else None)
        return self.unit(key, lambda: token_rule(token, tau_star, 1.0, alpha), 2)[1]

    def _sample_size(self, flags, plan):
        tau_star = float(flags.get("--tau-star", TAU_STAR))
        alpha = float(flags.get("--alpha", 0.05))
        s2 = float(flags.get("--sigma", 1.0)) ** 2
        criterion = flags["--criterion"]
        n = plan["n_required"]
        u_es = self._plan_unit("es")
        if criterion == "worst-msr-target":
            unit = self._plan_unit(flags["--rule"], tau_star, alpha)
            eps2 = float(flags["--epsilon"]) ** 2
            if not _smallest_n(n, s2 * unit, eps2):
                return f"n_required {n} is not the smallest n with {s2 * unit!r}/n <= {eps2!r}"
            if not close(plan["achieved_worst_msr"], s2 * unit / n, 0.0, 1e-8):
                return f"achieved_worst_msr {plan['achieved_worst_msr']!r} != {s2 * unit / n!r}"
            return None
        if criterion == "es-epsilon-optimal":
            u1 = self.unit(("es", "mean"), lambda: step_rule(0.0, 0.0, 1.0), 1)[1]
            eps2 = float(flags["--epsilon"]) ** 2
            if not _smallest_n(n, s2 * u1 * u1, eps2):
                return f"n_es {n} is not the smallest n with worst mean regret <= epsilon"
            es_msr = s2 * u_es / n
            if not close(plan["achieved_worst_msr"], es_msr, 0.0, 1e-8):
                return f"es worst msr {plan['achieved_worst_msr']!r} != {es_msr!r}"
            unit = self._plan_unit(flags["--rule"], tau_star, alpha)
            comp = plan["es_comparison"]
            if not close(comp["ratio"], u_es / unit, 0.0, 1e-8):
                return f"ratio {comp['ratio']!r} != reference {u_es / unit!r}"
            if flags["--rule"] == "es" and comp["n_rule"] != n:
                return f"n_rule {comp['n_rule']} of the plug-in rule itself != n_es {n}"
            if not _smallest_n(comp["n_rule"], s2 * unit, es_msr):
                return f"n_rule {comp['n_rule']} does not match the plug-in design's MSR"
            return None
        tau_alt = float(flags["--tau"])
        beta = float(flags["--beta"])
        shift = float(special.ndtri(1.0 - alpha) - special.ndtri(1.0 - beta))
        n_real = s2 / tau_alt**2 * shift * shift
        if not (n >= n_real * (1 - 1e-12) and (n == 1 or n - 1 < n_real * (1 + 1e-12))):
            return f"n_ht {n} is not ceil({n_real!r})"
        u_ht = self._plan_unit("ht", alpha=alpha)
        u_mm = self._plan_unit("minimax", tau_star)
        comp = plan["ht_comparison"]
        if not close(comp["msr_ratio"], u_mm / u_ht, 0.0, 1e-8):
            return f"msr_ratio {comp['msr_ratio']!r} != reference {u_mm / u_ht!r}"
        if not _smallest_n(comp["n_minimax"], s2 * u_mm, s2 * u_ht / n):
            return f"n_minimax {comp['n_minimax']} does not match the test design's MSR"
        return None

    def _dominate(self, flags, payload):
        t = float(flags["--t"])
        tau_bar = float(flags["--tau-bar"])
        alpha_g = float(flags["--alpha-g"])
        shrink = float(flags["--shrink"])
        sd = float(flags.get("--sigma", 1.0)) / math.sqrt(int(flags.get("--n", 1)))
        step = float(flags.get("--grid-step", 0.01))
        cert = payload["certificate"]
        m = min(float(cdf((t - tau_bar) / sd)), 1.0 - float(cdf((t + tau_bar) / sd)))
        q = (m / (1.0 - m)) ** (1.0 / (alpha_g - 1.0))
        lam = shrink * q / (1.0 + q)
        if not close(cert["lambda_used"], lam, 1e-15, 1e-10):
            return f"lambda_used {cert['lambda_used']!r} != reference {lam!r}"
        if not close(payload["rule"]["lam"], lam, 1e-15, 1e-10) or payload["rule"]["base"]["t"] != t:
            return "dominating rule differs from the reference construction"
        rows = np.asarray(cert["grid"], dtype=float)
        count = int(round(2.0 * tau_bar / step)) + 1
        if rows.shape != (count, 4):
            return f"grid shape {rows.shape}, expected ({count}, 4)"
        taus = rows[:, 0]
        if not np.allclose(taus, -tau_bar + step * np.arange(count), rtol=0, atol=1e-12):
            return "grid effects are not the requested grid"
        below = cdf((t - taus) / sd)
        wrong = np.where(taus > 0, below, 1.0 - below)
        mag = np.abs(taus) ** alpha_g
        single = mag * wrong
        frac = mag * ((1.0 - lam) ** alpha_g * wrong + lam**alpha_g * (1.0 - wrong))
        for col, want in ((1, single), (2, frac), (3, single - frac)):
            if not np.allclose(rows[:, col], want, rtol=1e-9, atol=1e-14):
                return f"grid column {col} differs from the recomputed risks"
        if (rows[taus != 0.0, 3] <= 0.0).any():
            return "a margin off zero is not positive"
        return None

    def _cli_simulate(self, flags, payload):
        sd = float(flags["--sigma"]) / math.sqrt(int(flags["--n"]))
        tau = float(flags["--tau"])
        rule = token_rule(flags["--rule"], float(flags.get("--tau-star", TAU_STAR)), sd)
        summary = payload["summary"]
        if summary["replications"] != int(flags["--reps"]) or summary["seed"] != int(flags["--seed"]):
            return "replications or seed not echoed"
        return self._simulated(rule, tau, sd, summary, [float(flags["--tail"])])

    def _figure1(self, flags, payload):
        sd = float(flags["--sigma"]) / math.sqrt(int(flags["--n"]))
        tau = float(flags["--tau"])
        tails = payload["tail_thresholds"]
        if tails != [0.95]:
            return f"default tail thresholds {tails!r}, expected [0.95]"
        for name, rule in (("es", step_rule(0.0, 0.0, 1.0)),
                           ("minimax", logistic_rule(TAU_STAR, sd))):
            why = self._exact(rule, tau, sd, payload[name]["exact"], tails)
            why = why or self._simulated(rule, tau, sd, payload[name]["simulated"], tails)
            if why:
                return f"{name}: {why}"
        return None

    def _table1(self, flags, text):
        tau_star = float(flags.get("--tau-star", TAU_STAR))
        lines = text.strip().split("\n")
        if lines[0] != "ybar,minimax,bayes,posterior_match,es":
            return f"table1 header {lines[0]!r}"
        ybar = [0.0, 0.2533, 0.5244, 0.8416, 1.2816, 1.6449, 2.3263]
        if len(lines) != len(ybar) + 1:
            return f"table1 has {len(lines) - 1} rows"
        for y, line in zip(ybar, lines[1:]):
            cells = [float(c) for c in line.split(",")]
            want = [y, float(logistic(2.0 * tau_star * y)), float(bayes_flat_fraction(y)),
                    float(cdf(y)), 1.0 if y >= 0 else 0.0]
            for got, ref in zip(cells, want):
                if not close(got, ref, 1e-12, 1e-11):
                    return f"table1 row {y!r}: {got!r} != {ref!r}"
        return None

    def _regress(self, spec, flags, result):
        data = np.loadtxt(io.StringIO(regress_csv(spec["data"])), delimiter=",", skiprows=1,
                          ndmin=2)
        y, d, x = data[:, 0], data[:, 1], data[:, 2:]
        z = np.column_stack([d, x, np.ones(len(y))])
        coef, _, rank, _ = np.linalg.lstsq(z, y, rcond=None)
        if rank != z.shape[1]:
            return "reference design is rank deficient"
        resid = y - z @ coef
        n, k = z.shape
        sigma2 = float(resid @ resid) / (n - k if "--unbiased" in flags else n)
        se = math.sqrt(sigma2 * np.linalg.inv(z.T @ z)[0, 0])
        t_stat = float(coef[0]) / se
        tau_star = float(flags.get("--tau-star", TAU_STAR))
        want = {
            "tau_hat": float(coef[0]), "sigma2_hat": sigma2, "se_tau": se, "t_stat": t_stat,
            "delta_minimax": float(logistic(2.0 * tau_star * t_stat)),
            "delta_bayes": float(bayes_flat_fraction(t_stat)),
            "n_obs": n, "tau_star": tau_star,
        }
        for key, ref in want.items():
            if not close(result[key], ref, 1e-10, 1e-8):
                return f"{key} {result[key]!r} != reference {ref!r}"
        if not np.allclose(result["beta_hat"], coef[1:], rtol=1e-8, atol=1e-10):
            return "beta_hat differs from lstsq"
        return None


def _flags(args) -> dict:
    out = {}
    i = 0
    while i < len(args):
        if i + 1 < len(args) and not args[i + 1].startswith("--"):
            out[args[i]] = args[i + 1]
            i += 2
        else:
            out[args[i]] = True
            i += 1
    return out


def _smallest_n(n: int, numerator: float, target: float) -> bool:
    """numerator / n <= target < numerator / (n - 1), to rounding."""
    slack = 1e-12
    if n < 1 or numerator / n > target * (1 + slack):
        return False
    return n == 1 or numerator / (n - 1) > target * (1 - slack)
