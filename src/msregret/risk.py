"""Regret-risk functionals of treatment rules over Gaussian experiments.

The experiment observes a statistic Ybar ~ N(tau, sigma^2/n) with known sigma
and the untreated-arm mean normalized to zero.  Regret of a fraction d in a
state with effect tau is Reg = tau * (1{tau >= 0} - d), which is nonnegative;
welfare is W = tau * d.  The two differ by the constant tau * 1{tau >= 0}, so
the variance of regret equals the variance of welfare, and mean square regret
decomposes as (mean regret)^2 + variance of regret.  exact_risk computes the
regret moments and the welfare moments through separate integrals so that the
decomposition stays a genuine cross-check rather than an identity of the code.

exact_risk, tail_probability, simulate, and risk_curve feed the rule the raw
statistic Ybar.  worst_case_msr and worst_case_mean_regret treat the rule as a
map of the standardized statistic sqrt(n) * Ybar / sigma, solve the
sigma = n = 1 problem once, and scale the supremum by sigma^2/n (mean regret
scales by sigma/sqrt(n)); that is exactly how the worst case of a fixed rule
varies with the design.

tail_probability inverts the regret event: on a monotone rule, regret exceeds
a threshold on one side of the statistic where the fraction crosses a level
q.  Rules with a closed-form inverse (stat_at) give that point with no
search; the others are evaluated once, vectorized, on a fixed grid of the
standardized statistic, and a Brent root runs inside the one grid cell
where the crossing lies.

The unit-problem supremum comes from one certified scan and a refinement.
The scan evaluates the rule once on a uniform grid of the statistic and takes
the objective at every b = k/100 in [-8, 8] as a trapezoid sum against the
normal density, a discrete Gaussian correlation taken by FFT for each side
of b = 0.  Halving the grid step until two levels agree within
1e-10 gives the scan's error; a rule too steep to settle by step 0.01/64
raises ConvergenceError instead of returning an uncertified number.  Every
grid peak within that error of the best one, both peaks of a symmetric rule
for instance, is then refined by Brent's bounded search on exact_risk.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np
from scipy.special import ndtri

from ._codec import csv_text, record
from .numerics import (
    DEFAULT_QUADRATURE,
    ConvergenceError,
    DomainError,
    QuadratureSpec,
    RngSeed,
    find_root,
    gaussian_expectation,
    maximize_scalar,
    scan_brackets,
    std_normal_cdf,
    _HALF_WIDTH,
    _SQRT2PI,
)
from .rules import DiscretePrior, TreatmentRule

__all__ = [
    "GaussianExperiment",
    "RiskReport",
    "SimulationSummary",
    "WorstCase",
    "regret",
    "exact_risk",
    "tail_probability",
    "worst_case_msr",
    "worst_case_mean_regret",
    "bayes_msr",
    "simulate",
    "risk_curve",
    "risk_curve_csv",
]

# worst-case scan setup: every regret objective vanishes at 0 and decays like
# a Gaussian tail past |b| = 8 on the standardized scale
_SCAN_LIMIT = 8.0
_SCAN_DIV = 100  # scan grid points per unit of b
_SCAN_STEP = 1.0 / _SCAN_DIV
_SCAN_MAX_LEVEL = 64  # finest s-grid step is _SCAN_STEP / 64
# FFT rounding on the unit curves; measured at most 5e-14 with the b^2 factor
_SCAN_ROUNDING = 1e-12
# tail_probability's crossing search: the standardized statistic in [-60, 60]
# at step 1/4; one vectorized rule evaluation, then Brent inside one cell
_TAIL_GRID = np.arange(-240, 241) / 4.0
_CHUNK = 1 << 16  # fixed substream width; not a parallelism knob
_SIM_BLOCK = 8192  # simulate's draw and evaluation block, 64 KB of floats


@dataclass(frozen=True)
class GaussianExperiment:
    """Statistic distribution Ybar ~ N(tau, sigma^2/n) with known sigma."""

    tau: float
    sigma: float
    n: int

    def __post_init__(self) -> None:
        if not self.sigma > 0:
            raise DomainError(f"sigma must be positive, got {self.sigma}")
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 1):
            raise DomainError(f"n must be an integer >= 1, got {self.n}")

    @property
    def stat_sd(self) -> float:
        return self.sigma / math.sqrt(self.n)


@record
@dataclass(frozen=True)
class RiskReport:
    """Exact risk functionals of one (rule, experiment) pair."""

    mean_regret: float
    regret_variance: float
    mean_square_regret: float
    welfare_mean: float
    welfare_sd: float
    tail: Tuple[Tuple[float, float], ...] = ()

    @property
    def regret_sd(self) -> float:
        return math.sqrt(self.regret_variance)


@record
@dataclass(frozen=True)
class SimulationSummary:
    """Empirical analogues of the RiskReport fields with standard errors.

    Standard errors are sample sd / sqrt(replications); the sd entries carry
    delta-method errors, and tail rows are (threshold, probability, se).
    """

    replications: int
    seed: RngSeed
    mean_regret: float
    regret_variance: float
    mean_square_regret: float
    welfare_mean: float
    welfare_sd: float
    se_mean_regret: float
    se_mean_square_regret: float
    se_regret_sd: float
    se_welfare_mean: float
    se_welfare_sd: float
    tail: Tuple[Tuple[float, float, float], ...] = ()

    @property
    def regret_sd(self) -> float:
        return math.sqrt(self.regret_variance)


class WorstCase(NamedTuple):
    sup: float
    argsup_tau: float
    saturated: bool


def regret(rule_output: float, tau: float) -> float:
    """Welfare gap to the oracle action: tau * (1{tau >= 0} - rule_output) >= 0."""
    ind = 1.0 if tau >= 0 else 0.0
    return tau * (ind - rule_output)


def exact_risk(
    rule: TreatmentRule,
    exp: GaussianExperiment,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
    tail_thresholds: Sequence[float] = (),
) -> RiskReport:
    """Risk report for one rule at one state.

    Regret moments come from integrating Reg and Reg^2; welfare moments from
    integrating the fraction f and (f - c)^2 with c = f(tau), so the variance
    E[(f-c)^2] - (E f - c)^2 does not cancel when the statistic is sharp.  The
    four integrands share one quadrature, evaluating the rule once per node.
    Piecewise-constant rules skip quadrature in favor of the exact two-outcome
    sums.  Tail entries are computed by tail_probability for each threshold.
    """
    tau = exp.tau
    sd = exp.stat_sd
    ind = 1.0 if tau >= 0 else 0.0
    step = rule.step

    if tau == 0.0:
        m1 = m2 = 0.0
        w_mean = 0.0
        w_var = 0.0
    elif step is not None:
        cut, vlo, vhi = step
        # each side from its own tail, so p_lo * p_hi keeps its relative accuracy
        p_lo = float(std_normal_cdf((cut - tau) / sd))
        p_hi = float(std_normal_cdf((tau - cut) / sd))
        m1 = tau * (ind - vlo) * p_lo + tau * (ind - vhi) * p_hi
        m2 = (tau * (ind - vlo)) ** 2 * p_lo + (tau * (ind - vhi)) ** 2 * p_hi
        w_mean = tau * (vlo * p_lo + vhi * p_hi)
        w_var = tau * tau * p_lo * p_hi * (vhi - vlo) ** 2
    else:
        center = []

        def moments(y: np.ndarray) -> np.ndarray:
            frac = np.asarray(rule.evaluate(y), dtype=float)
            if not center:
                # c = f(tau) off the first level, whose middle node is tau for an
                # even node_count; any constant c keeps the identity exact
                center.append(float(frac[np.argmin(np.abs(y - tau))]))
            dev = frac - center[0]
            reg = tau * (ind - frac)
            return np.stack([frac, dev * dev, reg, reg * reg])

        e_frac, e_dev2, m1, m2 = gaussian_expectation(moments, tau, sd, spec).tolist()
        shift = e_frac - center[0]
        w_mean = tau * e_frac
        w_var = max(tau * tau * (e_dev2 - shift * shift), 0.0)

    tail = tuple(
        (float(c), tail_probability(rule, exp, float(c))) for c in tail_thresholds
    )
    return RiskReport(
        mean_regret=m1,
        regret_variance=w_var,
        mean_square_regret=m2,
        welfare_mean=w_mean,
        welfare_sd=math.sqrt(w_var),
        tail=tail,
    )


def tail_probability(
    rule: TreatmentRule, exp: GaussianExperiment, threshold: float
) -> float:
    """P(Reg > threshold) under the experiment, by exact inversion.

    Step rules give a two-outcome sum.  On a rule monotone in the statistic,
    regret exceeds the threshold exactly where the fraction falls below
    q = 1 - threshold/tau (tau > 0) or rises above q = threshold/|tau|
    (tau < 0), which is one side of the point where the fraction crosses q,
    so the result is a single normal CDF value.  A rule with a closed-form
    inverse (rule.stat_at) gives that point directly.  Any other rule is
    evaluated once, vectorized, on the standardized statistic at the 481
    nodes k/4 of [-60, 60], and a Brent root runs only inside the first cell
    where the sign flips.  A crossing outside [-60, 60] gives 0 or 1.
    Raises DomainError for a negative or NaN threshold, for a non-finite
    rule value, and for a rule that declares neither a step form nor a
    direction.
    """
    if not threshold >= 0:
        raise DomainError(f"threshold must be >= 0, got {threshold}")
    tau = exp.tau
    sd = exp.stat_sd
    if tau == 0.0:
        return 0.0
    ind = 1.0 if tau >= 0 else 0.0

    step = rule.step
    if step is not None:
        cut, vlo, vhi = step
        p_hi = 1.0 - float(std_normal_cdf((cut - tau) / sd))
        out = 0.0
        if tau * (ind - vlo) > threshold:
            out += 1.0 - p_hi
        if tau * (ind - vhi) > threshold:
            out += p_hi
        return out

    direction = rule.direction
    if direction is None:
        raise DomainError(
            f"{type(rule).__name__} declares neither a step form nor a direction, "
            "so its tail probability has no exact inversion"
        )
    if tau > 0:
        q = 1.0 - threshold / tau
        if q <= 0.0:
            return 0.0
    else:
        q = threshold / -tau
        if q >= 1.0:
            return 0.0
    # the event is {direction * (f - q) < 0} when tau and direction agree in
    # sign, else {direction * (f - q) > 0}
    sign = direction if tau > 0 else -direction
    y_cross = rule.stat_at(q)
    if y_cross is not None:
        return float(std_normal_cdf(sign * (y_cross - tau) / sd))

    rising = direction * (np.asarray(rule.evaluate(tau + sd * _TAIL_GRID), dtype=float) - q)
    if not np.all(np.isfinite(rising)):
        raise DomainError(f"{rule!r} is not finite on [tau - 60 sd, tau + 60 sd]")
    if rising[0] >= 0.0:
        z_cross = -math.inf
    elif rising[-1] <= 0.0:
        z_cross = math.inf
    else:
        i = int(np.argmax(rising >= 0.0))
        # the grid already holds f at both ends of the cell
        z_cross = find_root(
            lambda z: direction * (float(rule.evaluate(tau + sd * z)) - q),
            _TAIL_GRID[i - 1],
            _TAIL_GRID[i],
            f_lo=rising[i - 1],
            f_hi=rising[i],
        )
    return float(std_normal_cdf(sign * z_cross))


def _unit_curve(rule: TreatmentRule, power: int) -> Tuple[np.ndarray, np.ndarray, float]:
    """Unit-problem objective on the scan grid b = k / 100, |b| <= 8, with its error.

    power 1: b * E[1{b>=0} - frac(s)]; power 2: b^2 * E[(1{b>=0} - frac(s))^2],
    with s ~ N(b, 1).  Step rules take the exact two-outcome sums, error 0.
    Otherwise the rule is evaluated once on the uniform s-grid of step
    h = 0.01 / m over [-18, 18], so the b-grid is every m-th node, and each
    expectation is the trapezoid sum of h phi(s - b) over z = s - b in
    [-10, 10]: a discrete Gaussian correlation, taken for the whole grid by
    one FFT of the b >= 0 integrand (1 - frac)^power and one of the b < 0
    integrand frac^power.  m doubles, reusing every node, until two levels
    agree within DEFAULT_QUADRATURE.fallback_abs_tol; that gap is the error.
    Raises ConvergenceError on a non-finite value and when the levels still
    differ at m = 64.
    """
    n_b = round(_SCAN_LIMIT * _SCAN_DIV)
    b = np.arange(-n_b, n_b + 1) / _SCAN_DIV
    upper = b >= 0.0
    step = rule.step
    if step is not None:
        cut, vlo, vhi = step
        ind = upper.astype(float)
        p_hi = 1.0 - np.asarray(std_normal_cdf(cut - b), dtype=float)
        dlo = ind - vlo
        dhi = ind - vhi
        if power == 1:
            return b, b * (dlo * (1.0 - p_hi) + dhi * p_hi), 0.0
        return b, b * b * (dlo * dlo * (1.0 - p_hi) + dhi * dhi * p_hi), 0.0

    n_z = round(_HALF_WIDTH * _SCAN_DIV)
    scale = np.abs(b) ** power
    tol = DEFAULT_QUADRATURE.fallback_abs_tol
    frac = previous = None
    m = 1
    while True:
        s = np.arange(-(n_b + n_z) * m, (n_b + n_z) * m + 1) / (_SCAN_DIV * m)
        if frac is None:
            frac = np.asarray(rule.evaluate(s), dtype=float)
        else:
            finer = np.empty(s.size)
            finer[::2] = frac
            finer[1::2] = rule.evaluate(s[1::2])
            frac = finer
        z = np.arange(-n_z * m, n_z * m + 1) / (_SCAN_DIV * m)
        w = np.exp(-0.5 * z * z) / (_SQRT2PI * _SCAN_DIV * m)
        w[[0, -1]] *= 0.5
        rows = np.stack([1.0 - frac, frac]) ** power
        size = 1 << (s.size - 1).bit_length()
        corr = np.fft.irfft(np.fft.rfft(rows, size) * np.fft.rfft(w, size).conj(), size)
        # correlation index j * m is b = b[j]: the window z starts at s[j * m]
        corr = corr[:, : 2 * n_b * m + 1 : m]
        vals = scale * np.where(upper, corr[0], corr[1])
        if not np.all(np.isfinite(vals)):
            raise ConvergenceError(f"worst-case scan of {rule!r} is not finite")
        if previous is not None:
            gap = float(np.max(np.abs(vals - previous)))
            if gap <= tol:
                return b, vals, gap
            if m == _SCAN_MAX_LEVEL:
                raise ConvergenceError(
                    f"worst-case scan of {rule!r} not certified: levels still differ "
                    f"by {gap!r} at s-step {_SCAN_STEP / m!r}"
                )
        previous = vals
        m *= 2


def _unit_objective(rule: TreatmentRule, power: int, spec: QuadratureSpec):
    def obj(b: float) -> float:
        report = exact_risk(rule, GaussianExperiment(float(b), 1.0, 1), spec)
        return report.mean_regret if power == 1 else report.mean_square_regret

    return obj


@lru_cache(maxsize=128)
def _unit_worst(rule: TreatmentRule, power: int) -> Tuple[float, float, bool]:
    """Supremum of the unit-problem objective over b in [-8, 8].

    The certified scan curve of _unit_curve picks the candidates: every grid
    local maximum within the curve's error plus the FFT rounding floor (1e-12)
    of the best grid value, so both peaks of a symmetric rule are kept.  Each
    candidate is refined by the bounded Brent search of exact_risk between its
    grid neighbours, and the largest refined value wins; candidates go in
    increasing b, so an exact tie goes to the smaller argsup.  saturated flags
    an argsup within two grid steps of the scan edge.
    """
    grid, vals, err = _unit_curve(rule, power)
    obj = _unit_objective(rule, power, DEFAULT_QUADRATURE)
    refined = [
        maximize_scalar(obj, lo, hi, tol=1e-10)
        for lo, hi in scan_brackets(grid, vals, err + _SCAN_ROUNDING)
    ]
    arg, val = max(refined, key=lambda r: r[1])
    saturated = abs(arg) >= _SCAN_LIMIT - 2 * _SCAN_STEP
    return arg, val, saturated


def worst_case_msr(rule: TreatmentRule, sigma: float, n: int) -> WorstCase:
    """sup over tau of the mean square regret of a rule applied to the
    standardized statistic; equals (sigma^2/n) times the unit-problem value,
    attained at argsup_tau = (sigma/sqrt(n)) times the unit argsup.

    saturated flags a supremum that sat on the scan bracket edge (degenerate
    rules whose risk grows along one tail).  Raises ConvergenceError when the
    scan cannot be certified (see _unit_curve).
    """
    exp = GaussianExperiment(0.0, sigma, n)
    arg, val, saturated = _unit_worst(rule, 2)
    scale = exp.stat_sd
    return WorstCase(sup=val * scale * scale, argsup_tau=arg * scale, saturated=saturated)


def worst_case_mean_regret(rule: TreatmentRule, sigma: float, n: int) -> WorstCase:
    """sup over tau of mean regret on the standardized scale; scales by
    sigma/sqrt(n)."""
    exp = GaussianExperiment(0.0, sigma, n)
    arg, val, saturated = _unit_worst(rule, 1)
    scale = exp.stat_sd
    return WorstCase(sup=val * scale, argsup_tau=arg * scale, saturated=saturated)


def bayes_msr(
    rule: TreatmentRule,
    prior: DiscretePrior,
    sigma: float,
    n: int,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float:
    """Prior-weighted mean square regret, sum_i w_i * MSR(rule, tau_i)."""
    total = 0.0
    for tau, w in prior.support:
        report = exact_risk(rule, GaussianExperiment(tau, sigma, n), spec)
        total += w * report.mean_square_regret
    return total


@lru_cache(maxsize=1)
def _normal_draws(seed: RngSeed, count: int) -> np.ndarray:
    """count standard normals, bit-reproducible and order-independent.

    Draw r comes from the r-th 64-bit word of a Philox stream whose counter
    is initialized to the fixed-width chunk index holding r, mapped through
    the inverse normal CDF.  The chunk width is an implementation constant,
    so the draws do not depend on how work is batched or parallelized.  The
    last call's draws are kept, read-only, since figure1 simulates two rules
    from one seed.
    """
    out = np.empty(count, dtype=float)
    # a chunk's stream continues across random_raw calls, so it is mapped in
    # blocks of _SIM_BLOCK words (a divisor of _CHUNK) with small temporaries
    for lo in range(0, count, _SIM_BLOCK):
        if lo % _CHUNK == 0:
            gen = np.random.Philox(key=seed.seed, counter=[0, 0, 0, lo // _CHUNK])
        hi = min(lo + _SIM_BLOCK, count)
        u = (gen.random_raw(hi - lo) >> np.uint64(11)).astype(np.float64)
        u += 0.5
        u *= 2.0**-53
        ndtri(u, out=out[lo:hi])
    out.setflags(write=False)
    return out


def _totals(rows: list) -> list:
    """Column sums of per-block rows, added in block order starting from the
    first block's values, so one block gives numpy's sums bit for bit."""
    out = list(rows[0])
    for row in rows[1:]:
        out = [t + x for t, x in zip(out, row)]
    return out


def simulate(
    rule: TreatmentRule,
    exp: GaussianExperiment,
    replications: int,
    seed: RngSeed,
    tail_thresholds: Sequence[float] = (),
) -> SimulationSummary:
    """Monte Carlo analogue of exact_risk; deterministic given the seed.

    The draws are mapped, and the rule and the regret evaluated, in blocks of
    at most 8192 draws: 64 KB temporaries stay under glibc's initial 128 KB
    mmap threshold, and only the blocks of fractions live across the passes
    over them, so a call works in reused heap memory instead of faulting in
    fresh pages, whatever the process freed before.  The moments are
    two-pass (block sums, then squared deviations from the means); up to 8192
    replications they are numpy's mean, var and std bit for bit.
    """
    if replications < 2:
        raise DomainError(f"need at least 2 replications, got {replications}")
    tau = exp.tau
    ind = 1.0 if tau >= 0 else 0.0
    draws = _normal_draws(seed, replications)
    fracs = [
        np.asarray(rule.evaluate(tau + exp.stat_sd * draws[i : i + _SIM_BLOCK]), dtype=float)
        for i in range(0, replications, _SIM_BLOCK)
    ]
    r = float(replications)

    def regret(f: np.ndarray) -> np.ndarray:
        out = ind - f
        out *= tau
        return out

    def spread(block: np.ndarray, mean) -> np.ndarray:
        # squared deviations, in place
        block -= mean
        block *= block
        return block

    # only the fractions are kept across the passes; every other block is
    # recomputed from them, so a call holds a few blocks at once
    counts = [0] * len(tail_thresholds)
    sums = []
    for f in fracs:
        reg = regret(f)
        counts = [n + int(np.count_nonzero(reg > c)) for n, c in zip(counts, tail_thresholds)]
        sums.append((reg.sum(), (reg * reg).sum(), (tau * f).sum()))
    s_reg, s_reg2, s_w = _totals(sums)
    mean_reg, msr, w_mean = s_reg / replications, s_reg2 / replications, s_w / replications
    sums = []
    for f in fracs:
        reg = regret(f)
        reg2 = spread(reg * reg, msr)
        sums.append((spread(reg, mean_reg).sum(), reg2.sum(), spread(tau * f, w_mean).sum()))
    m2_reg, m2_reg2, m2_w = _totals(sums)
    # the squared regret deviations have mean m2_reg / n; a third pass takes
    # their spread
    mean_c2 = m2_reg / replications
    (m2_c2,) = _totals([(spread(spread(regret(f), mean_reg), mean_c2).sum(),) for f in fracs])

    mean_reg, msr, w_mean = float(mean_reg), float(msr), float(w_mean)
    var_reg = float(m2_reg / (replications - 1))
    sd_reg = math.sqrt(var_reg)
    w_sd = math.sqrt(float(m2_w / (replications - 1)))
    se_mean = sd_reg / math.sqrt(r)
    se_msr = math.sqrt(float(m2_reg2 / (replications - 1))) / math.sqrt(r)
    # delta method for the sd: se(s) = se(s^2) / (2 s)
    se_var = math.sqrt(float(m2_c2 / (replications - 1))) / math.sqrt(r)
    se_sd = se_var / (2.0 * sd_reg) if sd_reg > 0 else 0.0
    tail = [
        (float(c), n / r, math.sqrt((n / r) * (1.0 - n / r) / r))
        for c, n in zip(tail_thresholds, counts)
    ]

    return SimulationSummary(
        replications=replications,
        seed=seed,
        mean_regret=mean_reg,
        regret_variance=var_reg,
        mean_square_regret=msr,
        welfare_mean=w_mean,
        welfare_sd=w_sd,
        se_mean_regret=se_mean,
        se_mean_square_regret=se_msr,
        se_regret_sd=se_sd,
        se_welfare_mean=se_mean,  # welfare and regret differ by a constant
        se_welfare_sd=se_sd,
        tail=tuple(tail),
    )


def risk_curve(
    rule: TreatmentRule,
    tau_grid: Sequence[float],
    sigma: float,
    n: int,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> List[Tuple[float, RiskReport]]:
    """exact_risk along a grid of effects, for the curve emitters."""
    return [
        (float(tau), exact_risk(rule, GaussianExperiment(float(tau), sigma, n), spec))
        for tau in tau_grid
    ]


def risk_curve_csv(curve: Sequence[Tuple[float, RiskReport]]) -> str:
    """CSV rendering with header tau,mean_regret,regret_sd,msr,welfare_mean,welfare_sd."""
    rows = (
        (tau, r.mean_regret, r.regret_sd, r.mean_square_regret, r.welfare_mean, r.welfare_sd)
        for tau, r in curve
    )
    return csv_text("tau,mean_regret,regret_sd,msr,welfare_mean,welfare_sd", rows)
