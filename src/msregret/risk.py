"""Regret-risk functionals of treatment rules over Gaussian experiments.

The experiment observes a statistic Ybar ~ N(tau, sigma^2/n) with known sigma
and the untreated-arm mean normalized to zero.  Regret of a fraction d in a
state with effect tau is Reg = tau * (1{tau >= 0} - d), which is nonnegative;
welfare is W = tau * d.  The two differ by the constant tau * 1{tau >= 0}, so
the variance of regret equals the variance of welfare, and mean square regret
decomposes as (mean regret)^2 + variance of regret.  exact_risk's moments are
rows of one linear trapezoid sum, so that holds to rounding by identity, not
as a cross-check; the kernel stops only once each row's level gap settles.

exact_risk, tail_probability, simulate, and risk_curve feed the rule the raw
statistic Ybar.  worst_case_msr and worst_case_mean_regret treat the rule as a
map of the standardized statistic sqrt(n) * Ybar / sigma, solve the
sigma = n = 1 problem once, and scale the supremum by sigma^2/n (mean regret
scales by sigma/sqrt(n)); that is exactly how the worst case of a fixed rule
varies with the design.

exact_risk's one moment body (_moments) also takes an array of effects, so
risk_curve, bayes_msr and verify_saddle give exact_risk's bits; a moment
that overflows (|tau| past about 1.3e154) is refused with DomainError.
A step rule's moments, tails and scan curve come from its two outcomes
(_step_outcomes), each probability from its own normal tail, never 1 - p.

tail_probability inverts the regret event: on a monotone rule, regret exceeds
a threshold on one side of the statistic where the fraction crosses a level
q.  The rule gives that point itself (stat_at): the logistic and
posterior-matching rules in closed form, the flat-prior and discrete-prior
Bayes rules by their own Newton searches, each certified against the rule's
computed fraction, and complement mixtures through their base.  A rule with
a direction but no inverse of its own is refused.

The unit-problem supremum comes from one certified scan and a refinement.
The scan evaluates the rule once on a uniform grid of the statistic and takes
the objective at every b = k/100 in [-8, 8] as a trapezoid sum against the
normal density, a discrete Gaussian correlation taken by FFT for each side
of b = 0.  Halving the grid step until two levels agree within
1e-10 gives the scan's error; a rule too steep to settle by step 0.01/64
raises ConvergenceError instead of returning an uncertified number.  Every
grid peak within that error of the best one, both peaks of a symmetric rule
for instance, is then refined on exact_risk by numerics.scan_maximum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from ._codec import csv_text, record
from .numerics import (
    ConvergenceError,
    DomainError,
    RngSeed,
    gaussian_expectation,
    ndtri,
    scan_maximum,
    std_normal_cdf,
    _HALF_WIDTH,
    _INTERVALS,
    _LEVEL_GAP,
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
_CHUNK = 1 << 16  # fixed substream width; not a parallelism knob
_SIM_BLOCK = 8192  # simulate's draw block: 64 KB of draws, 192 KB of rows
_RISK_BLOCK = 32  # effects per quadrature in _curve_moments
_FIELDS = ("mean_regret", "regret_variance", "mean_square_regret", "welfare_mean")
_SIM_FIELDS = ("mean_regret", "mean_square_regret", "welfare_mean", "regret_variance",
               "welfare_sd", "se_mean_regret", "se_mean_square_regret", "se_regret_sd")


@dataclass(frozen=True)
class GaussianExperiment:
    """Statistic distribution Ybar ~ N(tau, sigma^2/n) with known sigma; a
    numpy integer n is held as an int."""

    tau: float
    sigma: float
    n: int

    def __post_init__(self) -> None:
        if not math.isfinite(self.tau):
            raise DomainError(f"tau must be finite, got {self.tau}")
        if not (self.sigma > 0 and math.isfinite(self.sigma)):
            raise DomainError(f"sigma must be positive and finite, got {self.sigma}")
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 1):
            raise DomainError(f"n must be an integer >= 1, got {self.n}")
        if type(self.n) is not int:
            object.__setattr__(self, "n", int(self.n))
        try:
            sd = self.stat_sd
        except OverflowError:  # math.sqrt converts n to a float first
            raise DomainError(f"n must be at most the float maximum, got "
                              f"{self.n.bit_length()} bits") from None
        if not sd > 0.0:
            raise DomainError(f"sigma / sqrt(n) underflows to 0 at sigma = {self.sigma!r}, "
                              f"n = {self.n!r}")

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


def regret(rule_output, tau):
    """Welfare gap to the oracle action: tau * (1{tau >= 0} - rule_output) >= 0,
    at a float tau or elementwise over an array of them."""
    return tau * (1.0 * (tau >= 0) - rule_output)


def _step_outcomes(step: Tuple[float, float, float], tau, sd: float):
    """The step form's (regret, probability) pairs below the cutoff and at or
    above it, at a float or an array tau; each probability comes from its own
    normal tail, so neither is lost where the other rounds to 1."""
    cut, lo, hi = step
    return (
        (regret(lo, tau), std_normal_cdf((cut - tau) / sd)),
        (regret(hi, tau), std_normal_cdf((tau - cut) / sd)),
    )


def _moments(rule: TreatmentRule, tau: float | np.ndarray, sd: float) -> tuple:
    """Mean regret, mean square regret, welfare mean and welfare variance
    (unclamped) at a float tau, exact zeros at 0, or at each of a 1-D array
    of nonzero taus with the float's bits.

    A step rule takes its two outcomes' sums.  Otherwise the quadrature
    integrates Reg, Reg^2, f and (f - c)^2 with c = f(tau), so the variance
    E[(f-c)^2] - (E f - c)^2 does not cancel when the statistic is sharp,
    written into one (4, n) buffer per effect, the rule evaluated once per
    node; c is the rule's value at level 0's middle node, tau itself.
    """
    batched = isinstance(tau, np.ndarray)
    if not batched and tau == 0.0:
        return 0.0, 0.0, 0.0, 0.0
    step = rule.step
    if step is not None:
        _, vlo, vhi = step
        (r_lo, p_lo), (r_hi, p_hi) = _step_outcomes(step, tau, sd)
        return (
            r_lo * p_lo + r_hi * p_hi,
            r_lo * r_lo * p_lo + r_hi * r_hi * p_hi,
            tau * (vlo * p_lo + vhi * p_hi),
            tau * tau * p_lo * p_hi * (vhi - vlo) ** 2,
        )
    t = tau[:, None] if batched else tau
    ind = 1.0 * (t >= 0)
    center = []

    def moments(y: np.ndarray) -> np.ndarray:
        # (4, n) at a float tau, (k, 4, n) at k taus
        out = np.empty((y.shape[0], 4, y.shape[1]) if batched else (4, y.size))
        frac, dev2, reg, reg2 = out.swapaxes(0, 1) if batched else out
        frac[...] = rule.evaluate(y)
        if not center:
            # c = f(tau) at level 0's middle node, the first call's point
            # tau + sd * 0; any constant c keeps the identity exact
            mid = _INTERVALS // 2
            center.append(frac[:, mid, None] if batched else float(frac[mid]))
        np.subtract(frac, center[0], out=dev2)
        np.multiply(dev2, dev2, out=dev2)
        np.subtract(ind, frac, out=reg)
        np.multiply(t, reg, out=reg)
        np.multiply(reg, reg, out=reg2)
        return out

    sums = gaussian_expectation(moments, tau, sd)
    e_frac, e_dev2, m1, m2 = sums.T if batched else sums.tolist()
    shift = e_frac - (center[0][:, 0] if batched else center[0])
    return m1, m2, tau * e_frac, tau * tau * (e_dev2 - shift * shift)


def _curve_moments(rule: TreatmentRule, taus: np.ndarray, sd: float) -> np.ndarray:
    """_moments at every tau of a 1-D array, as (k, 4) rows: exact zeros at
    tau = 0, the other effects in blocks of 32, so the quadrature's memory
    does not grow with the grid."""
    rows = np.zeros((taus.size, 4))
    nonzero = np.flatnonzero(taus)
    for i in range(0, nonzero.size, _RISK_BLOCK):
        block = nonzero[i : i + _RISK_BLOCK]
        rows[block] = np.column_stack(_moments(rule, taus[block], sd))
    return rows


def _check_finite(tau: float, names: Sequence[str], values: Sequence[float]) -> None:
    """Raise DomainError naming the first of the fields that is not finite."""
    if not all(map(math.isfinite, values)):
        name, value = next(p for p in zip(names, values) if not math.isfinite(p[1]))
        raise DomainError(f"{name} is {value!r} at tau = {tau!r}: the moments overflow")


def _report(tau: float, m1: float, m2: float, w_mean: float, w_var: float, tail=()) -> RiskReport:
    """One effect's RiskReport, refusing a moment that is not finite."""
    w_var = max(w_var, 0.0)
    _check_finite(tau, _FIELDS, (m1, w_var, m2, w_mean))
    return RiskReport(m1, w_var, m2, w_mean, math.sqrt(w_var), tail)


def exact_risk(
    rule: TreatmentRule, exp: GaussianExperiment, tail_thresholds: Sequence[float] = ()
) -> RiskReport:
    """Risk report for one rule at one state: _moments, and tail_probability at
    each threshold; DomainError for a moment that is not finite."""
    moments = _moments(rule, exp.tau, exp.stat_sd)
    tail = tuple(
        (float(c), tail_probability(rule, exp, float(c))) for c in tail_thresholds
    )
    return _report(exp.tau, *moments, tail)


def tail_probability(
    rule: TreatmentRule, exp: GaussianExperiment, threshold: float
) -> float:
    """P(Reg > threshold) under the experiment, by exact inversion.

    Step rules sum the outcome probabilities, each from its own tail, whose
    regret exceeds the threshold.  On a rule monotone in the statistic,
    regret exceeds the threshold exactly where the fraction falls below
    q = 1 - threshold/tau (tau > 0) or rises above q = threshold/|tau|
    (tau < 0), which is one side of the point where the fraction crosses q,
    so the result is a single normal CDF value.  The rule gives that point
    (rule.stat_at: the logistic, posterior-matching, flat-prior and
    discrete-prior Bayes rules and their complement mixtures); a q the
    fraction never crosses gives 0 or 1.  Raises DomainError for a negative or NaN threshold, for a rule
    that declares neither a step form nor a direction, and for one that
    declares a direction but no inverse of its own (stat_at returns None);
    the inverse raises its own errors, DomainError where it cannot certify
    a crossing.
    """
    if not threshold >= 0:
        raise DomainError(f"threshold must be >= 0, got {threshold}")
    tau = exp.tau
    sd = exp.stat_sd
    if tau == 0.0:
        return 0.0

    step = rule.step
    if step is not None:
        return sum((p for r, p in _step_outcomes(step, tau, sd) if r > threshold), 0.0)

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
    if y_cross is None:
        raise DomainError(
            f"{rule!r} declares a direction but no inverse of its own (stat_at), "
            "so its tail probability has no exact inversion"
        )
    return float(std_normal_cdf(sign * (y_cross - tau) / sd))


def _unit_curve(rule: TreatmentRule, power: int) -> Tuple[np.ndarray, np.ndarray, float]:
    """Unit-problem objective on the scan grid b = k / 100, |b| <= 8, with its error.

    power 1: b * E[1{b>=0} - frac(s)]; power 2: b^2 * E[(1{b>=0} - frac(s))^2],
    with s ~ N(b, 1).  Step rules take exact_risk's moments at sd 1, error 0.
    Otherwise the rule is evaluated once on the uniform s-grid of step
    h = 0.01 / m over [-18, 18], so the b-grid is every m-th node, and each
    expectation is the trapezoid sum of h phi(s - b) over z = s - b in
    [-10, 10]: a discrete Gaussian correlation, taken for the whole grid by
    one FFT of the b >= 0 integrand (1 - frac)^power and one of the b < 0
    integrand frac^power.  m doubles, reusing every node, until two levels
    agree within the kernel's level gap, 1e-10; that gap is the error.
    Raises ConvergenceError on a non-finite value and when the levels still
    differ at m = 64.
    """
    n_b = round(_SCAN_LIMIT * _SCAN_DIV)
    b = np.arange(-n_b, n_b + 1) / _SCAN_DIV
    if rule.step is not None:
        # exact_risk's moments at sd 1, bit for bit, and 0.0 at b = 0
        return b, _moments(rule, b, 1.0)[power - 1], 0.0

    n_z = round(_HALF_WIDTH * _SCAN_DIV)
    upper = b >= 0.0
    scale = np.abs(b) ** power
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
            if gap <= _LEVEL_GAP:
                return b, vals, gap
            if m == _SCAN_MAX_LEVEL:
                raise ConvergenceError(
                    f"worst-case scan of {rule!r} not certified: levels still differ "
                    f"by {gap!r} at s-step {_SCAN_STEP / m!r}"
                )
        previous = vals
        m *= 2


@lru_cache(maxsize=128)
def _unit_worst(rule: TreatmentRule, power: int) -> Tuple[float, float, bool]:
    """Supremum of the unit-problem objective over b in [-8, 8].

    scan_maximum refines exact_risk's moment (_moments at sd 1) from the
    certified scan curve of _unit_curve, with the curve's error plus the FFT
    rounding floor (1e-12) as the scan's error, so both peaks of a symmetric
    rule compete.  saturated flags an argsup within two grid steps of the
    scan edge.
    """
    grid, vals, err = _unit_curve(rule, power)
    arg, val = scan_maximum(lambda b: _moments(rule, b, 1.0)[power - 1], grid, vals,
                            err + _SCAN_ROUNDING, 1e-10)
    saturated = abs(arg) >= _SCAN_LIMIT - 2 * _SCAN_STEP
    return arg, val, saturated


def worst_case_msr(rule: TreatmentRule, sigma: float, n: int) -> WorstCase:
    """sup over tau of the mean square regret of a rule applied to the
    standardized statistic; equals (sigma^2/n) times the unit-problem value,
    attained at argsup_tau = (sigma/sqrt(n)) times the unit argsup.

    saturated flags a supremum that sat on the scan bracket edge (degenerate
    rules whose risk grows along one tail).  Raises ConvergenceError when the
    scan cannot be certified (see _unit_curve), and DomainError when the
    scaled sup or argsup_tau is not finite.
    """
    scale = GaussianExperiment(0.0, sigma, n).stat_sd
    arg, val, saturated = _unit_worst(rule, 2)
    return _worst_case(val * scale * scale, arg * scale, saturated)


def worst_case_mean_regret(rule: TreatmentRule, sigma: float, n: int) -> WorstCase:
    """sup over tau of mean regret on the standardized scale; scales by
    sigma/sqrt(n), refused as worst_case_msr's is."""
    scale = GaussianExperiment(0.0, sigma, n).stat_sd
    arg, val, saturated = _unit_worst(rule, 1)
    return _worst_case(val * scale, arg * scale, saturated)


def _worst_case(sup: float, argsup_tau: float, saturated: bool) -> WorstCase:
    """A scaled worst case, refusing a sup or argsup_tau that overflowed."""
    _check_finite(argsup_tau, ("sup", "argsup_tau"), (sup, argsup_tau))
    return WorstCase(sup=sup, argsup_tau=argsup_tau, saturated=saturated)


def bayes_msr(rule: TreatmentRule, prior: DiscretePrior, sigma: float, n: int) -> float:
    """Prior-weighted mean square regret, sum_i w_i * MSR(rule, tau_i), the
    MSR taken along the support by risk_curve."""
    curve = risk_curve(rule, [tau for tau, _ in prior.support], sigma, n)
    total = 0.0
    for (_, w), (_, report) in zip(prior.support, curve):
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
    try:
        out = np.empty(count, dtype=float)
    except (ValueError, MemoryError) as exc:
        # numpy refuses a count too large to index, and the allocator one too
        # large to hold, before any draw is made
        raise DomainError(f"replications {count!r} cannot be held: {exc}") from None
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


def simulate(
    rule: TreatmentRule,
    exp: GaussianExperiment,
    replications: int,
    seed: RngSeed,
    tail_thresholds: Sequence[float] = (),
) -> SimulationSummary:
    """Monte Carlo analogue of exact_risk; deterministic given the seed.

    The draws are mapped, and the rule evaluated, in blocks of at most 8192
    draws.  Regret, squared regret and welfare are the three rows of one
    table, 24 bytes per replication (480 KB at 20,000), that every pass
    reads whole.  The moments are two-pass (sums, then squared deviations
    from the means), each row summed by 8192-column block and the block
    sums added in block order from the first block's; up to 8192
    replications they are numpy's mean, var and std bit for bit.  A field
    that is not finite (the squares of regrets past about 1.3e154 overflow)
    is refused with DomainError naming it, as exact_risk refuses a moment.
    Before any draw is made, a negative or NaN tail threshold is refused as
    tail_probability refuses it, and a replication count that is not an
    integer of at least 2, or that numpy cannot hold, with DomainError
    naming replications.
    """
    if not (isinstance(replications, (int, np.integer)) and replications >= 2):
        raise DomainError(f"replications must be an integer >= 2, got {replications!r}")
    tails = [float(c) for c in tail_thresholds]
    for c in tails:
        if not c >= 0:
            raise DomainError(f"threshold must be >= 0, got {c}")
    tau = exp.tau
    ind = 1.0 if tau >= 0 else 0.0
    draws = _normal_draws(seed, replications)
    table = np.empty((3, replications))
    reg, reg2, welfare = table
    for i in range(0, replications, _SIM_BLOCK):
        welfare[i : i + _SIM_BLOCK] = rule.evaluate(tau + exp.stat_sd * draws[i : i + _SIM_BLOCK])
    np.subtract(ind, welfare, out=reg)
    reg *= tau
    np.multiply(reg, reg, out=reg2)
    welfare *= tau
    r = float(replications)

    def block_sums(rows):
        # each block's sums along the last axis, added in block order from the first's
        return reduce(np.add, [rows[..., i : i + _SIM_BLOCK].sum(axis=-1)
                               for i in range(0, replications, _SIM_BLOCK)])

    counts = [int(np.count_nonzero(reg > c)) for c in tails]
    means = block_sums(table) / replications
    mean_reg, msr, w_mean = means.tolist()
    # refused here, before the spread passes would subtract inf from inf; with
    # these finite no later pass can: regret is nonnegative, so a deviation
    # from the mean is at most the larger of the two, and its square finite
    _check_finite(tau, _SIM_FIELDS[:3], (mean_reg, msr, w_mean))
    table -= means[:, None]
    table *= table
    m2_reg, m2_reg2, m2_w = block_sums(table)
    # the squared regret deviations, row 0 now, have mean m2_reg / n; a third
    # pass takes their spread
    reg -= m2_reg / replications
    reg *= reg
    m2_c2 = block_sums(reg)

    var_reg = float(m2_reg / (replications - 1))
    sd_reg = math.sqrt(var_reg)
    w_sd = math.sqrt(float(m2_w / (replications - 1)))
    se_mean = sd_reg / math.sqrt(r)
    se_msr = math.sqrt(float(m2_reg2 / (replications - 1))) / math.sqrt(r)
    # delta method for the sd: se(s) = se(s^2) / (2 s)
    se_var = math.sqrt(float(m2_c2 / (replications - 1))) / math.sqrt(r)
    se_sd = se_var / (2.0 * sd_reg) if sd_reg > 0 else 0.0
    _check_finite(tau, _SIM_FIELDS, (mean_reg, msr, w_mean, var_reg, w_sd, se_mean, se_msr, se_sd))
    tail = [(c, n / r, math.sqrt((n / r) * (1.0 - n / r) / r)) for c, n in zip(tails, counts)]

    return SimulationSummary(
        replications=int(replications),
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
    rule: TreatmentRule, tau_grid: Sequence[float], sigma: float, n: int
) -> List[Tuple[float, RiskReport]]:
    """exact_risk along a grid of effects, for the curve emitters, from the
    batched moments (_curve_moments): each report and refusal is
    exact_risk's."""
    taus = np.asarray(tau_grid, dtype=float).ravel()
    # exact_risk's refusals: a non-finite tau, then sigma and n
    bad = taus[~np.isfinite(taus)]
    sd = GaussianExperiment(bad[0] if bad.size else 0.0, sigma, n).stat_sd
    columns = _curve_moments(rule, taus, sd).T.tolist()
    return [(row[0], _report(*row)) for row in zip(taus.tolist(), *columns)]


def risk_curve_csv(curve: Sequence[Tuple[float, RiskReport]]) -> str:
    """CSV rendering with header tau,mean_regret,regret_sd,msr,welfare_mean,welfare_sd."""
    rows = (
        (tau, r.mean_regret, r.regret_sd, r.mean_square_regret, r.welfare_mean, r.welfare_sd)
        for tau, r in curve
    )
    return csv_text("tau,mean_regret,regret_sd,msr,welfare_mean,welfare_sd", rows)
