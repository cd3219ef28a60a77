"""Sample-size calculations built on worst-case regret risk.

All formulas reduce to the scaling of the unit problem: a rule applied to the
standardized statistic has worst-case mean square regret (sigma^2/n) * U_2 and
worst-case mean regret (sigma/sqrt(n)) * U_1, where U_1 and U_2 are the unit
suprema of the rule.  Sample sizes therefore take the form c * sigma^2 /
epsilon^2 with rule-specific constants, and comparisons between designs are
ratios of unit constants, independent of sigma and epsilon.

Three planning criteria are offered: hit a worst-case MSR target directly,
match the plug-in rule sized by the classical worst-case mean-regret
criterion, or match a one-sided hypothesis test sized by a power requirement.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

from ._codec import record
from .numerics import DomainError, std_normal_quantile
from .risk import worst_case_mean_regret, worst_case_msr
from .rules import EmpiricalSuccess, HypothesisTest, MinimaxMSR, TreatmentRule

__all__ = [
    "EsComparison",
    "HtComparison",
    "SampleSizePlan",
    "es_mean_regret_unit",
    "es_msr_unit",
    "minimax_msr_unit",
    "ht_msr_unit",
    "n_for_msr_target",
    "es_epsilon_optimal_n",
    "compare_vs_es",
    "ht_power_n",
    "compare_vs_ht",
    "plan_worst_msr",
    "plan_es_epsilon",
    "plan_ht_power",
]


def es_mean_regret_unit() -> float:
    """Unit-problem worst mean regret of the plug-in rule 1{Ybar >= 0}."""
    return _bounded_worst(worst_case_mean_regret, EmpiricalSuccess())


def es_msr_unit() -> float:
    """Unit-problem worst MSR of the plug-in rule."""
    return _bounded_worst(worst_case_msr, EmpiricalSuccess())


def minimax_msr_unit(tau_star: float) -> float:
    """Unit-problem worst MSR of the logistic minimax rule."""
    return _bounded_worst(worst_case_msr, MinimaxMSR(tau_star=tau_star))


def ht_msr_unit(alpha: float) -> float:
    """Unit-problem worst MSR of the one-sided size-alpha test rule."""
    return _bounded_worst(worst_case_msr, HypothesisTest(alpha=alpha))


def _bounded_worst(worst_case, rule: TreatmentRule) -> float:
    """Unit-problem sup of worst_case (worst_case_msr or
    worst_case_mean_regret) of a rule that plans and comparisons can use.

    Raises DomainError when the worst-case scan saturates: the supremum then
    sits on the scan edge and the rule's risk may grow without bound.
    """
    worst = worst_case(rule, 1.0, 1)
    if worst.saturated:
        raise DomainError(
            f"{worst_case.__name__} of {rule!r} is not bounded on the scan: its "
            f"supremum sits on the edge at tau={worst.argsup_tau!r}"
        )
    return worst.sup


def _least_n(real: float, fits) -> int:
    """Smallest n >= 1 with fits(n), for a fits that holds from some n on.

    Starts at the ceiling of the real solution, so floating-point noise in
    real can make the answer neither one too large nor one too small.  While
    n - 1 fits it searches down, while n does not it searches up, each by
    strides doubling from one and then bisecting, so an answer d away from
    the ceiling costs about 2 log2(d) calls: above 2**53 many consecutive
    integers give fits the same float.  Within one of the ceiling the calls
    are those of stepping one integer at a time.  Raises DomainError for a
    real solution that is not finite: the sample size overflows a float.
    """
    if not math.isfinite(real):
        raise DomainError(f"the sample size is not representable: its real solution is {real!r}")
    n = max(int(math.ceil(real)), 1)
    if n > 1 and fits(n - 1):
        # fits(hi); the least n is hi or below
        hi, stride = n - 1, 1
        while hi > 1:
            probe = max(hi - stride, 1)
            if not fits(probe):
                n = _bisect(probe, hi, fits)
                break
            hi, stride = probe, 2 * stride
        else:
            n = 1
    if not fits(n):
        lo, stride = n, 1
        while not fits(lo + stride):
            lo, stride = lo + stride, 2 * stride
        n = _bisect(lo, lo + stride, fits)
    return n


def _bisect(lo: int, hi: int, fits) -> int:
    """Smallest n in (lo, hi] with fits(n), given fits(hi) and not fits(lo)."""
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fits(mid):
            hi = mid
        else:
            lo = mid
    return hi


def n_for_msr_target(sigma: float, epsilon: float, unit: float) -> int:
    """Smallest n >= 1 with (sigma^2/n) * unit <= epsilon^2."""
    if not sigma > 0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    if not epsilon > 0:
        raise DomainError(f"epsilon must be positive, got {epsilon}")
    if not unit > 0:
        raise DomainError(f"unit constant must be positive, got {unit}")
    target = epsilon * epsilon
    if target < sys.float_info.min:
        raise DomainError(f"epsilon^2 underflows at epsilon = {epsilon!r}")
    return _least_n(sigma * sigma * unit / target, lambda n: sigma * sigma * unit / n <= target)


def es_epsilon_optimal_n(sigma: float, epsilon: float) -> int:
    """Classical plug-in sample size: worst mean regret at most epsilon.

    (sigma/sqrt(n)) * U_1 <= epsilon is the same inequality as an MSR target
    with unit U_1^2.
    """
    u1 = es_mean_regret_unit()
    return n_for_msr_target(sigma, epsilon, u1 * u1)


@record
@dataclass(frozen=True)
class EsComparison:
    """Samples a rule needs to match the plug-in design on worst-case MSR.

    The plug-in rule is sized by the mean-regret criterion (n_es); the rule
    under comparison then needs n_rule_real = n_es * ratio^-1 samples to reach
    the same worst-case MSR, rounded up to n_rule.  The two n-constants are
    the coefficients of sigma^2/epsilon^2 in each design.
    """

    n_es: int
    es_worst_msr_at_n: float
    n_rule: int
    n_rule_real: float
    ratio: float
    es_n_constant: float
    rule_n_constant: float


def compare_vs_es(sigma: float, epsilon: float, rule: TreatmentRule) -> EsComparison:
    """Match the plug-in design's worst-case MSR with fewer samples.

    rule is typically the logistic minimax rule.  ratio is the exact
    unit-constant quotient, invariant to sigma and epsilon; the reported
    sample sizes use the integer n_es.
    """
    u1 = es_mean_regret_unit()
    u_es = es_msr_unit()
    u_rule = _bounded_worst(worst_case_msr, rule)
    n_es = es_epsilon_optimal_n(sigma, epsilon)
    es_msr = sigma * sigma * u_es / n_es
    n_rule_real = n_es * u_rule / u_es
    n_rule = _least_n(n_rule_real, lambda n: sigma * sigma * u_rule / n <= es_msr)
    return EsComparison(
        n_es=n_es,
        es_worst_msr_at_n=es_msr,
        n_rule=n_rule,
        n_rule_real=n_rule_real,
        ratio=u_es / u_rule,
        es_n_constant=u1 * u1,
        rule_n_constant=u_rule * u1 * u1 / u_es,
    )


def ht_power_n(sigma: float, alpha: float, beta: float, tau_alt: float) -> int:
    """Classical one-sided test sample size: size alpha, power beta at tau_alt."""
    # the test's own check refuses an alpha outside (0, 0.5) first
    z_alpha = HypothesisTest(alpha=alpha).critical_value
    # beta = 0.5 is the knife-edge design z_{0.5} = 0, still well defined
    if not 0.5 <= beta < 1.0:
        raise DomainError(f"beta must lie in [0.5, 1), got {beta}")
    if tau_alt == 0.0:
        raise DomainError("tau_alt must be nonzero")
    if not sigma > 0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    shift = z_alpha - std_normal_quantile(1.0 - beta)
    # a product, not ** 2, so an overflow gives inf for _least_n to refuse
    ratio = sigma / tau_alt
    n_real = ratio * ratio * shift * shift
    return _least_n(n_real, lambda n: n_real <= n)


@record
@dataclass(frozen=True)
class HtComparison:
    """Worst-case MSR of a test-based design against the minimax rule.

    msr_ratio is minimax/test at equal n; sample_multiple is the factor by
    which the test design must grow to reach the minimax rule's worst MSR,
    and n_minimax the minimax-rule sample size matching the test design.
    """

    n_ht: int
    ht_msr_unit: float
    minimax_msr_unit: float
    msr_ratio: float
    sample_multiple: float
    n_minimax: int


def compare_vs_ht(
    sigma: float, alpha: float, beta: float, tau_alt: float, tau_star: float
) -> HtComparison:
    """Size the test design by power, then compare worst-case MSR."""
    n_ht = ht_power_n(sigma, alpha, beta, tau_alt)
    u_ht = ht_msr_unit(alpha)
    u_mm = minimax_msr_unit(tau_star)
    ht_msr = sigma * sigma * u_ht / n_ht
    n_mm_real = n_ht * u_mm / u_ht
    n_mm = _least_n(n_mm_real, lambda n: sigma * sigma * u_mm / n <= ht_msr)
    return HtComparison(
        n_ht=n_ht,
        ht_msr_unit=u_ht,
        minimax_msr_unit=u_mm,
        msr_ratio=u_mm / u_ht,
        sample_multiple=u_ht / u_mm,
        n_minimax=n_mm,
    )


@record
@dataclass(frozen=True)
class SampleSizePlan:
    """One planning answer: the criterion, its inputs, and the resulting n."""

    criterion: str
    sigma: float
    n_required: int
    achieved_worst_msr: float
    epsilon: Optional[float] = None
    alpha: Optional[float] = None
    beta: Optional[float] = None
    tau_alt: Optional[float] = None
    es_comparison: Optional[EsComparison] = None
    ht_comparison: Optional[HtComparison] = None


def plan_worst_msr(
    sigma: float, epsilon: float, rule: TreatmentRule
) -> SampleSizePlan:
    """n making the rule's worst-case MSR at most epsilon^2."""
    unit = _bounded_worst(worst_case_msr, rule)
    n = n_for_msr_target(sigma, epsilon, unit)
    return SampleSizePlan(
        criterion="worst_msr_target",
        sigma=sigma,
        epsilon=epsilon,
        n_required=n,
        achieved_worst_msr=sigma * sigma * unit / n,
    )


def plan_es_epsilon(
    sigma: float, epsilon: float, rule: TreatmentRule
) -> SampleSizePlan:
    """Plug-in design at the mean-regret criterion, with the MSR comparison."""
    comp = compare_vs_es(sigma, epsilon, rule)
    return SampleSizePlan(
        criterion="es_epsilon_optimal",
        sigma=sigma,
        epsilon=epsilon,
        n_required=comp.n_es,
        achieved_worst_msr=comp.es_worst_msr_at_n,
        es_comparison=comp,
    )


def plan_ht_power(
    sigma: float, alpha: float, beta: float, tau_alt: float, tau_star: float
) -> SampleSizePlan:
    """Test design at the power criterion, with the MSR comparison."""
    comp = compare_vs_ht(sigma, alpha, beta, tau_alt, tau_star)
    return SampleSizePlan(
        criterion="ht_power",
        sigma=sigma,
        alpha=alpha,
        beta=beta,
        tau_alt=tau_alt,
        n_required=comp.n_ht,
        achieved_worst_msr=sigma * sigma * comp.ht_msr_unit / comp.n_ht,
        ht_comparison=comp,
    )
