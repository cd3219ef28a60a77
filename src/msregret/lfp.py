"""Minimax calibration of the logistic fractional rule.

In the unit problem (statistic s ~ N(b, 1)) the candidate rule family is
delta_a(s) = expit(2 a s), the Bayes rule against a symmetric two-point prior
on {-a, +a}.  Define

    bayes_objective(a)       = a^2 / 2 * E_{s ~ N(a,1)}[expit(-2 a s)]
    frequentist_objective(a) = a^2 * E_{s ~ N(a,1)}[expit(-2 a s)^2]

The first is the Bayes mean square regret of delta_a against its own prior;
the second is the frequentist mean square regret of delta_a at effect a (and
by symmetry at -a).  They are one function.  With p = expit(2 a s) and
q = 1 - p, phi(s + a) = phi(s - a) q / p and q(-s) = p(s), so
E_a[h q / p] = E_{-a}[h] = E_a[h(-s)]; h = p^2 gives E_a[p q] = E_a[q^2],
hence E_a[q] = 2 E_a[q^2].  Their common argmax a = tau_star makes the
two-point prior on {-tau_star, +tau_star} least favorable: the Bayes risk of
the prior equals the worst-case risk of the rule, which certifies minimaxity
of delta_{tau_star} among all rules.

frequentist_objective is exact_risk's moment body (risk._moments) at
MinimaxMSR(|a|) and effect |a|.  bayes_objective also takes an array of
calibrations.  solve_tau_star maximizes bayes_objective alone: a certified
41-point scan of [0.5, 2.5] in one Gaussian-expectation call, whose maximum
numerics.scan_maximum refines.  verify_saddle
checks the saddle-point equalities numerically and samples the two curves
on a grid for plotting, bit for bit bayes_objective and exact_risk.  The
shipped constant TAU_STAR is a literal here, solve_tau_star() rounded to six
significant digits; default_tau_star returns it without a solve.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ._codec import csv_text, record
from .numerics import expit, gaussian_expectation, scan_maximum, _LEVEL_GAP
from .risk import _curve_moments, _moments, worst_case_msr
from .rules import MinimaxMSR

__all__ = [
    "SaddleViolation",
    "SaddleCertificate",
    "bayes_objective",
    "frequentist_objective",
    "solve_tau_star",
    "verify_saddle",
    "default_tau_star",
]

# solve_tau_star() rounded to six significant digits; pinned against a fresh
# solve by tests/test_lfp.py::TestShippedConstant::test_matches_a_fresh_solve
TAU_STAR = 1.22814

# calibration scan a = k / _SCAN_DIV on [_SCAN_LO, _SCAN_HI]: 41 points
_SCAN_LO = 0.5
_SCAN_HI = 2.5
_SCAN_DIV = 20
# verify_saddle's curve samples tau = k * _CURVE_STEP on [0, _CURVE_HI]: 201 rows
_CURVE_HI = 4.0
_CURVE_STEP = 0.02


class SaddleViolation(RuntimeError):
    """Numerical saddle-point check failed."""


def bayes_objective(a: float | np.ndarray) -> float | np.ndarray:
    """Bayes MSR of expit(2 a s) against the symmetric two-point prior at +-a,
    at a float a or at each of a 1-D array of them with the float's bits."""
    slope = -2.0 * (a[:, None] if isinstance(a, np.ndarray) else a)
    # the kernel's points are fresh on each call, so the integrand maps them in place
    val = gaussian_expectation(lambda s: expit(np.multiply(slope, s, out=s), out=s), a, 1.0)
    return 0.5 * a * a * val


def frequentist_objective(a: float) -> float:
    """MSR of the rule expit(2 a s) at effect tau = a (equals the value at -a):
    exact_risk's, bit for bit, of MinimaxMSR(|a|) at effect |a| and sd 1."""
    if a == 0.0:
        return 0.0
    return _moments(MinimaxMSR(abs(a)), abs(a), 1.0)[1]


def solve_tau_star(tol: float = 1e-7) -> float:
    """Argmax of bayes_objective, which is also frequentist_objective's.

    The two objectives are one function: with q = expit(-2 a s) and p = 1 - q,
    the tilt phi(s + a) = phi(s - a) q / p and q(-s) = p(s) give
    E_a[p q] = E_a[q^2], so E_a[q] = E_a[q^2] + E_a[p q] = 2 E_a[q^2].  Only
    the Bayes one is searched.  It is scanned at the 41 points
    a = 0.5, 0.55, ..., 2.5 by one bayes_objective call on the array, so each
    scan value is bayes_objective(a), certified to within a^2 / 2 times the
    kernel's level gap, 1e-10.  scan_maximum refines it to tol with two such
    errors at a = 2.5 as the scan's error, and its argmax is returned.
    """
    grid = np.arange(_SCAN_LO * _SCAN_DIV, _SCAN_HI * _SCAN_DIV + 1) / _SCAN_DIV
    # two scan values, each within a^2 / 2 tol of the objective
    err = _SCAN_HI**2 * _LEVEL_GAP
    return scan_maximum(bayes_objective, grid, bayes_objective(grid), err, tol)[0]


@record
@dataclass(frozen=True)
class SaddleCertificate:
    """Numerical evidence that (two-point prior, logistic rule) is a saddle.

    curve_samples rows are (tau, bayes_objective(tau), frequentist MSR of the
    fixed rule at tau); the frequentist column must stay below worst_case_risk
    everywhere on the grid.
    """

    tau_star: float
    bayes_risk_at_lfp: float
    worst_case_risk: float
    argsup_tau: float
    objective_gap: float
    curve_samples: Tuple[Tuple[float, float, float], ...]

    def _violation(self) -> Optional[str]:
        """Why the certificate fails the checks of verify_saddle, or None."""
        if self.objective_gap > 1e-6:
            return (
                f"bayes risk {self.bayes_risk_at_lfp!r} and worst-case risk "
                f"{self.worst_case_risk!r} differ by {self.objective_gap!r}"
            )
        if abs(self.argsup_tau - self.tau_star) > 1e-4:
            return f"worst case at tau={self.argsup_tau!r}, not within 1e-4 of tau_star"
        if self.curve_samples:
            tau, _, f = max(self.curve_samples, key=lambda row: row[2])
            over = f - self.worst_case_risk
            if over > 1e-8:
                return f"frequentist risk exceeds the worst case by {over!r} at tau={tau!r}"
        return None

    @property
    def is_valid(self) -> bool:
        return self._violation() is None

    def to_csv(self) -> str:
        return csv_text("tau,bayes_objective,frequentist_risk", self.curve_samples)


def verify_saddle(tau_star: float) -> SaddleCertificate:
    """Check the saddle-point equalities for the rule expit(2 tau_star s).

    Bayes risk against the two-point prior must match the worst-case risk of
    the rule within 1e-6, the worst case must be attained at +-tau_star
    within 1e-4, and the frequentist risk curve sampled at tau = 0, 0.02,
    ..., 4 must never exceed the worst case by more than 1e-8.  Any failure
    raises SaddleViolation.

    The Bayes column is bayes_objective at the grid taus, one kernel call,
    and the frequentist column exact_risk's mean square regret from its
    batched moments (risk._curve_moments); each value is the pointwise
    call's, bit for bit, and the tau = 0 row is exactly zero.
    """
    rule = MinimaxMSR(tau_star=tau_star)

    bayes = bayes_objective(tau_star)
    worst = worst_case_msr(rule, 1.0, 1)

    taus = np.arange(0.0, _CURVE_HI + _CURVE_STEP / 2, _CURVE_STEP)
    freq = _curve_moments(rule, taus, 1.0)[:, 1]
    samples = tuple(zip(taus.tolist(), bayes_objective(taus).tolist(), freq.tolist()))

    cert = SaddleCertificate(
        tau_star=tau_star,
        bayes_risk_at_lfp=bayes,
        worst_case_risk=worst.sup,
        argsup_tau=abs(worst.argsup_tau),
        objective_gap=abs(bayes - worst.sup),
        curve_samples=samples,
    )
    problem = cert._violation()
    if problem is not None:
        raise SaddleViolation(problem)
    return cert


def default_tau_star() -> float:
    """Shipped calibration constant: the literal TAU_STAR, solve_tau_star()
    rounded to 6 significant digits and pinned to a fresh solve by a test."""
    return TAU_STAR
