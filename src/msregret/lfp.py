"""Minimax calibration of the logistic fractional rule.

In the unit problem (statistic s ~ N(b, 1)) the candidate rule family is
delta_a(s) = expit(2 a s), the Bayes rule against a symmetric two-point prior
on {-a, +a}.  Define

    bayes_objective(a)       = a^2 / 2 * E_{s ~ N(a,1)}[expit(-2 a s)]
    frequentist_objective(a) = a^2 * E_{s ~ N(a,1)}[expit(-2 a s)^2]

The first is the Bayes mean square regret of delta_a against its own prior;
the second is the frequentist mean square regret of delta_a at effect a (and
by symmetry at -a).  Both are maximized at the same calibration a = tau_star,
and at that point the two-point prior on {-tau_star, +tau_star} is least
favorable: the Bayes risk of the prior equals the worst-case risk of the
rule, which certifies minimaxity of delta_{tau_star} among all rules.

solve_tau_star locates the common argmax from a certified 41-point scan of
[0.5, 2.5], one stacked Gaussian-expectation call for both objectives, and a
Brent refinement of every scan peak that could hold the maximum.
verify_saddle checks the saddle-point equalities numerically and samples the
two curves on a grid for plotting.  The shipped constant lives in _constants.py, written by
write_constants from a fresh solve.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy.special import expit

from ._codec import csv_text, record
from .numerics import (
    DEFAULT_QUADRATURE,
    ConvergenceError,
    DomainError,
    QuadratureSpec,
    gaussian_expectation,
    maximize_scalar,
    scan_brackets,
)
from .risk import worst_case_msr
from .rules import MinimaxMSR

__all__ = [
    "SaddleViolation",
    "SaddleCertificate",
    "bayes_objective",
    "frequentist_objective",
    "solve_tau_star",
    "verify_saddle",
    "default_tau_star",
    "write_constants",
    "round_sig",
]

# calibration scan a = k / _SCAN_DIV on [_SCAN_LO, _SCAN_HI]: 41 points
_SCAN_LO = 0.5
_SCAN_HI = 2.5
_SCAN_DIV = 20
_GRID_BLOCK = 512


class SaddleViolation(RuntimeError):
    """Numerical saddle-point check failed."""


def bayes_objective(a: float, spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Bayes MSR of expit(2 a s) against the symmetric two-point prior at +-a."""
    if a == 0.0:
        return 0.0
    val = gaussian_expectation(lambda s: expit(-2.0 * a * s), a, 1.0, spec)
    return 0.5 * a * a * val


def frequentist_objective(a: float, spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """MSR of the rule expit(2 a s) at effect tau = a (equals the value at -a)."""
    if a == 0.0:
        return 0.0
    val = gaussian_expectation(lambda s: expit(-2.0 * a * s) ** 2, a, 1.0, spec)
    return a * a * val


def _objective_grids(
    grid: np.ndarray, spec: QuadratureSpec = DEFAULT_QUADRATURE
) -> Tuple[np.ndarray, np.ndarray]:
    """Both objectives over a calibration grid from one stacked kernel call.

    Each calibration a contributes the row expit(-2 a (a + z)) and its square,
    the integrands of bayes_objective and frequentist_objective at s = a + z,
    so every value is certified to spec's tolerance.
    """
    a = np.asarray(grid, dtype=float)
    col = a[:, None]

    def rows(z: np.ndarray) -> np.ndarray:
        t = expit(-2.0 * col * (col + z))
        return np.concatenate([t, t * t])

    vals = gaussian_expectation(rows, 0.0, 1.0, spec)
    return 0.5 * a * a * vals[: a.size], a * a * vals[a.size :]


def _objective_grid(kind: str, grid: np.ndarray) -> np.ndarray:
    """One objective over a grid of any length, _GRID_BLOCK calibrations per
    kernel call so that the node matrix stays small."""
    which = 0 if kind == "bayes" else 1
    return np.concatenate([
        _objective_grids(grid[i : i + _GRID_BLOCK])[which]
        for i in range(0, len(grid), _GRID_BLOCK)
    ])


def solve_tau_star(
    spec: QuadratureSpec = DEFAULT_QUADRATURE, tol: float = 1e-7
) -> float:
    """Common argmax of the Bayes and frequentist objectives.

    Both objectives are scanned at the 41 points a = 0.5, 0.55, ..., 2.5 by
    one stacked gaussian_expectation call with spec, so each scan value is
    certified to within a^2 spec.fallback_abs_tol.  Every scan local maximum
    within that error of the best one is refined by Brent's bounded search
    between its grid neighbours, and the largest refined value is each
    objective's argmax.  The two argmaxes must land within 10 * tol of each
    other, otherwise the saddle structure is broken and ConvergenceError is
    raised instead of a value.
    """
    grid = np.arange(_SCAN_LO * _SCAN_DIV, _SCAN_HI * _SCAN_DIV + 1) / _SCAN_DIV
    # two scan values, each within a^2 tol of its objective
    err = 2.0 * _SCAN_HI**2 * spec.fallback_abs_tol
    args = []
    for vals, f in zip(_objective_grids(grid, spec), (bayes_objective, frequentist_objective)):
        refined = [
            maximize_scalar(lambda a: f(a, spec), lo, hi, tol=tol)
            for lo, hi in scan_brackets(grid, vals, err)
        ]
        args.append(max(refined, key=lambda r: r[1])[0])
    if abs(args[0] - args[1]) > 10.0 * tol:
        raise ConvergenceError(
            "bayes and frequentist calibrations disagree: "
            f"{args[0]!r} vs {args[1]!r}"
        )
    return args[0]


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


def verify_saddle(
    tau_star: float,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
    grid_hi: float = 4.0,
    grid_step: float = 0.02,
) -> SaddleCertificate:
    """Check the saddle-point equalities for the rule expit(2 tau_star s).

    Bayes risk against the two-point prior must match the worst-case risk of
    the rule within 1e-6, the worst case must be attained at +-tau_star
    within 1e-4, and the frequentist risk curve sampled on [0, grid_hi] must
    never exceed the worst case by more than 1e-8.  Any failure raises
    SaddleViolation.

    Both curve columns come from one stacked gaussian_expectation call with
    spec: a Bayes row expit(-2 a (a + z)) and a frequentist row
    (a (1 - f(a + z)))^2 for each nonzero grid tau = a, so every row is
    certified to spec's tolerance, since the kernel stops only when all rows
    have converged.  The tau = 0 row is exactly zero.
    """
    if not tau_star > 0:
        raise DomainError(f"tau_star must be positive, got {tau_star}")
    rule = MinimaxMSR(tau_star=tau_star)

    bayes = bayes_objective(tau_star, spec)
    worst = worst_case_msr(rule, 1.0, 1)

    taus = np.arange(0.0, grid_hi + grid_step / 2, grid_step)
    nonzero = taus != 0.0
    a = taus[nonzero]
    col = a[:, None]

    def rows(z: np.ndarray) -> np.ndarray:
        # s = a + z is the statistic at effect a; the Bayes rows are
        # bayes_objective's integrand, the frequentist rows exact_risk's
        # squared regret.  Both halves are written into one buffer, s held in
        # the frequentist half until the rule has read it.
        out = np.empty((2 * a.size, z.size))
        bayes, freq = out[: a.size], out[a.size :]
        s = np.add(col, z, out=freq)
        expit(np.multiply(-2.0 * col, s, out=bayes), out=bayes)
        np.subtract(1.0, rule.evaluate(s), out=freq)
        np.multiply(col, freq, out=freq)
        np.multiply(freq, freq, out=freq)
        return out

    curve = gaussian_expectation(rows, 0.0, 1.0, spec)
    bayes_col = np.zeros(taus.size)
    freq_col = np.zeros(taus.size)
    bayes_col[nonzero] = 0.5 * a * a * curve[: a.size]
    freq_col[nonzero] = curve[a.size :]
    samples = tuple(zip(taus.tolist(), bayes_col.tolist(), freq_col.tolist()))

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


def round_sig(x: float, digits: int) -> float:
    """Round to a number of significant digits."""
    if x == 0.0 or not math.isfinite(x):
        return x
    exp = math.floor(math.log10(abs(x)))
    return round(x, digits - 1 - exp)


def _cached_tau_star() -> Optional[float]:
    try:
        from ._constants import TAU_STAR
    except ImportError:
        return None
    return float(TAU_STAR)


def default_tau_star() -> float:
    """Shipped calibration constant, or a fresh solve rounded to 6 significant
    digits when the constants module is absent (keeps output byte-identical
    across the two paths)."""
    cached = _cached_tau_star()
    if cached is not None:
        return cached
    return round_sig(solve_tau_star(), 6)


def write_constants(path: str) -> float:
    """Re-derive tau_star and write the constants module to path."""
    value = round_sig(solve_tau_star(), 6)
    text = (
        '"""Shipped numerical constants.\n\n'
        "Generated by msregret.lfp.write_constants; do not edit by hand.\n"
        '"""\n\n'
        f"TAU_STAR = {value!r}\n"
    )
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)
    return value
