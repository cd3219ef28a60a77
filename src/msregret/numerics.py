"""Numerical kernel: normal special functions, the Gaussian-moment quadrature,
bracketed root finding, and scalar maximization.

Every expectation in this package is E[f(X)] with X ~ N(mean, sd^2), the
integral of phi(z) f(mean + sd*z) over z.  gaussian_expectation applies the
trapezoid rule on z in [-10, 10], which converges geometrically on integrands
analytic in a strip (Trefethen & Weideman, SIAM Review 56(3), 2014).  Each
halving of the step reuses every node, and the change between two levels is
the error estimate.  An integrand that does not settle within ten halvings (a
jump, for instance), is not negligible at the window edges, or is non-finite
raises ConvergenceError instead of returning a doubtful number.

All functions here are pure and deterministic; values may be shared freely
across threads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Tuple

import numpy as np
from scipy import optimize, special

__all__ = [
    "DomainError",
    "ConvergenceError",
    "BracketError",
    "QuadratureSpec",
    "RngSeed",
    "DEFAULT_QUADRATURE",
    "std_normal_cdf",
    "std_normal_pdf",
    "std_normal_quantile",
    "gaussian_expectation",
    "find_root",
    "maximize_scalar",
]

_SQRTPI = math.sqrt(math.pi)
_SQRT2PI = math.sqrt(2.0 * math.pi)
_HALF_WIDTH = 10.0  # trapezoid window half-width in sd units
_EDGE_DENSITY = math.exp(-0.5 * _HALF_WIDTH**2) / _SQRT2PI
_MAX_HALVINGS = 10


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class ConvergenceError(RuntimeError):
    """An iterative scheme failed to reach the requested tolerance."""


class BracketError(ValueError):
    """A root bracket does not actually bracket a sign change."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Trapezoid intervals of the first level and the halving tolerance.

    gaussian_expectation starts with node_count intervals on the standardized
    window and halves the step until two successive levels differ by at most
    fallback_abs_tol in absolute value on every component.
    """

    node_count: int = 64
    fallback_abs_tol: float = 1e-10

    def __post_init__(self) -> None:
        if self.node_count < 16:
            raise DomainError(f"node_count must be >= 16, got {self.node_count}")
        if not self.fallback_abs_tol > 0:
            raise DomainError(
                f"fallback_abs_tol must be positive, got {self.fallback_abs_tol}"
            )


@dataclass(frozen=True)
class RngSeed:
    """A 64-bit unsigned seed; equal seeds produce bit-identical streams."""

    seed: int

    def __post_init__(self) -> None:
        if not 0 <= self.seed < 2**64:
            raise DomainError(f"seed must fit in 64 unsigned bits, got {self.seed}")


DEFAULT_QUADRATURE = QuadratureSpec()


def std_normal_cdf(x):
    """Standard normal CDF, absolute error <= 1e-12, saturating in the tails.

    Accepts a float or an ndarray and returns the same shape.
    """
    out = special.ndtr(x)
    return float(out) if np.ndim(x) == 0 else out


def std_normal_pdf(x):
    """Standard normal density."""
    x = np.asarray(x, dtype=float)
    out = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    return float(out) if out.ndim == 0 else out


def std_normal_quantile(p: float) -> float:
    """Inverse of std_normal_cdf on (0, 1).

    Raises DomainError outside the open interval.
    """
    if not 0.0 < p < 1.0:
        raise DomainError(f"quantile argument must lie in (0, 1), got {p}")
    return float(special.ndtri(p))


@lru_cache(maxsize=16)
def _gh_nodes(order: int) -> Tuple[np.ndarray, np.ndarray]:
    # roots_hermite stays finite at high orders where the power-basis
    # recurrence overflows
    z, w = special.roots_hermite(order)
    return z, w / _SQRTPI


@lru_cache(maxsize=64)
def _trapezoid_level(intervals: int, level: int) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes added at one halving level, with their weights phi(z).

    Level 0 is the whole grid, endpoint weights halved; level m adds the
    midpoints of level m - 1.  Nodes are exact multiples L * k / M, so the
    grid is symmetric and holds z = 0 when it has a middle node.
    """
    count = intervals << level
    k = np.arange(-count, count + 1, 2) if level == 0 else np.arange(2 - count, count, 4)
    z = _HALF_WIDTH * (k / count)
    w = np.exp(-0.5 * z * z) / _SQRT2PI
    if level == 0:
        w[[0, -1]] *= 0.5
    return z, w


def gaussian_expectation(
    f: Callable,
    mean: float,
    sd: float,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float | np.ndarray:
    """E[f(X)] with X ~ N(mean, sd^2) for a smooth, normal-integrable f.

    f maps an ndarray of points to values of shape (n,), or (k, n) for k
    stacked integrands; the result is a float or a length-k array.  The
    trapezoid rule starts at spec.node_count intervals and halves its step,
    evaluating f at the new midpoints only, until two levels agree within
    spec.fallback_abs_tol on every component.  Raises ConvergenceError as the
    module docstring describes, DomainError for sd <= 0.
    """
    if not sd > 0:
        raise DomainError(f"sd must be positive, got {sd}")
    tol = spec.fallback_abs_tol
    total, previous = 0.0, None
    for level in range(_MAX_HALVINGS + 1):
        z, w = _trapezoid_level(spec.node_count, level)
        vals = np.asarray(f(mean + sd * z), dtype=float)
        if level == 0 and np.max(np.abs(vals[..., [0, -1]])) * _EDGE_DENSITY > tol:
            raise ConvergenceError(f"integrand not negligible at z = +-{_HALF_WIDTH}")
        total = total + vals @ w
        value = total * (2.0 * _HALF_WIDTH / (spec.node_count << level))
        if not np.all(np.isfinite(value)):
            raise ConvergenceError("trapezoid rule produced a non-finite value")
        if previous is not None:
            gap = float(np.max(np.abs(value - previous)))
            if gap <= tol:
                return float(value) if value.ndim == 0 else value
        previous = value
    raise ConvergenceError(
        f"trapezoid levels still differ by {gap!r} after {_MAX_HALVINGS} halvings"
    )


def find_root(f: Callable[[float], float], lo: float, hi: float, tol: float = 1e-12) -> float:
    """Brent root of a continuous f on [lo, hi] with f(lo)*f(hi) <= 0.

    Returns x with bracket width below tol.  Raises BracketError when the
    endpoint values share a sign.
    """
    if not lo < hi:
        raise DomainError(f"need lo < hi, got [{lo}, {hi}]")
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if math.copysign(1.0, flo) == math.copysign(1.0, fhi):
        raise BracketError(
            f"f({lo}) = {flo} and f({hi}) = {fhi} do not bracket a sign change"
        )
    return float(optimize.brentq(f, lo, hi, xtol=tol, maxiter=200))


def maximize_scalar(
    f: Callable[[float], float], lo: float, hi: float, tol: float = 1e-10
) -> Tuple[float, float]:
    """(argmax, max) of f on [lo, hi] by golden section with parabolic steps.

    The caller supplies a bracket known to contain the maximizer; ties go to
    whichever maximizer the deterministic iteration lands on (the objectives
    in this package are unimodal on their brackets).
    """
    if not lo < hi:
        raise DomainError(f"need lo < hi, got [{lo}, {hi}]")
    res = optimize.minimize_scalar(
        lambda x: -f(x), bounds=(lo, hi), method="bounded", options={"xatol": tol}
    )
    x = float(res.x)
    # bounded Brent never evaluates the endpoints; check them explicitly
    best = (x, float(f(x)))
    for edge in (lo, hi):
        fe = float(f(edge))
        if fe > best[1]:
            best = (edge, fe)
    return best
