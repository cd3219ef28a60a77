"""Numerical kernel: normal special functions, the Gaussian-moment quadrature,
bracketed root finding, and scalar maximization.

This is the one module that imports scipy: ndtr, ndtri and expit are
scipy.special's ufuncs themselves, bound here, and the other modules take
them from here.

Every expectation in this package is E[f(X)] with X ~ N(mean, sd^2), the
integral of phi(z) f(mean + sd*z) over z.  gaussian_expectation applies the
trapezoid rule on z in [-10, 10], which converges geometrically on integrands
analytic in a strip (Trefethen & Weideman, SIAM Review 56(3), 2014).  The
grid is fixed: 64 intervals at the first level, and each halving of the step
reuses every node.  The change between two levels is the error estimate,
accepted at 1e-10 on every component.  The integrand's first call covers
levels 0, 1 and 2, since a smooth rule's risk often needs the third, and
each later level is one call.  The sums still run level by level, level 2's
only once levels 0 and 1 disagree, so every value, refusal and stopping
level is that of one call per level.  An integrand that does not settle
within ten halvings (a jump, for instance), is not negligible at the window
edges, or is non-finite raises ConvergenceError instead of returning a
doubtful number.  An array of means stops each effect at its own level.

find_root and maximize_scalar are Brent's root finder and his bounded
minimizer (R. P. Brent, Algorithms for Minimization without Derivatives,
Prentice-Hall, 1973, chapters 4 and 5), written out step for step as scipy
runs them (brentq.c and _minimize_scalar_bounded), so they return the same
floats without importing scipy.optimize.  Both refuse a non-finite function
value with DomainError and an exhausted evaluation budget with
ConvergenceError.  scan_maximum takes the maximum of a certified scan of a
curve: maximize_scalar refines every peak that scan_brackets keeps within
the scan's error of the best one, and the largest refined value wins, the
first on an exact tie.

All functions here are pure and deterministic; values may be shared freely
across threads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Tuple

import numpy as np
from scipy.special import expit, ndtr, ndtri

__all__ = [
    "DomainError",
    "ConvergenceError",
    "BracketError",
    "RngSeed",
    "std_normal_cdf",
    "std_normal_quantile",
    "gaussian_expectation",
    "find_root",
    "maximize_scalar",
]

_SQRT2PI = math.sqrt(2.0 * math.pi)
_HALF_WIDTH = 10.0  # trapezoid window half-width in sd units
_INTERVALS = 64  # trapezoid intervals of the first level
_LEVEL_GAP = 1e-10  # two levels this close on every component are accepted
_EDGE_DENSITY = math.exp(-0.5 * _HALF_WIDTH**2) / _SQRT2PI
_MAX_HALVINGS = 10
_FIRST_CALL_LEVELS = 3  # levels the integrand's first call covers
_ROOT_RTOL = 4.0 * float(np.finfo(float).eps)
_ROOT_MAXITER = 200
_MAX_EVALS = 500
_SQRT_EPS = math.sqrt(2.2e-16)  # the bounded minimizer's relative step floor
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class ConvergenceError(RuntimeError):
    """An iterative scheme failed to reach the requested tolerance."""


class BracketError(ValueError):
    """A root bracket does not actually bracket a sign change."""


@dataclass(frozen=True)
class RngSeed:
    """A 64-bit unsigned integer seed, held as an int; equal seeds give
    bit-identical streams."""

    seed: int

    def __post_init__(self) -> None:
        # a bool is an int to isinstance, so a JSON true would read as seed 1
        if isinstance(self.seed, bool) or not (
                isinstance(self.seed, (int, np.integer)) and 0 <= self.seed < 2**64):
            raise DomainError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        if type(self.seed) is not int:
            object.__setattr__(self, "seed", int(self.seed))


def std_normal_cdf(x):
    """Standard normal CDF, absolute error <= 1e-12, saturating in the tails.

    Accepts a float or an ndarray and returns the same shape.
    """
    out = ndtr(x)
    # a 0-d input gives a numpy scalar; testing np.ndim(x) costs more than ndtr
    return out if isinstance(out, np.ndarray) else float(out)


def std_normal_quantile(p: float) -> float:
    """Inverse of std_normal_cdf on (0, 1).

    Raises DomainError outside the open interval.
    """
    if not 0.0 < p < 1.0:
        raise DomainError(f"quantile argument must lie in (0, 1), got {p}")
    return float(ndtri(p))


@lru_cache(maxsize=None)
def _trapezoid_level(level: int) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes added at one halving level, with their weights phi(z).

    Level 0 is the whole grid, endpoint weights halved; level m adds the
    midpoints of level m - 1.  Nodes are exact multiples L * k / M, so the
    grid is symmetric and level 0's middle node is z = 0.
    """
    count = _INTERVALS << level
    k = np.arange(-count, count + 1, 2) if level == 0 else np.arange(2 - count, count, 4)
    z = _HALF_WIDTH * (k / count)
    w = np.exp(-0.5 * z * z) / _SQRT2PI
    if level == 0:
        w[[0, -1]] *= 0.5
    return z, w


@lru_cache(maxsize=None)
def _first_levels() -> Tuple[np.ndarray, tuple]:
    """Levels 0, 1 and 2's nodes in that order, and per level the (start,
    stop) of its columns among them and its weights."""
    levels = [_trapezoid_level(level) for level in range(_FIRST_CALL_LEVELS)]
    ends = np.cumsum([0] + [z.size for z, _ in levels]).tolist()
    return (np.concatenate([z for z, _ in levels]),
            tuple((a, b, w) for a, b, (_, w) in zip(ends, ends[1:], levels)))


def gaussian_expectation(f: Callable, mean: float | np.ndarray, sd: float) -> float | np.ndarray:
    """E[f(X)] with X ~ N(mean, sd^2) for a smooth, normal-integrable f.

    f maps an ndarray of points, fresh on each call and its own to overwrite,
    to values of shape (n,), or (c, n) for c stacked integrands; the result
    is a float or a length-c array.  The trapezoid rule starts at 64
    intervals and halves its step, evaluating f at the new midpoints only,
    until two levels agree within 1e-10 on every component.  The first call
    of f gets level 0's 65 nodes, whose middle one (index 32) is the mean,
    level 1's 64 midpoints and level 2's 128, in that order; each later
    level is one call.  Level 2's columns are summed only when levels 0 and
    1 disagree, so they do not matter, even as NaN, to an integrand that
    settles at level 1.  A 1-D array of k means gives f (k, n) points, row i
    at mean[i], for (k, n) or (k, c, n) values and a (k,) or (k, c) result;
    each effect's rows are summed as one block, and it stops at the level of
    a call with mean[i] alone, with its bits, never refused for values past
    that level.  Raises ConvergenceError as the module docstring describes,
    DomainError for sd <= 0.
    """
    if not sd > 0:
        raise DomainError(f"sd must be positive, got {sd}")
    z, first = _first_levels()
    batched = isinstance(mean, np.ndarray)
    center = mean[:, None] if batched else mean
    vals = np.asarray(f(center + sd * z), dtype=float)
    shape = vals.shape[:-1]
    vals = vals.reshape(mean.size, -1, z.size) if batched else vals
    # level 0's end columns are its first and last nodes
    n0 = _INTERVALS + 1
    if np.abs(vals[..., 0:n0:n0 - 1]).max() * _EDGE_DENSITY > _LEVEL_GAP:
        raise ConvergenceError(f"integrand not negligible at z = +-{_HALF_WIDTH}")
    total, previous, stopped = 0.0, None, None
    for level in range(_MAX_HALVINGS + 1):
        if level < _FIRST_CALL_LEVELS:
            a, b, w = first[level]
            part = vals[..., a:b] @ w
        else:
            z, w = _trapezoid_level(level)
            vals = np.asarray(f(center + sd * z), dtype=float)
            part = (vals.reshape(mean.size, -1, z.size) if batched else vals) @ w
        total = total + part
        value = total * (2.0 * _HALF_WIDTH / (_INTERVALS << level))
        if stopped is not None:
            # an effect that has stopped keeps its value, whatever f gives it now
            value[stopped] = previous[stopped]
        if previous is not None:
            gaps = np.abs(value - previous)
            gap = float(gaps.max())
            if gap <= _LEVEL_GAP:
                return float(value) if value.ndim == 0 else value.reshape(shape)
            if batched:
                stopped = gaps.max(axis=1) <= _LEVEL_GAP
        # past level 0, a non-finite level makes the gap NaN or inf: the sums carry it
        if (previous is None or not gap < math.inf) and not np.isfinite(value).all():
            raise ConvergenceError("trapezoid rule produced a non-finite value")
        previous = value
    raise ConvergenceError(
        f"trapezoid levels still differ by {gap!r} after {_MAX_HALVINGS} halvings"
    )


def _finite(f: Callable[[float], float], x: float, known: Optional[float] = None) -> float:
    # f(x), or the caller's known value of it, refused unless finite
    fx = float(f(x) if known is None else known)
    if not math.isfinite(fx):
        raise DomainError(f"function value at x = {x!r} is {fx!r}")
    return fx


def _check_search(lo: float, hi: float, tol: float) -> None:
    # a NaN or infinite tol would end Brent's loops at once, a negative one
    # never; tol = 0 asks for the ports' relative floors alone
    if not lo < hi:
        raise DomainError(f"need lo < hi, got [{lo}, {hi}]")
    if not 0.0 <= tol < math.inf:
        raise DomainError(f"tol must be finite and nonnegative, got {tol!r}")


def find_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-12,
    *,
    f_lo: Optional[float] = None,
    f_hi: Optional[float] = None,
) -> float:
    """Brent root of a continuous f on [lo, hi] with f(lo)*f(hi) <= 0.

    Returns x with bracket width below tol + 4 eps |x|.  f_lo and f_hi, when
    given, are taken as f(lo) and f(hi) instead of evaluating f there.
    Raises BracketError when the endpoint values share a sign, DomainError
    for a non-finite value of f or a tol that is NaN, infinite or negative,
    and ConvergenceError when 200 iterations do not close the bracket.
    """
    _check_search(lo, hi, tol)
    xpre, xcur = float(lo), float(hi)
    fpre = _finite(f, xpre, f_lo)
    fcur = _finite(f, xcur, f_hi)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise BracketError(
            f"f({lo}) = {fpre} and f({hi}) = {fcur} do not bracket a sign change"
        )
    xblk = fblk = spre = scur = 0.0
    for _ in range(_ROOT_MAXITER):
        # keep the root between xcur and the contrapoint xblk, with
        # |f(xcur)| <= |f(xblk)|
        if fpre != 0.0 and fcur != 0.0 and (
            math.copysign(1.0, fpre) != math.copysign(1.0, fcur)
        ):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (tol + _ROOT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # secant
                num, den = -fcur * (xcur - xpre), fcur - fpre
            else:
                # inverse quadratic through the three points
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                num, den = -fcur * (fblk * dblk - fpre * dpre), dblk * dpre * (fblk - fpre)
            # the product underflows to zero where f is tiny (a flat stretch
            # near 1e-300, say); brentq.c then gets inf or nan and bisects
            stry = num / den if den != 0.0 else math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _finite(f, xcur)
    raise ConvergenceError(
        f"Brent root not within {tol!r} after {_ROOT_MAXITER} iterations; last x = {xcur!r}"
    )


def maximize_scalar(
    f: Callable[[float], float], lo: float, hi: float, tol: float = 1e-10
) -> Tuple[float, float]:
    """(argmax, max) of f on [lo, hi] by golden section with parabolic steps.

    The caller supplies a bracket known to contain the maximizer; ties go to
    whichever maximizer the deterministic iteration lands on (the objectives
    in this package are unimodal on their brackets).  The interior search
    stops when both bracket ends lie within 2 tol / 3 + 3e-8 |x| of the best
    point x; the endpoints are then checked, since the iteration never
    evaluates them.
    Raises DomainError for a non-finite value of f or a tol that is NaN,
    infinite or negative, and ConvergenceError after 500 evaluations.
    """
    _check_search(lo, hi, tol)
    # minimize g = -f; v, w, x are the third-best, second-best and best points
    a, b = float(lo), float(hi)
    v = w = x = a + _GOLDEN * (b - a)
    gv = gw = gx = -_finite(f, x)
    evals = 1
    step = last = 0.0
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(x) + tol / 3.0
    tol2 = 2.0 * tol1
    while abs(x - xm) > tol2 - 0.5 * (b - a):
        if evals >= _MAX_EVALS:
            raise ConvergenceError(
                f"bounded Brent search not within {tol!r} after {_MAX_EVALS} evaluations"
            )
        golden = True
        if abs(last) > tol1:
            # parabola through (v, gv), (w, gw), (x, gx)
            golden = False
            r = (x - w) * (gx - gv)
            q = (x - v) * (gx - gw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, last = last, step
            if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
                step = p / q
                u = x + step
                if u - a < tol2 or b - u < tol2:
                    step = tol1 if xm - x >= 0 else -tol1
            else:
                golden = True
        if golden:
            last = (a - x) if x >= xm else (b - x)
            step = _GOLDEN * last
        u = x + (1.0 if step >= 0 else -1.0) * max(abs(step), tol1)
        gu = -_finite(f, u)
        evals += 1
        if gu <= gx:
            if u >= x:
                a = x
            else:
                b = x
            v, gv = w, gw
            w, gw = x, gx
            x, gx = u, gu
        else:
            if u < x:
                a = u
            else:
                b = u
            if gu <= gw or w == x:
                v, gv = w, gw
                w, gw = u, gu
            elif gu <= gv or v == x or v == w:
                v, gv = u, gu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(x) + tol / 3.0
        tol2 = 2.0 * tol1
    best = (x, -gx)
    for edge in (lo, hi):
        fe = _finite(f, edge)
        if fe > best[1]:
            best = (edge, fe)
    return best


def scan_brackets(grid, vals, err: float) -> list:
    """Refinement brackets (lo, hi) of the peaks of a scan on an increasing grid.

    Every grid local maximum within err of the best value gets the bracket of
    its two grid neighbours, in increasing grid order; a plateau contributes
    its first point only.  Callers refine every bracket and keep the largest
    refined value, so near-equal peaks, as on a symmetric rule, all compete.
    """
    vals = np.asarray(vals, dtype=float)
    near = vals >= vals.max() - err
    left = np.concatenate(([-np.inf], vals[:-1]))
    right = np.concatenate((vals[1:], [-np.inf]))
    last = len(grid) - 1
    return [
        (float(grid[max(i - 1, 0)]), float(grid[min(i + 1, last)]))
        for i in np.flatnonzero(near & (vals > left) & (vals >= right))
    ]


def scan_maximum(f: Callable[[float], float], grid, vals, err: float,
                 tol: float) -> Tuple[float, float]:
    """(argmax, max) of f from a certified scan vals of it on an increasing grid.

    Every peak that scan_brackets keeps at err is refined by maximize_scalar
    to tol, in grid order, and the largest refined value wins; on an exact
    tie, the first, so the smaller argument.
    """
    refined = [maximize_scalar(f, lo, hi, tol) for lo, hi in scan_brackets(grid, vals, err)]
    return max(refined, key=lambda r: r[1])
