"""Fractional rules that dominate threshold rules under power-law regret risk.

A threshold rule 1{Ybar >= t} and its complement mixture
(1-lam) * base + lam * (1-base) are step rules, so the regret of each at
effect tau takes two values and E[Reg^alpha_g] is the exact sum of
r^alpha_g * p over the rule's two step outcomes (risk._step_outcomes), each
probability from its own normal tail.  The threshold rule's outcomes are the
regret 0 and the regret |tau| with the wrong-side probability P(wrong | tau),
Phi((t-tau)/sd) for tau > 0 and Phi((tau-t)/sd) for tau < 0.  Over tau in
[-tau_bar, tau_bar] that probability is least at the endpoints, giving the
tail bounds p_plus and p_minus.  With m = min(p_plus, p_minus) and
r = m / (1-m), the mixing weight

    lambda_star = r^(1/(alpha_g-1)) / (1 + r^(1/(alpha_g-1)))

minimizes the mixed risk at the least-distinguishable state, and every
lam in (0, lambda_star] makes the margin risk_singleton - risk_fractional
strictly positive at all tau != 0 in the range: the normalized margin
margin / |tau|^alpha_g = p (1 - (1-lam)^alpha_g) - lam^alpha_g (1 - p) is
increasing in p = P(wrong) and positive already at its minimum m.
verify_dominance certifies the rule dominating_rule builds on a tau grid
from the step outcomes, so the check is limited by grid resolution only, not
quadrature error; inside |tau| < 1 its strict tolerance applies to the
normalized margin.  The certificate's rule property is that same rule, built
from the certificate's own threshold_t and lambda_used.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ._codec import csv_text, record
from .numerics import DomainError
from .risk import _step_outcomes
from .rules import ComplementMix, Threshold

__all__ = [
    "DominanceViolation",
    "DominanceCertificate",
    "tail_bounds",
    "lambda_star",
    "dominating_rule",
    "verify_dominance",
]

_MIN_MARGIN = -1e-12
_STRICT_MARGIN = 1e-12


class DominanceViolation(RuntimeError):
    """A margin on the verification grid fell below tolerance."""


def tail_bounds(t: float, tau_bar: float, noise_sd: float) -> Tuple[float, float]:
    """Minimal wrong-side probabilities of 1{Ybar >= t} over the effect range.

    Returns (p_plus, p_minus): the infimum of P(wrong | tau) over tau in
    (0, tau_bar] and over tau in [-tau_bar, 0).  Both are attained at the
    endpoints +-tau_bar because each branch is monotone in tau: the step
    outcome below t at +tau_bar and the one at or above t at -tau_bar.
    """
    if not tau_bar > 0:
        raise DomainError(f"tau_bar must be positive, got {tau_bar}")
    if not noise_sd > 0:
        raise DomainError(f"noise_sd must be positive, got {noise_sd}")
    (_, p_plus), _ = _step_outcomes(Threshold(t).step, tau_bar, noise_sd)
    _, (_, p_minus) = _step_outcomes(Threshold(t).step, -tau_bar, noise_sd)
    return p_plus, p_minus


def lambda_star(p_plus: float, p_minus: float, alpha_g: float) -> float:
    """Risk-minimizing mixing weight at the least-distinguishable state."""
    if not alpha_g > 1:
        raise DomainError(f"alpha_g must exceed 1, got {alpha_g}")
    m = min(p_plus, p_minus)
    if not 0.0 < m < 1.0:
        raise DomainError(
            f"tail bounds must lie strictly inside (0, 1), got ({p_plus}, {p_minus})"
        )
    q = (m / (1.0 - m)) ** (1.0 / (alpha_g - 1.0))
    return q / (1.0 + q)


def dominating_rule(
    t: float, tau_bar: float, alpha_g: float, noise_sd: float, shrink: float = 0.5
) -> ComplementMix:
    """ComplementMix of 1{Ybar >= t} at weight shrink * lambda_star.

    Any shrink in (0, 1) yields strict dominance over the effect range; the
    default backs off to half the optimal weight.
    """
    return _construction(t, tau_bar, alpha_g, noise_sd, shrink)[1]


def _construction(
    t: float, tau_bar: float, alpha_g: float, noise_sd: float, shrink: float
) -> Tuple[float, ComplementMix]:
    # lambda_star and dominating_rule's mixture, from one pair of tail bounds
    if not 0.0 < shrink < 1.0:
        raise DomainError(f"shrink must lie in (0, 1), got {shrink}")
    lam_star = lambda_star(*tail_bounds(t, tau_bar, noise_sd), alpha_g)
    return lam_star, ComplementMix(base=Threshold(t), lam=shrink * lam_star)


def _margin_violation(rows: np.ndarray, alpha_g: float) -> Optional[str]:
    """Why the (k, 4) grid rows fail the checks of verify_dominance, or None.

    The first offending row in grid order is named, and in that row a margin
    below tolerance before one that is not finite (a risk that overflowed)
    before one that is not strictly positive.
    """
    tau, margin = rows[:, 0], rows[:, 3]
    low = margin < _MIN_MARGIN
    overflow = ~np.isfinite(margin)
    # the margin vanishes like |tau|^alpha_g at tau = 0, so near 0 the
    # strict tolerance is held by the normalized margin
    strict = _STRICT_MARGIN * np.minimum(1.0, np.abs(tau) ** alpha_g)
    weak = (tau != 0.0) & ~(margin > strict)
    bad = np.flatnonzero(low | overflow | weak)
    if bad.size == 0:
        return None
    i = bad[0]
    at, mg = float(tau[i]), float(margin[i])
    if low[i]:
        return f"margin {mg!r} below tolerance at tau={at!r}"
    if overflow[i]:
        return f"margin {mg!r} not finite at tau={at!r}"
    return f"margin {mg!r} not strictly positive at tau={at!r}"


@record
@dataclass(frozen=True)
class DominanceCertificate:
    """Grid evidence that the fractional rule dominates the threshold rule.

    grid rows are (tau, risk_singleton, risk_fractional, margin) under the
    E[Reg^alpha_g] risk; margins must clear -1e-12 everywhere and, away from
    tau = 0, where both risks vanish identically, +1e-12 * min(1, |tau|^alpha_g).
    """

    threshold_t: float
    tau_bar: float
    alpha_g: float
    lambda_star: float
    lambda_used: float
    grid: Tuple[Tuple[float, float, float, float], ...]

    @property
    def rule(self) -> ComplementMix:
        """The certified rule: dominating_rule's mixture at lambda_used."""
        return ComplementMix(base=Threshold(self.threshold_t), lam=self.lambda_used)

    def _violation(self) -> Optional[str]:
        """Why the certificate fails the checks of verify_dominance, or None."""
        return _margin_violation(np.asarray(self.grid, dtype=float).reshape(-1, 4), self.alpha_g)

    @property
    def is_valid(self) -> bool:
        return self._violation() is None

    def to_csv(self) -> str:
        return csv_text("tau,risk_singleton,risk_fractional,margin", self.grid)


def verify_dominance(
    t: float, tau_bar: float, alpha_g: float, noise_sd: float, shrink: float = 0.5,
    grid_step: float = 0.01,
) -> DominanceCertificate:
    """Certify dominance of dominating_rule's mixture on a tau grid.

    Both risk columns are E[Reg^alpha_g] summed over the step outcomes of
    Threshold(t) and of the mixture, each probability from its own tail, so
    a failed margin is a real property of the construction, not quadrature
    noise.  Raises DominanceViolation naming the offending tau when a margin
    dips below -1e-12 or a nonzero tau fails strict improvement, and
    DomainError for a grid_step whose grid cannot be built.
    """
    if not grid_step > 0:
        raise DomainError(f"grid_step must be positive, got {grid_step}")
    lam_star, rule = _construction(t, tau_bar, alpha_g, noise_sd, shrink)
    # tau_bar * k / intervals for k = -intervals, ..., intervals step 2: the two
    # halves mirror each other and the middle node, when there is one, is 0.0
    try:
        intervals = max(int(round(2.0 * tau_bar / grid_step)), 1)
        taus = tau_bar * (np.arange(-intervals, intervals + 1, 2) / intervals)
    except (OverflowError, ValueError, MemoryError) as exc:
        # an interval count past the float range, a grid too long to index and
        # one too large to hold are all refused before any element is written
        raise DomainError(f"grid_step {grid_step!r} gives no grid: {exc}") from None
    # E[Reg^alpha_g] over the step outcomes of Threshold(t), then of the mixture
    risk_single, risk_frac = (
        sum(r**alpha_g * p for r, p in _step_outcomes(step, taus, noise_sd))
        for step in (rule.base.step, rule.step)
    )
    rows = np.column_stack((taus, risk_single, risk_frac, risk_single - risk_frac))
    problem = _margin_violation(rows, alpha_g)
    if problem is not None:
        raise DominanceViolation(problem)
    return DominanceCertificate(
        threshold_t=t,
        tau_bar=tau_bar,
        alpha_g=alpha_g,
        lambda_star=lam_star,
        lambda_used=rule.lam,
        grid=tuple(map(tuple, rows.tolist())),
    )
