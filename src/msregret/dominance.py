"""Fractional rules that dominate threshold rules under power-law regret risk.

A threshold rule 1{Ybar >= t} takes only the values 0 and 1, so its regret at
effect tau is the two-valued step |tau| * 1{wrong side}, and every risk
functional of the form E[Reg^alpha_g] reduces to exact normal-CDF arithmetic:

    risk_singleton(tau)  = |tau|^alpha_g * P(wrong | tau)
    risk_fractional(tau) = |tau|^alpha_g * ((1-lam)^alpha_g * P(wrong | tau)
                                            + lam^alpha_g * P(right | tau))

for the mixture (1-lam) * base + lam * (1-base).  The wrong-side probability
P(wrong | tau) is Phi((t-tau)/sd) for tau > 0 and Phi((tau-t)/sd), its own
tail, for tau < 0; over tau in [-tau_bar, tau_bar] it is minimized at the
endpoints, giving the tail bounds p_plus and p_minus.  With m = min(p_plus, p_minus)
and r = m / (1-m), the mixing weight

    lambda_star = r^(1/(alpha_g-1)) / (1 + r^(1/(alpha_g-1)))

minimizes the mixed risk at the least-distinguishable state, and every
lam in (0, lambda_star] makes the margin risk_singleton - risk_fractional
strictly positive at all tau != 0 in the range: the normalized margin
margin / |tau|^alpha_g = p (1 - (1-lam)^alpha_g) - lam^alpha_g (1 - p) is
increasing in p = P(wrong) and positive already at its minimum m.
verify_dominance certifies a particular construction on a tau grid using the
closed forms, so the check is limited by grid resolution only, not quadrature
error; inside |tau| < 1 its strict tolerance applies to the normalized margin.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ._codec import csv_text, record
from .numerics import DomainError, std_normal_cdf
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


def _wrong_probability(t: float, tau: np.ndarray, noise_sd: float) -> np.ndarray:
    """P(threshold rule picks the regret-incurring side | tau), from its own tail."""
    tau = np.asarray(tau, dtype=float)
    return std_normal_cdf(np.where(tau > 0, t - tau, tau - t) / noise_sd)


def tail_bounds(t: float, tau_bar: float, noise_sd: float) -> Tuple[float, float]:
    """Minimal wrong-side probabilities of 1{Ybar >= t} over the effect range.

    Returns (p_plus, p_minus): the infimum of P(wrong | tau) over tau in
    (0, tau_bar] and over tau in [-tau_bar, 0).  Both are attained at the
    endpoints +-tau_bar because each branch is monotone in tau.
    """
    if not tau_bar > 0:
        raise DomainError(f"tau_bar must be positive, got {tau_bar}")
    if not noise_sd > 0:
        raise DomainError(f"noise_sd must be positive, got {noise_sd}")
    p_plus = float(std_normal_cdf((t - tau_bar) / noise_sd))
    p_minus = float(std_normal_cdf(-(t + tau_bar) / noise_sd))
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
    t: float,
    tau_bar: float,
    alpha_g: float,
    noise_sd: float,
    shrink: float = 0.5,
) -> ComplementMix:
    """ComplementMix of 1{Ybar >= t} at weight shrink * lambda_star.

    Any shrink in (0, 1) yields strict dominance over the effect range; the
    default backs off to half the optimal weight.
    """
    if not 0.0 < shrink < 1.0:
        raise DomainError(f"shrink must lie in (0, 1), got {shrink}")
    p_plus, p_minus = tail_bounds(t, tau_bar, noise_sd)
    lam = shrink * lambda_star(p_plus, p_minus, alpha_g)
    return ComplementMix(base=Threshold(t), lam=lam)


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

    def _violation(self) -> Optional[str]:
        """Why the certificate fails the checks of verify_dominance, or None.

        The first offending row in grid order is named, and in that row a
        margin below tolerance before a margin that is not strictly positive.
        """
        grid = np.asarray(self.grid, dtype=float).reshape(-1, 4)
        tau, margin = grid[:, 0], grid[:, 3]
        low = margin < _MIN_MARGIN
        # the margin vanishes like |tau|^alpha_g at tau = 0, so near 0 the
        # strict tolerance is held by the normalized margin
        strict = _STRICT_MARGIN * np.minimum(1.0, np.abs(tau) ** self.alpha_g)
        weak = (tau != 0.0) & ~(margin > strict)
        bad = np.flatnonzero(low | weak)
        if bad.size == 0:
            return None
        i = bad[0]
        at, mg = float(tau[i]), float(margin[i])
        if low[i]:
            return f"margin {mg!r} below tolerance at tau={at!r}"
        return f"margin {mg!r} not strictly positive at tau={at!r}"

    @property
    def is_valid(self) -> bool:
        return self._violation() is None

    def to_csv(self) -> str:
        return csv_text("tau,risk_singleton,risk_fractional,margin", self.grid)


def verify_dominance(
    t: float,
    tau_bar: float,
    alpha_g: float,
    noise_sd: float,
    shrink: float = 0.5,
    grid_step: float = 0.01,
) -> DominanceCertificate:
    """Certify dominance of the shrunk mixture on a tau grid.

    Risks come from the closed forms, so a failed margin is a real property
    of the construction, not quadrature noise.  Raises DominanceViolation
    naming the offending tau when a margin dips below -1e-12 or a nonzero tau
    fails strict improvement.
    """
    if not grid_step > 0:
        raise DomainError(f"grid_step must be positive, got {grid_step}")
    p_plus, p_minus = tail_bounds(t, tau_bar, noise_sd)
    lam_opt = lambda_star(p_plus, p_minus, alpha_g)
    if not 0.0 < shrink < 1.0:
        raise DomainError(f"shrink must lie in (0, 1), got {shrink}")
    lam = shrink * lam_opt

    # tau_bar * k / intervals for k = -intervals, ..., intervals step 2: the two
    # halves mirror each other and the middle node, when there is one, is 0.0
    intervals = max(int(round(2.0 * tau_bar / grid_step)), 1)
    taus = tau_bar * (np.arange(-intervals, intervals + 1, 2) / intervals)
    p_wrong = _wrong_probability(t, taus, noise_sd)
    mag = np.abs(taus) ** alpha_g
    risk_single = mag * p_wrong
    risk_frac = mag * (
        (1.0 - lam) ** alpha_g * p_wrong + lam**alpha_g * (1.0 - p_wrong)
    )
    # tau = 0 contributes zero risk on both sides regardless of p_wrong
    zero = taus == 0.0
    risk_single[zero] = 0.0
    risk_frac[zero] = 0.0
    margins = risk_single - risk_frac

    cert = DominanceCertificate(
        threshold_t=t,
        tau_bar=tau_bar,
        alpha_g=alpha_g,
        lambda_star=lam_opt,
        lambda_used=lam,
        grid=tuple(
            map(tuple, np.column_stack((taus, risk_single, risk_frac, margins)).tolist())
        ),
    )
    problem = cert._violation()
    if problem is not None:
        raise DominanceViolation(problem)
    return cert
