"""Treatment rules: maps from a scalar statistic to a treatment fraction.

A rule takes the observed statistic (for the Gaussian experiment, the sample
mean of the treated-arm outcomes, or a standardized version of it) and returns
the fraction of the population assigned to treatment, a value in [0, 1].
Singleton rules return only 0 or 1; fractional rules interpolate.  The module
also houses the Bayes fraction for finitely supported priors under power
regret g(r) = r^alpha, in closed form for every alpha > 1 (solve_bayes_foc),
and the ratio-of-sums form of the alpha = 2 case (the tilted posterior
probability matching rule).

Each rule declares the facts the risk functionals need: step is
(cutoff, low, high) for a rule piecewise constant in the statistic and None
otherwise, and direction is +1 (nondecreasing) or -1 (nonincreasing).  A rule
that declares neither has no exact tail probability, and the risk module
refuses it.  A directional rule whose inverse has a closed form gives it as
stat_at(q), the statistic where the fraction crosses q: the logistic rule by
logit, posterior probability matching by the normal quantile, and a
complement mixture through its base; the others return None.  Rules
serialize through one kind registry (rule_to_dict, rule_from_dict); their
fields go through the payload codec the report classes share, to which this
module adds the TreatmentRule and DiscretePrior entries.

All rule values are immutable, hashable, and evaluate as pure functions; they
accept a float or an ndarray statistic and return the matching type.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np
from scipy import special

from ._codec import from_dict, register, to_dict
from .numerics import DomainError, std_normal_quantile

__all__ = [
    "PriorSupportError",
    "TreatmentRule",
    "EmpiricalSuccess",
    "Threshold",
    "HypothesisTest",
    "MinimaxMSR",
    "BayesFlatMSR",
    "PosteriorMatchFlat",
    "ComplementMix",
    "DiscretePrior",
    "DiscretePriorBayes",
    "psi",
    "evaluate",
    "solve_bayes_foc",
    "tilted_posterior_match_msr",
    "rule_to_dict",
    "rule_from_dict",
]

Stat = Union[float, np.ndarray]

_SQRT2PI = math.sqrt(2.0 * math.pi)


class PriorSupportError(ValueError):
    """The (posterior) prior mass is one-sided, so the Bayes FOC has no interior root."""


def _match(value: np.ndarray, like: Stat) -> Stat:
    if isinstance(like, float) or np.ndim(like) == 0:
        return float(value)
    return value


def psi(x):
    """psi(x) = pdf(x) / (cdf(x) * (1 + x^2)), positive for all finite x.

    Evaluated through log-space so the cdf underflow for very negative x
    cancels against the pdf underflow.
    """
    x = np.asarray(x, dtype=float)
    log_pdf = -0.5 * x * x - 0.5 * math.log(2.0 * math.pi)
    out = np.exp(log_pdf - special.log_ndtr(x)) / (1.0 + x * x)
    return float(out) if out.ndim == 0 else out


class TreatmentRule:
    """Base class; concrete rules are frozen dataclasses with an evaluate method
    that set kind, direction and, when piecewise constant, step."""

    kind: str = ""
    step: Optional[Tuple[float, float, float]] = None
    direction: Optional[int] = None

    def evaluate(self, stat: Stat) -> Stat:
        raise NotImplementedError

    def stat_at(self, q: float) -> Optional[float]:
        """Statistic y* where direction * (fraction - q) turns from negative to
        positive, or None when the rule has no closed-form inverse.

        A q the fraction never crosses gives -inf when direction * (fraction
        - q) is positive everywhere and +inf when it is negative everywhere.
        """
        return None


@dataclass(frozen=True)
class EmpiricalSuccess(TreatmentRule):
    """Treat everyone iff the statistic is nonnegative."""

    kind = "empirical_success"
    step = (0.0, 0.0, 1.0)
    direction = 1

    def evaluate(self, stat: Stat) -> Stat:
        s = np.asarray(stat, dtype=float)
        return _match(np.where(s >= 0.0, 1.0, 0.0), stat)


@dataclass(frozen=True)
class Threshold(TreatmentRule):
    """Treat everyone iff the statistic reaches the threshold t."""

    t: float
    kind = "threshold"
    direction = 1

    @property
    def step(self) -> Tuple[float, float, float]:
        return self.t, 0.0, 1.0

    def evaluate(self, stat: Stat) -> Stat:
        s = np.asarray(stat, dtype=float)
        return _match(np.where(s >= self.t, 1.0, 0.0), stat)


@dataclass(frozen=True)
class HypothesisTest(TreatmentRule):
    """Treat everyone iff a one-sided size-alpha test on a standardized
    statistic rejects a zero effect, i.e. stat >= z_{1-alpha}."""

    alpha: float
    kind = "hypothesis_test"
    direction = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 0.5:
            raise DomainError(f"alpha must lie in (0, 0.5), got {self.alpha}")

    @property
    def critical_value(self) -> float:
        return std_normal_quantile(1.0 - self.alpha)

    @property
    def step(self) -> Tuple[float, float, float]:
        return self.critical_value, 0.0, 1.0

    def evaluate(self, stat: Stat) -> Stat:
        s = np.asarray(stat, dtype=float)
        return _match(np.where(s >= self.critical_value, 1.0, 0.0), stat)


@dataclass(frozen=True)
class MinimaxMSR(TreatmentRule):
    """Minimax mean-square-regret rule: the logistic transform
    exp(2*tau_star*u) / (exp(2*tau_star*u) + 1) of u = stat / scale."""

    tau_star: float
    scale: float = 1.0
    kind = "minimax_msr"
    direction = 1

    def __post_init__(self) -> None:
        if not self.tau_star > 0:
            raise DomainError(f"tau_star must be positive, got {self.tau_star}")
        if not self.scale > 0:
            raise DomainError(f"scale must be positive, got {self.scale}")

    def evaluate(self, stat: Stat) -> Stat:
        u = np.asarray(stat, dtype=float) / self.scale
        if isinstance(u, float):
            return float(special.expit(2.0 * self.tau_star * u))
        # u is a fresh array: scale it and map it in place
        u *= 2.0 * self.tau_star
        return special.expit(u, out=u)

    def stat_at(self, q: float) -> float:
        if not 0.0 < q < 1.0:
            return -math.inf if q <= 0.0 else math.inf
        return self.scale * math.log(q / (1.0 - q)) / (2.0 * self.tau_star)


@dataclass(frozen=True)
class BayesFlatMSR(TreatmentRule):
    """Bayes mean-square-regret rule under a flat prior on the effect:
    cdf(u) * (1 + u * psi(u)) with u = stat / scale.

    Evaluated as cdf(u) + u * pdf(u) / (1 + u^2), the algebraically identical
    form that stays finite when cdf(u) underflows; the classic Mills bound
    keeps the value inside [0, 1] for every finite u.
    """

    scale: float = 1.0
    kind = "bayes_flat_msr"
    direction = 1

    def __post_init__(self) -> None:
        if not self.scale > 0:
            raise DomainError(f"scale must be positive, got {self.scale}")

    def evaluate(self, stat: Stat) -> Stat:
        u = np.asarray(stat, dtype=float) / self.scale
        # std_normal_cdf and std_normal_pdf written out, without their float
        # round trips; np.clip's wrapper costs more than the arithmetic
        pdf = np.exp(-0.5 * u * u) / _SQRT2PI
        out = special.ndtr(u) + u * pdf / (1.0 + u * u)
        return _match(np.minimum(np.maximum(out, 0.0), 1.0), stat)


@dataclass(frozen=True)
class PosteriorMatchFlat(TreatmentRule):
    """Posterior probability matching under a flat prior: cdf(stat / scale)."""

    scale: float = 1.0
    kind = "posterior_match_flat"
    direction = 1

    def __post_init__(self) -> None:
        if not self.scale > 0:
            raise DomainError(f"scale must be positive, got {self.scale}")

    def evaluate(self, stat: Stat) -> Stat:
        u = np.asarray(stat, dtype=float) / self.scale
        return _match(special.ndtr(u), stat)

    def stat_at(self, q: float) -> float:
        if not 0.0 < q < 1.0:
            return -math.inf if q <= 0.0 else math.inf
        return self.scale * std_normal_quantile(q)


@dataclass(frozen=True)
class ComplementMix(TreatmentRule):
    """Mixture of a base rule with its complement:
    (1 - lam) * base + lam * (1 - base).

    The mixture equals lam + (1 - 2 lam) * base, so a weight above 1/2 flips
    the base's direction and a weight of exactly 1/2 is the constant 1/2.
    """

    base: TreatmentRule
    lam: float
    kind = "complement_mix"

    def __post_init__(self) -> None:
        if not 0.0 < self.lam < 1.0:
            raise DomainError(f"lam must lie in (0, 1), got {self.lam}")

    def _mix(self, b):
        return (1.0 - self.lam) * b + self.lam * (1.0 - b)

    @property
    def step(self) -> Optional[Tuple[float, float, float]]:
        if self.lam == 0.5:
            return 0.0, 0.5, 0.5
        base = self.base.step
        if base is None:
            return None
        cut, lo, hi = base
        return cut, self._mix(lo), self._mix(hi)

    @property
    def direction(self) -> Optional[int]:
        d = self.base.direction
        return None if d is None else (-d if self.lam > 0.5 else d)

    def evaluate(self, stat: Stat) -> Stat:
        b = np.asarray(self.base.evaluate(stat), dtype=float)
        return _match(self._mix(b), stat)

    def stat_at(self, q: float) -> Optional[float]:
        # the mixture is q exactly where the base is b, and
        # direction * (mixture - q) has the sign of base direction * (base - b)
        if self.lam == 0.5:
            return None
        return self.base.stat_at((q - self.lam) / (1.0 - 2.0 * self.lam))


@dataclass(frozen=True)
class DiscretePrior:
    """Finitely supported prior over the treatment effect.

    support is a tuple of (tau, weight) pairs with positive weights summing to
    one and distinct locations.  Use from_pairs to normalize raw weights.
    """

    support: Tuple[Tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.support:
            raise DomainError("prior support must be nonempty")
        taus = [t for t, _ in self.support]
        weights = [w for _, w in self.support]
        if len(set(taus)) != len(taus):
            raise DomainError("prior support points must be distinct")
        if any(not w > 0 for w in weights):
            raise DomainError("prior weights must be positive")
        total = sum(weights)
        if abs(total - 1.0) > 1e-8:
            raise DomainError(f"prior weights must sum to 1, got {total}")
        # derived once, since solve_bayes_foc reads them on every call; they
        # are not fields, so equality, hashing and to_dict see support alone
        taus, weights = np.array(taus), np.array(weights)
        taus.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "_taus", taus)
        object.__setattr__(self, "_weights", weights)
        object.__setattr__(self, "_two_sided", bool((taus > 0).any() and (taus < 0).any()))

    @classmethod
    def from_pairs(cls, pairs) -> "DiscretePrior":
        pairs = [(float(t), float(w)) for t, w in pairs]
        total = sum(w for _, w in pairs)
        if not total > 0:
            raise DomainError("prior weights must have positive total mass")
        return cls(tuple((t, w / total) for t, w in pairs))

    @property
    def taus(self) -> np.ndarray:
        """Support locations (a read-only array)."""
        return self._taus

    @property
    def weights(self) -> np.ndarray:
        """Prior weights (a read-only array)."""
        return self._weights

    @property
    def two_sided(self) -> bool:
        return self._two_sided


@dataclass(frozen=True)
class DiscretePriorBayes(TreatmentRule):
    """Bayes rule for a finitely supported prior under power regret r^alpha_g:
    the closed-form solution of the posterior first-order condition at each
    statistic value (solve_bayes_foc)."""

    prior: DiscretePrior
    alpha_g: float
    noise_sd: float
    kind = "discrete_prior_bayes"
    direction = 1

    def __post_init__(self) -> None:
        if not self.alpha_g > 1:
            raise DomainError(f"alpha_g must exceed 1, got {self.alpha_g}")
        if not self.noise_sd > 0:
            raise DomainError(f"noise_sd must be positive, got {self.noise_sd}")

    def evaluate(self, stat: Stat) -> Stat:
        return solve_bayes_foc(self.prior, self.alpha_g, self.noise_sd, stat)


def evaluate(rule: TreatmentRule, stat: Stat) -> Stat:
    """Treatment fraction of rule at stat; in [0, 1] for every finite stat."""
    return rule.evaluate(stat)


def _require_two_sided(prior: DiscretePrior) -> None:
    # points at tau = 0 contribute no regret and drop out of the condition
    if not prior.two_sided:
        raise PriorSupportError("prior mass must be positive on both {tau > 0} and {tau < 0}")


def solve_bayes_foc(
    prior: DiscretePrior, alpha_g: float, noise_sd: float, stat: Stat
) -> Stat:
    """Unique delta in (0, 1) solving the posterior first-order condition

        sum_i w_i(stat) * tau_i * g'(tau_i * (1{tau_i >= 0} - delta)) = 0

    with g(r) = r^alpha_g and w_i(stat) the Gaussian posterior weights.  With
    e = alpha_g - 1 the condition separates into (1 - delta)^e A = delta^e B,
    where A(y) = sum_{tau_i > 0} w_i tau_i^alpha_g phi((y - tau_i) / sd) and
    B(y) is the same sum over tau_i < 0 with |tau_i|, so

        delta = expit((log A - log B) / e),

    computed in log space (the common factor exp(-y^2 / (2 sd^2)) is dropped,
    so neither side underflows) and clipped to [1e-12, 1 - 1e-12].  The rule
    is increasing in the statistic: d/dy (log A - log B) equals the mean of
    tau under A's weights minus the mean of tau under B's weights, over sd^2,
    which is positive because A puts all its weight on tau > 0 and B on
    tau < 0 (the monotone likelihood ratio of the Gaussian location family).

    Accepts a float or an ndarray statistic and returns the matching type.
    Raises PriorSupportError when the prior mass is one-sided and DomainError
    for alpha_g <= 1 or noise_sd <= 0.
    """
    if not alpha_g > 1:
        raise DomainError(f"alpha_g must exceed 1, got {alpha_g}")
    if not noise_sd > 0:
        raise DomainError(f"noise_sd must be positive, got {noise_sd}")
    _require_two_sided(prior)
    taus, weights = prior.taus, prior.weights
    y = np.asarray(stat, dtype=float)[..., None]

    def log_mass(side: np.ndarray) -> np.ndarray:
        t = taus[side]
        log_terms = np.log(weights[side]) + alpha_g * np.log(np.abs(t))
        return np.logaddexp.reduce(log_terms + t * (y - 0.5 * t) / noise_sd**2, axis=-1)

    delta = special.expit((log_mass(taus > 0) - log_mass(taus < 0)) / (alpha_g - 1.0))
    return _match(np.clip(delta, 1e-12, 1.0 - 1e-12), stat)


def tilted_posterior_match_msr(
    prior: DiscretePrior, noise_sd: float, stat: float
) -> float:
    """Closed-form mean-square-regret Bayes rule for a finitely supported
    prior: the tau^2-tilted posterior probability of a nonnegative effect,

        sum_{tau_i >= 0} w_i(stat) tau_i^2 / sum_i w_i(stat) tau_i^2.

    Agrees with solve_bayes_foc at alpha_g = 2 to 1e-10.
    """
    if not noise_sd > 0:
        raise DomainError(f"noise_sd must be positive, got {noise_sd}")
    _require_two_sided(prior)
    taus = prior.taus
    logw = np.log(prior.weights) - 0.5 * ((stat - taus) / noise_sd) ** 2
    w = np.exp(logw - logw.max())
    tilt = w * taus * taus
    return float(tilt[taus >= 0].sum() / tilt.sum())


# --- JSON mapping ----------------------------------------------------------

_KINDS = {
    cls.kind: cls
    for cls in (
        EmpiricalSuccess,
        Threshold,
        HypothesisTest,
        MinimaxMSR,
        BayesFlatMSR,
        PosteriorMatchFlat,
        ComplementMix,
        DiscretePriorBayes,
    )
}


def rule_to_dict(rule: TreatmentRule) -> dict:
    """Plain-dict form {"kind": ..., ...fields} used by the CLI payloads."""
    if _KINDS.get(rule.kind) is not type(rule):
        raise DomainError(f"unknown rule type {type(rule).__name__}")
    return {"kind": rule.kind, **to_dict(rule)}


def rule_from_dict(data: dict) -> TreatmentRule:
    """Inverse of rule_to_dict; a missing field takes its dataclass default."""
    cls = _KINDS.get(data.get("kind"))
    if cls is None:
        raise DomainError(f"unknown rule kind {data.get('kind')!r}")
    return from_dict(cls, data)


register("TreatmentRule", rule_to_dict, rule_from_dict)
register(
    "DiscretePrior",
    lambda p: [[t, w] for t, w in p.support],
    lambda d: DiscretePrior(tuple((float(t), float(w)) for t, w in d)),
)
