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
refuses it.  A directional rule that can invert itself gives stat_at(q), the
statistic where the fraction crosses q: the logistic rule by logit, posterior
probability matching by the normal quantile, the flat-prior Bayes rule by a
safeguarded Newton search on Python floats whose result is certified against
its own computed fraction, and a complement mixture through its base; the
discrete-prior Bayes rule returns None.  Rules
serialize through one kind registry (rule_to_dict, rule_from_dict); their
fields go through the payload codec the report classes share, to which this
module adds the TreatmentRule and DiscretePrior entries.

All rule values are immutable, hashable, and evaluate as pure functions; they
accept a float or an ndarray statistic and return the matching type.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np
from scipy import special

from ._codec import from_dict, register, to_dict
from .numerics import _SQRT2PI, DomainError, std_normal_quantile

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

_FLOAT_MAX = sys.float_info.max
_FLOAT_TINY = math.ulp(0.0)


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
        positive, or None when the rule has no inverse of its own.

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


def _finite_toward(y: float, z: float) -> float:
    # |y| clamped to the finite nonzero floats, with the sign of z
    return math.copysign(min(max(abs(y), _FLOAT_TINY), _FLOAT_MAX), z)


def _bayes_flat_fraction(u):
    """The flat-prior Bayes fraction cdf(u) + u * pdf(u) / (1 + u^2), clipped
    to [0, 1], at a float or an array u; a float u goes through the same
    ufuncs as an array's elements and gives their bits as a numpy float."""
    # std_normal_cdf and std_normal_pdf written out, without their float
    # round trips; np.clip's wrapper costs more than the arithmetic
    pdf = np.exp(-0.5 * u * u) / _SQRT2PI
    out = special.ndtr(u) + u * pdf / (1.0 + u * u)
    return np.minimum(np.maximum(out, 0.0), 1.0)


@dataclass(frozen=True)
class BayesFlatMSR(TreatmentRule):
    """Bayes mean-square-regret rule under a flat prior on the effect:
    cdf(u) * (1 + u * psi(u)) with u = stat / scale.

    Evaluated as f(u) = cdf(u) + u * pdf(u) / (1 + u^2) (_bayes_flat_fraction),
    the algebraically identical form that stays finite when cdf(u)
    underflows; the classic Mills bound keeps the value inside [0, 1] for
    every finite u.

    stat_at(q) inverts the computed f by safeguarded Newton on Python floats.
    The slope is f'(u) = 2 pdf(u) / (1 + u^2)^2.  Since f - cdf has the sign
    of u, the crossing lies between 0, where f is exactly 1/2, and
    scale * ndtri(q); that end is checked with the computed f when the search
    ends beside it, and pushed outward while it fails.  The search stops at
    adjacent floats y- < y+ with f(y- / scale) < q <= f(y+ / scale), and
    returns y+, so the result is certified against the rule's own values, not
    a tolerance.  q = 1/2 gives 0.0, where the symmetry f(-u) = 1 - f(u)
    puts the crossing; a q that no finite statistic reaches, which takes a
    scale near the float maximum, gives +-inf.
    """

    scale: float = 1.0
    kind = "bayes_flat_msr"
    direction = 1

    def __post_init__(self) -> None:
        if not self.scale > 0:
            raise DomainError(f"scale must be positive, got {self.scale}")

    def evaluate(self, stat: Stat) -> Stat:
        return _match(_bayes_flat_fraction(np.asarray(stat, dtype=float) / self.scale), stat)

    def stat_at(self, q: float) -> float:
        if not 0.0 < q < 1.0:
            return -math.inf if q <= 0.0 else math.inf
        if q == 0.5:
            return 0.0
        s = self.scale
        above = q > 0.5
        z = std_normal_quantile(q)
        far = _finite_toward(s * z, z)
        lo, hi = (0.0, far) if above else (far, 0.0)
        # Newton aims half an ulp below q, at the edge of the floats that
        # round to q; it starts from u = z/2 + z^3/48 + ... near 0, which
        # tends to u = z far out
        half = 0.5 * (q - math.nextafter(q, 0.0))
        x = far * (12.0 + z * z) / (24.0 + z * z)
        while True:
            if hi == math.nextafter(lo, math.inf):
                if (hi if above else lo) != far:
                    return hi
                # the search ends beside the unchecked end: check it
                fx = float(_bayes_flat_fraction(far / s))
                if (fx >= q) == above:
                    return hi
                if abs(far) == _FLOAT_MAX:
                    return far * math.inf
                if above:
                    lo, hi = far, _finite_toward(2.0 * far, z)
                else:
                    lo, hi = _finite_toward(2.0 * far, z), far
                far = hi if above else lo
                continue
            if not lo < x < hi:
                x = lo + 0.5 * (hi - lo)
                if not lo < x < hi:
                    x = math.nextafter(lo, math.inf)
            fx = float(_bayes_flat_fraction(x / s))
            if fx >= q:
                hi = x
            else:
                lo = x
            u = x / s
            w = 1.0 + u * u
            slope = 2.0 * math.exp(-0.5 * u * u) / (_SQRT2PI * w * w) / s
            g = (fx - q) + half
            m = 1.0 - fx if above else fx
            if not abs(g) <= 0.5 * m:
                # far from q, Newton runs on the log of the nearer tail's mass
                # m, which is near quadratic in u where f is exponentially flat
                if m == 0.0:
                    g = math.nan
                else:
                    g = -m * math.log(m / (1.0 - q)) if above else m * math.log(m / q)
            nxt = x - g / slope if slope > 0.0 else math.nan
            # a step below one float moves one float toward the other side
            x = math.nextafter(x, math.inf if fx < q else -math.inf) if nxt == x else nxt


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
        # derived once, since tilted_posterior_match_msr reads them on every
        # call, and solve_bayes_foc's scalar calls keep their per-alpha_g terms
        # in _foc_terms, which a Brent root over one rule reuses on each call;
        # none is a field, so equality, hashing and to_dict see support alone
        taus, weights = np.array(taus), np.array(weights)
        taus.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "_taus", taus)
        object.__setattr__(self, "_weights", weights)
        object.__setattr__(self, "_two_sided", bool((taus > 0).any() and (taus < 0).any()))
        object.__setattr__(self, "_foc_terms", {})

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


def _foc_terms(prior: DiscretePrior, alpha_g: float) -> tuple:
    # the m negative support points, then the positive ones, each in support
    # order, with log w_i + alpha_g log|tau_i|
    support = [p for p in prior.support if p[0] < 0]
    m = len(support)
    support += [p for p in prior.support if p[0] > 0]
    taus = np.array([t for t, _ in support])
    return m, taus, np.log(np.array([w for _, w in support])) + alpha_g * np.log(np.abs(taus))


def _logaddexp_fold(z: list):
    # what np.logaddexp.reduce does along an axis: one pair at a time, in order
    acc = z[0]
    for x in z[1:]:
        acc = np.logaddexp(acc, x)
    return acc


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
    so neither side underflows) and clamped to [1e-12, 1 - 1e-12].  The rule
    is increasing in the statistic: d/dy (log A - log B) equals the mean of
    tau under A's weights minus the mean of tau under B's weights, over sd^2,
    which is positive because A puts all its weight on tau > 0 and B on
    tau < 0 (the monotone likelihood ratio of the Gaussian location family).

    Both signs share one array z = log(w_i) + alpha_g log|tau_i|
    + tau_i (y - tau_i / 2) / sd^2 with the support on its first axis,
    partitioned stably by sign: the negative points, then the positive ones,
    each in support order (points at tau = 0 drop out).  log B and log A are
    the logaddexp reductions of the two slices along that axis, so each sums
    exactly the terms of its own sign in support order, as reducing the signs
    one at a time would, and the result is the same bit for bit, infinite and
    NaN statistics included.  A Python float statistic takes a path on
    Python floats: the partition and log w_i + alpha_g log|tau_i| are kept on
    the prior per alpha_g, so the scalar calls of a root search over one rule
    build them once; each z is formed in the same operation order, each sign
    folded by successive np.logaddexp calls in support order, which is what
    the reduction does, then the same expit and clamp, so it returns the
    array path's bits at a scalar's cost.  An array statistic builds the
    terms afresh and stores nothing.

    Accepts a float or an ndarray statistic and returns the matching type.
    Raises PriorSupportError when the prior mass is one-sided and DomainError
    for alpha_g <= 1 or noise_sd <= 0.
    """
    if not alpha_g > 1:
        raise DomainError(f"alpha_g must exceed 1, got {alpha_g}")
    if not noise_sd > 0:
        raise DomainError(f"noise_sd must be positive, got {noise_sd}")
    _require_two_sided(prior)
    var = noise_sd**2
    # a variance that underflows to 0 takes the array path, where z / 0 is
    # numpy's inf or nan, not Python's ZeroDivisionError
    if type(stat) is float and var:
        # a root search calls once per iterate on one rule, so the terms are
        # kept per prior and alpha_g as Python floats; float(alpha_g) is the
        # key, so an int, a numpy float and a 0-d array share one entry, and
        # each multiplies log|tau| to the same bits
        key = float(alpha_g)
        scalar = prior._foc_terms.get(key)
        if scalar is None:
            m, taus, log_terms = _foc_terms(prior, key)
            scalar = prior._foc_terms[key] = (m, list(zip(taus.tolist(), log_terms.tolist())))
        m, pairs = scalar
        z = [(stat - 0.5 * t) * t / var + lt for t, lt in pairs]
        log_odds = (_logaddexp_fold(z[m:]) - _logaddexp_fold(z[:m])) / (alpha_g - 1.0)
        # max and min return their first argument unless the second is
        # strictly beyond it, so a NaN passes through as np.maximum's would
        return float(min(max(special.expit(log_odds), 1e-12), 1.0 - 1e-12))
    # an array call stores nothing: a table or a simulate block on a fresh
    # rule would pay for storing the terms
    m, taus, log_terms = _foc_terms(prior, alpha_g)
    y = np.asarray(stat, dtype=float)
    shape = (-1,) + (1,) * y.ndim
    t = taus.reshape(shape)
    z = y - 0.5 * t
    z *= t
    z /= var
    z += log_terms.reshape(shape)
    log_a = np.logaddexp.reduce(z[m:], axis=0)
    log_b = np.logaddexp.reduce(z[:m], axis=0)
    delta = special.expit((log_a - log_b) / (alpha_g - 1.0))
    return _match(np.minimum(np.maximum(delta, 1e-12), 1.0 - 1e-12), stat)


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
