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
otherwise; direction is +1 (nondecreasing) or -1 (nonincreasing); and
stat_at(q) gives the statistic where the fraction crosses q: the logistic
rule by logit, posterior probability matching by the normal quantile, the
flat-prior and discrete-prior Bayes rules by one search on Python floats
(_crossing), fed each rule's Newton steps and certified against the rule's
own computed fractions, and a complement mixture through its base.  A rule
that declares no step form and lacks either a direction or an inverse of
its own has no exact tail probability, and the risk module refuses it.
Rules serialize through one kind registry (rule_to_dict, rule_from_dict);
their fields go through the payload codec the report classes share, to
which this module adds the TreatmentRule and DiscretePrior entries.

All rule values are immutable, hashable, and evaluate as pure functions; they
accept a float or an ndarray statistic and return the matching type.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import reduce
from typing import Optional, Tuple, Union

import numpy as np

from ._codec import float_value, from_dict, register, to_dict
from .numerics import _SQRT2PI, DomainError, expit, ndtr, std_normal_quantile

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
    "solve_bayes_foc",
    "tilted_posterior_match_msr",
    "rule_to_dict",
    "rule_from_dict",
]

Stat = Union[float, np.ndarray]

_FLOAT_MAX = sys.float_info.max
_FLOAT_TINY = math.ulp(0.0)
_EPS = sys.float_info.epsilon
# Newton steps _crossing takes before it bisects
_NEWTON_STEPS = 16
# expit(L) is 0.0 below this log-odds, where exp(-L) overflows, and its
# least positive value, about 5.5627e-309, at it
_EXPIT_FLOOR = -math.log(_FLOAT_MAX)
_EXPIT_LEAST = float(expit(_EXPIT_FLOOR))
# the margin DiscretePriorBayes.stat_at puts beyond its farthest crossing,
# so that a two-point prior's Newton step lands inside
_WIDEN = 1.0 + 2.0**-20


class PriorSupportError(ValueError):
    """The (posterior) prior mass is one-sided, so the Bayes FOC has no interior root."""


def _match(value: np.ndarray, like: Stat) -> Stat:
    if isinstance(like, float) or np.ndim(like) == 0:
        return float(value)
    return value


class TreatmentRule:
    """Base class; concrete rules are frozen dataclasses that set kind,
    direction and, when piecewise constant, step.  The inherited evaluate
    reads step, so a step rule needs none of its own; any other rule defines one."""

    kind: str = ""
    step: Optional[Tuple[float, float, float]] = None
    direction: Optional[int] = None

    def evaluate(self, stat: Stat) -> Stat:
        step = self.step
        if step is None:
            raise NotImplementedError
        cut, lo, hi = step
        return _match(np.where(np.asarray(stat, dtype=float) >= cut, hi, lo), stat)

    def stat_at(self, q: float) -> Optional[float]:
        """Statistic y* where direction * (fraction - q) turns from negative to
        positive, or None when the rule has no inverse of its own.

        A q the fraction never crosses gives -inf when direction * (fraction
        - q) is positive everywhere and +inf when it is negative everywhere.
        Every shipped rule with a direction and no step form overrides this;
        tail_probability raises DomainError for a rule that declares a
        direction but returns None here.
        """
        return None


@dataclass(frozen=True)
class EmpiricalSuccess(TreatmentRule):
    """Treat everyone iff the statistic is nonnegative."""

    kind = "empirical_success"
    step = (0.0, 0.0, 1.0)
    direction = 1


@dataclass(frozen=True)
class Threshold(TreatmentRule):
    """Treat everyone iff the statistic reaches the threshold t."""

    t: float
    kind = "threshold"
    direction = 1

    def __post_init__(self) -> None:
        # t = +-inf are the never- and always-treat rules
        if math.isnan(self.t):
            raise DomainError("threshold t must be a number, got nan")

    @property
    def step(self) -> Tuple[float, float, float]:
        return self.t, 0.0, 1.0


@dataclass(frozen=True)
class HypothesisTest(TreatmentRule):
    """Treat everyone iff a one-sided size-alpha test on a standardized
    statistic rejects a zero effect, i.e. stat >= z_{1-alpha}.

    The cut is taken from alpha's own tail, -z_alpha: 1 - alpha would lose
    alpha's low bits and round to 1 below about 1.1e-16."""

    alpha: float
    kind = "hypothesis_test"
    direction = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 0.5:
            raise DomainError(f"alpha must lie in (0, 0.5), got {self.alpha}")

    @property
    def critical_value(self) -> float:
        return -std_normal_quantile(self.alpha)

    @property
    def step(self) -> Tuple[float, float, float]:
        return self.critical_value, 0.0, 1.0


@dataclass(frozen=True)
class MinimaxMSR(TreatmentRule):
    """Minimax mean-square-regret rule: the logistic transform
    exp(2*tau_star*u) / (exp(2*tau_star*u) + 1) of u = stat / scale."""

    tau_star: float
    scale: float = 1.0
    kind = "minimax_msr"
    direction = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.tau_star < math.inf:
            raise DomainError(f"tau_star must be positive and finite, got {self.tau_star}")
        if not 0.0 < self.scale < math.inf:
            raise DomainError(f"scale must be positive and finite, got {self.scale}")

    def evaluate(self, stat: Stat) -> Stat:
        u = np.asarray(stat, dtype=float) / self.scale
        if isinstance(u, float):
            return float(expit(2.0 * self.tau_star * u))
        # u is a fresh array: scale it and map it in place
        u *= 2.0 * self.tau_star
        return expit(u, out=u)

    def stat_at(self, q: float) -> float:
        """The logit of q over 2 tau_star, times scale.  expit is 0.0 below
        its floor, so a q at or below its least positive value is crossed
        where the computed fraction first leaves 0: near the floor's
        statistic, moved one float at a time until the fraction there is at
        least q and one float below it is not."""
        if not 0.0 < q < 1.0:
            return -math.inf if q <= 0.0 else math.inf
        if q > _EXPIT_LEAST:
            return self.scale * math.log(q / (1.0 - q)) / (2.0 * self.tau_star)
        y = self.scale * _EXPIT_FLOOR / (2.0 * self.tau_star)
        while self.evaluate(y) < q:
            y = math.nextafter(y, math.inf)
        while self.evaluate(math.nextafter(y, -math.inf)) >= q:
            y = math.nextafter(y, -math.inf)
        return y


def _finite_toward(y: float, z: float) -> float:
    # |y| clamped to the finite nonzero floats, with the sign of z
    return math.copysign(min(max(abs(y), _FLOAT_TINY), _FLOAT_MAX), z)


def _crossing(q: float, probe, far: float, y: float, seen: tuple) -> float:
    """Statistic y+ where a nondecreasing computed fraction f crosses q.

    The crossing lies between y, where seen is probe(y, True) or what it
    would return, and far, where f is not evaluated.  probe(y, newton) gives
    (f(y), step, scale): the Newton step, to y - step, and the distance
    within which the rule cannot tell two statistics apart, both read only
    when newton is True.  The search takes up to _NEWTON_STEPS Newton steps;
    one that moves no float moves one float toward the other side, and one
    within the scale starts a gallop, steps doubling from max(scale, ulp)
    toward the other side.  A point outside the bracket, and every point
    once Newton is spent, is the midpoint.  It stops at adjacent floats
    y- < y+ with f(y-) < q <= f(y+) and returns y+, certified against f's
    own values, not a tolerance.  Where it ends beside far, it checks far;
    while the check fails it pushes far out by at least far's own size and
    scale and starts Newton and the gallop over.  A crossing beyond the
    finite floats gives +-inf.
    """
    f, step, scale = seen
    lo, hi = (far, y) if f >= q else (y, far)
    above = far == hi
    newton, jump = _NEWTON_STEPS, 0.0
    while True:
        if hi == math.nextafter(lo, math.inf):
            if (hi if above else lo) != far:
                return hi
            y = far
            f, step, scale = probe(y, True)
            if (f >= q) == above:
                return hi
            if abs(far) == _FLOAT_MAX:
                return far * math.inf
            far = _finite_toward(abs(far) + max(abs(far), scale), far)
            lo, hi = (y, far) if above else (far, y)
            newton, jump = _NEWTON_STEPS, 0.0
            continue
        if jump or newton and abs(step) <= scale:
            jump = 2.0 * jump if jump else max(scale, math.ulp(y))
            x = y - jump if f >= q else y + jump
        elif not newton:
            x = math.nan
        elif y - step == y:
            x = math.nextafter(y, -math.inf if f >= q else math.inf)
        else:
            newton -= 1
            x = y - step
        if not lo < x < hi:
            x = 0.5 * lo + 0.5 * hi
            if not lo < x < hi:
                x = math.nextafter(lo, math.inf)
        y = x
        f, step, scale = probe(y, not jump and newton > 0)
        lo, hi = (lo, y) if f >= q else (y, hi)


def _bayes_flat_fraction(u):
    """The flat-prior Bayes fraction cdf(u) + u * pdf(u) / (1 + u^2), clipped
    to [0, 1], at a Python float or an array u.

    A float takes np.exp and ndtr as ufuncs, which give it an array
    element's bits, and does the rest on floats in the array path's order,
    at under a third of a 0-d array's cost; its clamp passes a NaN as
    np.maximum and np.minimum do.
    """
    if type(u) is float:
        pdf = float(np.exp(-0.5 * u * u)) / _SQRT2PI
        return min(max(float(ndtr(u)) + u * pdf / (1.0 + u * u), 0.0), 1.0)
    # the cdf and density as ufuncs on the array, with no float round trip;
    # np.clip's wrapper costs more than the arithmetic
    pdf = np.exp(-0.5 * u * u) / _SQRT2PI
    out = ndtr(u) + u * pdf / (1.0 + u * u)
    return np.minimum(np.maximum(out, 0.0), 1.0)


@dataclass(frozen=True)
class BayesFlatMSR(TreatmentRule):
    """Bayes mean-square-regret rule under a flat prior on the effect:
    f(u) = cdf(u) + u * pdf(u) / (1 + u^2) with u = stat / scale
    (_bayes_flat_fraction).

    The form stays finite where cdf(u) underflows, and the classic Mills
    bound keeps the value inside [0, 1] for every finite u.

    stat_at(q) inverts the computed f with the certified crossing search
    (_crossing).  Bracket: since f - cdf has the sign of u, the crossing
    lies between 0, where f is exactly 1/2, and the far end scale * ndtri(q).
    Newton step: the slope f'(u) = 2 pdf(u) / (1 + u^2)^2, on the log of the
    nearer tail's mass far from q.  Scale: 0, so Newton runs until a step
    moves no float.  q = 1/2 gives 0.0, where the symmetry f(-u) = 1 - f(u)
    puts the crossing; a q that no finite statistic reaches, which takes a
    scale near the float maximum, gives +-inf.
    """

    scale: float = 1.0
    kind = "bayes_flat_msr"
    direction = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.scale < math.inf:
            raise DomainError(f"scale must be positive and finite, got {self.scale}")

    def evaluate(self, stat: Stat) -> Stat:
        if isinstance(stat, float) or np.ndim(stat) == 0:
            # a Python float u takes the fraction's float path
            return _bayes_flat_fraction(float(stat) / float(self.scale))
        return _bayes_flat_fraction(np.asarray(stat, dtype=float) / self.scale)

    def stat_at(self, q: float) -> float:
        if not 0.0 < q < 1.0:
            return -math.inf if q <= 0.0 else math.inf
        if q == 0.5:
            return 0.0
        s = float(self.scale)  # so u = x / s takes the fraction's float path
        above = q > 0.5
        z = std_normal_quantile(q)
        far = _finite_toward(s * z, z)
        # Newton aims half an ulp below q, at the edge of the floats that round to q
        half = 0.5 * (q - math.nextafter(q, 0.0))
        tail = 1.0 - q if above else q

        def probe(x: float, newton: bool) -> tuple:
            u = x / s
            fx = _bayes_flat_fraction(u)
            w = 1.0 + u * u
            slope = 2.0 * math.exp(-0.5 * u * u) / (_SQRT2PI * w * w) / s
            g = (fx - q) + half
            m = 1.0 - fx if above else fx
            if not abs(g) <= 0.5 * m:
                # far from q, Newton runs on the log of the nearer tail's mass
                # m, which is near quadratic in u where f is exponentially flat
                g = (-m if above else m) * math.log(m / tail) if m else math.nan
            return fx, g / slope if slope > 0.0 else math.nan, 0.0

        # f(0) is exactly 1/2, and the first step from 0 is to
        # u = z/2 + z^3/48 + ..., which tends to u = z far out
        return _crossing(q, probe, far, 0.0, (0.5, -far * (12.0 + z * z) / (24.0 + z * z), 0.0))


@dataclass(frozen=True)
class PosteriorMatchFlat(TreatmentRule):
    """Posterior probability matching under a flat prior: cdf(stat / scale)."""

    scale: float = 1.0
    kind = "posterior_match_flat"
    direction = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.scale < math.inf:
            raise DomainError(f"scale must be positive and finite, got {self.scale}")

    def evaluate(self, stat: Stat) -> Stat:
        u = np.asarray(stat, dtype=float) / self.scale
        return _match(ndtr(u), stat)

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
    one and distinct, finite locations.  Use from_pairs to normalize raw weights.
    """

    support: Tuple[Tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.support:
            raise DomainError("prior support must be nonempty")
        taus = [t for t, _ in self.support]
        weights = [w for _, w in self.support]
        if not all(math.isfinite(t) for t in taus):
            raise DomainError("prior support points must be finite")
        if len(set(taus)) != len(taus):
            raise DomainError("prior support points must be distinct")
        if any(not w > 0 for w in weights):
            raise DomainError("prior weights must be positive")
        total = sum(weights)
        if abs(total - 1.0) > 1e-8:
            raise DomainError(f"prior weights must sum to 1, got {total}")
        # derived once, since tilted_posterior_match_msr reads them and
        # DiscretePriorBayes reads max|tau| on every call; none is a field,
        # so equality, hashing and to_dict see support alone
        taus, weights = np.array(taus), np.array(weights)
        taus.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "_taus", taus)
        object.__setattr__(self, "_weights", weights)
        object.__setattr__(self, "_two_sided", bool((taus > 0).any() and (taus < 0).any()))
        object.__setattr__(self, "_max_abs_tau", float(np.abs(taus).max()))

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
    statistic value (solve_bayes_foc).

    Construction builds the condition's terms once: the support partitioned
    stably by sign, the negative points, then the positive ones, each in
    support order (points at tau = 0 drop out), with log w_i
    + alpha_g log|tau_i|.  evaluate forms z_i = (y - tau_i / 2) tau_i / sd^2
    + log w_i + alpha_g log|tau_i| with the support on the first axis and
    folds each sign's rows with np.logaddexp one at a time in support order,
    the order np.logaddexp.reduce takes, so log B and log A have its bits,
    infinite and NaN statistics included.

    stat_at(q) inverts the fraction with the certified crossing search
    (_crossing), computing it on Python floats from the rule's own terms in
    evaluate's operation order, which gives the same bits.  The fraction is
    expit(L), 0 or 1 only where expit rounds to them, with the log-odds
    L(y) = (log A - log B) / e, e = alpha_g - 1, whose slope is
    (E_A tau - E_B tau) / (sd^2 e), the means of tau under A's and B's
    weights.  Bracket: the slope lies between (min positive tau - max
    negative tau) / (sd^2 e) and (max tau - min tau) / (sd^2 e), so the
    Newton step from 0 times their ratio bounds the crossing: the far end.
    Newton step: L aimed at the logit of the lower edge of the floats that
    round to q, exact at once for a two-point prior, whose L is linear.
    expit is 0.0 below its floor L = -log(max float) = -709.78, where
    exp(-L) overflows, and about 5.5627e-309 at it, so a q at or below that
    value aims at the floor.  Scale: the rounding of the z_i and of that
    logit, over the slope.  A q outside (0, 1), or a crossing beyond the
    finite floats, gives +-inf.  Raises PriorSupportError for a one-sided
    prior, and DomainError when noise_sd**2 is 0 or not finite or a fraction
    is NaN, where a crossing cannot be certified; a rule with such a prior
    or noise_sd constructs, and evaluate refuses it as stat_at does.
    Construction raises DomainError for an alpha_g that carries a term
    alpha_g log|tau_i| past the float range.
    """

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
        # an infinite alpha_g would make alpha_g log|tau| NaN at |tau| = 1
        if self.alpha_g == math.inf:
            raise DomainError(f"alpha_g must be finite, got {self.alpha_g}")
        # the condition's terms, with tau_i / 2, as arrays for evaluate and
        # as (tau_i, log term) float pairs for stat_at; none is a field, so
        # equality, hashing, repr, to_dict and pickling see the fields alone
        support = [p for p in self.prior.support if p[0] < 0]
        object.__setattr__(self, "_m", len(support))
        support += [p for p in self.prior.support if p[0] > 0]
        taus = np.array([t for t, _ in support])
        logs = np.log(np.abs(taus))
        # a term alpha_g log|tau| past the float range would make the log sums
        # infinite and the fraction NaN.  |log|tau|| is at most 745, so only
        # an alpha_g past 2e305 can get there; the largest |log|tau|| gets
        # there first, and a product of Python floats does without a warning
        if self.alpha_g > 2e305:
            big, tau = max(zip(map(abs, logs.tolist()), taus.tolist()), default=(0.0, 0.0))
            if not math.isfinite(float(self.alpha_g) * big):
                raise DomainError(f"alpha_g log|tau| must be finite, got alpha_g = "
                                  f"{self.alpha_g} at tau = {tau}")
        log_terms = np.log(np.array([w for _, w in support])) + self.alpha_g * logs
        object.__setattr__(self, "_taus", taus)
        object.__setattr__(self, "_halves", 0.5 * taus)
        object.__setattr__(self, "_log_terms", log_terms)
        object.__setattr__(self, "_pairs", tuple(zip(taus.tolist(), log_terms.tolist())))

    def evaluate(self, stat: Stat) -> Stat:
        _require_two_sided(self.prior)
        var = _variance(self.noise_sd)
        y = np.asarray(stat, dtype=float)
        shape = (-1,) + (1,) * y.ndim
        z = y - self._halves.reshape(shape)
        z *= self._taus.reshape(shape)
        z /= var
        z += self._log_terms.reshape(shape)
        # each sign folded one row at a time in support order, the order
        # np.logaddexp.reduce takes, without its cost
        m = self._m
        log_b, log_a = z[0], z[m]
        for i in range(1, m):
            log_b = np.logaddexp(log_b, z[i])
        for i in range(m + 1, len(z)):
            log_a = np.logaddexp(log_a, z[i])
        delta = expit((log_a - log_b) / (self.alpha_g - 1.0))
        if self.prior._max_abs_tau**2 >= var * _FLOAT_MAX:
            nan = np.isnan(delta)
            if nan.any() and not np.isnan(y[nan]).all():
                raise DomainError(f"the Bayes fraction is NaN at a statistic that is a number: "
                                  f"at noise_sd**2 = {var!r} both of its log sums are -inf")
        return _match(delta, stat)

    def stat_at(self, q: float) -> float:
        if not 0.0 < q < 1.0:
            return -math.inf if q <= 0.0 else math.inf
        _require_two_sided(self.prior)
        var = _variance(self.noise_sd)
        e = self.alpha_g - 1.0
        m, pairs = self._m, self._pairs
        taus = [t for t, _ in pairs]
        gap = min(taus[m:]) - max(taus[:m])
        span = max(taus[m:]) - min(taus[:m])
        # sd^2 z_i = tau_i (y - tau_i / 2) + sd^2 log_term_i is at most this
        # plus |y| top in size, which sets the rounding scale of z
        top = self.prior._max_abs_tau
        z_floor = 0.5 * top * top + var * max(abs(lt) for _, lt in pairs)
        if q <= _EXPIT_LEAST:
            # the fraction steps from 0 to its least positive value at the
            # floor, so it crosses every q up to that value there
            width, target = 0.0, _EXPIT_FLOOR
        else:
            # Newton aims at the lower edge of the floats that round to q;
            # width is the log-odds between two floats there
            width = (q - math.nextafter(q, 0.0)) / (q * (1.0 - q))
            target = math.log(q / (1.0 - q)) - 0.5 * width

        def probe(y: float, newton: bool) -> tuple:
            # the fraction at y, in evaluate's operation order and fold, and,
            # for Newton, the step to the target and the rounding scale of L
            # on the statistic; sd^2 multiplies rather than divides, so
            # neither overflows where z does
            z = [(y - 0.5 * t) * t / var + lt for t, lt in pairs]
            log_a, log_b = reduce(np.logaddexp, z[m:]), reduce(np.logaddexp, z[:m])
            log_odds = (log_a - log_b) / e
            f = float(expit(log_odds))
            if f != f:
                raise DomainError(f"{self!r} is NaN at {y!r}, so no crossing of {q!r} "
                                  "can be certified")
            if not newton:
                return f, math.nan, math.nan
            # E_A tau - E_B tau, sd^2 e times the slope of L
            spread = sum(t * math.exp(zi - log_a) for t, zi in zip(taus[m:], z[m:]))
            spread -= sum(t * math.exp(zi - log_b) for t, zi in zip(taus[:m], z[:m]))
            scale = (_EPS * (abs(y) * top + z_floor) + e * width * var) / spread
            return f, float(log_odds - target) * (e * var / spread), scale

        seen = f, step, scale = probe(0.0, True)
        # the crossing lies below 0 where f(0) >= q, else above; far is the
        # farthest crossing the slope bounds allow, a few rounding scales out
        side = -1.0 if f >= q else 1.0
        reach = max(0.0, -side * step * span / gap) * _WIDEN + max(0.0, 4.0 * scale)
        return _crossing(q, probe, _finite_toward(reach, side), 0.0, seen)


def _require_two_sided(prior: DiscretePrior) -> None:
    # points at tau = 0 contribute no regret and drop out of the condition
    if not prior.two_sided:
        raise PriorSupportError("prior mass must be positive on both {tau > 0} and {tau < 0}")


def _variance(noise_sd: float) -> float:
    # noise_sd**2, which the log-odds divide by, refused where it is 0 or
    # overflows, rather than giving a NaN fraction or Python's OverflowError
    try:
        var = noise_sd**2
    except OverflowError:
        var = math.inf
    if not 0.0 < var < math.inf:
        raise DomainError(f"noise_sd**2 is {var!r} at noise_sd {noise_sd!r}; the Bayes "
                          "fraction needs a positive, finite variance")
    return var


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
    so neither side underflows).  The rule is increasing in the statistic:
    d/dy (log A - log B) equals the mean of tau under A's weights minus the
    mean of tau under B's weights, over sd^2, which is positive because A
    puts all its weight on tau > 0 and B on tau < 0 (the monotone
    likelihood ratio of the Gaussian location family).

    This is DiscretePriorBayes(prior, alpha_g, noise_sd).evaluate(stat): the
    rule builds the terms log w_i + alpha_g log|tau_i| once, and its evaluate
    folds each sign's log-sum.  Accepts a float or an ndarray statistic and
    returns the matching type.  Raises DomainError for alpha_g <= 1 or
    infinite and for noise_sd <= 0, then PriorSupportError when the prior
    mass is one-sided, then DomainError for noise_sd**2 that is 0 or
    overflows and for a NaN fraction at a statistic that is not NaN.  That
    takes log A = log B = -inf, every z_i overflowed to -inf, which needs
    max|tau|^2 of at least 2 sd^2 times the largest float up to rounding;
    evaluate looks for NaNs only from sd^2 times the largest float on, so
    the common case pays one comparison.
    """
    return DiscretePriorBayes(prior, alpha_g, noise_sd).evaluate(stat)


def tilted_posterior_match_msr(
    prior: DiscretePrior, noise_sd: float, stat: float
) -> float:
    """Closed-form mean-square-regret Bayes rule for a finitely supported
    prior: the tau^2-tilted posterior probability of a nonnegative effect,

        sum_{tau_i >= 0} w_i(stat) tau_i^2 / sum_i w_i(stat) tau_i^2.

    Agrees with solve_bayes_foc at alpha_g = 2 within 2e-15 (1e-12 relative
    below 1/2) out to |y| = 12, also where the posterior piles on a support
    point at 0.  Raises DomainError as solve_bayes_foc does for noise_sd**2
    that is 0 or overflows, and for a NaN at a statistic that is not NaN,
    where every tilted weight is 0.
    """
    if not noise_sd > 0:
        raise DomainError(f"noise_sd must be positive, got {noise_sd}")
    _require_two_sided(prior)
    _variance(noise_sd)
    # log w_i(stat) tau_i^2 over tau_i != 0, normalized by its own maximum,
    # since the largest posterior weight may sit at tau = 0, where the tilt
    # is 0
    nonzero = prior.taus != 0.0
    taus = prior.taus[nonzero]
    log_tilt = (np.log(prior.weights[nonzero]) + 2.0 * np.log(np.abs(taus))
                - 0.5 * ((stat - taus) / noise_sd) ** 2)
    tilt = np.exp(log_tilt - log_tilt.max())
    out = float(tilt[taus > 0].sum() / tilt.sum())
    if out != out and stat == stat:
        raise DomainError(f"the tilted posterior probability is NaN at {stat!r}: at noise_sd "
                          f"{noise_sd!r} every tau^2-tilted posterior weight is 0")
    return out


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
    lambda d: DiscretePrior(tuple((float_value(t), float_value(w)) for t, w in d)),
)
