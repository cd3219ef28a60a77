"""Rule evaluation: reference grid values, invariants, and the Bayes solver."""
import importlib.util
import json
import math
import pathlib
import re
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import expit

import msregret.rules as rules_module
import oracles
from msregret import (
    BayesFlatMSR,
    ComplementMix,
    DiscretePrior,
    DiscretePriorBayes,
    DomainError,
    EmpiricalSuccess,
    GaussianExperiment,
    HypothesisTest,
    MinimaxMSR,
    PosteriorMatchFlat,
    PriorSupportError,
    RngSeed,
    Threshold,
    TreatmentRule,
    exact_risk,
    rule_from_dict,
    rule_to_dict,
    simulate,
    solve_bayes_foc,
    std_normal_cdf,
    tail_probability,
    tilted_posterior_match_msr,
    worst_case_msr,
)
from msregret.risk import _unit_worst

TAU_STAR = 1.22814
YBAR_GRID = (0.0, 0.2533, 0.5244, 0.8416, 1.2816, 1.6449, 2.3263)

# frozen from oracles.py at the shipped calibration constant
MINIMAX_COLUMN = (
    0.5,
    0.6507132211584851,
    0.7838208851576539,
    0.8876746029563803,
    0.9588285983214327,
    0.9827125350585159,
    0.9967115469943922,
)
BAYES_COLUMN = (
    0.5,
    0.6919432077511519,
    0.8430043075778093,
    0.9379215065283509,
    0.9851191239138508,
    0.9957815743951182,
    0.9996698030497814,
)
POST_MATCH_COLUMN = (
    0.5,
    0.5999818019466037,
    0.699999821735177,
    0.7999940553550331,
    0.9000084999023248,
    0.9500047825316537,
    0.9899987239832013,
)

ALL_SMOOTH = [
    MinimaxMSR(tau_star=TAU_STAR),
    BayesFlatMSR(),
    PosteriorMatchFlat(),
]
ALL_STEP = [EmpiricalSuccess(), Threshold(t=0.7), HypothesisTest(alpha=0.05)]

finite_stats = st.floats(min_value=-50.0, max_value=50.0)


class TestReferenceGrid:
    def test_minimax_column(self):
        rule = MinimaxMSR(tau_star=TAU_STAR)
        for y, want in zip(YBAR_GRID, MINIMAX_COLUMN):
            assert abs(rule.evaluate(y) - want) < 1e-12

    def test_bayes_flat_column(self):
        rule = BayesFlatMSR()
        for y, want in zip(YBAR_GRID, BAYES_COLUMN):
            assert abs(rule.evaluate(y) - want) < 1e-12

    def test_posterior_match_column(self):
        rule = PosteriorMatchFlat()
        for y, want in zip(YBAR_GRID, POST_MATCH_COLUMN):
            assert abs(rule.evaluate(y) - want) < 1e-12


class TestStepRules:
    def test_empirical_success_steps_at_zero(self):
        rule = EmpiricalSuccess()
        assert rule.evaluate(-1e-12) == 0.0
        assert rule.evaluate(0.0) == 1.0
        assert rule.evaluate(3.0) == 1.0

    def test_threshold_steps_at_t(self):
        rule = Threshold(t=0.7)
        assert rule.evaluate(0.699) == 0.0
        assert rule.evaluate(0.7) == 1.0

    def test_threshold_refuses_nan_and_keeps_the_infinite_cuts(self):
        with pytest.raises(DomainError):
            Threshold(t=math.nan)
        assert Threshold(t=math.inf).evaluate(1e308) == 0.0
        assert Threshold(t=-math.inf).evaluate(-1e308) == 1.0

    def test_hypothesis_test_critical_value(self):
        rule = HypothesisTest(alpha=0.05)
        crit = 1.6448536269514722
        assert abs(rule.critical_value - crit) < 1e-12
        assert rule.evaluate(crit - 1e-9) == 0.0
        assert rule.evaluate(crit + 1e-9) == 1.0

    def test_step_rules_inherit_evaluate_from_their_step(self):
        stat = np.array([-1.0, -1e-12, 0.0, 0.4, 1.6448536269514722, 2.0])
        for rule in (EmpiricalSuccess(), Threshold(t=0.4), HypothesisTest(alpha=0.05)):
            assert "evaluate" not in vars(type(rule))
            cut, lo, hi = rule.step
            assert rule.evaluate(stat).tolist() == np.where(stat >= cut, hi, lo).tolist()
            assert type(rule.evaluate(0.4)) is float

    def test_a_rule_with_neither_evaluate_nor_step_is_refused(self):
        with pytest.raises(NotImplementedError):
            TreatmentRule().evaluate(0.0)

    def test_hypothesis_test_rejects_bad_size(self):
        for alpha in (0.0, 0.5, 0.7, -0.1):
            with pytest.raises(DomainError):
                HypothesisTest(alpha=alpha)


class TestMinimaxRule:
    def test_center_is_half(self):
        assert MinimaxMSR(tau_star=TAU_STAR).evaluate(0.0) == 0.5

    def test_matches_logistic_form(self):
        rule = MinimaxMSR(tau_star=TAU_STAR)
        ys = np.linspace(-6, 6, 121)
        assert np.max(np.abs(rule.evaluate(ys) - expit(2 * TAU_STAR * ys))) == 0.0

    def test_scale_divides_the_statistic(self):
        raw = MinimaxMSR(tau_star=TAU_STAR, scale=2.0)
        unit = MinimaxMSR(tau_star=TAU_STAR)
        assert abs(raw.evaluate(3.0) - unit.evaluate(1.5)) < 1e-15

    def test_validation(self):
        for tau_star in (0.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                MinimaxMSR(tau_star=tau_star)
        with pytest.raises(DomainError):
            MinimaxMSR(tau_star=TAU_STAR, scale=0.0)

    @given(finite_stats)
    def test_complement_symmetry(self, y):
        rule = MinimaxMSR(tau_star=TAU_STAR)
        assert abs(rule.evaluate(y) + rule.evaluate(-y) - 1.0) < 1e-12

    # at scale 1.5504616806973683 the floor's statistic evaluates to 0.0 and
    # the crossing is one float above it
    @pytest.mark.parametrize("scale", [1.0, 0.2, 5.0, 1.5504616806973683])
    @pytest.mark.parametrize("q", [5e-324, 1e-310, rules_module._EXPIT_LEAST])
    def test_a_q_at_or_below_the_least_fraction_crosses_where_it_leaves_0(self, scale, q):
        # expit is 0.0 below its floor, so the logit of such a q lies where
        # the computed fraction is still 0
        rule = MinimaxMSR(tau_star=TAU_STAR, scale=scale)
        y = rule.stat_at(q)
        assert rule.evaluate(math.nextafter(y, -math.inf)) == 0.0
        assert rule.evaluate(y) >= q
        assert y == rule.stat_at(rules_module._EXPIT_LEAST)
        assert abs(y - scale * rules_module._EXPIT_FLOOR / (2.0 * TAU_STAR)) <= 2.0 * math.ulp(y)

    def test_every_q_above_the_least_fraction_is_the_scaled_logit(self):
        rng = np.random.default_rng(40)
        qs = [float(q) for q in rng.uniform(0.0, 1.0, 200)]
        qs += [float(q) for q in 10.0 ** rng.uniform(-308.0, -1.0, 200)]
        qs += [math.nextafter(rules_module._EXPIT_LEAST, 1.0), 1.0 - 2.0**-53]
        for scale in (1.0, 0.2, 5.0, *rng.uniform(0.1, 10.0, 3).tolist()):
            rule = MinimaxMSR(tau_star=TAU_STAR, scale=scale)
            for q in qs:
                want = scale * math.log(q / (1.0 - q)) / (2.0 * TAU_STAR)
                assert rule.stat_at(q) == want, (scale, q)


class TestBayesFlatRule:
    def test_center_is_half(self):
        assert BayesFlatMSR().evaluate(0.0) == 0.5

    def test_matches_published_form(self):
        # cdf(u) * (1 + u * psi(u)) without the stabilized rearrangement
        rule = BayesFlatMSR()
        for u in np.linspace(-8.0, 8.0, 81):
            direct = oracles.cdf(u) * (1.0 + u * oracles.psi(u))
            assert abs(rule.evaluate(float(u)) - direct) < 1e-12

    def test_stays_in_unit_interval_far_out(self):
        rule = BayesFlatMSR()
        ys = np.array([-300.0, -40.0, -10.0, 10.0, 40.0, 300.0])
        vals = rule.evaluate(ys)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)

    @given(finite_stats)
    def test_complement_symmetry(self, y):
        rule = BayesFlatMSR()
        assert abs(rule.evaluate(y) + rule.evaluate(-y) - 1.0) < 1e-10

    def test_shades_toward_posterior_match_tail(self):
        # the variance tilt pulls the fraction above plain probability
        # matching for positive statistics
        bayes = BayesFlatMSR()
        post = PosteriorMatchFlat()
        for y in (0.5, 1.0, 2.0, 3.0):
            assert bayes.evaluate(y) > post.evaluate(y)
            assert bayes.evaluate(-y) < post.evaluate(-y)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_float_statistic_takes_the_float_path_with_the_arrays_bits(self):
        # the reference is the array path on a numpy scalar, which a float
        # statistic took before; it warns on overflow, the float path does not
        rng = np.random.default_rng(1901)
        edges = [0.0, -0.0, 1e-310, -1e-310, 1e308, -1e308, math.inf, -math.inf, math.nan]
        stats = edges + (4.0 * rng.standard_normal(20_000)).tolist()
        stats += rng.uniform(-40.0, 40.0, 20_000).tolist()
        fraction = rules_module._bayes_flat_fraction
        for scale, ys in ((1.0, stats), (0.7, stats[:1000])):
            rule = BayesFlatMSR(scale)
            for y in ys:
                got = rule.evaluate(y)
                want = fraction(np.float64(y) / scale)
                assert type(got) is float and np.float64(got).tobytes() == want.tobytes(), y
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert BayesFlatMSR().evaluate(1e308) == 1.0
            assert BayesFlatMSR().evaluate(-1e308) == 0.0

    @pytest.mark.parametrize("stat", [0.3, np.float64(0.3), np.array(0.3), np.float32(0.3), 2])
    def test_a_0d_statistic_takes_the_float_path(self, stat):
        seen = []
        fraction = rules_module._bayes_flat_fraction
        with mock.patch.object(rules_module, "_bayes_flat_fraction",
                               side_effect=lambda u: seen.append(type(u)) or fraction(u)):
            got = BayesFlatMSR(np.float64(2.0)).evaluate(stat)
        assert seen == [float] and type(got) is float
        assert got == float(BayesFlatMSR(2.0).evaluate(np.array([stat], dtype=float))[0])


def _bayes_flat_reference(u):
    # the published form through the public cdf and the oracle density, clipped
    out = std_normal_cdf(u) + u * oracles.phi(u) / (1.0 + u * u)
    return np.clip(out, 0.0, 1.0)


# each smooth rule against its formula spelled through the public helpers:
# the rules skip those helpers' wrappers, and must give the same bits
REFERENCE_FORMS = [
    (lambda s: MinimaxMSR(TAU_STAR, s), lambda u: expit(2.0 * TAU_STAR * u)),
    (BayesFlatMSR, _bayes_flat_reference),
    (PosteriorMatchFlat, std_normal_cdf),
]
EXTREME_STATS = np.array(
    [0.0, -0.0, 5e-324, -5e-324, 1e-300, 0.3, -0.3, 8.5, -8.5, 38.0, -38.0, 1e3, -1e3,
     1e300, -1e300, np.inf, -np.inf, np.nan]
)


class TestScaledFlatRules:
    @pytest.mark.parametrize("cls", [MinimaxMSR, BayesFlatMSR, PosteriorMatchFlat])
    @pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf])
    def test_a_scale_that_is_not_positive(self, cls, scale):
        # an infinite scale would make each rule the constant 1/2
        args = (TAU_STAR,) if cls is MinimaxMSR else ()
        with pytest.raises(DomainError, match=f"^scale must be positive and finite, got {scale}$"):
            cls(*args, scale=scale)


class TestReferenceForms:
    @pytest.mark.parametrize("make, form", REFERENCE_FORMS)
    @pytest.mark.parametrize("scale", [1.0, 0.3, 7.0])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_arrays_bit_for_bit(self, make, form, scale):
        ys = np.concatenate([np.linspace(-60.0, 60.0, 4801), EXTREME_STATS])
        kept = ys.copy()
        got = make(scale).evaluate(ys)
        assert got.tobytes() == np.asarray(form(ys / scale), dtype=float).tobytes()
        assert ys.tobytes() == kept.tobytes()  # the statistic is not written to
        grid = ys[:4800].reshape(60, 80)
        assert make(scale).evaluate(grid).tobytes() == form(grid / scale).tobytes()

    @pytest.mark.parametrize("make, form", REFERENCE_FORMS)
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_scalars_are_floats_bit_for_bit(self, make, form):
        rule = make(0.3)
        for y in EXTREME_STATS.tolist():
            want = np.float64(form(np.float64(y) / 0.3)).tobytes()
            for stat in (y, np.float64(y), np.array(y)):
                got = rule.evaluate(stat)
                assert type(got) is float and np.float64(got).tobytes() == want, stat
        assert type(rule.evaluate(2)) is float


def _assert_float_is_array(u):
    got = rules_module._bayes_flat_fraction(u)
    want = BayesFlatMSR().evaluate(np.array([u]))[0]
    assert np.float64(got).tobytes() == want.tobytes(), u


def _assert_certified(rule, q):
    # the computed fraction is below q one float before the crossing and not
    # below it at the crossing
    y = rule.stat_at(q)
    f = rules_module._bayes_flat_fraction
    assert type(y) is float and math.isfinite(y), (rule, q, y)
    assert f(math.nextafter(y, -math.inf) / rule.scale) < q <= f(y / rule.scale), (rule, q, y)


class TestBayesFlatInverse:
    # the one formula on a Python float gives the bits of a 1-element array
    @settings(max_examples=300)
    @given(st.floats(allow_nan=False))
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_fraction_of_a_float_is_the_arrays_bits(self, u):
        _assert_float_is_array(u)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_fraction_of_a_float_is_the_arrays_bits_at_the_edges(self):
        for u in (0.0, 5e-324, 2.0e-308, 1e-300, 1e154, 1.5e154, 1e308, math.inf):
            _assert_float_is_array(u)
            _assert_float_is_array(-u)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_float_branch_is_the_array_path_on_a_seeded_sweep(self):
        # a Python float takes its own branch; it must give a one-element
        # array's bits, NaN included (the fraction is NaN at +-inf)
        rng = np.random.default_rng(19)
        size = 10.0 ** rng.uniform(-300.0, math.log10(40.0), 2000)
        us = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -2.5e-310, math.inf, -math.inf, math.nan]
        us += (size * rng.choice([-1.0, 1.0], size.size)).tolist()
        f = rules_module._bayes_flat_fraction
        nans = 0
        for u in us:
            got, want = f(u), f(np.array([u]))[0]
            assert type(got) is float, u
            assert np.float64(got).tobytes() == want.tobytes(), u
            nans += math.isnan(got)
        assert nans == 3

    def test_crossing_is_certified(self):
        rng = np.random.default_rng(20261019)
        qs = [0.5 - 2.0**-54, 0.5 + 2.0**-53, 1e-15, 1.0 - 1e-15, 5e-324, 1e-300,
              2.0**-53, 1.0 - 2.0**-53, 0.3, 0.9]
        qs += [float(q) for q in rng.uniform(0.0, 1.0, 40)]
        qs += [float(q) for q in 10.0 ** rng.uniform(-15.5, -1.0, 20)]
        qs += [1.0 - float(d) for d in 10.0 ** rng.uniform(-15.5, -1.0, 20)]
        scales = [1.0, 0.2, 5.0, 1e-300, 1e300] + [float(s) for s in rng.uniform(0.2, 5.0, 3)]
        for scale in scales:
            for q in qs:
                _assert_certified(BayesFlatMSR(scale), q)

    def test_half_the_edges_and_the_unreachable(self):
        for scale in (1.0, 3.0, 5e-324):
            rule = BayesFlatMSR(scale)
            # the symmetry f(-u) = 1 - f(u) puts the crossing of 1/2 at 0
            assert rule.stat_at(0.5) == 0.0
            assert rule.stat_at(0.0) == rule.stat_at(-0.1) == -math.inf
            assert rule.stat_at(1.0) == rule.stat_at(1.5) == math.inf
        # on the subnormal scale, statistics step by whole multiples of it
        _assert_certified(BayesFlatMSR(5e-324), 0.9)
        # u = y / scale stays within +-1.06 on the finite floats, where f
        # runs from 0.031 to 0.969
        rule = BayesFlatMSR(1.7e308)
        assert rule.stat_at(0.99) == math.inf and rule.stat_at(0.01) == -math.inf
        _assert_certified(rule, 0.6)
        _assert_certified(rule, 0.2)

    def test_matches_the_mpmath_crossing(self):
        # within the old Brent tolerance wherever the computed fraction is
        # well conditioned; nearer 0 and 1 only the certification holds
        rng = np.random.default_rng(14)
        for q, scale in zip(rng.uniform(1e-3, 1.0 - 1e-3, 60), rng.uniform(0.2, 5.0, 60)):
            y = BayesFlatMSR(float(scale)).stat_at(float(q))
            want = float(scale * oracles.bayes_flat_cut_mp(float(q)))
            assert abs(y - want) <= 1e-12 * max(1.0, abs(want)), (q, scale, y, want)

    def test_where_the_computed_fraction_wobbles_the_crossing_keeps_its_float(self):
        # the computed fraction is not monotone over a few floats here, so
        # more than one adjacent pair straddles q and the search path picks
        # the one returned; a Newton step below one float moves one float,
        # and these are the crossings that path has always reached
        for scale, q, want in ((1.0, "0x1.d14097c45b200p-9", "-0x1.b176dea8607c2p+0"),
                               (1.0, "0x1.ee001978669c8p-4", "-0x1.3cd7e6673ac08p-1"),
                               (5.0, "0x1.855aca9cbdc89p-18", "-0x1.068781a1a8e0dp+4"),
                               (1e-300, "0x1.855aca9cbdc89p-18", "-0x1.194d6bea733bcp-995")):
            rule = BayesFlatMSR(scale)
            assert rule.stat_at(float.fromhex(q)).hex() == want
            _assert_certified(rule, float.fromhex(q))


class TestPsi:
    def test_positive_everywhere(self):
        xs = np.linspace(-30.0, 30.0, 301)
        assert np.all(oracles.psi(xs) > 0.0)

    def test_matches_naive_form_where_stable(self):
        for x in np.linspace(-5.0, 5.0, 41):
            naive = oracles.phi(x) / (oracles.cdf(x) * (1.0 + x * x))
            assert abs(oracles.psi(float(x)) - naive) < 1e-12


class TestComplementMix:
    def test_pointwise_mixture(self):
        base = Threshold(t=0.0)
        mix = ComplementMix(base=base, lam=0.2)
        assert mix.evaluate(1.0) == 0.8
        assert mix.evaluate(-1.0) == 0.2

    def test_weight_validation(self):
        with pytest.raises(DomainError):
            ComplementMix(base=EmpiricalSuccess(), lam=0.0)
        with pytest.raises(DomainError):
            ComplementMix(base=EmpiricalSuccess(), lam=1.0)

    def test_declared_step_and_direction(self):
        assert ComplementMix(base=BayesFlatMSR(), lam=0.3).direction == 1
        assert ComplementMix(base=BayesFlatMSR(), lam=0.7).direction == -1
        assert ComplementMix(base=BayesFlatMSR(), lam=0.3).step is None
        assert ComplementMix(base=Threshold(t=0.2), lam=0.1).step == (0.2, 0.1, 0.9)
        # a half-half mixture is the constant 1/2 whatever its base
        assert ComplementMix(base=MinimaxMSR(tau_star=TAU_STAR), lam=0.5).step == (
            0.0, 0.5, 0.5)

    @given(finite_stats, st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
    def test_range_preserved(self, y, lam):
        mix = ComplementMix(base=BayesFlatMSR(), lam=lam)
        v = mix.evaluate(y)
        assert 0.0 <= v <= 1.0

    def test_a_half_half_mixture_has_no_inverse(self):
        # the constant 1/2 takes every q or none, so it names no crossing
        mix = ComplementMix(base=BayesFlatMSR(), lam=0.5)
        assert mix.stat_at(0.3) is None
        assert mix.stat_at(0.5) is None


class TestRangeInvariant:
    @given(finite_stats)
    def test_every_rule_maps_into_unit_interval(self, y):
        for rule in ALL_SMOOTH + ALL_STEP:
            v = rule.evaluate(y)
            assert 0.0 <= v <= 1.0

    def test_monotone_in_the_statistic(self):
        ys = np.linspace(-10.0, 10.0, 400)
        for rule in ALL_SMOOTH + ALL_STEP:
            vals = np.asarray(rule.evaluate(ys))
            assert np.all(np.diff(vals) >= -1e-12)

    def test_declared_direction_holds(self):
        ys = np.linspace(-10.0, 10.0, 400)
        prior = DiscretePrior.from_pairs([(-1.0, 1.0), (1.0, 1.0), (2.0, 0.5)])
        rules = ALL_SMOOTH + ALL_STEP + [
            ComplementMix(base=BayesFlatMSR(), lam=0.7),
            ComplementMix(base=Threshold(t=0.3), lam=0.9),
            ComplementMix(base=MinimaxMSR(tau_star=TAU_STAR), lam=0.2),
            DiscretePriorBayes(prior=prior, alpha_g=1.5, noise_sd=1.0),
        ]
        for rule in rules:
            vals = rule.direction * np.asarray(rule.evaluate(ys))
            assert np.all(np.diff(vals) >= -1e-12)


class TestDiscretePrior:
    def test_from_pairs_normalizes(self):
        prior = DiscretePrior.from_pairs([(1.0, 2.0), (-1.0, 2.0)])
        assert prior.support == ((1.0, 0.5), (-1.0, 0.5))

    def test_rejects_unnormalized_direct_construction(self):
        with pytest.raises(DomainError):
            DiscretePrior(((1.0, 0.5), (-1.0, 0.6)))

    def test_rejects_duplicates_and_bad_weights(self):
        with pytest.raises(DomainError):
            DiscretePrior.from_pairs([(1.0, 0.5), (1.0, 0.5)])
        with pytest.raises(DomainError):
            DiscretePrior.from_pairs([(1.0, 0.0), (-1.0, 0.0)])
        with pytest.raises(DomainError):
            DiscretePrior(())

    def test_rejects_a_weight_that_is_not_positive(self):
        # the weights sum to 1, so only the sign check refuses them
        with pytest.raises(DomainError, match="^prior weights must be positive$"):
            DiscretePrior(((1.0, 1.5), (-1.0, -0.5)))

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
    def test_rejects_a_support_point_that_is_not_finite(self, tau):
        with pytest.raises(DomainError, match="finite"):
            DiscretePrior.from_pairs([(-1.0, 0.5), (tau, 0.2), (1.0, 0.3)])
        with pytest.raises(DomainError, match="finite"):
            DiscretePrior(((-1.0, 0.5), (tau, 0.5)))

    def test_two_sided_flag(self):
        assert DiscretePrior.from_pairs([(1.0, 1.0), (-2.0, 1.0)]).two_sided
        assert not DiscretePrior.from_pairs([(1.0, 1.0), (2.0, 1.0)]).two_sided

    def test_arrays_are_stored_read_only_and_outside_equality(self):
        prior = DiscretePrior.from_pairs([(-1.0, 1.0), (2.0, 3.0)])
        assert prior.taus is prior.taus
        assert prior.taus.tolist() == [-1.0, 2.0]
        assert prior.weights.tolist() == [0.25, 0.75]
        with pytest.raises(ValueError):
            prior.weights[0] = 0.5
        twin = DiscretePrior(((-1.0, 0.25), (2.0, 0.75)))
        assert twin == prior and hash(twin) == hash(prior)
        assert "taus" not in repr(prior)


def _inverse_probe(rule, q=0.5):
    # the probe that rule.stat_at(q) hands the shared crossing search: the
    # rule's fraction on Python floats, its Newton step and its scale
    probes = []
    search = rules_module._crossing

    def spy(q, probe, *args):
        probes.append(probe)
        return search(q, probe, *args)

    with mock.patch.object(rules_module, "_crossing", spy):
        rule.stat_at(q)
    return probes[0]


class TestBayesFoc:
    def test_symmetric_two_point_equals_logistic(self):
        # the posterior odds are exp(2 tau s / sd^2), so the solution is the
        # logistic transform in closed form
        for tau in (0.5, 1.0, TAU_STAR, 2.0):
            prior = DiscretePrior.from_pairs([(tau, 0.5), (-tau, 0.5)])
            for s in np.linspace(-3.0, 3.0, 25):
                got = solve_bayes_foc(prior, 2.0, 1.0, float(s))
                want = float(expit(2.0 * tau * s))
                assert abs(got - want) < 1e-10

    def test_scaled_noise_two_point(self):
        prior = DiscretePrior.from_pairs([(1.0, 0.5), (-1.0, 0.5)])
        got = solve_bayes_foc(prior, 2.0, 2.0, 1.0)
        assert abs(got - float(expit(2.0 * 1.0 / 4.0))) < 1e-10

    def test_closed_form_agreement_randomized(self):
        rng = np.random.default_rng(20260819)
        for _ in range(100):
            k_pos = int(rng.integers(1, 3))
            k_neg = int(rng.integers(1, 3))
            taus = np.concatenate(
                [rng.uniform(0.1, 3.0, k_pos), -rng.uniform(0.1, 3.0, k_neg)]
            )
            weights = rng.uniform(0.1, 1.0, taus.size)
            prior = DiscretePrior.from_pairs(zip(taus, weights))
            sd = float(rng.uniform(0.3, 2.0))
            s = float(rng.uniform(-3.0, 3.0))
            foc = solve_bayes_foc(prior, 2.0, sd, s)
            tilt = tilted_posterior_match_msr(prior, sd, s)
            assert abs(foc - tilt) < 1e-10

    @pytest.mark.parametrize("pairs", [[(-1.0, 1.0), (1.0, 1.0), (2.0, 0.5)],
                                       [(-1.3, 0.3), (-0.4, 0.2), (0.6, 0.35), (1.9, 0.15)],
                                       [(-1.0, 0.3), (0.0, 0.4), (1.5, 0.3)]])
    @pytest.mark.parametrize("sd", [1.0, 0.5, 0.3])
    def test_the_two_squared_regret_forms_agree_in_the_tails(self, pairs, sd):
        # out to |y| = 12, where the tilted fraction falls to 4e-148, the
        # closed form stays within 7.8e-16 of it, and within 3.5e-13 relative
        # below 1/2
        prior = DiscretePrior.from_pairs(pairs)
        stats = np.linspace(-12.0, 12.0, 961)
        foc = solve_bayes_foc(prior, 2.0, sd, stats)
        tilt = np.array([tilted_posterior_match_msr(prior, sd, y) for y in stats.tolist()])
        gap = np.abs(foc - tilt)
        assert gap.max() <= 2e-15, (pairs, sd, gap.max())
        low = tilt < 0.5
        assert (gap[low] / tilt[low]).max() <= 1e-12, (pairs, sd)

    def test_tilted_frozen_anchor(self):
        prior = DiscretePrior.from_pairs([(2.0, 0.5), (-1.0, 0.5)])
        got = tilted_posterior_match_msr(prior, 1.0, 0.0)
        assert abs(got - 0.4716041777561374) < 1e-12

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("sd, match", [
        (1e-170, "noise_sd"),  # noise_sd**2 underflows to 0
        (1e-160, "NaN"),  # every ((stat - tau) / sd)^2 overflows
    ])
    def test_tilted_refuses_an_unusable_variance(self, sd, match):
        prior = DiscretePrior.from_pairs([(-1.0, 0.5), (1.0, 0.5)])
        with pytest.raises(DomainError, match=match):
            tilted_posterior_match_msr(prior, sd, 0.0)
        # a NaN statistic still gives NaN
        assert math.isnan(tilted_posterior_match_msr(prior, 1e-160, math.nan))

    @pytest.mark.parametrize("stat", [0.0, 0.004, -0.004])
    def test_tilted_posterior_piled_on_a_zero_support_point(self, stat):
        # at noise_sd 0.01 the posterior sits on tau = 0 by e^5000 against
        # +-1, and the tau^2 tilt zeroes that point; the tilted weights are
        # normalized among themselves, so no warning and no refusal
        prior = DiscretePrior.from_pairs([(-1.0, 0.3), (0.0, 0.4), (1.0, 0.3)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = tilted_posterior_match_msr(prior, 0.01, stat)
        assert abs(got - solve_bayes_foc(prior, 2.0, 0.01, stat)) < 1e-10
        if stat == 0.0:
            assert got == 0.5

    def test_higher_power_steers_toward_balance(self):
        # heavier regret powers penalize the large error harder, pulling the
        # fraction toward the side with more at stake
        prior = DiscretePrior.from_pairs([(2.0, 0.5), (-0.5, 0.5)])
        d2 = solve_bayes_foc(prior, 2.0, 1.0, 0.0)
        d4 = solve_bayes_foc(prior, 4.0, 1.0, 0.0)
        assert d4 > d2

    def test_one_sided_posterior_rejected(self):
        prior = DiscretePrior.from_pairs([(1.0, 0.5), (2.0, 0.5)])
        with pytest.raises(PriorSupportError):
            solve_bayes_foc(prior, 2.0, 1.0, 0.0)
        with pytest.raises(PriorSupportError):
            tilted_posterior_match_msr(prior, 1.0, 0.0)

    def test_zero_mass_points_drop_out(self):
        # tau = 0 contributes no regret; a prior of {0, +} is still one-sided
        prior = DiscretePrior.from_pairs([(0.0, 0.5), (1.0, 0.5)])
        with pytest.raises(PriorSupportError):
            solve_bayes_foc(prior, 2.0, 1.0, 0.0)

    def test_parameter_validation(self):
        prior = DiscretePrior.from_pairs([(1.0, 0.5), (-1.0, 0.5)])
        with pytest.raises(DomainError):
            solve_bayes_foc(prior, 1.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            solve_bayes_foc(prior, 2.0, 0.0, 0.0)

    @given(
        st.floats(min_value=-4.0, max_value=4.0),
        st.floats(min_value=1.2, max_value=5.0),
    )
    @settings(max_examples=40, deadline=None)
    @example(4.0, 1.2)
    def test_interior_solution_property(self, s, alpha_g):
        prior = DiscretePrior.from_pairs([(1.5, 0.3), (-0.7, 0.7)])
        d = solve_bayes_foc(prior, alpha_g, 1.0, s)
        if d == 1.0:
            # float expit rounds 1 + exp(-L) to 1 once exp(-L) <= 2^-53, so
            # 1.0 needs an exact fraction within an ulp of 1; at (4, 1.2) it
            # is 1 - 4.5e-18, whose correctly rounded value is 1.0
            gap = 1 - oracles.prior_bayes_fraction_mp(prior.support, alpha_g, 1.0, s)
            assert gap <= 2.0**-52, (s, alpha_g, gap)
        else:
            assert 0.0 < d < 1.0

    def test_posterior_underflow_is_not_one_sided(self):
        # at noise sd 0.05 the posterior weight of -1 given stat 1 is below the
        # smallest double, but the prior is two-sided: the log-odds is +-800,
        # so the fraction rounds to 1.0 and 0.0, not a refusal
        prior = DiscretePrior.from_pairs([(-1.0, 0.5), (1.0, 0.5)])
        assert solve_bayes_foc(prior, 2.0, 0.05, 1.0) == 1.0
        assert solve_bayes_foc(prior, 2.0, 0.05, -1.0) == 0.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("sd, match", [
        (1e-170, "noise_sd"),  # noise_sd**2 underflows to 0
        (1e-162, "noise_sd"),
        (1e155, "noise_sd"),  # noise_sd**2 overflows
        (1e-160, "NaN"),  # subnormal: at 0 both log sums are -inf
    ])
    def test_an_unusable_variance_is_refused(self, sd, match):
        prior = DiscretePrior.from_pairs([(-1.0, 0.5), (1.0, 0.5)])
        rule = DiscretePriorBayes(prior, 2.0, sd)
        exp = GaussianExperiment(0.1, 0.1, 1)
        calls = [
            lambda: solve_bayes_foc(prior, 2.0, sd, 0.0),
            lambda: solve_bayes_foc(prior, 2.0, sd, np.array([0.0, 1.0])),
            lambda: rule.evaluate(0.0),
            lambda: exact_risk(rule, exp),
            lambda: simulate(rule, exp, 10, RngSeed(1)),
        ]
        for call in calls:
            with pytest.raises(DomainError, match=match):
                call()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_nan_statistic_is_not_refused(self):
        # where the fraction can be NaN, a NaN statistic still gives NaN
        prior = DiscretePrior.from_pairs([(-1.0, 0.5), (1.0, 0.5)])
        assert math.isnan(solve_bayes_foc(prior, 2.0, 1e-160, math.nan))
        got = solve_bayes_foc(prior, 2.0, 1e-154, np.array([math.nan, 0.0, 1.0]))
        assert json.dumps(got.tolist()) == json.dumps([math.nan, 0.5, 1.0])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_nan_fraction_needs_max_tau_squared_near_the_float_range(self):
        # log A = log B = -inf needs max|tau|^2 >= 2 sd^2 float_max up to
        # rounding; the array path looks from sd^2 float_max on, so a variance
        # just past that, where it does not look, gives no NaN, and half of
        # that bound already does at the statistic between the support points
        rng = np.random.default_rng(17)
        for _ in range(40):
            taus = [-float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.1, 3.0))]
            taus += [float(t) for t in rng.uniform(-3.0, 3.0, 2)]
            prior = DiscretePrior.from_pairs(zip(taus, rng.uniform(0.2, 1.0, 4)))
            top = max(map(abs, taus))
            stats = np.concatenate([rng.uniform(-4.0, 4.0, 64), 0.5 * np.array(taus), [0.0]])
            sd = math.sqrt(top * top / sys.float_info.max * (1.0 + 1e-9))
            vals = solve_bayes_foc(prior, 2.0, sd, stats)
            assert not np.isnan(vals).any()
            assert [solve_bayes_foc(prior, 2.0, sd, float(y)) for y in stats] == vals.tolist()
        prior = DiscretePrior.from_pairs([(-1.0, 0.5), (1.0, 0.5)])
        sd = math.sqrt(0.25 / sys.float_info.max)
        with pytest.raises(DomainError, match="NaN"):
            solve_bayes_foc(prior, 2.0, sd, np.array([0.0]))

    def test_matches_unseparated_oracle_randomized(self):
        rng = np.random.default_rng(20261018)
        for _ in range(200):
            k_pos = int(rng.integers(1, 3))
            k_neg = int(rng.integers(1, 3))
            taus = np.concatenate(
                [rng.uniform(0.1, 3.0, k_pos), -rng.uniform(0.1, 3.0, k_neg)]
            )
            prior = DiscretePrior.from_pairs(zip(taus, rng.uniform(0.1, 1.0, taus.size)))
            alpha_g = float(rng.uniform(1.2, 5.0))
            sd = float(rng.uniform(0.3, 2.0))
            s = float(rng.uniform(-3.0, 3.0))
            got = solve_bayes_foc(prior, alpha_g, sd, s)
            want = oracles.bayes_foc_root(prior.support, alpha_g, sd, s)
            assert abs(got - want) < 1e-10

    def test_array_matches_scalar_calls(self):
        prior = DiscretePrior.from_pairs([(-1.0, 1.0), (1.0, 1.0), (2.0, 0.5)])
        rule = DiscretePriorBayes(prior=prior, alpha_g=3.0, noise_sd=0.7)
        ss = np.linspace(-5.0, 5.0, 41).reshape(41, 1)
        vals = rule.evaluate(ss)
        assert vals.shape == ss.shape
        for s, v in zip(ss.ravel(), vals.ravel()):
            assert abs(v - solve_bayes_foc(prior, 3.0, 0.7, float(s))) <= 1e-15

    @given(
        st.lists(
            st.tuples(st.floats(0.2, 3.0), st.floats(0.1, 1.0)),
            min_size=1, max_size=2, unique_by=lambda p: p[0],
        ),
        st.lists(
            st.tuples(st.floats(0.2, 3.0), st.floats(0.1, 1.0)),
            min_size=1, max_size=2, unique_by=lambda p: p[0],
        ),
        st.floats(1.2, 5.0),
        st.floats(0.5, 2.0),
        st.floats(-3.0, 3.0),
        st.floats(1e-3, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_strictly_increasing_property(self, pos, neg, alpha_g, sd, s, ds):
        # monotone likelihood ratio: the log-odds rise at rate
        # (mean tau under A - mean tau under B) / sd^2 > 0
        prior = DiscretePrior.from_pairs(pos + [(-t, w) for t, w in neg])
        rule = DiscretePriorBayes(prior=prior, alpha_g=alpha_g, noise_sd=sd)
        lo, hi = rule.evaluate(s), rule.evaluate(s + ds)
        assert lo <= hi
        if 1e-6 < lo and hi < 1.0 - 1e-6:
            assert lo < hi

    def test_the_module_solver_is_the_rules_evaluate(self, monkeypatch):
        calls = []
        run = DiscretePriorBayes.evaluate

        def spy(rule, stat):
            calls.append(rule)
            return run(rule, stat)

        monkeypatch.setattr(DiscretePriorBayes, "evaluate", spy)
        prior = DiscretePrior.from_pairs([(-1.0, 1.0), (1.0, 1.0), (2.0, 0.5)])
        stats = np.linspace(-3.0, 3.0, 24)
        got = solve_bayes_foc(prior, 2.0, 1.0, stats)
        assert calls == [DiscretePriorBayes(prior, 2.0, 1.0)]
        assert got.tobytes() == run(calls[0], stats).tobytes()
        assert solve_bayes_foc(prior, 2.0, 1.0, 0.5) == run(calls[0], 0.5)
        assert len(calls) == 2

    @pytest.mark.parametrize("alpha_g", [math.inf, np.float64(math.inf), np.array(math.inf)])
    def test_an_infinite_alpha_g_is_refused(self, alpha_g):
        # alpha_g log|tau| would be inf * 0 = NaN at |tau| = 1
        prior = DiscretePrior.from_pairs([(-1.0, 1.0), (1.0, 1.0), (2.0, 0.5)])
        with pytest.raises(DomainError, match="^alpha_g must be finite, got inf$"):
            DiscretePriorBayes(prior, alpha_g, 1.0)
        with pytest.raises(DomainError, match="^alpha_g must be finite, got inf$"):
            solve_bayes_foc(prior, alpha_g, 1.0, 0.5)
        # the existing checks come first
        with pytest.raises(DomainError, match="^noise_sd must be positive"):
            DiscretePriorBayes(prior, alpha_g, 0.0)
        for low in (-math.inf, math.nan, 1.0):
            with pytest.raises(DomainError, match="^alpha_g must exceed 1, got"):
                solve_bayes_foc(prior, low, 1.0, 0.5)

    @pytest.mark.parametrize("alpha_g", [1e308, np.float64(1e308), np.array(1e308)])
    @pytest.mark.parametrize("pairs, tau", [([(-20.0, 1.0), (20.0, 1.0), (2.0, 0.5)], "20.0"),
                                            ([(-0.01, 1.0), (0.02, 1.0)], "-0.01")],
                             ids=["past-the-top", "past-the-bottom"])
    def test_a_log_term_past_the_float_range_is_refused(self, recwarn, alpha_g, pairs, tau):
        # alpha_g log|tau| would be +-inf; the largest |log|tau|| is named
        prior = DiscretePrior.from_pairs(pairs)
        message = f"alpha_g log|tau| must be finite, got alpha_g = {alpha_g} at tau = {tau}"
        with pytest.raises(DomainError, match="^" + re.escape(message) + "$"):
            DiscretePriorBayes(prior, alpha_g, 1.0)
        with pytest.raises(DomainError, match="^" + re.escape(message) + "$"):
            solve_bayes_foc(prior, alpha_g, 1.0, 0.5)
        assert not recwarn.list

    def test_the_least_tau_bounds_the_log_terms(self, recwarn):
        # |log 5e-324| = 744.4: alpha_g 2e305 keeps every term finite, 2.5e305 does not
        prior = DiscretePrior.from_pairs([(-5e-324, 1.0), (1.0, 1.0)])
        assert -1.49e308 < DiscretePriorBayes(prior, 2e305, 1.0)._log_terms[0] < -1.48e308
        with pytest.raises(DomainError, match=re.escape("alpha_g = 2.5e+305 at tau = -5e-324")):
            DiscretePriorBayes(prior, 2.5e305, 1.0)
        assert not recwarn.list

    def test_a_large_finite_log_term_keeps_its_bits(self):
        prior = DiscretePrior.from_pairs([(-20.0, 1.0), (20.0, 1.0), (2.0, 0.5)])
        assert DiscretePriorBayes(prior, 400, 1.0).evaluate(0.5) == 0.5125287051838942
        # 1e307 log 20 is finite, and so is every fraction
        rule = DiscretePriorBayes(prior, 1e307, 1.0)
        assert rule.evaluate(np.array([-1e10, 0.5, 1e10])).tolist() == [0.5, 0.5, 0.5]

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 5),
        st.floats(1.1, 6.0),
        st.floats(0.05, 3.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_array_and_scalar_calls_agree_bitwise(self, seed, size, alpha_g, sd):
        rng = np.random.default_rng(seed)
        taus = np.concatenate([[-rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0)],
                               rng.uniform(-3.0, 3.0, size - 2)])
        if len(set(taus.tolist())) < size:
            return
        prior = DiscretePrior.from_pairs(zip(taus, rng.uniform(0.1, 1.0, size)))
        rule = DiscretePriorBayes(prior=prior, alpha_g=alpha_g, noise_sd=sd)
        stats = np.concatenate([rng.uniform(-4.0, 4.0, 20), rng.uniform(-60.0, 60.0, 4)])
        vals = rule.evaluate(stats)
        assert vals.shape == stats.shape
        probe = _inverse_probe(rule)
        scalars = np.array([probe(float(s), True)[0] for s in stats])
        assert scalars.tobytes() == vals.tobytes()
        assert rule.evaluate(stats.reshape(4, 6)).tobytes() == vals.tobytes()

    def test_monotone_in_the_statistic(self):
        prior = DiscretePrior.from_pairs([(1.0, 0.4), (-2.0, 0.6)])
        rule = DiscretePriorBayes(prior=prior, alpha_g=2.0, noise_sd=1.0)
        ss = np.linspace(-4.0, 4.0, 41)
        vals = rule.evaluate(ss)
        assert vals.shape == ss.shape
        assert np.all(np.diff(vals) > 0.0)


class TestTiltedPosteriorMatch:
    @pytest.mark.parametrize("noise_sd", [0.0, -1.0, math.nan])
    def test_a_noise_sd_that_is_not_positive(self, noise_sd):
        prior = DiscretePrior.from_pairs([(-1.0, 1.0), (1.0, 1.0)])
        with pytest.raises(DomainError, match=f"^noise_sd must be positive, got {noise_sd}$"):
            tilted_posterior_match_msr(prior, noise_sd, 0.5)


class TestBayesFocFrozen:
    """DiscretePriorBayes outputs frozen as literals from the per-sign
    solver (each sign masked out and reduced on its own), so any rewrite of
    solve_bayes_foc must reproduce them bit for bit.  Floats are compared as
    JSON text, where NaN equals NaN."""

    PIN_PAIRS = [(-1.3, 0.3), (-0.4, 0.2), (0.6, 0.35), (1.9, 0.15)]
    ZERO_PAIRS = [(-1.0, 0.3), (0.0, 0.4), (1.5, 0.3)]
    TABLE = np.linspace(-4.0, 4.0, 24)
    GRID = np.linspace(-6.0, 6.0, 24).reshape(4, 6)
    SPECIAL = [math.inf, -math.inf, math.nan, 0.0, -0.0, 1e308, -1e308]
    SCALARS = [0.7, np.float64(-0.3), np.array(1.1), 2]
    NAN = math.nan
    FROZEN_BAYES = {
        1.5: {
            "table": [
                5.169082524712177e-11, 4.070375813672262e-10, 3.2021419976545464e-09,
                2.5153161231155866e-08, 1.9711744013475274e-07, 1.5391947707101271e-06,
                1.1954115542045449e-05, 9.211614616777679e-05, 0.000702024145579076,
                0.005261756404696314, 0.03787120969732642, 0.22608362222219205,
                0.6889883959263065, 0.9470816317920244, 0.9938320886015289, 0.9993933281856568,
                0.9999465805000469, 0.9999955878054039, 0.9999996453200121, 0.9999999716569169,
                0.9999999977280136, 0.9999999998168618, 0.9999999999851599, 0.9999999999987925,
            ],
            "grid": [
                [
                    3.607652378841387e-16, 7.989479124250887e-15, 1.7690183921080982e-13,
                    3.915455536160516e-12, 8.659604796677237e-11, 1.912226131449808e-09,
                ],
                [
                    4.2095825929000255e-08, 9.211624429826527e-07, 1.9933762101297966e-05,
                    0.00042305278281070584, 0.00866885248195269, 0.15027895243037606,
                ],
                [
                    0.7874904709948447, 0.9892380809735802, 0.9996667015420447,
                    0.9999917390610009, 0.9999998114149942, 0.9999999957322245,
                ],
                [
                    0.9999999999023332, 0.9999999999977398, 0.9999999999999474,
                    0.9999999999999987, 1.0, 1.0,
                ],
            ],
            "special": [
                1.0, 0.0, NAN, 0.4445956893845991, 0.4445956893845991,
                1.0, 0.0,
            ],
            "scalars": [
                0.9819291698841407, 0.1236863924765714, 0.9986532502842006, 0.9999976472244139,
            ],
            "zero_table": [
                1.9930400956714077e-09, 1.1345164123363514e-08, 6.458111084528244e-08,
                3.6762084627405074e-07, 2.092638120852368e-06, 1.1911998198321497e-05,
                6.780396572262295e-05, 0.0003858439477813581, 0.002192405338938243,
                0.012352946748639331, 0.06646516345877959, 0.2883995192214887,
                0.6976137779664067, 0.9292411702657999, 0.9867996203747061, 0.9976555373752738,
                0.9995873434968283, 0.9999274826877947, 0.9999872598978602, 0.9999977618833419,
                0.9999996068223977, 0.9999999309292519, 0.9999999878661273, 0.9999999978684051,
            ],
            "zero_special": [
                1.0, 0.0, NAN, 0.49159962159381454, 0.49159962159381454,
                1.0, 0.0,
            ],
        },
        2.0: {
            "table": [
                4.887532387972374e-06, 1.3720847951000944e-05, 3.851071725035118e-05,
                0.00010805498333093846, 0.0003030390840490088, 0.0008492267791875077,
                0.002376778874606112, 0.006635193388195125, 0.018414286407377616,
                0.05031153060527698, 0.13165896960454995, 0.308526116624645,
                0.5795815010257708, 0.8201828886022939, 0.9419223542556808, 0.983806619695347,
                0.9957147948388378, 0.9988710618387179, 0.9996983070281352, 0.9999179014288685,
                0.9999773018882349, 0.9999936490969272, 0.9999982081343699, 0.9999994916134076,
            ],
            "grid": [
                [
                    1.2904237958267488e-08, 6.072910819348449e-08, 2.857860590275333e-07,
                    1.3447595272110222e-06, 6.326580724720545e-06, 2.975378157615814e-05,
                ],
                [
                    0.00013984001832834165, 0.0006564216476688655, 0.003073206546226572,
                    0.014279837051063882, 0.06436176573553454, 0.2534052388258643,
                ],
                [
                    0.648678676187417, 0.9215063412443221, 0.988358112451541,
                    0.9984257137714637, 0.9997824630579867, 0.9999687376228995,
                ],
                [
                    0.9999953744123974, 0.9999993036989873, 0.9999998942107727,
                    0.9999999838512821, 0.9999999975290854, 0.9999999996214874,
                ],
            ],
            "special": [
                1.0, 0.0, NAN, 0.4377020189131108, 0.4377020189131108,
                1.0, 0.0,
            ],
            "scalars": [
                0.8965516514550974, 0.23099205780718415, 0.974844367224369, 0.999189647748763,
            ],
            "zero_table": [
                5.467388093679261e-05, 0.0001304350690795758, 0.0003111453029863852,
                0.0007420332975864579, 0.0017685786834385974, 0.0042092875720899725,
                0.009984581348700212, 0.023496812014105327, 0.054292458108641015,
                0.12047043308341257, 0.2463049186253147, 0.43810598456417266,
                0.6503806521063622, 0.8161200015405641, 0.9137134487143909, 0.9619260947449153,
                0.9836810338731576, 0.9930947145209383, 0.9970941061819936, 0.9987799825400905,
                0.9994882868829018, 0.9997854599973521, 0.9999100678386857, 0.999962304427567,
            ],
            "zero_special": [
                1.0, 0.0, NAN, 0.5463491066966051, 0.5463491066966051,
                1.0, 0.0,
            ],
        },
        3.0: {
            "table": [
                0.001500230796876382, 0.002511800785525507, 0.004203085805909902,
                0.007026994011972767, 0.011732369146722564, 0.01954918731857383,
                0.03247982289387239, 0.05374712876620989, 0.08845620023825802,
                0.14442805689111018, 0.23244235355440057, 0.362454006725066,
                0.5298639543023114, 0.7014194387566203, 0.8350445974493026, 0.9169672010270359,
                0.959922948773179, 0.9807713977520433, 0.990650191374835, 0.9953589790266386,
                0.9976483610346647, 0.9987878326735494, 0.9993671553746255, 0.9996666618727653,
            ],
            "grid": [
                [
                    7.716923980012445e-05, 0.00016739643264245593, 0.00036308060044342187,
                    0.000787345518413226, 0.0017066015696299485, 0.0036957443894194684,
                ],
                [
                    0.007988921469404187, 0.017210526697409606, 0.036853925917776295,
                    0.07814509534198606, 0.16296248313588269, 0.3258245772592282,
                ],
                [
                    0.5742010706852688, 0.8065762838506025, 0.9306376536797297,
                    0.9769133062968873, 0.992167928550979, 0.9972176471034463,
                ],
                [
                    0.9989706843436905, 0.9996089749716668, 0.9998492155601485,
                    0.9999414003011743, 0.9999771371458799, 0.9999910628724875,
                ],
            ],
            "special": [
                1.0, 0.0, NAN, 0.4428842160584389, 0.4428842160584389,
                1.0, 0.0,
            ],
            "scalars": [
                0.7763827736599427, 0.31021844213794114, 0.8945826083481749,
                0.9839704307032018,
            ],
            "zero_table": [
                0.00897495098142648, 0.013795521163937952, 0.02115002872050851,
                0.03229688634873301, 0.04902432394274741, 0.073755047451312,
                0.10952456198276861, 0.1596514054303157, 0.22687501225277595,
                0.31189843178939824, 0.41181283307205535, 0.5195665921331014,
                0.6255303206920675, 0.7206869332213082, 0.7994169355515046, 0.8602582781340868,
                0.9048418042404222, 0.936255291502532, 0.9577824486070285, 0.9722551282783144,
                0.9818603659891654, 0.9881807076802192, 0.9923161044110742, 0.9950118902770868,
            ],
            "zero_special": [
                1.0, 0.0, NAN, 0.5733904392342579, 0.5733904392342579,
                1.0, 0.0,
            ],
        },
    }

    @staticmethod
    def same(got, want) -> bool:
        return json.dumps(got) == json.dumps(want)

    @pytest.mark.parametrize("alpha_g", [1.5, 2.0, 3.0])
    def test_pin_prior(self, alpha_g):
        want = self.FROZEN_BAYES[alpha_g]
        rule = DiscretePriorBayes(DiscretePrior.from_pairs(self.PIN_PAIRS), alpha_g, 0.8)
        assert self.same(rule.evaluate(self.TABLE).tolist(), want["table"])
        grid = rule.evaluate(self.GRID)
        assert grid.shape == (4, 6) and self.same(grid.tolist(), want["grid"])
        scalars = [rule.evaluate(s) for s in self.SCALARS]
        assert all(type(v) is float for v in scalars)
        assert self.same(scalars, want["scalars"])
        # the overflow and inf warnings numpy raises on the way are not pinned
        with np.errstate(over="ignore", invalid="ignore"):
            special = rule.evaluate(np.array(self.SPECIAL)).tolist()
            special_scalar = [rule.evaluate(s) for s in self.SPECIAL]
        assert self.same(special, want["special"])
        assert self.same(special_scalar, want["special"])

    @pytest.mark.parametrize("alpha_g", [1.5, 2.0, 3.0])
    def test_prior_with_a_point_at_zero(self, alpha_g):
        want = self.FROZEN_BAYES[alpha_g]
        rule = DiscretePriorBayes(DiscretePrior.from_pairs(self.ZERO_PAIRS), alpha_g, 1.0)
        assert self.same(rule.evaluate(self.TABLE).tolist(), want["zero_table"])
        with np.errstate(over="ignore", invalid="ignore"):
            special = rule.evaluate(np.array(self.SPECIAL)).tolist()
        assert self.same(special, want["zero_special"])

    @pytest.mark.parametrize("alpha_g", [2, np.float64(2.0), np.array(2.0)])
    def test_alpha_g_scalar_types(self, alpha_g):
        want = self.FROZEN_BAYES[2.0]
        prior = DiscretePrior.from_pairs(self.PIN_PAIRS)
        got = solve_bayes_foc(prior, alpha_g, 0.8, self.TABLE)
        assert self.same(got.tolist(), want["table"])
        scalars = [solve_bayes_foc(prior, alpha_g, 0.8, s) for s in self.SCALARS]
        assert all(type(v) is float for v in scalars)
        assert self.same(scalars, want["scalars"])

    @pytest.mark.parametrize("alpha_g", [2.0, 3.0])
    @pytest.mark.parametrize("warm", [int, np.float64, np.array])
    def test_memo_warmed_through_another_alpha_g_type(self, alpha_g, warm):
        # a rule built with alpha_g of one type leaves nothing on the prior:
        # every later type must read the same pins and find the crossings a
        # cold prior does
        want = self.FROZEN_BAYES[alpha_g]
        qs = (0.1, 0.5, 0.7, 1.0 - 1e-9)
        cold = DiscretePrior.from_pairs(self.PIN_PAIRS)
        crossings = [DiscretePriorBayes(cold, alpha_g, 0.8).stat_at(q) for q in qs]
        prior = DiscretePrior.from_pairs(self.PIN_PAIRS)
        DiscretePriorBayes(prior, warm(alpha_g), 0.8).stat_at(0.7)
        for a in (alpha_g, int(alpha_g), np.float64(alpha_g), np.array(alpha_g)):
            rule = DiscretePriorBayes(prior, a, 0.8)
            assert [rule.stat_at(q) for q in qs] == crossings
            scalars = [solve_bayes_foc(prior, a, 0.8, s) for s in self.SCALARS]
            assert all(type(v) is float for v in scalars)
            assert self.same(scalars, want["scalars"])
            assert self.same(solve_bayes_foc(prior, a, 0.8, self.TABLE).tolist(),
                             want["table"])

    # the six fixed tail cases of the prior-bayes benchmark workload:
    # (prior, alpha_g, noise_sd, tau, threshold) and P(Reg > threshold), from
    # the rule's own certified inverse; each is within 1e-16 of the 30-digit
    # oracle (test_tail_pins_match_mpmath)
    FROZEN_TAILS = [
        ([(-1.0, 1.0), (1.0, 1.0), (2.0, 0.5)], 2.0, 1.0, 1.0, 0.1, 0.406291529957419),
        ([(-1.0, 1.0), (1.0, 1.0), (2.0, 0.5)], 3.0, 1.0, 1.0, 0.3, 0.2805150138595794),
        ([(-2.0, 0.5), (1.0, 0.5)], 1.5, 1.0, 0.5, 0.2, 0.27898853244228833),
        ([(-1.5, 0.3), (-0.5, 0.2), (0.5, 0.2), (1.5, 0.3)], 2.0, 0.5, -0.8, 0.3,
         0.07814572622654888),
        ([(-1.0, 0.6), (2.5, 0.4)], 3.0, 2.0, 1.5, 0.5, 0.17828474668886013),
        ([(-0.7, 0.5), (0.4, 0.3), (1.8, 0.2)], 1.5, 1.0, -1.2, 0.4, 0.11730820341721387),
    ]
    FROZEN_SIMULATE = (
        '{"mean_regret": 0.16005479007298506, "mean_square_regret": 0.037324602067418194, '
        '"regret_variance": 0.011712922703462608, "replications": 2000, '
        '"se_mean_regret": 0.002420012675944344, "se_mean_square_regret": 0.000885570003805164, '
        '"se_regret_sd": 0.001147718681649357, "se_welfare_mean": 0.002420012675944344, '
        '"se_welfare_sd": 0.001147718681649357, "seed": 20261018, '
        '"tail": [[0.1, 0.633, 0.010777546102893738], [0.25, 0.2435, 0.009597076377730876]], '
        '"welfare_mean": 0.23994520992701496, "welfare_sd": 0.10822625699645447}'
    )
    # worst_case_msr of the prior {-1: 1, 1: 1, 2: 0.5} at alpha_g 2:
    # noise sd, sup and argsup
    FROZEN_WORST = [
        (1.0, 0.1572925045114404, -1.3005615430493072),
        (0.1, 0.16433894501144464, 1.188796434083643),
    ]

    @pytest.mark.parametrize("case", range(6))
    def test_tail_probabilities(self, case):
        pairs, alpha_g, sd, tau, threshold, want = self.FROZEN_TAILS[case]
        rule = DiscretePriorBayes(DiscretePrior.from_pairs(pairs), alpha_g, sd)
        assert tail_probability(rule, GaussianExperiment(tau, sd, 1), threshold) == want

    @pytest.mark.parametrize("case", range(6))
    def test_tail_pins_match_mpmath(self, case):
        # the grid-and-Brent pins were up to 3.3e-14 from these references
        pairs, alpha_g, sd, tau, threshold, want = self.FROZEN_TAILS[case]
        prior = DiscretePrior.from_pairs(pairs)
        mp = oracles.prior_bayes_tail_mp(prior.support, alpha_g, sd, tau, threshold)
        assert abs(want - mp) <= 1e-16, (case, want, mp)

    def test_simulate(self):
        rule = DiscretePriorBayes(DiscretePrior.from_pairs(self.PIN_PAIRS), 3.0, 0.8)
        got = simulate(rule, GaussianExperiment(0.4, 0.8, 1), 2000, RngSeed(20261018),
                       [0.1, 0.25])
        assert json.dumps(got.to_dict(), sort_keys=True) == self.FROZEN_SIMULATE

    @pytest.mark.parametrize("case", range(2))
    def test_worst_case_msr(self, case):
        sd, sup, argsup = self.FROZEN_WORST[case]
        prior = DiscretePrior.from_pairs([(-1.0, 1.0), (1.0, 1.0), (2.0, 0.5)])
        # a scan cached by an earlier test would not run the solver here
        _unit_worst.cache_clear()
        got = worst_case_msr(DiscretePriorBayes(prior, 2.0, sd), 1.0, 1)
        assert (got.sup, got.argsup_tau, got.saturated) == (sup, argsup, False)


class TestFocTermsMemo:
    """The sign split and log terms a DiscretePriorBayes stores when it is
    constructed serve every later call: tails and array calls build none."""

    PAIRS = [(-1.0, 1.0), (1.0, 1.0), (2.0, 0.5)]

    @staticmethod
    def count_logs(monkeypatch):
        # the terms take the two np.log calls of the package's Bayes fraction
        logs = []
        log = np.log

        def counted_log(*args, **kwargs):
            logs.append(args)
            return log(*args, **kwargs)

        monkeypatch.setattr(np, "log", counted_log)
        return logs

    def test_one_tail_stores_the_terms_once(self, monkeypatch):
        logs = self.count_logs(monkeypatch)
        prior = DiscretePrior.from_pairs(self.PAIRS)
        rule = DiscretePriorBayes(prior, 2.0, 1.0)
        assert len(logs) == 2
        exp = GaussianExperiment(1.0, 1.0, 1)
        assert tail_probability(rule, exp, 0.1) == TestBayesFocFrozen.FROZEN_TAILS[0][-1]
        tail_probability(rule, exp, 0.3)
        # every evaluation of the inverse reads the stored terms
        assert len(logs) == 2
        # each construction builds its own, and the module solver constructs one
        tail_probability(DiscretePriorBayes(prior, 2, 0.5), exp, 0.1)
        assert len(logs) == 4
        DiscretePriorBayes(prior, 3.0, 1.0)
        assert len(logs) == 6
        solve_bayes_foc(prior, 2.0, 1.0, 0.5)
        assert len(logs) == 8

    def test_array_calls_store_nothing(self, monkeypatch):
        logs = self.count_logs(monkeypatch)
        rule = DiscretePriorBayes(DiscretePrior.from_pairs(self.PAIRS), 3.0, 1.0)
        assert len(logs) == 2
        rule.evaluate(np.linspace(-4.0, 4.0, 24))
        rule.evaluate(np.linspace(-4.0, 4.0, 15).reshape(3, 5))
        rule.evaluate(np.float64(0.5))
        rule.evaluate(np.array(0.5))
        rule.evaluate(0.5)
        assert len(logs) == 2
        rule.stat_at(0.3)
        rule.stat_at(0.8)
        assert len(logs) == 2


class TestFocTermsAtConstruction:
    """DiscretePriorBayes builds its sign split and log terms once, when it
    is constructed, and evaluate and stat_at read them."""

    PAIRS = [(-1.0, 1.0), (1.0, 1.0), (2.0, 0.5)]

    def test_the_terms_are_invisible(self):
        import dataclasses
        import pickle

        prior = DiscretePrior.from_pairs(self.PAIRS)
        rules = [DiscretePriorBayes(prior, a, 1.0) for a in (2.0, 2, np.float64(2.0))]
        assert [f.name for f in dataclasses.fields(rules[0])] == ["prior", "alpha_g", "noise_sd"]
        assert rules[0] == rules[1] == rules[2]
        assert len({hash(r) for r in rules}) == 1
        assert rule_to_dict(rules[0]) == rule_to_dict(rules[2])
        assert repr(rules[0]) == ("DiscretePriorBayes(prior=DiscretePrior(support=((-1.0, 0.4), "
                                  "(1.0, 0.4), (2.0, 0.2))), alpha_g=2.0, noise_sd=1.0)")
        assert not hasattr(prior, "_foc_terms")
        twin = pickle.loads(pickle.dumps(rules[0]))
        assert twin == rules[0] and hash(twin) == hash(rules[0])
        stats = np.linspace(-4.0, 4.0, 24)
        assert twin.evaluate(stats).tobytes() == rules[0].evaluate(stats).tobytes()
        assert twin.evaluate(0.25) == rules[0].evaluate(0.25) == rules[1].evaluate(0.25)
        assert twin.stat_at(0.25) == rules[0].stat_at(0.25) == rules[2].stat_at(0.25)
        # a rule read back from its dict builds the same terms
        back = rule_from_dict(rule_to_dict(rules[0]))
        assert back.stat_at(0.7) == rules[0].stat_at(0.7)

    @pytest.mark.parametrize("pairs", [[(1.0, 0.5), (2.0, 0.5)], [(-1.0, 0.5), (0.0, 0.5)],
                                       [(0.0, 1.0)]])
    def test_a_one_sided_prior_constructs_and_is_refused_at_use(self, pairs):
        rule = DiscretePriorBayes(DiscretePrior.from_pairs(pairs), 2.0, 1.0)
        for stat in (0.5, np.float64(0.5), np.linspace(-1.0, 1.0, 5)):
            with pytest.raises(PriorSupportError):
                rule.evaluate(stat)
        with pytest.raises(PriorSupportError):
            rule.stat_at(0.3)
        # the support is checked before the variance, as before
        bad = DiscretePriorBayes(DiscretePrior.from_pairs(pairs), 2.0, 1e200)
        with pytest.raises(PriorSupportError):
            bad.evaluate(0.5)

    @pytest.mark.parametrize("sd, var", [(1e200, "inf"), (1e-170, "0.0")])
    def test_an_unusable_variance_constructs_and_is_refused_at_use(self, sd, var):
        rule = DiscretePriorBayes(DiscretePrior.from_pairs(self.PAIRS), 2.0, sd)
        match = "^" + re.escape(f"noise_sd**2 is {var} at noise_sd {sd!r}; the Bayes fraction")
        for stat in (0.5, np.linspace(-1.0, 1.0, 5)):
            with pytest.raises(DomainError, match=match):
                rule.evaluate(stat)
        with pytest.raises(DomainError, match=match):
            rule.stat_at(0.3)

    @pytest.mark.parametrize("pairs", [
        [(-2.1, 0.3), (-0.6, 0.1), (0.4, 0.2), (1.3, 0.25), (2.7, 0.15)],
        [(1.9, 0.1), (-0.3, 0.2), (0.8, 0.15), (-2.4, 0.2), (2.6, 0.05), (-1.1, 0.3)],
    ])
    @pytest.mark.parametrize("alpha_g", [1.5, 3.0])
    def test_a_block_equals_its_float_calls_and_the_axis_reduction(self, pairs, alpha_g):
        # an 8192-draw block, as simulate passes it: each element has the bits
        # of its own float call and of the parent's np.logaddexp.reduce along
        # the support axis
        prior = DiscretePrior.from_pairs(pairs)
        sd = 0.7
        rule = DiscretePriorBayes(prior, alpha_g, sd)
        block = np.random.default_rng(8192).normal(0.0, 2.5, 8192)
        got = rule.evaluate(block)
        assert got.tobytes() == np.array([rule.evaluate(float(y)) for y in block]).tobytes()
        neg = [(t, w) for t, w in prior.support if t < 0]
        pos = [(t, w) for t, w in prior.support if t > 0]
        sums = []
        for side in (pos, neg):
            taus = np.array([t for t, _ in side])[:, None]
            logs = (np.log(np.array([w for _, w in side])) + alpha_g * np.log(np.abs(taus[:, 0])))
            z = (block - 0.5 * taus) * taus / sd**2 + logs[:, None]
            sums.append(np.logaddexp.reduce(z, axis=0))
        want = expit((sums[0] - sums[1]) / (alpha_g - 1.0))
        assert got.tobytes() == want.tobytes()


def _assert_prior_certified(rule, q):
    # the computed fraction is below q one float before the crossing and not
    # below it at the crossing, in the scalar path and the array path alike
    y = rule.stat_at(q)
    below = math.nextafter(y, -math.inf)
    assert type(y) is float and math.isfinite(y), (rule, q, y)
    assert rule.evaluate(below) < q <= rule.evaluate(y), (rule, q, y)
    assert rule.evaluate(np.array([below, y])).tolist() == [rule.evaluate(below),
                                                            rule.evaluate(y)]


class TestDiscretePriorInverse:
    EDGES = [1e-12, math.nextafter(1e-12, 0.0), math.nextafter(1e-12, 1.0),
             1.0 - 1e-12, math.nextafter(1.0 - 1e-12, 0.0), math.nextafter(1.0 - 1e-12, 1.0),
             0.5, math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0)]

    @staticmethod
    def priors(rng):
        # two-sided supports of 2 to 5 points, and two symmetric ones, whose
        # crossing of 1/2 lies at 0
        out = [[(-1.0, 0.5), (1.0, 0.5)], [(-2.0, 0.25), (-0.5, 0.25), (0.5, 0.25), (2.0, 0.25)]]
        for size in (2, 3, 4, 5, 2, 3, 4, 5):
            taus = [-float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.1, 3.0))]
            taus += [float(t) for t in rng.uniform(-3.0, 3.0, size - 2)]
            out.append([(t, float(w)) for t, w in zip(taus, rng.uniform(0.2, 1.0, size))])
        return out

    def test_crossing_is_certified(self):
        rng = np.random.default_rng(16001)
        for pairs in self.priors(rng):
            prior = DiscretePrior.from_pairs(pairs)
            for alpha_g in (1.5, 2.0, 3.0):
                for sd in (1e-3, 0.5, 1.0, 2.0, 1e3):
                    rule = DiscretePriorBayes(prior, alpha_g, sd)
                    qs = self.EDGES + [float(q) for q in rng.uniform(0.0, 1.0, 3)]
                    qs += [1e-6, 1.0 - 1e-6, float(10.0 ** rng.uniform(-11.9, -1.0))]
                    for q in qs:
                        _assert_prior_certified(rule, q)

    def test_the_extreme_crossings_are_certified(self):
        # the fraction takes every value in (0, 1), so every q in (0, 1),
        # down to the least subnormal and up to the float below 1, has a
        # finite crossing, and no other q has one
        prior = DiscretePrior.from_pairs([(-1.0, 0.3), (0.5, 0.4), (2.0, 0.3)])
        qs = (5e-324, 1e-300, 1e-13, math.nextafter(1e-12, 0.0), 1e-12, 1.0 - 1e-13,
              math.nextafter(1.0 - 1e-12, 1.0), 1.0 - 2.0**-53)
        for alpha_g in (1.5, 2.0, 3.0):
            for sd in (0.3, 1.0, 2.0):
                rule = DiscretePriorBayes(prior, alpha_g, sd)
                for q in qs:
                    _assert_prior_certified(rule, q)
                for q in (-0.5, 0.0, -0.0):
                    assert rule.stat_at(q) == -math.inf
                for q in (1.0, 2.0):
                    assert rule.stat_at(q) == math.inf

    def test_every_q_up_to_the_least_positive_fraction_crosses_at_one_point(self):
        # expit(L) is 0.0 below L = -log(max float) and about 5.5627e-309 at
        # it, so the fraction crosses every q in (0, 5.5627e-309] at one y
        least = float(expit(-math.log(sys.float_info.max)))
        qs = (5e-324, 1e-320, 1e-315, 1e-310, math.nextafter(least, 0.0), least)
        for pairs in ([(-1.0, 0.5), (1.0, 0.5)], [(-1.0, 0.3), (0.5, 0.4), (2.0, 0.3)]):
            for alpha_g in (1.5, 3.0):
                for sd in (1e-3, 1.0, 1e3):
                    rule = DiscretePriorBayes(DiscretePrior.from_pairs(pairs), alpha_g, sd)
                    ys = {rule.stat_at(q) for q in qs}
                    assert len(ys) == 1, (pairs, alpha_g, sd, ys)
                    _assert_prior_certified(rule, least)
                    assert rule.evaluate(math.nextafter(ys.pop(), -math.inf)) == 0.0

    def test_a_two_point_log_odds_is_linear(self):
        # L(y) = (log(w+ t+^a / (w- |t-|^a)) + (t+ - t-)(y - (t+ + t-)/2) / sd^2) / e
        # crosses logit(q) where the closed form puts it, up to rounding
        rule = DiscretePriorBayes(DiscretePrior.from_pairs([(-2.0, 0.5), (1.0, 0.5)]), 1.5, 0.8)
        for q in (0.1, 0.5, 0.9):
            want = 0.8**2 * (0.5 * math.log(q / (1 - q)) - 1.5 * math.log(0.5)) / 3.0 - 0.5
            assert abs(rule.stat_at(q) - want) <= 1e-14

    def test_matches_the_mpmath_crossing(self):
        rng = np.random.default_rng(16)
        for pairs in self.priors(rng):
            prior = DiscretePrior.from_pairs(pairs)
            alpha_g, sd = float(rng.choice([1.5, 2.0, 3.0])), float(rng.uniform(0.5, 2.0))
            for q in rng.uniform(1e-3, 1.0 - 1e-3, 3):
                y = DiscretePriorBayes(prior, alpha_g, sd).stat_at(float(q))
                want = float(oracles.prior_bayes_cut_mp(prior.support, alpha_g, sd, float(q)))
                assert abs(y - want) <= 1e-12 * max(1.0, abs(want)), (pairs, q, y, want)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_variance_that_underflows_certifies_or_is_refused(self):
        # noise_sd**2 is 0 below about 1.5e-162 and subnormal a little above;
        # where it is too small for the fraction to stay a number, or
        # overflows, the inverse raises DomainError rather than a crossing
        refused = 0
        for pairs in ([(-1.0, 0.5), (1.0, 0.5)], [(-1.0, 1.0), (1.0, 1.0), (2.0, 0.5)],
                      [(-0.7, 0.5), (0.4, 0.3), (1.8, 0.2)]):
            for sd in (1e-170, 1e-162, 1e-160, 1e-155, 1e-154, 1e-150, 1e155):
                rule = DiscretePriorBayes(DiscretePrior.from_pairs(pairs), 2.0, sd)
                for q in (0.3, 0.5, 1.0 - 1e-12):
                    try:
                        _assert_prior_certified(rule, q)
                    except DomainError:
                        refused += 1
                        with pytest.raises(DomainError):
                            tail_probability(rule, GaussianExperiment(1.0, 1.0, 1), 0.5)
        assert refused == 3 * 5 * 3
        with pytest.raises(DomainError, match="noise_sd"):
            DiscretePriorBayes(DiscretePrior.from_pairs([(-1.0, 1.0), (1.0, 1.0)]), 2.0,
                               1e-170).stat_at(0.5)

    def test_a_far_end_short_of_the_crossing_is_pushed(self, monkeypatch):
        # a margin below 1 puts the first far end of a two-point prior inside
        # its crossing, and a normal quantile 2^-10 of its size puts the flat
        # rule's there, so the shared search checks that end and pushes it out
        pushed = []
        search = rules_module._crossing

        def spy(q, probe, far, *args):
            # a far-end check is a probe at the far end the search was given;
            # every other probe lies strictly inside the bracket
            checked = []

            def counted(y, newton):
                checked.append(y == far)
                return probe(y, newton)

            y = search(q, counted, far, *args)
            pushed.append(any(checked) and abs(y) > abs(far))
            return y

        monkeypatch.setattr(rules_module, "_crossing", spy)
        monkeypatch.setattr(rules_module, "_WIDEN", 0.5)
        for pairs in ([(-2.0, 0.5), (1.0, 0.5)], [(-1.0, 0.6), (2.5, 0.4)]):
            for sd in (0.5, 1.0, 1e3):
                rule = DiscretePriorBayes(DiscretePrior.from_pairs(pairs), 2.0, sd)
                for q in (1e-9, 0.1, 0.5, 0.9, 1.0 - 1e-9):
                    _assert_prior_certified(rule, q)
        assert len(pushed) == 30 and all(pushed)
        pushed.clear()
        quantile = rules_module.std_normal_quantile
        monkeypatch.setattr(rules_module, "std_normal_quantile",
                            lambda q: quantile(q) * 2.0**-10)
        for scale in (1.0, 0.2, 5.0, 1e-300, 1e300):
            for q in (1e-300, 1e-9, 0.1, 0.4, 0.6, 0.9, 1.0 - 1e-9, 1.0 - 1e-15):
                _assert_certified(BayesFlatMSR(scale), q)
        assert len(pushed) == 40 and all(pushed)

    def test_a_crossing_beyond_the_floats_is_infinite(self):
        rule = DiscretePriorBayes(DiscretePrior.from_pairs([(-1.0, 0.5), (1.0, 0.5)]), 2.0, 1e154)
        q = 1.0 - 1e-12
        assert rule.stat_at(q) == math.inf
        assert rule.evaluate(sys.float_info.max) < q
        _assert_prior_certified(rule, 0.9)

    def test_a_one_sided_prior_is_refused(self):
        rule = DiscretePriorBayes(DiscretePrior.from_pairs([(1.0, 1.0), (2.0, 1.0)]), 2.0, 1.0)
        with pytest.raises(PriorSupportError):
            rule.stat_at(0.5)


def _evaluations(rule, run):
    # fraction evaluations behind run(), which makes one crossing search of
    # rule: the search's probes, and for the discrete-prior rule the probe
    # at 0 it hands the search
    calls = []
    search = rules_module._crossing

    def spy(q, probe, *args):
        def counted(y, newton):
            calls.append(y)
            return probe(y, newton)
        return search(q, counted, *args)

    with mock.patch.object(rules_module, "_crossing", spy):
        run()
    return len(calls) + isinstance(rule, DiscretePriorBayes)


def _bench_workloads():
    path = pathlib.Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCrossingEvaluations:
    """Upper bounds on the fraction evaluations one crossing search takes."""

    def test_the_benchmark_prior_tails(self):
        got = []
        for case in _bench_workloads().FIXED_TAILS:
            rule = DiscretePriorBayes(DiscretePrior.from_pairs(case["prior"]), case["alpha_g"],
                                      case["noise_sd"])
            exp = GaussianExperiment(case["tau"], case["noise_sd"], 1)
            got.append(_evaluations(rule, lambda: tail_probability(rule, exp, case["threshold"])))
        assert len(got) == 6
        assert all(n <= bound for n, bound in zip(got, (9, 9, 8, 10, 8, 13))), got

    def test_the_benchmark_flat_tails_of_one_seed(self):
        # the bayes-flat operations of risk-curves seed 1, each bounded by
        # one more evaluation than the search took before it owned the
        # Newton budget and the gallop
        before = (6, 6, 6, 8, 7, 5, 5, 5, 4, 8, 6, 8, 5, 7, 7, 5, 5, 4)
        got = []
        for spec in _bench_workloads().risk_curves(1):
            if spec["rule"]["name"] == "bayes-flat":
                rule = BayesFlatMSR(spec["rule"]["scale"])
                exp = GaussianExperiment(spec["tau"], spec["sigma"], spec["n"])
                got.append(_evaluations(rule, lambda: tail_probability(rule, exp, spec["tail"])))
        assert len(got) == len(before)
        assert all(n <= bound + 1 for n, bound in zip(got, before)), got

    @pytest.mark.parametrize("pairs, bound", [
        ([(-0.390, 0.400), (2.975, 0.522)], 4),
        ([(-0.235, 0.709), (2.308, 0.462)], 4),
        ([(-1.0, 0.5), (1.0, 0.5)], 14),
    ])
    def test_the_least_subnormal_crossings(self, pairs, bound):
        # Newton aims at the log-odds floor, where the fraction first is
        # positive: 4 evaluations on these two-point priors and 13 or 14 on
        # {-1, 1} at noise_sd 1e-3, where aiming at logit(5e-324) took 89-91
        # and 56-57
        prior = DiscretePrior.from_pairs(pairs)
        for alpha_g in (1.5, 2.0, 3.0):
            for sd in (1e-3, 1.0, 1e3):
                rule = DiscretePriorBayes(prior, alpha_g, sd)
                n = _evaluations(rule, lambda: _assert_prior_certified(rule, 5e-324))
                assert n <= bound, (alpha_g, sd, n)

    def test_a_crossing_inside_the_rounding_scale_gallops(self):
        # Newton steps of 0, within the rounding scale 1, with the fraction's
        # jump 1000 scales away: steps doubling from the scale pass it in 10
        # and bisection ends at adjacent floats, 62 evaluations; steps that
        # did not double would take 1043
        calls = []

        def probe(y, newton):
            calls.append(y)
            return (0.0 if y < 1000.0 else 1.0), 0.0, 1.0

        assert rules_module._crossing(0.5, probe, 2.0**20, 0.0, (0.0, 0.0, 1.0)) == 1000.0
        assert len(calls) <= 62


class TestJsonMapping:
    RULES = [
        EmpiricalSuccess(),
        Threshold(t=-0.3),
        HypothesisTest(alpha=0.1),
        MinimaxMSR(tau_star=TAU_STAR, scale=0.5),
        BayesFlatMSR(scale=2.0),
        PosteriorMatchFlat(),
        ComplementMix(base=Threshold(t=0.2), lam=0.07),
        ComplementMix(base=ComplementMix(base=EmpiricalSuccess(), lam=0.1), lam=0.2),
        DiscretePriorBayes(
            prior=DiscretePrior.from_pairs([(1.0, 0.25), (-0.5, 0.75)]),
            alpha_g=2.5,
            noise_sd=0.8,
        ),
    ]

    @pytest.mark.parametrize("rule", RULES, ids=lambda r: type(r).__name__)
    def test_round_trip(self, rule):
        data = json.loads(json.dumps(rule_to_dict(rule)))
        back = rule_from_dict(data)
        assert back == rule

    def test_kind_field_present(self):
        for rule in self.RULES:
            assert rule_to_dict(rule)["kind"] == rule.kind

    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError):
            rule_from_dict({"kind": "nope"})

    # json.dumps(rule_to_dict(r), sort_keys=True) of RULES, frozen before the
    # mapping moved to the kind registry
    FROZEN = [
        '{"kind": "empirical_success"}',
        '{"kind": "threshold", "t": -0.3}',
        '{"alpha": 0.1, "kind": "hypothesis_test"}',
        '{"kind": "minimax_msr", "scale": 0.5, "tau_star": 1.22814}',
        '{"kind": "bayes_flat_msr", "scale": 2.0}',
        '{"kind": "posterior_match_flat", "scale": 1.0}',
        '{"base": {"kind": "threshold", "t": 0.2}, "kind": "complement_mix", "lam": 0.07}',
        '{"base": {"base": {"kind": "empirical_success"}, "kind": "complement_mix", '
        '"lam": 0.1}, "kind": "complement_mix", "lam": 0.2}',
        '{"alpha_g": 2.5, "kind": "discrete_prior_bayes", "noise_sd": 0.8, '
        '"prior": [[1.0, 0.25], [-0.5, 0.75]]}',
    ]

    def test_frozen_payloads(self):
        got = [json.dumps(rule_to_dict(r), sort_keys=True) for r in self.RULES]
        assert got == self.FROZEN

    def test_every_concrete_rule_is_covered(self):
        # RULES round-trip above, so this makes every shipped kind round-trip
        concrete, pending = set(), [TreatmentRule]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if cls is not TreatmentRule and cls.__module__ == "msregret.rules":
                concrete.add(cls)
        assert concrete == {type(r) for r in self.RULES}

    def test_missing_fields(self):
        assert rule_from_dict({"kind": "minimax_msr", "tau_star": 1.5}) == MinimaxMSR(1.5)
        with pytest.raises(DomainError):
            rule_from_dict({"kind": "minimax_msr", "scale": 2.0})

    def test_unregistered_subclass_rejected(self):
        class Half(TreatmentRule):
            kind = "minimax_msr"

        with pytest.raises(DomainError):
            rule_to_dict(Half())


class TestHypothesisTestCut:
    """The critical value is -z_alpha, taken from alpha's own tail."""

    # the largest error of ndtri(alpha) over 5000 seeded log-uniform alphas
    # was 2.2 ulps of the cut
    ULPS = 3.0

    @staticmethod
    def ulps(alpha):
        cut = HypothesisTest(alpha=alpha).critical_value
        return float(abs(cut - oracles.normal_upper_quantile_mp(alpha)) / math.ulp(cut))

    def test_seeded_log_uniform_sweep_within_ulps_of_mpmath(self):
        rng = np.random.default_rng(3201)
        alphas = 10.0 ** rng.uniform(-300.0, math.log10(0.5), 150)
        assert max(self.ulps(float(a)) for a in alphas) <= self.ULPS

    @pytest.mark.parametrize("alpha", [0.05, 1e-6, 1e-12, 1e-16, 1e-17, 1e-300,
                                       0.49999999999999994])
    def test_small_and_near_half_sizes(self, alpha):
        # below about 1.1e-16, 1 - alpha rounds to 1 and its quantile is refused
        assert self.ulps(alpha) <= self.ULPS

    def test_the_size_005_cut_is_the_nearer_float(self):
        assert HypothesisTest(alpha=0.05).critical_value == 1.6448536269514729


class TestDiscretePriorWeightSum:
    def test_weights_off_one_by_a_millionth_are_refused(self):
        # from_pairs normalizes, so only direct construction can carry them
        with pytest.raises(DomainError, match="sum to 1"):
            DiscretePrior(((-1.0, 0.5), (1.0, 0.5 + 1e-6)))
        DiscretePrior(((-1.0, 0.5), (1.0, 0.5 + 1e-9)))
