"""Rule evaluation: reference grid values, invariants, and the Bayes solver."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
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
    evaluate,
    psi,
    rule_from_dict,
    rule_to_dict,
    simulate,
    solve_bayes_foc,
    std_normal_cdf,
    std_normal_pdf,
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

    def test_hypothesis_test_critical_value(self):
        rule = HypothesisTest(alpha=0.05)
        crit = 1.6448536269514722
        assert abs(rule.critical_value - crit) < 1e-12
        assert rule.evaluate(crit - 1e-9) == 0.0
        assert rule.evaluate(crit + 1e-9) == 1.0

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
        with pytest.raises(DomainError):
            MinimaxMSR(tau_star=0.0)
        with pytest.raises(DomainError):
            MinimaxMSR(tau_star=TAU_STAR, scale=0.0)

    @given(finite_stats)
    def test_complement_symmetry(self, y):
        rule = MinimaxMSR(tau_star=TAU_STAR)
        assert abs(rule.evaluate(y) + rule.evaluate(-y) - 1.0) < 1e-12


class TestBayesFlatRule:
    def test_center_is_half(self):
        assert BayesFlatMSR().evaluate(0.0) == 0.5

    def test_matches_published_form(self):
        # cdf(u) * (1 + u * psi(u)) without the stabilized rearrangement
        rule = BayesFlatMSR()
        for u in np.linspace(-8.0, 8.0, 81):
            direct = oracles.cdf(u) * (1.0 + u * psi(u))
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


def _bayes_flat_reference(u):
    # the published form through the public normal functions, clipped
    out = std_normal_cdf(u) + u * std_normal_pdf(u) / (1.0 + u * u)
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


class TestPsi:
    def test_positive_everywhere(self):
        xs = np.linspace(-30.0, 30.0, 301)
        assert np.all(psi(xs) > 0.0)

    def test_matches_naive_form_where_stable(self):
        for x in np.linspace(-5.0, 5.0, 41):
            naive = oracles.phi(x) / (oracles.cdf(x) * (1.0 + x * x))
            assert abs(psi(float(x)) - naive) < 1e-12


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


class TestRangeInvariant:
    @given(finite_stats)
    def test_every_rule_maps_into_unit_interval(self, y):
        for rule in ALL_SMOOTH + ALL_STEP:
            v = evaluate(rule, y)
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

    def test_tilted_frozen_anchor(self):
        prior = DiscretePrior.from_pairs([(2.0, 0.5), (-1.0, 0.5)])
        got = tilted_posterior_match_msr(prior, 1.0, 0.0)
        assert abs(got - 0.4716041777561374) < 1e-12

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
    def test_interior_solution_property(self, s, alpha_g):
        prior = DiscretePrior.from_pairs([(1.5, 0.3), (-0.7, 0.7)])
        d = solve_bayes_foc(prior, alpha_g, 1.0, s)
        assert 0.0 < d < 1.0

    def test_posterior_underflow_is_not_one_sided(self):
        # at noise sd 0.05 the posterior weight of -1 given stat 1 is below the
        # smallest double, but the prior is two-sided: the fraction is the
        # upper clip, not a refusal
        prior = DiscretePrior.from_pairs([(-1.0, 0.5), (1.0, 0.5)])
        assert solve_bayes_foc(prior, 2.0, 0.05, 1.0) == 1.0 - 1e-12
        assert solve_bayes_foc(prior, 2.0, 0.05, -1.0) == 1e-12

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

    def test_evaluate_calls_the_module_solver_once(self, monkeypatch):
        calls = []
        solve = rules_module.solve_bayes_foc

        def spy(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(rules_module, "solve_bayes_foc", spy)
        prior = DiscretePrior.from_pairs([(-1.0, 1.0), (1.0, 1.0), (2.0, 0.5)])
        rule = DiscretePriorBayes(prior=prior, alpha_g=2.0, noise_sd=1.0)
        rule.evaluate(np.linspace(-3.0, 3.0, 24))
        assert len(calls) == 1
        rule.evaluate(0.5)
        assert len(calls) == 2

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
        scalars = np.array([rule.evaluate(float(s)) for s in stats])
        assert scalars.tobytes() == vals.tobytes()
        assert rule.evaluate(stats.reshape(4, 6)).tobytes() == vals.tobytes()

    def test_monotone_in_the_statistic(self):
        prior = DiscretePrior.from_pairs([(1.0, 0.4), (-2.0, 0.6)])
        rule = DiscretePriorBayes(prior=prior, alpha_g=2.0, noise_sd=1.0)
        ss = np.linspace(-4.0, 4.0, 41)
        vals = rule.evaluate(ss)
        assert vals.shape == ss.shape
        assert np.all(np.diff(vals) > 0.0)


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
                    1e-12, 1e-12, 1e-12, 3.915455536160516e-12, 8.659604796677237e-11,
                    1.912226131449808e-09,
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
                    0.9999999999023332, 0.9999999999977398, 0.999999999999, 0.999999999999,
                    0.999999999999, 0.999999999999,
                ],
            ],
            "special": [
                0.999999999999, 1e-12, NAN, 0.4445956893845991, 0.4445956893845991,
                0.999999999999, 1e-12,
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
                0.999999999999, 1e-12, NAN, 0.49159962159381454, 0.49159962159381454,
                0.999999999999, 1e-12,
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
                0.999999999999, 1e-12, NAN, 0.4377020189131108, 0.4377020189131108,
                0.999999999999, 1e-12,
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
                0.999999999999, 1e-12, NAN, 0.5463491066966051, 0.5463491066966051,
                0.999999999999, 1e-12,
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
                0.999999999999, 1e-12, NAN, 0.4428842160584389, 0.4428842160584389,
                0.999999999999, 1e-12,
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
                0.999999999999, 1e-12, NAN, 0.5733904392342579, 0.5733904392342579,
                0.999999999999, 1e-12,
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
        # the terms and their float form are built by the first call, with
        # alpha_g of another type; every later type must read the same pins
        want = self.FROZEN_BAYES[alpha_g]
        prior = DiscretePrior.from_pairs(self.PIN_PAIRS)
        solve_bayes_foc(prior, warm(alpha_g), 0.8, 0.7)
        for a in (alpha_g, int(alpha_g), np.float64(alpha_g), np.array(alpha_g)):
            scalars = [solve_bayes_foc(prior, a, 0.8, s) for s in self.SCALARS]
            assert all(type(v) is float for v in scalars)
            assert self.same(scalars, want["scalars"])
            assert self.same(solve_bayes_foc(prior, a, 0.8, self.TABLE).tolist(),
                             want["table"])
        assert list(prior._foc_terms) == [alpha_g]

    # the six fixed tail cases of the prior-bayes benchmark workload:
    # (prior, alpha_g, noise_sd, tau, threshold) and P(Reg > threshold)
    FROZEN_TAILS = [
        ([(-1.0, 1.0), (1.0, 1.0), (2.0, 0.5)], 2.0, 1.0, 1.0, 0.1, 0.4062915299574522),
        ([(-1.0, 1.0), (1.0, 1.0), (2.0, 0.5)], 3.0, 1.0, 1.0, 0.3, 0.28051501385958133),
        ([(-2.0, 0.5), (1.0, 0.5)], 1.5, 1.0, 0.5, 0.2, 0.27898853244228833),
        ([(-1.5, 0.3), (-0.5, 0.2), (0.5, 0.2), (1.5, 0.3)], 2.0, 0.5, -0.8, 0.3,
         0.07814572622654883),
        ([(-1.0, 0.6), (2.5, 0.4)], 3.0, 2.0, 1.5, 0.5, 0.1782847466888604),
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
        (0.1, 0.16433894501118618, 1.18879641641774),
    ]

    @pytest.mark.parametrize("case", range(6))
    def test_tail_probabilities(self, case):
        pairs, alpha_g, sd, tau, threshold, want = self.FROZEN_TAILS[case]
        rule = DiscretePriorBayes(DiscretePrior.from_pairs(pairs), alpha_g, sd)
        assert tail_probability(rule, GaussianExperiment(tau, sd, 1), threshold) == want

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
    """solve_bayes_foc keeps each prior's sign split and log terms per alpha_g
    for its scalar calls."""

    PAIRS = [(-1.0, 1.0), (1.0, 1.0), (2.0, 0.5)]

    class CountingDict(dict):
        def __init__(self):
            super().__init__()
            self.sets = 0

        def __setitem__(self, key, value):
            self.sets += 1
            super().__setitem__(key, value)

    def fresh(self):
        # a prior whose memo counts the entries it is given
        prior = DiscretePrior.from_pairs(self.PAIRS)
        object.__setattr__(prior, "_foc_terms", self.CountingDict())
        return prior

    def test_one_tail_stores_the_terms_once(self, monkeypatch):
        solves, builds = [], []
        solve, build = rules_module.solve_bayes_foc, rules_module._foc_terms

        def counted_solve(*args):
            solves.append(type(args[3]))
            return solve(*args)

        def counted_build(*args):
            builds.append(args)
            return build(*args)

        monkeypatch.setattr(rules_module, "solve_bayes_foc", counted_solve)
        monkeypatch.setattr(rules_module, "_foc_terms", counted_build)
        prior = self.fresh()
        rule = DiscretePriorBayes(prior, 2.0, 1.0)
        exp = GaussianExperiment(1.0, 1.0, 1)
        assert tail_probability(rule, exp, 0.1) == 0.4062915299574522
        # the grid's array call, then Brent's scalar calls on one stored entry
        assert solves[0] is np.ndarray and solves.count(float) == len(solves) - 1 > 1
        assert len(builds) == 2 and prior._foc_terms.sets == 1
        entry = prior._foc_terms[2.0]
        tail_probability(rule, exp, 0.3)
        tail_probability(DiscretePriorBayes(prior, 2, 0.5), exp, 0.1)
        # each later tail builds for its grid only
        assert len(builds) == 4 and prior._foc_terms.sets == 1
        assert prior._foc_terms == {2.0: entry} and prior._foc_terms[2.0] is entry

    def test_array_calls_store_nothing(self):
        prior = self.fresh()
        rule = DiscretePriorBayes(prior, 3.0, 1.0)
        rule.evaluate(np.linspace(-4.0, 4.0, 24))
        rule.evaluate(np.float64(0.5))
        assert not prior._foc_terms and prior._foc_terms.sets == 0
        rule.evaluate(0.5)
        assert list(prior._foc_terms) == [3.0] and prior._foc_terms.sets == 1

    def test_the_memo_is_invisible(self):
        import pickle

        cold = DiscretePrior.from_pairs(self.PAIRS)
        warm = DiscretePrior.from_pairs(self.PAIRS)
        for alpha_g in (1.5, 2.0, 3.0):
            DiscretePriorBayes(warm, alpha_g, 1.0).evaluate(0.25)
        assert len(warm._foc_terms) == 3 and not cold._foc_terms
        assert warm == cold and hash(warm) == hash(cold)
        rule_w, rule_c = (DiscretePriorBayes(p, 2.0, 1.0) for p in (warm, cold))
        assert rule_w == rule_c and hash(rule_w) == hash(rule_c)
        assert rule_to_dict(rule_w) == rule_to_dict(rule_c)
        twin = pickle.loads(pickle.dumps(rule_w))
        assert twin == rule_w == rule_c and hash(twin) == hash(rule_c)
        assert twin.evaluate(0.25) == rule_w.evaluate(0.25)


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
