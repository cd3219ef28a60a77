"""Rule evaluation: reference grid values, invariants, and the Bayes solver."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

import oracles
from msregret import (
    BayesFlatMSR,
    ComplementMix,
    DiscretePrior,
    DiscretePriorBayes,
    DomainError,
    EmpiricalSuccess,
    HypothesisTest,
    MinimaxMSR,
    PosteriorMatchFlat,
    PriorSupportError,
    Threshold,
    TreatmentRule,
    evaluate,
    psi,
    rule_from_dict,
    rule_to_dict,
    solve_bayes_foc,
    std_normal_cdf,
    std_normal_pdf,
    tilted_posterior_match_msr,
)

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

    def test_monotone_in_the_statistic(self):
        prior = DiscretePrior.from_pairs([(1.0, 0.4), (-2.0, 0.6)])
        rule = DiscretePriorBayes(prior=prior, alpha_g=2.0, noise_sd=1.0)
        ss = np.linspace(-4.0, 4.0, 41)
        vals = rule.evaluate(ss)
        assert vals.shape == ss.shape
        assert np.all(np.diff(vals) > 0.0)


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
