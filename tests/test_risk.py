"""Exact risk functionals, worst cases, tails, and the seeded simulator."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from hypothesis import assume
from scipy.special import expit, logit, ndtri

import oracles
from msregret import (
    BayesFlatMSR,
    ComplementMix,
    ConvergenceError,
    DiscretePrior,
    DiscretePriorBayes,
    DomainError,
    EmpiricalSuccess,
    GaussianExperiment,
    HypothesisTest,
    MinimaxMSR,
    PosteriorMatchFlat,
    RiskReport,
    RngSeed,
    Threshold,
    TreatmentRule,
    bayes_msr,
    exact_risk,
    maximize_scalar,
    regret,
    risk_curve,
    risk_curve_csv,
    simulate,
    tail_probability,
    worst_case_mean_regret,
    worst_case_msr,
)
from msregret import risk
from msregret.risk import _normal_draws, _unit_curve, _unit_worst

TAU_STAR = 1.22814
CDF_MINUS_1 = 0.15865525393145707

# frozen from oracles.py: minimax rule at effect 1 with unit noise
MM_MEAN_REGRET = 0.2076867935201942
MM_MSR = 0.11331274782375539
MM_REGRET_SD = 0.26491308691919246
MM_TAIL_95 = 0.013948238026917718
ES_WELFARE_SD = 0.36535429973027816

# frozen worst-case units
MM_WORST_MSR = 0.11987899265878338
ES_WORST_MEAN_REGRET = 0.1699712074799036
ES_WORST_MSR = 0.16571661477885144

# frozen from oracles.py: the Bayes rule of the prior {-1: 1, 1: 1, 2: 0.5}
# under squared regret at unit noise
PRIOR3_PAIRS = [(-1.0, 1.0), (1.0, 1.0), (2.0, 0.5)]
PRIOR3_TAIL_01 = 0.4062915299574189  # P(Reg > 0.1) at tau = 1
PRIOR3_WORST_MSR = 0.15729250451144042
PRIOR3_ARGSUP = -1.30056154243124

# frozen from oracles.py: sups of two steep rules, grid_argmax at step 0.01
# and refine_max
MM200_WORST_MSR = 0.16502423558998242  # at +-1.18969
PRIOR3_SHARP_WORST_MSR = 0.16433894501144464  # noise sd 0.1, at 1.18880


def mm_rule() -> MinimaxMSR:
    return MinimaxMSR(tau_star=TAU_STAR)


def prior3_rule(alpha_g: float = 2.0) -> DiscretePriorBayes:
    return DiscretePriorBayes(DiscretePrior.from_pairs(PRIOR3_PAIRS), alpha_g, 1.0)


class TestExperiment:
    def test_stat_sd(self):
        assert GaussianExperiment(0.5, 2.0, 16).stat_sd == 0.5

    def test_validation(self):
        with pytest.raises(DomainError):
            GaussianExperiment(0.0, 0.0, 1)
        with pytest.raises(DomainError):
            GaussianExperiment(0.0, 1.0, 0)
        with pytest.raises(DomainError):
            GaussianExperiment(0.0, 1.0, 1.5)


class TestRegret:
    def test_zero_at_oracle_action(self):
        assert regret(1.0, 2.0) == 0.0
        assert regret(0.0, -2.0) == 0.0

    def test_wrong_side_costs_the_effect(self):
        assert regret(0.0, 2.0) == 2.0
        assert regret(1.0, -2.0) == 2.0

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=-10.0, max_value=10.0),
    )
    def test_nonnegative(self, frac, tau):
        assert regret(frac, tau) >= 0.0


class TestExactRisk:
    def test_zero_effect_is_riskless(self):
        report = exact_risk(mm_rule(), GaussianExperiment(0.0, 1.0, 1))
        assert report.mean_regret == 0.0
        assert report.mean_square_regret == 0.0
        assert report.welfare_mean == 0.0
        assert report.welfare_sd == 0.0

    def test_empirical_success_at_unit_effect(self):
        report = exact_risk(EmpiricalSuccess(), GaussianExperiment(1.0, 1.0, 1))
        # regret is 1{Ybar < 0}, so mean and mean square coincide at cdf(-1)
        assert abs(report.mean_regret - CDF_MINUS_1) < 1e-14
        assert abs(report.mean_square_regret - CDF_MINUS_1) < 1e-14
        assert abs(report.welfare_sd - ES_WELFARE_SD) < 1e-14
        assert abs(report.welfare_mean - (1.0 - CDF_MINUS_1)) < 1e-14

    def test_minimax_at_unit_effect(self):
        report = exact_risk(
            mm_rule(), GaussianExperiment(1.0, 1.0, 1), tail_thresholds=[0.95]
        )
        assert abs(report.mean_regret - MM_MEAN_REGRET) < 1e-9
        assert abs(report.mean_square_regret - MM_MSR) < 1e-9
        assert abs(report.regret_sd - MM_REGRET_SD) < 1e-9
        assert abs(report.tail[0][1] - MM_TAIL_95) < 1e-9

    def test_decomposition_identity(self):
        # second moment = squared mean + variance, and the variance is the
        # welfare variance
        rules = [mm_rule(), BayesFlatMSR(), EmpiricalSuccess(), Threshold(t=0.4)]
        for rule in rules:
            for tau in (-2.0, -0.5, 0.3, 1.0, 2.5):
                r = exact_risk(rule, GaussianExperiment(tau, 1.0, 1))
                assert abs(
                    r.mean_square_regret - (r.mean_regret**2 + r.regret_variance)
                ) < 1e-9
                assert r.welfare_sd == r.regret_sd

    def test_welfare_duality(self):
        for rule in (mm_rule(), PosteriorMatchFlat(), EmpiricalSuccess()):
            for tau in (-1.5, -0.2, 0.7, 2.0):
                r = exact_risk(rule, GaussianExperiment(tau, 1.0, 1))
                assert abs(r.welfare_mean + r.mean_regret - max(tau, 0.0)) < 1e-9

    def test_step_closed_form_matches_split_quadrature(self):
        # independent route: adaptive quadrature split exactly at the jump
        tau, sd, cut = 0.8, 1.0, 0.4
        rule = Threshold(t=cut)
        report = exact_risk(rule, GaussianExperiment(tau, sd, 1))
        dens = lambda y: math.exp(-0.5 * ((y - tau) / sd) ** 2) / (
            sd * math.sqrt(2.0 * math.pi)
        )
        lo_mass, _ = integrate.quad(dens, tau - 12 * sd, cut)
        # below the cut the fraction is 0, so regret is tau there
        want_mean = tau * lo_mass
        want_msr = tau * tau * lo_mass
        assert abs(report.mean_regret - want_mean) < 1e-10
        assert abs(report.mean_square_regret - want_msr) < 1e-10

    def test_mixed_step_closed_form_matches_split_quadrature(self):
        tau, lam = -0.9, 0.15
        rule = ComplementMix(base=EmpiricalSuccess(), lam=lam)
        report = exact_risk(rule, GaussianExperiment(tau, 1.0, 1))
        p_hi = 1.0 - oracles.cdf(-tau)  # P(Ybar >= 0)
        # fractions are lam below and 1-lam above; regret is |tau| * fraction
        want_mean = abs(tau) * (lam * (1 - p_hi) + (1 - lam) * p_hi)
        want_msr = tau * tau * (lam**2 * (1 - p_hi) + (1 - lam) ** 2 * p_hi)
        assert abs(report.mean_regret - want_mean) < 1e-14
        assert abs(report.mean_square_regret - want_msr) < 1e-14

    def test_smooth_rule_matches_adaptive_oracle(self):
        rule = mm_rule()
        tau, sd = 1.3, 0.7
        report = exact_risk(rule, GaussianExperiment(tau, sd, 1))
        want = oracles.normal_expectation(
            lambda y: (tau * (1.0 - float(expit(2 * TAU_STAR * y)))) ** 2, tau, sd
        )
        assert abs(report.mean_square_regret - want) < 1e-10

    def test_scale_equivariance(self):
        # doubling the statistic scale doubles regret units and quadruples
        # its square
        unit = exact_risk(mm_rule(), GaussianExperiment(0.7, 1.0, 1))
        wide = exact_risk(
            MinimaxMSR(tau_star=TAU_STAR, scale=2.0), GaussianExperiment(1.4, 2.0, 1)
        )
        assert abs(wide.mean_regret - 2.0 * unit.mean_regret) < 1e-10
        assert abs(wide.mean_square_regret - 4.0 * unit.mean_square_regret) < 1e-10

    def test_negative_effect_symmetry(self):
        # complement-symmetric rules have symmetric risk in the effect
        for rule in (mm_rule(), BayesFlatMSR(), PosteriorMatchFlat()):
            r_pos = exact_risk(rule, GaussianExperiment(0.9, 1.0, 1))
            r_neg = exact_risk(rule, GaussianExperiment(-0.9, 1.0, 1))
            assert abs(r_pos.mean_regret - r_neg.mean_regret) < 1e-10
            assert abs(r_pos.mean_square_regret - r_neg.mean_square_regret) < 1e-10

    def test_prior_bayes_rule_is_integrable(self):
        prior = DiscretePrior.from_pairs([(1.0, 0.5), (-1.0, 0.5)])
        rule = DiscretePriorBayes(prior=prior, alpha_g=2.0, noise_sd=1.0)
        # the two-point alpha=2 rule is the logistic, so risks must match
        want = exact_risk(MinimaxMSR(tau_star=1.0), GaussianExperiment(0.8, 1.0, 1))
        got = exact_risk(rule, GaussianExperiment(0.8, 1.0, 1))
        assert abs(got.mean_square_regret - want.mean_square_regret) < 1e-9

    def test_prior_bayes_sharp_noise_matches_logistic(self):
        # at noise sd 0.05 the far side's posterior weight underflows; the
        # two-point rule is still the logistic expit(800 y)
        prior = DiscretePrior.from_pairs([(-1.0, 0.5), (1.0, 0.5)])
        rule = DiscretePriorBayes(prior=prior, alpha_g=2.0, noise_sd=0.05)
        logistic = MinimaxMSR(tau_star=20.0, scale=0.05)
        for tau in (1.0, 0.05, -0.1):
            exp = GaussianExperiment(tau, 0.5, 100)
            got, want = exact_risk(rule, exp), exact_risk(logistic, exp)
            assert abs(got.mean_regret - want.mean_regret) < 1e-9
            assert abs(got.mean_square_regret - want.mean_square_regret) < 1e-9
            assert abs(got.welfare_sd - want.welfare_sd) < 1e-9

    def test_half_mixture_is_an_exact_constant(self):
        rule = ComplementMix(base=mm_rule(), lam=0.5)
        for tau in (-1.5, 0.8):
            r = exact_risk(rule, GaussianExperiment(tau, 1.0, 1), tail_thresholds=[0.1, 0.9])
            assert abs(r.mean_regret - 0.5 * abs(tau)) < 1e-15
            assert abs(r.mean_square_regret - 0.25 * tau * tau) < 1e-15
            assert abs(r.welfare_mean - 0.5 * tau) < 1e-15
            assert r.welfare_sd == 0.0
            # regret is |tau| / 2 with certainty
            assert r.tail == ((0.1, 1.0), (0.9, 0.0))

    def test_negative_zero_effect(self):
        rules = [mm_rule(), EmpiricalSuccess(), ComplementMix(BayesFlatMSR(), 0.7),
                 prior3_rule()]
        for rule in rules:
            pos = exact_risk(rule, GaussianExperiment(0.0, 1.0, 1), tail_thresholds=[0.0, 0.2])
            neg = exact_risk(rule, GaussianExperiment(-0.0, 1.0, 1), tail_thresholds=[0.0, 0.2])
            assert neg == pos

    def test_report_round_trip(self):
        report = exact_risk(
            mm_rule(), GaussianExperiment(1.0, 1.0, 1), tail_thresholds=[0.5, 0.95]
        )
        back = RiskReport.from_dict(report.to_dict())
        assert back == report


class TestTailProbability:
    def test_rejects_negative_threshold(self):
        with pytest.raises(DomainError):
            tail_probability(mm_rule(), GaussianExperiment(1.0, 1.0, 1), -0.1)

    def test_zero_effect(self):
        assert tail_probability(mm_rule(), GaussianExperiment(0.0, 1.0, 1), 0.1) == 0.0

    def test_step_rule_exact(self):
        exp = GaussianExperiment(1.0, 1.0, 1)
        assert abs(
            tail_probability(EmpiricalSuccess(), exp, 0.95) - CDF_MINUS_1
        ) < 1e-14
        # regret of a singleton rule never lands strictly between 0 and tau
        assert tail_probability(EmpiricalSuccess(), exp, 1.0) == 0.0

    def test_mixed_step_rule_exact(self):
        rule = ComplementMix(base=EmpiricalSuccess(), lam=0.1)
        exp = GaussianExperiment(1.0, 1.0, 1)
        # regret is 0.9 below zero and 0.1 above it
        assert abs(tail_probability(rule, exp, 0.5) - CDF_MINUS_1) < 1e-14
        assert tail_probability(rule, exp, 0.05) == 1.0
        assert tail_probability(rule, exp, 0.95) == 0.0

    def test_smooth_monotone_inversion_positive_effect(self):
        # P(Reg > c) inverts through the rule: the regret crosses c where the
        # fraction crosses 1 - c/tau
        exp = GaussianExperiment(1.0, 1.0, 1)
        for c in (0.2, 0.5, 0.95):
            got = tail_probability(mm_rule(), exp, c)
            ycut = float(logit(1.0 - c)) / (2.0 * TAU_STAR)
            want = float(oracles.cdf(ycut - 1.0))
            assert abs(got - want) < 1e-9

    def test_smooth_monotone_inversion_negative_effect(self):
        exp = GaussianExperiment(-1.0, 1.0, 1)
        got = tail_probability(mm_rule(), exp, 0.5)
        ycut = float(logit(0.5)) / (2.0 * TAU_STAR)
        want = 1.0 - float(oracles.cdf(ycut + 1.0))
        assert abs(got - want) < 1e-9

    def test_threshold_above_max_regret(self):
        exp = GaussianExperiment(0.5, 1.0, 1)
        assert tail_probability(mm_rule(), exp, 0.5) == 0.0
        assert tail_probability(mm_rule(), exp, 0.6) == 0.0

    def test_prior_bayes_exact_inversion(self):
        got = tail_probability(prior3_rule(), GaussianExperiment(1.0, 1.0, 1), 0.1)
        assert abs(got - PRIOR3_TAIL_01) < 1e-9

    def test_decreasing_mixture_exact(self):
        # Reg = 0.3 + 0.4 * base(y) > 0.5 iff y > 0
        rule = ComplementMix(base=BayesFlatMSR(), lam=0.7)
        got = tail_probability(rule, GaussianExperiment(1.0, 1.0, 1), 0.5)
        assert abs(got - (1.0 - float(oracles.cdf(-1.0)))) < 1e-12

    def test_no_crossing_inside_the_bracket(self):
        # the fraction never leaves [1e-12, 1 - 1e-12], so regret is always
        # above 1e-13 at tau = -1 and always below 1 - 1e-13 at tau = 1
        rule = prior3_rule()
        assert tail_probability(rule, GaussianExperiment(-1.0, 1.0, 1), 1e-13) == 1.0
        assert tail_probability(rule, GaussianExperiment(1.0, 1.0, 1), 1.0 - 1e-13) == 0.0

    def test_undeclared_rule_refused(self):
        class Wave(TreatmentRule):
            def evaluate(self, stat):
                return 0.5 + 0.4 * np.sin(stat)

        exp = GaussianExperiment(1.0, 1.0, 1)
        with pytest.raises(DomainError, match="Wave"):
            tail_probability(Wave(), exp, 0.3)
        with pytest.raises(DomainError):
            exact_risk(Wave(), exp, tail_thresholds=[0.3])

    def test_non_monotone_fallback_close_to_analytic(self):
        # lam > 1/2 flips the direction; the fixed-order indicator quadrature
        # is only approximate, so the tolerance here is loose by design
        rule = ComplementMix(base=BayesFlatMSR(), lam=0.7)
        exp = GaussianExperiment(1.0, 1.0, 1)
        got = tail_probability(rule, exp, 0.5)
        # Reg = 0.3 + 0.4 * base(y) > 0.5 iff base(y) > 0.5 iff y > 0
        want = 1.0 - float(oracles.cdf(-1.0))
        assert abs(got - want) < 2e-2


    def test_rejects_nan_threshold(self):
        exp = GaussianExperiment(1.0, 1.0, 1)
        for rule in (EmpiricalSuccess(), mm_rule(), BayesFlatMSR()):
            with pytest.raises(DomainError):
                tail_probability(rule, exp, math.nan)
            with pytest.raises(DomainError):
                exact_risk(rule, exp, tail_thresholds=[math.nan])

    def test_edge_thresholds_both_signs(self):
        # regret lies in (0, |tau|) for every rule here, so P(Reg > 0) is 1 and
        # P(Reg > |tau|) is 0; at threshold 0 the closed forms invert q = 0 or 1
        rules = [mm_rule(), PosteriorMatchFlat(0.7), BayesFlatMSR(), prior3_rule(),
                 ComplementMix(mm_rule(), 0.3), ComplementMix(PosteriorMatchFlat(), 0.8),
                 ComplementMix(BayesFlatMSR(), 0.2)]
        for rule in rules:
            for tau, sd in ((1.3, 1.0), (-1.3, 1.0), (30.0, 1.0), (-0.3, 0.01)):
                exp = GaussianExperiment(tau, sd, 1)
                assert tail_probability(rule, exp, 0.0) == 1.0, (rule, tau)
                assert tail_probability(rule, exp, abs(tau)) == 0.0, (rule, tau)

    def test_crossing_where_the_rule_underflows(self):
        # the fraction reaches 1e-300 near z = -34.7, where its values are so
        # small that Brent's inverse-quadratic denominator underflows to zero
        rule = BayesFlatMSR()
        assert tail_probability(rule, GaussianExperiment(-1.0, 1.0, 1), 1e-300) == 1.0

    def test_closed_form_rules_skip_the_search(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("closed-form inverse expected")

        monkeypatch.setattr(risk, "find_root", refuse)
        for cls in (MinimaxMSR, PosteriorMatchFlat):
            monkeypatch.setattr(cls, "evaluate", refuse)
        rules = [mm_rule(), PosteriorMatchFlat(0.7), ComplementMix(mm_rule(), 0.3),
                 ComplementMix(PosteriorMatchFlat(), 0.8)]
        for rule in rules:
            for tau, c in ((1.0, 0.3), (-1.0, 0.3), (1.0, 0.0), (-1.0, 0.0)):
                tail_probability(rule, GaussianExperiment(tau, 1.0, 1), c)

    def test_bracketed_rules_evaluate_once_before_brent(self, monkeypatch):
        events = []
        real_root = risk.find_root

        def spy_root(*args, **kwargs):
            events.append("find_root")
            return real_root(*args, **kwargs)

        monkeypatch.setattr(risk, "find_root", spy_root)
        for cls in (BayesFlatMSR, DiscretePriorBayes):
            def spy_evaluate(self, stat, real=cls.evaluate):
                events.append(np.shape(stat))
                return real(self, stat)

            monkeypatch.setattr(cls, "evaluate", spy_evaluate)
        for rule in (BayesFlatMSR(), prior3_rule(), ComplementMix(BayesFlatMSR(), 0.7)):
            events.clear()
            tail_probability(rule, GaussianExperiment(1.0, 1.0, 1), 0.5)
            assert events[:2] == [(481,), "find_root"], rule
            assert all(e == () for e in events[2:]), rule

    def test_brent_reuses_the_grid_values_at_the_cell_ends(self, monkeypatch):
        points = []
        real = BayesFlatMSR.evaluate

        def spy(self, stat):
            if np.ndim(stat) == 0:
                points.append(float(stat))
            return real(self, stat)

        monkeypatch.setattr(BayesFlatMSR, "evaluate", spy)
        exp = GaussianExperiment(0.7, 1.0, 1)
        tail_probability(BayesFlatMSR(), exp, 0.2)
        assert points
        # no scalar evaluation repeats a grid node
        assert not np.isin(points, exp.tau + exp.stat_sd * risk._TAIL_GRID).any()

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_independent_inversions(self, data):
        kind = data.draw(st.sampled_from(["logistic", "post-match", "bayes-flat", "prior"]))
        lam = data.draw(st.sampled_from([None, "below", "above"]))
        sd = data.draw(st.floats(0.1, 3.0))
        tau = data.draw(st.floats(0.01, 30.0)) * data.draw(st.sampled_from([-1.0, 1.0])) * sd
        scale = data.draw(st.floats(0.2, 5.0)) * sd
        if kind == "logistic":
            c = data.draw(st.floats(0.3, 5.0))
            base = MinimaxMSR(c, scale)
            cut = lambda b: scale * float(logit(b)) / (2.0 * c)
        elif kind == "post-match":
            base = PosteriorMatchFlat(scale)
            cut = lambda b: scale * float(ndtri(b))
        elif kind == "bayes-flat":
            base = BayesFlatMSR(scale)
            cut = lambda b: scale * oracles.bayes_flat_cut(b)
        else:
            pairs = [(-data.draw(st.floats(0.3, 3.0)), data.draw(st.floats(0.2, 1.0))),
                     (data.draw(st.floats(0.3, 3.0)), data.draw(st.floats(0.2, 1.0))),
                     (data.draw(st.floats(-3.0, 3.0)), data.draw(st.floats(0.2, 1.0)))]
            assume(len({t for t, _ in pairs}) == 3 and pairs[2][0] != 0.0)
            alpha_g = data.draw(st.sampled_from([1.5, 2.0, 3.0]))
            noise_sd = data.draw(st.floats(0.5, 2.0))
            base = DiscretePriorBayes(DiscretePrior.from_pairs(pairs), alpha_g, noise_sd)
            weights = sum(w for _, w in pairs)
            pairs = [(t, w / weights) for t, w in pairs]
            cut = lambda b: oracles.prior_bayes_cut(pairs, alpha_g, noise_sd, b)
        if lam is None:
            rule, mix = base, 0.0
        else:
            mix = data.draw(st.floats(0.05, 0.45) if lam == "below" else st.floats(0.55, 0.95))
            rule = ComplementMix(base, mix)
        # threshold: the two edges, or where the base crosses b; the rule's
        # own rounding hides its crossing when b is within 0.01 of 0 or 1
        where = data.draw(st.sampled_from(["zero", "tau", "inside"]))
        if where == "zero":
            threshold = 0.0
        elif where == "tau":
            threshold = abs(tau)
        else:
            q = mix + (1.0 - 2.0 * mix) * data.draw(st.floats(0.01, 0.99))
            threshold = tau * (1.0 - q) if tau > 0 else -tau * q
        got = tail_probability(rule, GaussianExperiment(tau, sd, 1), threshold)

        q = 1.0 - threshold / tau if tau > 0 else threshold / -tau
        b = (q - mix) / (1.0 - 2.0 * mix)
        if (tau > 0 and q <= 0.0) or (tau < 0 and q >= 1.0):
            want = 0.0
        elif kind == "prior" and lam is None:
            want = oracles.prior_bayes_tail(pairs, alpha_g, noise_sd, tau, threshold, sd)
        else:
            y = -math.inf if b <= 0.0 else math.inf if b >= 1.0 else cut(b)
            want = oracles.crossing_tail(y, mix < 0.5, tau, sd)
        assert abs(got - want) <= 1e-12, (rule, tau, sd, threshold, got, want)


class TestWorstCase:
    def test_minimax_unit_value(self):
        w = worst_case_msr(mm_rule(), 1.0, 1)
        assert abs(w.sup - MM_WORST_MSR) < 1e-9
        assert abs(abs(w.argsup_tau) - TAU_STAR) < 1e-3
        assert not w.saturated

    def test_es_unit_values(self):
        w1 = worst_case_mean_regret(EmpiricalSuccess(), 1.0, 1)
        w2 = worst_case_msr(EmpiricalSuccess(), 1.0, 1)
        assert abs(w1.sup - ES_WORST_MEAN_REGRET) < 1e-9
        assert abs(w2.sup - ES_WORST_MSR) < 1e-9
        assert abs(abs(w1.argsup_tau) - 0.7517915166688109) < 1e-5
        assert abs(abs(w2.argsup_tau) - 1.1906012479563086) < 1e-5

    def test_scaling(self):
        base = worst_case_msr(mm_rule(), 1.0, 1)
        scaled = worst_case_msr(mm_rule(), 3.0, 2)
        assert abs(scaled.sup - base.sup * 9.0 / 2.0) < 1e-12
        assert abs(abs(scaled.argsup_tau) - abs(base.argsup_tau) * 3.0 / math.sqrt(2.0)) < 1e-9
        base_mr = worst_case_mean_regret(EmpiricalSuccess(), 1.0, 1)
        scaled_mr = worst_case_mean_regret(EmpiricalSuccess(), 2.0, 4)
        assert abs(scaled_mr.sup - base_mr.sup) < 1e-12

    def test_degenerate_rule_saturates(self):
        # a threshold far in the tail treats almost surely, so regret grows
        # all the way to the scan edge under negative effects
        w = worst_case_msr(Threshold(t=-30.0), 1.0, 1)
        assert w.saturated
        assert w.argsup_tau < -7.9
        assert w.sup > 60.0

    def test_prior_bayes_matches_oracle(self):
        w = worst_case_msr(prior3_rule(), 1.0, 1)
        want = oracles.prior_bayes_msr(prior3_rule().prior.support, 2.0, 1.0, w.argsup_tau)
        assert abs(w.sup - want) < 1e-9
        assert abs(w.sup - PRIOR3_WORST_MSR) < 1e-9
        assert abs(w.argsup_tau - PRIOR3_ARGSUP) < 1e-5
        assert not w.saturated

    def test_steep_minimax_sup_matches_oracle(self):
        w = worst_case_msr(MinimaxMSR(200.0), 1.0, 1)
        assert abs(w.sup - MM200_WORST_MSR) < 1e-10
        assert abs(abs(w.argsup_tau) - 1.18969) < 1e-4
        assert abs(w.sup - oracles.minimax_msr_at(w.argsup_tau, 200.0)) < 1e-10
        assert not w.saturated

    def test_sharp_prior_bayes_sup_matches_oracle(self):
        rule = DiscretePriorBayes(DiscretePrior.from_pairs(PRIOR3_PAIRS), 2.0, 0.1)
        w = worst_case_msr(rule, 1.0, 1)
        assert abs(w.sup - PRIOR3_SHARP_WORST_MSR) < 1e-10
        want = oracles.prior_bayes_msr(rule.prior.support, 2.0, 0.1, w.argsup_tau, 1.0)
        assert abs(w.sup - want) < 1e-10
        assert abs(w.argsup_tau - 1.18880) < 1e-4

    def test_minimax_flatness_near_the_calibrated_level(self):
        # the defining property: the risk curve of the calibrated rule peaks
        # at the saddle level
        got = exact_risk(mm_rule(), GaussianExperiment(TAU_STAR, 1.0, 1))
        assert abs(got.mean_square_regret - MM_WORST_MSR) < 1e-7


class TestWorstCaseScan:
    @pytest.mark.parametrize(
        "rule", [MinimaxMSR(TAU_STAR), BayesFlatMSR(), EmpiricalSuccess()],
        ids=["minimax", "bayes-flat", "es"],
    )
    def test_twin_peaks_keep_the_better_refinement(self, rule, monkeypatch):
        # a symmetric rule peaks at +-b; each side is located on the 0.01 grid
        # by exact_risk and refined between its neighbours, as the scan does
        def msr(b):
            return exact_risk(rule, GaussianExperiment(float(b), 1.0, 1)).mean_square_regret

        brackets = []

        def recording(f, lo, hi, tol):
            brackets.append((lo, hi))
            return maximize_scalar(f, lo, hi, tol)

        monkeypatch.setattr(risk, "maximize_scalar", recording)
        _unit_worst.cache_clear()
        w = worst_case_msr(rule, 1.0, 1)
        assert len(brackets) == 2 and brackets[0] == (-brackets[1][1], -brackets[1][0])
        monkeypatch.undo()
        peak = round(abs(w.argsup_tau) * 100)
        refined = []
        for sign in (-1, 1):
            ks = [sign * k for k in range(peak - 3, peak + 4)]
            k = max(ks, key=lambda k: msr(k / 100))
            refined.append(maximize_scalar(msr, (k - 1) / 100, (k + 1) / 100, tol=1e-10))
        assert abs(refined[0][1] - refined[1][1]) < 1e-12
        assert (w.argsup_tau, w.sup) == max(refined, key=lambda r: r[1])
        _unit_worst.cache_clear()
        assert worst_case_msr(rule, 1.0, 1) == w

    @pytest.mark.parametrize(
        "rule",
        [MinimaxMSR(200.0), DiscretePriorBayes(DiscretePrior.from_pairs(PRIOR3_PAIRS), 2.0, 0.1)],
        ids=["minimax-200", "prior-bayes-sharp"],
    )
    def test_curve_is_within_its_certified_error(self, rule):
        for power in (1, 2):
            grid, vals, err = _unit_curve(rule, power)
            assert len(grid) == 1601 and err <= 1e-10
            for i in range(0, 1601, 40):
                rep = exact_risk(rule, GaussianExperiment(float(grid[i]), 1.0, 1))
                want = rep.mean_regret if power == 1 else rep.mean_square_regret
                # exact_risk carries its own 1e-10 tolerance
                assert abs(vals[i] - want) <= err + 2e-10

    def test_rule_too_steep_for_the_scan_is_refused(self):
        with pytest.raises(ConvergenceError, match="not certified"):
            worst_case_msr(MinimaxMSR(1e5), 1.0, 1)


class TestBayesMsr:
    def test_two_point_symmetric_empirical_success(self):
        prior = DiscretePrior.from_pairs([(1.0, 0.5), (-1.0, 0.5)])
        got = bayes_msr(EmpiricalSuccess(), prior, 1.0, 1)
        assert abs(got - CDF_MINUS_1) < 1e-14

    def test_point_mass_at_zero(self):
        prior = DiscretePrior.from_pairs([(0.0, 1.0)])
        assert bayes_msr(mm_rule(), prior, 1.0, 1) == 0.0

    def test_weights_average_the_states(self):
        pa = DiscretePrior.from_pairs([(0.5, 1.0)])
        pb = DiscretePrior.from_pairs([(-1.5, 1.0)])
        mix = DiscretePrior.from_pairs([(0.5, 0.3), (-1.5, 0.7)])
        a = bayes_msr(mm_rule(), pa, 1.0, 1)
        b = bayes_msr(mm_rule(), pb, 1.0, 1)
        m = bayes_msr(mm_rule(), mix, 1.0, 1)
        assert abs(m - (0.3 * a + 0.7 * b)) < 1e-12


class TestNormalDraws:
    def test_prefix_stability(self):
        # draw i depends only on the seed and i, never on the batch size
        seed = RngSeed(123)
        short = _normal_draws(seed, 1000)
        long = _normal_draws(seed, 3000)
        assert np.array_equal(short, long[:1000])

    def test_chunk_boundary_prefix(self):
        seed = RngSeed(7)
        a = _normal_draws(seed, 2**16 + 3)
        b = _normal_draws(seed, 2**17)
        assert np.array_equal(a, b[: 2**16 + 3])

    def test_seed_sensitivity(self):
        assert not np.array_equal(_normal_draws(RngSeed(1), 64), _normal_draws(RngSeed(2), 64))

    def test_last_draws_are_kept_read_only(self):
        # figure1 simulates two rules from one seed: the second call reuses the draws
        a = _normal_draws(RngSeed(9), 500)
        assert _normal_draws(RngSeed(9), 500) is a
        assert not a.flags.writeable

    def test_moments_sane(self):
        x = _normal_draws(RngSeed(5), 200_000)
        assert abs(x.mean()) < 0.01
        assert abs(x.std() - 1.0) < 0.01


class TestSimulate:
    def test_deterministic_given_seed(self):
        exp = GaussianExperiment(1.0, 1.0, 1)
        a = simulate(mm_rule(), exp, 5000, RngSeed(42), tail_thresholds=[0.95])
        b = simulate(mm_rule(), exp, 5000, RngSeed(42), tail_thresholds=[0.95])
        assert a == b

    def test_seed_changes_the_answer(self):
        exp = GaussianExperiment(1.0, 1.0, 1)
        a = simulate(mm_rule(), exp, 5000, RngSeed(42))
        b = simulate(mm_rule(), exp, 5000, RngSeed(43))
        assert a.mean_regret != b.mean_regret

    def test_rejects_degenerate_replication_count(self):
        with pytest.raises(DomainError):
            simulate(mm_rule(), GaussianExperiment(1.0, 1.0, 1), 1, RngSeed(0))

    def test_matches_quadrature_within_sampling_error(self):
        exp = GaussianExperiment(1.0, 1.0, 1)
        for rule in (mm_rule(), EmpiricalSuccess(), BayesFlatMSR()):
            exact = exact_risk(rule, exp, tail_thresholds=[0.95])
            sim = simulate(rule, exp, 200_000, RngSeed(9), tail_thresholds=[0.95])
            assert abs(sim.mean_regret - exact.mean_regret) < 4 * sim.se_mean_regret
            assert abs(
                sim.mean_square_regret - exact.mean_square_regret
            ) < 4 * sim.se_mean_square_regret
            if sim.se_regret_sd > 0:
                assert abs(sim.regret_sd - exact.regret_sd) < 4 * sim.se_regret_sd
            t, p, se = sim.tail[0]
            if se > 0:
                assert abs(p - exact.tail[0][1]) < 4 * se

    @given(
        st.sampled_from([
            mm_rule(),
            BayesFlatMSR(),
            ComplementMix(base=mm_rule(), lam=0.3),
            ComplementMix(base=BayesFlatMSR(), lam=0.7),
            prior3_rule(3.0),
        ]),
        st.floats(min_value=0.05, max_value=2.5),
        st.booleans(),
    )
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_agrees_with_exact_risk_property(self, rule, size, negative):
        tau = -size if negative else size
        exp = GaussianExperiment(tau, 1.0, 1)
        exact = exact_risk(rule, exp)
        sim = simulate(rule, exp, 20_000, RngSeed(2026))
        assert abs(sim.mean_regret - exact.mean_regret) < 5 * sim.se_mean_regret
        assert abs(
            sim.mean_square_regret - exact.mean_square_regret
        ) < 5 * sim.se_mean_square_regret

    def test_welfare_and_regret_spreads_coincide(self):
        # welfare and regret differ by a constant given the effect
        sim = simulate(mm_rule(), GaussianExperiment(0.8, 1.0, 1), 10_000, RngSeed(3))
        assert sim.welfare_sd == sim.regret_sd
        assert sim.se_welfare_mean == sim.se_mean_regret
        assert sim.se_welfare_sd == sim.se_regret_sd

    def test_welfare_duality_exact_in_sample(self):
        sim = simulate(mm_rule(), GaussianExperiment(0.8, 1.0, 1), 10_000, RngSeed(3))
        assert abs(sim.welfare_mean + sim.mean_regret - 0.8) < 1e-12

    def test_tail_se_formula(self):
        sim = simulate(
            mm_rule(), GaussianExperiment(1.0, 1.0, 1), 10_000, RngSeed(3),
            tail_thresholds=[0.95],
        )
        _, p, se = sim.tail[0]
        assert abs(se - math.sqrt(p * (1.0 - p) / 10_000)) < 1e-15

    def test_summary_round_trip(self):
        from msregret import SimulationSummary

        sim = simulate(
            mm_rule(), GaussianExperiment(1.0, 1.0, 1), 2000, RngSeed(11),
            tail_thresholds=[0.5],
        )
        back = SimulationSummary.from_dict(sim.to_dict())
        assert back == sim


def one_array_summary(rule, exp, reps, seed, tails):
    """simulate's statistics from numpy's mean/var/std on one array of draws."""
    tau = exp.tau
    ind = 1.0 if tau >= 0 else 0.0
    frac = np.asarray(rule.evaluate(tau + exp.stat_sd * _normal_draws(seed, reps)), dtype=float)
    reg = tau * (ind - frac)
    welfare = tau * frac
    root = math.sqrt(float(reps))
    mean_reg = float(reg.mean())
    sd_reg = math.sqrt(float(reg.var(ddof=1)))
    reg2 = reg * reg
    se_var = float(((reg - mean_reg) ** 2).std(ddof=1)) / root
    ps = [float((reg > c).mean()) for c in tails]
    return {
        "mean_regret": mean_reg,
        "regret_variance": float(reg.var(ddof=1)),
        "mean_square_regret": float(reg2.mean()),
        "welfare_mean": float(welfare.mean()),
        "welfare_sd": float(welfare.std(ddof=1)),
        "se_mean_regret": sd_reg / root,
        "se_mean_square_regret": float(reg2.std(ddof=1)) / root,
        "se_regret_sd": se_var / (2.0 * sd_reg) if sd_reg > 0 else 0.0,
        "tail": [(float(c), p, math.sqrt(p * (1.0 - p) / reps)) for c, p in zip(tails, ps)],
    }


SUMMARY_FIELDS = (
    "mean_regret", "regret_variance", "mean_square_regret", "welfare_mean", "welfare_sd",
    "se_mean_regret", "se_mean_square_regret", "se_regret_sd",
)
SIM_CASES = [
    (mm_rule(), GaussianExperiment(0.4, 1.0, 1)),
    (BayesFlatMSR(), GaussianExperiment(-0.7, 2.0, 4)),
    (ComplementMix(base=mm_rule(), lam=0.3), GaussianExperiment(1.1, 1.0, 1)),
    (Threshold(0.1), GaussianExperiment(-0.2, 1.0, 1)),
]


class TestSimulateBlocks:
    def summary(self, rule, exp, reps, seed):
        sim = simulate(rule, exp, reps, seed, tail_thresholds=[0.05, 0.3])
        got = {k: getattr(sim, k) for k in SUMMARY_FIELDS}
        got["tail"] = list(sim.tail)
        return got

    @pytest.mark.parametrize("reps", [2, 3, 1000, 8191, 8192])
    def test_one_block_is_numpy_bit_for_bit(self, reps):
        for k, (rule, exp) in enumerate(SIM_CASES):
            seed = RngSeed(300 + k)
            want = one_array_summary(rule, exp, reps, seed, [0.05, 0.3])
            assert self.summary(rule, exp, reps, seed) == want

    @pytest.mark.parametrize("reps", [8191, 8192, 8193, 2 * 8192 + 3, 20_000])
    def test_block_edges_match_one_array(self, reps):
        for k, (rule, exp) in enumerate(SIM_CASES):
            seed = RngSeed(400 + k)
            want = one_array_summary(rule, exp, reps, seed, [0.05, 0.3])
            got = self.summary(rule, exp, reps, seed)
            # tail probabilities are counts over reps, exact in any order
            assert got.pop("tail") == want.pop("tail")
            for key, value in want.items():
                assert abs(got[key] - value) <= 1e-12 * abs(value), key

    def test_rule_sees_blocks_of_at_most_8192_draws(self, monkeypatch):
        sizes = []
        real = MinimaxMSR.evaluate

        def spy(self, stat):
            sizes.append(np.size(stat))
            return real(self, stat)

        monkeypatch.setattr(MinimaxMSR, "evaluate", spy)
        simulate(mm_rule(), GaussianExperiment(0.4, 1.0, 1), 20_000, RngSeed(1))
        assert sizes == [8192, 8192, 3616]


class TestRiskCurve:
    def test_rows_match_pointwise_reports(self):
        grid = [0.0, 0.5, 1.0]
        curve = risk_curve(mm_rule(), grid, 1.0, 1)
        assert [tau for tau, _ in curve] == grid
        direct = exact_risk(mm_rule(), GaussianExperiment(0.5, 1.0, 1))
        assert curve[1][1] == direct

    def test_csv_shape(self):
        curve = risk_curve(EmpiricalSuccess(), [0.0, 1.0], 1.0, 1)
        text = risk_curve_csv(curve)
        lines = text.strip().split("\n")
        assert lines[0] == "tau,mean_regret,regret_sd,msr,welfare_mean,welfare_sd"
        assert len(lines) == 3
        cells = lines[2].split(",")
        assert float(cells[0]) == 1.0
        assert abs(float(cells[3]) - CDF_MINUS_1) < 1e-12
