"""Exact risk functionals, worst cases, tails, and the seeded simulator."""
import json
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from hypothesis import assume
from scipy.special import expit, logit, ndtr, ndtri

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
    PriorSupportError,
    RiskReport,
    RngSeed,
    SimulationSummary,
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
from msregret import numerics, risk
from msregret import rules as rules_module
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


def _refuse_find_root(monkeypatch) -> None:
    # every msregret module that binds Brent's root finder gets one that fails
    def refuse(*args, **kwargs):
        raise AssertionError("no Brent root expected")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "msregret" and hasattr(module, "find_root"):
            monkeypatch.setattr(module, "find_root", refuse)


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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_refuses_a_non_finite_effect_or_noise(self, value):
        with pytest.raises(DomainError, match="tau must be finite"):
            GaussianExperiment(value, 1.0, 1)
        with pytest.raises(DomainError, match="sigma must be positive and finite"):
            GaussianExperiment(1.0, value, 1)

    def test_refuses_a_statistic_sd_that_is_not_a_positive_float(self):
        # sigma / sqrt(n) rounding to 0, and an n that math.sqrt cannot take;
        # risk_curve builds the same experiment, so it refuses the same way
        with pytest.raises(DomainError, match=r"^sigma / sqrt\(n\) underflows to 0 at sigma"):
            GaussianExperiment(1.0, 5e-324, 10**16)
        with pytest.raises(DomainError, match="^n must be at most the float maximum, got 1329 "):
            GaussianExperiment(1.0, 1.0, 10**400)
        with pytest.raises(DomainError, match="underflows to 0"):
            risk_curve(Threshold(0.0), [0.5], 5e-324, 10**16)
        # the smallest sd that is a float still is one
        assert GaussianExperiment(1.0, 5e-324, 1).stat_sd == 5e-324


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

    @pytest.mark.parametrize("frac", [0.0, 0.3, 0.7, 1.0])
    def test_array_effect_is_the_float_call_elementwise(self, frac):
        tau = np.array([-2.5, -1e-300, -0.0, 0.0, 1e-300, 0.01, 3.7])
        got = regret(frac, tau)
        assert isinstance(got, np.ndarray)
        assert got.tolist() == [regret(frac, t) for t in tau.tolist()]


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


# exact_risk(rule, exp, (threshold,)).to_dict() of smooth rules, frozen bit
# for bit: every float of the moment kernel's path, from rule evaluation to
# the last trapezoid level, is pinned, at |tau| / sd up to 30
FROZEN_SMOOTH_REPORTS = [
    (MinimaxMSR(1.22814), GaussianExperiment(0.7, 1.0, 1), 0.2, {
        "mean_regret": 0.19880048984696586, "regret_variance": 0.04464589321289996,
        "mean_square_regret": 0.08416752797629351, "welfare_mean": 0.5011995101530342,
        "welfare_sd": 0.21129574821302005, "tail": [[0.2, 0.3718490758953447]]}),
    (MinimaxMSR(1.22814, 0.25), GaussianExperiment(-7.5, 1.0, 16), 0.5, {
        "mean_regret": 1.5230448616165499e-30, "regret_variance": 9.651986022276187e-58,
        "mean_square_regret": 9.675182678781153e-58, "welfare_mean": -1.5230448616165499e-30,
        "welfare_sd": 3.1067645585522225e-29, "tail": [[0.5, 2.8462066395372286e-184]]}),
    (MinimaxMSR(5.0), GaussianExperiment(-2.3, 2.0, 4), 0.1, {
        "mean_regret": 0.02719249475632964, "regret_variance": 0.045764316650452296,
        "mean_square_regret": 0.046503748421525326, "welfare_mean": -0.02719249475632964,
        "welfare_sd": 0.21392596067437045, "tail": [[0.1, 0.02324617452002965]]}),
    (MinimaxMSR(50.0), GaussianExperiment(0.03, 1.0, 1), 0.01, {
        "mean_regret": 0.014641064811666505, "regret_variance": 0.00022128288996961135,
        "mean_square_regret": 0.0004356436687890305, "welfare_mean": 0.015358935188333494,
        "welfare_sd": 0.014875580323792796, "tail": [[0.01, 0.49079780493260167]]}),
    (MinimaxMSR(50.0, 200.0), GaussianExperiment(30.0, 1.0, 1), 1.0, {
        "mean_regret": 1.0398977609949794e-05, "regret_variance": 3.0714114252914705e-11,
        "mean_square_regret": 1.3885284959101013e-10, "welfare_mean": 29.99998960102239,
        "welfare_sd": 5.542031599775907e-06, "tail": [[1.0, 4.967185371280016e-120]]}),
    (BayesFlatMSR(), GaussianExperiment(1.3, 1.0, 1), 0.3, {
        "mean_regret": 0.16552614568476107, "regret_variance": 0.09287419588537177,
        "mean_square_regret": 0.1202731007906245, "welfare_mean": 1.1344738543152388,
        "welfare_sd": 0.30475267986577537, "tail": [[0.3, 0.17785092944654102]]}),
    (BayesFlatMSR(20.0), GaussianExperiment(-30.0, 1.0, 1), 0.0, {
        "mean_regret": 0.21399116586423336, "regret_variance": 0.0014092962159623667,
        "mean_square_regret": 0.04720151528389621, "welfare_mean": -0.21399116586423333,
        "welfare_sd": 0.03754059424093293, "tail": [[0.0, 1.0]]}),
    (BayesFlatMSR(3.0), GaussianExperiment(-0.4, 1.5, 9), 0.1, {
        "mean_regret": 0.16054723073859883, "regret_variance": 0.0023289239463813033,
        "mean_square_regret": 0.02810433724421419, "welfare_mean": -0.16054723073859878,
        "welfare_sd": 0.048258926079859085, "tail": [[0.1, 0.8964523674108025]]}),
    (PosteriorMatchFlat(), GaussianExperiment(2.0, 1.0, 1), 0.5, {
        "mean_regret": 0.1572992070502851, "regret_variance": 0.0675224902018218,
        "mean_square_regret": 0.09226553074047024, "welfare_mean": 1.842700792949715,
        "welfare_sd": 0.25985089994422145, "tail": [[0.5, 0.09250098605749268]]}),
    (PosteriorMatchFlat(0.2), GaussianExperiment(-12.0, 1.0, 1), 3.0, {
        "mean_regret": 5.511083345119459e-46, "regret_variance": 5.026110080744896e-68,
        "mean_square_regret": 5.026110080744896e-68, "welfare_mean": -5.511083345119461e-46,
        "welfare_sd": 2.2418987668369186e-34, "tail": [[3.0, 8.98416334290311e-33]]}),
    (ComplementMix(MinimaxMSR(1.22814), 0.3), GaussianExperiment(0.9, 1.0, 1), 0.4, {
        "mean_regret": 0.3533919420867663, "regret_variance": 0.01002178528800482,
        "mean_square_regret": 0.13490765001986119, "welfare_mean": 0.5466080579132339,
        "welfare_sd": 0.10010886717971001, "tail": [[0.4, 0.2521561886961805]]}),
    (ComplementMix(BayesFlatMSR(10.0), 0.8), GaussianExperiment(-25.0, 1.0, 1), 5.0, {
        "mean_regret": 19.99731802617112, "regret_variance": 1.2455039919006977e-06,
        "mean_square_regret": 399.89272948533227, "welfare_mean": -19.99731802617111,
        "welfare_sd": 0.0011160215015404934, "tail": [[5.0, 1.0]]}),
    (BayesFlatMSR(), GaussianExperiment(-4.0, 1.0, 1), 0.5, {
        "mean_regret": 0.0012155077089777947, "regret_variance": 0.0006207496608928346,
        "mean_square_regret": 0.0006222271198834189, "welfare_mean": -0.0012155077089777947,
        "welfare_sd": 0.024914848201280187, "tail": [[0.5, 0.00034473729344351245]]}),
    (PosteriorMatchFlat(), GaussianExperiment(20.0, 2.0, 1), 1.0, {
        "mean_regret": 3.743995003583278e-18, "regret_variance": 1.9068178966041852e-19,
        "mean_square_regret": 1.906817896604185e-19, "welfare_mean": 20.0,
        "welfare_sd": 4.366712604012526e-10, "tail": [[1.0, 2.2045788616817652e-20]]}),
]
# the ids the suite has always listed these cases under; 12 repeated case 0
FROZEN_SMOOTH_IDS = [
    f"rule{i}-exp{i}-spec{i}-{threshold}-payload{i}"
    for i, (_, _, threshold, _) in zip([*range(12), 13, 14], FROZEN_SMOOTH_REPORTS)
]


@pytest.mark.parametrize("rule, exp, threshold, payload", FROZEN_SMOOTH_REPORTS,
                         ids=FROZEN_SMOOTH_IDS)
def test_smooth_reports_are_frozen_bit_for_bit(rule, exp, threshold, payload):
    got = exact_risk(rule, exp, (threshold,)).to_dict()
    # json.dumps spells -0.0 and every float's repr, so equal text is equal bits
    assert json.dumps(got) == json.dumps(payload)


def test_frozen_flat_rule_tails_match_mpmath():
    # the pins from the 481-node grid and Brent were 7.3e-16, 2.0e-14 and
    # 9.1e-13 (relative) from these references; the rule's own inverse gives
    # 1.1e-16, 2.2e-17 and 2.2e-15
    checked = 0
    for rule, exp, threshold, payload in FROZEN_SMOOTH_REPORTS:
        (c, got), = payload["tail"]
        if type(rule) is BayesFlatMSR and 0.0 < got < 1.0:
            want = oracles.bayes_flat_tail_mp(rule.scale, exp.tau, exp.stat_sd, c)
            assert abs(got - want) <= 3e-15 * want, (rule, exp, got)
            checked += 1
    assert checked == 3


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

    def test_extreme_thresholds_cross_at_finite_statistics(self):
        # the fraction takes every value in (0, 1): it crosses 1e-13 near
        # y = -19.47, so regret at tau = -1 is above 1e-13 all but surely,
        # and at tau = 1 above 1 - 1e-13 with probability 1.9e-93
        rule = prior3_rule()
        for tau, c in ((-1.0, 1e-13), (1.0, 1.0 - 1e-13)):
            got = tail_probability(rule, GaussianExperiment(tau, 1.0, 1), c)
            want = oracles.prior_bayes_tail_mp(rule.prior.support, 2.0, 1.0, tau, c)
            assert abs(got - want) <= 1e-12 * want, (tau, got, want)

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
        # lam > 1/2 flips the direction, and the mixture inverts through its
        # base: the crossing is the base's exact 0, so the tail is one CDF
        rule = ComplementMix(base=BayesFlatMSR(), lam=0.7)
        exp = GaussianExperiment(1.0, 1.0, 1)
        got = tail_probability(rule, exp, 0.5)
        # Reg = 0.3 + 0.4 * base(y) > 0.5 iff base(y) > 0.5 iff y > 0
        want = 1.0 - float(oracles.cdf(-1.0))
        assert abs(got - want) < 1e-12


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

        _refuse_find_root(monkeypatch)
        for cls in (MinimaxMSR, PosteriorMatchFlat):
            monkeypatch.setattr(cls, "evaluate", refuse)
        rules = [mm_rule(), PosteriorMatchFlat(0.7), ComplementMix(mm_rule(), 0.3),
                 ComplementMix(PosteriorMatchFlat(), 0.8)]
        for rule in rules:
            for tau, c in ((1.0, 0.3), (-1.0, 0.3), (1.0, 0.0), (-1.0, 0.0)):
                tail_probability(rule, GaussianExperiment(tau, 1.0, 1), c)

    def test_flat_rule_tails_make_no_array_evaluation(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the flat rule's own inverse expected")

        _refuse_find_root(monkeypatch)
        monkeypatch.setattr(BayesFlatMSR, "evaluate", refuse)
        args = []
        real = rules_module._bayes_flat_fraction

        def spy(u):
            args.append(u)
            return real(u)

        monkeypatch.setattr(rules_module, "_bayes_flat_fraction", spy)
        for rule in (BayesFlatMSR(), BayesFlatMSR(0.4), ComplementMix(BayesFlatMSR(), 0.7)):
            for tau, c in ((1.0, 0.3), (-1.0, 0.3), (1.3, 0.9), (-0.4, 0.1), (1.0, 0.0)):
                tail_probability(rule, GaussianExperiment(tau, 1.0, 1), c)
        assert args and all(type(u) is float for u in args)

    def test_prior_rule_tails_make_no_array_evaluation(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the discrete-prior rule's own inverse expected")

        _refuse_find_root(monkeypatch)
        monkeypatch.setattr(DiscretePriorBayes, "evaluate", refuse)
        monkeypatch.setattr(rules_module, "solve_bayes_foc", refuse)
        stats = []
        search = rules_module._crossing

        def spy(q, probe, *args):
            def counted(y, newton):
                stats.append(y)
                return probe(y, newton)
            return search(q, counted, *args)

        monkeypatch.setattr(rules_module, "_crossing", spy)
        for rule in (prior3_rule(), prior3_rule(3.0), ComplementMix(prior3_rule(), 0.7)):
            for tau, c in ((1.0, 0.1), (-1.0, 0.3), (1.3, 0.9), (-0.4, 0.1), (1.0, 0.0)):
                tail_probability(rule, GaussianExperiment(tau, 1.0, 1), c)
        assert stats and all(type(y) is float for y in stats)

    def test_a_direction_without_an_inverse_is_refused(self):
        class Ramp(TreatmentRule):
            direction = 1

            def evaluate(self, stat):
                return expit(stat)

        exp = GaussianExperiment(1.0, 1.0, 1)
        with pytest.raises(DomainError, match="Ramp"):
            tail_probability(Ramp(), exp, 0.3)
        with pytest.raises(DomainError, match="Ramp"):
            tail_probability(ComplementMix(Ramp(), 0.2), exp, 0.3)
        with pytest.raises(DomainError):
            exact_risk(Ramp(), exp, tail_thresholds=[0.3])
        # the edges need no inverse
        assert tail_probability(Ramp(), exp, 1.0) == 0.0
        assert not hasattr(risk, "find_root") and not hasattr(risk, "_TAIL_GRID")

    def test_prior_oracles_agree(self):
        # the scipy brentq references and the 30-digit mpmath ones
        rng = np.random.default_rng(16)
        for _ in range(12):
            pairs = [(-float(rng.uniform(0.3, 3.0)), float(rng.uniform(0.2, 1.0))),
                     (float(rng.uniform(0.3, 3.0)), float(rng.uniform(0.2, 1.0))),
                     (float(rng.uniform(-3.0, 3.0)), float(rng.uniform(0.2, 1.0)))]
            total = sum(w for _, w in pairs)
            pairs = [(t, w / total) for t, w in pairs]
            alpha_g = float(rng.choice([1.5, 2.0, 3.0]))
            sd, q = float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.05, 0.95))
            cut = oracles.prior_bayes_cut(pairs, alpha_g, sd, q)
            cut_mp = float(oracles.prior_bayes_cut_mp(pairs, alpha_g, sd, q))
            assert abs(cut - cut_mp) <= 1e-12 * max(1.0, abs(cut_mp)), (pairs, q)
            tau = float(rng.uniform(-2.0, 2.0))
            c = abs(tau) * float(rng.uniform(0.05, 0.95))
            tail = oracles.prior_bayes_tail(pairs, alpha_g, sd, tau, c)
            tail_mp = float(oracles.prior_bayes_tail_mp(pairs, alpha_g, sd, tau, c))
            assert abs(tail - tail_mp) <= 1e-12, (pairs, tau, c)

    def test_prior_crossing_beyond_twenty_noise_sd(self):
        # the fraction is still 0.0193 at y = -40 (20 noise sd below 0) and
        # crosses q = 1/64 near y = -41.9, so Y ~ N(-1, 1) lies above it surely
        pairs = [(-0.375, 1.0 / 3.0), (0.5, 1.0 / 3.0), (1.0, 1.0 / 3.0)]
        rule = DiscretePriorBayes(DiscretePrior.from_pairs(pairs), 3.0, 2.0)
        exp = GaussianExperiment(-1.0, 1.0, 1)
        got = tail_probability(rule, exp, 0.015625)
        want = oracles.prior_bayes_tail(pairs, 3.0, 2.0, -1.0, 0.015625, 1.0)
        assert got == 1.0
        assert abs(got - want) <= 1e-12

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


STEP_RULES = [
    EmpiricalSuccess(),
    HypothesisTest(0.05),
    Threshold(0.4),
    ComplementMix(Threshold(-0.3), 0.2),
    ComplementMix(EmpiricalSuccess(), 0.8),
]


class TestStepOutcomes:
    """Step rules take both outcome probabilities from their own tails."""

    def test_tails_match_mpmath_on_a_seeded_sweep(self):
        # sd from 1e-3 to 10 and |cut - tau| / sd up to 30; a tail of relative
        # accuracy eps in z = (cut - tau) / sd is good to about z^2 eps
        rng = np.random.default_rng(20)
        eps = sys.float_info.epsilon
        for k in range(400):
            rule = STEP_RULES[k % len(STEP_RULES)]
            cut, lo, hi = rule.step
            sd = float(10.0 ** rng.uniform(-3.0, 1.0))
            tau = float(cut - rng.uniform(-30.0, 30.0) * sd)
            threshold = float(rng.choice([0.0, 0.1, 0.5, 0.9])) * abs(tau)
            got = tail_probability(rule, GaussianExperiment(tau, sd, 1), threshold)
            want = oracles.step_tail_mp(cut, lo, hi, tau, sd, threshold)
            z = (cut - tau) / sd
            if want == 0:
                assert got == 0.0
            else:
                assert abs(got - want) / want <= 4.0 * max(1.0, z * z) * eps, (rule, tau, sd)

    @pytest.mark.parametrize("tau", [10.0, -10.0])
    def test_far_tail_is_not_lost(self, tau):
        # one outcome's probability is Phi(-10); 1 - (1 - Phi(-10)) is 0
        exp = GaussianExperiment(tau, 1.0, 1)
        assert tail_probability(EmpiricalSuccess(), exp, 0.5) == ndtr(-10.0)

    @pytest.mark.parametrize("rule", STEP_RULES[:3], ids=["es", "ht", "threshold"])
    @pytest.mark.parametrize("tau", [-10.0, -2.5, -0.3, 0.05, 0.7, 2.5, 10.0])
    @pytest.mark.parametrize("sd", [0.4, 1.0])
    def test_singleton_mean_regret_is_the_effect_times_the_tail(self, rule, tau, sd):
        # a singleton rule's regret is |tau| on one outcome and 0 on the other
        exp = GaussianExperiment(tau, sd, 1)
        assert exact_risk(rule, exp).mean_regret == abs(tau) * tail_probability(rule, exp, 0.0)

    @pytest.mark.parametrize(
        "rule",
        [EmpiricalSuccess(), HypothesisTest(0.05), Threshold(0.4),
         ComplementMix(Threshold(0.4), 0.3), ComplementMix(EmpiricalSuccess(), 0.7)],
        ids=["es", "ht", "threshold", "mix-0.3", "mix-0.7"],
    )
    def test_scan_curve_is_exact_risk_bit_for_bit(self, rule):
        for power, field in ((1, "mean_regret"), (2, "mean_square_regret")):
            grid, vals, err = _unit_curve(rule, power)
            assert err == 0.0
            want = [
                getattr(exact_risk(rule, GaussianExperiment(b, 1.0, 1)), field)
                for b in grid.tolist()
            ]
            assert vals.tolist() == want


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

    def test_prior_bayes_risk_far_out_stays_below_the_sup(self):
        # the fraction is expit of the log-odds, so regret vanishes far out:
        # no effect out to 1e150 has an exact risk above the reported sup,
        # and none is refused
        prior = DiscretePrior.from_pairs([(-1.0, 0.3), (0.5, 0.4), (2.0, 0.3)])
        rng = np.random.default_rng(19)
        count = 0
        for alpha_g in (1.5, 2.0, 3.0):
            for sd in (0.3, 1.0, 2.0):
                rule = DiscretePriorBayes(prior, alpha_g, sd)
                worst = worst_case_msr(rule, 1.0, 1)
                assert not worst.saturated, (alpha_g, sd)
                taus = 10.0 ** rng.uniform(-3.0, 150.0, 60) * rng.choice([-1.0, 1.0], 60)
                for tau in taus.tolist():
                    got = exact_risk(rule, GaussianExperiment(tau, 1.0, 1)).mean_square_regret
                    assert math.isfinite(got) and got <= worst.sup + 1e-10, (rule, tau, got)
                    count += 1
        assert count == 540

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

        monkeypatch.setattr(numerics, "maximize_scalar", recording)
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

    def test_a_scan_that_is_not_finite_is_refused(self):
        class Hole(TreatmentRule):
            def evaluate(self, stat):
                return np.where(np.asarray(stat) > 1.0, np.nan, 0.5)

        rule = Hole()
        with pytest.raises(ConvergenceError, match=f"^worst-case scan of {re.escape(repr(rule))} "
                                                   "is not finite$"):
            worst_case_msr(rule, 1.0, 1)

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

    @pytest.mark.parametrize("count", [10.0, np.float64(10), 1e4, "10"])
    def test_refuses_a_count_that_is_not_an_integer(self, monkeypatch, count):
        def no_draws(seed, count):
            raise AssertionError("a draw was made")

        monkeypatch.setattr(risk, "_normal_draws", no_draws)
        with pytest.raises(DomainError, match="^replications must be an integer >= 2, got "):
            simulate(mm_rule(), GaussianExperiment(1.0, 1.0, 1), count, RngSeed(1))

    def test_a_numpy_integer_count_is_the_int_count(self):
        exp = GaussianExperiment(1.0, 1.0, 1)
        got = simulate(mm_rule(), exp, np.int64(500), RngSeed(4))
        assert got == simulate(mm_rule(), exp, 500, RngSeed(4))

    @pytest.mark.parametrize("tails", [[math.nan], [-1.0], [0.05, math.nan], [-math.inf]])
    def test_refuses_the_thresholds_tail_probability_refuses(self, monkeypatch, tails):
        exp = GaussianExperiment(1.0, 1.0, 1)
        bad = next(c for c in tails if not c >= 0)
        with pytest.raises(DomainError) as want:
            tail_probability(EmpiricalSuccess(), exp, bad)

        def no_draws(seed, count):
            raise AssertionError("a draw was made")

        monkeypatch.setattr(risk, "_normal_draws", no_draws)
        with pytest.raises(DomainError) as got:
            simulate(EmpiricalSuccess(), exp, 100, RngSeed(1), tail_thresholds=tails)
        assert str(got.value) == str(want.value) == f"threshold must be >= 0, got {bad}"

    def test_refuses_a_count_numpy_cannot_index(self):
        # numpy refuses 2**62 doubles before allocating anything
        with pytest.raises(DomainError) as info:
            simulate(EmpiricalSuccess(), GaussianExperiment(1.0, 1.0, 1), 2**62, RngSeed(1))
        assert str(info.value).startswith("replications 4611686018427387904 cannot be held: "
                                          "array is too big")

    def test_refuses_a_count_too_large_to_hold(self, monkeypatch):
        # what numpy raises when the allocator refuses the draws, faked on a
        # small count under a seed no earlier call kept, so nothing is allocated
        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB")

        monkeypatch.setattr(np, "empty", refuse)
        with pytest.raises(DomainError) as info:
            simulate(EmpiricalSuccess(), GaussianExperiment(1.0, 1.0, 1), 1000, RngSeed(8675309))
        assert str(info.value) == "replications 1000 cannot be held: Unable to allocate 7.28 TiB"

    @pytest.mark.parametrize("tau, message", [
        (1e300, "mean_square_regret is inf at tau = 1e+300: the moments overflow"),
        (1e100, "se_mean_square_regret is inf at tau = 1e+100: the moments overflow"),
    ])
    def test_refuses_a_field_that_is_not_finite(self, tau, message):
        # the squared regrets overflow at 1e300, their spread at 1e100; no
        # pass subtracts inf from inf on the way to the refusal
        with np.errstate(over="ignore"):
            with pytest.raises(DomainError, match=re.escape(message)):
                simulate(mm_rule(), GaussianExperiment(tau, tau, 1), 100, RngSeed(1))

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


# every simulated rule kind at one effect; the pins also take its mirror image
PIN_CASES = [
    *SIM_CASES,
    (prior3_rule(), GaussianExperiment(0.6, 1.0, 1)),
    *((rule, GaussianExperiment(0.3, 1.0, 1)) for rule in STEP_RULES),
]


class TestSimulateBlockPins:
    """Past one block, simulate gives the three-pass block algorithm's bits
    (oracles.block_summary, on the fractions the rule gives block by block)."""

    @pytest.mark.parametrize("reps", [8193, 2 * 8192 + 3, 20_000, 50_000, 65_537])
    @pytest.mark.parametrize("tails", [(), (0.05,), (0.05, 0.3)], ids=["0", "1", "2"])
    def test_multi_block_summaries_are_pinned(self, reps, tails):
        for k, (rule, exp) in enumerate(PIN_CASES):
            for tau in (exp.tau, -exp.tau):
                at = GaussianExperiment(tau, exp.sigma, exp.n)
                seed = RngSeed(500 + k)
                draws = _normal_draws(seed, reps)
                fracs = [np.asarray(rule.evaluate(tau + at.stat_sd * draws[i : i + 8192]),
                                    dtype=float) for i in range(0, reps, 8192)]
                want = SimulationSummary(reps, seed, **oracles.block_summary(fracs, tau, tails))
                got = simulate(rule, at, reps, seed, tail_thresholds=tails)
                assert got.to_dict() == want.to_dict(), (rule, tau)


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


def _bits(report: RiskReport) -> tuple:
    fields = (report.mean_regret, report.regret_variance, report.mean_square_regret,
              report.welfare_mean, report.welfare_sd)
    return tuple(float(x).hex() for x in fields)


# a rule of every shipped kind; MinimaxMSR(20) is steep near tau = 0, where its
# rows run to later levels than its rows far out
EVERY_KIND = [mm_rule(), MinimaxMSR(20.0), BayesFlatMSR(0.7), PosteriorMatchFlat(),
              ComplementMix(BayesFlatMSR(), 0.3), prior3_rule(), *STEP_RULES]
EVERY_KIND_IDS = ["minimax", "steep", "bayes-flat", "post-match", "mix", "prior3",
                  "es", "ht", "threshold", "step-mix", "step-mix-flip"]


class TestBatchedRoute:
    """risk_curve, bayes_msr and the saddle's column take every effect's
    moments from exact_risk's one body, in blocks, bit for bit."""

    @pytest.mark.parametrize("rule", EVERY_KIND, ids=EVERY_KIND_IDS)
    def test_every_row_is_exact_risk_bit_for_bit(self, rule):
        rng = np.random.default_rng(21)
        # two zeros, both signs, and 74 nonzero effects: blocks of 32, 32, 10
        grid = np.concatenate([[0.0, -0.0, 0.01, -0.01, 6.0, -6.0], rng.uniform(-4.0, 4.0, 70)])
        for sigma, n in ((1.0, 1), (2.0, 9)):
            curve = risk_curve(rule, grid, sigma, n)
            assert [tau for tau, _ in curve] == grid.tolist()
            for tau, report in curve:
                want = exact_risk(rule, GaussianExperiment(tau, sigma, n))
                assert _bits(report) == _bits(want), (rule, tau, sigma, n)

    def test_a_steep_row_shares_a_block_with_rows_settled_at_level_one(self, monkeypatch):
        rule = MinimaxMSR(20.0)
        grid = [8.0, 0.02, -8.0, 9.0]
        calls = []
        kernel = risk.gaussian_expectation

        def counted(f, mean, sd):
            def g(y):
                calls[-1] += 1
                return f(y)

            calls.append(0)
            return kernel(g, mean, sd)

        monkeypatch.setattr(risk, "gaussian_expectation", counted)
        want = [exact_risk(rule, GaussianExperiment(tau, 1.0, 1)) for tau in grid]
        # the far rows settle within the first call; the steep one does not
        assert calls[0] == calls[2] == calls[3] == 1 and calls[1] > 2
        got = risk_curve(rule, grid, 1.0, 1)
        assert len(calls) == 5
        assert [_bits(r) for _, r in got] == [_bits(r) for r in want]

    def test_tau_zero_rows_take_no_quadrature(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("kernel called")

        monkeypatch.setattr(risk, "gaussian_expectation", refuse)
        curve = risk_curve(mm_rule(), [0.0, -0.0], 1.0, 1)
        assert [_bits(r) for _, r in curve] == [_bits(RiskReport(0.0, 0.0, 0.0, 0.0, 0.0))] * 2

    def test_bayes_msr_sums_the_batched_rows(self):
        rule = prior3_rule()
        want = 0.0
        for tau, w in rule.prior.support:
            want += w * exact_risk(rule, GaussianExperiment(tau, 1.0, 1)).mean_square_regret
        assert bayes_msr(rule, rule.prior, 1.0, 1) == want

    def test_refusals_are_exact_risks(self):
        with pytest.raises(DomainError, match="^tau must be finite, got nan$"):
            risk_curve(mm_rule(), [0.5, math.nan], 1.0, 1)
        with pytest.raises(DomainError, match="^n must be an integer >= 1, got 0$"):
            risk_curve(mm_rule(), [0.5], 1.0, 0)

    def test_memory_stays_within_a_block(self):
        # the first call's buffer of one block of 32 effects, (32, 4, 257)
        # floats; a grid in one block would take 64 of them here
        block = 32 * 4 * (4 * 64 + 1) * 8

        def transient(k):
            grid = np.linspace(0.01, 3.0, k)
            tracemalloc.start()
            try:
                curve = risk_curve(mm_rule(), grid, 1.0, 1)
                current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(curve) == k
            return peak - current

        short, long = transient(64), transient(2048)
        assert short < 4 * block
        assert long < 4 * block


class TestNonFiniteMoments:
    """Moments past the float range are refused, naming the field and tau."""

    @pytest.mark.parametrize("rule", [mm_rule(), BayesFlatMSR(), PosteriorMatchFlat(),
                                      EmpiricalSuccess(), Threshold(0.3)])
    @pytest.mark.parametrize("tau", [1e200, -1e308])
    def test_refused_with_the_field_and_tau(self, rule, tau):
        refusal = "^" + re.escape(f"regret_variance is nan at tau = {tau!r}:")
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DomainError, match=refusal):
                exact_risk(rule, GaussianExperiment(tau, 1.0, 1))
            with pytest.raises(DomainError, match=refusal):
                risk_curve(rule, [1.0, tau], 1.0, 1)

    def test_step_squares_below_the_overflow_are_kept(self):
        # r * r of |tau| = 1e150 is 1e300, a float
        report = exact_risk(EmpiricalSuccess(), GaussianExperiment(-1e150, 1e150, 1))
        p = ndtr(-1.0)
        assert report.mean_square_regret == 1e150 * 1e150 * p


class TestWorstCaseOverflow:
    """A scaled worst case past the float range is refused, naming its field
    (pytest turns any RuntimeWarning into an error here)."""

    def test_msr_sup_overflow_is_refused(self):
        assert math.isfinite(worst_case_msr(EmpiricalSuccess(), 1e154, 1).sup)
        with pytest.raises(DomainError, match=r"^sup is inf at tau = 1\.19\d*e\+155"):
            worst_case_msr(EmpiricalSuccess(), 1e155, 1)

    def test_mean_regret_sup_and_argsup_overflow_is_refused(self):
        with pytest.raises(DomainError, match=r"^sup is inf at tau = inf"):
            worst_case_mean_regret(HypothesisTest(1e-15), 1.7e308, 1)


class TestSaturationMargin:
    def test_an_argsup_between_a_half_and_two_steps_from_the_edge_saturates(self):
        # the flag reads |argsup| >= 8 - 2 steps = 7.98; this cut's argsup
        # lies midway between 7.98 and half a step from the edge, 7.995
        w = worst_case_msr(Threshold(9.092), 1.0, 1)
        assert 7.984 < w.argsup_tau < 7.991
        assert w.saturated


class TestScanRoundingFloor:
    def test_mirrored_peaks_a_rounding_apart_both_compete(self):
        # a step rule's scan is exact (error 0), but this mixture's mirrored
        # grid peaks at b = -+0.78 differ by 2.8e-17 in their last bits; the
        # 1e-12 rounding floor keeps both, both refine to one value, and the
        # exact tie goes to the smaller argsup
        rule = ComplementMix(Threshold(1e-16), 0.01)
        grid, vals, err = _unit_curve(rule, 1)
        low, high = vals[grid < 0].max(), vals[grid > 0].max()
        assert err == 0.0 and 0.0 < high - low < 1e-12
        w = worst_case_mean_regret(rule, 1.0, 1)
        assert -0.78 < w.argsup_tau < -0.77


class TestEdgeGrid:
    """Every call on the edge grid returns finite floats or a typed error.

    The grid: 9 rules, 11 effects from 0 to +-1e308, 7 sigmas from 1e-300 to
    1e300 and n in {1, 10**16}.  A RuntimeWarning fails the test, since the
    suite runs with warnings as errors (pyproject.toml), so "finite" also
    means "finite without an overflow warning"."""

    RULES = [
        EmpiricalSuccess(), Threshold(0.5), HypothesisTest(0.05), MinimaxMSR(TAU_STAR),
        BayesFlatMSR(), PosteriorMatchFlat(), ComplementMix(Threshold(0.4), 0.3),
        ComplementMix(BayesFlatMSR(), 0.3),
        DiscretePriorBayes(DiscretePrior.from_pairs(PRIOR3_PAIRS), 2.0, 0.1),
    ]
    EFFECTS = [0.0, *(s * e for e in (1e-300, 0.5, 3.0, 1e10, 1e308) for s in (1.0, -1.0))]
    SIGMAS = [1e-300, 1e-100, 1e-10, 1.0, 1e10, 1e100, 1e300]
    NS = [1, 10**16]

    @staticmethod
    def outcomes(calls) -> dict:
        """Count of each outcome: "finite", or the typed error's name."""
        counts: dict = {}
        for call in calls:
            try:
                value = call()
            except (DomainError, ConvergenceError, PriorSupportError) as exc:
                outcome = type(exc).__name__
            else:
                floats = [value] if isinstance(value, float) else [value.sup, value.argsup_tau]
                outcome = "finite" if all(map(math.isfinite, floats)) else f"non-finite {floats}"
            counts[outcome] = counts.get(outcome, 0) + 1
        return counts

    def test_tail_probability(self):
        calls = [
            lambda r=r, e=GaussianExperiment(tau, sigma, n): tail_probability(r, e, abs(tau) / 2)
            for r in self.RULES for tau in self.EFFECTS for sigma in self.SIGMAS
            for n in self.NS
        ]
        assert self.outcomes(calls) == {"finite": 1386}

    @pytest.mark.parametrize("worst_case, want", [
        # sup = sigma^2 / n * unit overflows at sigma = 1e300, for every rule and n
        (worst_case_msr, {"finite": 108, "DomainError": 18}),
        (worst_case_mean_regret, {"finite": 126}),
    ], ids=["msr", "mean-regret"])
    def test_worst_cases(self, worst_case, want):
        calls = [lambda r=r, s=sigma, n=n: worst_case(r, s, n)
                 for r in self.RULES for sigma in self.SIGMAS for n in self.NS]
        assert self.outcomes(calls) == want
