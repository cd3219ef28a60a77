"""Sample-size calculations built on the worst-case risk units."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msregret import (
    ComplementMix,
    DomainError,
    EmpiricalSuccess,
    EsComparison,
    HtComparison,
    HypothesisTest,
    MinimaxMSR,
    SampleSizePlan,
    compare_vs_es,
    compare_vs_ht,
    es_epsilon_optimal_n,
    es_mean_regret_unit,
    es_msr_unit,
    ht_msr_unit,
    ht_power_n,
    minimax_msr_unit,
    n_for_msr_target,
    plan_es_epsilon,
    plan_ht_power,
    plan_worst_msr,
)

TAU_STAR = 1.22814

# frozen from oracles.py
ES_MEAN_REGRET_UNIT = 0.1699712074799037
ES_MSR_UNIT = 0.16571661477885144
MM_MSR_UNIT = 0.11987899265878338
HT_MSR_UNIT_05 = 1.4457718111903313
RATIO_ES_MM = 1.3823657598667187
MM_N_CONSTANT = 0.020899108044286293
MSR_RATIO = 0.08291695254461384
SAMPLE_MULTIPLE = 12.060259926484218


class TestUnits:
    def test_frozen_values(self):
        assert abs(es_mean_regret_unit() - ES_MEAN_REGRET_UNIT) < 1e-9
        assert abs(es_msr_unit() - ES_MSR_UNIT) < 1e-9
        assert abs(minimax_msr_unit(TAU_STAR) - MM_MSR_UNIT) < 1e-9
        assert abs(ht_msr_unit(0.05) - HT_MSR_UNIT_05) < 1e-9

    def test_smaller_test_size_costs_more(self):
        assert ht_msr_unit(0.01) > ht_msr_unit(0.05) > ht_msr_unit(0.2)


class TestNForMsrTarget:
    def test_frozen_examples(self):
        assert n_for_msr_target(1.0, 0.01, 0.1199) == 1199
        assert n_for_msr_target(1.0, 1.0, 0.1199) == 1
        assert n_for_msr_target(2.0, 0.01, 0.1199) == 4796

    def test_returns_the_smallest_sufficient_n(self):
        for sigma, eps, unit in [(1.0, 0.01, 0.1199), (2.0, 0.03, 0.34), (0.7, 0.2, 1.4458)]:
            n = n_for_msr_target(sigma, eps, unit)
            assert sigma * sigma * unit / n <= eps * eps + 1e-15
            if n > 1:
                assert sigma * sigma * unit / (n - 1) > eps * eps

    def test_validation(self):
        with pytest.raises(DomainError):
            n_for_msr_target(0.0, 0.01, 0.1)
        with pytest.raises(DomainError):
            n_for_msr_target(1.0, 0.0, 0.1)
        with pytest.raises(DomainError):
            n_for_msr_target(1.0, 0.01, -0.1)

    @given(
        st.floats(min_value=0.1, max_value=5.0),
        st.floats(min_value=0.01, max_value=1.0),
        st.floats(min_value=0.01, max_value=2.0),
    )
    @settings(max_examples=60)
    def test_monotone_in_the_target(self, sigma, eps, unit):
        n_tight = n_for_msr_target(sigma, eps, unit)
        n_loose = n_for_msr_target(sigma, 2.0 * eps, unit)
        assert n_loose <= n_tight
        assert n_for_msr_target(2.0 * sigma, eps, unit) >= n_tight


class TestEsEpsilonOptimalN:
    def test_frozen_examples(self):
        assert es_epsilon_optimal_n(1.0, 0.01) == 289
        assert es_epsilon_optimal_n(1.0, 0.17) == 1
        assert es_epsilon_optimal_n(3.0, 0.01) == 2601

    def test_scales_with_variance(self):
        # sigma enters through sigma^2, so tripling it multiplies n by nine
        assert es_epsilon_optimal_n(3.0, 0.01) == 9 * es_epsilon_optimal_n(1.0, 0.01)


class TestCompareVsEs:
    def test_minimax_reference_numbers(self):
        comp = compare_vs_es(1.0, 0.01, MinimaxMSR(tau_star=TAU_STAR))
        assert comp.n_es == 289
        assert abs(comp.n_rule_real - 209.05) < 0.05
        assert comp.n_rule == 210
        assert abs(comp.ratio - RATIO_ES_MM) < 1e-6
        assert abs(comp.es_n_constant - 0.0289) < 2e-4
        assert abs(comp.rule_n_constant - MM_N_CONSTANT) < 1e-6
        assert abs(comp.es_worst_msr_at_n - 1.0 * ES_MSR_UNIT / 289) < 1e-12

    def test_ratio_invariant_to_scale_and_target(self):
        ratios = {
            compare_vs_es(sigma, eps, MinimaxMSR(tau_star=TAU_STAR)).ratio
            for sigma in (1.0, 2.0)
            for eps in (0.005, 0.01, 0.05)
        }
        assert max(ratios) - min(ratios) < 1e-12

    def test_es_against_itself_is_even(self):
        comp = compare_vs_es(1.0, 0.01, EmpiricalSuccess())
        assert abs(comp.ratio - 1.0) < 1e-9
        assert comp.n_rule == comp.n_es

    def test_round_trip(self):
        comp = compare_vs_es(1.0, 0.01, MinimaxMSR(tau_star=TAU_STAR))
        assert EsComparison.from_dict(comp.to_dict()) == comp


class TestHtPowerN:
    def test_frozen_examples(self):
        assert ht_power_n(1.0, 0.05, 0.8, 0.5) == 25
        # beta = 0.5 is the knife-edge design: z_{0.5} = 0
        assert ht_power_n(1.0, 0.05, 0.5, 1.0) == 3

    def test_doubling_noise_quadruples_the_design(self):
        n1 = ht_power_n(1.0, 0.05, 0.8, 0.5)
        real = (1.6448536269514722 - (-0.8416212335729143)) ** 2 / 0.25
        assert n1 == math.ceil(real)
        assert ht_power_n(2.0, 0.05, 0.8, 0.5) == math.ceil(4.0 * real)

    def test_symmetric_in_the_alternative_sign(self):
        assert ht_power_n(1.0, 0.05, 0.8, -0.5) == ht_power_n(1.0, 0.05, 0.8, 0.5)

    def test_validation(self):
        with pytest.raises(DomainError):
            ht_power_n(1.0, 0.0, 0.8, 0.5)
        with pytest.raises(DomainError):
            ht_power_n(1.0, 0.5, 0.8, 0.5)
        with pytest.raises(DomainError):
            ht_power_n(1.0, 0.05, 0.49, 0.5)
        with pytest.raises(DomainError):
            ht_power_n(1.0, 0.05, 1.0, 0.5)
        with pytest.raises(DomainError):
            ht_power_n(1.0, 0.05, 0.8, 0.0)
        with pytest.raises(DomainError):
            ht_power_n(0.0, 0.05, 0.8, 0.5)


class TestCompareVsHt:
    def test_reference_numbers(self):
        comp = compare_vs_ht(1.0, 0.05, 0.8, 0.5, TAU_STAR)
        assert comp.n_ht == 25
        assert abs(comp.ht_msr_unit - HT_MSR_UNIT_05) < 1e-6
        assert abs(comp.minimax_msr_unit - MM_MSR_UNIT) < 1e-6
        assert abs(comp.msr_ratio - MSR_RATIO) < 1e-6
        assert abs(comp.sample_multiple - SAMPLE_MULTIPLE) < 1e-4
        assert comp.n_minimax == math.ceil(25 * MM_MSR_UNIT / HT_MSR_UNIT_05)

    def test_multiple_and_ratio_are_reciprocal(self):
        comp = compare_vs_ht(1.0, 0.05, 0.8, 0.5, TAU_STAR)
        assert abs(comp.msr_ratio * comp.sample_multiple - 1.0) < 1e-12

    def test_round_trip(self):
        comp = compare_vs_ht(1.0, 0.05, 0.8, 0.5, TAU_STAR)
        assert HtComparison.from_dict(comp.to_dict()) == comp


class TestPlans:
    def test_worst_msr_plan(self):
        plan = plan_worst_msr(1.0, 0.01, MinimaxMSR(tau_star=TAU_STAR))
        assert plan.criterion == "worst_msr_target"
        assert plan.n_required == 1199
        assert plan.achieved_worst_msr <= 0.01**2 + 1e-15
        assert plan.es_comparison is None and plan.ht_comparison is None

    @pytest.mark.parametrize("plan", [plan_worst_msr, plan_es_epsilon])
    def test_plans_refuse_an_unbounded_worst_case(self, plan):
        # the mixture treats a share lam at every statistic, so its regret
        # grows like lam * |tau| along the negative tail and the scan saturates
        rule = ComplementMix(MinimaxMSR(tau_star=TAU_STAR), 0.3)
        with pytest.raises(DomainError, match="ComplementMix"):
            plan(1.0, 0.1, rule)

    def test_es_epsilon_plan(self):
        plan = plan_es_epsilon(1.0, 0.01, MinimaxMSR(tau_star=TAU_STAR))
        assert plan.criterion == "es_epsilon_optimal"
        assert plan.n_required == 289
        assert plan.es_comparison is not None
        assert plan.es_comparison.n_rule == 210

    def test_ht_power_plan(self):
        plan = plan_ht_power(1.0, 0.05, 0.8, 0.5, TAU_STAR)
        assert plan.criterion == "ht_power"
        assert plan.n_required == 25
        assert plan.ht_comparison is not None
        assert abs(plan.achieved_worst_msr - HT_MSR_UNIT_05 / 25) < 1e-9

    @pytest.mark.parametrize(
        "plan_factory",
        [
            lambda: plan_worst_msr(1.5, 0.02, MinimaxMSR(tau_star=TAU_STAR)),
            lambda: plan_es_epsilon(1.5, 0.02, HypothesisTest(alpha=0.05)),
            lambda: plan_ht_power(1.5, 0.05, 0.9, 0.4, TAU_STAR),
        ],
        ids=["worst-msr", "es-epsilon", "ht-power"],
    )
    def test_round_trip(self, plan_factory):
        plan = plan_factory()
        assert SampleSizePlan.from_dict(plan.to_dict()) == plan
