"""Sample-size calculations built on the worst-case risk units."""
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
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
    std_normal_quantile,
)
from msregret import planning
from msregret.numerics import ConvergenceError
from msregret.rules import PriorSupportError
from test_cli import subprocess_env
from test_risk import TestEdgeGrid as RiskEdgeGrid

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
        # at the last input the real solution is 186229974827287.03, yet
        # 186229974827287 meets the budget in floats: the ceiling overshoots
        for sigma, eps, unit in [
            (1.0, 0.01, 0.1199), (2.0, 0.03, 0.34), (0.7, 0.2, 1.4458),
            (0.016708211959102142, 4.791462650738952e-10, 0.15315311938392365),
        ]:
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

    def test_refuses_what_a_float_cannot_hold(self):
        # epsilon^2 underflowing, and a real solution that overflows
        with pytest.raises(DomainError, match="epsilon\\^2 underflows"):
            n_for_msr_target(1e300, 1e-300, 0.1)
        with pytest.raises(DomainError, match="epsilon\\^2 underflows"):
            n_for_msr_target(1.0, 1e-160, 0.1)
        with pytest.raises(DomainError, match="not representable"):
            n_for_msr_target(1e300, 0.1, 0.1)

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

    @pytest.mark.parametrize("sigma, tau_alt", [(1.0, 1e-200), (1e300, 1.0), (1.0, math.nan)])
    def test_refuses_a_sample_size_that_is_not_finite(self, sigma, tau_alt):
        with pytest.raises(DomainError, match="not representable"):
            ht_power_n(sigma, 0.05, 0.8, tau_alt)

    def test_alpha_is_checked_first_by_the_test_rule(self):
        # every argument is bad; the size-alpha test's own check speaks first
        with pytest.raises(DomainError) as plan:
            ht_power_n(0.0, 0.7, 0.3, 0.0)
        with pytest.raises(DomainError) as rule:
            HypothesisTest(alpha=0.7)
        assert str(plan.value) == str(rule.value) == "alpha must lie in (0, 0.5), got 0.7"


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


class TestEveryNIsTheLeast:
    """Each rounded sample size meets its budget at n and fails it at n - 1."""

    @staticmethod
    def assert_least(n, fits):
        assert n >= 1 and fits(n)
        assert n == 1 or not fits(n - 1)

    def test_seeded_draws(self):
        rng = np.random.default_rng(2201)
        rule = MinimaxMSR(tau_star=TAU_STAR)
        for _ in range(400):
            sigma = float(10.0 ** rng.uniform(-1.0, 1.0))
            eps = float(10.0 ** rng.uniform(-2.5, -0.3))
            alpha = float(rng.choice([0.01, 0.025, 0.05, 0.1]))
            beta = float(rng.uniform(0.5, 0.99))
            tau = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-2.0, 0.5))

            es = compare_vs_es(sigma, eps, rule)
            u = minimax_msr_unit(TAU_STAR)
            self.assert_least(es.n_rule, lambda n: sigma * sigma * u / n <= es.es_worst_msr_at_n)

            ht = compare_vs_ht(sigma, alpha, beta, tau, TAU_STAR)
            ht_msr = sigma * sigma * ht.ht_msr_unit / ht.n_ht
            self.assert_least(
                ht.n_minimax, lambda n: sigma * sigma * ht.minimax_msr_unit / n <= ht_msr
            )

            shift = std_normal_quantile(1.0 - alpha) - std_normal_quantile(1.0 - beta)
            n_real = (sigma / tau) ** 2 * shift * shift
            self.assert_least(ht_power_n(sigma, alpha, beta, tau), lambda n: n_real <= n)


def counted(monkeypatch) -> list:
    """The n of every fits call that planning._least_n makes from now on."""
    calls = []
    least_n = planning._least_n
    monkeypatch.setattr(planning, "_least_n", lambda real, fits: least_n(
        real, lambda n: calls.append(n) or fits(n)))
    return calls


class TestLeastN:
    """The least-n search gallops and bisects, returning the least n that
    stepping one integer at a time returns (oracles.least_n_linear)."""

    def test_a_float_flat_over_many_integers_costs_few_calls(self, monkeypatch):
        # the least n is 67108865 (2**26 + 1) above the ceiling of 1e24, as
        # the quotient 1 / n is one float over many consecutive n: stepping
        # took 11.7 s; doubling strides up and bisecting back make 53 calls
        calls = counted(monkeypatch)
        start = time.perf_counter()
        assert n_for_msr_target(1.0, 1e-12, 1.0) == 1000000000000000050331649
        assert time.perf_counter() - start < 1.0
        assert len(calls) == 53

    def test_within_one_of_the_ceiling_the_calls_are_the_steps(self, monkeypatch):
        # the step-down input of TestNForMsrTarget: the ceiling overshoots by one
        calls = counted(monkeypatch)
        n_for_msr_target(0.016708211959102142, 4.791462650738952e-10, 0.15315311938392365)
        assert calls == [186229974827287, 186229974827286, 186229974827287]

    def test_seeded_sweep_against_the_stepping_search(self):
        rng = np.random.default_rng(3401)
        for _ in range(300):
            real = float(10.0 ** rng.uniform(-1.0, 12.0))
            near = rng.uniform() < 0.5
            offset = int(rng.choice([-1, 0, 1]) if near else rng.integers(-300, 301))
            least = max(int(math.ceil(real)) + offset, 1)
            got, want = [], []
            assert planning._least_n(real, lambda n: got.append(n) or n >= least) == least
            assert oracles.least_n_linear(real, lambda n: want.append(n) or n >= least) == least
            if abs(offset) <= 1:
                assert got == want
            assert len(got) <= 2 * math.log2(abs(offset) + 1) + 4

            sigma = float(10.0 ** rng.uniform(-2.0, 2.0))
            eps = float(10.0 ** rng.uniform(-5.0, 0.0))
            unit = float(10.0 ** rng.uniform(-2.0, 1.0))
            real = sigma * sigma * unit / (eps * eps)
            fits = lambda n: sigma * sigma * unit / n <= eps * eps  # noqa: E731
            got, want = [], []
            assert planning._least_n(real, lambda n: got.append(n) or fits(n)) == \
                oracles.least_n_linear(real, lambda n: want.append(n) or fits(n))
            assert got == want

    def test_the_cli_plans_a_tiny_epsilon(self):
        # n_es is about 2.9e38: stepping did not return within 10 s
        proc = subprocess.run(
            [sys.executable, "-m", "msregret.cli", "sample-size",
             "--criterion", "es-epsilon-optimal", "--epsilon", "1e-20"],
            env=subprocess_env(), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        plan = json.loads(proc.stdout)
        assert plan["n_required"] == plan["es_comparison"]["n_es"] == \
            288902113721764485889591051171957571584


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


class TestUnitsRefuseASaturatedScan:
    """Each unit constant refuses a rule whose worst case sits on the scan
    edge, as plan_worst_msr does."""

    def test_a_flat_minimax_rule_is_refused(self):
        # MinimaxMSR(0.05) treats about half at every statistic, so its MSR
        # grows like tau^2 / 4 to the scan edge
        with pytest.raises(DomainError, match="not bounded on the scan"):
            minimax_msr_unit(0.05)
        with pytest.raises(DomainError, match="not bounded on the scan"):
            compare_vs_ht(1.0, 0.05, 0.9, 0.5, 0.05)
        with pytest.raises(DomainError, match="not bounded on the scan"):
            plan_worst_msr(1.0, 0.1, MinimaxMSR(tau_star=0.05))

    def test_a_tiny_test_size_is_refused(self):
        # the size-1e-30 cut is 11.46, past the scan's reach
        with pytest.raises(DomainError, match="not bounded on the scan"):
            ht_msr_unit(1e-30)
        with pytest.raises(DomainError, match="not bounded on the scan"):
            plan_ht_power(1.0, 1e-30, 0.9, 0.5, TAU_STAR)


class TestPlannerEdgeGrid:
    """Every planner call on the edge grid returns finite numbers or a typed
    error, without a RuntimeWarning (the suite runs with warnings as errors):
    test_risk.TestEdgeGrid's seven sigmas, and epsilons (the alternative, for
    plan_ht_power) from 0.5 to 1e-160."""

    EPSILONS = [0.5, 1e-3, 1e-20, 1e-150, 1e-160]
    PLANNERS = {
        "n_for_msr_target": lambda sigma, eps: n_for_msr_target(sigma, eps, MM_MSR_UNIT),
        "es_epsilon_optimal_n": es_epsilon_optimal_n,
        "plan_worst_msr": lambda sigma, eps: plan_worst_msr(sigma, eps, MinimaxMSR(TAU_STAR)),
        "plan_es_epsilon": lambda sigma, eps: plan_es_epsilon(sigma, eps, MinimaxMSR(TAU_STAR)),
        "plan_ht_power": lambda sigma, eps: plan_ht_power(sigma, 0.05, 0.8, eps, TAU_STAR),
    }

    @staticmethod
    def numbers(value) -> list:
        """Every int and float of a planner's answer, nested records included."""
        if isinstance(value, dict):
            return [x for v in value.values() for x in TestPlannerEdgeGrid.numbers(v)]
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return [value]
        return []

    @pytest.mark.parametrize("planner, want", [
        # epsilon^2 underflows at 1e-160 (7 calls); sigma^2 / epsilon^2 is
        # past the float range at sigma = 1e300 (4 more) and at epsilon = 1e-150
        # for sigma = 1e10 and 1e100 (2 more)
        ("n_for_msr_target", {"finite": 22, "DomainError": 13}),
        ("es_epsilon_optimal_n", {"finite": 22, "DomainError": 13}),
        ("plan_worst_msr", {"finite": 22, "DomainError": 13}),
        ("plan_es_epsilon", {"finite": 22, "DomainError": 13}),
        # (sigma / tau_alt)^2 is past the float range wherever sigma / tau_alt
        # exceeds about 1e154: at sigma = 1e300 (5 calls), and for tau_alt = 1e-160
        # and 1e-150 at sigma = 1e10 and 1e100 (4), and at sigma = 1 (1)
        ("plan_ht_power", {"finite": 25, "DomainError": 10}),
    ])
    def test_planners(self, planner, want):
        counts: dict = {}
        for sigma in RiskEdgeGrid.SIGMAS:
            for eps in self.EPSILONS:
                try:
                    value = self.PLANNERS[planner](sigma, eps)
                except (DomainError, ConvergenceError, PriorSupportError) as exc:
                    outcome = type(exc).__name__
                else:
                    payload = value.to_dict() if hasattr(value, "to_dict") else value
                    numbers = self.numbers(payload)
                    outcome = "finite" if numbers and all(
                        isinstance(x, int) or math.isfinite(x) for x in numbers
                    ) else f"not finite: {payload}"
                counts[outcome] = counts.get(outcome, 0) + 1
        assert counts == want
