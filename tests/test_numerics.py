"""Normal CDF/quantile accuracy, quadrature exactness, and the root/max helpers."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

import oracles
from msregret import (
    BayesFlatMSR,
    BracketError,
    ConvergenceError,
    DomainError,
    GaussianExperiment,
    MinimaxMSR,
    QuadratureSpec,
    RngSeed,
    exact_risk,
    find_root,
    gaussian_expectation,
    maximize_scalar,
    std_normal_cdf,
    std_normal_pdf,
    std_normal_quantile,
)
from msregret.numerics import scan_brackets

# frozen from oracles.py (erfc route)
CDF_MINUS_1 = 0.15865525393145707
CDF_MINUS_2 = 0.022750131948179216
Z_95 = 1.6448536269514722
Z_99 = 2.3263478740408408


class TestStdNormalCdf:
    def test_center(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_frozen_anchors(self):
        assert abs(std_normal_cdf(-1.0) - CDF_MINUS_1) < 1e-14
        assert abs(std_normal_cdf(-2.0) - CDF_MINUS_2) < 1e-14

    def test_matches_erfc_route(self):
        xs = np.linspace(-8.0, 8.0, 401)
        assert np.max(np.abs(std_normal_cdf(xs) - oracles.cdf(xs))) < 1e-14

    def test_tail_saturation(self):
        assert std_normal_cdf(40.0) == 1.0
        assert std_normal_cdf(-40.0) == 0.0

    def test_array_shape(self):
        out = std_normal_cdf(np.array([[0.0, 1.0], [-1.0, 2.0]]))
        assert out.shape == (2, 2)
        assert isinstance(std_normal_cdf(0.3), float)

    @given(st.floats(min_value=-37.0, max_value=37.0))
    def test_complement_symmetry(self, x):
        assert abs(std_normal_cdf(x) + std_normal_cdf(-x) - 1.0) < 1e-12

    @given(
        st.floats(min_value=-10.0, max_value=10.0),
        st.floats(min_value=0.0, max_value=5.0),
    )
    def test_monotone(self, x, gap):
        assert std_normal_cdf(x + gap) >= std_normal_cdf(x)


class TestStdNormalPdf:
    def test_center_value(self):
        assert abs(std_normal_pdf(0.0) - 1.0 / math.sqrt(2.0 * math.pi)) < 1e-15

    def test_symmetry(self):
        xs = np.linspace(0.0, 6.0, 50)
        assert np.max(np.abs(std_normal_pdf(xs) - std_normal_pdf(-xs))) == 0.0


class TestStdNormalQuantile:
    def test_median(self):
        assert std_normal_quantile(0.5) == 0.0

    def test_frozen_anchors(self):
        assert abs(std_normal_quantile(0.95) - Z_95) < 1e-12
        assert abs(std_normal_quantile(0.99) - Z_99) < 1e-12

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5])
    def test_rejects_outside_open_interval(self, p):
        with pytest.raises(DomainError):
            std_normal_quantile(p)

    @given(st.floats(min_value=1e-8, max_value=1.0 - 1e-8))
    def test_roundtrip(self, p):
        assert abs(std_normal_cdf(std_normal_quantile(p)) - p) < 1e-10


class TestQuadratureSpec:
    def test_defaults(self):
        spec = QuadratureSpec()
        assert spec.node_count == 64
        assert spec.fallback_abs_tol == 1e-10

    def test_rejects_tiny_order(self):
        with pytest.raises(DomainError):
            QuadratureSpec(node_count=15)

    def test_rejects_nonpositive_tolerance(self):
        with pytest.raises(DomainError):
            QuadratureSpec(fallback_abs_tol=0.0)

    def test_hashable(self):
        assert len({QuadratureSpec(), QuadratureSpec(node_count=128)}) == 2


class TestRngSeed:
    def test_bounds(self):
        RngSeed(0)
        RngSeed(2**64 - 1)
        with pytest.raises(DomainError):
            RngSeed(-1)
        with pytest.raises(DomainError):
            RngSeed(2**64)


class TestGaussianExpectation:
    def test_polynomial_exactness(self):
        # the trapezoid rule on a Gaussian-weighted polynomial is exact to
        # rounding from the first level on
        mean, sd = 0.7, 1.3
        assert abs(gaussian_expectation(lambda x: x, mean, sd) - mean) < 1e-12
        got = gaussian_expectation(lambda x: x * x, mean, sd)
        assert abs(got - (mean * mean + sd * sd)) < 1e-12
        got4 = gaussian_expectation(lambda x: (x - mean) ** 4, mean, sd)
        assert abs(got4 - 3.0 * sd**4) < 1e-10

    def test_bounded_nonlinearity_matches_adaptive_oracle(self):
        f = lambda x: 1.0 / (1.0 + np.exp(-np.clip(x, -700, 700)))
        got = gaussian_expectation(f, 0.4, 0.9)
        want = oracles.normal_expectation(lambda x: 1.0 / (1.0 + math.exp(-x)), 0.4, 0.9)
        assert abs(got - want) < 1e-10

    def test_custom_node_count(self):
        spec = QuadratureSpec(node_count=128)
        got = gaussian_expectation(lambda x: np.cos(x), 0.0, 1.0, spec)
        assert abs(got - math.exp(-0.5)) < 1e-12

    def test_rejects_nonpositive_sd(self):
        with pytest.raises(DomainError):
            gaussian_expectation(lambda x: x, 0.0, 0.0)
        with pytest.raises(DomainError):
            gaussian_expectation(lambda x: x, 0.0, -1.0)

    def test_indicator_cannot_be_certified(self):
        # a jump defeats every escalation stage; the contract is a clean
        # refusal instead of a silently wrong value
        with pytest.raises(ConvergenceError):
            gaussian_expectation(lambda x: (np.asarray(x) >= 0.0).astype(float), 0.3, 1.0)

    def test_stacked_integrand_equals_separate_calls(self):
        fs = (
            lambda x: np.cos(x),
            lambda x: 1.0 / (1.0 + np.exp(-3.0 * x)),
            lambda x: x * x,
        )
        got = gaussian_expectation(lambda x: np.stack([f(x) for f in fs]), 0.4, 1.7)
        assert got.shape == (3,)
        for value, f in zip(got, fs):
            single = gaussian_expectation(f, 0.4, 1.7)
            assert isinstance(single, float)
            assert abs(value - single) < 1e-12

    def test_integrand_growing_past_the_window_is_refused(self):
        with pytest.raises(ConvergenceError):
            gaussian_expectation(lambda x: np.exp(0.5 * x * x), 0.0, 1.0)

    def test_non_finite_integrand_is_refused(self):
        with pytest.raises(ConvergenceError):
            gaussian_expectation(lambda x: np.where(x > 0.0, np.nan, 1.0), 0.0, 1.0)

    @pytest.mark.parametrize("node_count", [16, 17, 64])
    def test_first_call_holds_the_first_two_levels(self, node_count):
        sizes = []

        def f(x):
            sizes.append(x.size)
            return 1.0 / (1.0 + np.exp(-8.0 * x))

        spec = QuadratureSpec(node_count=node_count)
        got = gaussian_expectation(f, 0.3, 1.0, spec)
        want = oracles.normal_expectation(lambda x: _logistic(8.0 * x), 0.3, 1.0)
        assert abs(got - want) < 1e-10
        n = node_count
        # level 0's n + 1 nodes and level 1's n midpoints, then one call per
        # level; every node of the finest level, level len(sizes), once
        assert len(sizes) >= 3
        assert sizes == [2 * n + 1] + [n << level for level in range(1, len(sizes))]
        assert sum(sizes) == (n << len(sizes)) + 1

    def test_edge_check_reads_level_zero_ends(self):
        # the last column of the first call is level 1's outermost midpoint,
        # which the edge check does not read; level 0's ends are z = +-10
        with pytest.raises(ConvergenceError, match="not negligible"):
            gaussian_expectation(lambda x: np.where(x == -10.0, 1e20, 0.0), 0.0, 1.0)
        with pytest.raises(ConvergenceError, match="not negligible"):
            gaussian_expectation(lambda x: np.where(x == 10.0, 1e20, 0.0), 0.0, 1.0)
        # 1e13 at z = 10 would fail the check; one node's weight there is tiny
        inner = 10.0 - 10.0 / 64
        got = gaussian_expectation(lambda x: np.where(x == inner, 1e13, 0.0), 0.0, 1.0)
        assert 0.0 < got < 1e-10

    def test_stacked_edge_check_reads_every_row(self):
        with pytest.raises(ConvergenceError, match="not negligible"):
            gaussian_expectation(
                lambda x: np.stack([np.cos(x), np.where(x == 10.0, 1e20, 0.0)]), 0.0, 1.0
            )


def _rows(f, k):
    # k stacked copies of a one-row integrand, the first row f itself
    return lambda x: np.stack([f(x)] + [np.cos(j * x) for j in range(1, k)])


class TestKernelRefusals:
    """The kernel's refusals and their texts, for one integrand and a stack."""

    NON_FINITE = "^trapezoid rule produced a non-finite value$"

    @pytest.mark.parametrize("k", [0, 3])
    @pytest.mark.parametrize("nan_end, big_end", [(-10.0, 10.0), (10.0, -10.0)])
    def test_nan_at_a_level_zero_end(self, k, nan_end, big_end):
        # numpy's max over the two ends is NaN whichever end holds it, so the
        # edge check passes and the finiteness test refuses the level, even
        # when the other end alone would fail the edge check
        def f(x):
            return np.where(x == nan_end, np.nan, np.where(x == big_end, 1e20, 0.0))

        g = f if k == 0 else _rows(f, k)
        with pytest.raises(ConvergenceError, match=self.NON_FINITE):
            gaussian_expectation(g, 0.0, 1.0)

    @pytest.mark.parametrize("k", [0, 3])
    def test_messages(self, k):
        def wrap(f):
            return f if k == 0 else _rows(f, k)

        # the last gap's digits depend on how BLAS orders each level's sum
        jump = r"^trapezoid levels still differ by 5\.819\d*e-05 after 10 halvings$"
        with pytest.raises(ConvergenceError, match=jump):
            gaussian_expectation(wrap(lambda x: (x >= 0.0).astype(float)), 0.3, 1.0)
        with pytest.raises(ConvergenceError, match=self.NON_FINITE):
            gaussian_expectation(wrap(lambda x: np.where(x == 0.3, np.inf, 1.0)), 0.3, 1.0)
        # finite level parts whose running sum overflows
        with np.errstate(over="ignore"), pytest.raises(ConvergenceError, match=self.NON_FINITE):
            gaussian_expectation(wrap(lambda x: np.where(abs(x) < 0.5, 1e308, 0.0)), 0.0, 1.0)
        with pytest.raises(ConvergenceError, match=r"^integrand not negligible at z = \+-10.0$"):
            gaussian_expectation(wrap(lambda x: np.where(x == 10.0, 1e20, 0.0)), 0.0, 1.0)


def _logistic(x: float) -> float:
    # math-only logistic for the scalar oracle integrands
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


class TestExactRiskKernel:
    @settings(max_examples=40, deadline=None)
    @given(
        st.one_of(
            st.floats(min_value=0.1, max_value=50.0),
            st.just(None),  # the flat-prior Bayes rule
        ),
        st.floats(min_value=-30.0, max_value=30.0),
        st.floats(min_value=0.5, max_value=2.0),
        st.integers(min_value=1, max_value=400),
    )
    def test_matches_adaptive_oracle(self, c, b, sigma, n):
        sd = sigma / math.sqrt(n)
        tau = b * sd
        if c is None:
            rule = BayesFlatMSR(scale=sd)
            frac = lambda y: (
                oracles.cdf(y / sd) + (y / sd) * oracles.phi(y / sd) / (1.0 + (y / sd) ** 2)
            )
        else:
            rule = MinimaxMSR(tau_star=c, scale=sd)
            frac = lambda y: _logistic(2.0 * c * y / sd)
        report = exact_risk(rule, GaussianExperiment(tau, sigma, n))
        ind = 1.0 if tau >= 0 else 0.0
        mean_regret = oracles.normal_expectation(lambda y: tau * (ind - frac(y)), tau, sd)
        msr = oracles.normal_expectation(lambda y: (tau * (ind - frac(y))) ** 2, tau, sd)
        e_frac = oracles.normal_expectation(frac, tau, sd)
        w_var = tau * tau * oracles.normal_expectation(
            lambda y: (frac(y) - e_frac) ** 2, tau, sd
        )
        scale = max(1.0, tau * tau)
        assert abs(report.mean_regret - mean_regret) < 1e-9 * scale
        assert abs(report.mean_square_regret - msr) < 1e-9 * scale
        assert abs(report.welfare_mean - tau * e_frac) < 1e-9 * scale
        assert abs(report.welfare_sd**2 - w_var) < 1e-9 * scale

    def test_each_node_is_evaluated_once(self, monkeypatch):
        seen = []
        evaluate = MinimaxMSR.evaluate

        def counting(rule, stat):
            seen.append(np.array(stat, dtype=float).ravel())
            return evaluate(rule, stat)

        monkeypatch.setattr(MinimaxMSR, "evaluate", counting)
        exact_risk(MinimaxMSR(tau_star=2.0), GaussianExperiment(0.7, 1.0, 1))
        points = np.concatenate(seen)
        assert len(points) == len(np.unique(points))

    def test_rule_sees_the_first_two_levels_in_one_call(self, monkeypatch):
        sizes = []
        evaluate = BayesFlatMSR.evaluate

        def counting(rule, stat):
            sizes.append(np.size(stat))
            return evaluate(rule, stat)

        monkeypatch.setattr(BayesFlatMSR, "evaluate", counting)
        for n in (64, 17):
            sizes.clear()
            exact_risk(BayesFlatMSR(), GaussianExperiment(1.3, 1.0, 1), QuadratureSpec(n))
            assert sizes == [2 * n + 1] + [n << level for level in range(1, len(sizes))]

    def test_welfare_sd_of_a_sharp_statistic(self):
        # sd = 1e-8: the variance is tau^2 f'(tau)^2 sd^2 to first order,
        # far below the rounding of E[f^2] - E[f]^2
        c, tau, sd = 1.22814, 1.0, 1e-8
        f = _logistic(2.0 * c * tau)
        want = tau * 2.0 * c * f * (1.0 - f) * sd
        got = exact_risk(MinimaxMSR(c), GaussianExperiment(tau, 1.0, 10**16)).welfare_sd
        assert abs(got - want) < 1e-6 * want


class TestFindRoot:
    def test_linear(self):
        assert abs(find_root(lambda x: 2.0 * x - 1.0, -5.0, 5.0) - 0.5) < 1e-12

    def test_exact_endpoint(self):
        assert find_root(lambda x: x, 0.0, 1.0) == 0.0

    def test_rejects_unbracketed(self):
        with pytest.raises(BracketError):
            find_root(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_rejects_bad_interval(self):
        with pytest.raises(DomainError):
            find_root(lambda x: x, 1.0, 1.0)

    def test_normal_quantile_by_inversion(self):
        got = find_root(lambda x: std_normal_cdf(x) - 0.95, 0.0, 5.0)
        assert abs(got - Z_95) < 1e-9

    def test_exhausted_iterations_are_refused(self):
        # a jump at 0 with a subnormal tolerance needs about 1000 halvings
        with pytest.raises(ConvergenceError):
            find_root(lambda x: math.copysign(1.0, x), -1.0, 1.0, tol=1e-300)

    def test_nan_value_is_refused(self):
        with pytest.raises(DomainError):
            find_root(lambda x: math.nan if x > 0.5 else x - 0.7, 0.0, 2.0)

    def test_known_end_values_are_not_evaluated_again(self):
        seen = []

        def f(x):
            seen.append(x)
            return x * x - 2.0

        got = find_root(f, 1.0, 2.0, f_lo=-1.0, f_hi=2.0)
        assert 1.0 not in seen and 2.0 not in seen
        assert abs(got - math.sqrt(2.0)) < 1e-12

    def test_known_non_finite_end_value_is_refused(self):
        with pytest.raises(DomainError):
            find_root(lambda x: x, -1.0, 1.0, f_lo=math.nan)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0, -1e-300])
    def test_bad_tolerance_is_refused(self, tol):
        with pytest.raises(DomainError, match="tol"):
            find_root(lambda x: x - 0.3, 0.0, 1.0, tol=tol)

    def test_zero_tolerance_is_legal(self):
        assert abs(find_root(lambda x: x - 0.3, 0.0, 1.0, tol=0.0) - 0.3) < 1e-15


class TestScanBrackets:
    GRID = np.arange(11) / 10

    def test_single_peak(self):
        vals = -((self.GRID - 0.42) ** 2)
        assert scan_brackets(self.GRID, vals, 1e-9) == [(0.3, 0.5)]

    def test_near_equal_peaks_are_all_kept_in_grid_order(self):
        vals = np.array([0, 1, 3, 1, 0, 0, 0, 1, 3 + 1e-12, 1, 0], dtype=float)
        assert scan_brackets(self.GRID, vals, 1e-9) == [(0.1, 0.3), (0.7, 0.9)]
        assert scan_brackets(self.GRID, vals, 1e-13) == [(0.7, 0.9)]

    def test_edges_and_plateaus(self):
        # a peak at an end gets its one neighbour; a plateau gives its first point
        vals = np.array([5, 4, 3, 2, 5, 5, 5, 1, 0, 0, 0], dtype=float)
        assert scan_brackets(self.GRID, vals, 0.0) == [(0.0, 0.1), (0.3, 0.5)]


class TestMaximizeScalar:
    def test_parabola(self):
        arg, val = maximize_scalar(lambda x: -(x - 1.3) ** 2 + 2.0, 0.0, 3.0)
        assert abs(arg - 1.3) < 1e-7
        assert abs(val - 2.0) < 1e-12

    def test_endpoint_maximum(self):
        arg, val = maximize_scalar(lambda x: x, 0.0, 1.0)
        assert arg == 1.0
        assert val == 1.0

    def test_rejects_bad_interval(self):
        with pytest.raises(DomainError):
            maximize_scalar(lambda x: x, 2.0, 1.0)

    def test_planning_shape_anchor(self):
        # sup_t t * (1 - cdf(t)) is the mean-regret unit shape
        arg, val = maximize_scalar(lambda t: t * std_normal_cdf(-t), 0.0, 8.0)
        assert abs(val - 0.1699712074799036) < 1e-9
        assert abs(arg - 0.7517915166688109) < 1e-6

    def test_test_rule_shape_anchor(self):
        crit = std_normal_quantile(0.95)
        arg, val = maximize_scalar(lambda b: b * b * std_normal_cdf(crit - b), 0.0, 8.0)
        assert abs(val - 1.4457718111903313) < 1e-9
        assert abs(arg - 1.969573030735857) < 1e-6

    def test_exhausted_evaluations_are_refused(self):
        # a kink at 0 with a subnormal tolerance outlasts 500 evaluations
        with pytest.raises(ConvergenceError):
            maximize_scalar(lambda x: -abs(x), -1.0, 2.0, tol=1e-300)

    def test_nan_value_is_refused(self):
        with pytest.raises(DomainError):
            maximize_scalar(lambda x: math.nan if x > 0.5 else x, 0.0, 2.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0, -1e-300])
    def test_bad_tolerance_is_refused(self, tol):
        with pytest.raises(DomainError, match="tol"):
            maximize_scalar(lambda x: -(x - 1.3) ** 2, 0.0, 3.0, tol=tol)

    def test_zero_tolerance_is_legal(self):
        arg, _ = maximize_scalar(lambda x: -(x - 1.3) ** 2, 0.0, 3.0, tol=0.0)
        assert abs(arg - 1.3) < 1e-7


def _seeded_cases(seed: int, names, count: int = 12):
    """(name, shift, slope, half-widths) draws for the scipy comparisons."""
    rng = np.random.default_rng(seed)
    for name in names:
        for _ in range(count):
            yield name, rng.uniform(-3.0, 3.0), rng.uniform(0.2, 5.0), rng.uniform(0.1, 4.0, 2)


class TestSameFloatsAsScipy:
    """The Brent ports return bit-identical results to scipy.optimize."""

    @pytest.mark.parametrize("tol", [1e-12, 1e-8])
    def test_find_root_matches_brentq(self, tol):
        roots = {
            "smooth": lambda a, s: lambda x: math.tanh(s * (x - a)),
            "steep": lambda a, s: lambda x: math.atan(50.0 * s * (x - a)),
            "cubic": lambda a, s: lambda x: (x - a) ** 3 + 0.1 * s * (x - a),
            # values near 1e-300, flat below the root: the inverse-quadratic
            # denominator underflows to zero, and brentq bisects
            "flat-tiny": lambda a, s: lambda x: max(1e-300 * math.expm1(s * (x - a)), -1e-301),
            "tiny": lambda a, s: lambda x: 1e-300 * math.expm1(s * (x - a)),
        }
        for name, a, s, (left, right) in _seeded_cases(11, roots):
            f = roots[name](a, s)
            want = optimize.brentq(f, a - left, a + right, xtol=tol, maxiter=200)
            assert find_root(f, a - left, a + right, tol) == want, name

    @pytest.mark.parametrize("tol", [1e-12, 1e-8])
    def test_find_root_with_known_ends_matches_brentq(self, tol):
        for name, a, s, (left, right) in _seeded_cases(12, ["smooth", "steep"]):
            f = (lambda x: math.tanh(s * (x - a))) if name == "smooth" else (
                lambda x: math.atan(50.0 * s * (x - a)))
            lo, hi = a - left, a + right
            want = optimize.brentq(f, lo, hi, xtol=tol, maxiter=200)
            assert find_root(f, lo, hi, tol, f_lo=f(lo), f_hi=f(hi)) == want, name

    @pytest.mark.parametrize("tol", [1e-10, 1e-6])
    def test_maximize_scalar_matches_bounded_minimizer(self, tol):
        peaks = {
            "smooth": lambda a, s: lambda x: -math.cosh(s * (x - a)),
            "steep": lambda a, s: lambda x: math.exp(-50.0 * s * (x - a) ** 2),
            # local max at a, unimodal on the bracket: slope 1 - (x - a + 1)^2
            "cubic": lambda a, s: lambda x: s * ((x - a + 1.0) - (x - a + 1.0) ** 3 / 3.0),
        }
        for name, a, s, (left, right) in _seeded_cases(12, peaks):
            f = peaks[name](a, s)
            lo, hi = a - min(left, 1.5), a + right
            res = optimize.minimize_scalar(
                lambda x: -f(x), bounds=(lo, hi), method="bounded", options={"xatol": tol}
            )
            assert res.status == 0
            assert maximize_scalar(f, lo, hi, tol) == (float(res.x), -float(res.fun)), name
