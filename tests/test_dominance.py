"""Fractional rules that dominate singleton thresholds over a bounded range."""
import math

import numpy as np
import pytest
from scipy import integrate

import oracles
from msregret import (
    ComplementMix,
    DominanceCertificate,
    DominanceViolation,
    DomainError,
    GaussianExperiment,
    Threshold,
    dominating_rule,
    exact_risk,
    lambda_star,
    tail_bounds,
    verify_dominance,
)
from msregret.risk import _step_outcomes

CDF_MINUS_1 = 0.15865525393145707
CDF_MINUS_2 = 0.022750131948179216
# frozen from oracles.py: alpha = 3 optimal weight at the symmetric unit case
LAMBDA_STAR_P1_ALPHA3 = 0.3027716819718025


class TestTailBounds:
    def test_symmetric_unit_case(self):
        p_plus, p_minus = tail_bounds(0.0, 1.0, 1.0)
        assert abs(p_plus - CDF_MINUS_1) < 1e-14
        assert abs(p_minus - CDF_MINUS_1) < 1e-14

    def test_offset_threshold(self):
        p_plus, p_minus = tail_bounds(1.0, 1.0, 1.0)
        # wrong side for tau = +1 is Ybar < 1, a coin flip; for tau = -1 it
        # is Ybar >= 1, two sds out
        assert abs(p_plus - 0.5) < 1e-14
        assert abs(p_minus - CDF_MINUS_2) < 1e-14

    def test_noise_scaling(self):
        p_plus, p_minus = tail_bounds(0.0, 1.0, 0.5)
        assert abs(p_plus - oracles.cdf(-2.0)) < 1e-14

    def test_check_flag_passes(self):
        # each branch is monotone in tau, so on a 100-point grid of
        # (0, tau_bar] no wrong-side probability falls below the endpoint's:
        # the step outcome below t for tau > 0, at or above t for tau < 0
        pos = np.linspace(1.5 / 100.0, 1.5, 100)
        for t in (-0.7, 0.0, 1.3):
            p_plus, p_minus = tail_bounds(t, 1.5, 0.8)
            (_, wrong_pos), _ = _step_outcomes(Threshold(t).step, pos, 0.8)
            _, (_, wrong_neg) = _step_outcomes(Threshold(t).step, -pos, 0.8)
            assert wrong_pos.min() >= p_plus - 1e-10
            assert wrong_neg.min() >= p_minus - 1e-10

    def test_far_tails_come_from_their_own_side(self):
        # 1 - Phi(9) rounds to 0.0; Phi(-9) keeps the wrong-side mass
        p_plus, p_minus = tail_bounds(0.0, 9.0, 1.0)
        assert p_plus == p_minus
        assert abs(p_minus - oracles.cdf(-9.0)) <= 1e-13 * p_minus
        tau = np.linspace(0.5, 9.0, 18)
        (_, wrong_pos), _ = _step_outcomes(Threshold(0.0).step, tau, 1.0)
        _, (_, wrong_neg) = _step_outcomes(Threshold(0.0).step, -tau, 1.0)
        assert wrong_neg.tolist() == wrong_pos.tolist()
        assert 0.0 < dominating_rule(0.0, 9.0, 2.0, 1.0).lam < p_minus

    def test_bounds_are_the_step_outcomes_at_the_endpoints(self):
        # bit for bit the outcome below t at +tau_bar and the one at or
        # above t at -tau_bar
        for t, tau_bar, sd in ((-0.7, 1.5, 0.8), (0.3, 2.0, 1.0), (1.2, 0.4, 2.5)):
            (_, below), _ = _step_outcomes(Threshold(t).step, tau_bar, sd)
            _, (_, above) = _step_outcomes(Threshold(t).step, -tau_bar, sd)
            assert tail_bounds(t, tau_bar, sd) == (below, above)

    def test_shrinking_range_raises_the_floor(self):
        wide = tail_bounds(0.0, 2.0, 1.0)
        narrow = tail_bounds(0.0, 0.5, 1.0)
        assert narrow[0] > wide[0]
        assert narrow[0] < 0.5

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            tail_bounds(0.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            tail_bounds(0.0, 1.0, 0.0)


class TestLambdaStar:
    def test_square_regret_equals_the_worst_probability(self):
        # for alpha = 2 the optimal weight is exactly the least
        # distinguishable wrong-side probability
        for m in (0.01, CDF_MINUS_1, 0.3, 0.49):
            assert abs(lambda_star(m, 0.9, 2.0) - m) < 1e-14

    def test_uses_the_smaller_probability(self):
        assert lambda_star(0.1, 0.3, 2.0) == lambda_star(0.3, 0.1, 2.0) == 0.1

    def test_cubic_regret_frozen_anchor(self):
        got = lambda_star(CDF_MINUS_1, CDF_MINUS_1, 3.0)
        assert abs(got - LAMBDA_STAR_P1_ALPHA3) < 1e-12

    def test_heavier_power_mixes_more(self):
        m = 0.1
        assert lambda_star(m, m, 3.0) > lambda_star(m, m, 2.0)

    def test_interior(self):
        for alpha in (1.5, 2.0, 3.0):
            lam = lambda_star(0.2, 0.4, alpha)
            assert 0.0 < lam < 0.5

    def test_rejects_degenerate_probabilities_and_powers(self):
        with pytest.raises(DomainError):
            lambda_star(0.0, 0.5, 2.0)
        with pytest.raises(DomainError):
            lambda_star(1.0, 1.0, 2.0)
        with pytest.raises(DomainError):
            lambda_star(0.2, 0.2, 1.0)


class TestDominatingRule:
    def test_frozen_example(self):
        rule = dominating_rule(0.0, 1.0, 2.0, 1.0, shrink=0.5)
        assert isinstance(rule, ComplementMix)
        assert rule.base == Threshold(t=0.0)
        assert abs(rule.lam - 0.5 * CDF_MINUS_1) < 1e-14

    def test_shrink_scales_the_weight(self):
        lam_half = dominating_rule(0.5, 1.0, 2.0, 1.0, shrink=0.5).lam
        lam_tenth = dominating_rule(0.5, 1.0, 2.0, 1.0, shrink=0.1).lam
        assert abs(lam_tenth - lam_half / 5.0) < 1e-14

    def test_rejects_boundary_shrink(self):
        for shrink in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(DomainError):
                dominating_rule(0.0, 1.0, 2.0, 1.0, shrink=shrink)


class TestVerifyDominance:
    @pytest.mark.parametrize("grid_step", [0.0, -0.5, math.nan])
    def test_a_grid_step_that_is_not_positive(self, grid_step):
        with pytest.raises(DomainError, match=f"^grid_step must be positive, got {grid_step}$"):
            verify_dominance(0.0, 1.0, 2.0, 1.0, grid_step=grid_step)

    def test_the_refusals_keep_their_order(self):
        # shrink, then the tail bounds' own checks, then lambda_star's
        for fn in (dominating_rule, verify_dominance):
            with pytest.raises(DomainError, match="^shrink must lie"):
                fn(0.0, 0.0, 1.0, 0.0, 1.0)
            with pytest.raises(DomainError, match="^tau_bar must be positive"):
                fn(0.0, 0.0, 1.0, 0.0, 0.5)
            with pytest.raises(DomainError, match="^alpha_g must exceed 1"):
                fn(0.0, 1.0, 1.0, 1.0, 0.5)

    def test_certificate_structure(self):
        cert = verify_dominance(0.0, 1.0, 2.0, 1.0)
        assert cert.is_valid
        assert abs(cert.lambda_star - CDF_MINUS_1) < 1e-14
        assert abs(cert.lambda_used - 0.5 * CDF_MINUS_1) < 1e-14
        assert cert.lambda_used < cert.lambda_star
        taus = [row[0] for row in cert.grid]
        assert taus[0] == -1.0 and taus[-1] == 1.0
        assert len(taus) == 201

    def test_grid_is_mirrored_about_an_exact_zero(self):
        # tau_bar values whose evenly spaced grid lands a hair off zero used to
        # have the valid construction refused at tau = -1.1e-16
        cert = verify_dominance(-0.226, 0.992, 2.0, 1.0, 0.332)
        assert cert.is_valid
        taus = np.array([row[0] for row in cert.grid])
        assert taus[len(taus) // 2] == 0.0
        assert np.array_equal(taus, -taus[::-1])

    def test_margins_strict_away_from_zero(self):
        cert = verify_dominance(0.5, 1.0, 2.0, 1.0)
        for tau, r_single, r_frac, margin in cert.grid:
            assert abs((r_single - r_frac) - margin) < 1e-15
            if tau == 0.0:
                assert margin == 0.0
            else:
                assert margin > 1e-12
                assert r_frac < r_single

    def test_singleton_risk_column_is_the_threshold_risk(self):
        # cross-check against the generic risk integrator
        cert = verify_dominance(0.3, 1.0, 2.0, 1.0, grid_step=0.5)
        for tau, r_single, _, _ in cert.grid:
            want = exact_risk(
                Threshold(t=0.3), GaussianExperiment(tau, 1.0, 1)
            ).mean_square_regret if tau != 0.0 else 0.0
            assert abs(r_single - want) < 1e-12

    @pytest.mark.parametrize("design", [(0.3, 1.0, 2.0, 1.0, 0.5), (-0.5, 2.0, 3.5, 0.7, 0.9)])
    def test_risk_columns_are_the_step_outcome_sums(self, design):
        # both columns bit for bit E[Reg^alpha_g] over the step outcomes:
        # of Threshold(t), and of the rule dominating_rule builds
        t, tau_bar, alpha_g, sd, shrink = design
        cert = verify_dominance(*design, grid_step=0.05)
        rule = dominating_rule(*design)
        assert cert.lambda_used == rule.lam
        grid = np.array(cert.grid)
        for col, step in ((1, Threshold(t).step), (2, rule.step)):
            (r_lo, p_lo), (r_hi, p_hi) = _step_outcomes(step, grid[:, 0], sd)
            want = r_lo**alpha_g * p_lo + r_hi**alpha_g * p_hi
            assert grid[:, col].tolist() == want.tolist()

    def test_fractional_risk_column_matches_adaptive_quadrature(self):
        # independent route for the mixed rule's risk, split at the jump
        cert = verify_dominance(0.3, 1.0, 2.0, 1.0, grid_step=1.0)
        rule = dominating_rule(0.3, 1.0, 2.0, 1.0)
        lam = rule.lam
        for tau, _, r_frac, _ in cert.grid:
            if tau == 0.0:
                continue
            ind = 1.0 if tau > 0 else 0.0
            def reg2(y):
                frac = (1.0 - lam) * (1.0 if y >= 0.3 else 0.0) + lam * (
                    1.0 if y < 0.3 else 0.0
                )
                dens = math.exp(-0.5 * (y - tau) ** 2) / math.sqrt(2.0 * math.pi)
                return (tau * (ind - frac)) ** 2 * dens
            lo, _ = integrate.quad(reg2, tau - 10.0, 0.3, limit=200)
            hi, _ = integrate.quad(reg2, 0.3, tau + 10.0, limit=200)
            assert abs(r_frac - (lo + hi)) < 1e-9

    def test_general_power_margins(self):
        cert = verify_dominance(-0.5, 2.0, 3.0, 1.0, grid_step=0.05)
        assert cert.is_valid
        assert cert.alpha_g == 3.0

    def test_aggressive_shrink_still_dominates(self):
        cert = verify_dominance(0.0, 1.0, 2.0, 1.0, shrink=0.999)
        assert cert.is_valid

    def test_full_configuration_sweep(self):
        for t in (-1.0, -0.5, 0.0, 0.5, 1.0):
            for tau_bar in (0.5, 1.0, 2.0):
                for alpha_g in (1.5, 2.0, 3.0):
                    for shrink in (0.25, 0.5, 0.9):
                        cert = verify_dominance(
                            t, tau_bar, alpha_g, 1.0, shrink=shrink, grid_step=0.05
                        )
                        assert cert.is_valid, (t, tau_bar, alpha_g, shrink)
                        # the certificate holds the rule it certified
                        assert cert.rule == dominating_rule(t, tau_bar, alpha_g, 1.0, shrink)

    @pytest.mark.parametrize(
        "tau_bar, noise_sd, grid_step, cause",
        [(1.0, 1.0, 1e-300, "Maximum allowed size exceeded"),
         (1e300, 1e300, 1e-10, "cannot convert float infinity to integer")],
        ids=["too-long-to-index", "interval-count-overflows"],
    )
    def test_a_grid_that_cannot_be_built(self, tau_bar, noise_sd, grid_step, cause):
        # each is refused before numpy allocates anything
        with pytest.raises(DomainError) as info:
            verify_dominance(0.0, tau_bar, 2.0, noise_sd, grid_step=grid_step)
        assert str(info.value) == f"grid_step {grid_step!r} gives no grid: {cause}"

    def test_a_grid_too_large_to_hold(self, monkeypatch):
        # what numpy raises when the allocator refuses a grid, faked on a small
        # grid so that a grid is never allocated
        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 149. GiB")

        monkeypatch.setattr(np, "arange", refuse)
        with pytest.raises(DomainError) as info:
            verify_dominance(0.0, 1.0, 2.0, 1.0, grid_step=0.5)
        assert str(info.value) == "grid_step 0.5 gives no grid: Unable to allocate 149. GiB"

    def test_weight_ceiling_shrinks_with_the_range(self):
        lams = [
            verify_dominance(0.0, tb, 2.0, 1.0, grid_step=0.25).lambda_star
            for tb in (0.5, 1.0, 2.0, 3.0)
        ]
        assert all(a > b for a, b in zip(lams, lams[1:]))

    def test_csv_and_dict_round_trip(self):
        cert = verify_dominance(0.0, 1.0, 2.0, 1.0, grid_step=0.5)
        lines = cert.to_csv().strip().split("\n")
        assert lines[0] == "tau,risk_singleton,risk_fractional,margin"
        assert len(lines) == 6
        back = DominanceCertificate.from_dict(cert.to_dict())
        assert back == cert

    def test_steep_power_near_zero_is_certified(self):
        # the raw margin at tau = -0.01 is 1.75e-13, under the strict
        # tolerance; the normalized margin is smallest where the wrong-side
        # probability is smallest, at an endpoint, with value 3.6e-3
        cert = verify_dominance(0.5, 2.0, 6.0, 1.0)
        assert cert.is_valid
        m = min(tail_bounds(0.5, 2.0, 1.0))
        lam = cert.lambda_used
        floor = m * (1.0 - (1.0 - lam) ** 6) - lam**6 * (1.0 - m)
        normalized = [mg / abs(tau) ** 6 for tau, _, _, mg in cert.grid if tau != 0.0]
        assert abs(min(normalized) - floor) <= 1e-12 * floor
        assert 3.5e-3 < floor < 3.7e-3

    def test_an_overflowed_risk_certifies_nothing(self):
        # |tau|^4 overflows at 1.2e77 while the mixture's smaller regrets do
        # not, so the margin is inf there; further out it is inf - inf
        for tau_bar, margin in ((1.2e77, "inf"), (3e77, "nan")):
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(DominanceViolation, match=f"margin {margin} not finite"):
                    verify_dominance(0.0, tau_bar, 4.0, tau_bar, grid_step=tau_bar / 4)

    def test_validity_predicate_scales_the_strict_tolerance(self):
        # inside |tau| < 1 the margin is judged over |tau|^alpha_g, outside raw
        near = DominanceCertificate(0.0, 1.0, 6.0, 0.2, 0.1, ((0.01, 2e-12, 1e-12, 1e-12),))
        assert near.is_valid
        tiny = DominanceCertificate(0.0, 1.0, 6.0, 0.2, 0.1, ((0.01, 2e-24, 1e-24, 1e-24),))
        assert not tiny.is_valid
        far = DominanceCertificate(0.0, 3.0, 6.0, 0.2, 0.1, ((2.0, 2.0, 2.0 - 5e-13, 5e-13),))
        assert not far.is_valid

    def test_validity_predicate_flags_bad_margins(self):
        good = DominanceCertificate(0.0, 1.0, 2.0, 0.2, 0.1, ((0.5, 2.0, 1.0, 1.0),))
        assert good.is_valid
        bad = DominanceCertificate(0.0, 1.0, 2.0, 0.2, 0.1, ((0.5, 1.0, 2.0, -1.0),))
        assert not bad.is_valid
        flat = DominanceCertificate(0.0, 1.0, 2.0, 0.2, 0.1, ((0.5, 1.0, 1.0, 0.0),))
        assert not flat.is_valid


class TestMixRegretDecomposition:
    def test_pointwise_identity(self):
        # the mixture's regret is the same mixture of the base regrets, which
        # is what makes the closed-form risk exact
        from msregret import regret

        base = Threshold(t=0.4)
        lam = 0.2
        mix = ComplementMix(base=base, lam=lam)
        for tau in (-1.5, -0.3, 0.8, 2.0):
            for y in np.linspace(-3.0, 3.0, 61):
                b = float(base.evaluate(float(y)))
                got = regret(float(mix.evaluate(float(y))), tau)
                want = (1 - lam) * regret(b, tau) + lam * regret(1.0 - b, tau)
                assert abs(got - want) < 1e-12


class TestMarginTolerance:
    def test_a_margin_a_billionth_below_zero_is_below_tolerance(self):
        # the tolerance is -1e-12, so -1e-9 is refused as below it, not only
        # as a margin that is not strictly positive
        from msregret.dominance import _margin_violation

        rows = np.array([[0.5, 1.0, 1.0 + 1e-9, -1e-9]])
        assert _margin_violation(rows, 2.0) == "margin -1e-09 below tolerance at tau=0.5"
