"""Fractional rules that dominate singleton thresholds over a bounded range."""
import math

import numpy as np
import pytest
from scipy import integrate

import oracles
from msregret import (
    ComplementMix,
    DominanceCertificate,
    DomainError,
    GaussianExperiment,
    Threshold,
    dominating_rule,
    exact_risk,
    lambda_star,
    tail_bounds,
    verify_dominance,
)

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
        for t in (-0.7, 0.0, 1.3):
            tail_bounds(t, 1.5, 0.8, check=True)

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
