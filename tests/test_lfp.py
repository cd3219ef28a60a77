"""Calibration solver, the two equivalent objectives, and the saddle check."""
import math

import numpy as np
import pytest
from scipy.special import expit

import oracles
from msregret import (
    DomainError,
    GaussianExperiment,
    MinimaxMSR,
    SaddleCertificate,
    SaddleViolation,
    bayes_objective,
    default_tau_star,
    exact_risk,
    frequentist_objective,
    solve_tau_star,
    verify_saddle,
)
from msregret import lfp, numerics, risk

# frozen from oracles.py: independent refinement of both programs
ORACLE_ARGMAX = 1.228141128368002
ORACLE_VALUE = 0.11987899265878338


class TestObjectives:
    def test_zero_is_zero(self):
        assert bayes_objective(0.0) == 0.0
        assert frequentist_objective(0.0) == 0.0

    def test_match_adaptive_oracle(self):
        for a in (0.5, 1.0, 1.2285, 2.0):
            assert abs(bayes_objective(a) - oracles.bayes_objective(a)) < 1e-9
            assert abs(
                frequentist_objective(a) - oracles.frequentist_objective(a)
            ) < 1e-9

    def test_pointwise_identity(self):
        # posterior odds at the two-point prior turn one integrand into the
        # other, so the two programs share values everywhere, not just at
        # the optimum
        for a in (0.3, 0.7, 1.2285, 1.9, 3.0):
            assert abs(bayes_objective(a) - frequentist_objective(a)) < 1e-10

    def test_frequentist_is_the_rule_risk(self):
        # exact_risk's moment body at tau = a, bit for bit, and even in a
        for a in (0.6, 1.22814, 1.8):
            rule = MinimaxMSR(tau_star=a)
            rep = exact_risk(rule, GaussianExperiment(a, 1.0, 1))
            assert frequentist_objective(a) == rep.mean_square_regret
            assert frequentist_objective(-a) == rep.mean_square_regret

    def test_vanishes_in_both_limits(self):
        assert frequentist_objective(8.0) < 1e-10
        assert frequentist_objective(0.01) < 1e-3

    @pytest.mark.parametrize("a", [0.5, 1.228141114282924, 3.0, 6.0])
    def test_match_the_30_digit_oracle(self, a):
        # the identity solve_tau_star rests on, then each function within
        # its kernel tolerance of its own exact value
        bayes = oracles.lfp_objective_mp(a, 1)
        freq = oracles.lfp_objective_mp(a, 2)
        assert abs(bayes - freq) < 1e-25
        assert abs(bayes_objective(a) - float(bayes)) <= 0.5 * a * a * 1e-10
        assert abs(frequentist_objective(a) - float(freq)) <= a * a * 1e-10


class TestSolve:
    def test_value_and_location(self, tau_star_solved):
        assert abs(tau_star_solved - 1.23) <= 0.01
        assert abs(tau_star_solved - ORACLE_ARGMAX) < 1e-6
        assert abs(frequentist_objective(tau_star_solved) - ORACLE_VALUE) < 1e-10

    def test_dense_grid_confirmation(self, tau_star_solved):
        # a 1e-4-spaced sweep of the whole bracket cannot find a better point
        # on the frequentist objective, which the solver never reads
        grid = np.arange(0.5, 2.5 + 5e-5, 1e-4)
        vals = []
        for i in range(0, grid.size, 512):
            col = grid[i : i + 512, None]
            e = numerics.gaussian_expectation(
                lambda z: expit(-2.0 * col * (col + z)) ** 2, 0.0, 1.0
            )
            vals.append(col[:, 0] ** 2 * e)
        vals = np.concatenate(vals)
        best = float(grid[int(np.argmax(vals))])
        assert abs(best - tau_star_solved) < 2e-4
        assert vals.max() <= frequentist_objective(tau_star_solved) + 1e-9

    def test_zero_tolerance_gives_the_bayes_argmax(self):
        # Brent to its relative floor alone; the two objectives' argmaxes
        # then differ by quadrature noise (3.1e-12), which is no error
        assert abs(solve_tau_star(tol=0.0) - ORACLE_ARGMAX) < 1e-6

    def test_objective_agreement_at_the_optimum(self, tau_star_solved):
        assert abs(
            bayes_objective(tau_star_solved) - frequentist_objective(tau_star_solved)
        ) < 1e-8

    def test_scan_is_one_stacked_kernel_call_and_no_gauss_hermite(self, monkeypatch):
        import numpy.polynomial.hermite as hermite

        def refuse(*args, **kwargs):
            raise AssertionError("Gauss-Hermite nodes requested")

        monkeypatch.setattr(hermite, "hermgauss", refuse)
        assert not hasattr(numerics, "_gh_nodes")
        calls = []

        def spy(f, mean, sd):
            out = numerics.gaussian_expectation(f, mean, sd)
            calls.append(np.size(out))
            return out

        monkeypatch.setattr(lfp, "gaussian_expectation", spy)
        got = solve_tau_star()
        # the Bayes objective at the 41 scan points, then scalar refinement calls
        assert calls[0] == 41
        assert len(calls) > 1 and all(c == 1 for c in calls[1:])
        assert abs(got - ORACLE_ARGMAX) < 1e-6

    @pytest.mark.parametrize("lift, brackets", [
        (1e-11, [(0.95, 1.05), (1.95, 2.05)]),  # peaks within the scan error
        (1e-6, [(1.95, 2.05)]),  # the lower peak is out of the running
    ])
    def test_every_near_best_scan_peak_is_refined(self, monkeypatch, lift, brackets):
        def two_peaks(a):
            return -(((a - 1.0) * (a - 2.0)) ** 2) + lift * a

        seen = []
        refine = numerics.maximize_scalar

        def recording(f, lo, hi, tol):
            seen.append((lo, hi))
            return refine(f, lo, hi, tol)

        monkeypatch.setattr(lfp, "bayes_objective", two_peaks)
        monkeypatch.setattr(numerics, "maximize_scalar", recording)
        got = solve_tau_star()
        assert seen == brackets
        assert abs(got - 2.0) < 1e-3

    def test_scan_matches_the_pointwise_objectives(self):
        grid = np.arange(10, 51) / 20
        assert bayes_objective(grid).tolist() == [bayes_objective(a) for a in grid.tolist()]


class TestVerifySaddle:
    def test_certificate_at_the_solved_constant(self, tau_star_solved):
        cert = verify_saddle(tau_star_solved)
        assert cert.is_valid
        assert abs(cert.bayes_risk_at_lfp - 0.1199) < 1e-3
        assert abs(cert.worst_case_risk - 0.1199) < 1e-3
        assert cert.objective_gap <= 1e-6
        assert abs(cert.argsup_tau - tau_star_solved) <= 1e-4
        assert len(cert.curve_samples) == 201
        worst = cert.worst_case_risk
        assert all(f <= worst + 1e-8 for _, _, f in cert.curve_samples)

    def test_certificate_at_the_shipped_constant(self):
        cert = verify_saddle(default_tau_star())
        assert cert.is_valid

    def test_miscalibrated_rule_rejected(self):
        with pytest.raises(SaddleViolation):
            verify_saddle(0.5)
        with pytest.raises(SaddleViolation):
            verify_saddle(2.0)

    def test_rejects_nonpositive(self):
        for tau_star in (0.0, math.inf):
            with pytest.raises(DomainError):
                verify_saddle(tau_star)

    def test_worst_case_away_from_tau_star_rejected(self):
        # the objective gap (6e-9) passes; the worst case sits 2.3e-4 away
        with pytest.raises(SaddleViolation, match="not within 1e-4"):
            verify_saddle(default_tau_star() + 2e-4)

    def test_stacked_curve_matches_per_point_values(self):
        tau_star = default_tau_star()
        rule = MinimaxMSR(tau_star=tau_star)
        cert = verify_saddle(tau_star)
        assert len(cert.curve_samples) == 201
        assert cert.curve_samples[0] == (0.0, 0.0, 0.0)
        for tau, bayes, freq in cert.curve_samples[1:]:
            assert bayes == bayes_objective(tau)
            assert freq == exact_risk(rule, GaussianExperiment(tau, 1.0, 1)).mean_square_regret

    def test_curve_is_one_kernel_call(self, monkeypatch):
        calls = {"lfp": [], "risk": []}

        def spy(module):
            def counted(f, mean, sd):
                out = numerics.gaussian_expectation(f, mean, sd)
                calls[module].append(np.size(out))
                return out
            return counted

        monkeypatch.setattr(lfp, "gaussian_expectation", spy("lfp"))
        monkeypatch.setattr(risk, "gaussian_expectation", spy("risk"))
        cert = verify_saddle(default_tau_star())
        # bayes_objective at tau_star and at the 201 grid taus; the frequentist
        # column's 200 nonzero effects in blocks of 32, four moments each
        assert calls["lfp"] == [1, 201]
        assert calls["risk"] == [4 * 32] * 6 + [4 * 8]
        assert cert.is_valid

    def test_csv_and_dict_round_trip(self, tau_star_solved):
        cert = verify_saddle(tau_star_solved)
        lines = cert.to_csv().strip().split("\n")
        assert lines[0] == "tau,bayes_objective,frequentist_risk"
        assert len(lines) == 1 + 201
        back = SaddleCertificate.from_dict(cert.to_dict())
        assert back == cert

    def test_validity_predicate(self):
        good = SaddleCertificate(1.0, 0.1, 0.1, 1.0, 0.0, ())
        assert good.is_valid
        assert not SaddleCertificate(1.0, 0.1, 0.1, 1.0, 1e-5, ()).is_valid
        assert not SaddleCertificate(1.0, 0.1, 0.1, 1.001, 0.0, ()).is_valid

    def test_validity_predicate_checks_the_overshoot(self):
        assert SaddleCertificate(1.0, 0.1, 0.1, 1.0, 0.0, ((0.5, 0.05, 0.1 + 5e-9),)).is_valid
        assert not SaddleCertificate(1.0, 0.1, 0.1, 1.0, 0.0, ((0.5, 0.05, 0.1 + 2e-8),)).is_valid


class TestShippedConstant:
    def test_matches_a_fresh_solve(self, tau_star_solved):
        assert lfp.TAU_STAR == oracles.round_sig(tau_star_solved, 6)
        assert default_tau_star() == lfp.TAU_STAR

    def test_default_is_the_shipped_constant_without_a_solve(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("default_tau_star solved for tau*")

        monkeypatch.setattr(lfp, "solve_tau_star", refuse)
        assert lfp.default_tau_star() == lfp.TAU_STAR
