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
    QuadratureSpec,
    SaddleCertificate,
    SaddleViolation,
    bayes_objective,
    default_tau_star,
    exact_risk,
    frequentist_objective,
    round_sig,
    solve_tau_star,
    verify_saddle,
    write_constants,
)
from msregret import _constants, lfp, numerics

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
        # different code path: the generic risk integrator at tau = a
        for a in (0.6, 1.22814, 1.8):
            rule = MinimaxMSR(tau_star=a)
            rep = exact_risk(rule, GaussianExperiment(a, 1.0, 1))
            assert abs(frequentist_objective(a) - rep.mean_square_regret) < 1e-10

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

    def test_node_count_stability(self, tau_star_solved):
        coarse = solve_tau_star(QuadratureSpec(node_count=64))
        fine = solve_tau_star(QuadratureSpec(node_count=128))
        assert abs(coarse - fine) < 1e-6
        assert abs(coarse - tau_star_solved) < 1e-6

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

        def spy(f, mean, sd, spec=lfp.DEFAULT_QUADRATURE):
            out = numerics.gaussian_expectation(f, mean, sd, spec)
            calls.append((spec, np.size(out)))
            return out

        spec = QuadratureSpec(node_count=32, fallback_abs_tol=1e-11)
        monkeypatch.setattr(lfp, "gaussian_expectation", spy)
        got = solve_tau_star(spec)
        # the Bayes objective at the 41 scan points, then scalar refinement calls
        assert calls[0] == (spec, 41)
        assert len(calls) > 1 and all(c == (spec, 1) for c in calls[1:])
        assert abs(got - ORACLE_ARGMAX) < 1e-6

    @pytest.mark.parametrize("lift, brackets", [
        (1e-11, [(0.95, 1.05), (1.95, 2.05)]),  # peaks within the scan error
        (1e-6, [(1.95, 2.05)]),  # the lower peak is out of the running
    ])
    def test_every_near_best_scan_peak_is_refined(self, monkeypatch, lift, brackets):
        def two_peaks(a, spec=lfp.DEFAULT_QUADRATURE):
            return -(((a - 1.0) * (a - 2.0)) ** 2) + lift * a

        seen = []

        def recording(f, lo, hi, tol):
            seen.append((lo, hi))
            return numerics.maximize_scalar(f, lo, hi, tol)

        def scan(grid, spec):
            return np.array([two_peaks(a) for a in grid])

        monkeypatch.setattr(lfp, "_objective_scan", scan)
        monkeypatch.setattr(lfp, "bayes_objective", two_peaks)
        monkeypatch.setattr(lfp, "maximize_scalar", recording)
        got = solve_tau_star()
        assert seen == brackets
        assert abs(got - 2.0) < 1e-3

    def test_scan_matches_the_pointwise_objectives(self):
        grid = np.arange(10, 51) / 20
        for a, b in zip(grid, lfp._objective_scan(grid)):
            assert abs(b - bayes_objective(a)) < 1e-12


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
        with pytest.raises(DomainError):
            verify_saddle(0.0)

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
            assert abs(bayes - bayes_objective(tau)) < 1e-12
            rep = exact_risk(rule, GaussianExperiment(tau, 1.0, 1))
            assert abs(freq - rep.mean_square_regret) < 1e-12

    def test_in_place_rows_give_the_concatenated_rows_bit_for_bit(self):
        tau_star = default_tau_star()
        rule = MinimaxMSR(tau_star=tau_star)
        a = np.arange(0.0, 4.0 + 0.01, 0.02)[1:]
        col = a[:, None]

        def rows(z):
            s = col + z
            return np.concatenate(
                [expit(-2.0 * col * s), (col * (1.0 - rule.evaluate(s))) ** 2]
            )

        curve = numerics.gaussian_expectation(rows, 0.0, 1.0)
        samples = verify_saddle(tau_star).curve_samples[1:]
        assert [b for _, b, _ in samples] == (0.5 * a * a * curve[: a.size]).tolist()
        assert [f for _, _, f in samples] == curve[a.size :].tolist()

    def test_curve_is_one_kernel_call_with_the_given_spec(self, monkeypatch):
        calls = []

        def spy(f, mean, sd, spec=lfp.DEFAULT_QUADRATURE):
            out = numerics.gaussian_expectation(f, mean, sd, spec)
            calls.append((spec, np.size(out)))
            return out

        spec = QuadratureSpec(node_count=16, fallback_abs_tol=1e-3)
        monkeypatch.setattr(lfp, "gaussian_expectation", spy)
        loose = verify_saddle(default_tau_star(), spec=spec)
        # bayes_objective at tau_star, then the 200 nonzero rows of each column
        assert calls == [(spec, 1), (spec, 400)]
        assert loose.is_valid

    def test_csv_and_dict_round_trip(self, tau_star_solved):
        cert = verify_saddle(tau_star_solved, grid_hi=1.0, grid_step=0.5)
        lines = cert.to_csv().strip().split("\n")
        assert lines[0] == "tau,bayes_objective,frequentist_risk"
        assert len(lines) == 4
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


class TestRoundSig:
    def test_examples(self):
        assert round_sig(1.2281411, 6) == 1.22814
        assert round_sig(0.00123456, 3) == 0.00123
        assert round_sig(987654.0, 2) == 990000.0
        assert round_sig(0.0, 6) == 0.0
        assert round_sig(-1.2281411, 6) == -1.22814


class TestShippedConstant:
    def test_matches_a_fresh_solve(self, tau_star_solved):
        assert _constants.TAU_STAR == round_sig(tau_star_solved, 6)
        assert default_tau_star() == _constants.TAU_STAR

    def test_write_constants_reproduces_the_shipped_module(self, tmp_path):
        out = tmp_path / "_constants.py"
        value = write_constants(str(out))
        assert value == _constants.TAU_STAR
        shipped = open(_constants.__file__, encoding="ascii").read()
        assert out.read_text(encoding="ascii") == shipped
        assert "TAU_STAR = 1.22814\n" in shipped

    def test_missing_cache_falls_back_to_a_rounded_solve(self, monkeypatch):
        import msregret.lfp as lfp

        monkeypatch.setattr(lfp, "_cached_tau_star", lambda: None)
        assert lfp.default_tau_star() == _constants.TAU_STAR
