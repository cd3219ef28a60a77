"""Least-squares fits and the treatment fractions they induce."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import oracles
from msregret import (
    Dataset,
    DomainError,
    InputError,
    RankError,
    RegressionResult,
    fit,
    fraction_from_tstat,
    load_dataset_csv,
)
from msregret import regression

TAU_STAR = 1.22814

# one-arm experiment: 100 successes, 99 failures, outcomes +-1, everyone treated
ONE_ARM_T = 0.0708890155472096
ONE_ARM_MM = 0.5434211662914232
ONE_ARM_BAYES = 0.55632556139561
ONE_ARM_SWING = 0.4565788337085768


def one_arm_dataset(flip: bool = False) -> Dataset:
    wins, losses = (99, 100) if flip else (100, 99)
    y = np.array([1.0] * wins + [-1.0] * losses)
    return Dataset(outcomes=y, treatments=np.ones(y.shape[0]), covariates=[])


class TestDataset:
    def test_design_puts_treatment_first(self):
        data = Dataset(
            outcomes=[1.0, 2.0, 3.0, 4.0],
            treatments=[1, 0, 1, 0],
            covariates=[[5.0], [6.0], [7.0], [8.0]],
        )
        assert data.n_obs == 4
        assert data.design.shape == (4, 2)
        assert np.array_equal(data.design[:, 0], [1.0, 0.0, 1.0, 0.0])
        assert np.array_equal(data.design[:, 1], [5.0, 6.0, 7.0, 8.0])

    def test_default_column_names(self):
        data = Dataset(
            outcomes=[1.0, 2.0, 3.0, 4.0],
            treatments=[1, 0, 1, 0],
            covariates=np.ones((4, 2)) * [[1.0, 2.0]],
        )
        assert data.column_names == ("d", "x0", "x1")

    def test_given_column_names(self):
        data = Dataset(
            outcomes=[1.0, 2.0, 3.0],
            treatments=[1, 0, 1],
            covariates=[[1.0], [1.0], [1.0]],
            covariate_names=("intercept",),
        )
        assert data.column_names == ("d", "intercept")

    def test_empty_covariates_reshape(self):
        data = Dataset(outcomes=[1.0, 2.0], treatments=[1, 0], covariates=[])
        assert data.covariates.shape == (2, 0)
        assert data.design.shape == (2, 1)

    def test_validation(self):
        with pytest.raises(InputError, match="one-dimensional"):
            Dataset(outcomes=[[1.0], [2.0]], treatments=[1, 0], covariates=[])
        with pytest.raises(InputError, match="length mismatch"):
            Dataset(outcomes=[1.0, 2.0, 3.0], treatments=[1, 0], covariates=[])
        with pytest.raises(InputError, match="names"):
            Dataset(
                outcomes=[1.0, 2.0, 3.0],
                treatments=[1, 0, 1],
                covariates=[[1.0], [1.0], [1.0]],
                covariate_names=("a", "b"),
            )
        with pytest.raises(InputError, match="non-finite"):
            Dataset(outcomes=[1.0, math.nan], treatments=[1, 0], covariates=[])
        with pytest.raises(InputError, match="non-finite"):
            Dataset(
                outcomes=[1.0, 2.0, 3.0],
                treatments=[1, 0, 1],
                covariates=[[1.0], [math.inf], [1.0]],
            )
        with pytest.raises(InputError, match="must be 0 or 1"):
            Dataset(outcomes=[1.0, 2.0], treatments=[1, 2], covariates=[])
        with pytest.raises(InputError, match="more observations"):
            Dataset(outcomes=[1.0], treatments=[1], covariates=[])

    def test_treatments_and_covariates_of_the_wrong_rank(self):
        with pytest.raises(InputError, match="^treatments must be one-dimensional"):
            Dataset(outcomes=[1.0, 2.0], treatments=[[1], [0]], covariates=[])
        with pytest.raises(InputError, match="^covariates must be two-dimensional"):
            Dataset(outcomes=[1.0, 2.0], treatments=[1, 0], covariates=[1.0, 2.0])


class TestFit:
    def test_balanced_two_group_closed_form(self):
        # two treated, two controls, intercept: tau_hat is the group mean gap
        data = Dataset(
            outcomes=[3.0, 5.0, 1.0, 2.0],
            treatments=[1, 1, 0, 0],
            covariates=np.ones((4, 1)),
        )
        result = fit(data)
        assert abs(result.tau_hat - 2.5) < 1e-12
        assert len(result.beta_hat) == 1
        assert abs(result.beta_hat[0] - 1.5) < 1e-12
        assert abs(result.sigma2_hat - 0.625) < 1e-12
        assert abs(result.se_tau - math.sqrt(0.625)) < 1e-12
        assert abs(result.t_stat - math.sqrt(10.0)) < 1e-12
        assert result.n_obs == 4

    def test_unbiased_divisor(self):
        data = Dataset(
            outcomes=[3.0, 5.0, 1.0, 2.0],
            treatments=[1, 1, 0, 0],
            covariates=np.ones((4, 1)),
        )
        ml = fit(data)
        dof = fit(data, unbiased=True)
        # n = 4, k = 2: the divisor swap is exactly a factor of two
        assert dof.sigma2_hat == 2.0 * ml.sigma2_hat
        assert abs(dof.t_stat - math.sqrt(5.0)) < 1e-12
        assert dof.tau_hat == ml.tau_hat

    def test_one_arm_fractions(self):
        result = fit(one_arm_dataset())
        assert abs(result.tau_hat - 1.0 / 199.0) < 1e-14
        assert result.beta_hat == ()
        assert abs(result.t_stat - ONE_ARM_T) < 1e-13
        assert abs(result.delta_minimax - ONE_ARM_MM) < 1e-12
        assert abs(result.delta_bayes - ONE_ARM_BAYES) < 1e-12
        assert result.tau_star == TAU_STAR

    def test_one_success_swing_flips_the_fraction(self):
        base = fit(one_arm_dataset())
        flipped = fit(one_arm_dataset(flip=True))
        assert abs(flipped.t_stat + base.t_stat) < 1e-15
        assert abs(flipped.delta_minimax - ONE_ARM_SWING) < 1e-12
        assert abs(flipped.delta_minimax - (1.0 - base.delta_minimax)) < 1e-12

    def test_zero_effect_gives_even_fractions(self):
        data = Dataset(
            outcomes=[1.0, -1.0, 1.0, -1.0],
            treatments=[1, 1, 0, 0],
            covariates=[],
        )
        result = fit(data)
        assert abs(result.tau_hat) < 1e-15
        assert abs(result.delta_minimax - 0.5) < 1e-15
        assert abs(result.delta_bayes - 0.5) < 1e-15

    def test_matches_lstsq_on_a_wide_design(self):
        rng = np.random.default_rng(7)
        n = 60
        d = rng.integers(0, 2, n).astype(float)
        x = np.hstack([rng.normal(size=(n, 2)), np.ones((n, 1))])
        y = 0.7 * d + x @ np.array([0.3, -0.8, 1.2]) + rng.normal(size=n)
        data = Dataset(outcomes=y, treatments=d, covariates=x)
        result = fit(data)
        ref, *_ = np.linalg.lstsq(data.design, y, rcond=None)
        assert abs(result.tau_hat - ref[0]) < 1e-10
        assert np.allclose(result.beta_hat, ref[1:], atol=1e-10)

    def test_residuals_orthogonal_to_design(self):
        rng = np.random.default_rng(11)
        n = 80
        d = rng.integers(0, 2, n).astype(float)
        x = np.hstack([rng.normal(size=(n, 3)), np.ones((n, 1))])
        y = 0.4 * d + x @ np.array([1.0, 0.5, -0.2, 2.0]) + rng.normal(size=n)
        data = Dataset(outcomes=y, treatments=d, covariates=x)
        result = fit(data)
        z = data.design
        resid = y - z @ np.array((result.tau_hat,) + result.beta_hat)
        scale = np.linalg.norm(z, axis=0) * np.linalg.norm(y)
        assert np.max(np.abs(z.T @ resid) / scale) < 1e-10

    def test_collinear_design_is_rejected(self):
        # everyone treated plus an intercept column duplicates the design
        data = Dataset(
            outcomes=[1.0, 2.0, 3.0, 4.0],
            treatments=[1, 1, 1, 1],
            covariates=np.ones((4, 1)),
        )
        with pytest.raises(RankError, match="rank deficient"):
            fit(data)

    def test_exact_fit_is_rejected(self):
        # all-zero outcomes are reproduced exactly, leaving no residual noise
        data = Dataset(outcomes=[0.0, 0.0], treatments=[1, 0], covariates=[])
        with pytest.raises(RankError, match="zero standard error"):
            fit(data)

    def test_an_overflowing_fit_is_refused(self):
        # the residual sum of squares passes the float range: a DomainError,
        # where it was a RuntimeWarning and an infinite standard error
        data = Dataset(
            outcomes=np.array([0.0, 1.9e154, 0.0, 5.0]),
            treatments=np.array([0.0, 0.0, 1.0, 1.0]),
            covariates=np.ones((4, 1)),
        )
        with pytest.raises(DomainError, match="the least-squares fit overflows a float"):
            fit(data)

    def test_a_standard_error_past_the_float_range_is_refused(self):
        # the covariate is d plus 1e-6 of noise, so (Z'Z)^-1 has a leading
        # entry near 1e12; times sigma2_hat near 1e300 it overflows after the
        # fit, and the t-statistic is 0
        d = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
        x = d + 1e-6 * np.array([0.3, -1.0, 0.5, 2.0, -0.7, 0.1])
        data = Dataset(
            outcomes=np.array([1.0, -1.0, 1.0, -1.0, 2.0, -3.0]) * 1e150,
            treatments=d,
            covariates=np.column_stack([np.ones(6), x]),
        )
        with pytest.raises(DomainError, match="^the least-squares fit overflows a float: "
                                              "se_tau = inf, t_stat = 0.0$"):
            fit(data)

    def test_rank_is_tested_per_column_against_its_own_length(self):
        # rescaling a covariate leaves the t-statistic as it was, while a
        # collinear pair is refused at every scale
        rng = np.random.default_rng(20)
        n = 20
        d = (rng.random(n) < 0.5).astype(float)
        x = rng.normal(size=n)
        y = 0.5 * d + 0.3 * x + rng.normal(size=n)

        def design(*cols):
            covariates = np.column_stack([np.ones(n), *cols])
            return Dataset(outcomes=y, treatments=d, covariates=covariates)

        t = fit(design(x)).t_stat
        for scale in (1e-15, 1e-10, 1e9, 1e10, 1e100):
            assert abs(fit(design(scale * x)).t_stat - t) <= 8 * math.ulp(t)
        for pair in ((x, 2.0 * x), (1e10 * x, 2e10 * x)):
            with pytest.raises(RankError, match="^design is rank deficient near column 'x2'$"):
                fit(design(*pair))
        with pytest.raises(RankError, match="^design is rank deficient near column 'x1'$"):
            fit(design(0.0 * x))

    def test_bad_tau_star(self):
        for tau_star in (0.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                fit(one_arm_dataset(), tau_star=tau_star)

    def test_result_round_trip(self):
        result = fit(one_arm_dataset())
        assert RegressionResult.from_dict(result.to_dict()) == result

    def test_interval_coverage_smoke(self):
        # 200 seeded draws; the acceptance suite runs the strict version
        hits = 0
        for i in range(200):
            rng = np.random.default_rng(3000 + i)
            d = rng.integers(0, 2, 120).astype(float)
            while d.min() == d.max():
                d = rng.integers(0, 2, 120).astype(float)
            y = 0.2 + 0.4 * d + rng.normal(size=120)
            data = Dataset(outcomes=y, treatments=d, covariates=np.ones((120, 1)))
            result = fit(data, unbiased=True)
            if abs(result.tau_hat - 0.4) <= 1.96 * result.se_tau:
                hits += 1
        assert hits >= 178


class TestFractionFromTstat:
    def test_zero_statistic_is_even(self):
        assert fraction_from_tstat(0.0) == (0.5, 0.5)

    def test_frozen_values_at_the_one_percent_point(self):
        mm, by = fraction_from_tstat(2.3263, TAU_STAR)
        assert abs(mm - 0.9967115469943922) < 1e-12
        assert abs(by - 0.9996698030497814) < 1e-12

    def test_default_tau_star_matches_shipped_constant(self):
        assert fraction_from_tstat(1.7) == fraction_from_tstat(1.7, TAU_STAR)

    @pytest.mark.parametrize("t", [0.3, 1.0, 2.3263, 4.0])
    def test_complement_symmetry(self, t):
        mm_pos, by_pos = fraction_from_tstat(t, TAU_STAR)
        mm_neg, by_neg = fraction_from_tstat(-t, TAU_STAR)
        assert abs(mm_pos + mm_neg - 1.0) < 1e-10
        assert abs(by_pos + by_neg - 1.0) < 1e-10


# cell spellings float() accepts, padded with whitespace str.strip() removes
# (U+001C-U+001F among them, which float() alone does not skip)
_PADS = st.sampled_from(
    ["", " ", "  ", "\t", "\x0b\x0c", "\x1c", "\x1f ", "\xa0", "\u2003", "\u3000", "\x85"]
)
_NUMBERS = st.one_of(
    st.floats(-1e6, 1e6).map(repr),
    st.integers(-99, 99).map(str),
    st.sampled_from(
        ["+.5", "-.25", "1e-3", "2E+2", "1_0", "1_000.5", "-0", "\u0661.\u0665", '"3.25"',
         '" 4 "', '"\n5"']
    ),
)
_TREATMENTS = st.sampled_from(["0", "1", "1.0", "0.0", "-0", "+1", "1e0", "0_0", '"1"'])
# what a plain file holds: no quote, no pad, and numbers from repr over the
# whole float range (subnormals too), 2.2250738585072011e-308 at the subnormal
# edge and digit strings of 20 or more digits, which numpy's C parser reads
_PLAIN_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(10**19, 10**30).map(str),
    st.tuples(st.integers(-10**12, 10**12), st.integers(10**19, 10**24)).map(
        lambda t: f"{t[0]}.{t[1]}"),
    st.sampled_from(["2.2250738585072011e-308", "4.9406564584124654e-324", "-0", "+.5", "1e-3"]),
)
_PLAIN_TREATMENTS = st.sampled_from(["0", "1", "1.0", "0.0", "-0", "+1", "1e0"])
_NOT_NUMBERS = st.sampled_from(
    ["abc", "", "1..2", "_1", "1__0", "0x10", '"1,5"', ' "2"', "nan", "NaN", "-inf",
     "+Infinity", "1e400", '"nan"', "\x00"]
)
_BAD_TREATMENTS = st.sampled_from(["2", "0.5", "-1", "1e-300", "True"])
_BLANK_ROWS = st.sampled_from(["", " ", "\t", ",", " , ", ",,,", "\x1c"])


@st.composite
def _csv_files(draw):
    """CSV text with y, d and up to two covariates; faulty files mix in bad rows.

    A plain file has \\n line ends, empty blank rows and cells without quotes
    or pads, the files load_dataset_csv parses in one np.loadtxt pass.
    """
    header = draw(st.permutations(["y", "d"] + draw(
        st.lists(st.sampled_from(["w", "x1", " z "]), max_size=2)
    )))
    plain = draw(st.booleans())
    kinds = ["row"] * 4 + ["blank"]
    if draw(st.booleans()):
        kinds += ["not-a-number", "bad-treatment", "ragged"]
    eol = "\n" if plain else draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(kinds))
        if kind == "blank":
            lines.append("" if plain else draw(_BLANK_ROWS))
            continue
        if plain:
            cells = [draw(_PLAIN_TREATMENTS if name == "d" else _PLAIN_NUMBERS) for name in header]
        else:
            cells = [draw(_TREATMENTS if name == "d" else _NUMBERS) for name in header]
        if kind == "not-a-number":
            cells[draw(st.integers(0, len(cells) - 1))] = draw(_NOT_NUMBERS)
        elif kind == "bad-treatment":
            cells[header.index("d")] = draw(_BAD_TREATMENTS)
        elif kind == "ragged":
            cells = cells[:-1] if draw(st.booleans()) else cells + ["1"]
        lines.append(",".join(
            cell if plain or cell.startswith('"') else draw(_PADS) + cell + draw(_PADS)
            for cell in cells
        ))
    return eol.join(lines) + draw(st.sampled_from(["", eol]))


class TestLoadDatasetCsv:
    def _write(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_loads_covariates_in_file_order(self, tmp_path):
        path = self._write(
            tmp_path,
            "z, y, d, w\n"
            "0.5, 1.2, 1, 3.0\n"
            "\n"
            "-0.5, 0.7, 0, 1.0\n"
            "1.5, 2.2, 1, 2.0\n"
            "2.5, 0.1, 0, 4.0\n"
            "0.0, 1.9, 1, 5.0\n",
        )
        data = load_dataset_csv(path)
        assert data.n_obs == 5
        assert data.covariate_names == ("z", "w", "intercept")
        assert np.array_equal(data.outcomes, [1.2, 0.7, 2.2, 0.1, 1.9])
        assert np.array_equal(data.treatments, [1.0, 0.0, 1.0, 0.0, 1.0])
        assert np.array_equal(data.covariates[:, 0], [0.5, -0.5, 1.5, 2.5, 0.0])
        assert np.array_equal(data.covariates[:, 1], [3.0, 1.0, 2.0, 4.0, 5.0])
        assert np.array_equal(data.covariates[:, 2], np.ones(5))

    def test_no_intercept(self, tmp_path):
        path = self._write(tmp_path, "y,d,w\n1,0,2\n2,1,3\n3,0,4\n")
        data = load_dataset_csv(path, intercept=False)
        assert data.covariate_names == ("w",)
        assert data.covariates.shape == (3, 1)

    def test_treatment_accepts_float_spellings(self, tmp_path):
        path = self._write(tmp_path, "y,d\n1,1.0\n2,0.0\n3,1\n")
        data = load_dataset_csv(path, intercept=False)
        assert np.array_equal(data.treatments, [1.0, 0.0, 1.0])

    def test_load_then_fit_one_arm(self, tmp_path):
        lines = ["y,d"] + ["1,1"] * 100 + ["-1,1"] * 99
        path = self._write(tmp_path, "\n".join(lines) + "\n")
        result = fit(load_dataset_csv(path, intercept=False))
        assert abs(result.t_stat - ONE_ARM_T) < 1e-13
        assert abs(result.delta_minimax - ONE_ARM_MM) < 1e-12

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("", "empty file"),
            ("y,x\n1,2\n", "exactly one column 'd'"),
            ("d,x\n1,2\n", "exactly one column 'y'"),
            ("y,d,y\n1,0,2\n", "exactly one column 'y'"),
            ("y,d,w\n1,0,2\n1,1\n", "line 3 has 2 cells, expected 3"),
            ("y,d,w\n1,0,abc\n", "line 2, column 'w': not a number: 'abc'"),
            ("y,d,w\n1,0,inf\n", "line 2, column 'w': non-finite value 'inf'"),
            ("y,d\nnan,0\n", "column 'y': non-finite value 'nan'"),
            ("y,d\n1,2\n", "line 2, column 'd': must be 0 or 1, got '2'"),
            ("y,d\n1,0.5\n", "must be 0 or 1"),
            ("y,d\n", "no data rows"),
            ("y,d,w\n1,0,2\n1,2,3\n4,1,5\n1,0,abc\n", "line 3, column 'd': must be 0 or 1"),
            ("w,y,d\nabc,xyz,1\n", "line 2, column 'y': not a number: 'xyz'"),
            ("y,d\n" + "1" * 200_000 + ",0\n", "field larger than field limit"),
            # a quoted comma in the header is part of one name
            ('y,d,"a,b"\n1,0,2,3\n2,1,3,4\n3,0,4,6\n', "line 2 has 4 cells, expected 3"),
            # a finite cell too long for csv.reader, in a file without quotes
            ("y,d\n0." + "0" * 200_000 + "1,0\n1,1\n2,0\n", "field larger than field limit"),
        ],
        ids=[
            "empty",
            "missing-d",
            "missing-y",
            "duplicate-y",
            "ragged",
            "non-numeric",
            "infinite",
            "nan-outcome",
            "bad-treatment",
            "fractional-treatment",
            "header-only",
            "first-bad-line-named",
            "y-named-before-covariate",
            "oversized-field",
            "quoted-comma-in-header",
            "oversized-finite-field",
        ],
    )
    def test_diagnostics_name_line_and_column(self, tmp_path, text, fragment):
        path = self._write(tmp_path, text)
        with pytest.raises(InputError) as excinfo:
            load_dataset_csv(path)
        assert fragment in str(excinfo.value)
        assert path in str(excinfo.value)

    def test_blank_lines_after_the_header_raise_without_a_warning(self, tmp_path):
        # given no data line, np.loadtxt would warn "input contained no data"
        path = self._write(tmp_path, "y,d\n\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="no data rows"):
                load_dataset_csv(path)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = self._write(tmp_path, "\ufeffy,d,w\n1,0,2\n2,1,3\n3,0,5\n4,1,4\n")
        data = load_dataset_csv(path)
        assert data.covariate_names == ("w", "intercept")
        assert np.array_equal(data.outcomes, [1.0, 2.0, 3.0, 4.0])

    def test_non_utf8_bytes_name_the_offset(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"y,d\n1,0\n\xe9,1\n")
        with pytest.raises(InputError) as excinfo:
            load_dataset_csv(str(path))
        assert str(excinfo.value) == f"{path}: not UTF-8 text: byte 0xe9 at offset 8"

    def test_offset_counts_the_byte_order_mark(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"\xef\xbb\xbfy,d\n\xff")
        with pytest.raises(InputError, match="byte 0xff at offset 7$"):
            load_dataset_csv(str(path))

    def test_bulk_parse_matches_the_per_cell_loader(self, tmp_path_factory, monkeypatch):
        # the spy counts the files np.loadtxt took and those read cell by cell
        paths = {"loadtxt": 0, "per-cell": 0}
        plain_table = regression._plain_table

        def spy(text):
            table = plain_table(text)
            paths["per-cell" if table is None else "loadtxt"] += 1
            return table

        monkeypatch.setattr(regression, "_plain_table", spy)

        @seed(20261018)
        @settings(max_examples=300, deadline=None)
        @given(text=_csv_files())
        def check(text):
            path = tmp_path_factory.mktemp("csv") / "data.csv"
            path.write_bytes(text.encode("utf-8"))
            try:
                expected = Dataset(*oracles.load_csv_per_cell(str(path)))
            except ValueError as exc:
                with pytest.raises(InputError) as excinfo:
                    load_dataset_csv(str(path))
                assert str(excinfo.value) == str(exc)
                return
            data = load_dataset_csv(str(path))
            for got, want in zip(
                (data.outcomes, data.treatments, data.covariates),
                (expected.outcomes, expected.treatments, expected.covariates),
            ):
                # bytes, not values: -0.0 == 0.0
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
                assert got.flags.c_contiguous
            assert data.covariate_names == expected.covariate_names
            assert _fit_or_error(data) == _fit_or_error(expected)

        check()
        assert min(paths.values()) >= 50, paths


def _fit_or_error(data: Dataset):
    try:
        return fit(data).to_dict()
    except (RankError, DomainError) as exc:
        return f"{type(exc).__name__}: {exc}"
