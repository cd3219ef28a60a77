"""Least-squares effect estimation feeding the fractional rules.

The model is Y = tau * D + beta' X + e with e ~ N(0, sigma^2), binary
treatment D, and homogeneous effect tau.  The fit reports the treatment
coefficient with its classical standard error and maps the resulting
t-statistic through the minimax and flat-prior fractional rules.  The
t-statistic plays the role of the standardized statistic: it is centered at
the standardized effect with unit noise, so the unit-problem rules apply to
it directly.

The error variance uses the maximum-likelihood divisor n by default; pass
unbiased=True for the degrees-of-freedom correction.  The fit runs through a
QR factorization of the design [D | X], never forming the normal equations.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ._codec import record
from .lfp import default_tau_star
from .numerics import DomainError
from .rules import BayesFlatMSR, MinimaxMSR

__all__ = [
    "InputError",
    "RankError",
    "Dataset",
    "RegressionResult",
    "fit",
    "fraction_from_tstat",
    "load_dataset_csv",
]


class InputError(ValueError):
    """Malformed data: shape mismatch, non-numeric cell, or missing column."""


class RankError(RuntimeError):
    """Design matrix is numerically rank deficient."""


@dataclass(frozen=True)
class Dataset:
    """Outcomes, binary treatment indicators, and covariate columns.

    covariates may have zero columns (known-control designs regress on the
    treatment indicator alone); when covariates are used, the intercept is
    one of their columns.  covariate_names label the columns for diagnostics.
    """

    outcomes: np.ndarray
    treatments: np.ndarray
    covariates: np.ndarray
    covariate_names: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        y = np.asarray(self.outcomes, dtype=float)
        d = np.asarray(self.treatments, dtype=float)
        x = np.asarray(self.covariates, dtype=float)
        if x.size == 0:
            x = x.reshape(y.shape[0] if y.ndim == 1 else 0, 0)
        object.__setattr__(self, "outcomes", y)
        object.__setattr__(self, "treatments", d)
        object.__setattr__(self, "covariates", x)
        if y.ndim != 1:
            raise InputError(f"outcomes must be one-dimensional, got shape {y.shape}")
        if d.ndim != 1:
            raise InputError(f"treatments must be one-dimensional, got shape {d.shape}")
        if x.ndim != 2:
            raise InputError(f"covariates must be two-dimensional, got shape {x.shape}")
        n = y.shape[0]
        if d.shape[0] != n or x.shape[0] != n:
            raise InputError(
                f"length mismatch: {n} outcomes, {d.shape[0]} treatments, "
                f"{x.shape[0]} covariate rows"
            )
        names = self.covariate_names
        if names and len(names) != x.shape[1]:
            raise InputError(
                f"{x.shape[1]} covariate columns but {len(names)} names"
            )
        if not np.all(np.isfinite(y)):
            raise InputError("outcomes contain non-finite values")
        if not np.all(np.isfinite(x)):
            raise InputError("covariates contain non-finite values")
        if not np.all((d == 0.0) | (d == 1.0)):
            bad = d[~((d == 0.0) | (d == 1.0))][0]
            raise InputError(f"treatments must be 0 or 1, got {bad}")
        if n <= 1 + x.shape[1]:
            raise InputError(
                f"need more observations ({n}) than regressors ({1 + x.shape[1]})"
            )

    @property
    def n_obs(self) -> int:
        return int(self.outcomes.shape[0])

    @property
    def design(self) -> np.ndarray:
        """Design matrix [D | X] with the treatment column first."""
        return np.hstack([self.treatments[:, None], self.covariates])

    @property
    def column_names(self) -> Tuple[str, ...]:
        names = self.covariate_names or tuple(
            f"x{j}" for j in range(self.covariates.shape[1])
        )
        return ("d",) + tuple(names)


@record
@dataclass(frozen=True)
class RegressionResult:
    """Treatment fit plus the implied treatment fractions.

    beta_hat holds the covariate coefficients in design order; the fractions
    evaluate the minimax and flat-prior Bayes rules at the t-statistic.
    """

    tau_hat: float
    beta_hat: Tuple[float, ...]
    sigma2_hat: float
    se_tau: float
    t_stat: float
    delta_minimax: float
    delta_bayes: float
    n_obs: int
    tau_star: float


def fraction_from_tstat(
    t_stat: float, tau_star: Optional[float] = None
) -> Tuple[float, float]:
    """(minimax fraction, flat-prior Bayes fraction) at a t-statistic."""
    if tau_star is None:
        tau_star = default_tau_star()
    mm = float(MinimaxMSR(tau_star=tau_star).evaluate(t_stat))
    by = float(BayesFlatMSR().evaluate(t_stat))
    return mm, by


def _solve_upper(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    # back substitution for R x = b, R upper triangular
    x = np.empty_like(b)
    for i in range(len(b) - 1, -1, -1):
        x[i] = (b[i] - r[i, i + 1:] @ x[i + 1:]) / r[i, i]
    return x


def _solve_lower(l: np.ndarray, b: np.ndarray) -> np.ndarray:
    # forward substitution for L x = b, L lower triangular
    x = np.empty_like(b)
    for i in range(len(b)):
        x[i] = (b[i] - l[i, :i] @ x[:i]) / l[i, i]
    return x


def fit(
    data: Dataset,
    tau_star: Optional[float] = None,
    unbiased: bool = False,
) -> RegressionResult:
    """Least squares of outcomes on [D | X], fractions from the t-statistic.

    The variance of the treatment coefficient is sigma2_hat times the leading
    diagonal entry of (Z'Z)^-1, extracted from the R factor without forming
    the inverse.
    """
    if tau_star is None:
        tau_star = default_tau_star()
    if not 0.0 < tau_star < math.inf:
        raise DomainError(f"tau_star must be positive and finite, got {tau_star}")
    z = data.design
    y = data.outcomes
    n, k = z.shape

    # an overflow raises, so data too large for a float end in DomainError,
    # not in a RuntimeWarning and an infinite standard error
    with np.errstate(over="raise"):
        try:
            q, r = np.linalg.qr(z, mode="reduced")
            # each column against its own length, so rescaling a column moves
            # neither side; z_j = q r_j gives |z_j| = |r_j|, and hypot does
            # not overflow where the squares would
            short = np.abs(np.diag(r)) <= 1e-10 * np.hypot.reduce(r, axis=0)
            if short.any():
                j = int(np.argmax(short))
                raise RankError(
                    f"design is rank deficient near column {data.column_names[j]!r}"
                )
            coef = _solve_upper(r, q.T @ y)
            resid = y - z @ coef
            rss = float(resid @ resid)

            e0 = np.zeros(k)
            e0[0] = 1.0
            # a contiguous copy gives the row dot products unit stride
            row = _solve_lower(np.ascontiguousarray(r.T), e0)
            inv00 = float(row @ row)
        except FloatingPointError as exc:
            raise DomainError(f"the least-squares fit overflows a float: {exc}") from None
    dof = n - k if unbiased else n
    sigma2 = rss / dof
    se = math.sqrt(sigma2 * inv00)
    if se == 0.0:
        raise RankError("zero standard error; outcomes fit exactly")
    t_stat = float(coef[0]) / se
    if not (math.isfinite(se) and math.isfinite(t_stat)):
        raise DomainError(
            f"the least-squares fit overflows a float: se_tau = {se!r}, t_stat = {t_stat!r}"
        )
    mm, by = fraction_from_tstat(t_stat, tau_star)
    return RegressionResult(
        tau_hat=float(coef[0]),
        beta_hat=tuple(float(c) for c in coef[1:]),
        sigma2_hat=sigma2,
        se_tau=se,
        t_stat=t_stat,
        delta_minimax=mm,
        delta_bayes=by,
        n_obs=n,
        tau_star=tau_star,
    )


def load_dataset_csv(path: str, intercept: bool = True) -> Dataset:
    """Read a dataset from CSV with required columns y and d.

    The header must contain exactly one column named y (outcome) and one
    named d (treatment); every other column is a numeric covariate, kept in
    file order.  An intercept column of ones is appended last unless
    intercept=False.  The file is UTF-8, with or without a leading
    byte-order mark; rows whose cells are all blank are skipped.  Malformed
    cells raise InputError naming the file line and column of the first one
    in file order, and each row is checked y first, then d, then the
    covariates.

    A plain file (no double quote, no carriage return) whose every cell
    numpy's C parser reads, finite and with each d 0 or 1, is parsed in one
    np.loadtxt pass; every other file is read by csv.reader and converted
    cell by cell.  Both give float(cell.strip()) for every cell, so the same
    bits, and a file either refuses gets the per-cell pass's error.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise InputError(
            f"{path}: not UTF-8 text: byte {raw[exc.start]:#04x} at offset {exc.start}"
        ) from None
    names, table = _plain_table(text) or _per_cell_table(path, text)
    y_pos = names.index("y")
    d_pos = names.index("d")
    cov_pos = [i for i in range(len(names)) if i not in (y_pos, d_pos)]

    # C-ordered copies: a strided outcome vector or an F-ordered covariate
    # block changes the BLAS summation order in fit, and with it the last bits
    n, k = len(table), len(cov_pos)
    covs = np.ones((n, k + 1 if intercept else k))
    covs[:, :k] = table[:, cov_pos]
    cov_names = [names[i] for i in cov_pos]
    if intercept:
        cov_names.append("intercept")
    return Dataset(
        outcomes=table[:, y_pos].copy(),
        treatments=table[:, d_pos].copy(),
        covariates=covs,
        covariate_names=tuple(cov_names),
    )


def _plain_table(text: str) -> Optional[Tuple[list, np.ndarray]]:
    """(header names, C-ordered (rows, width) table) of a plain file, or None.

    A file without a double quote or a carriage return, and without a line
    past csv's field size limit, has csv.reader's records as its lines split
    on commas.  np.loadtxt skips the empty lines, as the blank-row rule does,
    strips the whitespace str.strip() strips, and converts with Python's own
    float parsing; it refuses every cell float(cell.strip()) refuses and a
    few it accepts (1_0, non-ASCII digits), and whitespace-only rows.  None
    for a file it refuses, a header without exactly one y and one d, no data
    line, a ragged table, a non-finite cell or a d other than 0 or 1, all of
    which the per-cell pass reads or names.
    """
    if '"' in text or "\r" in text:
        return None
    limit = csv.field_size_limit()
    if len(text) > limit and max(map(len, text.split("\n"))) > limit:
        return None
    header, _, body = text.partition("\n")
    names = [cell.strip() for cell in header.split(",")]
    if names.count("y") != 1 or names.count("d") != 1 or not body.strip("\n"):
        return None
    try:
        table = np.loadtxt(io.StringIO(body), delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if table.shape[1] != len(names) or not np.isfinite(table).all():
        return None
    d = table[:, names.index("d")]
    if not ((d == 0.0) | (d == 1.0)).all():
        return None
    return names, table


def _per_cell_table(path: str, text: str) -> Tuple[list, np.ndarray]:
    """(header names, C-ordered (rows, width) table) of any file, cell by cell.

    Records come from csv.reader; rows are read in file order, and within a
    row the width, then y, d and the covariates are checked as
    float(cell.strip()) and finite, then whether d is 0 or 1.  The first
    fault raises InputError naming its line and column.
    """
    try:
        records = list(csv.reader(io.StringIO(text, newline="")))
    except csv.Error as exc:
        raise InputError(f"{path}: {exc}") from None
    if not records:
        raise InputError(f"{path}: empty file, expected a header row")
    names = [cell.strip() for cell in records[0]]
    if names.count("y") != 1:
        raise InputError(
            f"{path}: header must contain exactly one column 'y', got {names!r}"
        )
    if names.count("d") != 1:
        raise InputError(
            f"{path}: header must contain exactly one column 'd', got {names!r}"
        )
    rows = [
        (line_no, cells)
        for line_no, cells in enumerate(records[1:], start=2)
        if "".join(cells).strip()
    ]
    if not rows:
        raise InputError(f"{path}: no data rows")
    y_pos = names.index("y")
    d_pos = names.index("d")
    order = [y_pos, d_pos] + [i for i in range(len(names)) if i not in (y_pos, d_pos)]
    table = np.empty((len(rows), len(names)))
    for row, (line_no, cells) in zip(table, rows):
        if len(cells) != len(names):
            raise InputError(
                f"{path}: line {line_no} has {len(cells)} cells, expected {len(names)}"
            )
        for pos in order:
            cell = cells[pos].strip()
            try:
                value = float(cell)
            except ValueError:
                raise InputError(
                    f"{path}: line {line_no}, column {names[pos]!r}: "
                    f"not a number: {cell!r}"
                ) from None
            if not math.isfinite(value):
                raise InputError(
                    f"{path}: line {line_no}, column {names[pos]!r}: "
                    f"non-finite value {cell!r}"
                )
            row[pos] = value
        if row[d_pos] not in (0.0, 1.0):
            raise InputError(
                f"{path}: line {line_no}, column 'd': must be 0 or 1, "
                f"got {cells[d_pos].strip()!r}"
            )
    return names, table
