"""Independent oracle computations used to freeze expected values in the test suite.

Everything here is deliberately written against scipy, mpmath and the
stdlib only, with no imports from the package under test, so the numbers
below constitute an independent route to the same quantities.  The *_mp
functions work at 30 or 40 digits by default and share no special function
with the package.  Run as a script to print the frozen table:

    python tests/oracles.py

Values frozen into the tests were produced by this file; tests that need an
oracle at runtime import the functions directly.
"""
from __future__ import annotations

import csv
import math

import mpmath
import numpy as np
from scipy import integrate, optimize, special


def phi(x):
    """Standard normal density."""
    return np.exp(-0.5 * np.asarray(x) ** 2) / math.sqrt(2.0 * math.pi)


def cdf(x):
    """Standard normal CDF via erfc, accurate to ~1e-16 relative."""
    return 0.5 * special.erfc(-np.asarray(x) / math.sqrt(2.0))


def psi(x):
    """psi(x) = pdf(x) / (cdf(x) * (1 + x^2)), positive for all finite x: the
    Mills-ratio term of the published flat-prior Bayes fraction
    cdf(u) * (1 + u * psi(u)).

    Evaluated through log-space so the cdf underflow for very negative x
    cancels against the pdf underflow.
    """
    x = np.asarray(x, dtype=float)
    log_pdf = -0.5 * x * x - 0.5 * math.log(2.0 * math.pi)
    out = np.exp(log_pdf - special.log_ndtr(x)) / (1.0 + x * x)
    return float(out) if out.ndim == 0 else out


def normal_expectation(f, mean, sd):
    """Adaptive Gauss-Kronrod expectation of f under N(mean, sd^2)."""
    val, err = integrate.quad(
        lambda x: f(x) * math.exp(-0.5 * ((x - mean) / sd) ** 2)
        / (sd * math.sqrt(2.0 * math.pi)),
        mean - 12.0 * sd,
        mean + 12.0 * sd,
        limit=400,
        epsabs=1e-14,
        epsrel=1e-13,
    )
    return val


def logistic(x):
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    enx = np.exp(x[~pos])
    out[~pos] = enx / (1.0 + enx)
    return out if out.ndim else float(out)


def minimax_msr_at(tau, tau_star):
    """tau^2 E[(1{tau >= 0} - logistic(2 tau* Y))^2], Y ~ N(tau, 1)."""
    sign = -1.0 if tau >= 0 else 1.0
    return tau ** 2 * normal_expectation(
        lambda y: float(logistic(sign * 2.0 * tau_star * np.asarray([y]))[0]) ** 2, tau, 1.0
    )


def frequentist_objective(tau):
    return minimax_msr_at(tau, tau)


def bayes_objective(tau):
    return 0.5 * tau ** 2 * normal_expectation(
        lambda y: float(logistic(-2.0 * tau * np.asarray([y]))[0]), tau, 1.0
    )


def bayes_foc_root(pairs, alpha_g, sd, stat):
    """Bayes fraction of a discrete prior under regret power alpha_g: the brentq
    root in delta of the unseparated posterior first-order condition

        sum_i w_i(stat) tau_i g'(tau_i (1{tau_i >= 0} - delta)) = 0,

    g(r) = r^alpha_g, which is positive at delta = 0 and negative at 1."""
    taus = np.array([t for t, _ in pairs], dtype=float)
    logw = np.log([w for _, w in pairs]) - 0.5 * ((stat - taus) / sd) ** 2
    post = np.exp(logw - logw.max())
    ind = (taus >= 0).astype(float)

    def foc(delta):
        r = taus * (ind - delta)
        return float(np.sum(post * taus * alpha_g * r ** (alpha_g - 1.0)))

    return optimize.brentq(foc, 0.0, 1.0, xtol=1e-15, maxiter=200)


def prior_bayes_msr(pairs, alpha_g, sd, tau, stat_sd=None):
    """tau^2 E[(1{tau >= 0} - delta(Y))^2], Y ~ N(tau, stat_sd^2), with delta
    the bayes_foc_root fraction at noise sd; stat_sd defaults to sd."""
    ind = 1.0 if tau >= 0 else 0.0
    return normal_expectation(
        lambda y: (tau * (ind - bayes_foc_root(pairs, alpha_g, sd, y))) ** 2,
        tau,
        sd if stat_sd is None else stat_sd,
    )


def prior_bayes_tail(pairs, alpha_g, sd, tau, threshold, stat_sd=None):
    """P(Reg > threshold), Y ~ N(tau, stat_sd^2) with stat_sd defaulting to
    sd.  The fraction rises in the statistic, so for tau > 0 the event is Y
    below the point where it reaches 1 - threshold/tau, and for tau < 0 it
    is Y above the point where it reaches threshold/|tau|; the search for
    that point starts 20 sd either side of tau, or of 0 when stat_sd is given,
    and widens as prior_bayes_cut describes."""
    q = 1.0 - threshold / tau if tau > 0 else threshold / -tau
    if not 0.0 < q < 1.0:
        return 0.0 if (q <= 0.0) == (tau > 0) else 1.0
    cut = prior_bayes_cut(pairs, alpha_g, sd, q, tau if stat_sd is None else 0.0)
    z = (cut - tau) / (sd if stat_sd is None else stat_sd)
    return float(cdf(z if tau > 0 else -z))


def prior_bayes_cut(pairs, alpha_g, sd, q, mid=0.0):
    """Statistic where the bayes_foc_root fraction equals q in (0, 1), by
    brentq on mid +- 20 sd, the half-width doubled until the fraction minus q
    changes sign across it.  The fraction can approach 0 or 1 slowly, as the
    (alpha_g - 1)-th root of the posterior odds, so a crossing can lie well
    beyond 20 sd."""
    gap = lambda y: bayes_foc_root(pairs, alpha_g, sd, y) - q
    half = 20.0 * sd
    for _ in range(8):
        if gap(mid - half) * gap(mid + half) <= 0.0:
            break
        half *= 2.0
    return optimize.brentq(gap, mid - half, mid + half, xtol=1e-14)


def bayes_flat_cut(q):
    """Standardized statistic u where the flat-prior Bayes fraction
    cdf(u) + u phi(u) / (1 + u^2) equals q in (0, 1), by brentq."""
    return optimize.brentq(
        lambda u: float(cdf(u)) + u * float(phi(u)) / (1.0 + u * u) - q,
        -60.0, 60.0, xtol=1e-15,
    )


def bayes_flat_cut_mp(q, dps=40):
    """bayes_flat_cut at dps digits, an mpmath number: Anderson's bracketed
    solve, with |fraction - q| <= 10^-dps at the root, between 0 and the
    normal quantile of q, which bracket the crossing because the fraction
    minus cdf(u) has the sign of u.  q is an mpmath number or a float."""
    with mpmath.workdps(dps + 10):
        q = mpmath.mpf(q)
        z = mpmath.sqrt(2) * mpmath.erfinv(2 * q - 1)
        return mpmath.findroot(
            lambda u: mpmath.ncdf(u) + u * mpmath.npdf(u) / (1 + u * u) - q,
            (mpmath.mpf(0), z) if q > 0.5 else (z, mpmath.mpf(0)),
            solver="anderson", tol=mpmath.mpf(10) ** (-2 * dps),
        )


def lfp_objective_mp(a, power, dps=30):
    """The lfp objective at calibration a > 0, an mpmath number at dps digits:
    a^2 / 2 E[q] for power 1 (Bayes), a^2 E[q^2] for power 2 (frequentist),
    with q = expit(-2 a s), s = a + z, z ~ N(0, 1).  The quadrature breaks at
    z = -a, where q = 1/2, and at the density's peak z = 0."""
    with mpmath.workdps(dps + 10):
        a = mpmath.mpf(a)
        val = mpmath.quad(
            lambda z: mpmath.npdf(z) / (1 + mpmath.exp(2 * a * (a + z))) ** power,
            [-mpmath.inf, -a, 0, mpmath.inf],
        )
        return a * a * val / (2 if power == 1 else 1)


def bayes_flat_tail_mp(scale, tau, sd, threshold, dps=40):
    """P(Reg > threshold) for the flat-prior Bayes rule cdf(u) + u phi(u) /
    (1 + u^2), u = y / scale, with Y ~ N(tau, sd^2), at dps digits: regret
    exceeds the threshold below the crossing of q = 1 - threshold/tau for
    tau > 0 and above that of q = threshold/|tau| for tau < 0, with q
    formed exactly from the float inputs."""
    with mpmath.workdps(dps + 10):
        tau = mpmath.mpf(tau)
        q = 1 - threshold / tau if tau > 0 else threshold / -tau
        if not 0 < q < 1:
            return mpmath.mpf(0 if (q <= 0) == (tau > 0) else 1)
        z = (scale * bayes_flat_cut_mp(q, dps) - tau) / sd
        return mpmath.ncdf(z if tau > 0 else -z)


def prior_bayes_cut_mp(pairs, alpha_g, sd, q, dps=30):
    """Statistic where the Bayes fraction of a discrete prior under regret
    power alpha_g equals q in (0, 1), an mpmath number at dps digits: the
    root of log A - log B = (alpha_g - 1) logit(q), where A(y) sums
    w_i tau_i^alpha_g exp(tau_i (y - tau_i / 2) / sd^2) over tau_i > 0 and B
    the same over tau_i < 0 with |tau_i|; the left side rises in y.  The
    bracket starts at +-20 sd and doubles until it holds a sign change, and
    Anderson's bracketed solve closes it to |residual| <= 10^-dps."""
    with mpmath.workdps(dps + 10):
        q, sd2, a = mpmath.mpf(q), mpmath.mpf(sd) ** 2, mpmath.mpf(alpha_g)
        terms = [(mpmath.mpf(t), mpmath.log(w) + a * mpmath.log(abs(mpmath.mpf(t))))
                 for t, w in pairs if t != 0]
        goal = (a - 1) * mpmath.log(q / (1 - q))

        def gap(y):
            side = lambda pos: [lt + t * (y - t / 2) / sd2 for t, lt in terms if (t > 0) == pos]
            return mpmath.log(mpmath.fsum(mpmath.exp(z) for z in side(True))) \
                - mpmath.log(mpmath.fsum(mpmath.exp(z) for z in side(False))) - goal

        half = 20 * mpmath.mpf(sd)
        while gap(-half) > 0 or gap(half) < 0:
            half *= 2
        return mpmath.findroot(gap, (-half, half), solver="anderson",
                               tol=mpmath.mpf(10) ** (-2 * dps))


def prior_bayes_fraction_mp(pairs, alpha_g, sd, y, dps=30):
    """Bayes fraction of a discrete prior under regret power alpha_g at the
    statistic y, an mpmath number at dps digits: expit((log A - log B) / e)
    with e = alpha_g - 1, A(y) the sum of w_i tau_i^alpha_g exp(tau_i (y -
    tau_i / 2) / sd^2) over tau_i > 0 and B the same over tau_i < 0 with
    |tau_i|, every input taken exactly from its float."""
    with mpmath.workdps(dps + 10):
        y, sd2, a = mpmath.mpf(y), mpmath.mpf(sd) ** 2, mpmath.mpf(alpha_g)
        side = lambda pos: mpmath.fsum(
            mpmath.exp(mpmath.log(w) + a * mpmath.log(abs(mpmath.mpf(t)))
                       + mpmath.mpf(t) * (y - mpmath.mpf(t) / 2) / sd2)
            for t, w in pairs if t != 0 and (t > 0) == pos)
        return 1 / (1 + mpmath.exp(-(mpmath.log(side(True)) - mpmath.log(side(False))) / (a - 1)))


def prior_bayes_tail_mp(pairs, alpha_g, sd, tau, threshold, stat_sd=None, dps=30):
    """prior_bayes_tail at dps digits, an mpmath number, with q formed exactly
    from the float inputs.  The fraction takes every value in (0, 1), so a q
    at or below 0 is reached everywhere and one at or above 1 nowhere."""
    with mpmath.workdps(dps + 10):
        tau = mpmath.mpf(tau)
        q = 1 - threshold / tau if tau > 0 else threshold / -tau
        if q <= 0:
            cut = -mpmath.inf
        elif q >= 1:
            cut = mpmath.inf
        else:
            cut = prior_bayes_cut_mp(pairs, alpha_g, sd, q, dps)
        z = (cut - tau) / (sd if stat_sd is None else stat_sd)
        return mpmath.ncdf(z if tau > 0 else -z)


def step_tail_mp(cut, lo, hi, tau, sd, threshold, dps=40):
    """P(Reg > threshold) at dps digits for the step rule that takes lo below
    cut and hi at or above it, with Y ~ N(tau, sd^2) and every input taken
    exactly from its float: an outcome adds its normal tail, ncdf((cut - tau)
    / sd) below and ncdf((tau - cut) / sd) above, when its regret
    tau * (1{tau >= 0} - value) exceeds the threshold."""
    with mpmath.workdps(dps):
        tau, z = mpmath.mpf(tau), (mpmath.mpf(cut) - tau) / mpmath.mpf(sd)
        ind = 1 if tau >= 0 else 0
        total = mpmath.mpf(0)
        for value, p in ((lo, mpmath.ncdf(z)), (hi, mpmath.ncdf(-z))):
            if tau * (ind - mpmath.mpf(value)) > threshold:
                total += p
        return total


def normal_upper_quantile_mp(alpha, dps=30):
    """The z with P(Z >= z) = alpha for Z ~ N(0, 1), alpha in (0, 0.5) taken
    exactly from its float, an mpmath number at dps digits: the root in
    (0, 40) of log ncdf(-z) = log alpha, which stays well scaled down to the
    smallest normal alpha (ncdf(-40) is about 4e-350)."""
    with mpmath.workdps(dps + 10):
        goal = mpmath.log(mpmath.mpf(alpha))
        return mpmath.findroot(lambda z: mpmath.log(mpmath.ncdf(-z)) - goal,
                               (mpmath.mpf(0), mpmath.mpf(40)), solver="anderson",
                               tol=mpmath.mpf(10) ** (-2 * dps))


def crossing_tail(cut, rising, tau, sd):
    """P(Reg > c), Y ~ N(tau, sd^2), for a rule monotone in the statistic
    (rising or falling) that crosses q, the fraction where regret is c, at
    the statistic cut (+-inf when it never does).  Regret exceeds c where the
    fraction is below q for tau > 0 and above q for tau < 0."""
    z = (cut - tau) / sd
    return float(cdf(z if (tau > 0) == rising else -z))


def block_summary(fracs, tau, tails=()):
    """The Monte Carlo summary of a rule's fractions, given in blocks, by the
    three-pass block algorithm: block sums of regret, squared regret and
    welfare give the means; block sums of squared deviations from them give
    the variances; a third pass gives the spread of the squared regret
    deviations.  Each pass rebuilds regret from the fractions and adds the
    block sums in block order, starting from the first block's values.
    Returns the summary fields after replications and seed, tail rows
    included, as keyword arguments of the summary."""
    reps = sum(f.size for f in fracs)
    ind = 1.0 if tau >= 0 else 0.0

    def regret(f):
        out = ind - f
        out *= tau
        return out

    def spread(block, mean):
        block -= mean
        block *= block
        return block

    def totals(rows):
        out = list(rows[0])
        for row in rows[1:]:
            out = [t + x for t, x in zip(out, row)]
        return out

    counts = [0] * len(tails)
    sums = []
    for f in fracs:
        reg = regret(f)
        counts = [n + int(np.count_nonzero(reg > c)) for n, c in zip(counts, tails)]
        sums.append((reg.sum(), (reg * reg).sum(), (tau * f).sum()))
    mean_reg, msr, w_mean = (float(s / reps) for s in totals(sums))
    sums = []
    for f in fracs:
        reg = regret(f)
        reg2 = spread(reg * reg, msr)
        sums.append((spread(reg, mean_reg).sum(), reg2.sum(), spread(tau * f, w_mean).sum()))
    m2_reg, m2_reg2, m2_w = totals(sums)
    mean_c2 = m2_reg / reps
    (m2_c2,) = totals([(spread(spread(regret(f), mean_reg), mean_c2).sum(),) for f in fracs])

    r = float(reps)
    var_reg = float(m2_reg / (reps - 1))
    sd_reg = math.sqrt(var_reg)
    se_mean = sd_reg / math.sqrt(r)
    se_var = math.sqrt(float(m2_c2 / (reps - 1))) / math.sqrt(r)
    se_sd = se_var / (2.0 * sd_reg) if sd_reg > 0 else 0.0
    return {
        "mean_regret": mean_reg,
        "regret_variance": var_reg,
        "mean_square_regret": msr,
        "welfare_mean": w_mean,
        "welfare_sd": math.sqrt(float(m2_w / (reps - 1))),
        "se_mean_regret": se_mean,
        "se_mean_square_regret": math.sqrt(float(m2_reg2 / (reps - 1))) / math.sqrt(r),
        "se_regret_sd": se_sd,
        "se_welfare_mean": se_mean,
        "se_welfare_sd": se_sd,
        "tail": tuple((float(c), n / r, math.sqrt((n / r) * (1.0 - n / r) / r))
                      for c, n in zip(tails, counts)),
    }


def grid_argmax(f, lo, hi, step):
    xs = np.arange(lo, hi + step / 2, step)
    vals = np.array([f(x) for x in xs])
    i = int(np.argmax(vals))
    return float(xs[i]), float(vals[i])


def refine_max(f, lo, hi):
    res = optimize.minimize_scalar(
        lambda x: -f(x), bounds=(lo, hi), method="bounded",
        options={"xatol": 1e-12},
    )
    return float(res.x), float(-res.fun)


def round_sig(x, digits):
    if x == 0:
        return 0.0
    mag = math.floor(math.log10(abs(x)))
    return round(x, digits - 1 - mag)


def least_n_linear(real, fits):
    """The least n >= 1 with fits(n), stepping one integer at a time.

    The planners' search as it was before it galloped: from the ceiling of
    the real solution, down while n - 1 fits, then up while n does not.
    """
    n = max(int(math.ceil(real)), 1)
    while n > 1 and fits(n - 1):
        n -= 1
    while not fits(n):
        n += 1
    return n


def load_csv_per_cell(path, intercept=True):
    """The CSV loader parsed cell by cell: (outcomes, treatments, covariates, names).

    The reference for msregret's bulk loader: rows are read in file order,
    rows whose cells are all blank are skipped, and within a row the width
    is checked, then y, d and the covariates are parsed, then d must be 0 or
    1.  The first bad cell raises ValueError with the loader's message.  The
    file is read as plain UTF-8.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected a header row") from None
        names = [cell.strip() for cell in header]
        if names.count("y") != 1:
            raise ValueError(
                f"{path}: header must contain exactly one column 'y', got {names!r}"
            )
        if names.count("d") != 1:
            raise ValueError(
                f"{path}: header must contain exactly one column 'd', got {names!r}"
            )
        y_pos = names.index("y")
        d_pos = names.index("d")
        cov_pos = [i for i in range(len(names)) if i not in (y_pos, d_pos)]

        ys = []
        ds = []
        rows = []
        for line_no, cells in enumerate(reader, start=2):
            if not cells or all(cell.strip() == "" for cell in cells):
                continue
            if len(cells) != len(names):
                raise ValueError(
                    f"{path}: line {line_no} has {len(cells)} cells, expected {len(names)}"
                )
            parsed = []
            for pos in [y_pos, d_pos] + cov_pos:
                cell = cells[pos].strip()
                try:
                    value = float(cell)
                except ValueError:
                    raise ValueError(
                        f"{path}: line {line_no}, column {names[pos]!r}: "
                        f"not a number: {cell!r}"
                    ) from None
                if not math.isfinite(value):
                    raise ValueError(
                        f"{path}: line {line_no}, column {names[pos]!r}: "
                        f"non-finite value {cell!r}"
                    )
                parsed.append(value)
            if parsed[1] not in (0.0, 1.0):
                raise ValueError(
                    f"{path}: line {line_no}, column 'd': must be 0 or 1, "
                    f"got {cells[d_pos].strip()!r}"
                )
            ys.append(parsed[0])
            ds.append(parsed[1])
            rows.append(parsed[2:])

    if not ys:
        raise ValueError(f"{path}: no data rows")
    covs = np.asarray(rows, dtype=float).reshape(len(ys), len(cov_pos))
    cov_names = [names[i] for i in cov_pos]
    if intercept:
        covs = np.hstack([covs, np.ones((covs.shape[0], 1))])
        cov_names.append("intercept")
    return np.asarray(ys, dtype=float), np.asarray(ds, dtype=float), covs, tuple(cov_names)


def main():
    out = {}

    # -- normal special values ------------------------------------------
    out["cdf(-1)"] = float(cdf(-1.0))
    out["cdf(-2)"] = float(cdf(-2.0))
    out["1-cdf(2)"] = 1.0 - float(cdf(2.0))
    out["z(0.95)"] = float(special.ndtri(0.95))
    out["z(0.99)"] = float(special.ndtri(0.99))
    out["z(0.8)"] = float(special.ndtri(0.8))
    out["z(0.975)"] = float(special.ndtri(0.975))
    out["cuberoot2"] = 2.0 ** (1.0 / 3.0)

    # -- max of b^2 * cdf(1.6449 - b), grid scan 1e-4 then refine --------
    g = lambda b: b * b * float(cdf(1.6449 - b))
    b0, v0 = grid_argmax(g, 0.0, 6.0, 1e-4)
    out["ht1645 argmax/max (grid 1e-4)"] = (b0, v0)

    # -- ES worst-case units --------------------------------------------
    mr = lambda t: t * float(cdf(-t))
    a1, u1 = refine_max(mr, 0.0, 8.0)
    out["es worst mean regret (argmax, sup)"] = (a1, u1)
    out["es mean regret sup squared"] = u1 * u1
    out["9e4 * sup^2 (must sit in (2600, 2601))"] = 9.0e4 * u1 * u1

    msr = lambda t: t * t * float(cdf(-t))
    a2, u2 = refine_max(msr, 0.0, 8.0)
    out["es worst msr (argmax, sup)"] = (a2, u2)

    # -- tau* by dense grid scan of the frequentist objective ------------
    t0, v0 = grid_argmax(frequentist_objective, 1.15, 1.31, 1e-4)
    out["tau* grid 1e-4 on [1.15,1.31] (argmax, max)"] = (t0, v0)
    t1, v1 = refine_max(frequentist_objective, t0 - 2e-4, t0 + 2e-4)
    out["tau* refined (argmax, max)"] = (t1, v1)
    tb, vb = refine_max(bayes_objective, 1.1, 1.35)
    out["tau* from bayes objective (argmax, max)"] = (tb, vb)
    out["tau* rounded to 6 significant digits"] = round_sig(t1, 6)
    out["objective equality at 1.2285"] = (
        bayes_objective(1.2285), frequentist_objective(1.2285))

    tau_star = round_sig(t1, 6)

    # -- figure-1 experiment (tau=1, sigma=1, n=1) ------------------------
    mr_mm = normal_expectation(
        lambda y: float(logistic(-2.0 * tau_star * np.asarray([y]))[0]), 1.0, 1.0)
    msr_mm = minimax_msr_at(1.0, tau_star)
    out["minimax mean regret at tau=1"] = mr_mm
    out["minimax msr at tau=1"] = msr_mm
    out["minimax regret sd at tau=1"] = math.sqrt(msr_mm - mr_mm ** 2)
    out["minimax welfare mean at tau=1"] = 1.0 - mr_mm
    # P(Reg > 0.95) = P(delta < 0.05) = cdf(ln(1/19)/(2 tau*) - 1)
    ycut = math.log(0.05 / 0.95) / (2.0 * tau_star)
    out["minimax P(Reg>0.95) at tau=1"] = float(cdf(ycut - 1.0))
    out["es regret sd at tau=1"] = math.sqrt(
        float(cdf(-1.0)) - float(cdf(-1.0)) ** 2)

    # -- minimax rule worst-case units ------------------------------------
    a3, u3 = refine_max(lambda t: minimax_msr_at(t, tau_star), 0.5, 2.5)
    out["minimax worst msr (argmax, sup)"] = (a3, u3)
    mmr = lambda t: t * normal_expectation(
        lambda y: float(logistic(-2.0 * tau_star * np.asarray([y]))[0]), t, 1.0)
    a4, u4 = refine_max(mmr, 0.0, 8.0)
    out["minimax worst mean regret (argmax, sup)"] = (a4, u4)

    # -- table 1 columns ---------------------------------------------------
    ygrid = [0.0, 0.2533, 0.5244, 0.8416, 1.2816, 1.6449, 2.3263]
    out["table1 minimax"] = [float(logistic(np.asarray([2 * tau_star * y]))[0])
                             for y in ygrid]
    bayes_flat = lambda u: float(cdf(u)) + u * float(phi(u)) / (1.0 + u * u)
    out["table1 bayes"] = [bayes_flat(y) for y in ygrid]
    out["table1 post-match"] = [float(cdf(y)) for y in ygrid]

    # -- bayes FOC oracles -------------------------------------------------
    # prior {(2, 1/2), (-1, 1/2)}, alpha=2, sd=1, stat=0
    wp = 0.5 * float(phi(2.0))
    wm = 0.5 * float(phi(1.0))
    out["tilted prior{(2,.5),(-1,.5)} stat 0"] = 4 * wp / (4 * wp + wm)
    out["tilted prior{(1,.5),(-1,.5)} stat 0.5"] = math.e / (math.e + 1.0)
    # three-point prior {-1: 1, 1: 1, 2: 0.5}, sd 1: tail and worst-case MSR
    three = [(-1.0, 0.4), (1.0, 0.4), (2.0, 0.2)]
    out["3-point alpha 2 P(Reg>0.1) at tau=1"] = prior_bayes_tail(three, 2.0, 1.0, 1.0, 0.1)
    msr3 = lambda t: prior_bayes_msr(three, 2.0, 1.0, t)
    t3, _ = grid_argmax(msr3, -4.0, 4.0, 0.1)
    out["3-point alpha 2 worst msr (argmax, sup)"] = refine_max(msr3, t3 - 0.1, t3 + 0.1)
    # steep worst cases: the same prior at noise sd 0.1 in the unit problem,
    # and MinimaxMSR(200)
    sharp = lambda t: prior_bayes_msr(three, 2.0, 0.1, t, 1.0)
    t4, _ = grid_argmax(sharp, -4.0, 4.0, 0.01)
    out["3-point noise sd 0.1 worst msr (argmax, sup)"] = refine_max(sharp, t4 - 0.01, t4 + 0.01)
    steep = lambda t: minimax_msr_at(t, 200.0)
    t5, _ = grid_argmax(steep, -4.0, 4.0, 0.01)
    out["MinimaxMSR(200) worst msr (argmax, sup)"] = refine_max(steep, t5 - 0.01, t5 + 0.01)

    # -- dominance ---------------------------------------------------------
    p = float(cdf(-1.0))
    out["lambda*(p,p,2) with p=cdf(-1)"] = p
    r = p / (1.0 - p)
    out["lambda*(p,p,3) = sqrt(r)/(1+sqrt(r))"] = math.sqrt(r) / (1.0 + math.sqrt(r))
    out["0.5*lambda*(p,p,3)"] = 0.5 * math.sqrt(r) / (1.0 + math.sqrt(r))

    def margins_ok(t, tau_bar, alpha, shrink, step=0.05):
        pp = float(cdf((t - tau_bar)))
        pm = 1.0 - float(cdf((t + tau_bar)))
        m = min(pp, pm)
        rr = m / (1.0 - m)
        lam = shrink * rr ** (1.0 / (alpha - 1.0)) / (1.0 + rr ** (1.0 / (alpha - 1.0)))
        k = int(round(2 * tau_bar / step))
        taus = np.linspace(-tau_bar, tau_bar, k + 1)
        ok = True
        worst = np.inf
        for tau in taus:
            pw = float(cdf(t - tau)) if tau >= 0 else 1.0 - float(cdf(t - tau))
            a = abs(tau)
            rs = a ** alpha * pw
            rf = a ** alpha * ((1 - lam) ** alpha * pw + lam ** alpha * (1 - pw))
            mg = rs - rf
            if tau != 0:
                worst = min(worst, mg)
                ok = ok and mg > 1e-12
            else:
                ok = ok and abs(mg) < 1e-15
        return ok, worst

    sweep_ok = True
    worst_margin = np.inf
    for t in (-1.0, -0.5, 0.0, 0.5, 1.0):
        for tau_bar in (0.5, 1.0, 2.0):
            for alpha in (1.5, 2.0, 3.0):
                for shrink in (0.25, 0.5, 0.9):
                    ok, wm_ = margins_ok(t, tau_bar, alpha, shrink)
                    sweep_ok = sweep_ok and ok
                    worst_margin = min(worst_margin, wm_)
    out["45-config dominance sweep all strict"] = (sweep_ok, worst_margin)

    # -- planning ----------------------------------------------------------
    out["es n(1, 0.01)"] = math.ceil(u1 * u1 / 1e-4)
    out["es n(3, 0.01)"] = math.ceil(u1 * u1 * 9.0 / 1e-4)
    out["minimax n constant 0.0209"] = u3 * (u1 * u1) / u2
    out["es/minimax ratio"] = u2 / u3
    out["ht unit 1.4458 (argmax, sup)"] = refine_max(
        lambda b: b * b * float(cdf(float(special.ndtri(0.95)) - b)), 0.0, 8.0)
    b5, u5 = refine_max(
        lambda b: b * b * float(cdf(float(special.ndtri(0.95)) - b)), 0.0, 8.0)
    out["msr ratio 0.083"] = u3 / u5
    out["sample multiple 12.06"] = u5 / u3
    zz = float(special.ndtri(0.95)) - float(special.ndtri(0.2))
    out["ht n(1,.05,.8,.5)"] = math.ceil(zz * zz / 0.25)
    out["ht n(1,.05,.5,1)"] = math.ceil(float(special.ndtri(0.95)) ** 2)

    # -- single-arm +-1 example --------------------------------------------
    n = 199
    y = np.array([1.0] * 100 + [-1.0] * 99)
    tau_hat = y.mean()
    sigma2 = np.mean((y - tau_hat) ** 2)
    se = math.sqrt(sigma2 / n)
    t_stat = tau_hat / se
    out["one-arm t-stat"] = t_stat
    out["one-arm minimax fraction"] = float(
        logistic(np.asarray([2.0 * tau_star * t_stat]))[0])
    y[0] = -1.0
    tau_hat2 = y.mean()
    se2 = math.sqrt(np.mean((y - tau_hat2) ** 2) / n)
    out["one-arm swing fraction"] = float(
        logistic(np.asarray([2.0 * tau_star * tau_hat2 / se2]))[0])

    # -- fraction_from_tstat at 2.3263 --------------------------------------
    out["fractions at t=2.3263"] = (
        float(logistic(np.asarray([2 * tau_star * 2.3263]))[0]),
        bayes_flat(2.3263),
    )

    for k, v in out.items():
        print(f"{k}: {v!r}")


if __name__ == "__main__":
    main()
