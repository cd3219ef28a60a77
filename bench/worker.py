"""One pass of one workload, in a fresh process.

Started by run.py, never by hand.  It imports msregret, builds the workload's
operation list from the seed, times every operation once in order, and
prints one JSON object on standard output: set-up time, each operation's
time, the machine-speed probes taken before set-up, after it and before
every operation, a digest of each output, peak resident memory, and (with
--check 1) the result of checking every output against reference.py, which
runs after the timed loop.  With --trace 1 the library is wrapped in spans
first (see tracing.py) and the per-layer totals are returned as well.

A fresh process per pass matters: risk._unit_worst caches worst-case scans
per rule, and a second pass in the same process would time cache hits.
"""
import argparse
import contextlib
import functools
import hashlib
import io
import json
import math
import os
import resource
import shutil
import sys
import time


def setup_probe() -> float:
    """Fastest of five runs of an interpreter-only loop, the kind of work
    importing does; taken before and after set-up.  About 0.25 ms at full
    speed."""
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        s = 0.0
        for j in range(2000):
            s += math.sqrt(j + s % 3.0)
        best = min(best, time.perf_counter() - t0)
    return best


def _args():
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--spawned", type=float, required=True,
                   help="the driver's perf_counter just before it started this process")
    p.add_argument("--check", type=int, default=0)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--setup-only", type=int, default=0, dest="setup_only",
                   help="stop after set-up: one more set-up time for the run")
    return p.parse_args()


def _simpson(f, a, fa, m, fm, b, fb, whole, depth):
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if depth == 0:
        return left + right
    return (_simpson(f, a, fa, lm, flm, m, fm, left, depth - 1)
            + _simpson(f, m, fm, rm, frm, b, fb, right, depth - 1))


def probe() -> float:
    """Machine speed right now: the fastest of three runs of a fixed snippet.

    The snippet mixes what the library's operations are made of: an
    interpreter loop, numpy and scipy.special calls on small arrays, and a
    recursive Simpson rule making one-point numpy calls.  It takes about
    1 ms when the machine runs at full speed.
    """
    import numpy as np
    from scipy import special

    def f(x):
        return float(np.asarray(special.expit(2.5 * np.array([x], dtype=float)))[0])

    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        s = 0.0
        for j in range(1500):
            s += math.sqrt(j + s % 3.0)
        a = np.linspace(-2.0, 2.0, 64)
        for _ in range(30):
            a = np.tanh(a * 1.5) + special.ndtr(a)
        fa, fm, fb = f(-6.0), f(0.0), f(6.0)
        _simpson(f, -6.0, fa, 0.0, fm, 6.0, fb, 2.0 * (fa + 4.0 * fm + fb), 5)
        best = min(best, time.perf_counter() - t0)
    return best


def _plain(value):
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if hasattr(value, "tolist"):
        return value.tolist()
    return value


def _digest(output) -> str:
    return hashlib.sha256(json.dumps(output, sort_keys=True).encode()).hexdigest()


def _prepare(workload: str, specs: list, scratch: str) -> list:
    """One thunk per operation; each returns the operation's output.

    Library functions are looked up when a thunk runs, not when it is built,
    so that the tracing wrappers apply.
    """
    import numpy as np

    import msregret as m

    if workload == "study-design":
        import msregret.cli as cli
        from workloads import regress_csv

        def run_cli(argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
            return {"rc": rc, "stdout": out.getvalue()}

        thunks = []
        for k, spec in enumerate(specs):
            argv = list(spec["argv"])
            if "data" in spec:
                path = os.path.join(scratch, f"regress-{k}.csv")
                with open(path, "w", encoding="ascii", newline="") as fh:
                    fh.write(regress_csv(spec["data"]))
                argv = [path if a == "{csv}" else a for a in argv]
            thunks.append(functools.partial(run_cli, argv))
        return thunks

    def risk_rule(r):
        name, scale = r["name"], r["scale"]
        if name == "es":
            return m.EmpiricalSuccess()
        if name == "ht":
            if scale == 1.0:
                return m.HypothesisTest(alpha=r["alpha"])
            return m.Threshold(t=m.std_normal_quantile(1.0 - r["alpha"]) * scale)
        if name == "minimax":
            return m.MinimaxMSR(tau_star=m.default_tau_star(), scale=scale)
        if name == "logistic":
            return m.MinimaxMSR(tau_star=r["c"], scale=scale)
        if name == "bayes-flat":
            return m.BayesFlatMSR(scale=scale)
        if name == "post-match":
            return m.PosteriorMatchFlat(scale=scale)
        if name == "mix":
            return m.ComplementMix(base=m.Threshold(t=r["t"]), lam=r["lam"])
        raise ValueError(name)

    def prior_rule(spec):
        prior = m.DiscretePrior.from_pairs(spec["prior"])
        return m.DiscretePriorBayes(prior=prior, alpha_g=spec["alpha_g"],
                                    noise_sd=spec["noise_sd"])

    thunks = []
    for spec in specs:
        kind = spec["kind"]
        if kind == "risk":
            rule = risk_rule(spec["rule"])
            exp = m.GaussianExperiment(spec["tau"], spec["sigma"], spec["n"])
            thunks.append(functools.partial(
                lambda r, e, c: m.exact_risk(r, e, tail_thresholds=c), rule, exp, [spec["tail"]]))
        elif kind == "table":
            thunks.append(functools.partial(
                lambda r, s: r.evaluate(s), prior_rule(spec), np.array(spec["stats"])))
        elif kind == "simulate":
            exp = m.GaussianExperiment(spec["tau"], spec["noise_sd"], 1)
            thunks.append(functools.partial(
                lambda r, e, reps, s, c: m.simulate(r, e, reps, s, tail_thresholds=c),
                prior_rule(spec), exp, spec["reps"], m.RngSeed(spec["seed"]), [spec["tail"]]))
        elif kind == "tail":
            exp = m.GaussianExperiment(spec["tau"], spec["noise_sd"], 1)
            thunks.append(functools.partial(
                lambda r, e, c: m.tail_probability(r, e, c),
                prior_rule(spec), exp, spec["threshold"]))
        else:
            raise ValueError(f"unknown operation kind {kind!r}")
    return thunks


def main() -> int:
    args = _args()
    t_probe = time.perf_counter()
    setup_probes = [setup_probe()]
    probe_s = time.perf_counter() - t_probe
    sys.path[:0] = [os.path.join(args.root, "src"), os.path.join(args.root, "bench")]
    before = len(sys.modules)
    t_import = time.perf_counter()
    if args.workload == "study-design":
        import msregret.cli  # noqa: F401
    else:
        import msregret  # noqa: F401
    import_s = time.perf_counter() - t_import
    modules_loaded = len(sys.modules) - before

    import workloads

    scratch = os.path.join(args.root, "bench-out", f"work-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        tracer = None
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
            tracing.install(tracer)
        specs = workloads.build(args.workload, args.seed)
        thunks = _prepare(args.workload, specs, scratch)
        if args.setup_only:
            thunks = []
        outputs, op_s, errors, probes = [], [], {}, []
        first = time.perf_counter()
        setup_probes.append(setup_probe())
        for i, thunk in enumerate(thunks):
            probes.append(probe())
            t0 = time.perf_counter()
            try:
                out = thunk()
            except Exception as exc:  # an operation that raises counts as failed
                out = None
                errors[i] = f"{type(exc).__name__}: {exc}"
            op_s.append(time.perf_counter() - t0)
            outputs.append(out)
        probes.append(probe())
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    outputs = [_plain(o) for o in outputs]
    result = {
        "setup_s": first - args.spawned - probe_s,
        "setup_probe_s": setup_probes,
        "op_s": op_s,
        "probe_s": probes,
        "digests": [_digest(o) for o in outputs],
        "errors": {str(i): e for i, e in errors.items()},
        "peak_rss_mb": peak_rss_mb,
        "kinds": [s["kind"] if s["kind"] != "cli" else s["argv"][0] for s in specs],
    }
    if tracer is not None:
        result["per_layer"] = tracer.metrics(import_s, modules_loaded)
        result["spans"] = tracer.spans()
    if args.check:
        import reference
        checker = reference.Checker()
        failures = {}
        for i, (spec, out) in enumerate(zip(specs, outputs)):
            if i in errors:
                failures[str(i)] = f"raised {errors[i]}"
                continue
            why = checker.check(spec, out)
            if why is not None:
                failures[str(i)] = why
        result["failures"] = failures
        result["known_faults"] = [i for i, s in enumerate(specs) if s.get("known_fault")]
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
