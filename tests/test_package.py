"""The package's public surface: each name is declared once, in its module."""
import ast
import importlib
from pathlib import Path

import msregret
from msregret import dominance, lfp, numerics, planning, regression, risk, rules

MODULES = (numerics, rules, risk, lfp, dominance, planning, regression)

# The 73 names the package exports; a change to the public surface must edit
# this pin.
PUBLIC = [
    "BayesFlatMSR", "BracketError", "ComplementMix", "ConvergenceError",
    "Dataset", "DiscretePrior", "DiscretePriorBayes", "DomainError",
    "DominanceCertificate", "DominanceViolation", "EmpiricalSuccess",
    "EsComparison", "GaussianExperiment", "HtComparison",
    "HypothesisTest", "InputError", "MinimaxMSR", "PosteriorMatchFlat",
    "PriorSupportError", "RankError", "RegressionResult", "RiskReport",
    "RngSeed", "SaddleCertificate", "SaddleViolation", "SampleSizePlan",
    "SimulationSummary", "Threshold", "TreatmentRule", "WorstCase",
    "__version__", "bayes_msr", "bayes_objective", "compare_vs_es",
    "compare_vs_ht", "default_tau_star", "dominating_rule",
    "es_epsilon_optimal_n", "es_mean_regret_unit", "es_msr_unit",
    "exact_risk", "find_root", "fit", "fraction_from_tstat",
    "frequentist_objective", "gaussian_expectation", "ht_msr_unit",
    "ht_power_n", "lambda_star", "load_dataset_csv", "maximize_scalar",
    "minimax_msr_unit", "n_for_msr_target", "plan_es_epsilon",
    "plan_ht_power", "plan_worst_msr", "regret", "risk_curve",
    "risk_curve_csv", "rule_from_dict", "rule_to_dict",
    "simulate", "solve_bayes_foc", "solve_tau_star", "std_normal_cdf",
    "std_normal_quantile", "tail_bounds", "tail_probability",
    "tilted_posterior_match_msr", "verify_dominance", "verify_saddle",
    "worst_case_mean_regret", "worst_case_msr",
]


def test_the_package_exports_the_pinned_names():
    assert sorted(msregret.__all__) == PUBLIC
    assert len(set(msregret.__all__)) == len(msregret.__all__)


def test_the_package_all_is_the_modules_lists():
    declared = [name for module in MODULES for name in module.__all__]
    assert len(set(declared)) == len(declared)
    assert sorted(msregret.__all__) == sorted(["__version__", *declared])


def test_each_export_is_its_modules_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(msregret, name) is getattr(module, name), name
            assert getattr(module, name).__module__ == module.__name__, name


def test_a_star_import_binds_every_export():
    namespace: dict = {}
    exec("from msregret import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == PUBLIC


# exports that no code in the package loads, each kept for its reason
UNLOADED = {
    "__version__": "the package version",
    "bayes_msr": "paper closed form",
    "dominating_rule": "paper closed form",
    "find_root": "bench-traced",
    "solve_bayes_foc": "paper closed form",
    "tilted_posterior_match_msr": "paper closed form",
}


def test_every_export_the_package_never_loads_has_a_reason():
    loaded = set()
    for path in Path(msregret.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id if isinstance(node, ast.Name) else node.attr)
    assert sorted(n for n in msregret.__all__ if n not in loaded) == sorted(UNLOADED)


def test_every_name_the_benchmark_tracer_wraps_exists():
    # bench/tracing.py's install() looks each _SPANS name up with getattr and
    # no default, so deleting one breaks `bench/run.py --trace 1`; the table
    # is read as a literal, importing nothing under bench/
    tracing = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    spans = next(
        ast.literal_eval(node.value) for node in ast.parse(tracing.read_text()).body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "_SPANS" for t in node.targets)
    )
    missing = [f"{short}.{name}" for short, names in spans.items() for name in names
               if not hasattr(importlib.import_module(f"msregret.{short}"), name)]
    assert missing == []
