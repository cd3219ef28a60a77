"""Payloads: frozen JSON and CSV bytes of every report class, the codec's
missing-field rules, round trips of every record and rule kind, and a guard
against hand-written payload methods."""
import ast
import dataclasses
import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import msregret
from msregret import (
    BayesFlatMSR,
    ComplementMix,
    DiscretePrior,
    DiscretePriorBayes,
    DomainError,
    DominanceCertificate,
    EmpiricalSuccess,
    EsComparison,
    HtComparison,
    HypothesisTest,
    MinimaxMSR,
    PosteriorMatchFlat,
    RegressionResult,
    RiskReport,
    RngSeed,
    SaddleCertificate,
    SampleSizePlan,
    SimulationSummary,
    Threshold,
    risk_curve_csv,
    rule_from_dict,
    rule_to_dict,
)
from msregret._codec import json_text
from msregret.rules import _KINDS

RISK = RiskReport(
    mean_regret=0.0812345678901234,
    regret_variance=0.0123456789,
    mean_square_regret=0.0189447584,
    welfare_mean=0.4187654321098766,
    welfare_sd=0.1111111106055556,
    tail=((0.5, 0.0625), (0.95, 1e-17)),
)
SIMULATION = SimulationSummary(
    replications=20000,
    seed=RngSeed(12345678901234567890),
    mean_regret=0.081,
    regret_variance=0.0123,
    mean_square_regret=0.018861,
    welfare_mean=0.419,
    welfare_sd=0.11090536506409418,
    se_mean_regret=0.0007842193570679061,
    se_mean_square_regret=0.00021,
    se_regret_sd=0.00056,
    se_welfare_mean=0.0007842193570679061,
    se_welfare_sd=0.00056,
    tail=((0.5, 0.06, 0.0016792855623746663), (0.95, 0.0, 0.0)),
)
SADDLE = SaddleCertificate(
    tau_star=1.22814,
    bayes_risk_at_lfp=0.169880308017,
    worst_case_risk=0.1698803080172231,
    argsup_tau=1.2281389,
    objective_gap=2.231e-13,
    curve_samples=(
        (0.0, 0.0, 0.0),
        (0.02, 5.0e-05, 9.99e-05),
        (1.22814, 0.16988, 0.1698803),
    ),
)
DOMINANCE = DominanceCertificate(
    threshold_t=0.0,
    tau_bar=1.0,
    alpha_g=2.0,
    lambda_star=0.15865525393145707,
    lambda_used=0.07932762696572854,
    grid=(
        (-1.0, 0.15865525393145707, 0.14012, 0.01853525393145707),
        (0.0, 0.0, 0.0, 0.0),
        (1.0, 0.15865525393145707, 0.14012, 0.01853525393145707),
    ),
)
ES = EsComparison(
    n_es=289,
    es_worst_msr_at_n=9.934e-05,
    n_rule=210,
    n_rule_real=209.37,
    ratio=1.3803,
    es_n_constant=0.02871,
    rule_n_constant=0.0208,
)
HT = HtComparison(
    n_ht=25,
    ht_msr_unit=0.4251,
    minimax_msr_unit=0.16988,
    msr_ratio=0.39963,
    sample_multiple=2.5023,
    n_minimax=10,
)
PLAN = SampleSizePlan(
    criterion="worst_msr_target",
    sigma=1.0,
    n_required=1199,
    achieved_worst_msr=9.99e-05,
    epsilon=0.01,
)
PLAN_ES = SampleSizePlan(
    criterion="es_epsilon_optimal",
    sigma=1.5,
    n_required=289,
    achieved_worst_msr=0.0003,
    epsilon=0.02,
    es_comparison=ES,
)
PLAN_HT = SampleSizePlan(
    criterion="ht_power",
    sigma=1.0,
    n_required=25,
    achieved_worst_msr=0.017,
    alpha=0.05,
    beta=0.8,
    tau_alt=-0.5,
    ht_comparison=HT,
)
REGRESSION = RegressionResult(
    tau_hat=0.731,
    beta_hat=(1.5, -0.25),
    sigma2_hat=0.98,
    se_tau=0.2,
    t_stat=3.655,
    delta_minimax=0.9998,
    delta_bayes=0.99999,
    n_obs=200,
    tau_star=1.22814,
)

REPORTS = {
    "RiskReport": RISK,
    "SimulationSummary": SIMULATION,
    "SaddleCertificate": SADDLE,
    "DominanceCertificate": DOMINANCE,
    "EsComparison": ES,
    "HtComparison": HT,
    "SampleSizePlan": PLAN,
    "SampleSizePlan-es": PLAN_ES,
    "SampleSizePlan-ht": PLAN_HT,
    "RegressionResult": REGRESSION,
}

# json.dumps(x.to_dict(), sort_keys=True) of REPORTS, frozen while each class
# still wrote its payload by hand
FROZEN_JSON = {
    "DominanceCertificate": (
        '{"alpha_g": 2.0, "grid": [[-1.0, 0.15865525393145707, 0.14012, '
        '0.01853525393145707], [0.0, 0.0, 0.0, 0.0], [1.0, 0.15865525393145707, '
        '0.14012, 0.01853525393145707]], "lambda_star": 0.15865525393145707, '
        '"lambda_used": 0.07932762696572854, "tau_bar": 1.0, "threshold_t": 0.0}'
    ),
    "EsComparison": (
        '{"es_n_constant": 0.02871, "es_worst_msr_at_n": 9.934e-05, "n_es": 289, '
        '"n_rule": 210, "n_rule_real": 209.37, "ratio": 1.3803, '
        '"rule_n_constant": 0.0208}'
    ),
    "HtComparison": (
        '{"ht_msr_unit": 0.4251, "minimax_msr_unit": 0.16988, "msr_ratio": 0.39963, '
        '"n_ht": 25, "n_minimax": 10, "sample_multiple": 2.5023}'
    ),
    "RegressionResult": (
        '{"beta_hat": [1.5, -0.25], "delta_bayes": 0.99999, "delta_minimax": 0.9998, '
        '"n_obs": 200, "se_tau": 0.2, "sigma2_hat": 0.98, "t_stat": 3.655, '
        '"tau_hat": 0.731, "tau_star": 1.22814}'
    ),
    "RiskReport": (
        '{"mean_regret": 0.0812345678901234, "mean_square_regret": 0.0189447584, '
        '"regret_variance": 0.0123456789, "tail": [[0.5, 0.0625], [0.95, 1e-17]], '
        '"welfare_mean": 0.4187654321098766, "welfare_sd": 0.1111111106055556}'
    ),
    "SaddleCertificate": (
        '{"argsup_tau": 1.2281389, "bayes_risk_at_lfp": 0.169880308017, '
        '"curve_samples": [[0.0, 0.0, 0.0], [0.02, 5e-05, 9.99e-05], [1.22814, '
        '0.16988, 0.1698803]], "objective_gap": 2.231e-13, "tau_star": 1.22814, '
        '"worst_case_risk": 0.1698803080172231}'
    ),
    "SampleSizePlan": (
        '{"achieved_worst_msr": 9.99e-05, "criterion": "worst_msr_target", '
        '"epsilon": 0.01, "n_required": 1199, "sigma": 1.0}'
    ),
    "SampleSizePlan-es": (
        '{"achieved_worst_msr": 0.0003, "criterion": "es_epsilon_optimal", '
        '"epsilon": 0.02, "es_comparison": {"es_n_constant": 0.02871, '
        '"es_worst_msr_at_n": 9.934e-05, "n_es": 289, "n_rule": 210, '
        '"n_rule_real": 209.37, "ratio": 1.3803, "rule_n_constant": 0.0208}, '
        '"n_required": 289, "sigma": 1.5}'
    ),
    "SampleSizePlan-ht": (
        '{"achieved_worst_msr": 0.017, "alpha": 0.05, "beta": 0.8, '
        '"criterion": "ht_power", "ht_comparison": {"ht_msr_unit": 0.4251, '
        '"minimax_msr_unit": 0.16988, "msr_ratio": 0.39963, "n_ht": 25, '
        '"n_minimax": 10, "sample_multiple": 2.5023}, "n_required": 25, "sigma": 1.0, '
        '"tau_alt": -0.5}'
    ),
    "SimulationSummary": (
        '{"mean_regret": 0.081, "mean_square_regret": 0.018861, '
        '"regret_variance": 0.0123, "replications": 20000, '
        '"se_mean_regret": 0.0007842193570679061, "se_mean_square_regret": 0.00021, '
        '"se_regret_sd": 0.00056, "se_welfare_mean": 0.0007842193570679061, '
        '"se_welfare_sd": 0.00056, "seed": 12345678901234567890, "tail": [[0.5, 0.06, '
        '0.0016792855623746663], [0.95, 0.0, 0.0]], "welfare_mean": 0.419, '
        '"welfare_sd": 0.11090536506409418}'
    ),
}


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_frozen_json(name):
    assert json.dumps(REPORTS[name].to_dict(), sort_keys=True) == FROZEN_JSON[name]


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_round_trip(name):
    report = REPORTS[name]
    back = type(report).from_dict(json.loads(json.dumps(report.to_dict())))
    assert back == report


FROZEN_SADDLE_CSV = (
    "tau,bayes_objective,frequentist_risk\n"
    "0,0,0\n"
    "0.02,5e-05,9.99e-05\n"
    "1.22814,0.16988,0.1698803\n"
)
FROZEN_DOMINANCE_CSV = (
    "tau,risk_singleton,risk_fractional,margin\n"
    "-1,0.158655253931,0.14012,0.0185352539315\n"
    "0,0,0,0\n"
    "1,0.158655253931,0.14012,0.0185352539315\n"
)
FROZEN_RISK_CURVE_CSV = (
    "tau,mean_regret,regret_sd,msr,welfare_mean,welfare_sd\n"
    "-0.5,0.0812345678901,0.111111110606,0.0189447584,0.41876543211,0.111111110606\n"
    "0.25,0.0812345678901,0.111111110606,0.0189447584,0.41876543211,0.111111110606\n"
)


def test_frozen_csv():
    assert SADDLE.to_csv() == FROZEN_SADDLE_CSV
    assert DOMINANCE.to_csv() == FROZEN_DOMINANCE_CSV
    assert risk_curve_csv([(-0.5, RISK), (0.25, RISK)]) == FROZEN_RISK_CURVE_CSV


def test_missing_required_field_raises():
    data = RISK.to_dict()
    del data["welfare_sd"]
    with pytest.raises(DomainError, match="welfare_sd"):
        RiskReport.from_dict(data)
    data = PLAN_ES.to_dict()
    del data["es_comparison"]["n_rule"]
    with pytest.raises(DomainError, match="n_rule"):
        SampleSizePlan.from_dict(data)


def test_numpy_integer_inputs_give_the_int_payload():
    # a numpy count, seed and sample size are held as ints, so the payload
    # is the Python-int call's, byte for byte
    def payload(count, seed, n):
        sim = msregret.simulate(MinimaxMSR(1.22814), msregret.GaussianExperiment(1, 1, n),
                                count, RngSeed(seed))
        return json_text(sim.to_dict())

    want = payload(50, 3, 1)
    assert payload(np.int64(50), np.uint64(3), np.int32(1)) == want
    assert type(RngSeed(np.uint64(3)).seed) is int
    assert type(msregret.GaussianExperiment(1.0, 1.0, np.int64(4)).n) is int


@pytest.mark.parametrize("field, value", [("seed", 1.5), ("seed", 3.0), ("seed", "3"),
                                          ("seed", True),
                                          ("replications", 50.7), ("replications", 50.0),
                                          ("replications", True), ("replications", "50")])
def test_a_simulation_payload_that_changes_its_numbers_is_refused(field, value):
    # the seed decodes through RngSeed, and an int field takes an exact int,
    # so neither truncates a malformed value into a different record
    data = msregret.simulate(MinimaxMSR(1.22814), msregret.GaussianExperiment(1, 1, 1), 50,
                             RngSeed(3)).to_dict()
    assert SimulationSummary.from_dict(data).to_dict() == data
    data[field] = value
    with pytest.raises(DomainError, match="integer"):
        SimulationSummary.from_dict(data)


def _risk_field(value):
    data = RISK.to_dict()
    data["mean_regret"] = value
    return RiskReport.from_dict(data)


def _risk_tail_row(value):
    data = RISK.to_dict()
    data["tail"][0][1] = value
    return RiskReport.from_dict(data)


def _prior_pair(value):
    prior = DiscretePrior(((-1.0, 0.5), (1.0, 0.5)))
    data = rule_to_dict(DiscretePriorBayes(prior, 2.0, 1.0))
    data["prior"][0][1] = value
    return rule_from_dict(data)


def _threshold(value):
    return rule_from_dict({"kind": "threshold", "t": value})


@pytest.mark.parametrize("value", [True, "0.5"])
@pytest.mark.parametrize("decode", [_risk_field, _risk_tail_row, _prior_pair, _threshold])
def test_a_float_field_holding_a_bool_or_a_string_is_refused(decode, value):
    # float() would read true as 1.0 and "0.5" as 0.5
    decode(0.5)
    with pytest.raises(DomainError, match="number"):
        decode(value)


def test_missing_defaulted_field_takes_its_default():
    data = RISK.to_dict()
    del data["tail"]
    assert RiskReport.from_dict(data) == dataclasses.replace(RISK, tail=())
    data = PLAN.to_dict()
    del data["epsilon"]
    assert SampleSizePlan.from_dict(data) == dataclasses.replace(PLAN, epsilon=None)


# --- round trips over every record and every rule kind ----------------------

FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=1e-3, max_value=1e3)


def _rows(width):
    return st.lists(st.tuples(*[FINITE] * width), max_size=3).map(tuple)


FIELDS = {
    "float": FINITE,
    "int": st.integers(min_value=0, max_value=2**53),
    "str": st.text(max_size=8),
    "RngSeed": st.builds(RngSeed, st.integers(min_value=0, max_value=2**64 - 1)),
    "Tuple[float, ...]": st.lists(FINITE, max_size=4).map(tuple),
    "Tuple[Tuple[float, float], ...]": _rows(2),
    "Tuple[Tuple[float, float, float], ...]": _rows(3),
    "Tuple[Tuple[float, float, float, float], ...]": _rows(4),
}
RECORDS = {
    cls.__name__: cls
    for cls in (
        RiskReport,
        SimulationSummary,
        SaddleCertificate,
        DominanceCertificate,
        EsComparison,
        HtComparison,
        SampleSizePlan,
        RegressionResult,
    )
}


def _record(cls):
    kwargs = {}
    for f in dataclasses.fields(cls):
        optional = f.type.startswith("Optional[")
        name = f.type[len("Optional["):-1] if optional else f.type
        value = _record(RECORDS[name]) if name in RECORDS else FIELDS[name]
        kwargs[f.name] = st.none() | value if optional else value
    return st.builds(cls, **kwargs)


PRIORS = st.lists(
    st.tuples(st.floats(-5.0, 5.0), st.floats(0.01, 1.0)),
    min_size=1,
    max_size=4,
    unique_by=lambda pair: pair[0],
).map(DiscretePrior.from_pairs)
RULE_KINDS = {
    EmpiricalSuccess: st.builds(EmpiricalSuccess),
    Threshold: st.builds(Threshold, FINITE),
    HypothesisTest: st.builds(HypothesisTest, st.floats(1e-6, 0.49)),
    MinimaxMSR: st.builds(MinimaxMSR, POSITIVE, POSITIVE),
    BayesFlatMSR: st.builds(BayesFlatMSR, POSITIVE),
    PosteriorMatchFlat: st.builds(PosteriorMatchFlat, POSITIVE),
    ComplementMix: st.builds(
        ComplementMix, st.deferred(lambda: RULES), st.floats(1e-6, 1.0 - 1e-6)
    ),
    DiscretePriorBayes: st.builds(DiscretePriorBayes, PRIORS, st.floats(1.01, 10.0), POSITIVE),
}
RULES = st.one_of(*RULE_KINDS.values())


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_every_record_round_trips(name):
    @settings(max_examples=40, deadline=None)
    @given(_record(RECORDS[name]))
    def check(report):
        assert type(report).from_dict(json.loads(json.dumps(report.to_dict()))) == report

    check()


def test_every_rule_kind_round_trips():
    assert set(RULE_KINDS) == set(_KINDS.values())

    @settings(max_examples=200, deadline=None)
    @given(RULES)
    def check(rule):
        assert rule_from_dict(json.loads(json.dumps(rule_to_dict(rule)))) == rule

    check()


def test_no_class_writes_its_payload_by_hand():
    # the codec is the one payload format; to_dict/from_dict come from @record
    package = pathlib.Path(msregret.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                found += [
                    f"{path.name}:{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and item.name in ("to_dict", "from_dict")
                ]
    assert found == []


def test_field_plans_are_built_once(monkeypatch):
    # every record has its plan from @record, every rule kind from its first
    # payload; after that no payload reads the dataclass fields again
    from msregret import _codec

    for rule in (MinimaxMSR(1.5), ComplementMix(EmpiricalSuccess(), 0.3)):
        rule_to_dict(rule)

    def no_fields(cls):
        raise AssertionError(f"dataclass fields of {cls!r} read again")

    monkeypatch.setattr(_codec, "fields", no_fields)
    for report in REPORTS.values():
        assert type(report).from_dict(report.to_dict()) == report
    rule = ComplementMix(MinimaxMSR(1.5), 0.3)
    assert rule_from_dict(rule_to_dict(rule)) == rule


# the JSON writer: byte for byte json.dumps(payload, indent=2, sort_keys=True)

EDGE_FLOATS = (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e308, 0.1, -2.5)
JSON_FLOATS = (
    st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from(EDGE_FLOATS)
    | st.floats(allow_nan=True, allow_infinity=True).map(np.float64)
)
JSON_STRINGS = st.text() | st.sampled_from(["", "caf\u00e9", 'q"uote\\', "tab\t\n\x00", "\U0001f600"])
JSON_SCALARS = JSON_FLOATS | st.integers() | st.booleans() | st.none() | JSON_STRINGS
JSON_ROWS = (
    # equal-length float tables, ragged rows, and mixed int/float rows
    st.integers(0, 4).flatmap(
        lambda k: st.lists(st.lists(JSON_FLOATS, min_size=k, max_size=k), max_size=5)
    )
    | st.lists(st.lists(JSON_FLOATS, max_size=4), max_size=5)
    | st.lists(st.lists(JSON_FLOATS | st.integers(), max_size=4), max_size=5)
    | st.lists(st.tuples(JSON_FLOATS, JSON_FLOATS), max_size=4)
)
JSON_PAYLOADS = st.recursive(
    JSON_SCALARS | JSON_ROWS | st.lists(JSON_FLOATS, max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.tuples(inner, inner)
    | st.dictionaries(JSON_STRINGS, inner, max_size=4),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(JSON_PAYLOADS)
def test_json_text_is_indented_json_dumps(payload):
    assert json_text(payload) == json.dumps(payload, indent=2, sort_keys=True)


class _Count(int):
    """An int subclass, which json writes as its int."""


@pytest.mark.parametrize("payload", [
    {}, [], (), [[]], [[], []], [{}], {"a": {}},
    [float(x) for x in EDGE_FLOATS],
    [[1.0, math.nan], [-math.inf, np.float64(0.25)]],
    [[1.0, 2.0], [3.0]],
    [[1, 2.0], [3.0, 4]],
    [True, 1, 1.0, None, "x"],
    {"\u00e9": 1, "b": [np.float64(1) / 3], "a": (1.5, -0.0)},
    {"k": {"z": [[0.5]], "y": [0.5]}},
    {"a": {1: "i", 2.5: [1.0]}, "b": [{False: 1.0}], "c": {"d": {None: 0}}},
    [[True, 1.0], [None, 2.0]],
    {"t": True, "n": None, "f": [False, 0.5]},
    [{"a": 1.0}, {"b": [2.0, 3.0]}, {}],
    {"a": {"b": [], "c": {}}, "d": [[], {}, [[]]]},
    [_Count(7), {"n": _Count(-3)}, [_Count(1), 1.0]],
])
def test_json_text_edge_cases(payload):
    assert json_text(payload) == json.dumps(payload, indent=2, sort_keys=True)


def test_json_text_keys_and_refusals():
    for keys in ({1.5: "f", 2: "i", True: "t", -math.inf: "m"}, {None: "n"}, {False: 0}):
        assert json_text(keys) == json.dumps(keys, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        json_text({"x": np.float32(1.0)})
    with pytest.raises(TypeError):
        json_text({(1, 2): 0})


class _NoDumps:
    """A json module whose dumps refuses: every value json_text passes on."""

    @staticmethod
    def dumps(*args, **kwargs):
        raise AssertionError("json_text passed a value on to json.dumps")


@pytest.mark.parametrize("argv", [
    ["solve-tau-star"],
    ["rule-eval", "--rule", "prior-bayes", "--prior=-1:0.5,1:0.5", "--stat", "0.3"],
    ["risk", "--rule", "bayes-flat", "--tau", "-0.4", "--tail", "0.1"],
    ["simulate", "--rule", "minimax", "--tau", "0.5", "--reps", "2000", "--seed", "5",
     "--tail", "0.2"],
    ["saddle"],
    ["dominate", "--t", "0.1", "--tau-bar", "1.25"],
    ["sample-size", "--criterion", "worst-msr-target", "--epsilon", "0.05"],
    ["sample-size", "--criterion", "es-epsilon-optimal", "--epsilon", "0.05"],
    ["sample-size", "--criterion", "ht-power", "--tau", "0.5"],
    ["regress", "--data", "{csv}"],
    ["figure1", "--tau", "0.4", "--reps", "500", "--seed", "5"],
], ids=lambda argv: "-".join(argv[:3]) if argv[0] == "sample-size" else argv[0])
def test_no_shipped_payload_reaches_json_dumps(monkeypatch, capsys, tmp_path, argv):
    # _codec's json binding refuses, the command line's own (its config echo)
    # is left as it is
    from msregret import _codec
    from msregret.cli import main

    path = tmp_path / "trial.csv"
    path.write_text("y,d,x\n3,1,0.5\n5,1,-1\n1,0,2\n2,0,0.25\n2.5,1,1\n", encoding="utf-8")
    argv = [str(path) if a == "{csv}" else a for a in argv]
    monkeypatch.setattr(_codec, "json", _NoDumps)
    with pytest.raises(AssertionError, match="passed a value on"):
        json_text([True])
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
