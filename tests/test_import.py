"""What `import msregret` loads, each probe in a fresh interpreter so that
modules loaded by this test session do not count."""
import json
import subprocess
import sys
import textwrap

from test_cli import subprocess_env
from test_package import PUBLIC

EAGER = ["msregret", "msregret._codec", "msregret.numerics", "msregret.risk", "msregret.rules"]
LAZY = ["msregret.dominance", "msregret.lfp", "msregret.planning", "msregret.regression"]


def fresh(body: str) -> dict:
    """The JSON object that body, run after `import msregret` in a fresh
    interpreter, stores in `out`; `loaded()` lists the msregret modules."""
    script = textwrap.dedent(
        """
        import json
        import sys

        import msregret

        def loaded():
            return sorted(m for m in sys.modules if m.split(".")[0] == "msregret")

        out = {"import": loaded()}
        """
    ) + textwrap.dedent(body) + "\nprint(json.dumps(out))\n"
    proc = subprocess.run([sys.executable, "-c", script], env=subprocess_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_the_package_loads_the_rule_and_risk_modules_only():
    out = fresh(
        """
        try:
            msregret._private
        except AttributeError as exc:
            out["private"] = [str(exc), loaded()]
        """
    )
    assert out["import"] == EAGER
    # a private probe, as tools make, raises without loading a module
    assert out["private"] == ["module 'msregret' has no attribute '_private'", EAGER]


def test_a_name_loads_its_module_on_first_use():
    out = fresh(
        """
        out["solve_tau_star"] = msregret.solve_tau_star is msregret.lfp.solve_tau_star
        out["after_lfp"] = loaded()
        out["fit"] = msregret.fit is sys.modules["msregret.regression"].fit
        out["after_fit"] = loaded()
        """
    )
    assert out["solve_tau_star"] and out["fit"]
    assert out["after_lfp"] == sorted([*EAGER, "msregret.lfp"])
    assert out["after_fit"] == sorted([*EAGER, *LAZY])


def test_a_lazy_module_read_as_an_attribute_loads_itself_alone():
    out = fresh(
        """
        out["module"] = msregret.dominance is sys.modules["msregret.dominance"]
        out["after"] = loaded()
        """
    )
    assert out["module"]
    assert out["after"] == sorted([*EAGER, "msregret.dominance"])


def test_an_unknown_name_is_refused_by_name():
    out = fresh(
        """
        try:
            msregret.no_such_name
        except AttributeError as exc:
            out["unknown"] = str(exc)
        """
    )
    assert out["unknown"] == "module 'msregret' has no attribute 'no_such_name'"


def test_a_star_import_binds_the_pinned_names():
    out = fresh(
        """
        namespace = {}
        exec("from msregret import *", namespace)
        out["star"] = sorted(k for k in namespace if k != "__builtins__")
        """
    )
    assert out["star"] == PUBLIC


def test_the_cli_loads_every_module():
    out = fresh("import msregret.cli\nout['cli'] = loaded()\n")
    assert out["cli"] == sorted([*EAGER, "msregret.cli", *LAZY])


def test_the_first_csv_load_after_the_cli_loads_no_module(tmp_path):
    # np.loadtxt pulls no numpy submodule into a timed regress operation
    path = tmp_path / "data.csv"
    path.write_text("y,d,x\n1.5,0,2\n-0.25,1,3\n2,1,5\n0.5,0,7\n")
    out = fresh(
        f"""
        import msregret.cli
        from msregret.regression import load_dataset_csv
        before = set(sys.modules)
        load_dataset_csv({str(path)!r})
        out["added"] = sorted(set(sys.modules) - before)
        out["plain"] = msregret.regression._plain_table(open({str(path)!r}).read()) is not None
        """
    )
    assert out["import"] == EAGER
    assert out["plain"] and out["added"] == []
