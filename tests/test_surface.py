"""The tuning surface and the import boundary.

One knob and few parameters with a default.  A fresh command loads only
what it calls: the collocation solver only for `--solve-rho` and the
experiment layer (`dynamics`), which only the instability probe and
`empirical` load, the corpus only for `corpus`, and scipy and jsonschema
never, complex-data fits included.
"""

import ast
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ulamstab
from ulamstab.model import Config

MAX_DEFAULTED = 22  # parameters with a default under src/ulamstab/


def _defaulted():
    """(file, function, count) of each function under src/ulamstab/ with defaulted parameters."""
    out = []
    for path in sorted(Path(ulamstab.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                n = len(args.defaults) + sum(d is not None for d in args.kw_defaults)
                if n:
                    out.append((path.name, getattr(node, "name", "<lambda>"), n))
    return out


def test_parameters_with_a_default_stay_few():
    found = _defaulted()
    assert sum(n for *_, n in found) <= MAX_DEFAULTED, found


def test_config_has_one_field():
    assert [f.name for f in dataclasses.fields(Config)] == ["cum_tol"]


_ROOT = Path(__file__).resolve().parent.parent

# modules whose loading a fresh command is checked for
_WATCHED = ["scipy", "jsonschema", "ulamstab.dynamics", "ulamstab.collocation", "ulamstab.corpus"]

# runs each command line of argv[1] in-process and prints the exit codes and
# which modules of argv[2] were imported
_CHILD = """
import contextlib, io, json, sys
from ulamstab import cli

codes = []
for argv in json.loads(sys.argv[1]):
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main.main(argv, standalone_mode=False)
        codes.append(0)
    except SystemExit as exc:
        codes.append(exc.code)
print(json.dumps({"codes": codes, "loaded": [m for m in json.loads(sys.argv[2]) if m in sys.modules]}))
"""


def _fresh_run(tmp_path, *commands):
    """The exit codes of ``commands`` run in one fresh interpreter, and whether it imported scipy."""
    codes, loaded = _fresh_loaded(tmp_path, *commands)
    return codes, "scipy" in loaded


def _fresh_loaded(tmp_path, *commands):
    """The exit codes of ``commands`` run in one fresh interpreter, and which `_WATCHED` modules it imported."""
    env = {**os.environ, "PYTHONPATH": str(_ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(commands), json.dumps(_WATCHED)],
        env=env,
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    return out["codes"], set(out["loaded"])


def _doc(name):
    return str(_ROOT / "problems" / f"{name}.json")


# const-iii with complex gamma and rho: roots -1 + 0.5i and -2 - 0.5i, L = 1/2
_COMPLEX_DOC = {
    "name": "const-iii-complex",
    "alpha": "1",
    "beta": "3",
    "gamma": "2.25 - 0.5*i",
    "forcing": "0",
    "interval": {"lower": -40.0, "upper": 40.0},
    "rho": "-2 - 0.5*i",
}


def test_scipy_is_not_imported_without_solve_rho(tmp_path):
    # modules loaded, not seconds: scipy's import is most of a fresh CLI's
    # start-up; the complex document's fits run the barrier fit
    complex_doc = tmp_path / "const-iii-complex.json"
    complex_doc.write_text(json.dumps(_COMPLEX_DOC))
    codes, scipy = _fresh_run(
        tmp_path,
        ["analyze", _doc("exeq01"), "--best", "--reproducible"],
        ["analyze", _doc("exeq02"), "--reproducible"],
        ["empirical", _doc("exeq03"), "--trials", "2", "--seed", "7", "--reproducible"],
        ["riccati-check", _doc("exeq01")],
        ["empirical", str(complex_doc), "--trials", "2", "--seed", "7", "--reproducible"],
    )
    assert codes == [0, 3, 0, 0, 0]
    assert not scipy


def test_solve_rho_loads_no_scipy(tmp_path):
    # the numeric companion is read off the collocation panels
    codes, loaded = _fresh_loaded(
        tmp_path,
        ["analyze", _doc("exeq06"), "--best", "--solve-rho", "t0=0.5,rho0=-2", "--reproducible"],
        ["riccati-check", _doc("exeq01"), "--solve-rho", "t0=0.5,rho0=-2"],
    )
    assert codes == [0, 0]
    assert loaded == {"ulamstab.collocation"}


def test_finite_analyze_and_riccati_check_load_no_experiment_layer(tmp_path):
    # modules loaded, not seconds: jsonschema and the experiment layer were
    # about 30% of a fresh command's start-up
    codes, loaded = _fresh_loaded(
        tmp_path, ["analyze", _doc("exeq01"), "--best", "--reproducible"], ["riccati-check", _doc("exeq01")]
    )
    assert codes == [0, 0]
    assert loaded == set()


@pytest.mark.parametrize(
    "command, code",
    [
        (["analyze", _doc("exeq02"), "--reproducible"], 3),
        (["empirical", _doc("exeq03"), "--trials", "2", "--seed", "7", "--reproducible"], 0),
    ],
    ids=["instability-probe", "empirical"],
)
def test_experiments_load_the_experiment_layer(tmp_path, command, code):
    codes, loaded = _fresh_loaded(tmp_path, command)
    assert codes == [code]
    assert loaded == {"ulamstab.dynamics", "ulamstab.collocation"}


def test_every_public_name_resolves():
    # the `dynamics` names load their module on first use
    from ulamstab import dynamics

    for name in ulamstab.__all__:
        assert getattr(ulamstab, name) is not None, name
    assert ulamstab.SolutionEngine is dynamics.SolutionEngine
