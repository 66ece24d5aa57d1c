"""The tuning surface: one knob, and few parameters with a default."""

import ast
import dataclasses
from pathlib import Path

import ulamstab
from ulamstab.model import Config

MAX_DEFAULTED = 24  # parameters with a default under src/ulamstab/


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
