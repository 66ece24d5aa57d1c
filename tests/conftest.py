"""Shared fixtures: problem builders and session-scoped analysis engines."""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from ulamstab import cli, corpus, exprlang
from ulamstab.model import Config, Interval, OscillatorProblem
from ulamstab.stability import StabilityEngine

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"

# const-iii with complex coefficients: characteristic roots -1 + 0.5i and -2 - 0.5i
CONST_III_COMPLEX = {
    "alpha": "1",
    "beta": "3",
    "gamma": "2.25 - 0.5*i",
    "forcing": "0",
    "interval": {"lower": -40.0, "upper": 40.0},
    "rho": "-2 - 0.5*i",
}


def make_problem(alpha, beta, gamma, forcing, lo, hi, params=None, name=""):
    return OscillatorProblem(
        exprlang.parse(alpha),
        exprlang.parse(beta),
        exprlang.parse(gamma),
        exprlang.parse(forcing),
        Interval.open(lo, hi),
        dict(params or {}),
        name,
    )


def corpus_entry(name):
    """The corpus entry named ``name``."""
    (entry,) = (e for e in corpus.entries() if e.name == name)
    return entry


def problem_document(tmp_path, name):
    """The path of ``problems/<name>.json``, or of the complex document written to ``tmp_path``."""
    if name != "const-iii-complex":
        return PROBLEMS / f"{name}.json"
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(CONST_III_COMPLEX))
    return path


def empirical_run(path, out, epsilon):
    """The experiments of `empirical` at ``epsilon`` and the (t, value) rows of its .extremal.csv."""
    args = ["empirical", str(path), "--epsilon", repr(epsilon), "--trials", "4", "--reproducible", "--out", str(out)]
    result = CliRunner().invoke(cli.main, args, catch_exceptions=False)
    assert result.exit_code == 0
    rows = (out / f"{path.stem}.extremal.csv").read_text().splitlines()[1:]
    return json.loads(result.output)["experiments"], [tuple(map(float, row.split(","))) for row in rows]


@pytest.fixture
def engine_builds(monkeypatch):
    """Record every `StabilityEngine` construction while the test runs."""
    builds = []
    init = StabilityEngine.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(StabilityEngine, "__init__", counting_init)
    return builds


@pytest.fixture(scope="session")
def cfg():
    return Config()


@pytest.fixture(scope="session")
def exeq01():
    return make_problem("t*(1 - t)", "2 - t", "1", "0", 0.0, 1.0, name="exeq01"), exprlang.parse("-1/t")


@pytest.fixture(scope="session")
def exeq01_engine(exeq01, cfg):
    p, r = exeq01
    return StabilityEngine(p, r, cfg)


@pytest.fixture(scope="session")
def exeq03():
    return make_problem("1", "2/t", "0", "-1", 0.0, 1.0, name="exeq03"), exprlang.parse("-1/t")
