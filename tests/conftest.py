"""Shared fixtures: problem builders and session-scoped analysis engines."""

import pytest

from ulamstab import corpus, exprlang
from ulamstab.model import Config, Interval, OscillatorProblem
from ulamstab.stability import StabilityEngine


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
