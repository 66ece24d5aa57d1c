"""Workloads: the problem documents each one writes and the commands it runs.

Every workload is a list of operations, one ``ulamstab`` command each.  An
operation carries the document it reads, the command-line arguments and
what the benchmark expects of the output.  Documents are written by the
benchmark; the program only ever sees the files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles

EPSILON = 0.1  # perturbation size used by `empirical` and by the probe
TRIALS = 2  # randomized trials per `empirical` command


@dataclass
class Op:
    stem: str
    family: str
    doc: dict
    command: str
    options: list  # command-line options after the document path
    exit_code: int
    verdict: str
    case: str | None = None  # expected case; None where the case is not checked
    B: float | None = None  # closed-form best constant
    distances: list | None = None  # closed-form nearest-solution distances
    path: Path | None = field(default=None, repr=False)


def _doc(name, alpha, beta, gamma, forcing, lo, hi, rho, params=None, witness=None):
    doc = {
        "name": name,
        "alpha": alpha,
        "beta": beta,
        "gamma": gamma,
        "forcing": forcing,
        "interval": {"lower": lo, "upper": hi, "lower_closed": False, "upper_closed": False},
        "rho": rho,
        "params": dict(params or {}),
    }
    if witness is not None:
        doc["witness"] = witness
    return doc


def exeq01():
    return _doc("exeq01", "t*(1 - t)", "2 - t", "1", "0", 0.0, 1.0, "-1/t")


def exeq03(sigma):
    return _doc("exeq03", "1", "2/t", "0", "-1", 0.0, sigma, "-1/t")


def exeq04(sigma):
    return _doc("exeq04", "1", "2/t", "1", "0", 0.0, sigma, "-tan(t) - 1/t")


def exeq06(a, b, sigma):
    return _doc(
        "exeq06", "t^(1 - a)", "b*t^(-a)", "(b - 2)*t^(-1 - a)", "0", 0.0, sigma, "-1/t", params={"a": a, "b": b}
    )


def const(case, a0, l1, l2):
    """a0 x'' + a1 x' + a2 x on (-40, 40) with real roots l1 > l2; rho = l2."""
    a1 = -a0 * (l1 + l2)
    a2 = a0 * l1 * l2
    return _doc(f"const-{case}", repr(float(a0)), repr(float(a1)), repr(float(a2)), "0", -40.0, 40.0, repr(float(l2)))


def exeq02():
    return _doc("exeq02", "1", "2/t", "0", "-1", 1.0, "inf", "-1/t", witness="(eps - 1)*t^2/6")


def exeq05():
    witness = "eps/(8*t)*(cos(t) + 2*t*sin(t) - 2*t^2*cos(t))"
    return _doc("exeq05", "1", "2/t", "1", "0", 0.0, "inf", "-tan(t) - 1/t", witness=witness)


# The corpus variants other than exeq01, as (family, document) pairs.
CORPUS_SWEEP = (
    [("exeq03", exeq03(s)) for s in (1.0, 0.5, 2.0)]
    + [("exeq04", exeq04(s)) for s in (1.0, 0.5, 1.5)]
    + [("exeq06", exeq06(a, b, s)) for a, b, s in ((1.0, 2.0, 1.0), (0.5, 1.5, 1.0), (2.0, 2.0, 0.5))]
    + [("const-iii", const("iii", 1.0, -1.0, -2.0)), ("const-ii", const("ii", 2.0, 2.0, -1.0)),
       ("const-i", const("i", 1.0, 2.0, 1.0))]
)


def _draw(rng, lo, hi):
    return round(float(rng.uniform(lo, hi)), 4)


def sweep_documents(seed):
    """Twelve closed-form problems; parameters drawn inside the corpus ranges.

    Without a seed these are the corpus variants themselves.  Root
    magnitudes of the constant-coefficient problems are drawn from [1, 2]
    at least 0.25 apart, as in the corpus.
    """
    if seed is None:
        return list(CORPUS_SWEEP)
    rng = np.random.default_rng([20230728, int(seed)])
    docs = [("exeq03", exeq03(_draw(rng, 0.5, 2.0))) for _ in range(3)]
    docs += [("exeq04", exeq04(_draw(rng, 0.5, 1.5))) for _ in range(3)]
    docs += [
        ("exeq06", exeq06(_draw(rng, 0.5, 2.0), _draw(rng, 1.5, 2.0), _draw(rng, 0.5, 1.0))) for _ in range(3)
    ]
    for case in ("iii", "ii", "i"):
        a0 = _draw(rng, 1.0, 2.0)
        while True:
            m1, m2 = _draw(rng, 1.0, 2.0), _draw(rng, 1.0, 2.0)
            if abs(m1 - m2) >= 0.25:
                break
        big, small = max(m1, m2), min(m1, m2)
        l1, l2 = {"i": (big, small), "ii": (m1, -m2), "iii": (-small, -big)}[case]
        docs.append((f"const-{case}", const(case, a0, l1, l2)))
    return docs


def _stable_op(stem, family, doc, command, options):
    case = family.split("-")[1] if family.startswith("const-") else "iii"
    return Op(stem, family, doc, command, options, 0, "best_constant", case=case, B=oracles.best_constant(family, doc))


def operations(workload, seed):
    """The operations of one round of ``workload``."""
    if workload == "singular-endpoint":
        return [_stable_op("exeq01", "exeq01", exeq01(), "analyze", ["--best", "--reproducible"])]
    if workload == "closed-form-sweep":
        return [
            _stable_op(f"sweep{k:02d}-{family}", family, doc, "analyze", ["--best", "--reproducible"])
            for k, (family, doc) in enumerate(sweep_documents(seed))
        ]
    if workload == "empirical":
        trial_seed = 7 if seed is None else int(seed)
        picks = [("exeq01", exeq01()), ("exeq03", exeq03(1.0)), ("exeq04", exeq04(1.0)), ("exeq06", exeq06(0.5, 1.5, 1.0))]
        options = ["--epsilon", repr(EPSILON), "--trials", str(TRIALS), "--seed", str(trial_seed), "--reproducible"]
        return [_stable_op(f"pick-{family}", family, doc, "empirical", options) for family, doc in picks]
    if workload == "instability":
        return [
            Op(family, family, doc, "analyze", ["--reproducible"], 3, "instability_evidence",
               distances=oracles.instability_distances(family, EPSILON))
            for family, doc in (("exeq02", exeq02()), ("exeq05", exeq05()))
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("singular-endpoint", "closed-form-sweep", "empirical", "instability")


def write_documents(ops, directory):
    directory.mkdir(parents=True, exist_ok=True)
    for op in ops:
        op.path = directory / f"{op.stem}.json"
        op.path.write_text(json.dumps(op.doc, indent=2, sort_keys=True) + "\n")
