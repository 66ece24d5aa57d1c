"""Corpus checks against the analytic targets."""

import numpy as np

from conftest import corpus_entry
from ulamstab import corpus, stability


def test_check_variant_builds_one_engine(cfg, engine_builds):
    entry = corpus_entry("exeq01")
    result = corpus.check_variant(entry, entry.default, cfg)
    assert result["passed"]
    assert set(result["detail"]["f_sups"]) == {"f3", "f4"}
    assert len(engine_builds) == 1


def test_no_cache_has_a_zero_width_panel(cfg):
    # bisection stops at the resolution floor, 2^10 ulp, where a panel's
    # nodes are still more than 20 ulp apart and its edges far from equal
    for entry in corpus.entries():
        for variant in entry.variants:
            problem, rho = corpus.build(variant)
            engine = stability.StabilityEngine(problem, rho, cfg)
            stability.analyze(problem, rho, cfg, best=True, engine=engine)
            assert engine._cache
            for key, cache in engine._cache.items():
                assert np.all(np.diff(cache.bps) > 0), (entry.name, variant.label, key)
