"""Corpus checks against the analytic targets."""

from conftest import corpus_entry
from ulamstab import corpus


def test_check_variant_builds_one_engine(cfg, engine_builds):
    entry = corpus_entry("exeq01")
    result = corpus.check_variant(entry, entry.default, cfg)
    assert result["passed"]
    assert set(result["detail"]["f_sups"]) == {"f3", "f4"}
    assert len(engine_builds) == 1
