"""Quick self-test of the benchmark's oracles and problem generator.

    python3 perfbench/selftest.py

Checks that the closed forms in `oracles.py` reproduce the corpus targets
of ``ulamstab.corpus``, that the unseeded sweep is the corpus itself, that
every document the workloads write passes ``problem.schema.json``, and
that the reference instability distances grow by the factor the benchmark
demands.  Runs in a few seconds and prints one line per check.
"""

import json
import sys

import jsonschema

import oracles
import run
import workloads

SEEDS = range(20)


def same_document(generated, corpus_doc):
    for key in ("alpha", "beta", "gamma", "forcing", "rho"):
        a, b = generated[key], corpus_doc[key]
        try:
            if float(a) != float(b):
                return False
        except ValueError:
            if a != b:
                return False
    return generated["interval"] == corpus_doc["interval"] and generated["params"] == corpus_doc["params"]


def main():
    if run.import_program() is None:
        print(f"selftest: no ulamstab sources under {run.SRC}", file=sys.stderr)
        return 2
    from ulamstab import corpus

    failures = []

    def report(ok, what):
        print(f"{'PASS' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    stable = [(e, v) for e in corpus.entries() if e.expected_verdict == "best_constant" for v in e.variants]
    sweep = workloads.sweep_documents(None)
    report(len(sweep) == len(stable) - 1, f"unseeded sweep has {len(sweep)} problems: the corpus minus exeq01")
    for (family, doc), (entry, variant) in zip(sweep, stable[1:]):
        label = f"{entry.name} {variant.label}"
        report(family == entry.name and same_document(doc, variant.data), f"sweep document is corpus {label}")
        rel = abs(oracles.best_constant(family, doc) - variant.expected_B) / variant.expected_B
        report(rel <= 1e-12, f"closed form matches corpus B of {label} (rel {rel:.1e})")
    for op in workloads.operations("empirical", None) + workloads.operations("singular-endpoint", None):
        matches = [v for e, v in stable if e.name == op.family and same_document(op.doc, v.data)]
        report(
            len(matches) == 1 and abs(op.B - matches[0].expected_B) <= 1e-12 * matches[0].expected_B,
            f"{op.stem} is a corpus variant with B={op.B!r}",
        )

    schema = json.loads((run.SRC / "ulamstab" / "schemas" / "problem.schema.json").read_text())
    docs = [op.doc for w in workloads.WORKLOADS for op in workloads.operations(w, None)]
    docs += [doc for seed in SEEDS for _, doc in workloads.sweep_documents(seed)]
    errors = [str(e.message) for d in docs for e in jsonschema.Draft7Validator(schema).iter_errors(d)]
    report(not errors, f"{len(docs)} generated documents pass problem.schema.json {errors[:1]}")
    report(
        workloads.sweep_documents(3) == workloads.sweep_documents(3)
        and workloads.sweep_documents(3) != workloads.sweep_documents(4),
        "sweep draws repeat for a seed and change with it",
    )

    for op in workloads.operations("instability", None):
        d = op.distances
        report(all(d[k + 1] >= run.GROWTH * d[k] for k in range(len(d) - 1)), f"{op.stem} reference distances {d}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
