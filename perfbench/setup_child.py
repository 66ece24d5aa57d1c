"""One set-up of a workload in a fresh interpreter.

Imports ``ulamstab.cli`` and loads, schema-validates and parses each
problem document the way the CLI does.  `run.py` times the whole process.

    python3 perfbench/setup_child.py <src-dir> <document.json>...
"""

import sys

sys.path.insert(0, sys.argv[1])

from ulamstab import cli  # noqa: E402

for path in sys.argv[2:]:
    cli._build_problem(cli._load_document(path))
