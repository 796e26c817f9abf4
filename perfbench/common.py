"""Paths and imports shared by the benchmark's scripts.

The benchmark lives beside the program it measures: ``src/dynkintrans`` is
imported from the source tree of the same checkout, and the independent
oracles are loaded from ``tests/oracles.py`` by file path, so neither needs
to be installed.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
ORACLES = ROOT / "tests" / "oracles.py"
REFERENCE = BENCH_DIR / "reference"
WORK_DIR = ROOT / ".perfbench_work"


class MissingProgram(RuntimeError):
    """The checkout holds no dynkintrans sources to measure."""


def import_program():
    """Put ``src`` on the import path and import the package's modules."""
    if not (SRC / "dynkintrans" / "__init__.py").is_file():
        raise MissingProgram(f"no dynkintrans package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import dynkintrans  # noqa: F401
    from dynkintrans import catalog, cli, graphs, transforms

    return graphs, transforms, catalog, cli


def load_oracles():
    """Import ``tests/oracles.py`` as a module without touching ``tests``."""
    if not ORACLES.is_file():
        raise MissingProgram(f"no oracle module at {ORACLES}")
    import_program()
    spec = importlib.util.spec_from_file_location("perfbench_oracles", ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
