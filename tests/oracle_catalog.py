"""Second route to the Q10 catalog, through the naive oracles alone.

Every elementary and tie choice (B of at most three vertices) on E6, and on
each graph those give, is replayed literally and classified by Gram-matrix
isomorphism search (``tests/oracles.py``); the A/D/E names reached must be
exactly the names of the engine's Q10 catalog.  Each engine witness is also replayed through the
oracle's own graph builders and ``oracle_classify``.

Run from the repository root (about 15 s):

    PYTHONPATH=src python tests/oracle_catalog.py

It exits 1 and names the differences when the two routes disagree.
"""

from __future__ import annotations

import sys
import time

from dynkintrans.catalog import build_catalog
from dynkintrans.graphs import parse_name

from oracles import naive_elementary_all, naive_tie_all, oracle_replay


def _outcomes(name: str) -> set[str]:
    g = parse_name(name)
    return naive_elementary_all(g) | naive_tie_all(g)


def main() -> int:
    start = time.monotonic()
    catalog = build_catalog("Q10", cache=False)
    reached = set()
    for mid in _outcomes(catalog.singularity.basic.name):
        reached |= {name for name in _outcomes(mid) if parse_name(name).is_ade}
    engine = catalog.names()
    failures = []
    if sorted(reached) != engine:
        failures.append(f"only the oracle reaches {sorted(reached - set(engine))}")
        failures.append(f"only the engine lists {sorted(set(engine) - reached)}")
    for member in catalog.members:
        for step in member.witness:
            if oracle_replay(step) != step.output:
                failures.append(f"witness of {member.graph}: {step} does not replay")
    print(
        f"Q10: oracle {len(reached)} names, engine {len(engine)} names, "
        f"{2 * len(engine)} witness steps replayed in {time.monotonic() - start:.1f} s"
    )
    for line in failures:
        print("FAIL", line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
