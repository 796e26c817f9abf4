"""Second route to the Q10 catalog and to Lemma 2, through the naive oracles alone.

Every elementary and tie choice (B of at most three vertices) on E6, and on
each graph those give, is replayed literally and classified by Gram-matrix
isomorphism search against Bourbaki's diagrams (``tests/oracles.py``); the
A/D/E names reached must be exactly the names of the engine's Q10 catalog.
Each engine witness is also replayed through the oracle's own graph
builders and ``oracle_classify``.

Lemma 2 (the identity step): removing exactly the added vertices returns
the input, so every A/D/E outcome of one step from a class's basic graph is
a member.  The one-step outcomes of E7 must be members of Z11, and those of
E8 members of E12; E6 against Q10 follows from the Q10 run.

Run from the repository root (15 to 22 s on a 2-core machine):

    PYTHONPATH=src python tests/oracle_catalog.py

It prints the wall time of each part, and exits 1 and names the
differences when the two routes disagree.
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
    for symbol in ("Z11", "E12"):
        start = time.monotonic()
        catalog = build_catalog(symbol, cache=False)
        basic = catalog.singularity.basic.name
        one_step = {name for name in _outcomes(basic) if parse_name(name).is_ade}
        missing = sorted(one_step - set(catalog.names()))
        failures += [f"Lemma 2: {name}, one step from {basic}, is not a member of {symbol}"
                     for name in missing]
        print(
            f"Lemma 2 on {symbol}: {len(one_step)} A/D/E names one step from {basic}, "
            f"{len(one_step) - len(missing)} members, in {time.monotonic() - start:.1f} s"
        )
    for line in failures:
        print("FAIL", line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
