"""Regenerate the benchmark's reference data.

    python3 perfbench/regen.py [--only q10|small|pool|coefficients ...]

``q10``    the Q10 catalog's member names, computed through the literal
           ``naive_elementary_all`` / ``naive_tie_all`` route of
           ``tests/oracles.py`` (about 90 s on a 2-core machine).
``small``  the naive tie and elementary outcome names of every sweep-pool
           graph with at most six vertices (several minutes).
``pool``   the sweep pool ordered by the measured time of ``tie_all`` plus
           ``elementary_all`` on each graph; the sweep draws one graph per
           cost bin from this order (about three minutes).  Made only when
           asked for with ``--only pool``: a new order changes which graphs
           every seed draws, so figures taken before and after it do not
           compare.
``coefficients``  the maximal-root coefficients of every component type with
           at most 12 vertices, by the oracles' reflection closure, so that
           the certifier need not recompute them in every run (about 20 s).

Files are written to ``perfbench/reference``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from common import REFERENCE, import_program, load_oracles
from inputs import SMALL_VERTICES, graph_pool, sweep_pool

COEFFICIENT_MAX_VERTICES = 12


def _write(name: str, data) -> None:
    REFERENCE.mkdir(exist_ok=True)
    path = REFERENCE / name
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}", file=sys.stderr)


def q10_members(graphs, catalog, oracles) -> list[str]:
    basic = catalog.singularity_class("Q10").basic
    mids = oracles.naive_elementary_all(basic) | oracles.naive_tie_all(basic)
    members = set()
    for k, mid in enumerate(sorted(mids), 1):
        g = graphs.parse_name(mid)
        for name in oracles.naive_elementary_all(g) | oracles.naive_tie_all(g):
            if graphs.parse_name(name).is_ade:
                members.add(name)
        print(f"q10: {k}/{len(mids)} intermediates", file=sys.stderr)
    return sorted(members)


def small_transforms(graphs, oracles) -> dict:
    small = sorted(g for g, v in sweep_pool(graphs).items() if v.total_vertices <= SMALL_VERTICES)
    out = {}
    for k, name in enumerate(small, 1):
        g = graphs.parse_name(name)
        out[name] = {
            "elementary": sorted(oracles.naive_elementary_all(g)),
            "tie": sorted(oracles.naive_tie_all(g)),
        }
        print(f"small: {k}/{len(small)} {name}", file=sys.stderr)
    return out


def pool_order(graphs, transforms) -> list:
    timed = []
    for name, g in sweep_pool(graphs).items():
        transforms.clear_transform_cache()
        t0 = time.perf_counter()
        transforms.tie_all(g)
        transforms.elementary_all(g)
        timed.append((time.perf_counter() - t0, name))
    transforms.clear_transform_cache()
    timed.sort()
    return [[name, round(seconds, 6)] for seconds, name in timed]


def coefficients(graphs, oracles) -> dict:
    pool = graph_pool(graphs, COEFFICIENT_MAX_VERTICES, 1)
    return {name: list(oracles.highest_root_coefficients(g.components[0])) for name, g in sorted(pool.items())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--only", action="append", choices=("q10", "small", "pool", "coefficients"))
    args = parser.parse_args(argv)
    parts = args.only or ["q10", "small", "coefficients"]
    graphs, transforms, catalog, _cli = import_program()
    oracles = load_oracles() if {"q10", "small", "coefficients"} & set(parts) else None
    if "pool" in parts:
        _write("sweep_pool.json", {
            "about": "sweep pool ordered by measured seconds of tie_all + elementary_all",
            "order": pool_order(graphs, transforms),
        })
    if "q10" in parts:
        _write("q10_members.json", {
            "about": "Q10 catalog member names via the naive oracle route",
            "members": q10_members(graphs, catalog, oracles),
        })
    if "coefficients" in parts:
        _write("coefficients.json", {
            "about": "maximal-root coefficients by reflection closure, layout order",
            "coefficients": coefficients(graphs, oracles),
        })
    if "small" in parts:
        _write("small_transforms.json", {
            "about": "naive outcome names of sweep-pool graphs with at most six vertices",
            "graphs": small_transforms(graphs, oracles),
        })
    return 0


if __name__ == "__main__":
    sys.exit(main())
