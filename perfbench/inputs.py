"""Seeded inputs: the graph pools, the transform-sweep sample, the warm-query round.

Every random choice goes through ``random.Random`` seeded with a string
built from the workload seed, so the same seed gives the same inputs on
any machine and interpreter run.
"""

from __future__ import annotations

import json
import random

from common import REFERENCE

SWEEP_MAX_VERTICES = 10
SWEEP_MAX_COMPONENTS = 4
SWEEP_PER_COUNT = 25
SMALL_VERTICES = 6  # sweep inputs this small are compared with the naive oracles

WARM_CLASSES = ("Q10", "Z11", "Q11", "E12")
# Queries per round as (class, expected answer, count).  No record of how
# ``check`` is used exists, so every (class, answer) cell gets the same
# count by design; every seed asks the same mix and seeds differ only in
# which graphs they ask about.
QUERIES_PER_CELL = 50
QUERY_CELLS = tuple((symbol, answer, QUERIES_PER_CELL) for symbol in WARM_CLASSES for answer in (True, False))
SUBPROCESS_CHECKS_PER_ROUND = 4
CORRUPT_CHECKS_PER_ROUND = 2
NO_QUERY_EXCESS = 3  # "no" queries beyond Q10 have bound+1 .. bound+3 vertices


def graph_pool(graphs, max_vertices, max_components, *, min_vertices=1, ade_only=False):
    """Every graph with 1..max_components components and a vertex count in range."""
    types = [graphs.A(k) for k in range(1, max_vertices + 1)]
    types += [graphs.D(k) for k in range(4, max_vertices + 1)]
    types += [graphs.E(k) for k in (6, 7, 8) if k <= max_vertices]
    if not ade_only:
        types += [graphs.G2, graphs.G1, graphs.BC1]
    pool = {}

    def grow(start, comps, total):
        if comps and total >= min_vertices:
            g = graphs.DynkinGraph(tuple(comps))
            pool[g.name] = g
        if len(comps) == max_components:
            return
        for i in range(start, len(types)):
            size = types[i].vertex_count
            if total + size <= max_vertices:
                grow(i, comps + [types[i]], total + size)

    grow(0, [], 0)
    return pool


def sweep_pool(graphs):
    return graph_pool(graphs, SWEEP_MAX_VERTICES, SWEEP_MAX_COMPONENTS)


def load_reference(name):
    with open(REFERENCE / name, encoding="utf-8") as fh:
        return json.load(fh)


def sweep_sample(graphs, seed, per_count=SWEEP_PER_COUNT):
    """About a hundred distinct graphs, the same number for each component count.

    Within one component count the pool is ordered by the measured cost of
    its transforms (``reference/sweep_pool.json``) and cut into
    ``per_count`` bins of equal size; the seed picks one graph per bin.  So
    every seed draws a different sample with the same cost profile, which
    keeps the sweep's run time steady from seed to seed.
    """
    pool = sweep_pool(graphs)
    order = [name for name, _seconds in load_reference("sweep_pool.json")["order"]]
    if sorted(order) != sorted(pool):
        raise ValueError("reference/sweep_pool.json does not match the sweep pool; rerun regen.py")
    rng = random.Random(f"transform-sweep/{seed}")
    picked = []
    for count in range(1, SWEEP_MAX_COMPONENTS + 1):
        names = [n for n in order if len(pool[n].components) == count]
        bins = min(per_count, len(names))
        for b in range(bins):
            lo, hi = b * len(names) // bins, (b + 1) * len(names) // bins
            picked.append(names[rng.randrange(lo, hi)])
    rng.shuffle(picked)
    return [pool[name] for name in picked]


def query_round(seed, yes_names, no_names, cells=QUERY_CELLS):
    """The queries of one warm-query round, each ``(symbol, graph name, expected answer)``.

    ``yes_names[symbol]`` are graphs expected to be members and
    ``no_names[symbol]`` graphs expected not to be.  Returns the in-process
    queries in shuffled order, one subprocess query per class (yes and no
    alternating) and the corrupt-cache queries.
    """
    rng = random.Random(f"warm-query/{seed}")
    yes = {s: sorted(v) for s, v in yes_names.items()}
    no = {s: sorted(v) for s, v in no_names.items()}
    queries = []
    for symbol, answer, count in cells:
        names = yes[symbol] if answer else no[symbol]
        queries.extend((symbol, rng.choice(names), answer) for _ in range(count))
    rng.shuffle(queries)
    sub = []
    for i, symbol in enumerate(WARM_CLASSES[:SUBPROCESS_CHECKS_PER_ROUND]):
        answer = i % 2 == 0
        sub.append((symbol, rng.choice(yes[symbol] if answer else no[symbol]), answer))
    corrupt = [("Q10", rng.choice(yes["Q10"]), True) for _ in range(CORRUPT_CHECKS_PER_ROUND)]
    return queries, sub, corrupt


def no_query_pools(graphs, catalog, q10_members):
    """Graphs certainly outside each warm class's catalog.

    For Q10 the pool is every A/D/E graph within the vertex bound that the
    oracle reference lacks; for the other classes it is A/D/E graphs above
    the mu - 2 vertex bound, which the bound alone rules out.
    """
    pools = {}
    for symbol in WARM_CLASSES:
        bound = catalog.singularity_class(symbol).milnor - 2
        if symbol == "Q10":
            names = set(graph_pool(graphs, bound, 4, ade_only=True)) - set(q10_members)
        else:
            names = set(
                graph_pool(graphs, bound + NO_QUERY_EXCESS, 4, min_vertices=bound + 1, ade_only=True)
            )
        pools[symbol] = names
    return pools
