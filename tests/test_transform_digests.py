"""Golden digests of every transform outcome and witness.

One SHA-256 digest covers ``tie_all`` and ``elementary_all`` on the sweep
pool: every graph of 1 to 4 components and at most 10 vertices, built from
A1-A10, D4-D10, E6-E8, G2, G1 and BC1 by the rule of the benchmark's
transform sweep.  A second covers a few large graphs.  Both pin every
outcome and every smallest witness byte for byte, so a change to the
enumeration engine that alters either shows here.  Memos are cleared
before each graph, so no graph's result comes from another's.

A third digest covers the tables of the component cores themselves, for
every component type of at most 13 extended vertices: the tie
representatives (one A-part per signature) and both option tables.  It
pins the signature partition directly, also where no outcome changes and
on D11 and D12, which no graph of the other two digests holds.

A fourth covers ``extend`` of each of those component types: vertex ids,
norms, edge values, coefficients and component tuples, the layout that
every witness index refers to.
"""

from __future__ import annotations

import hashlib

from dynkintrans.exact import extend
from dynkintrans.graphs import A, BC1, D, DynkinGraph, E, G1, G2, parse_name
from dynkintrans.transforms import (
    _chain,
    _CompCore,
    _decode_graph,
    clear_transform_cache,
    elementary_all,
    tie_all,
)

POOL_MAX_VERTICES = 10
POOL_MAX_COMPONENTS = 4
POOL_SIZE = 819
POOL_DIGEST = "cf4fc2ca895fd434e6f05c8a682d0bf4cdfe39a79e359cc582fd38663d18b2f8"

LARGE = [
    "E8+E8",
    "E8+E7+A3",
    "E8+D6+A2+A1",
    "E7+E7+G2",
    "D9+A1",
    "E6+E6+E6",
    "E8+A2+A2+A2",
    "E8+G2+BC1",
]
LARGE_DIGEST = "4665909423d696eba2e07905ad07ebb2ea8cf5d90e7e23ef6bcbcbe23dc6584e"

CORE_TYPES = (
    [A(k) for k in range(1, 13)] + [D(k) for k in range(4, 13)] + [E(6), E(7), E(8), G2, G1, BC1]
)
CORE_DIGEST = "99de770affde1860f2ed9894ef3efa8e37c6b45281a3c22ad4b5599e385cfc1a"
EXTEND_DIGEST = "a2be8c3097782a5a12e09283397538ccbd48bbf75ab022b3744dda4b7dea420a"


def sweep_pool() -> list[DynkinGraph]:
    """Every multiset of component types within the bounds, sorted by name."""
    types = [A(k) for k in range(1, POOL_MAX_VERTICES + 1)]
    types += [D(k) for k in range(4, POOL_MAX_VERTICES + 1)]
    types += [E(k) for k in (6, 7, 8)]
    types += [G2, G1, BC1]
    pool = {}

    def grow(start: int, comps: list, total: int) -> None:
        if comps:
            g = DynkinGraph(tuple(comps))
            pool[g.name] = g
        if len(comps) == POOL_MAX_COMPONENTS:
            return
        for i in range(start, len(types)):
            if total + types[i].vertex_count <= POOL_MAX_VERTICES:
                grow(i, comps + [types[i]], total + types[i].vertex_count)

    grow(0, [], 0)
    return [pool[name] for name in sorted(pool)]


def transform_digest(graphs: list[DynkinGraph]) -> str:
    h = hashlib.sha256()
    for g in graphs:
        clear_transform_cache()
        h.update(f"{g.name}\n".encode())
        for out, choice in tie_all(g):
            h.update(f"t {out.name} {choice.a} {choice.b}\n".encode())
        for out, choice in elementary_all(g):
            h.update(f"e {out.name} {choice.removed}\n".encode())
    clear_transform_cache()
    return h.hexdigest()


def test_sweep_pool_digest():
    pool = sweep_pool()
    assert len(pool) == POOL_SIZE
    assert transform_digest(pool) == POOL_DIGEST


def test_large_graph_digest():
    assert transform_digest([parse_name(name) for name in LARGE]) == LARGE_DIGEST


def test_core_table_digest():
    h = hashlib.sha256()
    counts = {}
    for ct in CORE_TYPES:
        core = _CompCore(ct)
        pieces = core.residual_types()[0]  # the pieces of each A-part's residual, as hashed
        reps = [(a, tuple(_chain(pieces, core.full ^ a))) for a, _, _ in core.tie_reps()]
        tie = sorted(
            ((descs is None, descs or (), _codes(types)), w)
            for descs, group in core.tie_table().items()
            for types, w in group.items()
        )
        elementary = sorted((_codes(types), w) for types, w in core.elementary_table()[()].items())
        name = DynkinGraph((ct,)).name
        counts[name] = (len(reps), len(tie), len(elementary))
        # tie_reps gives its A-parts in lex order; the digest was taken in ascending mask order
        h.update(f"{name}\n{sorted(reps)}\n{tie}\n{elementary}\n".encode())
    assert h.hexdigest() == CORE_DIGEST, f"(reps, tie entries, elementary entries): {counts}"


def _codes(types: int) -> tuple[int, ...]:
    """The sorted type codes of a multiset, as the digest was taken over them."""
    return tuple(c.sort_key for c in _decode_graph(types).components)


def test_extend_digest():
    h = hashlib.sha256()
    for ct in CORE_TYPES:
        ext = extend(DynkinGraph((ct,)))
        ids = [v.id for v in ext.base.vertices]
        norms = [str(v.norm) for v in ext.base.vertices]
        edges = [(i, j, str(val)) for i, j, val in ext.base.edges]
        h.update(f"{ids}\n{norms}\n{edges}\n{ext.coefficients}\n{ext.components}\n".encode())
    assert h.hexdigest() == EXTEND_DIGEST
