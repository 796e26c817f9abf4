"""Elementary and tie transformations of Dynkin graphs.

Both transformations start by replacing every connected component with its
extended graph carrying maximal-root coefficients (``graphs.extend``).

* An elementary transformation removes at least one vertex from each
  component of the extended graph.  Every such removal yields a Dynkin
  graph again.
* A tie transformation chooses disjoint vertex sets A and B of the
  extended graph, subject to #B <= 3, at least one A-vertex per component,
  and a per-component gcd-1 condition on the attached coefficients; it
  removes A and joins one new norm-2 vertex to every vertex of B.  Only
  choices whose outcome is again a Dynkin graph are kept.

``elementary_all`` and ``tie_all`` find the outcome of every admissible
choice, deduplicate outcomes by canonical name and keep one replayable
witness per distinct outcome, the smallest choice that gives it.
``apply`` replays a single recorded choice through the generic
labeled-graph path, independently of the enumeration engine.

Choice indices always refer to the documented vertex ordering of
``graphs.extend`` on the input graph, so witnesses are stable across runs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd
from typing import Iterable, Union

from .graphs import (
    ComponentType,
    DynkinGraph,
    ExtendedGraph,
    LabeledGraph,
    NORM_LONG,
    ORDINARY_EDGE,
    Vertex,
    _CODE_A1,
    _CODE_G1,
    _CODE_G2,
    _RANK_A,
    _bits,
    _code,
    _decode,
    _legs_code,
    _mask_view,
    _pieces,
    _recognize,
    canonical_name,
    classify,
    extend,
)


class InvalidChoice(ValueError):
    """A transformation choice violates one of its defining conditions."""


def _sorted_tuple(ids: Iterable[int]) -> tuple[int, ...]:
    """``ids`` as a sorted tuple; an already sorted tuple is kept, not copied,
    so choices that share their A-part share one tuple."""
    t = tuple(ids)
    s = tuple(sorted(t))
    return t if s == t else s


@dataclass(frozen=True, slots=True)
class ElementaryChoice:
    """Vertex indices of the extended graph removed by an elementary step."""

    removed: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "removed", _sorted_tuple(self.removed))


@dataclass(frozen=True, slots=True)
class TieChoice:
    """The sets A (removed) and B (joined to the new vertex) of a tie step."""

    a: tuple[int, ...]
    b: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", _sorted_tuple(self.a))
        object.__setattr__(self, "b", _sorted_tuple(self.b))


Choice = Union[ElementaryChoice, TieChoice]


@dataclass(frozen=True)
class TransformStep:
    """One recorded transformation: replaying ``choice`` on ``input`` gives ``output``."""

    choice: Choice
    input: DynkinGraph
    output: DynkinGraph

    @property
    def kind(self) -> str:
        return "elementary" if isinstance(self.choice, ElementaryChoice) else "tie"

    def replay(self) -> DynkinGraph:
        return apply(self.input, self.choice)


def _validate_indices(ext: ExtendedGraph, ids: Iterable[int], what: str) -> None:
    for i in ids:
        if not (0 <= i < ext.n):
            raise InvalidChoice(f"{what} contains vertex index {i}, graph has {ext.n} vertices")


def _check_elementary(ext: ExtendedGraph, choice: ElementaryChoice) -> None:
    _validate_indices(ext, choice.removed, "removed set")
    if len(set(choice.removed)) != len(choice.removed):
        raise InvalidChoice("removed set contains a repeated vertex")
    removed = set(choice.removed)
    for comp in ext.components:
        if not removed.intersection(comp):
            raise InvalidChoice(
                "elementary transformation must remove at least one vertex per component"
            )


def _check_tie(ext: ExtendedGraph, choice: TieChoice) -> None:
    _validate_indices(ext, choice.a, "A")
    _validate_indices(ext, choice.b, "B")
    aset, bset = set(choice.a), set(choice.b)
    if len(aset) != len(choice.a) or len(bset) != len(choice.b):
        raise InvalidChoice("A or B contains a repeated vertex")
    if aset & bset:
        raise InvalidChoice("condition <a> violated: A and B intersect")
    if len(bset) > 3:
        raise InvalidChoice(f"#B = {len(bset)} exceeds the bound 0 <= #B <= 3")
    for comp in ext.components:
        in_a = [v for v in comp if v in aset]
        if not in_a:
            raise InvalidChoice("tie transformation needs at least one A-vertex per component")
        n_sum = sum(ext.coefficients[v] for v in comp if v in bset)
        g = n_sum
        for v in in_a:
            g = gcd(g, ext.coefficients[v])
        if g != 1:
            raise InvalidChoice(
                "condition <b> violated: coefficient gcd on a component is "
                f"{g}, not 1"
            )


def apply_labeled(g: DynkinGraph, choice: Choice) -> LabeledGraph:
    """The labeled graph produced by one choice, before recognition.

    For an elementary choice this is the extended graph minus the removed
    vertices; for a tie choice the extended graph minus A plus one new
    norm-2 vertex joined to every vertex of B with inner product -1.
    """
    ext = extend(g)
    if isinstance(choice, ElementaryChoice):
        _check_elementary(ext, choice)
        keep = [i for i in range(ext.n) if i not in set(choice.removed)]
        return ext.base.induced(keep)
    _check_tie(ext, choice)
    keep = [i for i in range(ext.n) if i not in set(choice.a)]
    pos = {v: k for k, v in enumerate(keep)}
    verts = tuple(ext.base.vertices[v] for v in keep) + (Vertex("new", NORM_LONG),)
    new_idx = len(keep)
    edges = [
        (pos[i], pos[j], val)
        for i, j, val in ext.base.edges
        if i in pos and j in pos
    ]
    edges.extend((pos[b], new_idx, ORDINARY_EDGE) for b in choice.b)
    return LabeledGraph(verts, tuple(edges))


def apply(g: DynkinGraph, choice: Choice) -> DynkinGraph:
    """Replay one recorded choice; agrees with the *_all entry it came from.

    Raises InvalidChoice when the choice violates its defining conditions
    and NotADynkinGraph when a tie outcome fails recognition.
    """
    return classify(apply_labeled(g, choice))


# ---------------------------------------------------------------------------
# Fast enumeration core.
#
# The engine mirrors extend(g) as bitmask data and names residual pieces
# with the shape recognizer of ``graphs`` that ``classify`` uses, so
# component types are its integer codes and result multisets are plain
# sorted int tuples.  One core per component type is shared by every graph
# containing it.  Elementary and tie enumeration range over every submask of
# a component, and the same few connected pieces make up all their
# residuals, so the core caches the piece, not the residual: one recognizer
# walk per distinct piece gives its type and an attachment descriptor for
# each of its vertices, from which the shape of any tie fusion follows
# arithmetically by the same legs rule.
#
# Tie enumeration works on a quotient.  On one component, what an A-part
# contributes depends only on its signature: the gcd g of its coefficients
# and, per residual piece, the piece type with the multiset of (attachment
# descriptor, coefficient mod g) over the piece's vertices; that entry is
# built once per (piece, g) and the signature is their sorted tuple.  Each
# component keeps the smallest A-part per signature, and for that A-part one
# B-candidate per (piece, descriptor, coefficient mod g) class, the
# smallest vertex of the class.  Witnesses are the same as over the full
# product: A-parts of one signature have equal size, so the lex order of
# the concatenated A splits by component; B-vertices lie in distinct
# pieces, so swapping each for its class minimum can only lower B; and the
# gcd condition reads the coefficients mod g only.
# ---------------------------------------------------------------------------

# Outcome graphs are interned: each distinct graph is one shared immutable
# instance, however many results hold it.  Like the component-type table it
# outlives clear_transform_cache, which drops enumeration results only.
_GRAPH_MEMO: dict[tuple[int, ...], DynkinGraph] = {}


def _decode_graph(codes: tuple[int, ...]) -> DynkinGraph:
    """The graph of a sorted code tuple; one shared instance per graph."""
    g = _GRAPH_MEMO.get(codes)
    if g is None:
        g = DynkinGraph(tuple(_decode(c) for c in codes))
        _GRAPH_MEMO[codes] = g
    return g


class _CompCore:
    """Mask-level view of the extended graph of one component type; vertex
    indices are local to the component.

    The connected piece is the cached unit: ``piece`` recognizes each
    distinct piece mask once, however many residual masks contain it.
    """

    __slots__ = (
        "size", "full", "adj", "coeff", "norm", "gcd_table", "abits",
        "_piece_memo", "_tie_reps",
    )

    def __init__(self, ct: ComponentType):
        ext = extend(DynkinGraph((ct,)))
        self.size = ext.n
        self.full = (1 << self.size) - 1
        self.adj, self.norm = _mask_view(ext.base)
        self.coeff = list(ext.coefficients)
        # gcd of the coefficients picked by each submask, and the submask's
        # member list in ascending order
        table = [0] * (1 << self.size)
        abits: list[tuple[int, ...]] = [()] * (1 << self.size)
        for m in range(1, 1 << self.size):
            low = m & -m
            v = low.bit_length() - 1
            rest = m ^ low
            table[m] = gcd(table[rest], self.coeff[v])
            abits[m] = (v,) + abits[rest]
        self.gcd_table = table
        self.abits = abits
        self._piece_memo: dict[int, tuple[int, tuple]] = {}
        self._tie_reps: list["_TieRep"] | None = None

    def piece(self, piece: int) -> tuple[int, tuple]:
        """Type code of one connected piece and the (vertex, attachment
        descriptor) pair of each of its vertices, in ascending vertex order.

        One recognizer walk gives both.
        """
        info = self._piece_memo.get(piece)
        if info is not None:
            return info
        code, legs = _recognize(self.adj, self.norm, piece)
        desc: dict[int, tuple | None] = dict.fromkeys(_bits(piece))
        if len(legs) == 3:  # D or E: only the leaves can take the new vertex
            size = piece.bit_count()
            for k, leg in enumerate(legs):
                others = [len(legs[j]) for j in range(3) if j != k]
                desc[leg[-1]] = (_D_FORK, size, others[0], others[1], len(leg))
        elif code == _CODE_G1:
            desc[legs[0][0]] = (_D_SHORT,)
        elif code <= _CODE_A1:  # a path; G2 and BC1 sort after A1, take nothing
            path = legs[0]
            size = len(path)
            for d1, v in enumerate(path):
                d2 = size - 1 - d1
                desc[v] = (_D_PATH, size, d1, d2) if d1 <= d2 else (_D_PATH, size, d2, d1)
        info = self._piece_memo[piece] = (code, tuple(desc.items()))
        return info

    def tie_reps(self) -> list["_TieRep"]:
        """The smallest A-part of every tie signature, in ascending mask order."""
        reps = self._tie_reps
        if reps is None:
            adj, coeff = self.adj, self.coeff
            # per (piece, g): the piece type with its sorted (descriptor,
            # coefficient mod g) classes; a None descriptor sorts as (),
            # below every real one
            entries: dict[tuple[int, int], tuple] = {}
            smallest: dict[tuple, int] = {}
            for a in range(1, self.full + 1):
                g = self.gcd_table[a]
                sig_pieces = []
                for piece in _pieces(adj, self.full ^ a):
                    entry = entries.get((piece, g))
                    if entry is None:
                        code, pairs = self.piece(piece)
                        classes = sorted((d or (), coeff[v] % g) for v, d in pairs)
                        entry = entries[(piece, g)] = (code, tuple(classes))
                    sig_pieces.append(entry)
                sig = (g, tuple(sorted(sig_pieces)))
                old = smallest.get(sig)
                if old is None or self.abits[a] < self.abits[old]:
                    smallest[sig] = a
            reps = [_TieRep(self, a) for a in sorted(smallest.values())]
            self._tie_reps = reps
        return reps


# Attachment descriptors: how the new tie vertex may fasten to a residual
# piece at one of its vertices.  None marks attachments that can never give
# a Dynkin shape (norm-1/2 vertices, G2 pieces, fork vertices, interior
# vertices of forked pieces).
_D_PATH = 0  # (0, size, dnear, dfar): path piece, distances to its two ends
_D_FORK = 1  # (1, size, leg_a, leg_b, leg_own): leaf of a one-fork piece
_D_SHORT = 2  # (2,): isolated norm-2/3 vertex; new--short is the G2 shape


def _fuse1(d: tuple) -> int | None:
    """Shape of: new vertex attached to one piece."""
    tag = d[0]
    if tag == _D_PATH:
        _, size, dnear, dfar = d
        if dnear == 0:
            return _code(_RANK_A, size + 1)
        return _legs_code(1, dnear, dfar)
    if tag == _D_SHORT:
        return _CODE_G2
    _, _size, la, lb, own = d
    legs = sorted((la, lb, own + 1))
    return _legs_code(*legs)


def _fuse2(d1: tuple, d2: tuple) -> int | None:
    """Shape of: new vertex joining two distinct pieces."""
    t1, t2 = d1[0], d2[0]
    if t1 == _D_SHORT or t2 == _D_SHORT:
        return None
    end1 = t1 == _D_PATH and d1[2] == 0
    end2 = t2 == _D_PATH and d2[2] == 0
    if end1 and end2:
        return _code(_RANK_A, d1[1] + d2[1] + 1)
    if not (end1 or end2):
        return None  # two branch points
    if not end1:
        d1, d2 = d2, d1  # d1 is the plain path end, d2 carries the branching
    tail = d1[1] + 1  # leg through the new vertex and the whole path piece
    if d2[0] == _D_PATH:
        legs = sorted((d2[2], d2[3], tail))
    else:
        _, _size, la, lb, own = d2
        legs = sorted((la, lb, own + tail))
    return _legs_code(*legs)


def _fuse3(d1: tuple, d2: tuple, d3: tuple) -> int | None:
    """Shape of: new vertex joining three distinct pieces (it is the fork)."""
    for d in (d1, d2, d3):
        if d[0] != _D_PATH or d[2] != 0:
            return None
    legs = sorted((d1[1], d2[1], d3[1]))
    return _legs_code(*legs)


class _TieRep:
    """One tie signature of a component: its smallest A-part and B-candidates.

    ``cands`` holds one entry (vertex, piece id, descriptor, coefficient,
    piece type) per (piece, descriptor, coefficient mod g) class, for its
    smallest vertex, in ascending vertex order; vertices without an
    attachment descriptor can never take part in a fusion and are left out.
    """

    __slots__ = ("a", "g", "types", "cands")

    def __init__(self, comp: _CompCore, a: int):
        g = comp.gcd_table[a]
        self.a = comp.abits[a]
        self.g = g
        types = []
        cands = []
        for pid, piece in enumerate(_pieces(comp.adj, comp.full ^ a)):
            code, pairs = comp.piece(piece)
            types.append(code)
            seen = set()
            for v, d in pairs:
                cls = (d, comp.coeff[v] % g)
                if d is not None and cls not in seen:
                    seen.add(cls)
                    cands.append((v, pid, d, comp.coeff[v], code))
        cands.sort()  # by vertex across pieces, so every B combination is sorted
        self.types = tuple(types)
        self.cands = tuple(cands)


_CORE_MEMO: dict[ComponentType, _CompCore] = {}


def _core(g: DynkinGraph) -> list[tuple[int, _CompCore]]:
    """(first vertex index, core) of every component of ``extend(g)``.

    ``extend`` lays the components out one after the other, each in the
    vertex order of its own extended graph, so one core per component type
    serves every graph that contains it.
    """
    out = []
    lo = 0
    for ct in g.components:
        core = _CORE_MEMO.get(ct)
        if core is None:
            core = _CORE_MEMO[ct] = _CompCore(ct)
        out.append((lo, core))
        lo += core.size
    return out


_MEMO_ELEMENTARY: dict[str, list[tuple[DynkinGraph, ElementaryChoice]]] = {}
_MEMO_TIE: dict[str, list[tuple[DynkinGraph, TieChoice]]] = {}


def clear_transform_cache() -> None:
    """Drop the in-process enumeration memos (mostly for benchmarks/tests)."""
    _CORE_MEMO.clear()
    _MEMO_ELEMENTARY.clear()
    _MEMO_TIE.clear()


def elementary_all(g: DynkinGraph) -> list[tuple[DynkinGraph, ElementaryChoice]]:
    """All outcomes of elementary transformations of ``g``.

    Returns pairs (outcome, witness choice), deduplicated by canonical name
    and sorted by it; per outcome the witness with the smallest removed
    index tuple is kept.  Removing exactly the added vertices reproduces
    ``g``, and removing everything yields the empty graph.
    """
    key = canonical_name(g)
    cached = _MEMO_ELEMENTARY.get(key)
    if cached is not None:
        return list(cached)
    per_comp: list[dict[tuple[int, ...], tuple[int, ...]]] = []
    for lo, comp in _core(g):
        opts: dict[tuple[int, ...], tuple[int, ...]] = {}
        for removed in range(1, comp.full + 1):
            residual = comp.full ^ removed
            ts = tuple(sorted(comp.piece(p)[0] for p in _pieces(comp.adj, residual)))
            enc = comp.abits[removed]
            old = opts.get(ts)
            if old is None or enc < old:
                opts[ts] = enc
        per_comp.append({ts: tuple(v + lo for v in enc) for ts, enc in opts.items()})
    results: dict[tuple[int, ...], tuple[int, ...]] = {}
    for combo in itertools.product(*(list(o.items()) for o in per_comp)):
        types = tuple(sorted(t for ts, _ in combo for t in ts))
        enc = tuple(v for _, part in combo for v in part)
        old = results.get(types)
        if old is None or enc < old:
            results[types] = enc
    out = [
        (_decode_graph(types), ElementaryChoice(enc)) for types, enc in results.items()
    ]
    out.sort(key=lambda pair: canonical_name(pair[0]))
    _MEMO_ELEMENTARY[key] = out
    return list(out)


def tie_all(g: DynkinGraph) -> list[tuple[DynkinGraph, TieChoice]]:
    """All outcomes of tie transformations of ``g``.

    Covers every admissible (A, B) over the extended graph: at least one
    A-vertex per component, A and B disjoint, #B <= 3, per-component gcd of
    the A-coefficients and the B-coefficient sum equal to 1.  Only choices
    whose outcome is a Dynkin graph are kept; outcomes are deduplicated by
    canonical name with the smallest (A, B) witness.

    The enumeration runs over one A-part per component signature and one
    B-candidate per vertex class (see the notes on the enumeration core),
    which finds every outcome and the same smallest witness as the full
    product of A-submasks and vertex subsets.
    """
    key = canonical_name(g)
    cached = _MEMO_TIE.get(key)
    if cached is not None:
        return list(cached)
    cores = _core(g)
    results: dict[tuple[int, ...], tuple[tuple[int, ...], tuple[int, ...]]] = {}

    if not cores:
        # The empty graph has no components; A = B = {} and the new vertex
        # lands isolated.
        results[(_CODE_A1,)] = ((), ())
    else:
        combinations = itertools.combinations
        resget = results.get
        # per component, its signature representatives in graph indices:
        # (A-part, gcd, residual types, B-candidates), where a B-candidate is
        # (vertex, (component, piece id), descriptor, coefficient, piece type)
        options = [
            [
                (
                    tuple(v + lo for v in rep.a),
                    rep.g,
                    rep.types,
                    [(v + lo, (ci, pid), d, c, t) for v, pid, d, c, t in rep.cands],
                )
                for rep in core.tie_reps()
            ]
            for ci, (lo, core) in enumerate(cores)
        ]
        for combo in itertools.product(*options):
            bad = [(ci, opt[1]) for ci, opt in enumerate(combo) if opt[1] != 1]
            if len(bad) > 3:
                continue  # every bad component needs a B-vertex of its own
            a_tuple = tuple(v for opt in combo for v in opt[0])
            all_types = [t for opt in combo for t in opt[2]]
            if not bad:
                types = tuple(sorted(all_types + [_CODE_A1]))
                old = resget(types)
                if old is None or (a_tuple, ()) < old:
                    results[types] = (a_tuple, ())
            cands = [c for opt in combo for c in opt[3]]
            for k in (1, 2, 3):
                for bs in combinations(cands, k):
                    # two B-vertices in one piece would close a cycle
                    if k == 1:
                        fused = _fuse1(bs[0][2])
                    elif k == 2:
                        c0, c1 = bs
                        if c0[1] == c1[1]:
                            continue
                        fused = _fuse2(c0[2], c1[2])
                    else:
                        c0, c1, c2 = bs
                        if c0[1] == c1[1] or c0[1] == c2[1] or c1[1] == c2[1]:
                            continue
                        fused = _fuse3(c0[2], c1[2], c2[2])
                    if fused is None:
                        continue
                    if bad:
                        ok = True
                        for ci, gc in bad:
                            nsum = 0
                            for c in bs:
                                if c[1][0] == ci:
                                    nsum += c[3]
                            if gcd(gc, nsum) != 1:
                                ok = False
                                break
                        if not ok:
                            continue
                    types_list = list(all_types)
                    for c in bs:
                        types_list.remove(c[4])
                    types_list.append(fused)
                    types = tuple(sorted(types_list))
                    b = tuple(c[0] for c in bs)
                    old = resget(types)
                    if old is None or (a_tuple, b) < old:
                        results[types] = (a_tuple, b)
    out = [
        (_decode_graph(types), TieChoice(a, b)) for types, (a, b) in results.items()
    ]
    out.sort(key=lambda pair: canonical_name(pair[0]))
    _MEMO_TIE[key] = out
    return list(out)
