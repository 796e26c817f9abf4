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

from dataclasses import dataclass
from functools import cache
from math import gcd, prod
from typing import Iterable, Iterator, Union

from .graphs import (
    ComponentType,
    DynkinGraph,
    ExtendedGraph,
    LabeledGraph,
    NORM_LONG,
    ORDINARY_EDGE,
    Vertex,
    _CODE_A1,
    _CODE_BC1,
    _CODE_G1,
    _CODE_G2,
    _RANK_A,
    _bits,
    _code,
    _check_once,
    _decode,
    _layout,
    _legs_code,
    _mask_view,
    _recognize,
    classify,
    extend,
)


class InvalidChoice(ValueError):
    """A transformation choice violates one of its defining conditions."""


@dataclass(frozen=True, slots=True)
class ElementaryChoice:
    """Vertex indices of the extended graph removed by an elementary step."""

    removed: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "removed", tuple(sorted(self.removed)))


@dataclass(frozen=True, slots=True)
class TieChoice:
    """The sets A (removed) and B (joined to the new vertex) of a tie step."""

    a: tuple[int, ...]
    b: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", tuple(sorted(self.a)))
        object.__setattr__(self, "b", tuple(sorted(self.b)))


Choice = Union[ElementaryChoice, TieChoice]


def _choice(cls: type, *parts: tuple[int, ...]) -> Choice:
    """A choice from index tuples the fold yields sorted, not sorted again."""
    choice = object.__new__(cls)
    for name, part in zip(cls.__slots__, parts):
        object.__setattr__(choice, name, part)
    return choice


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
    removed = set(choice.removed)
    if len(removed) != len(choice.removed):
        raise InvalidChoice("removed set contains a repeated vertex")
    if not all(removed.intersection(comp) for comp in ext.components):
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
        g = gcd(n_sum, *(ext.coefficients[v] for v in in_a))
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
        removed = set(choice.removed)
        return ext.base.induced(i for i in range(ext.n) if i not in removed)
    _check_tie(ext, choice)
    aset = set(choice.a)
    keep = [i for i in range(ext.n) if i not in aset]
    pos = {v: k for k, v in enumerate(keep)}
    verts = tuple(ext.base.vertices[v] for v in keep) + (Vertex("new", NORM_LONG),)
    edges = [(pos[i], pos[j], val) for i, j, val in ext.base.edges if i in pos and j in pos]
    edges.extend((pos[b], len(keep), ORDINARY_EDGE) for b in choice.b)  # to the new vertex
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
# component types are its integer codes.  A multiset of types is the
# product of one prime per code, 1 when empty: unique factorization makes
# it an exact key, and merging two multisets is one multiplication.  Only
# ``_decode_graph`` decodes a product, where an outcome graph is built.
# One core per component type is shared by every graph containing it, and
# it caches the connected piece: one recognizer walk per distinct piece
# gives its type and an attachment descriptor for each of its vertices,
# from which the shape of any tie fusion follows arithmetically by the
# same legs rule.
#
# Each core holds an option table per transform: the smallest local choice
# per key, where the key is what the choice leaves for the other
# components, the types of its residual pieces and, for a tie, the
# descriptors of its B-vertices that are still open.  ``_fold`` merges the
# tables component by component into states keyed the same way.  A tie
# option takes one A-part per signature: the gcd g of its coefficients and,
# per residual piece, the piece type with its multiset of (descriptor,
# coefficient mod g), held flat as one small int per distinct piece entry:
# the sorted ids, then g.  (Without the mod-g classes, D9+BC1 loses its tie
# outcome A5+A1+A1+A1+A1.)  Its B is at most three B-candidates in distinct
# pieces, one per (piece, descriptor, coefficient mod g) class, the smallest
# vertex of the class, with gcd(g, B-coefficient sum) = 1, a condition on
# the component's own vertices only.  ``_settle`` drops a B that cannot
# fuse and fuses at once one that can take no more; it is then closed.
#
# Both tables visit masks in lex order of the ascending member tuple, the
# order in which witnesses compare, so the first mask met per key is the
# smallest and is kept without comparing tuples.
#
# Witnesses are the same as over the full product of choices.  A-parts of
# one signature give the same options and have equal size, and swapping
# each B-vertex for its class minimum can only lower B.  Choices with one
# key have equal |A|, as the key fixes the number of residual vertices, and
# equal |B| wherever more B may follow: an open key holds one descriptor
# per B-vertex, and a closed one takes no more.  Indices grow from
# component to component, so the lex order of the concatenated (A, B)
# splits by component, and the smallest choice per key stays the smallest
# after any suffix.
#
# A catalog keeps only A/D/E second-step outcomes: ``_winners(g, kind,
# True)`` folds tables cut to their A/D/E entries.  That is exact: types
# only accumulate through the fold, and a lone short root closes as G2 at
# once, so an entry with a G2, G1 or BC1 code never reaches an A/D/E outcome.
# Those three codes hold the primes 2, 3 and 5, so a product is A/D/E
# exactly when it is prime to 30.  ``_reach(g, kind)`` runs that fold, its
# joins and its end (``_ends``) on the keys alone, at about half the cost.
# ---------------------------------------------------------------------------

# The prime of each type code, the next one handed out on first use; it outlives
# clear_transform_cache, so a product keeps its meaning for the whole process.
_PRIME: dict[int, int] = {_CODE_G2: 2, _CODE_G1: 3, _CODE_BC1: 5}
_NOT_ADE = 2 * 3 * 5


def _prime(code: int | None) -> int | None:
    """The prime of a type code; None for no type."""
    if code is not None and code not in _PRIME:
        p = max(_PRIME.values()) + 2  # every smaller prime is taken
        while any(p % q == 0 for q in _PRIME.values()):
            p += 2
        _PRIME[code] = p
    return _PRIME.get(code)


# Outcome graphs are interned: each distinct graph is one shared immutable
# instance, however many results hold it.  Like the primes it outlives
# clear_transform_cache, which drops enumeration results only.
_GRAPH_MEMO: dict[int, DynkinGraph] = {}


def _decode_graph(types: int) -> DynkinGraph:
    """The graph of a type multiset; one shared instance per graph."""
    g = _GRAPH_MEMO.get(types)
    if g is None:
        comps, rest = [], types
        for code, p in _PRIME.items():
            while rest % p == 0:
                rest //= p
                comps.append(_decode(code))
        g = _GRAPH_MEMO[types] = DynkinGraph(tuple(comps))
    return g


# {type multiset: smallest (A, B)}; an elementary step's B is ()
_Winners = dict[int, tuple[tuple[int, ...], tuple[int, ...]]]
# {open descriptors, or None once closed: {residual types: local (A, B)}}
_Table = dict[Union[tuple, None], _Winners]


def _lex_masks(n: int) -> list[int]:
    """Every nonempty mask of ``n`` vertices in lex order of its ascending
    member tuple: {v}, then v joined to each later set, then the later sets."""
    order: list[int] = []
    for v in reversed(range(n)):
        bit = 1 << v
        order = [bit] + [bit | m for m in order] + order
    return order


class _CompCore:
    """Mask-level view of the extended graph of one component type, with
    vertex indices local to the component.  ``piece`` recognizes each
    distinct piece mask once, and each option table is built once."""

    __slots__ = (
        "size", "full", "adj", "coeff", "norm", "gcd_table", "order",
        "_piece_memo", "_tables",
    )

    def __init__(self, ct: ComponentType):
        lay = _layout(ct)  # extend(ct) without its labeled graph: the added vertex comes last
        _check_once(ct, lay.coeffs)
        self.size = k = len(lay.coeffs) + 1
        self.full = (1 << k) - 1
        edges = lay.edges + tuple((i, k - 1, val) for i, val in lay.added_edges)
        self.adj, self.norm = _mask_view(lay.norms + (lay.added_norm,), edges)
        self.coeff = [*lay.coeffs, 1]
        table = [0]  # gcd of the coefficients picked by each submask
        for c in self.coeff:
            table += [gcd(c, t) for t in table]
        self.gcd_table = table
        self.order = _lex_masks(self.size)
        self._piece_memo: dict[int, tuple[int, tuple]] = {}
        self._tables: dict[tuple[str, bool], _Table] = {}  # by (kind, A/D/E only)

    def piece(self, piece: int) -> tuple[int, tuple]:
        """The prime of the type of one connected piece and the (vertex,
        attachment descriptor) pair of each of its vertices, in ascending
        vertex order, from one recognizer walk."""
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
        info = self._piece_memo[piece] = (_prime(code), tuple(desc.items()))
        return info

    def residual_pieces(self) -> list[tuple[int, ...]]:
        """The connected pieces of every residual mask below ``full``, in
        order of their lowest vertex: a mask's lowest vertex joins the pieces
        of the rest that it touches, which all start above it."""
        out: list[tuple[int, ...]] = [()] * self.full
        for r in range(1, self.full):
            low = r & -r
            near, piece, rest = self.adj[low.bit_length() - 1], low, []
            for p in out[r ^ low]:
                if p & near:
                    piece |= p
                else:
                    rest.append(p)
            out[r] = (piece, *rest)
        return out

    def elementary_table(self) -> _Table:
        """Per residual type multiset, the smallest (first in lex order) removed set."""
        residual_pieces = self.residual_pieces()
        primes: dict[int, int] = {}  # piece -> prime of its type
        first: dict[int, int] = {}
        for removed in self.order:
            types = 1
            for piece in residual_pieces[self.full ^ removed]:
                p = primes.get(piece)
                if p is None:
                    p = primes[piece] = self.piece(piece)[0]
                types *= p
            first.setdefault(types, removed)
        return {(): {t: (tuple(_bits(m)), ()) for t, m in first.items()}}

    def tie_reps(self) -> list[tuple[int, tuple[int, ...]]]:
        """The smallest A-part of every tie signature, the first met in lex
        order, in ascending mask order with the pieces of its residual."""
        coeff, gcd_table = self.coeff, self.gcd_table
        residual_pieces = self.residual_pieces()
        # per (piece, g): the id of the piece type with its sorted (descriptor,
        # coefficient mod g) classes, one per distinct entry; a None
        # descriptor sorts as (), below every real one
        ids: dict[tuple, int] = {}
        entry_ids: dict[tuple[int, int], int] = {}
        first: dict[tuple[int, ...], int] = {}  # sorted entry ids, then g
        for a in self.order:
            g = gcd_table[a]
            sig = []
            for piece in residual_pieces[self.full ^ a]:
                i = entry_ids.get((piece, g))
                if i is None:
                    code, pairs = self.piece(piece)
                    entry = (code, tuple(sorted((d or (), coeff[v] % g) for v, d in pairs)))
                    i = entry_ids[(piece, g)] = ids.setdefault(entry, len(ids))
                sig.append(i)
            sig.sort()
            sig.append(g)
            first.setdefault(tuple(sig), a)
        return [(a, residual_pieces[self.full ^ a]) for a in sorted(first.values())]

    def tie_table(self) -> _Table:
        """Per (residual types, open descriptors), the smallest local (A, B):
        A is one of ``tie_reps``, and B at most three of its B-candidates in
        distinct pieces with gcd(g, sum of their coefficients) = 1."""
        coeff = self.coeff
        table: _Table = {}
        for mask, pieces in self.tie_reps():
            g, a = self.gcd_table[mask], tuple(_bits(mask))
            primes, ends, others = [], [], []
            for pid, piece in enumerate(pieces):
                p, pairs = self.piece(piece)
                primes.append(p)
                seen = set()
                for v, d in pairs:  # vertices without a descriptor never fuse
                    cls = (d, coeff[v] % g)
                    if d is not None and cls not in seen:
                        seen.add(cls)
                        (ends if _is_end(d) else others).append((v, pid, d, coeff[v]))
            residual = prod(primes)
            for b, pids, descs, csum in _b_sets(ends, others):
                if gcd(g, csum) != 1 or (join := _settle((), descs)) is None:
                    continue
                extra, still_open = join
                types = residual * extra // prod(primes[i] for i in pids)  # B's pieces fuse
                group = table.setdefault(still_open, {})
                old = group.get(types)
                if old is None or (a, b) < old:
                    group[types] = (a, b)
        return table

    def table(self, kind: str, ade: bool = False) -> _Table:
        """The "elementary" or "tie" option table, built once; with ``ade``,
        only its entries whose residual types are all A/D/E (the whole table
        is then kept only if it was already)."""
        table = self._tables.get((kind, ade))
        if table is None:
            table = self._tables.get((kind, False))
            if table is None:
                table = self.tie_table() if kind == "tie" else self.elementary_table()
            if ade:
                table = {descs: {t: w for t, w in group.items() if gcd(t, _NOT_ADE) == 1}
                         for descs, group in table.items()}
            self._tables[kind, ade] = table
        return table


def _b_sets(ends: list[tuple], others: list[tuple]) -> Iterator[tuple]:
    """(sorted B, pieces, descriptors, coefficient sum) of each B that
    ``_settle`` may keep, from candidates (vertex, piece, descriptor,
    coefficient) that are path ends or not: at most three in distinct pieces,
    as two in one piece close a cycle; a pair needs an end, a triple three."""
    yield (), (), (), 0
    cands = ends + others
    for i, (v0, p0, d0, k0) in enumerate(cands):
        yield (v0,), (p0,), (d0,), k0
        for j in range(i + 1, len(cands) if i < len(ends) else 0):
            v1, p1, d1, k1 = cands[j]
            if p1 != p0:
                yield ((v0, v1) if v0 < v1 else (v1, v0)), (p0, p1), (d0, d1), k0 + k1
                for v2, p2, d2, k2 in ends[j + 1:]:
                    if p2 != p0 and p2 != p1:
                        b = tuple(sorted((v0, v1, v2)))
                        yield b, (p0, p1, p2), (d0, d1, d2), k0 + k1 + k2


# Attachment descriptors: how the new tie vertex may fasten to a residual
# piece at one of its vertices.  None marks attachments that can never give
# a Dynkin shape (norm-1/2 vertices, G2 pieces, fork vertices, interior
# vertices of forked pieces).
_D_PATH = 0  # (0, size, dnear, dfar): path piece, distances to its two ends
_D_FORK = 1  # (1, size, leg_a, leg_b, leg_own): leaf of a one-fork piece
_D_SHORT = 2  # (2,): isolated norm-2/3 vertex; new--short is the G2 shape


def _is_end(d: tuple) -> bool:
    """Whether a descriptor is an end of a path piece."""
    return d[0] == _D_PATH and d[2] == 0


@cache
def _fuse(descs: tuple) -> int | None:
    """The prime of the shape of: new vertex joined to the pieces of
    ``descs``, one descriptor per piece in any order, or standing alone."""
    if len(descs) == 1 and descs[0][0] == _D_SHORT:
        return _prime(_CODE_G2)
    ends = [d[1] for d in descs if _is_end(d)]  # path pieces, joined at an end
    rest = [d for d in descs if not _is_end(d)]
    if not rest:  # a path through the new vertex, or three legs at it
        if len(ends) <= 2:
            return _prime(_code(_RANK_A, sum(ends) + 1))
        return _prime(_legs_code(*sorted(ends))) if len(ends) == 3 else None
    if len(rest) > 1 or len(ends) > 1 or rest[0][0] == _D_SHORT:
        return None
    tail = sum(ends) + 1  # leg through the new vertex and the joined path, if any
    d = rest[0]
    legs = (d[2], d[3], tail) if d[0] == _D_PATH else (d[2], d[3], d[4] + tail)
    return _prime(_legs_code(*sorted(legs)))


@cache
def _settle(held: tuple | None, descs: tuple | None) -> tuple | None:
    """What B, holding descriptors ``held`` and adding ``descs``, can still
    become: (the product of the types it adds, its sorted descriptors if still
    open or None once fused), or None when no Dynkin outcome holds it.  A closed
    side (None) joins only an empty one; a short root fuses only alone; a pair
    needs a path end, and two ends stay open for a third; a triple fuses at once."""
    if held is None or descs is None:
        return (1, None) if held == () or descs == () else None
    descs = tuple(sorted(held + descs))
    n = len(descs)
    if (n < 2 and descs != ((_D_SHORT,),)) or (n == 2 and all(map(_is_end, descs))):
        return 1, descs
    fused = _fuse(descs)
    return None if fused is None else (fused, None)


def _fold(parts: list[tuple[int, _Table]]) -> _Table:
    """Merge option tables, each given with the first vertex index of its
    component, into one table of states in graph indices."""
    states: _Table = {(): {1: ((), ())}}
    for lo, table in parts:
        if not lo:  # the first table, joined to the empty state, is itself
            states = table
            continue
        nxt: _Table = {}
        for descs, group in table.items():
            opts = [(t, (tuple(v + lo for v in a), tuple(v + lo for v in b)))
                    for t, (a, b) in group.items()]  # local indices to graph indices
            for held, held_group in states.items():
                if (join := _settle(held, descs)) is None:
                    continue
                extra, still_open = join
                out = nxt.setdefault(still_open, {})
                for held_types, (held_a, held_b) in held_group.items():
                    base = held_types * extra
                    for types, (a, b) in opts:
                        merged = base * types
                        w = (held_a + a, held_b + b)
                        old = out.get(merged)
                        if old is None or w < old:
                            out[merged] = w
        states = nxt
    return states


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


_MEMO_WINNERS: dict[tuple[str, str, bool], _Winners] = {}  # by (name, kind, ade)
_MEMO_REACH: dict[tuple[str, str], set[int]] = {}  # by (name, kind)


def clear_transform_cache() -> None:
    """Drop the in-process enumeration memos (mostly for benchmarks/tests)."""
    _CORE_MEMO.clear()
    _MEMO_WINNERS.clear()
    _MEMO_REACH.clear()
    _settle.cache_clear()
    _fuse.cache_clear()


def _ends(folded: dict, kind: str, ade: bool) -> Iterator[tuple[int, dict | set]]:
    """(types added at the end, states) of each final group of a fold that is kept."""
    for descs, states in folded.items():  # an elementary fold ends in () and adds nothing
        extra = 1 if descs is None or kind == "elementary" else _fuse(descs)  # the new vertex
        if extra is not None and not (ade and gcd(extra, _NOT_ADE) > 1):
            yield extra, states


def _winners(g: DynkinGraph, kind: str, ade: bool = False) -> _Winners:
    """{type multiset: smallest (A, B)} over the outcomes of ``kind`` on
    ``g``, only the A/D/E ones when ``ade``, built once per graph.  The fold
    keeps the smallest (A, B) per state, which stays the smallest after any
    later component (see the enumeration notes); each open tie state then
    fuses the new vertex with its descriptors, or adds it alone as A1."""
    key = (g.name, kind, ade)
    results = _MEMO_WINNERS.get(key)
    if results is not None:
        return results
    folded = _fold([(lo, core.table(kind, ade)) for lo, core in _core(g)])
    results = {}
    for extra, states in _ends(folded, kind, ade):
        for types, w in states.items():
            types *= extra
            old = results.get(types)
            if old is None or w < old:
                results[types] = w
    _MEMO_WINNERS[key] = results
    return results


def _reach(g: DynkinGraph, kind: str) -> set[int]:
    """The keys of ``_winners(g, kind, True)``, read from it if built, else
    from the same fold without witnesses; built once per graph."""
    key = (g.name, kind)
    if key in _MEMO_REACH:
        return _MEMO_REACH[key]
    reach = _MEMO_WINNERS.get((*key, True))
    if reach is None:
        states: dict = {(): {1}}
        for _, core in _core(g):
            nxt: dict = {}
            for descs, group in core.table(kind, True).items():
                for held, held_types in states.items():
                    if join := _settle(held, descs):  # (types it adds, still open)
                        products = [join[0] * h * t for h in held_types for t in group]
                        nxt.setdefault(join[1], set()).update(products)
            states = nxt
        reach = [t * x for x, ends in _ends(states, kind, True) for t in ends]
    reach = _MEMO_REACH[key] = set(reach)
    return reach


def elementary_all(g: DynkinGraph) -> list[tuple[DynkinGraph, ElementaryChoice]]:
    """All outcomes of elementary transformations of ``g``.

    Returns pairs (outcome, witness choice), deduplicated by canonical name
    and sorted by it; per outcome the witness with the smallest removed
    index tuple is kept.  Removing exactly the added vertices reproduces
    ``g``, and removing everything yields the empty graph.
    """
    out = [(_decode_graph(t), _choice(ElementaryChoice, a))
           for t, (a, _) in _winners(g, "elementary").items()]
    out.sort(key=lambda pair: pair[0].name)
    return out


def tie_all(g: DynkinGraph) -> list[tuple[DynkinGraph, TieChoice]]:
    """All outcomes of tie transformations of ``g``.

    Covers every admissible (A, B) over the extended graph: at least one
    A-vertex per component, A and B disjoint, #B <= 3, per-component gcd of
    the A-coefficients and the B-coefficient sum equal to 1.  Only choices
    whose outcome is a Dynkin graph are kept; outcomes are deduplicated by
    canonical name with the smallest (A, B) witness.
    """
    seen: dict[tuple, tuple] = {}  # equal A-parts share one tuple, as the results keep them
    out = [(_decode_graph(t), _choice(TieChoice, seen.setdefault(a, a), b))
           for t, (a, b) in _winners(g, "tie").items()]
    out.sort(key=lambda pair: pair[0].name)
    return out
