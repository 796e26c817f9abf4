"""Exact labeled and extended graphs, and the elementary and tie
transformations of Dynkin graphs.

Vertices carry exact rational norms and edges carry exact rational inner
products: -1 for every ordinary edge, -2 for the doubled edge of the
extended A1 graph, -2/3 for the doubled edge of the extended G1 graph.
The layouts of ``graphs`` hold norm codes and plain edge values; ``extend``
attaches the ``Fraction`` values to them, and ``check_extension_identity``
validates each layout's coefficient table with them.  One shape recognizer
names the pieces of a graph, for ``classify`` and for the enumeration engine.

Both transformations start by replacing every connected component with its
extended graph carrying maximal-root coefficients (``extend``).

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
Both refuse a graph over the engine's size budget with GraphTooLarge.
``apply`` replays a single recorded choice through the generic
labeled-graph path, independently of the enumeration engine.

Choice indices always refer to the documented vertex ordering of
``extend`` on the input graph, so witnesses are stable across runs.

A warm ``check`` reads nothing here, so it loads neither this module nor ``fractions``.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from functools import cache
from math import gcd, prod

from .graphs import (_FAMILY_RANK, _HALF, _SUB_LIMIT, Choice, ComponentType, DynkinGraph,
                     ElementaryChoice, NotADynkinGraph, TieChoice, TransformStep, _code,
                     _layout, _named_layouts, _set, _Value)

NORM_LONG = Fraction(2)
NORM_HALF = Fraction(1, 2)
NORM_SHORT = Fraction(2, 3)

ORDINARY_EDGE = Fraction(-1)

_NORMS = (NORM_LONG, NORM_HALF, NORM_SHORT)  # by the norm code of ``graphs``


class Vertex(_Value):
    """A vertex with an opaque id and an exact norm (2, 1/2 or 2/3)."""

    __slots__ = ("id", "norm")


class LabeledGraph(_Value):
    """Vertices with norms plus edges labeled by nonzero inner products.

    Edges are stored as ``(i, j, value)`` with ``i < j``; an absent pair
    means inner product 0.  The Gram matrix (diagonal = norms,
    off-diagonal = edge labels) is symmetric by construction.
    """

    __slots__ = ("vertices", "edges")

    def __init__(self, vertices: tuple[Vertex, ...], edges: Iterable[tuple]) -> None:
        n = len(vertices)
        labels: dict[tuple[int, int], Fraction] = {}
        for i, j, val in edges:
            if i == j:
                raise ValueError(f"self-edge at vertex {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i},{j}) out of range")
            if val == 0:
                raise ValueError(f"zero inner product stored for edge ({i},{j})")
            if i > j:
                i, j = j, i
            if (i, j) in labels:
                raise ValueError(f"duplicate edge ({i},{j})")
            labels[i, j] = Fraction(val)
        _set(self, "vertices", vertices)
        _set(self, "edges", tuple((i, j, val) for (i, j), val in sorted(labels.items())))

    @property
    def n(self) -> int:
        return len(self.vertices)

    def induced(self, indices: Iterable[int]) -> "LabeledGraph":
        """The induced subgraph on the given vertex indices."""
        idx = sorted(set(indices))
        pos = {v: k for k, v in enumerate(idx)}
        verts = tuple(self.vertices[v] for v in idx)
        edges = tuple(
            (pos[i], pos[j], val)
            for i, j, val in self.edges
            if i in pos and j in pos
        )
        return LabeledGraph(verts, edges)


class ExtendedGraph(_Value):
    """A labeled graph with one added vertex per component and root coefficients.

    ``coefficients[i]`` is the coefficient of vertex ``i`` in the maximal
    root of its component; every added vertex, which stands for the
    negative of the maximal root, carries coefficient 1.  ``components``
    lists the vertex indices of each connected component in the documented
    deterministic ordering used by all transformation witnesses; the last
    index of each is its added vertex.
    """

    __slots__ = ("base", "coefficients", "components")

    @property
    def n(self) -> int:
        return self.base.n


def extend(g: DynkinGraph) -> ExtendedGraph:
    """Replace each component by its extended graph and attach coefficients.

    Per component one vertex standing for the negative of the maximal root
    is appended after the base vertices (role ``x``, coefficient 1); the
    base vertices carry the coefficients of the maximal root.  Each
    coefficient table is checked by check_extension_identity the first time
    it is used for its component type.
    """
    verts: list[Vertex] = []
    edges: list[tuple] = []
    coeffs: list[int] = []
    comps: list[tuple[int, ...]] = []
    offset = 0
    for ct, lay, ids in _named_layouts(g):
        _check_once(ct, lay.coeffs)
        verts.extend(Vertex(vid, _NORMS[code]) for vid, code in zip(ids, lay.norms))
        edges.extend((offset + i, offset + j, val) for i, j, val in lay.edges)
        coeffs.extend(lay.coeffs)
        comps.append(tuple(range(offset, offset + len(ids))))
        offset += len(ids)
    return ExtendedGraph(
        base=LabeledGraph(tuple(verts), tuple(edges)),
        coefficients=tuple(coeffs),
        components=tuple(comps),
    )


@cache  # a pair that fails raises, so only pairs that passed are kept
def _check_once(ct: ComponentType, coeffs: tuple[int, ...]) -> None:
    """check_extension_identity(ct), once per (type, coefficient table) pair."""
    check_extension_identity(ct)


def check_extension_identity(ct: ComponentType) -> None:
    """Raise AssertionError unless sum_i n_i (i, j) == 0 for each vertex j of the extended
    component ``ct``, summed over its layout's edges, with n_x = 1 for the added vertex x."""
    lay = _layout(ct)
    n = lay.coeffs[:-1] + (1,)
    acc = [c * _NORMS[code] for c, code in zip(n, lay.norms)]
    for i, j, val in lay.edges:
        val = Fraction(val)
        acc[i], acc[j] = acc[i] + n[j] * val, acc[j] + n[i] * val
    if any(acc):
        raise AssertionError(f"maximal-root coefficient table broken for {ct.name}")


# ---------------------------------------------------------------------------
# Shape recognition.
#
# One recognizer names every piece, for ``classify`` and for the enumeration
# engine below.  It works on masks: ``adj[v]`` is the neighbour mask of vertex
# v, ``norm[v]`` its norm code, and a piece is the mask of one connected vertex
# set.  Component types are integer codes whose natural order is the canonical
# component order (family rank ascending, subscript descending); the engine
# keys a multiset of them as a product of primes.
# ---------------------------------------------------------------------------

_NORM_CODE = {norm: code for code, norm in enumerate(_NORMS)}

_FAMILY_BY_RANK = {rank: fam for fam, rank in _FAMILY_RANK.items()}
_RANK_D, _RANK_A = _FAMILY_RANK["D"], _FAMILY_RANK["A"]

_CODE_A1 = _code(_RANK_A, 1)
_CODE_G2 = _code(_FAMILY_RANK["G"], 2)
_CODE_G1 = _code(_FAMILY_RANK["G"], 1)
_CODE_BC1 = _code(_FAMILY_RANK["BC"], 1)
_SINGLE_CODES = (_CODE_A1, _CODE_BC1, _CODE_G1)  # one vertex, by norm code
_E_CODES = {(1, 2, n - 4): _code(_FAMILY_RANK["E"], n) for n in (6, 7, 8)}


@cache
def _decode(code: int) -> ComponentType:
    rank, low = divmod(code, _SUB_LIMIT)
    return ComponentType(_FAMILY_BY_RANK[rank], _SUB_LIMIT - low)


def _legs_code(l1: int, l2: int, l3: int) -> int | None:
    """Type code of a one-fork tree with sorted leg lengths l1 <= l2 <= l3:
    (1, 1, l) is D(l+3), (1, 2, 2..4) is E6..E8, anything else is None."""
    if l1 == 1 and l2 == 1:
        return _code(_RANK_D, l3 + 3)
    return _E_CODES.get((l1, l2, l3))


def _bits(mask: int) -> list[int]:
    """The vertices of a mask in ascending order."""
    out = []
    while mask:
        b = mask & -mask
        mask ^= b
        out.append(b.bit_length() - 1)
    return out


def _pieces(adj: list[int], mask: int) -> list[int]:
    """The connected pieces of ``mask``, in order of their lowest vertex."""
    pieces = []
    while mask:
        piece = frontier = mask & -mask  # grown from the lowest vertex left
        while frontier:
            grow = 0
            while frontier:
                b = frontier & -frontier
                frontier ^= b
                grow |= adj[b.bit_length() - 1]
            frontier = grow & mask & ~piece
            piece |= frontier
        pieces.append(piece)
        mask ^= piece
    return pieces


def _walk(adj: list[int], piece: int, prev: int, cur: int) -> list[int]:
    """Vertices from ``cur`` onward, away from ``prev``, to the end of a
    stretch of vertices of degree at most 2."""
    out = [cur]
    seen = (1 << prev) | (1 << cur)
    nxt = adj[cur] & piece & ~seen
    while nxt:
        cur = nxt.bit_length() - 1
        out.append(cur)
        seen |= nxt
        nxt = adj[cur] & piece & ~seen
    return out


def _adjacency(n: int, edges: Iterable[tuple]) -> list[int]:
    """The neighbour mask of each of ``n`` vertices, from the (i, j, value) edges."""
    adj = [0] * n
    for i, j, _val in edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return adj


def _recognize(adj: list[int], norm: Sequence[int], piece: int) -> int:
    """Type code of one connected piece, or NotADynkinGraph, from one pass
    over its norms, degrees and leaves.  A Dynkin fork has two leaves next to
    it, legs (1, 1, l), or one there and one a step out, legs (1, 2, l); other
    forked trees walk their legs, for ``_legs_code`` to reject."""
    size = piece.bit_count()
    if size == 1:
        return _SINGLE_CODES[norm[piece.bit_length() - 1]]
    odd = half = ends = forks = fork = high = leaves = near_leaf = 0
    rest = piece
    while rest:
        b = rest & -rest
        rest ^= b
        v = b.bit_length() - 1
        if norm[v]:
            odd += 1
            half |= norm[v] == _HALF
        near = adj[v] & piece
        d = near.bit_count()
        ends += d  # edge ends
        if d == 1:
            leaves |= b
            near_leaf |= near
        elif d > 2:
            high = max(high, d)
            forks += 1
            fork = v
    if odd:
        if half:
            raise NotADynkinGraph("norm-1/2 vertex in a component of size > 1")
        if size == 2 and odd == 1:
            return _CODE_G2
        raise NotADynkinGraph(
            f"norm-2/3 vertex in a component of size {size} that is not the G2 shape"
        )
    if ends // 2 != size - 1:
        raise NotADynkinGraph(f"component with {ends // 2} edges on {size} vertices")
    if high > 3:
        raise NotADynkinGraph("vertex of degree > 3")
    if not forks:
        return _code(_RANK_A, size)
    if forks > 1:
        raise NotADynkinGraph("more than one trivalent vertex")
    near = adj[fork] & piece
    if (near & leaves).bit_count() > 1:
        lengths = [1, 1, size - 3]
    elif near & leaves and near & near_leaf:  # a leaf next to the fork, one two steps out
        lengths = [1, 2, size - 4]
    else:
        lengths = sorted(map(len, _legs(adj, piece)))
    code = _legs_code(*lengths)
    if code is None:
        raise NotADynkinGraph(f"trivalent tree with leg lengths {lengths}")
    return code


def _legs(adj: list[int], piece: int) -> list[list[int]]:
    """The legs of a path or one-fork tree: a path is one leg, from the end
    with the smaller index; a forked piece has three, each read outward from
    the fork (fork excluded), in ascending order of their first vertex."""
    verts = _bits(piece)
    degs = [(adj[v] & piece).bit_count() for v in verts]
    if 3 in degs:
        fork = verts[degs.index(3)]
        return [_walk(adj, piece, fork, first) for first in _bits(adj[fork] & piece)]
    end = verts[degs.index(min(degs))]  # degree 1, or 0 for a single vertex
    return [_walk(adj, piece, end, end)]


def classify(lg: LabeledGraph) -> DynkinGraph:
    """Recognize a labeled graph as a Dynkin graph, or raise NotADynkinGraph.

    Every edge must be an ordinary -1 edge and every norm one of 2, 1/2 and
    2/3; each connected piece is then named by the shape recognizer shared
    with the enumeration engine (norm census, degrees, fork and leaves).
    """
    for _i, _j, val in lg.edges:
        if val != ORDINARY_EDGE:
            raise NotADynkinGraph(f"edge label {val} (only -1 allowed)")
    norm = []
    for v in lg.vertices:
        code = _NORM_CODE.get(v.norm)
        if code is None:
            raise NotADynkinGraph(f"vertex of norm {v.norm}")
        norm.append(code)
    adj = _adjacency(lg.n, lg.edges)
    pieces = _pieces(adj, (1 << lg.n) - 1)
    return DynkinGraph(tuple(_decode(_recognize(adj, norm, p)) for p in pieces))


class InvalidChoice(ValueError):
    """A transformation choice violates one of its defining conditions."""


class GraphTooLarge(ValueError):
    """A graph is over the size budget of the enumeration engine."""


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
    kept = ext.base.induced(i for i in range(ext.n) if i not in choice.a)
    # the new vertex, joined to each B-vertex at its index among the kept ones
    joins = tuple((b - sum(a < b for a in choice.a), kept.n, ORDINARY_EDGE) for b in choice.b)
    return LabeledGraph(kept.vertices + (Vertex("new", NORM_LONG),), kept.edges + joins)


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
# with the shape recognizer above, the one ``classify`` uses, so
# component types are its integer codes.  A multiset of types is the
# product of one prime per code, 1 when empty: unique factorization makes
# it an exact key, and merging two multisets is one multiplication.  Only
# ``_decode_graph`` decodes a product, where an outcome graph is built.
# One core per component type is shared by every graph containing it.  The
# recognizer names a piece in one pass over its vertices.  Only a tie table
# reads a piece's legs, for the descriptor of each vertex where the new
# vertex can attach: leg lengths and a place on them, no index, so a piece's
# descriptors follow from its type, and a fusion's shape by the legs rule.
#
# Each core holds an option table per transform: the smallest local choice
# per key, where the key is what the choice leaves for the other
# components, the types of its residual pieces and, for a tie, the
# descriptors of its B-vertices that are still open.  ``_fold`` merges the
# tables component by component into states keyed the same way.  A tie
# option takes one A-part per signature, what its options read: the gcd g
# of its coefficients and, per residual piece, its prime with the set of
# (descriptor, coefficient mod g) classes of the vertices it lists.  At
# g = 1 a class is a descriptor, so that is the residual's type product; at
# g > 1 it is (g, key), the key a sum of one 5-bit field per piece entry.
# (Without the mod-g classes, D9+BC1 loses A5+A1+A1+A1+A1.)  No two A-parts
# kept give the same keys over all their B, on every core the digests pin
# (``test_no_two_tie_a_parts_share_their_options``).  So no signature read off
# the options can be coarser than this one.
#
# Both tables read one residual pass.  ``residual_types`` keeps, per residual
# mask, the piece of its lowest vertex; the rest of the mask comes before it,
# so the type product takes one step per mask, and a mask with g = 1 costs
# one lookup.  Only masks with g > 1 walk their pieces, and only the pieces of
# the A-parts kept get descriptors and B-candidates (``entry``).  The
# signature pass keeps each class's smallest vertex as a B-candidate, and
# ``tie_table`` takes g and the candidates from it: B is at most three
# candidates in distinct pieces with gcd(g, B-coefficient sum) = 1, a
# condition on the component's own vertices only.  ``_settle`` drops a B that
# cannot fuse and fuses at once one that can take no more; it is then closed.
#
# Every table keeps the first choice met per key, the smallest: masks come in
# lex order of the ascending member tuple, the order in which witnesses
# compare, so the A-parts of ``tie_reps`` too, and each B (``_b_sets``).
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
# A catalog keeps only A/D/E second-step outcomes: ``_winners(g, kind)``
# folds tables cut to their A/D/E entries.  That is exact: types only
# accumulate through the fold, and a lone short root closes as G2 at once,
# so an entry with a G2, G1 or BC1 code never reaches an A/D/E outcome.
# Those three codes hold the primes 2, 3 and 5, so a product is A/D/E
# exactly when it is prime to 30.  The end of such a fold needs no second
# cut: with A/D/E tables ``_settle`` closes a lone short root as G2 at
# once, so no open state reaches ``_fuse`` as G2.  ``_reach(g, kind)`` runs
# that fold in the key-only mode of ``_fold``, one set of products per
# state.  A set does not depend on the join order, and ``_settle`` is
# symmetric, so that mode joins the smallest table first; the witness mode
# keeps index order, on which the lex-order argument rests.  Both end each
# state at the last join (``_end``).  The memos of ``_winners`` and
# ``_reach`` hold the A/D/E folds a catalog build reads again; the public
# functions fold the whole tables uncached, as nothing reads them twice.
# ---------------------------------------------------------------------------

# The prime of each type code, the next one handed out on first use, so it is an
# allocation, not a memo; it outlives clear_transform_cache, so a product keeps its
# meaning for the whole process.
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
# instance, however many results hold it.  Like the primes this cache outlives
# clear_transform_cache, which drops enumeration results only.
@cache
def _decode_graph(types: int) -> DynkinGraph:
    """The graph of a type multiset; one shared instance per graph."""
    comps, rest = [], types
    for code, p in _PRIME.items():
        while rest % p == 0:
            rest //= p
            comps.append(_decode(code))
    return DynkinGraph(tuple(comps))


# {type multiset: smallest (A, B)}; an elementary step's B is ()
_Winners = dict[int, tuple[tuple[int, ...], tuple[int, ...]]]
# {open descriptors, or None once closed: {residual types: local (A, B)}}
_Table = dict[tuple | None, _Winners]


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

    __slots__ = ("size", "full", "adj", "coeff", "norm", "_piece_memo", "_tables")

    def __init__(self, ct: ComponentType):
        lay = _layout(ct)  # extend(ct) without its labeled graph: the added vertex comes last
        _check_once(ct, lay.coeffs)
        self.size = len(lay.coeffs)
        self.full = (1 << self.size) - 1
        self.adj, self.norm = _adjacency(self.size, lay.edges), lay.norms
        self.coeff = list(lay.coeffs)
        # its memos, all it keeps for later calls: a cached method would keep every core alive
        self._piece_memo: dict[int, tuple[int, tuple]] = {}
        self._tables: dict[tuple[str, bool], _Table] = {}  # by (kind, A/D/E only)

    def piece(self, piece: int) -> tuple[int, tuple]:
        """The prime of the type of one connected piece and the (vertex,
        attachment descriptor) pair of each of its vertices where the new
        vertex can attach, in ascending vertex order, from its legs."""
        info = self._piece_memo.get(piece)
        if info is not None:
            return info
        code, desc = _recognize(self.adj, self.norm, piece), {}
        if code == _CODE_G1:
            desc[piece.bit_length() - 1] = (_D_SHORT,)
        elif code <= _CODE_A1:  # A, D or E; G2 and BC1 sort after A1, take nothing
            legs, size = _legs(self.adj, piece), piece.bit_count()
            if len(legs) == 3:  # D or E: only the leaves can take the new vertex
                for k, leg in enumerate(legs):
                    short, long = sorted(len(legs[j]) for j in range(3) if j != k)
                    desc[leg[-1]] = (_D_FORK, size, short, long, len(leg))
            else:  # a path
                for d1, v in enumerate(legs[0]):
                    d2 = size - 1 - d1
                    desc[v] = (_D_PATH, size, d1, d2) if d1 <= d2 else (_D_PATH, size, d2, d1)
        info = self._piece_memo[piece] = (_prime(code), tuple(sorted(desc.items())))
        return info

    def residual_types(self) -> tuple[list[int], list[int]]:
        """Per residual mask below ``full``, its piece that holds its lowest
        vertex, and the product of the primes of its pieces' types.  The other
        pieces follow by ``r ^= piece`` (``_chain``), in order of their lowest
        vertex, and come before it; that vertex joins the pieces of the rest
        that hold its neighbours, met in that order.  Each distinct piece is
        named once, by the recognizer's type code alone."""
        adj, norm, full = self.adj, self.norm, self.full
        pieces, types, primes = [0] * full, [1] * full, {}
        for r in range(1, full):
            low = r & -r
            rest = r ^ low
            near, piece = adj[low.bit_length() - 1] & rest, low
            while near:
                p = pieces[rest]
                if p & near:
                    piece |= p
                    near &= ~p
                rest ^= p
            pieces[r] = piece
            prime = primes.get(piece)
            if prime is None:
                prime = primes[piece] = _prime(_recognize(adj, norm, piece))
            types[r] = prime * types[r ^ piece]
        return pieces, types

    def elementary_table(self) -> _Table:
        """Per residual type multiset, the smallest (first in lex order) removed set."""
        full, (_, types) = self.full, self.residual_types()
        first: dict[int, int] = {}
        for removed in _lex_masks(self.size):
            first.setdefault(types[full ^ removed], removed)
        return {(): {t: (tuple(_bits(m)), ()) for t, m in first.items()}}

    def entry(self, piece: int, g: int) -> tuple[int, dict]:
        """The entry at gcd ``g`` of one piece: its prime and its B-candidates, the
        first (vertex, descriptor, coefficient) of each (descriptor, coefficient
        mod g) class, by class."""
        p, pairs = self.piece(piece)
        coeff, classes = self.coeff, {}
        for v, d in pairs:
            classes.setdefault((d, coeff[v] % g), (v, d, coeff[v]))
        return p, classes

    def tie_reps(self) -> list[tuple[int, int, list[tuple]]]:
        """The smallest A-part of every tie signature, the first met, in lex
        order, with its coefficient gcd g and the ``entry`` at g of each piece of
        its residual.  The signature is the residual's type product at g = 1, else
        (g, key): the key sums a 5-bit field per piece at the number of its (prime,
        sorted classes) in ``ids``, exact as a residual has under 20 pieces."""
        full = self.full
        gcds = [0]  # gcd of the coefficients picked by each submask
        for c in self.coeff:
            gcds += [gcd(c, t) for t in gcds]
        pieces, types = self.residual_types()
        entry = cache(self.entry)  # built once per (piece, g) in this call
        ids: dict[tuple, int] = {}
        fields = {g: {} for g in set(gcds[1:])}  # per g: {piece: its 5-bit field}
        first: dict = {}  # by signature
        for a in _lex_masks(self.size):
            g = gcds[a]
            if g == 1:
                first.setdefault(types[full ^ a], a)
                continue
            at_g, r, key = fields[g], full ^ a, 0
            while r:  # the pieces of the residual, as in _chain
                p = pieces[r]
                f = at_g.get(p)
                if f is None:
                    prime, classes = entry(p, g)
                    i = ids.setdefault((prime, tuple(sorted(classes))), len(ids))
                    f = at_g[p] = 1 << 5 * i
                key += f
                r ^= p
            first.setdefault((g, key), a)
        return [(a, g, [entry(p, g) for p in _chain(pieces, full ^ a)])
                for a in first.values() for g in [gcds[a]]]

    def tie_table(self) -> _Table:
        """Per (residual types, open descriptors), the first, so smallest, local
        (A, B): A is one of ``tie_reps``, and B at most three of the B-candidates
        it lists, in distinct pieces, with gcd(g, their coefficient sum) = 1."""
        table: _Table = {}
        for mask, g, entries in self.tie_reps():
            a = tuple(_bits(mask))
            cands = sorted((v, pid, p, d, k) for pid, (p, classes) in enumerate(entries)
                           for v, d, k in classes.values())
            residual = prod(p for p, _ in entries)
            for b, fused, descs, csum in _b_sets(cands):
                if (g != 1 and gcd(g, csum) != 1) or (join := _settle((), descs)) is None:
                    continue
                extra, still_open = join
                # B's pieces fuse with the new vertex
                table.setdefault(still_open, {}).setdefault(residual * extra // fused, (a, b))
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


def _b_sets(cands: list[tuple]) -> Iterator[tuple]:
    """(B, product of its pieces' primes, descriptors, coefficient sum) of each B of
    at most three candidates (vertex, piece, prime, descriptor, coefficient), given
    sorted by vertex, in distinct pieces, as two in one piece close a cycle;
    ``_settle`` judges the rest."""
    yield (), 1, (), 0
    for i, (v0, i0, p0, d0, k0) in enumerate(cands):
        yield (v0,), p0, (d0,), k0
        for j in range(i + 1, len(cands)):
            v1, i1, p1, d1, k1 = cands[j]
            if i1 != i0:
                yield (v0, v1), p0 * p1, (d0, d1), k0 + k1
                for v2, i2, p2, d2, k2 in cands[j + 1:]:
                    if i2 != i0 and i2 != i1:
                        yield (v0, v1, v2), p0 * p1 * p2, (d0, d1, d2), k0 + k1 + k2


def _chain(pieces: list[int], r: int) -> Iterator[int]:
    """The pieces of residual mask ``r``, in order of their lowest vertex, from
    ``residual_types``."""
    while r:
        p = pieces[r]
        yield p
        r ^= p


# Attachment descriptors: how the new tie vertex may fasten to a residual
# piece at one of its vertices.  A piece lists none where no Dynkin shape
# can follow: norm-1/2 vertices, G2 pieces, forks and inner leg vertices.
_D_PATH = 0  # (0, size, dnear, dfar): path piece, distances to its two ends
_D_FORK = 1  # (1, size, short, long, own): leaf of a one-fork piece, the other legs sorted
_D_SHORT = 2  # (2,): isolated norm-2/3 vertex; new--short is the G2 shape


def _is_end(d: tuple) -> bool:
    """Whether a descriptor is an end of a path piece."""
    return d[0] == _D_PATH and d[2] == 0


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


# The table of no component: joined to the states, it only ends them.
_UNIT: _Table = {(): {1: ((), ())}}


@cache
def _end(held: tuple | None, descs: tuple | None, tie: bool) -> tuple | None:
    """``_settle`` at the last join, which closes every state: (the types it
    adds, None), where a tie adds its new vertex too, fused with the open
    descriptors or alone as A1; None when no Dynkin outcome holds it."""
    join = _settle(held, descs)
    if join is None or join[1] is None or not tie:  # an elementary step adds no vertex
        return join and (join[0], None)
    fused = _fuse(join[1])
    return None if fused is None else (join[0] * fused, None)


def _fold(parts: list[tuple[int, _Table]], tie: bool, keys: bool = False) -> _Winners | set[int]:
    """Merge option tables, each given with the first vertex index of its
    component, into the smallest (A, B) in graph indices per outcome, ending
    every state at the last join; with ``keys``, into the set of outcomes
    alone, joining the smallest table first."""
    if keys:
        parts = sorted(parts, key=lambda part: sum(map(len, part[1].values())))
    states = parts[0][1] if parts else _UNIT  # the first table, joined to _UNIT, is itself
    rest = parts[1:] or [(0, _UNIT)]
    for i, (lo, table) in enumerate(rest, 1 - len(rest)):  # i == 0 at the last join
        nxt: dict = {}
        for descs, group in table.items():
            if not keys:
                opts = [(t, (tuple(v + lo for v in a), tuple(v + lo for v in b)))
                        for t, (a, b) in group.items()]  # local indices to graph indices
            for held, held_group in states.items():
                join = _settle(held, descs) if i else _end(held, descs, tie)
                if join is None:
                    continue
                extra, still_open = join
                if keys:
                    nxt.setdefault(still_open, set()).update(
                        [extra * h * t for h in held_group for t in group])
                    continue
                out = nxt.setdefault(still_open, {})
                for held_types, (held_a, held_b) in held_group.items():
                    base = held_types * extra
                    for types, (a, b) in opts:
                        merged = base * types
                        old = out.get(merged)
                        if old is None:
                            out[merged] = (held_a + a, held_b + b)
                        elif (w := (held_a + a, held_b + b)) < old:
                            out[merged] = w
        states = nxt
    return states.get(None, set() if keys else {})


# Size budgets, checked before any core is built: a core lists the 2**k - 1 nonempty
# masks of a component of k extended vertices, and the multisets of masks, one per
# component with equal components unordered, bound the type multisets of an
# elementary fold (and measure a tie fold).
_COMPONENT_BUDGET = 20  # extended vertices of one component
_FOLD_BUDGET = 2**28  # multisets of masks over the whole graph

# A dict, not functools.cache: tests read its cores and build them through _CompCore.
_CORE_MEMO: dict[ComponentType, _CompCore] = {}


def _core(g: DynkinGraph) -> list[tuple[int, _CompCore]]:
    """(first vertex index, core) of every component of ``extend(g)``.

    ``extend`` lays the components out one after the other, each in the
    vertex order of its own extended graph, so one core per component type
    serves every graph that contains it.  Raises GraphTooLarge, building no
    core, when ``g`` is over a size budget.
    """
    sizes = [ct.vertex_count + 1 for ct in g.components]
    if sum(sizes) > _COMPONENT_BUDGET:  # else under 2**20 multisets of masks: both budgets hold
        count = 1
        for ct, copies in Counter(g.components).items():
            k = ct.vertex_count + 1
            for j in range(1, copies + 1):  # count *= comb(2**k - 2 + copies, copies)
                count = count * (2**k - 2 + j) // j
                if k > _COMPONENT_BUDGET or count > _FOLD_BUDGET:
                    raise GraphTooLarge(
                        f"graph too large to enumerate: the limits are {_COMPONENT_BUDGET}"
                        f" extended vertices per component and {_FOLD_BUDGET} multisets"
                        " of vertex masks")
    out = []
    lo = 0
    for ct, k in zip(g.components, sizes):
        core = _CORE_MEMO.get(ct)
        if core is None:
            core = _CORE_MEMO[ct] = _CompCore(ct)
        out.append((lo, core))
        lo += k
    return out


def clear_transform_cache() -> None:
    """Drop the in-process enumeration memos (mostly for benchmarks/tests)."""
    _CORE_MEMO.clear()
    for memo in (_winners, _reach, _end, _settle):
        memo.cache_clear()


def _parts(g: DynkinGraph, kind: str, ade: bool = False) -> list[tuple[int, _Table]]:
    """(first vertex index, option table, only A/D/E with ``ade``) of each component of ``g``."""
    return [(lo, core.table(kind, ade)) for lo, core in _core(g)]


@cache
def _winners(g: DynkinGraph, kind: str) -> _Winners:
    """{type multiset: smallest (A, B)} over the A/D/E outcomes of ``kind``
    on ``g``: the catalog's memo of its witness folds."""
    return _fold(_parts(g, kind, True), kind == "tie")


@cache
def _reach(g: DynkinGraph, kind: str) -> set[int]:
    """The keys of ``_winners(g, kind)``: the same fold in its key-only mode."""
    return _fold(_parts(g, kind, True), kind == "tie", True)


def elementary_all(g: DynkinGraph) -> list[tuple[DynkinGraph, ElementaryChoice]]:
    """All outcomes of elementary transformations of ``g``.

    Returns pairs (outcome, witness choice), deduplicated by canonical name
    and sorted by it; per outcome the witness with the smallest removed
    index tuple is kept.  Removing exactly the added vertices reproduces
    ``g``, and removing everything yields the empty graph.
    """
    out = []
    for t, (a, _) in _fold(_parts(g, "elementary"), False).items():
        choice = object.__new__(ElementaryChoice)  # the fold yields sorted tuples: no sort again
        _set(choice, "removed", a)
        out.append((_decode_graph(t), choice))
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
    out = []
    for t, (a, b) in _fold(_parts(g, "tie"), True).items():
        choice = object.__new__(TieChoice)
        _set(choice, "a", seen.setdefault(a, a))
        _set(choice, "b", b)
        out.append((_decode_graph(t), choice))
    out.sort(key=lambda pair: pair[0].name)
    return out
