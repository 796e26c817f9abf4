"""The exact layer: labeled and extended graphs, and the one shape recognizer.

Vertices carry exact rational norms and edges carry exact rational inner
products: -1 for every ordinary edge, -2 for the doubled edge of the
extended A1 graph, -2/3 for the doubled edge of the extended G1 graph.
The layouts of ``graphs`` hold norm codes and plain edge values; ``extend``
attaches the ``Fraction`` values to them, and ``check_extension_identity``
validates each layout's coefficient table with them.

A warm ``check`` reads nothing here, so it loads neither this module nor ``fractions``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import cache

from .graphs import (_FAMILY_RANK, _HALF, _SUB_LIMIT, ComponentType, DynkinGraph,
                     NotADynkinGraph, _code, _layout, _named_layouts, _set, _Value)

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
# engine in ``transforms``.  It works on masks: ``adj[v]`` is the neighbour
# mask of vertex v, ``norm[v]`` its norm code, and a piece is the mask of one
# connected vertex set.  Component types are integer codes whose natural
# order is the canonical component order (family rank ascending, subscript
# descending); ``transforms`` keys a multiset of them as a product of primes.
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
