"""Independent reference implementations used to cross-check the package.

Nothing here shares code with the structural recognizer or the mask-based
enumeration engine: classification goes through exhaustive Gram-matrix
isomorphism search against reference diagrams drawn from Bourbaki's plates,
transformations are replayed directly from their definitions on labeled
graphs, highest-root coefficients are recomputed by reflection closure, and
short vectors by a plain box search.  The engine's layout is read only
through ``extend``: in the replays, and in ``finite_part`` for the
reflection closure, whose coefficients must come out in the layout's
vertex order.

``literal_tie_table`` is the one exception: it checks the signature
quotient and the class minima of one core's tie table, not the recognizer
or the fusion rule, so it reads the core's piece descriptors and the
engine's ``_settle``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, prod
from typing import Iterator

from dynkintrans.exact import NORM_LONG, ORDINARY_EDGE, LabeledGraph, Vertex, extend
from dynkintrans.graphs import A, BC1, ComponentType, D, DynkinGraph, E, G1, G2
from dynkintrans.transforms import _settle


def gram(lg: LabeledGraph) -> tuple[tuple[Fraction, ...], ...]:
    """The symmetric Gram matrix of a labeled graph in its vertex order."""
    n = lg.n
    m = [[Fraction(0)] * n for _ in range(n)]
    for i, v in enumerate(lg.vertices):
        m[i][i] = v.norm
    for i, j, val in lg.edges:
        m[i][j] = val
        m[j][i] = val
    return tuple(tuple(row) for row in m)


def finite_part(g: DynkinGraph) -> LabeledGraph:
    """``extend(g)`` without its added vertices: the simple roots of ``g``,
    in the layout's vertex order."""
    ext = extend(g)
    return ext.base.induced(v for comp in ext.components for v in comp[:-1])


def _diagram(norms: list[Fraction], edges: list[tuple[int, int]]) -> LabeledGraph:
    return LabeledGraph(
        tuple(Vertex(f"a{i + 1}", norm) for i, norm in enumerate(norms)),
        tuple((i, j, Fraction(-1)) for i, j in edges),
    )


def reference(ct: ComponentType) -> LabeledGraph:
    """The Dynkin diagram of one component type as drawn in Bourbaki, *Lie
    Groups and Lie Algebras*, ch. VI, Plates I-IX, with simple roots scaled
    so that a long root has norm 2, and inner product -1 on every edge.

    A_n is a path.  D_n is a path of n - 1 vertices with one more hung on
    its second-to-last, E_n one with one more hung on its third.  G2 joins
    a long root to a short one of norm 2/3; G1 is one short root, and BC1
    one root of norm 1/2, half of its maximal root.
    """
    n, long = ct.vertex_count, Fraction(2)
    if ct.family == "A":
        return _diagram([long] * n, [(i, i + 1) for i in range(n - 1)])
    if ct.family in ("D", "E"):
        hung_on = n - 3 if ct.family == "D" else 2
        return _diagram([long] * n, [(i, i + 1) for i in range(n - 2)] + [(hung_on, n - 1)])
    if ct == G2:
        return _diagram([long, Fraction(2, 3)], [(0, 1)])
    return _diagram([Fraction(2, 3) if ct == G1 else Fraction(1, 2)], [])


def gram_isomorphic(left: LabeledGraph, right: LabeledGraph) -> bool:
    """Exact isomorphism of Gram matrices by complete backtracking search."""
    if left.n != right.n:
        return False
    gl, gr = gram(left), gram(right)
    # isomorphic matrices have the same multiset of sorted rows
    if sorted(sorted(row) for row in gl) != sorted(sorted(row) for row in gr):
        return False
    n = left.n
    used = [False] * n
    image: list[int] = []

    def place(i: int) -> bool:
        if i == n:
            return True
        for cand in range(n):
            if used[cand] or gl[i][i] != gr[cand][cand]:
                continue
            if any(gl[i][j] != gr[cand][image[j]] for j in range(i)):
                continue
            used[cand] = True
            image.append(cand)
            if place(i + 1):
                return True
            used[cand] = False
            image.pop()
        return False

    return place(0)


def _candidate_types(size: int) -> list[ComponentType]:
    out: list[ComponentType] = []
    if size >= 1:
        out.append(A(size))
    if size >= 4:
        out.append(D(size))
    if size in (6, 7, 8):
        out.append(E(size))
    if size == 2:
        out.append(G2)
    if size == 1:
        out.extend([G1, BC1])
    return out


# Component type by exact Gram matrix.  gram_isomorphic reads nothing but
# the two Gram matrices, so equal matrices always get the same answer.
_TYPE_BY_GRAM: dict[tuple, ComponentType | None] = {}


def _component_type(comp: LabeledGraph) -> ComponentType | None:
    key = tuple(map(tuple, gram(comp)))
    if key not in _TYPE_BY_GRAM:
        _TYPE_BY_GRAM[key] = next(
            (
                ct
                for ct in _candidate_types(comp.n)
                if gram_isomorphic(comp, reference(ct))
            ),
            None,
        )
    return _TYPE_BY_GRAM[key]


def adjacency(lg: LabeledGraph) -> list[dict[int, Fraction]]:
    """Per vertex of ``lg``, its neighbours and the inner product with each."""
    adj: list[dict[int, Fraction]] = [{} for _ in range(lg.n)]
    for i, j, val in lg.edges:
        adj[i][j] = val
        adj[j][i] = val
    return adj


def component_subgraphs(lg: LabeledGraph) -> Iterator[LabeledGraph]:
    """The connected components of ``lg`` as labeled graphs, found by
    depth-first search over its edges."""
    adj = adjacency(lg)
    seen = [False] * lg.n
    for start in range(lg.n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        yield lg.induced(sorted(comp))


def oracle_classify(lg: LabeledGraph) -> DynkinGraph | None:
    """Match every component against the reference diagrams by isomorphism."""
    found = []
    for comp in component_subgraphs(lg):
        hit = _component_type(comp)
        if hit is None:
            return None
        found.append(hit)
    return DynkinGraph(tuple(found))


def _removed_graph(ext, removed: set[int]) -> LabeledGraph:
    keep = [i for i in range(ext.n) if i not in removed]
    return ext.base.induced(keep)


def _tie_graph(ext, a: set[int], b: tuple[int, ...]) -> LabeledGraph:
    keep = [i for i in range(ext.n) if i not in a]
    pos = {v: k for k, v in enumerate(keep)}
    verts = tuple(ext.base.vertices[v] for v in keep) + (Vertex("new", NORM_LONG),)
    edges = [
        (pos[i], pos[j], val) for i, j, val in ext.base.edges if i in pos and j in pos
    ]
    edges.extend((pos[v], len(keep), ORDINARY_EDGE) for v in b)
    return LabeledGraph(verts, tuple(edges))


def oracle_replay(step) -> DynkinGraph | None:
    """The output of one witness step: its choice applied literally to the
    extended graph of its input, classified by ``oracle_classify``."""
    ext, choice = extend(step.input), step.choice
    if choice.kind == "elementary":
        return oracle_classify(_removed_graph(ext, set(choice.removed)))
    return oracle_classify(_tie_graph(ext, set(choice.a), choice.b))


def naive_elementary_witnesses(g: DynkinGraph) -> dict[str, tuple[int, ...]]:
    """Smallest removed set per outcome name over every elementary removal,
    replayed literally."""
    ext = extend(g)
    per_comp = [
        [set(sub) for r in range(1, len(comp) + 1) for sub in itertools.combinations(comp, r)]
        for comp in ext.components
    ]
    best: dict[str, tuple[int, ...]] = {}
    for pick in itertools.product(*per_comp) if per_comp else [()]:
        removed = set().union(*pick) if pick else set()
        out = oracle_classify(_removed_graph(ext, removed))
        assert out is not None, "elementary outcome failed oracle classification"
        key = tuple(sorted(removed))
        if out.name not in best or key < best[out.name]:
            best[out.name] = key
    return best


def naive_elementary_all(g: DynkinGraph) -> set[str]:
    """Outcome names of every elementary removal, replayed literally."""
    return set(naive_elementary_witnesses(g))


def naive_tie_witnesses(
    g: DynkinGraph, max_b: int = 3
) -> dict[str, tuple[tuple[int, ...], tuple[int, ...]]]:
    """Smallest (A, B) per outcome name over every admissible tie choice,
    replayed literally."""
    ext = extend(g)
    per_comp = [
        [set(sub) for r in range(1, len(comp) + 1) for sub in itertools.combinations(comp, r)]
        for comp in ext.components
    ]
    best: dict[str, tuple[tuple[int, ...], tuple[int, ...]]] = {}
    for pick in itertools.product(*per_comp) if per_comp else [()]:
        a = set().union(*pick) if pick else set()
        rest = [v for v in range(ext.n) if v not in a]
        for k in range(0, max_b + 1):
            for b in itertools.combinations(rest, k):
                ok = True
                for comp in ext.components:
                    n_sum = sum(ext.coefficients[v] for v in comp if v in b)
                    acc = n_sum
                    for v in comp:
                        if v in a:
                            acc = gcd(acc, ext.coefficients[v])
                    if acc != 1:
                        ok = False
                        break
                if not ok:
                    continue
                out = oracle_classify(_tie_graph(ext, a, b))
                if out is not None:
                    key = (tuple(sorted(a)), b)
                    if out.name not in best or key < best[out.name]:
                        best[out.name] = key
    return best


def naive_tie_all(g: DynkinGraph, max_b: int = 3) -> set[str]:
    """Outcome names of every admissible tie choice, replayed literally."""
    return set(naive_tie_witnesses(g, max_b))


def _mask_pieces(adj: list[int], mask: int) -> list[int]:
    """The connected pieces of a vertex mask, by depth-first search."""
    out = []
    while mask:
        piece, stack = 0, [mask & -mask]
        while stack:
            bit = stack.pop()
            if not piece & bit:
                piece |= bit
                near = adj[bit.bit_length() - 1] & mask & ~piece
                while near:
                    stack.append(near & -near)
                    near &= near - 1
        out.append(piece)
        mask &= ~piece
    return out


def literal_tie_table(core) -> dict[tuple, tuple[tuple[int, ...], tuple[int, ...]]]:
    """{(open descriptors or None, residual types): smallest (A, B)} of one
    engine core, over every nonempty A and every B of at most three vertices
    with a descriptor, in distinct pieces of the residual, with gcd(A
    coefficients, B-coefficient sum) = 1, that ``_settle`` keeps.  No
    signature, no class minimum and no visiting order: every (A, B) is tried
    and the smallest kept per key."""
    n, coeff = core.size, core.coeff
    best: dict[tuple, tuple] = {}
    for amask in range(1, 1 << n):
        a = tuple(v for v in range(n) if amask >> v & 1)
        g = gcd(*(coeff[v] for v in a))
        residual, groups = 1, []  # per piece: its (vertex, prime, descriptor, coefficient)
        for piece in _mask_pieces(core.adj, core.full & ~amask):
            p, pairs = core.piece(piece)
            residual *= p
            if pairs:
                groups.append([(v, p, d, coeff[v]) for v, d in pairs])
        for b in _one_per_piece(groups):
            vs, ps, ds, cs = zip(*b) if b else ((), (), (), ())
            if gcd(g, sum(cs)) != 1 or (join := _settle((), ds)) is None:
                continue
            extra, still_open = join
            key = (still_open, residual * extra // prod(ps))
            old = best.get(key)
            if old is None or (a, vs) < old:
                best[key] = (a, vs)
    return best


def _one_per_piece(groups: list[list[tuple]]) -> Iterator[list[tuple]]:
    """Every choice of at most three members, each from its own group, in
    ascending order."""
    yield []
    for i, gi in enumerate(groups):
        for x in gi:
            yield [x]
            for j in range(i + 1, len(groups)):
                for y in groups[j]:
                    yield sorted((x, y))
                    for gl in groups[j + 1:]:
                        for z in gl:
                            yield sorted((x, y, z))


def reflection_root_closure(ct: ComponentType) -> set[tuple[int, ...]]:
    """All roots of one reduced component, generated by simple reflections,
    as coefficient vectors over the simple roots in the layout's order."""
    g = gram(finite_part(DynkinGraph((ct,))))
    n = len(g)
    simples = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]

    def pair(x, y) -> Fraction:
        return sum(g[i][j] * x[i] * y[j] for i in range(n) for j in range(n))

    roots = set(simples)
    frontier = list(simples)
    while frontier:
        nxt = []
        for r in frontier:
            for i in range(n):
                c = 2 * pair(r, simples[i]) / g[i][i]
                assert c.denominator == 1
                image = tuple(r[j] - (int(c) if j == i else 0) for j in range(n))
                for cand in (image, tuple(-x for x in image)):
                    if cand not in roots:
                        roots.add(cand)
                        nxt.append(cand)
        frontier = nxt
    return roots


def highest_root_coefficients(ct: ComponentType) -> tuple[int, ...]:
    """Coefficients of the maximal root in the layout's simple-root order.

    For the reduced types the maximal root is found by reflection closure;
    BC1 is non-reduced with maximal root twice the basis root, and G1 has
    root system {-g, g}, so their coefficients are (2,) and (1,).
    """
    if ct == BC1:
        return (2,)
    if ct == G1:
        return (1,)
    roots = reflection_root_closure(ct)
    return max(roots, key=lambda r: (sum(r), r))


def naive_short_vectors(matrix, bound, radius: int) -> set[tuple[int, ...]]:
    """Box search over coordinates in [-radius, radius]; complete only when
    the true vectors fit in the box."""
    limit = Fraction(bound)
    n = len(matrix)
    out = set()
    for vec in itertools.product(range(-radius, radius + 1), repeat=n):
        q = sum(matrix[i][j] * vec[i] * vec[j] for i in range(n) for j in range(n))
        if q <= limit:
            out.add(vec)
    return out
