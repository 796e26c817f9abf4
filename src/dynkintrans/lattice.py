"""Exact positive-definite lattice utilities over the rationals.

Everything here uses exact Fraction arithmetic; there is no floating point
in any result path (floats only seed integer range estimates that are then
corrected exactly).  The short-vector enumeration is complete, so it
doubles as the independent numeric oracle for the graph engine: root
counts, determinants and co-root systems are recomputed rather than
assumed.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .graphs import DynkinGraph, _set, _Value, gram, realize

Matrix = tuple[tuple[Fraction, ...], ...]


class NonIntegralLattice(ValueError):
    """Co-root systems are only defined on integral Gram matrices."""


def _as_matrix(rows) -> Matrix:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def determinant(rows) -> Fraction:
    """Exact determinant by Gaussian elimination over the rationals."""
    m = [list(row) for row in _as_matrix(rows)]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = m[col][col]
        for r in range(col + 1, n):
            if m[r][col] == 0:
                continue
            factor = m[r][col] / inv
            for c in range(col, n):
                m[r][c] -= factor * m[col][c]
    return det


class Lattice(_Value):
    """A positive definite lattice given by an exact rational Gram matrix."""

    __slots__ = ("gram",)

    def __init__(self, gram: Matrix) -> None:
        m = _as_matrix(gram)
        n = len(m)
        if any(len(row) != n for row in m):
            raise ValueError("Gram matrix must be square")
        for i in range(n):
            for j in range(i + 1, n):
                if m[i][j] != m[j][i]:
                    raise ValueError(f"Gram matrix not symmetric at ({i},{j})")
        _ldl(m)  # raises unless positive definite
        _set(self, "gram", m)

    @property
    def rank(self) -> int:
        return len(self.gram)

    @property
    def is_integral(self) -> bool:
        return all(x.denominator == 1 for row in self.gram for x in row)

    def determinant(self) -> Fraction:
        return determinant(self.gram)

    def norm(self, x: tuple[int, ...]) -> Fraction:
        g = self.gram
        n = self.rank
        acc = Fraction(0)
        for i in range(n):
            if x[i]:
                acc += g[i][i] * x[i] * x[i]
                for j in range(i + 1, n):
                    if x[j]:
                        acc += 2 * g[i][j] * x[i] * x[j]
        return acc


def root_lattice(g: DynkinGraph) -> Lattice:
    """The lattice spanned by the simple roots of ``g`` with its Gram matrix."""
    return Lattice(gram(realize(g)))


class RootSet(_Value):
    """Integer coordinate vectors with their norms, closed under negation."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[tuple[tuple[int, ...], Fraction], ...]) -> None:
        _set(self, "entries", tuple(sorted(entries)))

    def vectors(self) -> list[tuple[int, ...]]:
        return [v for v, _ in self.entries]

    def count_of_norm(self, value) -> int:
        q = Fraction(value)
        return sum(1 for _, norm in self.entries if norm == q)

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, vector: tuple[int, ...]) -> bool:
        return any(v == tuple(vector) for v, _ in self.entries)


def _ldl(m: Matrix) -> tuple[list[Fraction], list[list[Fraction]]]:
    """Decompose Q(x) = sum_i d_i (x_i + sum_{j>i} u_ij x_j)^2 exactly.  Each pivot d_i
    is a ratio of leading minors, so ValueError at the first d_i <= 0 (Sylvester)."""
    n = len(m)
    a = [list(row) for row in m]
    d = [Fraction(0)] * n
    u = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        d[i] = a[i][i]
        if d[i] <= 0:
            raise ValueError("Gram matrix is not positive definite")
        for j in range(i + 1, n):
            u[i][j] = a[i][j] / d[i]
        for k in range(i + 1, n):
            for l in range(k, n):
                a[k][l] -= d[i] * u[i][k] * u[i][l]
    return d, u


def _range_with_offset(s: Fraction, q: Fraction) -> tuple[int, int]:
    """The integer interval [lo, hi] with (t + s)^2 <= q, exactly, for q >= 0.

    May be empty (lo > hi) when the real interval is narrower than 1.
    Integer square roots seed the scan; floats never touch the result.
    """
    root = math.isqrt(q.numerator * q.denominator) // q.denominator  # floor(sqrt(q))
    # hi = floor(sqrt(q) - s): scan down until t + s <= sqrt(q); the scan
    # cannot pass t + s <= 0, so it terminates even when the range is empty
    hi = math.floor(root - s) + 1
    while hi + s > 0 and (hi + s) * (hi + s) > q:
        hi -= 1
    # lo = ceil(-sqrt(q) - s), mirrored
    lo = math.ceil(-root - s) - 1
    while lo + s < 0 and (lo + s) * (lo + s) > q:
        lo += 1
    return lo, hi


def short_vectors(lattice: Lattice, bound) -> RootSet:
    """All integer vectors x with x.gram.x <= bound, by complete enumeration.

    Uses the exact rational decomposition of the quadratic form to bound
    each coordinate; no vector is missed.  The zero vector is included.
    """
    limit = Fraction(bound)
    n = lattice.rank
    if n == 0:
        return RootSet((((), Fraction(0)),) if limit >= 0 else ())
    if limit < 0:
        return RootSet(())
    d, u = _ldl(lattice.gram)
    found: list[tuple[tuple[int, ...], Fraction]] = []
    x = [0] * n

    def descend(i: int, remaining: Fraction) -> None:
        s = Fraction(0)
        for j in range(i + 1, n):
            if x[j]:
                s += u[i][j] * x[j]
        lo, hi = _range_with_offset(s, remaining / d[i])
        for t in range(lo, hi + 1):
            x[i] = t
            used = d[i] * (t + s) * (t + s)
            if i == 0:
                vec = tuple(x)
                found.append((vec, lattice.norm(vec)))
            else:
                descend(i - 1, remaining - used)
        x[i] = 0

    descend(n - 1, limit)
    return RootSet(tuple(found))


def coroot_system(lattice: Lattice) -> RootSet:
    """Vectors of norm 2, 4 or 6 whose doubled scaled pairings are integral.

    A vector x qualifies when 2*(x, y)/(x, x) is an integer for every
    lattice vector y; by linearity it is enough to test the basis vectors.
    Only integral Gram matrices are accepted.
    """
    if not lattice.is_integral:
        raise NonIntegralLattice("co-root systems need an integral Gram matrix")
    g = lattice.gram
    n = lattice.rank
    out = []
    for vec, norm in short_vectors(lattice, 6).entries:
        if norm not in (2, 4, 6):
            continue
        pairings = [sum(g[i][j] * vec[j] for j in range(n)) for i in range(n)]
        if all((2 * p) % norm == 0 for p in pairings):
            out.append((vec, norm))
    return RootSet(tuple(out))


def root_count(g: DynkinGraph) -> int:
    """The number of norm-2 vectors in the root lattice of ``g``."""
    return short_vectors(root_lattice(g), 2).count_of_norm(2)
