"""Exact lattice arithmetic for the checks: functions on a Gram matrix given
as rows of ints or Fractions, with no float in any result.  The short-vector
enumeration is complete, so root counts, determinants and co-root systems are
recomputed, not assumed.  Nothing here imports ``dynkintrans``: callers pass
``oracles.gram`` of the finite part of ``extend(g)`` or of a reference diagram."""

from __future__ import annotations

import math
from fractions import Fraction


def _rows(matrix) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in matrix]


def determinant(rows) -> Fraction:
    """Exact determinant by Gaussian elimination over the rationals."""
    m = _rows(rows)
    n, det = len(m), Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] / m[col][col]
            if factor:
                for c in range(col, n):
                    m[r][c] -= factor * m[col][c]
    return det


def ldl(rows) -> tuple[list[Fraction], list[list[Fraction]]]:
    """Decompose Q(x) = sum_i d_i (x_i + sum_{j>i} u_ij x_j)^2 exactly.  Raises
    ValueError unless the matrix is square, symmetric and positive definite:
    each d_i is a ratio of leading minors, so the first d_i <= 0 decides."""
    a = _rows(rows)
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("Gram matrix must be square")
    asymmetric = [(i, j) for i in range(n) for j in range(i + 1, n) if a[i][j] != a[j][i]]
    if asymmetric:
        raise ValueError(f"Gram matrix not symmetric at {asymmetric[0]}")
    d, u = [], [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        d.append(a[i][i])
        if d[i] <= 0:
            raise ValueError("Gram matrix is not positive definite")
        for j in range(i + 1, n):
            u[i][j] = a[i][j] / d[i]
        for k in range(i + 1, n):
            for l in range(k, n):
                a[k][l] -= d[i] * u[i][k] * u[i][l]
    return d, u


def _range_with_offset(s: Fraction, q: Fraction) -> tuple[int, int]:
    """The integers t, as [lo, hi] (empty if lo > hi), with (t + s)^2 <= q for
    q >= 0, exactly: an integer square root seeds both ends."""
    root = math.isqrt(q.numerator * q.denominator) // q.denominator  # floor(sqrt(q))
    hi = math.floor(root - s) + 1
    while hi + s > 0 and (hi + s) * (hi + s) > q:
        hi -= 1
    lo = math.ceil(-root - s) - 1
    while lo + s < 0 and (lo + s) * (lo + s) > q:
        lo += 1
    return lo, hi


def _norm(g: list[list[Fraction]], x: list[int]) -> Fraction:
    """x.g.x over the nonzero coordinates of x only."""
    nonzero = [(i, xi) for i, xi in enumerate(x) if xi]
    acc = Fraction(0)
    for k, (i, xi) in enumerate(nonzero):
        acc += g[i][i] * xi * xi
        for j, xj in nonzero[k + 1:]:
            acc += 2 * g[i][j] * xi * xj
    return acc


def short_vectors(gram, bound) -> dict[tuple[int, ...], Fraction]:
    """{x: x.gram.x} over every integer vector x with x.gram.x <= bound,
    the zero vector included.  The exact decomposition of ``ldl`` bounds
    each coordinate in turn, so no vector is missed."""
    g, limit = _rows(gram), Fraction(bound)
    d, u = ldl(g)
    n = len(d)
    found: dict[tuple[int, ...], Fraction] = {}
    x = [0] * n

    def descend(i: int, remaining: Fraction) -> None:
        if i < 0:
            found[tuple(x)] = _norm(g, x)
            return
        s = sum((u[i][j] * x[j] for j in range(i + 1, n) if x[j]), Fraction(0))
        lo, hi = _range_with_offset(s, remaining / d[i])
        for t in range(lo, hi + 1):
            x[i] = t
            descend(i - 1, remaining - d[i] * (t + s) * (t + s))
        x[i] = 0

    if limit >= 0:
        descend(n - 1, limit)
    return found


def coroot_system(gram) -> dict[tuple[int, ...], Fraction]:
    """{x: norm} over the vectors of norm 2, 4 or 6 whose doubled scaled
    pairings 2 (x, y) / (x, x) are integers for every lattice vector y; by
    linearity the basis vectors suffice.  Raises ValueError unless the Gram
    matrix is integral."""
    g = _rows(gram)
    if any(x.denominator != 1 for row in g for x in row):
        raise ValueError("co-root systems need an integral Gram matrix")
    return {
        vec: norm
        for vec, norm in short_vectors(g, 6).items()
        if norm in (2, 4, 6)
        and all(2 * sum(a * b for a, b in zip(row, vec)) % norm == 0 for row in g)
    }


def root_count(gram) -> int:
    """The number of norm-2 vectors of the lattice."""
    return sum(1 for norm in short_vectors(gram, 2).values() if norm == 2)
