from __future__ import annotations

from collections import Counter
from fractions import Fraction

import pytest

from dynkintrans.graphs import parse_name

from lattice import coroot_system, determinant, ldl, root_count, short_vectors
from oracles import finite_part, gram, naive_short_vectors


def root_gram(name):
    """The Gram matrix of the simple roots of the graph named ``name``."""
    return gram(finite_part(parse_name(name)))


class TestLattice:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            ldl(((2, -1), (0, 2)))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            ldl(((2, -1),))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="positive definite"):
            ldl(((2, -3), (-3, 2)))
        with pytest.raises(ValueError, match="positive definite"):
            ldl(((0,),))
        # a zero pivot after the first: the decomposition must stop before it divides
        for gram_matrix in [((2, 2), (2, 2)), ((1, 1, 0), (1, 1, 0), (0, 0, 1))]:
            with pytest.raises(ValueError, match="positive definite"):
                ldl(gram_matrix)

    def test_root_lattice_examples(self):
        assert root_gram("A1") == ((Fraction(2),),)
        assert ldl(root_gram("A1")) == ([2], [[0]])
        assert root_gram("BC1") == ((Fraction(1, 2),),)
        assert ldl(root_gram("BC1"))[0] == [Fraction(1, 2)]
        assert determinant(root_gram("E8")) == 1

    def test_norm(self):
        norms = short_vectors(root_gram("A2"), 6)
        assert norms[(1, 0)] == 2
        assert norms[(1, 1)] == 2
        assert norms[(1, -1)] == 6


class TestShortVectors:
    def test_rank_one(self):
        assert short_vectors(((2,),), 2) == {(-1,): 2, (0,): 0, (1,): 2}

    def test_a2_roots(self):
        assert Counter(short_vectors(root_gram("A2"), 2).values())[2] == 6

    def test_e8_roots(self):
        assert Counter(short_vectors(root_gram("E8"), 2).values())[2] == 240

    # the number of vectors of each norm at bound 2; in G2, 6 long roots of
    # norm 2 and 6 short ones of norm 2/3
    @pytest.mark.parametrize(
        "name,split",
        [
            ("A2", {0: 1, 2: 6}),
            ("A3", {0: 1, 2: 12}),
            ("D4", {0: 1, 2: 24}),
            ("A1+A1", {0: 1, 2: 4}),
            ("BC1", {0: 1, Fraction(1, 2): 2, 2: 2}),
            ("G2", {0: 1, Fraction(2, 3): 6, 2: 6}),
        ],
        ids=["A2", "A3", "D4", "A1+A1", "BC1", "G2"],
    )
    def test_matches_box_search(self, name, split):
        # the box search is complete inside its radius: the enumeration must
        # find exactly the box results there, and anything it reports outside
        # the box must genuinely satisfy the bound
        gm = root_gram(name)
        n = len(gm)
        for bound in (2, 4, 6):
            got = short_vectors(gm, bound)
            box = naive_short_vectors(gm, bound, radius=4)
            inside = {v for v in got if all(abs(x) <= 4 for x in v)}
            assert inside == box, (name, bound)
            for v, norm in got.items():
                assert norm == sum(gm[i][j] * v[i] * v[j] for i in range(n) for j in range(n))
                assert norm <= bound
        assert Counter(short_vectors(gm, 2).values()) == split

    def test_negation_closure_and_zero(self):
        vecs = short_vectors(root_gram("D5"), 4)
        assert all(tuple(-x for x in v) in vecs for v in vecs)
        assert (0, 0, 0, 0, 0) in vecs and (9, 0, 0, 0, 0) not in vecs

    def test_rank_zero(self):
        assert short_vectors(root_gram(""), 2) == {(): 0}
        assert short_vectors(root_gram(""), -1) == {}

    def test_negative_bound_finds_nothing(self):
        assert short_vectors(root_gram("A2"), -1) == {}


class TestRootCounts:
    @pytest.mark.parametrize("k", range(1, 9))
    def test_a_series(self, k):
        assert root_count(root_gram(f"A{k}")) == k * (k + 1)

    @pytest.mark.parametrize("l", range(4, 9))
    def test_d_series(self, l):
        assert root_count(root_gram(f"D{l}")) == 2 * l * (l - 1)

    @pytest.mark.parametrize("n,count", [(6, 72), (7, 126), (8, 240)])
    def test_e_series(self, n, count):
        assert root_count(root_gram(f"E{n}")) == count


class TestCorootSystem:
    def test_rank_one(self):
        assert coroot_system(((2,),)) == {(-1,): 2, (1,): 2}

    def test_non_integral_rejected(self):
        with pytest.raises(ValueError, match="integral"):
            coroot_system(root_gram("G2"))
        with pytest.raises(ValueError, match="integral"):
            coroot_system(root_gram("BC1"))

    def test_d4_counts(self):
        # all 24 roots qualify, and so do all 24 norm-4 vectors: for any
        # lattice vector y the pairing (x, y) is even when x has norm 4
        # (verified against the box-search oracle below)
        norms = Counter(coroot_system(root_gram("D4")).values())
        assert norms == {2: 24, 4: 24}

    def test_d4_against_box_search(self):
        gm = root_gram("D4")
        n = 4
        expected = set()
        for vec in naive_short_vectors(gm, 6, radius=4):
            norm = sum(gm[i][j] * vec[i] * vec[j] for i in range(n) for j in range(n))
            if norm not in (2, 4, 6):
                continue
            pair = [sum(gm[i][j] * vec[j] for j in range(n)) for i in range(n)]
            if all((2 * p) % norm == 0 for p in pair):
                expected.add(vec)
        assert set(coroot_system(gm)) == expected

    def test_e8_coroots_are_roots(self):
        assert Counter(coroot_system(root_gram("E8")).values()) == {2: 240}

    def test_negation_closure(self):
        vecs = coroot_system(root_gram("A3"))
        assert all(tuple(-x for x in v) in vecs for v in vecs)


class TestDeterminant:
    def test_multiplicative_over_orthogonal_sums(self):
        pairs = [("A3", "D4"), ("E6", "A1"), ("A2", "BC1"), ("G2", "A4")]
        for left, right in pairs:
            combined = determinant(root_gram(f"{left}+{right}"))
            separate = determinant(root_gram(left)) * determinant(root_gram(right))
            assert combined == separate

    def test_singular(self):
        assert determinant(((1, 1), (1, 1))) == 0

    def test_zero_pivot_swaps_rows(self):
        assert determinant(((0, 1), (1, 0))) == -1
        assert determinant(((0, 2, 0), (1, 0, 0), (0, 0, 3))) == -6
