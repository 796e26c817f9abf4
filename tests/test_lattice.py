from __future__ import annotations

from fractions import Fraction

import pytest

from dynkintrans.graphs import A, BC1, D, DynkinGraph, E, G2, gram, parse_name, realize
from dynkintrans.lattice import (
    Lattice,
    NonIntegralLattice,
    coroot_system,
    determinant,
    root_count,
    root_lattice,
    short_vectors,
)

from oracles import naive_short_vectors


class TestLattice:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            Lattice(((2, -1), (0, 2)))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            Lattice(((2, -1),))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="positive definite"):
            Lattice(((2, -3), (-3, 2)))
        with pytest.raises(ValueError, match="positive definite"):
            Lattice(((0,),))
        # a zero pivot after the first: the decomposition must stop before it divides
        for gram_matrix in [((2, 2), (2, 2)), ((1, 1, 0), (1, 1, 0), (0, 0, 1))]:
            with pytest.raises(ValueError, match="positive definite"):
                Lattice(gram_matrix)

    def test_root_lattice_examples(self):
        assert root_lattice(DynkinGraph((A(1),))).gram == ((Fraction(2),),)
        assert root_lattice(DynkinGraph((BC1,))).gram == ((Fraction(1, 2),),)
        assert root_lattice(DynkinGraph((E(8),))).determinant() == 1

    def test_norm(self):
        lat = root_lattice(parse_name("A2"))
        assert lat.norm((1, 0)) == 2
        assert lat.norm((1, 1)) == 2
        assert lat.norm((1, -1)) == 6


class TestShortVectors:
    def test_rank_one(self):
        rs = short_vectors(Lattice(((2,),)), 2)
        assert set(rs.vectors()) == {(-1,), (0,), (1,)}

    def test_a2_roots(self):
        rs = short_vectors(root_lattice(parse_name("A2")), 2)
        assert rs.count_of_norm(2) == 6

    def test_e8_roots(self):
        rs = short_vectors(root_lattice(parse_name("E8")), 2)
        assert rs.count_of_norm(2) == 240

    @pytest.mark.parametrize("name", ["A2", "A3", "D4", "A1+A1", "BC1", "G2"])
    def test_matches_box_search(self, name):
        # the box search is complete inside its radius: the enumeration must
        # find exactly the box results there, and anything it reports outside
        # the box must genuinely satisfy the bound
        lat = root_lattice(parse_name(name))
        for bound in (2, 4, 6):
            got = set(short_vectors(lat, bound).vectors())
            box = naive_short_vectors(lat.gram, bound, radius=4)
            inside = {v for v in got if all(abs(x) <= 4 for x in v)}
            assert inside == box, (name, bound)
            for v in got - inside:
                assert lat.norm(v) <= bound

    def test_negation_closure_and_zero(self):
        rs = short_vectors(root_lattice(parse_name("D5")), 4)
        vecs = set(rs.vectors())
        assert all(tuple(-x for x in v) in vecs for v in vecs)
        assert (0, 0, 0, 0, 0) in vecs
        assert [0, 0, 0, 0, 0] in rs and (9, 0, 0, 0, 0) not in rs

    def test_rank_zero(self):
        assert short_vectors(root_lattice(parse_name("")), 2).vectors() == [()]
        assert short_vectors(root_lattice(parse_name("")), -1).vectors() == []

    def test_negative_bound_finds_nothing(self):
        assert len(short_vectors(root_lattice(parse_name("A2")), -1)) == 0


class TestRootCounts:
    @pytest.mark.parametrize("k", range(1, 9))
    def test_a_series(self, k):
        assert root_count(DynkinGraph((A(k),))) == k * (k + 1)

    @pytest.mark.parametrize("l", range(4, 9))
    def test_d_series(self, l):
        assert root_count(DynkinGraph((D(l),))) == 2 * l * (l - 1)

    @pytest.mark.parametrize("n,count", [(6, 72), (7, 126), (8, 240)])
    def test_e_series(self, n, count):
        assert root_count(DynkinGraph((E(n),))) == count


class TestCorootSystem:
    def test_rank_one(self):
        rs = coroot_system(Lattice(((2,),)))
        assert set(rs.vectors()) == {(-1,), (1,)}

    def test_non_integral_rejected(self):
        with pytest.raises(NonIntegralLattice):
            coroot_system(root_lattice(DynkinGraph((G2,))))
        with pytest.raises(NonIntegralLattice):
            coroot_system(root_lattice(DynkinGraph((BC1,))))

    def test_d4_counts(self):
        # all 24 roots qualify, and so do all 24 norm-4 vectors: for any
        # lattice vector y the pairing (x, y) is even when x has norm 4
        # (verified against the box-search oracle below)
        lat = root_lattice(parse_name("D4"))
        rs = coroot_system(lat)
        assert rs.count_of_norm(2) == 24
        assert rs.count_of_norm(4) == 24
        assert rs.count_of_norm(6) == 0
        assert len(rs) == 48

    def test_d4_against_box_search(self):
        lat = root_lattice(parse_name("D4"))
        gm = lat.gram
        n = 4
        expected = set()
        for vec in naive_short_vectors(gm, 6, radius=4):
            norm = sum(gm[i][j] * vec[i] * vec[j] for i in range(n) for j in range(n))
            if norm not in (2, 4, 6):
                continue
            pair = [sum(gm[i][j] * vec[j] for j in range(n)) for i in range(n)]
            if all((2 * p) % norm == 0 for p in pair):
                expected.add(vec)
        assert set(coroot_system(lat).vectors()) == expected

    def test_e8_coroots_are_roots(self):
        rs = coroot_system(root_lattice(parse_name("E8")))
        assert rs.count_of_norm(2) == 240
        assert len(rs) == 240

    def test_negation_closure(self):
        rs = coroot_system(root_lattice(parse_name("A3")))
        vecs = set(rs.vectors())
        assert all(tuple(-x for x in v) in vecs for v in vecs)


class TestDeterminant:
    def test_multiplicative_over_orthogonal_sums(self):
        pairs = [("A3", "D4"), ("E6", "A1"), ("A2", "BC1"), ("G2", "A4")]
        for left, right in pairs:
            combined = determinant(gram(realize(parse_name(f"{left}+{right}"))))
            separate = determinant(gram(realize(parse_name(left)))) * determinant(
                gram(realize(parse_name(right)))
            )
            assert combined == separate

    def test_singular(self):
        assert determinant(((1, 1), (1, 1))) == 0

    def test_zero_pivot_swaps_rows(self):
        assert determinant(((0, 1), (1, 0))) == -1
        assert determinant(((0, 2, 0), (1, 0, 0), (0, 0, 3))) == -6
