"""Newton polyhedron geometry: facets, membership, intercepts, covolumes."""
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lctlab import exactgeom
from lctlab.exactgeom import (
    InvalidInputError,
    MonomialIdeal,
    NotZeroDimensionalError,
    UnsupportedDimensionError,
    build_polyhedron,
    covolume,
    diagonal_intercept,
    maximal_ideal,
    minimalize,
    minkowski_sum,
    polyhedron_of,
)

from lctlab.verify import random_ideal

from oracles import (
    axis_intercepts_fractions,
    contains,
    facet_eval,
    facets_all_generators,
    grid_points,
    ideal_power,
    lp_hull_member,
    lp_member,
    scale_ideal,
)


def shoelace_covolume(gens):
    """Independent 2-d oracle: area of the staircase polygon below the hull.

    Walks the lower-left boundary vertices (sorted by x, keeping the convex
    chain) from the y-axis to the x-axis and applies the shoelace formula
    against the origin.
    """
    pts = sorted(set(gens))
    chain = []
    for p in pts:
        while len(chain) >= 2:
            (x1, y1), (x2, y2) = chain[-2], chain[-1]
            if (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1) <= 0:
                chain.pop()
            else:
                break
        chain.append(p)
    poly = [(0, chain[0][1])] if chain[0][0] != 0 else []
    poly += chain
    if chain[-1][1] != 0:
        poly.append((chain[-1][0], 0))
    area = Fraction(0)
    full = [(0, 0)] + poly
    for (x1, y1), (x2, y2) in zip(full, full[1:] + full[:1]):
        area += Fraction(x1 * y2 - x2 * y1, 2)
    return abs(area)


class TestBuildPolyhedron:
    def test_unit_simplex(self):
        P = build_polyhedron({(1, 0), (0, 1)}, 2)
        assert P.facets == (((1, 1), 1),)

    def test_staircase(self):
        P = build_polyhedron({(2, 0), (1, 1), (0, 3)}, 2)
        assert P.facets == (((1, 1), 2), ((2, 1), 3))

    def test_scaled_simplex_3d(self):
        P = build_polyhedron({(3, 0, 0), (0, 3, 0), (0, 0, 3)}, 3)
        assert P.facets == (((1, 1, 1), 3),)

    def test_dimension_cap(self):
        with pytest.raises(UnsupportedDimensionError):
            build_polyhedron({(1, 0, 0, 0, 0)}, 5)

    def test_empty_generators(self):
        with pytest.raises(InvalidInputError):
            build_polyhedron(set(), 2)

    def test_origin_gives_orthant(self):
        P = build_polyhedron({(0, 0)}, 2)
        assert P.facets == ()  # the full orthant
        assert covolume(P) == 0

    def test_unbounded_facet(self):
        # no pure power on the y axis: facet x >= 1 with zero normal entry
        P = build_polyhedron({(2, 0), (1, 1)}, 2)
        assert ((1, 0), 1) in P.facets

    def test_vertices_drop_interior_generators(self):
        a = ideal_power(maximal_ideal(4), 5)
        assert len(a.generators) == 56
        P = polyhedron_of(a)
        # the pure powers have the same hull, so they give the same object
        assert P is build_polyhedron([(5, 0, 0, 0), (0, 5, 0, 0), (0, 0, 5, 0), (0, 0, 0, 5)], 4)
        assert P.vertices == ((0, 0, 0, 5), (0, 0, 5, 0), (0, 5, 0, 0), (5, 0, 0, 0))
        assert P.facets == (((1, 1, 1, 1), 5),)

    @pytest.mark.parametrize("gens", [[(1.5, 0), (0, 2)], [(2.7, 0), (0, 2)],
                                      [(Fraction(3, 2), 0), (0, 2)],
                                      [(Fraction(2), 0), (0, 2)]])
    def test_non_integer_exponent(self, gens):
        with pytest.raises(InvalidInputError, match="non-integer exponent in generator"):
            build_polyhedron(gens, 2)

    def test_hull_pass_once_per_generator_set(self, monkeypatch):
        # a new generator set runs the hull pass once, then returns the live
        # polyhedron of its hull; the intern table holds no more polyhedra
        # than the cache holds generator sets
        size = exactgeom.POLY_CACHE_SIZE
        runs = []

        def counted(gens, n):
            runs.append(gens)
            return hull(gens, n)

        hull = exactgeom._vertices_and_facets
        monkeypatch.setattr(exactgeom, "_vertices_and_facets", counted)
        exactgeom._polyhedron.cache_clear()
        square = [(2, 0), (0, 2)]
        P = build_polyhedron(square, 2)
        assert build_polyhedron(square + [(1, 1)], 2) is P
        assert build_polyhedron(square + [(1, 1)], 2) is P
        assert build_polyhedron(square + [(1, 2)], 2) is P  # minimalize drops (1, 2)
        assert build_polyhedron(square + [(1, 1), (2, 1)], 2) is P
        assert runs == [((0, 2), (2, 0)), ((0, 2), (1, 1), (2, 0))]

        # (x^i, y^j) with i, j > 2: none has P's hull, and each evicts one
        # generator set; P is dropped, so only the cache holds polyhedra
        del P
        powers = ((i, j) for i in range(3, 200) for j in range(3, 200))
        for i, j in itertools.islice(powers, size + 10):
            build_polyhedron([(i, 0), (0, j)], 2)
        assert len(runs) == 2 + size + 10
        assert len(exactgeom._HULLS) <= size

    def test_cached_polyhedron_skips_minimalize(self, monkeypatch):
        a = random_ideal(3, 11, 5)
        P = polyhedron_of(a)
        monkeypatch.setattr(exactgeom, "minimalize", None)  # a call would fail
        assert polyhedron_of(a) is P

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.tuples(*[st.integers(0, 6)] * n), min_size=1, max_size=7))))
    @example((2, [(0, 0), (3, 1)]))
    @example((3, [(2, 0, 0), (1, 1, 0), (0, 3, 1)]))
    # three collinear generators: two facets that are not adjacent share n - 1
    @example((4, [(0, 1, 1, 3), (0, 2, 1, 2), (0, 3, 1, 1), (1, 1, 3, 1), (2, 2, 0, 3),
                  (3, 2, 0, 2)]))
    # dominated points before, between and after the minimal ones
    @example((2, [(0, 3), (0, 5), (1, 1), (1, 4), (2, 0), (2, 1), (4, 4)]))
    def test_matches_all_generator_oracle(self, case):
        n, gens = case
        P = build_polyhedron(gens, n)
        assert P.facets == facets_all_generators(gens, n)
        # the hull also takes sorted distinct points that are not minimal
        points = tuple(sorted(set(gens)))
        assert exactgeom._vertices_and_facets(points, n) == (P.vertices, P.facets)
        for v in P.vertices:
            others = [g for g in points if g != v]
            assert not (others and lp_hull_member(others, n, v)), v
        for g in points:
            assert lp_hull_member(P.vertices, n, g), g

    @pytest.mark.parametrize("N", [1000, 4 * 10 ** 9, 10 ** 30])
    def test_large_exponents_exact(self, N):
        # 4e9 overflowed the int64 cross products of an earlier version,
        # which then read the polyhedron as the whole orthant
        P = build_polyhedron([(N, 0, 0), (0, N, 0), (0, 0, N), (1, 1, 1)], 3)
        assert P.facets == (((1, 1, N - 2), N), ((1, N - 2, 1), N), ((N - 2, 1, 1), N))
        assert covolume(P) == Fraction(N * N, 2)


class TestContains:
    def test_on_facet(self):
        P = build_polyhedron({(1, 0), (0, 1)}, 2)
        assert contains(P, (Fraction(1, 2), Fraction(1, 2)))

    def test_generator(self):
        P = build_polyhedron({(2, 0), (1, 1), (0, 3)}, 2)
        assert contains(P, (1, 1))

    def test_outside(self):
        P = build_polyhedron({(2, 0), (1, 1), (0, 3)}, 2)
        assert not contains(P, (0, 2))

    def test_negative_coordinate(self):
        P = build_polyhedron({(1, 0), (0, 1)}, 2)
        with pytest.raises(InvalidInputError):
            contains(P, (-1, 0))


class TestMinkowskiSum:
    def test_m_plus_m(self):
        m = polyhedron_of(maximal_ideal(2))
        S = minkowski_sum(m, m)
        assert S.facets == (((1, 1), 2),)
        R = build_polyhedron({(2, 0), (1, 1), (0, 2)}, 2)
        assert (S.vertices, S.facets) == (R.vertices, R.facets)
        assert S.vertices == ((0, 2), (2, 0))
        assert S is R

    def test_staircase_plus_m(self):
        P = build_polyhedron({(2, 0), (1, 1), (0, 3)}, 2)
        S = minkowski_sum(P, polyhedron_of(maximal_ideal(2)))
        for v in [(3, 0), (1, 2), (0, 4)]:
            assert contains(S, v)
            assert any(
                sum(w[i] * v[i] for i in range(2)) == c for w, c in S.facets)

    def test_identity_element(self):
        P = build_polyhedron({(2, 0), (1, 1), (0, 3)}, 2)
        Q = minkowski_sum(P, build_polyhedron({(0, 0)}, 2))
        assert Q.facets == P.facets

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            minkowski_sum(polyhedron_of(maximal_ideal(2)),
                          polyhedron_of(maximal_ideal(3)))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(*[
        st.lists(st.tuples(*[st.integers(0, 5)] * n), min_size=1, max_size=6)] * 2)))
    def test_matches_hull_of_sums(self, case):
        """The sums skip minimalize: their polyhedron is the minimal ones'."""
        ga, gb = case
        n = len(ga[0])
        P, Q = build_polyhedron(ga, n), build_polyhedron(gb, n)
        S = minkowski_sum(P, Q)
        sums = {tuple(x + y for x, y in zip(u, v)) for u in P.vertices for v in Q.vertices}
        assert exactgeom._vertices_and_facets(tuple(sorted(sums)), n) == (S.vertices, S.facets)
        R = build_polyhedron(sums, n)
        assert (S.vertices, S.facets) == (R.vertices, R.facets)
        assert S is R


def test_cone_volumes_per_facet():
    P = build_polyhedron({(2, 0), (1, 1), (0, 3)}, 2)
    assert P.facets == (((1, 1), 2), ((2, 1), 3))
    # the triangles 0, (2, 0), (1, 1) and 0, (1, 1), (0, 3), of areas 1 and
    # 3/2, kept as the integers 2! vol
    assert P.normalized_cone_volumes == (2, 3)
    assert covolume(P) == Fraction(5, 2)
    assert build_polyhedron({(0, 0)}, 2).normalized_cone_volumes == ()


def test_covolume_is_kept_on_the_polyhedron(monkeypatch):
    P = build_polyhedron({(5, 0, 0), (1, 2, 1), (0, 6, 0), (0, 0, 7)}, 3)
    vol = covolume(P)
    monkeypatch.setattr(exactgeom, "_cone_volume", None)  # a call would fail
    assert covolume(P) is vol


class TestIntercepts:
    def test_diagonal_m(self):
        assert diagonal_intercept(polyhedron_of(maximal_ideal(2))) == Fraction(1, 2)

    @pytest.mark.parametrize("n,d", [(2, 3), (3, 2), (4, 5)])
    def test_diagonal_power(self, n, d):
        P = polyhedron_of(ideal_power(maximal_ideal(n), d))
        assert diagonal_intercept(P) == Fraction(d, n)

    def test_diagonal_staircase(self):
        P = build_polyhedron({(2, 0), (1, 1), (0, 3)}, 2)
        assert diagonal_intercept(P) == 1

    # the axis intercepts are the pure powers; the oracle reads them off
    # the facets
    def test_axis_power(self):
        a = ideal_power(maximal_ideal(3), 4)
        assert tuple(a.pure_power(i) for i in range(3)) == (4, 4, 4)
        assert axis_intercepts_fractions(polyhedron_of(a)) == (4, 4, 4)

    def test_axis_staircase(self):
        a = MonomialIdeal.make({(2, 0), (1, 1), (0, 3)}, 2)
        assert (a.pure_power(0), a.pure_power(1)) == (2, 3)
        assert axis_intercepts_fractions(polyhedron_of(a)) == (2, 3)

    def test_axis_absent(self):
        a = MonomialIdeal.make({(1, 1)}, 2)
        assert (a.pure_power(0), a.pure_power(1)) == (None, None)
        assert axis_intercepts_fractions(polyhedron_of(a)) == (None, None)


class TestCovolume:
    def test_corner_triangle(self):
        assert covolume(polyhedron_of(maximal_ideal(2))) == Fraction(1, 2)

    def test_staircase_shoelace(self):
        gens = [(2, 0), (1, 1), (0, 3)]
        assert covolume(build_polyhedron(gens, 2)) == Fraction(5, 2)
        assert shoelace_covolume(gens) == Fraction(5, 2)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_corner_simplex_3d(self, d):
        P = polyhedron_of(ideal_power(maximal_ideal(3), d))
        assert covolume(P) == Fraction(d ** 3, 6)

    def test_4d(self):
        P = polyhedron_of(ideal_power(maximal_ideal(4), 2))
        assert covolume(P) == Fraction(2 ** 4, 24)

    def test_unbounded_complement(self):
        with pytest.raises(NotZeroDimensionalError):
            covolume(build_polyhedron({(1, 1)}, 2))


gens2 = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(lambda v: sum(v) > 0),
    min_size=1, max_size=5)
gens3 = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)).filter(
        lambda v: sum(v) > 0),
    min_size=1, max_size=4)


class TestProperties:
    @settings(max_examples=30, deadline=None)
    @given(gens2)
    def test_facets_agree_with_lp_on_grid(self, gens):
        a = MonomialIdeal.make(gens, 2)
        P = polyhedron_of(a)
        for q in grid_points(a):
            assert facet_eval(P, q) == lp_member(a, q)

    @settings(max_examples=20, deadline=None)
    @given(gens3)
    def test_facets_agree_with_lp_on_grid_3d(self, gens):
        a = MonomialIdeal.make(gens, 3)
        P = polyhedron_of(a)
        for q in grid_points(a)[:25]:
            assert facet_eval(P, q) == lp_member(a, q)

    @settings(max_examples=25, deadline=None)
    @given(gens2, st.sampled_from([1, 2, 3]))
    def test_scaling(self, gens, k):
        a = MonomialIdeal.make(gens, 2)
        ak = scale_ideal(a, k)
        P, Pk = polyhedron_of(a), polyhedron_of(ak)
        assert diagonal_intercept(Pk) == k * diagonal_intercept(P)
        for i in range(2):
            t, tk = a.pure_power(i), ak.pure_power(i)
            assert (t is None) == (tk is None)
            if t is not None:
                assert tk == k * t
        if a.zero_dimensional:
            assert covolume(Pk) == k ** 2 * covolume(P)

    @settings(max_examples=25, deadline=None)
    @given(gens2, gens2)
    def test_monotonicity(self, ga, gb):
        Pa = build_polyhedron(ga, 2)
        Pb = build_polyhedron(gb, 2)
        if all(facet_eval(Pb, g) for g in ga):
            # P(a) subset of P(b)
            assert diagonal_intercept(Pa) >= diagonal_intercept(Pb)
            ta, tb = axis_intercepts_fractions(Pa), axis_intercepts_fractions(Pb)
            if all(t is not None for t in ta) and all(t is not None for t in tb):
                assert covolume(Pa) >= covolume(Pb)

    @settings(max_examples=20, deadline=None)
    @given(gens2, gens2, gens2)
    def test_minkowski_commutative_associative(self, g1, g2, g3):
        P1, P2, P3 = (build_polyhedron(g, 2) for g in (g1, g2, g3))
        assert minkowski_sum(P1, P2).facets == minkowski_sum(P2, P1).facets
        left = minkowski_sum(minkowski_sum(P1, P2), P3)
        right = minkowski_sum(P1, minkowski_sum(P2, P3))
        assert left.facets == right.facets

    @settings(max_examples=40, deadline=None)
    @given(gens2)
    def test_covolume_matches_shoelace(self, gens):
        a = MonomialIdeal.make(gens, 2)
        if a.zero_dimensional:
            assert covolume(polyhedron_of(a)) == shoelace_covolume(a.generators)


class TestMonomialIdeal:
    def test_minimalize(self):
        assert minimalize([(2, 0), (2, 1), (0, 3), (1, 3)]) == ((0, 3), (2, 0))
        # an antichain, points above it and a far point
        stair = [(i, 40 - i, 0) for i in range(41)]
        above = [(i + 1, 40 - i, 1) for i in range(40)] + [(100, 100, 100)]
        assert minimalize(above + stair) == tuple(stair)
        assert minimalize(above) == tuple(above[:40])

    def test_zero_dimensional(self):
        assert MonomialIdeal.make({(2, 0), (0, 3)}, 2).zero_dimensional
        assert not MonomialIdeal.make({(1, 1)}, 2).zero_dimensional

    def test_unit(self):
        a = MonomialIdeal.make({(0, 0), (1, 2)}, 2)
        assert a.is_unit
        assert a.generators == ((0, 0),)

    def test_invalid(self):
        with pytest.raises(InvalidInputError):
            MonomialIdeal.make([], 2)
        with pytest.raises(InvalidInputError):
            MonomialIdeal.make([(1, -1)], 2)

    @pytest.mark.parametrize("bad", [1.5, 2.0, Fraction(3, 2), Fraction(2), np.float64(2)])
    def test_non_integer_exponent(self, bad):
        with pytest.raises(InvalidInputError, match=r"generator \(.*, 0\)"):
            MonomialIdeal.make([(bad, 0), (0, 2)], 2)

    def test_numpy_integer_exponents(self):
        a = MonomialIdeal.make([(np.int64(3), np.int32(0)), (0, np.uint8(2))], 2)
        assert a.generators == ((0, 2), (3, 0))
        assert all(type(c) is int for g in a.generators for c in g)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_maximal_ideal(self, n):
        units = [tuple(int(j == i) for j in range(n)) for i in range(n)]
        assert maximal_ideal(n) == MonomialIdeal.make(units, n)


def leibniz(rows):
    """det by the Leibniz formula: the signed sum over permutations."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a, b in itertools.combinations(range(n), 2))
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def test_det_matches_leibniz():
    # every square submatrix of small matrices with entries mostly 0 or +-1,
    # so that cofactors vanish and rows cancel, and some Fraction entries
    rng = random.Random(5)
    for _ in range(600):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        mat = [[rng.choice((0, 0, 0, 1, -1, 2, Fraction(1, 3))) for _ in range(cols)]
               for _ in range(rows)]
        for k in range(1, min(rows, cols) + 1):
            for r in itertools.combinations(mat, k):
                for c in itertools.combinations(range(cols), k):
                    sub = [[row[j] for j in c] for row in r]
                    assert exactgeom.det(sub) == leibniz(sub), sub
