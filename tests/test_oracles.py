"""Each exact production path against its independent oracle (oracles.py).

The inputs are those of the acceptance suite: its corpora, the powers its
scaling criterion takes, the dim-4 ideals the other tests build (m, m^5,
two random ideals and the 16-generator m*J_f of a Fermat germ) and every
polyhedron whose covolume lelong_numbers or the diagonal mixed multiplicity
takes (products a^i * m^j and a^i).
"""
import itertools
from fractions import Fraction

import pytest

from lctlab import invariants
from lctlab.exactgeom import (
    MonomialIdeal,
    contains,
    covolume,
    diagonal_intercept,
    ideal_power,
    maximal_ideal,
    polyhedron_of,
)
from lctlab.germs import jacobian_ideal, monomialize, parse_polynomial, product_with_maximal
from lctlab.invariants import lelong_numbers, loja_monomial, mixed_multiplicity
from lctlab.verify import random_ideal

from oracles import (
    covolume_box,
    facets_all_generators,
    grid_points,
    loja_dual,
    lp_diagonal_intercept,
    lp_hull_member,
    lp_member,
)
from test_acceptance import CORPUS_2D, CORPUS_3D

CORPORA = CORPUS_2D + CORPUS_3D
IDEALS = CORPORA + [ideal_power(a, k) for a in CORPUS_2D[:50] for k in (2, 3)]
M4 = maximal_ideal(4)
DIM4 = [random_ideal(4, s, 5) for s in (1, 2)]
FERMAT4 = monomialize(product_with_maximal(jacobian_ideal(
    parse_polynomial("x^5 + y^5 + z^5 + w^5")))).ideal
# 35 generators, every one a vertex: more facet candidates than one batch
SQUARES4 = MonomialIdeal.make(
    [tuple(c * c for c in t) for t in itertools.product(range(5), repeat=4) if sum(t) == 4], 4)


def test_contains_matches_lp_membership():
    for a in IDEALS + [M4]:
        P = polyhedron_of(a)
        for q in grid_points(P):
            assert contains(P, q) == lp_member(P, q), (a.generators, q)


def test_diagonal_intercept_matches_lp():
    for a in IDEALS + [M4, ideal_power(M4, 5)]:
        P = polyhedron_of(a)
        assert diagonal_intercept(P) == lp_diagonal_intercept(P), a.generators


def test_loja_monomial_matches_dual():
    for a in IDEALS + [M4]:
        assert loja_monomial(a) == loja_dual(polyhedron_of(a)), a.generators


@pytest.fixture(scope="module")
def covolume_inputs():
    """(P, complement volume of P in the box of side M0) for every polyhedron
    whose covolume the Lelong numbers of IDEALS, m and DIM4 and the diagonal
    mixed multiplicities of CORPORA take.  The recording stand-in returns the
    oracle's volume, so a wrong production covolume cannot stop the run."""
    taken = {}

    def record(P):
        key = P.dim, P.generators
        if key not in taken:
            taken[key] = P, covolume_box(P)
        return taken[key][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(invariants, "covolume", record)
        for a in IDEALS + [M4] + DIM4:
            lelong_numbers(a)
        for a in CORPORA:
            mixed_multiplicity([a] * a.dim)
    assert len(taken) > len(IDEALS)
    return list(taken.values())


def test_covolume_independent_of_bounding_box(covolume_inputs):
    for P, box in covolume_inputs:
        assert covolume(P) == box == covolume_box(P, 1), P.generators


def test_facets_match_all_generator_oracle(covolume_inputs):
    # the oracle's candidate count grows as the cube of the pairwise
    # directions in dim 4, so the dim-4 products are left to the volumes
    polys = [polyhedron_of(a) for a in IDEALS + [M4, FERMAT4] + DIM4]
    polys += [P for P, _ in covolume_inputs if P.dim < 4]
    for P in polys:
        assert P.facets == facets_all_generators(P.generators, P.dim), P.generators


def test_many_vertices_covolume():
    # covolume_box gives the same value, in about 25 s
    assert covolume(polyhedron_of(SQUARES4)) == Fraction(188, 3)


def test_vertices_are_exactly_the_extreme_generators():
    for a in IDEALS + [M4, ideal_power(M4, 5), FERMAT4, SQUARES4] + DIM4:
        P = polyhedron_of(a)
        assert set(P.vertices) <= set(P.generators), a.generators
        for v in P.vertices:
            others = [g for g in P.generators if g != v]
            assert not (others and lp_hull_member(others, P.dim, v)), (a.generators, v)
        for g in P.generators:
            assert lp_hull_member(P.vertices, P.dim, g), (a.generators, g)
