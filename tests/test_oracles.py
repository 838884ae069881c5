"""Each exact production path against its independent oracle (oracles.py).

The inputs are those of the acceptance suite: its corpora, the powers its
scaling criterion takes, the dim-4 ideals the other tests build and, for
covolume, every polyhedron whose covolume lelong_numbers or the diagonal
mixed multiplicity takes (products a^i * m^j and a^i).
"""
from lctlab import invariants
from lctlab.exactgeom import (
    contains,
    covolume,
    diagonal_intercept,
    ideal_power,
    maximal_ideal,
    polyhedron_of,
)
from lctlab.invariants import lelong_numbers, loja_monomial, mixed_multiplicity

from oracles import (
    covolume_larger_box,
    grid_points,
    loja_dual,
    lp_diagonal_intercept,
    lp_member,
)
from test_acceptance import CORPUS_2D, CORPUS_3D

CORPORA = CORPUS_2D + CORPUS_3D
IDEALS = CORPORA + [ideal_power(a, k) for a in CORPUS_2D[:50] for k in (2, 3)]
M4 = maximal_ideal(4)


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


def test_covolume_independent_of_bounding_box(monkeypatch):
    taken = {}

    def record(P):
        taken[P.dim, P.generators] = P
        return covolume(P)

    monkeypatch.setattr(invariants, "covolume", record)
    for a in IDEALS + [M4]:
        lelong_numbers(a)
    for a in CORPORA:
        mixed_multiplicity([a] * a.dim)
    monkeypatch.undo()
    assert len(taken) > len(IDEALS)
    for P in taken.values():
        assert covolume(P) == covolume_larger_box(P), P.generators
