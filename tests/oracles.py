"""Independent cross-checks of the exact production paths.

Each oracle computes a value that production computes one way by a second
route; test_oracles.py compares the two over the test corpora.  grid_points
gives the probe points of the membership oracle.
"""
from fractions import Fraction

from lctlab.exactgeom import (
    NewtonPolyhedron,
    _complement_volume,
    axis_intercepts,
    diagonal_intercept,
)
from lctlab.simplex import solve_lp


def lp_member(P: NewtonPolyhedron, q) -> bool:
    """q in conv(gens)+orthant, by exact LP feasibility over the generators."""
    g = len(P.generators)
    n = P.dim
    nvars = g + n  # convex weights, then slack per coordinate
    constraints = [([Fraction(1)] * g + [Fraction(0)] * n, "==", Fraction(1))]
    for k in range(n):
        coeffs = [Fraction(P.generators[i][k]) for i in range(g)]
        coeffs += [Fraction(1) if j == k else Fraction(0) for j in range(n)]
        constraints.append((coeffs, "==", Fraction(q[k])))
    res = solve_lp([Fraction(0)] * nvars, constraints, nvars)
    return res.status == "optimal"


def grid_points(P: NewtonPolyhedron) -> list:
    """Probe points for membership: generators, their midpoints, the axis and
    diagonal intercept points, each also shifted by +-1/7 along the diagonal."""
    gens = [tuple(Fraction(c) for c in g) for g in P.generators]
    pts = list(gens)
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            pts.append(tuple((a + b) / 2 for a, b in zip(gens[i], gens[j])))
    for i, t in enumerate(axis_intercepts(P)):
        if t is not None:
            pts.append(tuple(t if k == i else Fraction(0) for k in range(P.dim)))
    t0 = diagonal_intercept(P)
    pts.append(tuple(t0 for _ in range(P.dim)))
    eps = Fraction(1, 7)
    shifted = []
    for p in pts:
        shifted.append(tuple(c + eps for c in p))
        minus = tuple(c - eps for c in p)
        if all(c >= 0 for c in minus):
            shifted.append(minus)
    return pts + shifted


def lp_diagonal_intercept(P: NewtonPolyhedron) -> Fraction:
    """min t subject to t*sum(w) >= c for every facet (w, c), by the simplex."""
    constraints = [([Fraction(sum(w))], ">=", Fraction(c)) for w, c in P.facets]
    res = solve_lp([Fraction(1)], constraints, 1, maximize=False)
    assert res.status == "optimal", res.status
    return res.value


def covolume_larger_box(P: NewtonPolyhedron) -> Fraction:
    """Complement volume in the box of side M0 + 1, M0 the max axis intercept.

    It equals the covolume only if the facets bound the complement inside the
    box of side M0, so a broken facet list shows as a difference.
    """
    return _complement_volume(P, max(axis_intercepts(P)) + 1)


def loja_dual(P: NewtonPolyhedron) -> Fraction:
    """Dual weight program: sup over weights w >= 0 with min_i w_i = 1 of
    min_g <g, w>; the optimum lies on a normal-fan ray, a facet normal
    rescaled."""
    return max(Fraction(c, min(w)) for w, c in P.facets)
