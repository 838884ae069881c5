"""Each exact production path against its independent oracle (oracles.py).

The inputs are those of the acceptance suite: its corpora, the powers its
scaling criterion takes, the dim-4 ideals the other tests build (m, m^5,
two random ideals and the 16-generator m*J_f of a Fermat germ) and every
polyhedron whose covolume the covolume-polynomial oracle or the diagonal
mixed multiplicity takes (P + tD for the Newton polyhedra P of a and D of m,
t < n, and the sums P + .. + P).  Lelong numbers, which production reads off
the facets of P, are compared with the covolume polynomial t -> covol(P + tD)
and with both polarizations: over vertex Minkowski sums and over product
ideals; the polynomial's t^n coefficient, which neither production nor the
oracle evaluates, must be e_0 = 1.  The numeric estimator's batched
descent is compared with the per-sphere loop on plane ideals and plane
restrictions.  Restriction by direct substitution is compared with the one
polynomial product per degree on random multi-term polynomials, and the line
order read off the line's zero pattern with the order of the restricted
generators.  m*J_f by exponent shifts is compared with the products z_i*g
on drawn germs.  The diagonal intercept, found by integer
cross-multiplication, the pure powers and L_0, read off the generators, and
the one-pass zero-dimensionality check are compared with the intercepts
over the facets in Fractions and with one pure_power search per axis on
random ideals in dims 1-4, and the line's zero pattern, drawn from the
numerators alone, with sample_plane's matrix.  The corpus ideals and plane
entries, drawn through sections.draw, are compared with the draws of
random.Random(s).randint.
"""
import contextlib
import itertools
import random
from fractions import Fraction
from math import comb, factorial
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

import oracles
from lctlab import exactgeom, invariants, sections, verify
from lctlab.exactgeom import (
    InvalidInputError,
    MonomialIdeal,
    NotZeroDimensionalError,
    covolume,
    diagonal_intercept,
    ideal_product,
    maximal_ideal,
    minkowski_sum,
    polyhedron_of,
)
from lctlab.germs import (
    DegenerateGermError,
    IdealPresentation,
    NotMonomializableError,
    check_isolated,
    jacobian_ideal,
    monomialize,
    parse_polynomial,
    poly,
    product_with_maximal,
)
from lctlab.invariants import lelong_numbers, loja_monomial, mixed_multiplicity
from lctlab.sections import (
    PlaneRestriction,
    _draws,
    _line_zeros,
    line_order,
    loja_numeric,
    polar_invariant,
    restrict,
    sample_plane,
)
from lctlab.verify import random_ideal

from oracles import (
    axis_intercepts_fractions,
    contains,
    covolume_box,
    diagonal_intercept_fractions,
    draws_randint,
    facets_all_generators,
    grid_points,
    ideal_power,
    lelong_covolume_polynomial,
    line_order_restrict,
    loja_dual,
    loja_section_weights,
    lp_diagonal_intercept,
    lp_hull_member,
    lp_member,
    minmax_loop,
    mixed_multiplicity_products,
    poly_mul,
    random_ideal_randint,
    restrict_products,
    section_line_order,
    singular_axis,
    zero_dimensional_pure_powers,
)
from test_acceptance import CORPUS_2D, CORPUS_3D
from test_cli_fuzz import germ_texts
from test_sections import FAST, monomial_presentation

CORPORA = CORPUS_2D + CORPUS_3D
IDEALS = CORPORA + [ideal_power(a, k) for a in CORPUS_2D[:50] for k in (2, 3)]
M4 = maximal_ideal(4)
DIM4 = [random_ideal(4, s, 5) for s in (1, 2)]
FERMAT4 = monomialize(product_with_maximal(jacobian_ideal(
    parse_polynomial("x^5 + y^5 + z^5 + w^5")))).ideal


def squared_compositions(d: int) -> MonomialIdeal:
    """The squares of the compositions of d into 4 parts: every one a vertex."""
    return MonomialIdeal.make([tuple(c * c for c in t)
                               for t in itertools.product(range(d + 1), repeat=4)
                               if sum(t) == d], 4)


SQUARES4 = squared_compositions(4)  # 35 vertices and 34 facets


def test_contains_matches_lp_membership():
    for a in IDEALS + [M4]:
        P = polyhedron_of(a)
        for q in grid_points(a):
            assert contains(P, q) == lp_member(a, q), (a.generators, q)


def test_diagonal_intercept_matches_lp():
    for a in IDEALS + [M4, ideal_power(M4, 5)]:
        P = polyhedron_of(a)
        assert diagonal_intercept(P) == lp_diagonal_intercept(P), a.generators


def test_loja_monomial_matches_dual():
    for a in IDEALS + [M4]:
        assert loja_monomial(a) == loja_dual(polyhedron_of(a)), a.generators


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(*[st.integers(0, 6)] * n), min_size=1, max_size=8))))
@example((3, [(0, 0, 0)]))  # the unit ideal: the full orthant
@example((2, [(3, 0), (1, 1)]))  # the y-axis never meets P
@example((1, [(5,)]))
def test_intercepts_and_zero_dimensionality_match_fractions(case):
    n, gens = case
    a = MonomialIdeal.make(gens, n)
    P = polyhedron_of(a)
    assert diagonal_intercept(P) == diagonal_intercept_fractions(P)
    axes = axis_intercepts_fractions(P)
    assert tuple(a.pure_power(i) for i in range(n)) == axes
    assert a.zero_dimensional == zero_dimensional_pure_powers(a)
    if a.zero_dimensional:
        assert loja_monomial(a) == max(axes)


def test_line_zeros_match_sample_plane():
    """Seeds 0-4999 in dims 2-4 include dim-2 draws whose first line is 0,
    which both sides redraw."""
    redrawn = 0
    for n in (2, 3, 4):
        for s in range(5000):
            plane = sample_plane(n, n - 1, s)
            assert _line_zeros(n, s) == [i for i, (c,) in enumerate(plane.matrix) if not c]
            redrawn += not any(p for ((p, _),) in next(_draws(n, n - 1, s)))
    assert redrawn


@pytest.mark.parametrize("budget", [2, 3, 5, 17, 1000])
def test_random_ideal_matches_randint_reference(monkeypatch, budget):
    """Seeds 0-1999 in dims 2-4.  Both sides skip minimalize, so the draws
    themselves are compared, in order, and budget 1000 takes no quadratic
    reduction; equal draws make equal ideals."""
    monkeypatch.setattr(verify, "minimalize", tuple)
    monkeypatch.setattr(oracles, "minimalize", tuple)
    for n in (2, 3, 4):
        for s in range(2000):
            assert random_ideal(n, s, budget) == random_ideal_randint(n, s, budget), (n, s)


def test_draws_match_randint_reference():
    """The first two attempts for every codimension, seeds 0-1999 in dims
    2-4; another caller's draws between two attempts change nothing, since
    each attempt reseeds."""
    for n in (2, 3, 4):
        for j in range(1, n):
            for s in range(2000):
                attempts = _draws(n, j, s)
                assert next(attempts) == draws_randint(n, j, s, 0), (n, j, s)
                random_ideal(n, s, 5)
                assert next(attempts) == draws_randint(n, j, s, 1), (n, j, s)


@pytest.fixture(scope="module")
def covolume_inputs():
    """(P, complement volume of P in the box of side M0, the generator sets
    the hull pass built P from) for every polyhedron whose covolume the
    covolume-polynomial Lelong numbers of IDEALS, m and DIM4 and the
    diagonal mixed multiplicities of CORPORA take.  The generator sets are
    the ideals' own and the vertex sums of the Minkowski sums, with their
    dominated and interior points; the cache is cleared first, so the hull
    pass sees each of them.  The recording stand-in returns the oracle's
    volume, so a wrong production covolume cannot stop the run."""
    taken = {}
    built = {}  # (n, vertices) -> generator sets the hull pass ran on
    hull_pass = exactgeom._vertices_and_facets

    def record_pass(gens, n):
        vertices, facets = hull_pass(gens, n)
        built.setdefault((n, vertices), set()).add(gens)
        return vertices, facets

    def record(P):
        key = P.dim, P.vertices
        if key not in taken:
            taken[key] = P, covolume_box(P)
        return taken[key][1]

    exactgeom._polyhedron.cache_clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactgeom, "_vertices_and_facets", record_pass)
        mp.setattr(invariants, "covolume", record)
        mp.setattr(oracles, "covolume", record)
        for a in IDEALS + [M4] + DIM4:
            lelong_covolume_polynomial(a)
        for a in CORPORA:
            mixed_multiplicity([a] * a.dim)
    exactgeom._polyhedron.cache_clear()
    assert len(taken) > len(IDEALS)
    return [(P, box, sorted(built[key])) for key, (P, box) in taken.items()]


def test_covolume_independent_of_bounding_box(covolume_inputs):
    for P, box, _ in covolume_inputs:
        assert covolume(P) == box == covolume_box(P, 1), P.vertices


def test_facets_match_all_generator_oracle(covolume_inputs):
    # the oracle's candidate count grows as the cube of the pairwise
    # directions in dim 4, so the dim-4 products are left to the volumes
    gen_sets = [(polyhedron_of(a), a.generators) for a in IDEALS + [M4, FERMAT4] + DIM4]
    gen_sets += [(P, gens) for P, _, sets in covolume_inputs if P.dim < 4 for gens in sets]
    # the sums bring points that are no vertex, as the ideals do
    ideals = {a.generators for a in IDEALS + [M4] + DIM4 + CORPORA}
    assert any(len(gens) > len(P.vertices) for P, _, sets in covolume_inputs
               if P.dim < 4 for gens in sets if gens not in ideals)
    for P, gens in gen_sets:
        assert P.facets == facets_all_generators(gens, P.dim), gens


def test_many_vertices_covolume():
    # covolume_box gives the same value, in about 25 s
    assert covolume(polyhedron_of(SQUARES4)) == Fraction(188, 3)


def test_vertices_are_exactly_the_extreme_generators():
    for a in IDEALS + [M4, ideal_power(M4, 5), FERMAT4, SQUARES4] + DIM4:
        P = polyhedron_of(a)
        assert set(P.vertices) <= set(a.generators), a.generators
        for v in P.vertices:
            others = [g for g in a.generators if g != v]
            assert not (others and lp_hull_member(others, P.dim, v)), (a.generators, v)
        for g in a.generators:
            assert lp_hull_member(P.vertices, P.dim, g), (a.generators, g)


def test_minkowski_sum_matches_product():
    m2, m3 = maximal_ideal(2), maximal_ideal(3)
    pairs = list(zip(CORPUS_2D, CORPUS_2D[1:])) + list(zip(CORPUS_3D, CORPUS_3D[1:]))
    pairs += [(a, a) for a in CORPORA] + [(a, m2) for a in CORPUS_2D]
    pairs += [(a, m3) for a in CORPUS_3D] + [(M4, M4), (FERMAT4, M4)]
    pairs += [(a, b) for a in DIM4 for b in DIM4 + [M4]]
    for a, b in pairs:
        S = minkowski_sum(polyhedron_of(a), polyhedron_of(b))
        P = polyhedron_of(ideal_product(a, b))
        assert (S.vertices, S.facets) == (P.vertices, P.facets), (a.generators, b.generators)


def _polarizations(a: MonomialIdeal, products: bool = True) -> list:
    """e_1..e_n of a as the polarization over vertex Minkowski sums and, if
    asked, over product ideals."""
    n, m = a.dim, maximal_ideal(a.dim)
    args = [[a] * k + [m] * (n - k) for k in range(1, n + 1)]
    out = [tuple(mixed_multiplicity(x) for x in args)]
    if products:
        out.append(tuple(mixed_multiplicity_products(x) for x in args))
    return out


LELONG_SEEDS = {(2, 5): range(300), (3, 5): range(60), (4, 5): range(6),
                (2, 9): range(100), (3, 9): range(30), (4, 9): range(3)}
LELONG_INPUTS = (CORPORA + [random_ideal(n, s, b) for (n, b), ss in LELONG_SEEDS.items()
                            for s in ss]
                 + [MonomialIdeal.make({(k,)}, 1) for k in (1, 2, 9)] + [M4])


def test_lelong_numbers_match_covolume_polynomial():
    for a in LELONG_INPUTS:
        assert lelong_numbers(a).e == lelong_covolume_polynomial(a), a.generators


def test_lelong_numbers_match_polarizations():
    for a in LELONG_INPUTS:
        e = lelong_numbers(a).e
        for polarization in _polarizations(a):
            assert polarization == e, a.generators


def test_lelong_numbers_of_squared_compositions():
    # the polarizations left out take 3.6 to 15 s each on these 56- and
    # 120-vertex ideals
    for d, products, vertex_sums in [(3, True, True), (5, False, True), (7, False, False)]:
        a = squared_compositions(d)
        e = lelong_numbers(a).e
        assert lelong_covolume_polynomial(a) == e, d
        if vertex_sums:
            for polarization in _polarizations(a, products):
                assert polarization == e, d


def test_lelong_numbers_give_e0():
    """n! covol(P + nD) - sum_{k >= 1} C(n, k) e_k n^(n-k) = e_0 n^n = n^n,
    with P + nD the Newton polyhedron of the product ideal a * m^n."""
    for a in CORPORA + [random_ideal(4, s, 5) for s in range(40)]:
        n = a.dim
        e = lelong_numbers(a).e
        P = polyhedron_of(ideal_product(a, ideal_power(maximal_ideal(n), n)))
        rest = sum(comb(n, k) * e[k - 1] * n ** (n - k) for k in range(1, n + 1))
        assert factorial(n) * covolume(P) - rest == n ** n, a.generators


def test_lelong_numbers_of_many_vertices():
    for d, vertices, facets, covol, e in [
            (3, 20, 15, Fraction(241, 24), (3, 9, 39, 241)),
            (5, 56, 65, Fraction(6865, 24), (7, 57, 531, 6865)),
            (7, 120, 175, Fraction(25739, 8), (13, 185, 3277, 77217))]:
        a = squared_compositions(d)
        P = polyhedron_of(a)
        assert (len(P.vertices), len(P.facets), covolume(P)) == (vertices, facets, covol), d
        assert lelong_numbers(a).e == e, d


def test_mixed_multiplicity_matches_products():
    dim4 = [random_ideal(4, s, 5) for s in (1, 2, 3)]
    for a in CORPORA + dim4:
        assert (mixed_multiplicity([a] * a.dim)
                == mixed_multiplicity_products([a] * a.dim)), a.generators
    # distinct arguments, repeated out of order
    mixed = [[a, b, a] for a, b in zip(CORPUS_3D[:20], CORPUS_3D[1:])]
    mixed += [[maximal_ideal(3), a, b] for a, b in zip(CORPUS_3D[:20], CORPUS_3D[2:])]
    mixed += [[dim4[0], M4, dim4[0], dim4[1]], [M4, dim4[2], dim4[1], M4]]
    for args in mixed:
        assert mixed_multiplicity(args) == mixed_multiplicity_products(args), args


def _random_restriction(n: int, j: int, seed: int):
    """Up to 4 generators of up to 6 terms, exponents <= 3, on
    sample_plane(n, j, seed); every third plane has entries set to 0 or +-1,
    which makes rows vanish and partial products cancel."""
    rng = random.Random(seed * 100 + n * 10 + j)
    gens = []
    for _ in range(rng.randint(1, 4)):
        gens.append(poly(n, {tuple(rng.randint(0, 3) for _ in range(n)):
                             Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                             for _ in range(rng.randint(1, 6))}))
    plane = sample_plane(n, j, seed)
    if seed % 3 == 0:
        matrix = tuple(
            tuple(Fraction(0) if rng.random() < 0.3
                  else Fraction(rng.choice((-1, 1))) if rng.random() < 0.3 else c
                  for c in row)
            for row in plane.matrix)
        plane = PlaneRestriction(n, j, matrix)
    return IdealPresentation(n, tuple(gens)), plane


@pytest.mark.parametrize("n", [2, 3, 4])
def test_restrict_matches_products(n):
    """Equal polynomials with the same term order: the order fixes the
    numeric estimator's float sums through its term table."""
    for j in range(1, n):
        for seed in range(100):
            I, plane = _random_restriction(n, j, seed)
            got, want = restrict(I, plane), restrict_products(I, plane)
            assert got == want, (I, plane)
            assert ([list(g.terms) for g in got.generators]
                    == [list(g.terms) for g in want.generators]), (I, plane)


def test_restrict_reappends_cancelled_term():
    """x^2 and -y^2/4 cancel on t^2 before x^3 adds t^3; x*y brings t^2
    back, after t^3, as in repeated polynomial products."""
    line = PlaneRestriction(2, 1, ((Fraction(1),), (Fraction(2),)))
    I = IdealPresentation(2, (poly(2, {(2, 0): 1, (0, 2): Fraction(-1, 4),
                                       (3, 0): 1, (1, 1): 1}),))
    (got,), (want,) = restrict(I, line).generators, restrict_products(I, line).generators
    assert list(got.terms.items()) == list(want.terms.items()) == [((3,), 1), ((2,), 2)]


def test_line_order_matches_restriction():
    """The seeds include draws of lines with a zero coordinate, on which the
    order need not be the least degree of a generator."""
    seeds = {2: range(2000), 3: range(1000), 4: range(200)}
    off_degree = {n: 0 for n in seeds}
    for n, ss in seeds.items():
        for s in ss:
            a = random_ideal(n, s, 5)
            got = line_order(a, s)
            assert got == line_order_restrict(a, s), (a.generators, s)
            off_degree[n] += got != a.min_degree
    assert all(off_degree.values()), off_degree
    # a line with a zero coordinate can miss every generator of an ideal
    # that is not zero-dimensional; no other line is drawn
    y = MonomialIdeal.make([(0, 1)], 2)
    x_axis = [s for s in range(100) if not sample_plane(2, 1, s).matrix[1][0]]
    for s in range(100):
        if s in x_axis:
            with pytest.raises(NotZeroDimensionalError):
                line_order(y, s)
        else:
            assert line_order(y, s) == line_order_restrict(y, s) == 1
    assert x_axis


def test_loja_section_matches_weight_brute_force():
    """At every j, on corpus ideals in dims 2-4; its endpoints are L_0 over
    the facets and the order, and its value falls with j."""
    for n, seeds in ((2, range(300)), (3, range(200)), (4, range(100))):
        for budget in (5, 9):
            for s in seeds:
                a = random_ideal(n, s, budget)
                values = [loja_monomial(a, j) for j in range(n)]
                assert values == [loja_section_weights(a, j) for j in range(n)], a
                assert values[0] == loja_dual(polyhedron_of(a)) and values[-1] == a.min_degree
                assert values == sorted(values, reverse=True)


def test_loja_section_attained_on_a_line():
    """The line where a drawn plane meets x_k = 0 off a maximizing set S
    has order L^(j) on restriction, unless it also has a zero entry on S;
    264 of these 270 lines have none."""
    generic = 0
    for n, seeds in ((3, range(150)), (4, range(60))):
        for s in seeds:
            a = random_ideal(n, s, 6)
            for j in range(1, n - 1):
                value = loja_monomial(a, j)
                S = next(S for S in itertools.combinations(range(n), j + 1)
                         if min(sum(g) for g in a.generators
                                if all(g[k] == 0 for k in range(n) if k not in S)) == value)
                order = section_line_order(a, j, S, s)
                assert order in (None, value), (a, j, s)
                generic += order is not None
    assert generic > 250


def _line_theta_and_order(germ, seed):
    """theta_(n-1) of polar_invariant and line_order of the monomial ideal of
    J_f's terms, for a term-exact germ that check_isolated accepted."""
    theta = polar_invariant(germ, seed)[-1]
    assert theta.method == "exact-line"
    return theta.value, line_order(germ.mono.ideal, seed)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_line_order_matches_polar_invariant_on_fermat_germs(n):
    for d in (2, 3, 5):
        f = parse_polynomial(" + ".join(f"x{i}^{d}" for i in range(1, n + 1)))
        germ = check_isolated(f)
        for seed in range(25):
            theta, order = _line_theta_and_order(germ, seed)
            assert theta == order == d - 1, (f, seed)


def _term_exact_germ(f):
    """check_isolated(f) when it accepts f and J_f is term-exact, else the
    example is discarded."""
    try:
        germ = check_isolated(f)
    except (InvalidInputError, DegenerateGermError):
        assume(False)
    assume(germ.mono.exact)
    return germ


# about 1 in 25 drawn germs is isolated, term-exact and in 2 or more
# variables; 50 of them take about 6 s
@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(f=germ_texts().map(parse_polynomial), seed=st.integers(0, 10 ** 6))
@example(f=parse_polynomial("x^5 + y^3"), seed=77)  # the x-axis: line order 4
@example(f=parse_polynomial("x*y + z^4"), seed=194)  # the z-axis: line order 3
@example(f=parse_polynomial("x^3 + y^3 + z^2 + w^13"), seed=0)  # z entry 0: line order 2
def test_line_order_matches_polar_invariant_on_term_exact_germs(f, seed):
    """theta_(n-1) of a term-exact J_f is its order min_degree, the order on
    a generic line.  The seeded line's order is at least that, and equal to
    it when the line has no zero entry."""
    germ = _term_exact_germ(f)
    assume(f.dim > 1)
    theta, order = _line_theta_and_order(germ, seed)
    assert theta == germ.mono.ideal.min_degree <= order, (f, seed)
    if all(c for (c,) in sample_plane(f.dim, f.dim - 1, seed).matrix):
        assert theta == order, (f, seed)


def _thetas_without_planes(germ, seed):
    """polar_invariant(germ, seed) with every function that draws, restricts
    or estimates on a plane patched to fail."""
    def no_call(*args, **kwargs):
        raise AssertionError("a term-exact J_f left loja_monomial")

    with contextlib.ExitStack() as stack:
        for name in ("restrict", "sample_plane", "loja_line", "loja_numeric"):
            stack.enter_context(mock.patch.object(sections, name, no_call))
        return polar_invariant(germ, seed)


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(f=germ_texts().map(parse_polynomial), seed=st.integers(0, 10 ** 6))
@example(f=parse_polynomial("x^2 + y^3 + z^4 + w^5"), seed=0)
@example(f=parse_polynomial("x^3 + y^3 + z^2 + w^13"), seed=0)
@example(f=parse_polynomial("x*y + z^4"), seed=194)
def test_term_exact_thetas_take_one_path(f, seed):
    """Every theta_j of a term-exact J_f is loja_monomial(j) of its monomial
    ideal, with no plane drawn, restricted or estimated."""
    germ = _term_exact_germ(f)
    thetas = _thetas_without_planes(germ, seed)
    assert [t.value for t in thetas] == [loja_monomial(germ.mono.ideal, j)
                                         for j in range(f.dim)], (f, seed)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_term_exact_thetas_take_one_path_on_fermat_germs(n):
    for d in (2, 3, 7):
        germ = check_isolated(parse_polynomial(" + ".join(f"x{i}^{d}" for i in range(1, n + 1))))
        for seed in range(5):
            assert [t.value for t in _thetas_without_planes(germ, seed)] == [d - 1] * n


def _monomialize_error(I):
    """The message of monomialize(I)'s NotMonomializableError, or None."""
    try:
        monomialize(I)
    except NotMonomializableError as err:
        return str(err)
    return None


@settings(max_examples=200, deadline=None)
@given(f=germ_texts().map(parse_polynomial))
@example(f=parse_polynomial("x^4 + x*y^2 + y^5"))
@example(f=parse_polynomial("x^3 + y^3 + z^3 + x*y*z"))
def test_product_with_maximal_matches_poly_mul(f):
    """m*J_f by exponent shifts against the products z_i*g, term order
    included, on germs term-exact or not; an accepted germ's strict m*J_f
    names the same generator when it does not monomialize."""
    try:
        J = jacobian_ideal(f)
    except DegenerateGermError:
        assume(False)
    n = f.dim
    axes = [poly(n, {tuple(int(k == i) for k in range(n)): 1}) for i in range(n)]
    want = IdealPresentation(n, tuple(poly_mul(z, g) for z in axes for g in J.generators))
    got = product_with_maximal(J)
    assert got == want
    assert [list(g.terms.items()) for g in got.generators] == \
        [list(g.terms.items()) for g in want.generators]
    try:
        germ = check_isolated(f)
    except (InvalidInputError, DegenerateGermError):
        return
    message = _monomialize_error(want)
    if message is None:
        assert germ.m_jacobian(False) == monomialize(want)
    else:
        with pytest.raises(NotMonomializableError) as err:
            germ.m_jacobian(False)
        assert str(err.value) == message


def loop_minmax(I, params):
    """Radii and seeds x radii min-max values of the per-sphere loop, with
    loja_numeric's retry at ten times the radii."""
    radii = [params.r0 * params.ratio ** i for i in range(params.n_radii)]
    for _ in range(2):
        values = [minmax_loop(I, radii, seed, params.starts, params.iters)
                  for seed in params.seeds]
        if np.all(np.array(values) >= 1e-250):
            return radii, values
        radii = [r * 10 for r in radii]
    raise AssertionError("loop min-max collapsed below float range")


def test_batched_minmax_matches_loop():
    cases = [(monomial_presentation(a.generators, 2), 1e-9) for a in CORPUS_2D[:10]]
    for s, rtol in ((1, 1e-9), (2, 1e-6), (8, 1e-6)):
        # 3 variables, Fraction coefficients; s = 8 gives 91 terms.  The
        # descent on the s = 2 restriction amplifies rounding: in the loop
        # alone, writing the phase as exp(-1j * angle(g)) moves its values
        # by 1.7e-8.
        a = random_ideal(4, s, 5)
        cases.append((restrict(monomial_presentation(a.generators, 4),
                               sample_plane(4, 1, s)), rtol))
    cases.append((monomial_presentation([(3, 0), (0, 2)], 2), 1e-9))  # a zero partial
    # powers 0, 1, 2, 119, 120: the table skips from x^2 to x^119
    cases.append((IdealPresentation(2, (poly(2, {(2, 0): 1}), poly(2, {(0, 2): 1, (120, 0): 1}))),
                  1e-9))
    # signed, non-unit Fraction coefficients
    cases.append((IdealPresentation(2, (
        poly(2, {(3, 0): Fraction(-5, 3), (1, 1): Fraction(7, 2)}),
        poly(2, {(0, 2): Fraction(2, 9), (2, 1): -3}))), 1e-9))
    # J_f of x^3 + x*y^2 + y^4, not term-exact
    cases.append((jacobian_ideal(parse_polynomial("x^3 + x*y^2 + y^4")), 1e-9))
    # a zero generator between two nonzero ones
    cases.append((IdealPresentation(2, (poly(2, {(2, 0): 1, (0, 3): 1}), poly(2, {}),
                                        poly(2, {(1, 1): 1, (0, 2): -1}))), 1e-9))
    cases.append((monomial_presentation([(80, 0), (0, 80)], 2), 1e-9))  # radius retry
    for I, rtol in cases:
        est = loja_numeric(I, FAST)
        radii, values = loop_minmax(I, FAST)
        assert est.radii == tuple(radii), I
        np.testing.assert_allclose(est.minmax, values, rtol=rtol, atol=0)
    assert est.radii[0] == radii[0] == 1.0  # (x^80, y^80) took the retry


def test_descent_raises_no_float_error():
    I = monomial_presentation([(90, 0), (3, 70), (0, 85)], 2)
    # the loop's phase conj(g) / |g| overflows where |g| is denormal, in the
    # pass at the first radii, which the retry at ten times them discards
    with np.errstate(over="ignore", invalid="ignore"):
        radii, values = loop_minmax(I, FAST)
    with np.errstate(over="raise", invalid="raise"):
        est = loja_numeric(I, FAST)
    assert est.radii == tuple(radii)
    np.testing.assert_allclose(est.minmax, values, rtol=1e-9, atol=0)
    slope = np.polyfit(np.log(radii), np.log(values[0]), 1)[0]
    assert est.value == pytest.approx(slope, rel=1e-9)


def _uses_every_variable_and_no_constant(f) -> bool:
    return ((0,) * f.dim not in f.terms
            and all(any(v[i] for v in f.terms) for i in range(f.dim)))


@settings(max_examples=300, deadline=None)
@given(f=germ_texts().map(parse_polynomial).filter(_uses_every_variable_and_no_constant))
@example(f=parse_polynomial("x^3 + y^3"))
@example(f=parse_polynomial("x^3 + x*y^2 + y^5"))
@example(f=parse_polynomial("x^2*y^2 + x^3*y^2"))
@example(f=parse_polynomial("2*x^2*y^3 + 3/2*x^5*y^4"))
@example(f=parse_polynomial("2*x^3*y + 2*x^5*y^5*z"))
@example(f=parse_polynomial("x + y^2*z^2"))
def test_check_isolated_rejects_iff_an_axis_is_singular(f):
    # with every variable used and no constant term, check_isolated rejects
    # exactly the germs singular along a whole coordinate axis
    try:
        check_isolated(f)
        accepted = True
    except InvalidInputError as err:
        assert str(err) == "germ has non-isolated singularity"
        accepted = False
    assert accepted == (singular_axis(f) is None), f
