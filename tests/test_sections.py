"""Seeded draws, plane restrictions, line and numeric Lojasiewicz exponents,
polar invariants."""
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from lctlab import germs, sections
from lctlab.exactgeom import InvalidInputError, MonomialIdeal, polyhedron_of
from lctlab.germs import (
    DegenerateGermError,
    IdealPresentation,
    check_isolated,
    parse_polynomial,
    poly,
)
from lctlab.invariants import loja_monomial
from lctlab.sections import (
    MAX_ESTIMATOR_TERMS,
    MAX_RESTRICT_DEGREE,
    BudgetError,
    DegenerateRestrictionError,
    LojaParams,
    NumericFailureError,
    PlaneRestriction,
    draw,
    loja_line,
    loja_numeric,
    polar_invariant,
    restrict,
    sample_plane,
    seed_draws,
)
from lctlab.verify import MAX_BUDGET, random_ideal

FAST = LojaParams(starts=24, iters=150)


def monomial_presentation(gens, n):
    return IdealPresentation(n, tuple(poly(n, {v: 1}) for v in gens))


class TestSamplePlane:
    def test_line_in_plane(self):
        pl = sample_plane(2, 1, 7)
        assert len(pl.matrix) == 2 and len(pl.matrix[0]) == 1
        assert any(c != 0 for row in pl.matrix for c in row)

    def test_rank(self):
        pl = sample_plane(3, 1, 1)
        assert len(pl.matrix) == 3 and len(pl.matrix[0]) == 2

    def test_determinism(self):
        assert sample_plane(3, 2, 99) == sample_plane(3, 2, 99)

    @pytest.mark.parametrize("n,j,seed", [(2, 1, 116), (3, 1, 669), (3, 2, 2321),
                                          (4, 1, 16235), (4, 2, 11411)])
    def test_redraws_a_rank_deficient_draw(self, n, j, seed):
        # each first draw has a zero column; three of them also have nonzero
        # entries, so a draw with some nonzero entry is not enough
        first, second = itertools.islice(sections._draws(n, j, seed), 2)
        assert any(all(row[k][0] == 0 for row in first) for k in range(n - j))
        assert sample_plane(n, j, seed).matrix == tuple(
            tuple(Fraction(p, q) for p, q in row) for row in second)

    def test_bad_codim(self):
        with pytest.raises(ValueError):
            sample_plane(2, 2, 0)


class TestDraw:
    def test_equals_randint_at_every_width(self):
        """Widths 1 to MAX_BUDGET + 1, each in a run with a second width:
        width 1, randint(2, 2) at budget 2, still takes bits."""
        for width in range(1, MAX_BUDGET + 2):
            for s in range(0, 400_000, 13_331):
                a = s % 23 - 11
                seed_draws(s * width)
                rng = random.Random(s * width)
                runs = [(a, a + width - 1), (-9, 9), (a, a + width - 1), (1, 9)]
                assert [draw(lo, hi) for lo, hi in runs] == \
                    [rng.randint(lo, hi) for lo, hi in runs], (width, s)

    def test_reseeds_the_shared_generator(self):
        seed_draws(5)
        first = [draw(0, 99) for _ in range(8)]
        seed_draws(6)  # another caller's draws in between
        draw(0, 10 ** 30)
        seed_draws(5)
        assert [draw(0, 99) for _ in range(8)] == first

    def test_empty_range_raises(self):
        seed_draws(0)
        for lo, hi in [(3, 2), (0, -5)]:
            with pytest.raises(ValueError, match="empty range"):
                draw(lo, hi)


class TestRestrict:
    def test_line_substitution(self):
        I = IdealPresentation(2, (poly(2, {(2, 0): 3}), poly(2, {(0, 2): 3})))
        pl = sample_plane(2, 1, 0)
        # emulate the documented example with an explicit plane
        from lctlab.sections import PlaneRestriction
        line = PlaneRestriction(2, 1, ((Fraction(1),), (Fraction(2),)))
        R = restrict(I, line)
        assert R.generators[0].terms == {(2,): 3}
        assert R.generators[1].terms == {(2,): 12}

    def test_maximal_order_one(self):
        R = restrict(monomial_presentation([(1, 0), (0, 1)], 2),
                     sample_plane(2, 1, 3))
        assert loja_line(R) == 1

    def test_diagonal_line(self):
        from lctlab.sections import PlaneRestriction
        line = PlaneRestriction(2, 1, ((Fraction(1),), (Fraction(1),)))
        R = restrict(monomial_presentation([(2, 0), (1, 1), (0, 3)], 2), line)
        assert [g.terms for g in R.generators] == [{(2,): 1}, {(2,): 1}, {(3,): 1}]

    def test_large_exponent(self):
        c1, c2 = Fraction(-7, 3), Fraction(5, 2)
        line = PlaneRestriction(2, 1, ((c1,), (c2,)))
        R = restrict(monomial_presentation([(100000, 0), (0, 2)], 2), line)
        assert R.generators[0].terms == {(100000,): c1 ** 100000}
        assert R.generators[1].terms == {(2,): c2 ** 2}

    def test_degree_bound(self):
        line = PlaneRestriction(2, 1, ((Fraction(-4, 3),), (Fraction(1),)))
        d = MAX_RESTRICT_DEGREE
        R = restrict(monomial_presentation([(d, 0)], 2), line)
        assert R.generators[0].terms == {(d,): Fraction(-4, 3) ** d}
        # past the bound nothing is expanded, however large the exponent
        for gens in ([(d + 1, 0)], [(d, 1)], [(1, 0), (10 ** 100, 0)]):
            with pytest.raises(BudgetError, match="degree"):
                restrict(monomial_presentation(gens, 2), line)

    def test_work_bound_counts_weighted_products(self, monkeypatch):
        # x^2*y^3 on a plane with full rows: x^2 takes 1 x 3 products at
        # degree 2, then y^3 takes 3 x 4 at degree 5, 66 in all; a second
        # generator adds its own
        plane = PlaneRestriction(3, 1, tuple((Fraction(i), Fraction(i + 1)) for i in (1, 3, 5)))
        I = monomial_presentation([(2, 3, 0)], 3)
        monkeypatch.setattr(sections, "MAX_RESTRICT_WORK", 66)
        assert len(restrict(I, plane).generators[0].terms) == 6  # degree 5 in t_1, t_2
        with pytest.raises(BudgetError):
            restrict(monomial_presentation([(2, 3, 0), (0, 0, 1)], 3), plane)
        monkeypatch.setattr(sections, "MAX_RESTRICT_WORK", 65)
        with pytest.raises(BudgetError, match="2-dimensional plane"):
            restrict(I, plane)


class TestLojaLine:
    def test_orders(self):
        I = IdealPresentation(1, (poly(1, {(3,): 1}), poly(1, {(5,): 1})))
        assert loja_line(I) == 3

    def test_degenerate(self):
        I = IdealPresentation(1, (poly(1, {}), poly(1, {})))
        with pytest.raises(DegenerateRestrictionError):
            loja_line(I)

    def test_generic_stability_across_seeds(self):
        I = monomial_presentation([(2, 0), (1, 1), (0, 3)], 2)
        values = {loja_line(restrict(I, sample_plane(2, 1, s))) for s in range(5)}
        assert values == {2}  # min total degree, for every seed


class TestLojaNumeric:
    def test_squares(self):
        I = IdealPresentation(2, (poly(2, {(2, 0): 1}), poly(2, {(0, 2): 1})))
        est = loja_numeric(I, FAST)
        assert est.value == pytest.approx(2.0, abs=0.05)

    def test_staircase(self):
        est = loja_numeric(monomial_presentation([(2, 0), (1, 1), (0, 3)], 2), FAST)
        assert est.value == pytest.approx(3.0, abs=0.1)

    def test_maximal(self):
        est = loja_numeric(monomial_presentation([(1, 0), (0, 1)], 2), FAST)
        assert est.value == pytest.approx(1.0, abs=0.01)

    def test_determinism(self):
        I = monomial_presentation([(3, 0), (0, 2)], 2)
        assert loja_numeric(I, FAST) == loja_numeric(I, FAST)

    def test_diagnostics(self):
        est = loja_numeric(monomial_presentation([(2, 0), (1, 1), (0, 3)], 2), FAST)
        assert np.shape(est.minmax) == np.shape(est.loo_slopes) == (2, 6)
        logs_r = np.log(est.radii)
        for row, loo in zip(est.minmax, est.loo_slopes):
            for k, slope in enumerate(loo):
                xs, ys = np.delete(logs_r, k), np.delete(np.log(row), k)
                assert slope == pytest.approx(np.polyfit(xs, ys, 1)[0], rel=1e-12)
        ys = np.log(est.minmax[0])
        fit = np.polyfit(logs_r, ys, 1)
        assert est.value == pytest.approx(fit[0], rel=1e-12)
        rms = np.sqrt(np.mean((ys - np.polyval(fit, logs_r)) ** 2))
        assert est.residual == pytest.approx(rms, rel=1e-9, abs=1e-15)
        slopes = [np.polyfit(logs_r, np.log(row), 1)[0] for row in est.minmax]
        slopes += [s for loo in est.loo_slopes for s in loo]
        assert est.spread == pytest.approx(max(slopes) - min(slopes), abs=1e-12)

    def test_exact_estimates_carry_no_diagnostics(self):
        est = thetas_of("x^3 + y^3")[1]
        assert (est.minmax, est.loo_slopes, est.residual) == ((), (), 0.0)

    def test_nan_min_max_raises(self, monkeypatch):
        monkeypatch.setattr(sections, "_minmax", lambda E, C, radii, params: np.full(
            (len(params.seeds), len(radii)), np.nan))
        with pytest.raises(NumericFailureError):
            loja_numeric(monomial_presentation([(2, 0), (0, 2)], 2), FAST)

    def test_infinite_min_max_raises(self, monkeypatch):
        # an infinite min-max was fitted to a NaN slope labelled "numeric"
        monkeypatch.setattr(sections, "_minmax", lambda E, C, radii, params: np.full(
            (len(params.seeds), len(radii)), np.inf))
        with pytest.raises(NumericFailureError, match="not finite"):
            loja_numeric(monomial_presentation([(2, 0), (0, 2)], 2), FAST)

    def test_zero_iterations_and_starts(self):
        # the fixed starts alone: the all-ones one sits at the exact min-max r^2 / 2
        est = loja_numeric(monomial_presentation([(2, 0), (0, 2)], 2), LojaParams(0, 0))
        assert est.method == "numeric" and est.value == pytest.approx(2.0, rel=1e-9)

    def test_exponent_beyond_int64_raises(self):
        with pytest.raises(NumericFailureError):
            loja_numeric(monomial_presentation([(2 ** 70, 0), (0, 2)], 2), FAST)

    def test_term_bound(self, monkeypatch):
        # 5 distinct terms over two generators, one of them shared
        I = IdealPresentation(2, (poly(2, {(3, 0): 1, (1, 1): 2, (0, 3): 1}),
                                  poly(2, {(1, 1): -1, (2, 0): 1, (0, 2): 1})))
        monkeypatch.setattr(sections, "MAX_ESTIMATOR_TERMS", 5)
        assert loja_numeric(I, LojaParams(0, 0)).method == "numeric"
        monkeypatch.setattr(sections, "MAX_ESTIMATOR_TERMS", 4)
        monkeypatch.setattr(sections, "_minmax", None)  # no descent may start
        with pytest.raises(BudgetError, match="over 5 terms passes its bound of 4"):
            loja_numeric(I, LojaParams(0, 0))

    def test_term_tables_give_generators_and_partials(self):
        # x*y is shared by two generators; the partial of x^3 in x is a
        # multiple of the term x^2; y^5 has a zero partial in x; x^120 puts
        # a gap in the power table; the second generator is zero
        I = IdealPresentation(2, (
            poly(2, {(3, 0): 1, (1, 1): 2, (2, 0): Fraction(-1, 2)}),
            poly(2, {}),
            poly(2, {(1, 1): -1, (0, 2): Fraction(7, 3), (120, 0): 3}),
            poly(2, {(0, 5): 1})))
        U, K = sections._term_tables(I)
        gens = [g for g in I.generators if not g.is_zero]
        terms = list(dict.fromkeys(v for g in gens for v in g.terms))
        assert [tuple(u) for u in U[:len(terms)]] == terms
        assert len({tuple(u) for u in U}) == len(U)
        assert K.shape == (3 * len(gens), len(U))
        rng = np.random.default_rng(0)
        Z = np.exp(2j * np.pi * rng.random((8, 2)))  # |z_i| = 1: x^120 has modulus 1
        values = np.prod(Z[:, None, :] ** U, axis=2) @ K.T  # points x rows of K
        for k in range(3):
            for j, g in enumerate(gens):
                f = g if k == 0 else germs.derivative(g, k - 1)
                want = [sum(complex(c) * z[0] ** v[0] * z[1] ** v[1] for v, c in f.terms.items())
                        for z in Z]
                np.testing.assert_allclose(values[:, k * len(gens) + j], want,
                                           rtol=1e-12, atol=1e-12)
        assert not K[len(gens) + 2].any()  # y^5 in x

    @pytest.mark.parametrize("seed,terms", [(8, 91), (19253, 301)])
    def test_term_bound_above_plane_restrictions(self, seed, terms):
        """Budget-5 dim-4 ideals on their generic 3-plane: seed 8 gives 91
        terms, and seed 19253 the most over seeds 0-19,999, 301."""
        a = random_ideal(4, seed, 5)
        R = restrict(monomial_presentation(a.generators, 4), sample_plane(4, 1, seed))
        distinct = {v for g in R.generators for v in g.terms}
        assert len(distinct) == terms and MAX_ESTIMATOR_TERMS >= 1.5 * terms

    def test_agrees_with_exact_on_corpus(self):
        for i in range(5):
            a = random_ideal(2, 100 + i, 4)
            exact = loja_monomial(a)
            est = loja_numeric(monomial_presentation(a.generators, 2), FAST)
            assert abs(est.value - float(exact)) / float(exact) <= 0.05
            assert est.spread < 0.02 * float(exact)


def assert_exact(est, value, method):
    assert isinstance(est.value, Fraction) and est.value == value
    assert est.method == method


def thetas_of(text, seed=0):
    return polar_invariant(check_isolated(parse_polynomial(text)), seed=seed)


class TestPolarInvariant:
    def test_fermat_theta0(self):
        est = thetas_of("x^3 + y^3")[0]
        assert_exact(est, 2, "exact-monomial")

    def test_fermat_theta1_line(self):
        est = thetas_of("x^3 + y^3")[1]
        assert_exact(est, 2, "exact-line")

    @pytest.mark.parametrize("text,values", [
        ("x^3 + y^4 + z^5", (4, 3, 2)),
        ("x^2 + y^3 + z^4 + w^5", (4, 3, 2, 1)),
        ("x^3 + y^3 + z^3 + w^13", (12, 2, 2, 2)),
    ])
    def test_term_exact_middle_thetas_are_section_exponents(self, text, values):
        thetas = thetas_of(text)
        assert tuple(t.value for t in thetas) == values
        assert [t.method for t in thetas] == ["exact-monomial"] * (len(values) - 1) + ["exact-line"]

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_fermat_3d_all_exact(self, d):
        thetas = thetas_of(f"x^{d} + y^{d} + z^{d}")
        assert len(thetas) == 3
        for est in thetas:
            assert isinstance(est.value, Fraction) and est.value == d - 1
            assert est.method.startswith("exact")

    def test_cusp(self):
        theta0, theta1 = thetas_of("x^2 + y^3")
        assert_exact(theta0, 2, "exact-monomial")
        assert_exact(theta1, 1, "exact-line")

    def test_numeric_theta0(self):
        # J_f = (3x^2 + y^2, 2xy + 5y^4) is not term-exact, so theta_0 is
        # estimated; theta_1 is the exact order on a line
        theta0, theta1 = thetas_of("x^3 + x*y^2 + y^5")
        assert theta0.method == "numeric" and isinstance(theta0.value, float)
        assert theta0.spread >= 0 and len(theta0.radii) == LojaParams.n_radii
        assert_exact(theta1, 2, "exact-line")

    @pytest.mark.parametrize("text,order", [("x^2 + x^3", 1), ("x^4 - 2*x^7", 3),
                                            ("x + x^2", 0)])
    def test_one_variable_theta0_exact(self, text, order):
        # J_f = (f') is not term-exact, but in one variable its exponent is
        # the least exponent of f'
        (theta0,) = thetas_of(text)
        assert_exact(theta0, order, "exact-monomial")

    def test_not_isolated_rejected(self):
        for text in ("x^2", "1", "x^2*y^2"):
            with pytest.raises(InvalidInputError, match="non-isolated"):
                polar_invariant(check_isolated(parse_polynomial(text, 2)))

    # x^2*y^2 alone is not isolated: the constant term is found first
    @pytest.mark.parametrize("text", ["1 + x^3 + y^3", "3/2 + 2*y^3 - x^4*y^2", "1 + x^2*y^2"])
    def test_unit_rejected(self, text, monkeypatch):
        def no_jacobian(f):
            raise AssertionError("Jacobian taken of a unit")

        monkeypatch.setattr(germs, "jacobian_ideal", no_jacobian)
        with pytest.raises(DegenerateGermError, match=r"f is a unit \(nonzero constant term\)"):
            polar_invariant(check_isolated(parse_polynomial(text)))

    def test_seed_determinism(self):
        assert thetas_of("x^3 + y^3", seed=5) == thetas_of("x^3 + y^3", seed=5)

    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.integers(1, 5), min_size=n, max_size=n),
        st.lists(st.tuples(*[st.integers(0, 5)] * n), max_size=5))))
    @example((3, [1, 1, 1], [(0, 0, 0)]))  # the unit ideal
    @example((3, [2, 2, 2], [(1, 1, 0), (1, 0, 1), (0, 1, 1)]))  # m^2
    @example((4, [3, 3, 3, 3], [(1, 1, 1, 0), (0, 2, 0, 2)]))  # m^3's polyhedron
    def test_power_rule_is_the_polyhedron_of_a_power(self, case):
        """L_0 = ord = k > 0 iff the Newton polyhedron is that of m^k, and
        then every section exponent is k: they fall from L_0 to ord."""
        n, powers, extra = case
        a = MonomialIdeal.make([tuple(p * (i == k) for i in range(n))
                                for k, p in enumerate(powers)] + extra, n)
        k = a.min_degree
        assert (loja_monomial(a) == k > 0) == (polyhedron_of(a).facets == (((1,) * n, k),))
        sections = [loja_monomial(a, j) for j in range(n)]
        assert sections == sorted(sections, reverse=True)
        assert (sections[0], sections[-1]) == (loja_monomial(a), k)


class TestLojaParams:
    def test_only_starts_and_iters_are_fields(self):
        from dataclasses import fields

        assert [fl.name for fl in fields(LojaParams)] == ["starts", "iters"]
        p = LojaParams(starts=8, iters=20)
        assert (p.r0, p.ratio, p.n_radii, p.seeds) == (0.1, 10 ** -0.5, 6, (0, 1))
        with pytest.raises(TypeError):
            LojaParams(r0=0.2)

    @pytest.mark.parametrize("kwargs", [{"starts": -1}, {"iters": -1}])
    def test_negative_rejected(self, kwargs):
        # iters = -1 gave a NaN estimate labelled "numeric"; starts = -1 a
        # numpy traceback
        with pytest.raises(InvalidInputError, match="must be >= 0"):
            LojaParams(**kwargs)
