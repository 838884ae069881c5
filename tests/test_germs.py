"""Polynomial germs: parsing, Jacobian ideals, monomialization."""
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from lctlab.exactgeom import (
    InvalidInputError,
    MonomialIdeal,
    UnsupportedDimensionError,
    build_polyhedron,
    polyhedron_of,
)
from lctlab.germs import (
    DegenerateGermError,
    IdealPresentation,
    NONDEGENERATE,
    NotMonomializableError,
    ParseError,
    TERM_EXACT,
    check_isolated,
    derivative,
    format_polynomial,
    jacobian_ideal,
    lct_nondegenerate,
    monomialize,
    parse_polynomial,
    poly,
    product_with_maximal,
)
from lctlab.invariants import lct_monomial, lelong_numbers, loja_monomial

from oracles import poly_add, poly_mul, poly_scale, product_with_maximal_poly
from test_cli_fuzz import germ_texts


class TestParser:
    def test_fermat(self):
        f = parse_polynomial("x^3 + y^3")
        assert f.terms == {(3, 0): 1, (0, 3): 1}

    def test_indexed_vars_and_fractions(self):
        f = parse_polynomial("x1^2*x2 - 1/2*x2^4")
        assert f.terms == {(2, 1): 1, (0, 4): Fraction(-1, 2)}

    def test_dangling_operator(self):
        with pytest.raises(ParseError) as err:
            parse_polynomial("x + ")
        assert err.value.position == 4

    def test_negative_exponent(self):
        with pytest.raises(ParseError):
            parse_polynomial("x^-2")

    def test_zero_denominator(self):
        with pytest.raises(ParseError) as err:
            parse_polynomial("1/0*x^2 + y^2")
        assert err.value.position == 2

    @pytest.mark.parametrize("text,position", [("x + x1^2", 4), ("x1*y", 3)])
    def test_mixed_variable_names(self, text, position):
        with pytest.raises(ParseError) as err:
            parse_polynomial(text)
        assert err.value.position == position

    def test_unknown_character(self):
        with pytest.raises(ParseError):
            parse_polynomial("x + q")

    def test_implicit_multiplication(self):
        assert parse_polynomial("3x^2y").terms == {(2, 1): 3}

    @pytest.mark.parametrize("text", ["y 2", "y*2", "2 * y", "y^1 2"])
    def test_number_apart_from_variable(self, text):
        assert parse_polynomial(text).terms == {(0, 1): 2}

    def test_cancellation(self):
        assert parse_polynomial("x - x + y").terms == {(0, 1): 1}

    def test_explicit_dim(self):
        f = parse_polynomial("x^2", 3)
        assert f.dim == 3 and f.terms == {(2, 0, 0): 1}

    @pytest.mark.parametrize("dim", [-1, 0, 5])
    @pytest.mark.parametrize("text", ["3", "x^2 + y^3", "x +"])
    def test_dim_outside_range_rejected_before_parsing(self, text, dim):
        # dim 0 read "3" as a constant germ, and -1 failed on the variables
        with pytest.raises(UnsupportedDimensionError,
                           match=rf"^dimension {dim} not supported \(1\.\.4\)$"):
            parse_polynomial(text, dim)

    @pytest.mark.parametrize("text,position", [
        ("x^2 - -y^2", 6),  # two signs in a row: the second overwrote the first
        ("x^2 - 2*x*y - -y^2", 14),
        ("32--1", 3),
        ("x - +y", 4),
        ("*y + x^2", 0),  # a '*' that opens a term
        ("x + *y", 4),
        ("y2 + x^3", 1),  # a number straight after a variable: read as 2y
        ("x12", 2),
        ("x10 + x2^2", 2),
    ])
    def test_rejected_shapes(self, text, position):
        with pytest.raises(ParseError) as err:
            parse_polynomial(text)
        assert err.value.position == position

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_drawn_terms(self, data):
        """Terms (sign, p/q, exponent vector) rendered with x y z w or
        x1..x4, random spaces and an optional '*' between factors parse to
        the sum taken directly over the drawn terms."""
        names = data.draw(st.sampled_from(["xyzw", ["x1", "x2", "x3", "x4"]]))
        n = data.draw(st.integers(1, 4))
        terms = data.draw(st.lists(st.tuples(
            st.booleans(), st.integers(0, 20), st.integers(1, 5),
            st.lists(st.integers(0, 4), min_size=n, max_size=n)), min_size=1, max_size=5))
        space = st.sampled_from(["", " ", "  "])
        text, want = "", {}
        for k, (negative, p, q, exps) in enumerate(terms):
            factors = [f"{names[i]}^{e}" if e > 1 or data.draw(st.booleans()) else names[i]
                       for i, e in enumerate(exps) if e]
            factors = data.draw(st.permutations(factors))
            if Fraction(p, q) != 1 or not factors or data.draw(st.booleans()):
                coeff = str(p)
                if q > 1 or data.draw(st.booleans()):
                    coeff += data.draw(space) + "/" + data.draw(space) + str(q)
                factors = [coeff, *factors]
            term = factors[0]
            for factor in factors[1:]:
                term += data.draw(st.sampled_from(["", " ", "*", " * "])) + factor
            if negative or k or data.draw(st.booleans()):
                term = ("-" if negative else "+") + data.draw(space) + term
            text += data.draw(space) + term
            key = tuple(exps) + (0,) * (4 - n)
            want[key] = want.get(key, 0) + (-1 if negative else 1) * Fraction(p, q)
        dim = max([i + 1 for exps in want for i, e in enumerate(exps) if e], default=1)
        f = parse_polynomial(text)
        assert f.dim == dim, text
        assert f.terms == {v[:dim]: c for v, c in want.items() if c}, text

    def test_roundtrip_canonical_order(self):
        f = parse_polynomial("y^3 + x*y + 2*x^2 - 1/3*x^3")
        s = format_polynomial(f)
        assert parse_polynomial(s).terms == f.terms
        assert s == format_polynomial(parse_polynomial(s))


class TestJacobian:
    def test_fermat(self):
        J = jacobian_ideal(parse_polynomial("x^3 + y^3"))
        assert [g.terms for g in J.generators] == [{(2, 0): 3}, {(0, 2): 3}]

    def test_mixed(self):
        J = jacobian_ideal(parse_polynomial("x^2*y"))
        assert [g.terms for g in J.generators] == [{(1, 1): 2}, {(2, 0): 1}]

    def test_general(self):
        J = jacobian_ideal(parse_polynomial("x^2 + x*y + y^3"))
        assert [g.terms for g in J.generators] == [
            {(1, 0): 2, (0, 1): 1}, {(1, 0): 1, (0, 2): 3}]

    def test_degenerate(self):
        with pytest.raises(DegenerateGermError):
            jacobian_ideal(poly(2, {(0, 0): 1}))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 5), st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=4))
    def test_euler_identity_homogeneous(self, d, supports):
        # scale supports to total degree d, then sum z_i df/dz_i == d f
        terms = {}
        for a, b in supports:
            if a + b == 0:
                continue
            a2 = min(a, d)
            terms[(a2, d - a2)] = terms.get((a2, d - a2), 0) + 1
        if not terms:
            return
        f = poly(2, terms)
        total = poly(2, {})
        for i in range(2):
            zi = poly(2, {tuple(1 if j == i else 0 for j in range(2)): 1})
            total = poly_add(total, poly_mul(zi, derivative(f, i)))
        assert total == poly_scale(f, d)


def _derivative_by_poly(p, axis):
    """dp/dz_axis summed term by term and normalized by poly()."""
    terms = {}
    for v, c in p.terms.items():
        if v[axis]:
            u = tuple(e - (i == axis) for i, e in enumerate(v))
            terms[u] = terms.get(u, 0) + c * v[axis]
    return poly(p.dim, terms)


class TestNormalForm:
    """parse_polynomial and derivative build their Polynomial directly, in
    the form poly() would give: int exponents, nonzero Fraction coefficients."""

    @staticmethod
    def assert_normal(p):
        assert all(len(v) == p.dim and all(type(e) is int for e in v) for v in p.terms)
        assert all(type(c) is Fraction and c != 0 for c in p.terms.values())
        assert p == poly(p.dim, p.terms)

    @settings(max_examples=200, deadline=None)
    @given(text=germ_texts())
    @example(text="x^2 - x^2 + y^2")
    @example(text="1/2*x*y - 1/2*x*y + y^3")
    @example(text="x - x")
    @example(text="x^3*y - x^3*y + x^3")
    def test_parse_and_derivative(self, text):
        f = parse_polynomial(text)
        self.assert_normal(f)
        for axis in range(f.dim):
            d = derivative(f, axis)
            self.assert_normal(d)
            assert d == _derivative_by_poly(f, axis)


class TestProductWithMaximal:
    # the presentation tests run the polynomial oracle; each checks that the
    # exponent shift of the term ideal gives its ideal
    def test_fermat(self):
        I = jacobian_ideal(parse_polynomial("x^3 + y^3"))
        mJ = product_with_maximal_poly(I)
        exps = {next(iter(g.terms)) for g in mJ.generators}
        assert exps == {(3, 0), (2, 1), (1, 2), (0, 3)}
        assert product_with_maximal(monomialize(I).ideal) == monomialize(mJ).ideal

    def test_unit(self):
        mI = product_with_maximal_poly(IdealPresentation(2, (poly(2, {(0, 0): 1}),)))
        assert {next(iter(g.terms)) for g in mI.generators} == {(1, 0), (0, 1)}
        assert product_with_maximal(MonomialIdeal.make([(0, 0)], 2)).generators == \
            ((0, 1), (1, 0))

    def test_principal(self):
        mI = product_with_maximal_poly(IdealPresentation(2, (poly(2, {(1, 0): 1}),)))
        assert {next(iter(g.terms)) for g in mI.generators} == {(2, 0), (1, 1)}
        assert product_with_maximal(MonomialIdeal.make([(1, 0)], 2)).generators == \
            ((1, 1), (2, 0))


class TestMonomialize:
    def test_term_exact_fermat_product(self):
        mJ = product_with_maximal_poly(jacobian_ideal(parse_polynomial("x^3 + y^3")))
        mono = monomialize(mJ)
        assert mono.exact
        assert polyhedron_of(mono.ideal).facets == (((1, 1), 3),)  # m^3

    def test_term_exact_rejects_sums(self):
        I = jacobian_ideal(parse_polynomial("x^2 + x*y + y^3"))
        with pytest.raises(NotMonomializableError):
            monomialize(I)

    def test_error_names_first_mixed_generator(self):
        I = IdealPresentation(2, (poly(2, {(2, 0): 1}), poly(2, {(1, 0): 2, (0, 1): 1}),
                                  poly(2, {(3, 0): 1, (0, 3): 1})))
        with pytest.raises(NotMonomializableError,
                           match=r"^generator 2\*x \+ y is not a single term$"):
            monomialize(I)

    def test_nondegenerate_mode(self):
        I = jacobian_ideal(parse_polynomial("x^2 + x*y + y^3"))
        mono = monomialize(I, allow_nondegenerate=True)
        assert not mono.exact and mono.mode == NONDEGENERATE
        assert mono.ideal.generators == ((0, 1), (1, 0))  # reduces to m

    @pytest.mark.parametrize("allow", [False, True])
    def test_monomial_presentation_stays_exact(self, allow):
        I = IdealPresentation(2, (poly(2, {(3, 0): 5}), poly(2, {(1, 1): 1}),
                                  poly(2, {(0, 2): -1})))
        mono = monomialize(I, allow)
        assert mono.exact and mono.mode == TERM_EXACT
        assert mono.ideal.generators == ((0, 2), (1, 1), (3, 0))

    def test_rescaling_invariance(self):
        I = jacobian_ideal(parse_polynomial("x^3 + y^4"))
        scaled = IdealPresentation(2, tuple(
            poly_scale(g, Fraction(5, 7)) for g in I.generators))
        a1 = monomialize(I).ideal
        a2 = monomialize(scaled).ideal
        assert a1 == a2
        assert lct_monomial(a1) == lct_monomial(a2)
        assert loja_monomial(a1) == loja_monomial(a2)
        assert lelong_numbers(a1).e == lelong_numbers(a2).e


class TestLctNondegenerate:
    @pytest.mark.parametrize("d,expected", [
        (2, 1), (3, Fraction(2, 3)), (5, Fraction(2, 5))])
    def test_fermat(self, d, expected):
        value, mode = lct_nondegenerate(parse_polynomial(f"x^{d} + y^{d}"))
        assert value == min(1, Fraction(2, d)) == expected

    def test_cusp_family(self):
        value, mode = lct_nondegenerate(parse_polynomial("x^2 + y^3"))
        assert value == Fraction(5, 6)
        assert mode == NONDEGENERATE

    def test_monomial_is_exact(self):
        value, mode = lct_nondegenerate(parse_polynomial("x*y"))
        assert value == 1
        assert mode == "term-exact"


class TestCheckIsolated:
    def test_isolated(self):
        germ = check_isolated(parse_polynomial("x^3 + y^3"))
        assert germ.jacobian == jacobian_ideal(parse_polynomial("x^3 + y^3"))
        assert germ.mono.exact
        assert germ.mono.ideal.generators == ((0, 2), (2, 0))

    def test_unknown(self):
        # non-monomial partials whose supports miss the y axis: f is
        # x^2*y^2*(1 + x), singular along both axes
        with pytest.raises(InvalidInputError, match="non-isolated"):
            check_isolated(parse_polynomial("x^2*y^2 + x^3*y^2"))

    def test_monomial_jacobian_not_zero_dimensional(self):
        with pytest.raises(InvalidInputError, match="non-isolated"):
            check_isolated(parse_polynomial("x^2*y^2"))

    def test_missing_variable(self):
        with pytest.raises(InvalidInputError, match="non-isolated"):
            check_isolated(parse_polynomial("x^2", 2))

    def test_nondegenerate_mono_and_m_jacobian(self):
        germ = check_isolated(parse_polynomial("x^3 + x*y^2 + y^5"))
        assert not germ.mono.exact and germ.mono.ideal.zero_dimensional
        with pytest.raises(NotMonomializableError, match="is not a single term"):
            germ.m_jacobian(False)
        assert germ.m_jacobian(True) == monomialize(product_with_maximal_poly(germ.jacobian),
                                                    allow_nondegenerate=True)


class TestProductRouteConsistency:
    @pytest.mark.parametrize("text", ["x^3 + y^3", "x^2 + y^5", "x^4 + y^4"])
    def test_lct_via_minkowski_sum(self, text):
        from lctlab.exactgeom import diagonal_intercept, maximal_ideal, minkowski_sum

        J = jacobian_ideal(parse_polynomial(text))
        direct = lct_monomial(monomialize(product_with_maximal_poly(J)).ideal)
        assert direct == lct_monomial(product_with_maximal(monomialize(J).ideal))
        PJ = polyhedron_of(monomialize(J).ideal)
        Pm = polyhedron_of(maximal_ideal(2))
        via_sum = 1 / diagonal_intercept(minkowski_sum(PJ, Pm))
        assert direct == via_sum

    @pytest.mark.parametrize("n,d", [(2, 2), (2, 5), (3, 3)])
    def test_fermat_closure_is_power_of_maximal(self, n, d):
        vars_ = ["x", "y", "z"][:n]
        f = parse_polynomial(" + ".join(f"{v}^{d}" for v in vars_))
        mono = monomialize(product_with_maximal_poly(jacobian_ideal(f)))
        assert polyhedron_of(mono.ideal).facets == (((1,) * n, d),)
        assert check_isolated(f).m_jacobian(False) == mono
