"""Exact invariants of zero-dimensional monomial ideals."""
import itertools
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from lctlab import invariants
from lctlab.exactgeom import (
    MonomialIdeal,
    InvalidInputError,
    NotZeroDimensionalError,
    covolume,
    ideal_product,
    maximal_ideal,
    minkowski_sum,
    polyhedron_of,
)
from lctlab.invariants import (
    UnitIdealError,
    lct_monomial,
    lelong_numbers,
    loja_monomial,
    mixed_multiplicity,
)
from lctlab.verify import random_ideal

from oracles import colength, ideal_power, multiplicity_oracle

A = MonomialIdeal.make({(2, 0), (1, 1), (0, 3)}, 2)


def brute_colength(a):
    """Independent staircase count by direct lattice enumeration."""
    box = [a.pure_power(i) for i in range(a.dim)]
    count = 0
    for pt in itertools.product(*(range(b) for b in box)):
        if not any(all(g[i] <= pt[i] for i in range(a.dim))
                   for g in a.generators):
            count += 1
    return count


class TestLct:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_maximal(self, n):
        assert lct_monomial(maximal_ideal(n)) == n

    @pytest.mark.parametrize("n,d", [(2, 3), (3, 4)])
    def test_power(self, n, d):
        assert lct_monomial(ideal_power(maximal_ideal(n), d)) == Fraction(n, d)

    def test_staircase(self):
        assert lct_monomial(A) == 1

    def test_unit_ideal_status(self):
        with pytest.raises(UnitIdealError):
            lct_monomial(MonomialIdeal.make({(0, 0)}, 2))
        for n in (1, 2, 3):
            with pytest.raises(UnitIdealError):
                lelong_numbers(MonomialIdeal.make({(0,) * n}, n))


class TestLoja:
    def test_power(self):
        assert loja_monomial(ideal_power(maximal_ideal(2), 4)) == 4

    def test_staircase(self):
        assert loja_monomial(A) == 3

    def test_maximal(self):
        assert loja_monomial(maximal_ideal(3)) == 1

    def test_not_zero_dimensional(self):
        with pytest.raises(NotZeroDimensionalError):
            loja_monomial(MonomialIdeal.make({(1, 1)}, 2))


class TestLojaSection:
    @pytest.mark.parametrize("gens,values", [
        # pure powers: the (j+1)-set without the j largest powers
        ([(2, 0, 0), (0, 3, 0), (0, 0, 4)], (4, 3, 2)),
        ([(4, 0, 0, 0), (0, 12, 0, 0), (0, 0, 15, 0), (0, 0, 0, 2)], (15, 12, 4, 2)),
        # xy lowers the sets {x, y} and {x, y, z}, not {y, z}
        ([(2, 0, 0), (0, 3, 0), (0, 0, 4), (1, 1, 0)], (4, 3, 2)),
        ([(5, 0, 0), (0, 5, 0), (0, 0, 5), (0, 1, 1)], (5, 5, 2)),
        ([(3, 0), (1, 1), (0, 3)], (3, 2)),
        ([(7,)], (7,)),
    ])
    def test_values(self, gens, values):
        a = MonomialIdeal.make(gens, len(gens[0]))
        got = tuple(loja_monomial(a, j) for j in range(a.dim))
        assert got == values and all(isinstance(v, Fraction) for v in got)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_endpoints(self, n):
        for s in range(20):
            a = random_ideal(n, s, 6) if n > 1 else MonomialIdeal.make([(s + 1,)], 1)
            # L_0 is the largest pure power, and j defaults to 0
            assert loja_monomial(a, 0) == loja_monomial(a) == max(map(a.pure_power, range(n)))
            assert loja_monomial(a, n - 1) == a.min_degree

    def test_power_of_maximal(self):
        a = ideal_power(maximal_ideal(4), 3)
        assert [loja_monomial(a, j) for j in range(4)] == [3] * 4

    def test_unit_ideal(self):
        a = MonomialIdeal.make({(0, 0, 0)}, 3)
        assert [loja_monomial(a, j) for j in range(3)] == [0] * 3

    def test_not_zero_dimensional(self):
        with pytest.raises(NotZeroDimensionalError):
            loja_monomial(MonomialIdeal.make({(2, 0, 0), (0, 2, 0)}, 3), 1)

    @pytest.mark.parametrize("j", [-1, 3])
    def test_codimension_range(self, j):
        with pytest.raises(InvalidInputError, match=f"codimension {j} invalid for dimension 3"):
            loja_monomial(maximal_ideal(3), j)


class TestColength:
    def test_maximal(self):
        assert colength(maximal_ideal(2)) == 1

    def test_staircase(self):
        assert colength(A) == 4  # {1, x, y, y^2}

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_power_triangle(self, d):
        assert colength(ideal_power(maximal_ideal(2), d)) == d * (d + 1) // 2

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from([2, 3]))
    def test_matches_brute_enumeration(self, seed, n):
        a = random_ideal(n, seed, 4)
        assert colength(a) == brute_colength(a)


class TestMultiplicities:
    def test_oracle_maximal(self):
        assert multiplicity_oracle(maximal_ideal(2)) == 1

    def test_oracle_staircase(self):
        assert multiplicity_oracle(A) == 5
        assert lelong_numbers(A).e[-1] == 5  # 2 * covolume 5/2

    @pytest.mark.parametrize("d", [2, 3])
    def test_oracle_power_3d(self, d):
        assert multiplicity_oracle(ideal_power(maximal_ideal(3), d)) == d ** 3

    @pytest.mark.parametrize("n,d", [(2, 4), (3, 2)])
    def test_samuel_power(self, n, d):
        assert lelong_numbers(ideal_power(maximal_ideal(n), d)).e[-1] == d ** n

    def test_samuel_equals_oracle_no_prestated_value(self):
        b = MonomialIdeal.make({(3, 0), (1, 1), (0, 3)}, 2)
        assert lelong_numbers(b).e[-1] == multiplicity_oracle(b)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from([2, 3]))
    def test_oracle_equivalence(self, seed, n):
        a = random_ideal(n, seed, 4)
        assert lelong_numbers(a).e[-1] == multiplicity_oracle(a)


class TestMixedMultiplicity:
    def test_all_maximal(self):
        m = maximal_ideal(2)
        assert mixed_multiplicity([m, m]) == 1
        m3 = maximal_ideal(3)
        assert mixed_multiplicity([m3, m3, m3]) == 1

    def test_with_maximal(self):
        assert mixed_multiplicity([A, maximal_ideal(2)]) == 2

    def test_diagonal_equals_samuel(self):
        assert mixed_multiplicity([A, A]) == lelong_numbers(A).e[-1]

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_symmetry(self, seed):
        a = random_ideal(3, seed, 3)
        b = random_ideal(3, seed + 1, 3)
        m = maximal_ideal(3)
        base = mixed_multiplicity([a, b, m])
        for perm in itertools.permutations([a, b, m]):
            assert mixed_multiplicity(list(perm)) == base

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_multilinearity(self, seed):
        a = random_ideal(2, seed, 4)
        b = random_ideal(2, seed + 1, 4)
        m = maximal_ideal(2)
        ab = ideal_product(a, b)
        assert (mixed_multiplicity([ab, m])
                == mixed_multiplicity([a, m]) + mixed_multiplicity([b, m]))


class TestLelong:
    @pytest.mark.parametrize("d", [2, 3])
    def test_power_3d(self, d):
        lv = lelong_numbers(ideal_power(maximal_ideal(3), d))
        assert lv.e == (d, d ** 2, d ** 3)

    def test_staircase(self):
        assert lelong_numbers(A).e == (2, 5)

    def test_maximal(self):
        assert lelong_numbers(maximal_ideal(4)).e == (1, 1, 1, 1)

    def test_dim_one(self):
        assert lelong_numbers(MonomialIdeal.make({(7,)}, 1)).e == (7,)

    @pytest.mark.parametrize("gens,sums", [
        ({(97, 0), (13, 11), (0, 89)}, 0),
        ({(83, 0, 0), (0, 79, 0), (0, 0, 73), (5, 7, 3)}, 0),
        ({(71, 0, 0, 0), (0, 67, 0, 0), (0, 0, 61, 0), (0, 0, 0, 59), (3, 5, 2, 7)}, 1),
    ])
    def test_kept_on_the_polyhedron(self, monkeypatch, gens, sums):
        """Dims 2-3 take no Minkowski sum and dim 4 one; an equal ideal
        gets the kept vector back with no geometry at all."""
        calls = []

        def counted(P, Q):
            calls.append((P, Q))
            return minkowski_sum(P, Q)

        monkeypatch.setattr(invariants, "minkowski_sum", counted)
        n = len(next(iter(gens)))
        a = MonomialIdeal.make(gens, n)
        assert "lelong_numbers" not in vars(polyhedron_of(a))  # a first call
        lv = lelong_numbers(a)
        assert len(calls) == sums
        monkeypatch.setattr(invariants, "_lelong_vector", None)  # a call would fail
        assert lelong_numbers(MonomialIdeal.make(sorted(gens), n)) is lv
        assert len(calls) == sums

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from([2, 3, 4]))
    def test_positivity_and_endpoints(self, seed, n):
        a = random_ideal(n, seed, 4)
        lv = lelong_numbers(a)
        assert all(e > 0 for e in lv.e)
        assert lv.e[0] == a.min_degree
        assert lv.e[-1] == factorial(n) * covolume(polyhedron_of(a))


class TestChainBound:
    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_power_2d(self, d):
        assert lelong_numbers(ideal_power(maximal_ideal(2), d)).ratio_sum == Fraction(2, d)

    def test_staircase(self):
        assert lelong_numbers(A).ratio_sum == Fraction(9, 10)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_maximal_equality(self, n):
        m = maximal_ideal(n)
        assert lelong_numbers(m).ratio_sum == n == lct_monomial(m)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from([2, 3]))
    def test_chain_inequality(self, seed, n):
        a = random_ideal(n, seed, 4)
        assert lct_monomial(a) >= lelong_numbers(a).ratio_sum
        lv = lelong_numbers(a)
        assert lv.e[-2] / lv.e[-1] >= 1 / loja_monomial(a) if n > 1 else True

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from([2, 3]))
    def test_power_scaling(self, seed, k):
        a = random_ideal(2, seed, 4)
        ak = ideal_power(a, k)
        assert lct_monomial(ak) == lct_monomial(a) / k
        assert loja_monomial(ak) == k * loja_monomial(a)
        lv, lvk = lelong_numbers(a), lelong_numbers(ak)
        assert all(lvk[j] == k ** j * lv[j] for j in range(1, 3))
