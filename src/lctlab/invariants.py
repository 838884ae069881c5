"""Exact invariants of zero-dimensional monomial ideals.

Log canonical threshold, Lojasiewicz exponent, mixed multiplicities and
higher Lelong numbers.  Over the facets <w_F, x> >= c_F of the Newton
polyhedron P of a, 1/lct(a) = max_F c_F/|w_F|, the diagonal intercept, with
|w_F| the entry sum (Howald 2001).  L_0(a) is the largest axis intercept of
P, which for a monomial ideal is its largest pure power, and L^(j)(a), the
exponent on a generic plane of codimension j, is read off the generators'
supports.

The Lelong numbers e_k of a, the mixed multiplicities of a taken k times
against the maximal ideal (Kaveh & Khovanskii 2014), come from the facets of
the Newton polyhedron P of a.  With N_F = n! vol conv(0, F), the integer
normalized cone volume that P keeps for each facet <w_F, x> >= c_F,
e_1 = ord(a), e_n = n! covol(P) = sum_F N_F, and

    e_(n-1) = sum_F N_F min(w_F) / c_F,

by the first variation of covolume (Schneider, Convex Bodies, 2nd ed. 2014,
section 5.1), summed in integers over the common denominator lcm(c_F).
Only e_2 in dim 4 takes a Minkowski sum, P + D with D the polyhedron of the
maximal ideal.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .exactgeom import (
    InvalidInputError,
    MonomialIdeal,
    NewtonPolyhedron,
    NotZeroDimensionalError,
    covolume,
    diagonal_intercept,
    maximal_ideal,
    minkowski_sum,
    polyhedron_of,
)


_ONE = Fraction(1)


class UnitIdealError(ValueError):
    """The unit ideal: lct is +infinity, reported as a status, not a number,
    and every Lelong number is 0."""


@dataclass(frozen=True)
class LelongVector:
    """Higher Lelong numbers e_1..e_n of log|a|; e_0 := 1 by convention."""

    e: tuple[Fraction, ...]

    def __getitem__(self, k: int) -> Fraction:
        if k == 0:
            return _ONE
        return self.e[k - 1]

    @property
    def ratios(self) -> tuple[Fraction, ...]:
        """Consecutive ratios e_{k-1}/e_k for k = 1..n."""
        e = self.e
        return (_ONE / e[0],) + tuple(a / b for a, b in zip(e, e[1:]))

    @property
    def ratio_sum(self) -> Fraction:
        """Sum of consecutive ratios e_{k-1}/e_k: the lower bound on lct."""
        return sum(self.ratios, Fraction(0))


def _require_zero_dim(a: MonomialIdeal, what: str) -> None:
    if not a.zero_dimensional:
        raise NotZeroDimensionalError(f"{what} requires a zero-dimensional ideal")


def lct_monomial(a: MonomialIdeal) -> Fraction:
    """1 / (diagonal intercept of the Newton polyhedron), that is
    1 / max_F c_F/|w_F| (Howald 2001)."""
    if a.is_unit:
        raise UnitIdealError("lct of the unit ideal is +infinity")
    t0 = diagonal_intercept(polyhedron_of(a))
    return 1 / t0


def loja_monomial(a: MonomialIdeal, j: int = 0) -> Fraction:
    """L^(j)(a), the Lojasiewicz exponent of a on a generic plane of
    codimension j, 0 <= j <= n-1, in one pass over the generators' support
    bitmasks; 0 for the unit ideal.

    An arc in the plane with orders w has ord(a o arc) = min_g <w, g>, and
    those w are the vectors whose least entry is taken at least j + 1 times
    (the tropical linear space of the uniform matroid; Ardila & Klivans,
    JCTB 96, 2006).  The sup of ord(a o arc)/min(w) is reached with weight 1
    on a (j+1)-set S and unbounded weights off it, so

        L^(j)(a) = max over (j+1)-sets S of min{|g| : supp g in S},

    attained on the line where the plane meets x_k = 0 for k not in S.
    j = 0 gives L_0, the largest pure power, and j = n - 1 the order
    min_degree."""
    n = a.dim
    if not 0 <= j < n:
        raise InvalidInputError(f"codimension {j} invalid for dimension {n}")
    _require_zero_dim(a, "Lojasiewicz exponent")
    bits = [1 << i for i in range(n)]
    degrees = [(sum(itertools.compress(bits, g)), sum(g)) for g in a.generators]
    # a zero-dimensional a has a pure power on each axis of every S
    return Fraction(max(min(s for mask, s in degrees if mask | S == S)
                        for S in map(sum, itertools.combinations(bits, j + 1))))


def mixed_multiplicity(ideals) -> Fraction:
    """Polarization of covolumes over Minkowski sums of the Newton polyhedra.

    Subsets that take the same multiset of arguments share one Minkowski
    sum, built once from the sum one argument smaller, and one covolume
    term weighted by their number.
    """
    ideals = tuple(ideals)
    if not ideals:
        raise InvalidInputError("no ideals given")
    n = ideals[0].dim
    if len(ideals) != n:
        raise InvalidInputError(f"need exactly {n} ideals in dimension {n}")
    for a in ideals:
        if a.dim != n:
            raise InvalidInputError("dimension mismatch among mixed arguments")
        _require_zero_dim(a, "mixed multiplicity")
    first = [ideals.index(a) for a in ideals]
    weights: dict[tuple[int, ...], int] = {}  # sorted multiset -> signed count
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            key = tuple(sorted(first[i] for i in subset))
            weights[key] = weights.get(key, 0) + (-1) ** (n - size)
    polys = [polyhedron_of(a) for a in ideals]
    sums = {}
    total = Fraction(0)
    for key, weight in weights.items():  # every key comes after its prefix
        sums[key] = (polys[key[0]] if len(key) == 1
                     else minkowski_sum(sums[key[:-1]], polys[key[-1]]))
        total += weight * covolume(sums[key])
    return total


def lelong_numbers(a: MonomialIdeal) -> LelongVector:
    """e_1..e_n from the facets of the Newton polyhedron P of a, kept on P.

    e_k is the mixed multiplicity of a taken k times against m, whose
    polyhedron is D, so n! covol(P + tD) = sum_k C(n, k) e_k t^(n-k) with
    e_0 = 1 (Kaveh & Khovanskii 2014).  Hence e_n = n! covol(P), and the t^1
    coefficient is the first variation of covolume (Schneider, Convex Bodies,
    2nd ed. 2014, section 5.1): the facet <w_F, x> >= c_F of P moves to offset
    c_F + t min(w_F), so

        e_(n-1) = sum_F N_F min(w_F) / c_F,   N_F = n! vol conv(0, F).

    e_1 is the order of a, `min_degree`.  That leaves only e_2 in dim 4, from
    the one sum P + D at t = 1:

        e_2 = (24 covol(P + D) - 1 - 4 e_1 - 4 e_3 - e_4) / 6.
    """
    if a.is_unit:
        raise UnitIdealError(
            "Lelong numbers of the unit ideal are 0; its ratios are undefined")
    _require_zero_dim(a, "Lelong numbers")
    P = polyhedron_of(a)
    return P.keep("lelong_numbers", lambda: _lelong_vector(P))


def _lelong_vector(P: NewtonPolyhedron) -> LelongVector:
    """e_1..e_n of P alone, in integers, each made a Fraction once: e_1 is
    the order of P's vertex ideal, e_n is the sum of the normalized cone
    volumes N_F = n! vol conv(0, F), and e_(n-1) is sum_F N_F min(w_F) / c_F
    over the common denominator lcm(c_F)."""
    n = P.dim
    vols = P.normalized_cone_volumes
    en = sum(vols)
    if n == 1:
        return LelongVector((Fraction(en),))
    e1 = P.vertex_ideal.min_degree
    if n == 2:
        return LelongVector((Fraction(e1), Fraction(en)))
    den = lcm(*(c for _, c in P.facets))
    num = sum(v * min(w) * (den // c) for v, (w, c) in zip(vols, P.facets))
    if n == 3:
        return LelongVector((Fraction(e1), Fraction(num, den), Fraction(en)))
    D = polyhedron_of(maximal_ideal(4))
    # 6 e_2 = 24 covol(P + D) - 1 - 4 e_1 - 4 e_3 - e_4, and 24 covol(P + D)
    # is the sum of the normalized cone volumes of P + D
    sd = sum(minkowski_sum(P, D).normalized_cone_volumes)
    e2 = Fraction((sd - 1 - 4 * e1 - en) * den - 4 * num, 6 * den)
    return LelongVector((Fraction(e1), e2, Fraction(num, den), Fraction(en)))
