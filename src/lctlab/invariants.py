"""Exact invariants of zero-dimensional monomial ideals.

Log canonical threshold, Lojasiewicz exponent, Samuel and mixed
multiplicities and higher Lelong numbers, all read off Newton polyhedra.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .exactgeom import (
    InvalidInputError,
    MonomialIdeal,
    NotZeroDimensionalError,
    axis_intercepts,
    covolume,
    diagonal_intercept,
    maximal_ideal,
    minkowski_sum,
    polyhedron_of,
)


class UnitIdealError(ValueError):
    """The unit ideal: lct is +infinity, reported as a status, not a number,
    and every Lelong number is 0."""


@dataclass(frozen=True)
class LelongVector:
    """Higher Lelong numbers e_1..e_n of log|a|; e_0 := 1 by convention."""

    e: tuple[Fraction, ...]

    @property
    def e0(self) -> Fraction:
        return Fraction(1)

    def __getitem__(self, k: int) -> Fraction:
        if k == 0:
            return self.e0
        return self.e[k - 1]

    @property
    def ratio_sum(self) -> Fraction:
        """Sum of consecutive ratios e_{k-1}/e_k: the lower bound on lct."""
        return sum((self[k - 1] / self[k] for k in range(1, len(self.e) + 1)),
                   Fraction(0))


@dataclass(frozen=True)
class MixedMass:
    value: Fraction
    arguments: tuple[MonomialIdeal, ...]


def _require_zero_dim(a: MonomialIdeal, what: str) -> None:
    if not a.zero_dimensional:
        raise NotZeroDimensionalError(f"{what} requires a zero-dimensional ideal")


def lct_monomial(a: MonomialIdeal) -> Fraction:
    """1 / (diagonal intercept of the Newton polyhedron)."""
    if a.is_unit:
        raise UnitIdealError("lct of the unit ideal is +infinity")
    t0 = diagonal_intercept(polyhedron_of(a))
    return 1 / t0


def loja_monomial(a: MonomialIdeal) -> Fraction:
    """Max axis intercept of the Newton polyhedron."""
    _require_zero_dim(a, "Lojasiewicz exponent")
    return max(axis_intercepts(polyhedron_of(a)))


def samuel_multiplicity(a: MonomialIdeal) -> Fraction:
    """n! * covolume of the Newton polyhedron."""
    _require_zero_dim(a, "Samuel multiplicity")
    return factorial(a.dim) * covolume(polyhedron_of(a))


def mixed_multiplicity(ideals) -> MixedMass:
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
    return MixedMass(total, ideals)


def lelong_numbers(a: MonomialIdeal) -> LelongVector:
    """e_k from the covolume polynomial of P + tD, P the Newton polyhedron of
    a and D that of the maximal ideal m:

        n! covol(P + tD) = sum_k C(n, k) e_k t^(n-k),   e_0 = e(m) = 1,

    since e_k is the mixed multiplicity of a taken k times against m, which is
    n! times the mixed covolume (Kaveh & Khovanskii 2014).  So e_n = n! covol(P),
    and the middle coefficients are solved exactly from t = 1..n-1, each
    P + tD built from P + (t-1)D.
    """
    if a.is_unit:
        raise UnitIdealError(
            "Lelong numbers of the unit ideal are 0; its ratios are undefined")
    _require_zero_dim(a, "Lelong numbers")
    n, nf = a.dim, factorial(a.dim)
    S = polyhedron_of(a)
    D = polyhedron_of(maximal_ideal(n))
    en = nf * covolume(S)
    # rows [t, t^2, .., t^(n-1) | sum_{0<j<n} C(n, n-j) e_(n-j) t^j], t = 1..n-1
    rows = []
    for t in range(1, n):
        S = minkowski_sum(S, D)  # P + tD
        rows.append([Fraction(t ** j) for j in range(1, n)]
                    + [nf * covolume(S) - t ** n - en])
    # Gauss-Jordan with no row swaps: a Vandermonde matrix on increasing
    # positive nodes is totally positive, so every pivot is nonzero
    for i, pivot in enumerate(rows):
        pivot[:] = [x / pivot[i] for x in pivot]
        for row in rows:
            if row is not pivot and row[i]:
                factor = row[i]
                row[:] = [x - factor * y for x, y in zip(row, pivot)]
    e = [rows[n - k - 1][-1] / comb(n, k) for k in range(1, n)] + [en]
    return LelongVector(tuple(e))


def dh_lower_bound(a: MonomialIdeal) -> Fraction:
    """Sum of consecutive Lelong-number ratios e_{k-1}/e_k, with e_0 = 1."""
    return lelong_numbers(a).ratio_sum
