"""Exact rational convex geometry over the nonnegative orthant.

Newton polyhedra of monomial ideals in dimension n <= 4, one object per
vertex set: vertices and facets in one double description pass, Minkowski
sums, the diagonal intercept, and the integer n! vol conv(0, F) for each
facet F, whose sum over n! is the orthant-complement volume (covolume).
Incidence sets and faces are int bitmasks over the generators or vertices:
a subset test is w & z == z, a size is int.bit_count().  Over the facets
<w_F, x> >= c_F the diagonal intercept is max_F c_F/|w_F|, with |w_F| the
entry sum, found by integer cross-multiplication.  Everything is
integer/Fraction arithmetic; floats never enter this module.
"""
from __future__ import annotations

import weakref
from collections.abc import Hashable
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from math import factorial, gcd
from operator import and_, index, le, mul

MAX_DIM = 4
# generator sets kept, each with its polyhedron and what callers keep on it
# (Lelong vector, a corpus case's verdicts); generator sets with one hull
# share one polyhedron (README, corpus paragraph)
POLY_CACHE_SIZE = 8192

Exponent = tuple[int, ...]


class GeometryError(ValueError):
    pass


class UnsupportedDimensionError(GeometryError):
    pass


class InvalidInputError(GeometryError):
    pass


class NotZeroDimensionalError(GeometryError):
    pass


def check_dim(n: int) -> None:
    if not 1 <= n <= MAX_DIM:
        raise UnsupportedDimensionError(f"dimension {n} not supported (1..{MAX_DIM})")


def _exponent(g) -> Exponent:
    """g as a tuple of ints; InvalidInputError unless every entry is an integer."""
    try:
        return tuple(map(index, g))
    except TypeError:
        raise InvalidInputError(f"non-integer exponent in generator {g}") from None


def minimalize(gens) -> tuple[Exponent, ...]:
    """Reduce a set of integer exponent vectors to its componentwise-minimal
    elements.

    In lexicographic order a vector can only be dominated by an earlier one,
    and then also by an earlier minimal one, so each vector is compared with
    the minimal vectors kept so far.
    """
    keep = []
    for v in sorted({_exponent(g) for g in gens}):
        for u in keep:
            if all(map(le, u, v)):
                break
        else:
            keep.append(v)
    return tuple(keep)


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal given by its minimal generator exponents."""

    dim: int
    generators: tuple[Exponent, ...]

    @classmethod
    def make(cls, gens, dim: int) -> "MonomialIdeal":
        check_dim(dim)
        gens = list(gens)
        if not gens:
            raise InvalidInputError("empty generator set")
        for g in gens:
            if len(g) != dim:
                raise InvalidInputError(f"generator {g} has wrong length (dim {dim})")
            if any(c < 0 for c in g):
                raise InvalidInputError(f"negative exponent in generator {g}")
        return cls(dim, minimalize(gens))

    @property
    def is_unit(self) -> bool:
        return self.generators == ((0,) * self.dim,)

    def pure_power(self, axis: int) -> int | None:
        """Exponent of the generator supported on the given axis, if any.

        Entries are >= 0, so g is supported on the axis alone, or is 0, iff
        sum(g) == g[axis]."""
        return min((g[axis] for g in self.generators if sum(g) == g[axis]), default=None)

    @property
    def zero_dimensional(self) -> bool:
        """Every axis carries a pure power, in one pass over the generators:
        a nonzero generator whose sum is one of its entries has no other
        nonzero entry, and marks that entry's axis.  The unit ideal, whose one
        generator is 0, counts as zero-dimensional."""
        axes = {g.index(s) for g in self.generators if (s := sum(g)) and s in g}
        return len(axes) == self.dim or self.is_unit

    @property
    def min_degree(self) -> int:
        return min(sum(g) for g in self.generators)


def maximal_ideal(n: int) -> MonomialIdeal:
    check_dim(n)
    # the unit vectors, sorted: e_(n-1) comes first
    return MonomialIdeal(n, tuple(tuple(int(j == i) for j in range(n))
                                  for i in reversed(range(n))))


def ideal_product(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    if a.dim != b.dim:
        raise InvalidInputError("dimension mismatch in ideal product")
    sums = {tuple(x + y for x, y in zip(u, v))
            for u in a.generators for v in b.generators}
    return MonomialIdeal.make(sums, a.dim)


@dataclass(frozen=True)
class NewtonPolyhedron:
    """conv(vertices) + nonnegative orthant, with exact facet inequalities.

    Facets are pairs (normal, offset) with primitive integer normal >= 0
    describing {x >= 0 : <normal, x> >= offset}; offsets are positive
    integers (inequalities implied by x >= 0 are not stored).  The vertices
    are sorted, and they are minimal generators of the ideal they span.
    One polyhedron stands for every generator set with this hull, so what
    is kept on it must depend on the polyhedron alone.
    """

    dim: int
    facets: tuple[tuple[Exponent, int], ...]
    vertices: tuple[Exponent, ...]

    def keep(self, name: Hashable, compute):
        """compute(), run once per polyhedron and kept under name, as a
        cached_property keeps its value, so that every generator set with
        this hull reuses it while the polyhedron stays in the cache."""
        value = self.__dict__.get(name)
        if value is None:
            value = self.__dict__[name] = compute()
        return value

    @property
    def vertex_ideal(self) -> MonomialIdeal:
        """The ideal of the vertices, its minimal generators: it has the
        polyhedron's order, pure powers and L^(j), each the least value of a
        positive linear form on a face, taken at a vertex."""
        return MonomialIdeal(self.dim, self.vertices)

    @cached_property
    def normalized_cone_volumes(self) -> tuple[int, ...]:
        """The integer n! vol conv(0, F) for each facet F, in `facets` order,
        computed once per polyhedron; requires finite axis intercepts."""
        if any(0 in w for w, _ in self.facets):  # an axis never meets P
            raise NotZeroDimensionalError("unbounded orthant complement")
        return _cone_volume(self)

    @cached_property
    def _covolume(self) -> Fraction:
        """covolume(self), computed once per polyhedron."""
        return Fraction(sum(self.normalized_cone_volumes), factorial(self.dim))


def _vertices_and_facets(gens, n: int):
    """Vertices and facets of P = conv(gens) + orthant, for sorted distinct gens.

    The gens need not be minimal.  The first one is the lexicographic
    minimum of P, so a vertex.  A point of g + orthant, g another generator,
    sorts after g, so it violates no facet when it is added and only joins
    incidence sets; the combinatorial test below holds with redundant
    generators too.

    Double description method (Fukuda & Prodon 1996) on the cone over P in
    dimension n + 1, generated by the rays (e_j, 0), bit j < n, and the
    points (g, 1), bit n + i for g = gens[i].  Each facet of the cone is a
    primitive integer row h with h.x >= 0 on it, kept with the bitmask of
    generators on it.  The cone starts from gens[0] + orthant, whose facets
    are s >= 0 and x_j >= gens[0][j] s.  Adding a point drops the facets it
    violates and joins each violated facet to each kept one adjacent to it,
    that is, whose common generators Z number at least n - 1 and lie on no
    third facet (the combinatorial test; distinct facets have distinct
    incidence masks).  The facets of P are the rows with a negative last
    entry; its vertices are the points that are the only generator on all
    of their facets.
    """
    rows = [((0,) * n + (1,), (1 << n) - 1)]
    rows += [(tuple(int(j == i) for j in range(n)) + (-gens[0][i],),
              ((1 << (n + 1)) - 1) ^ (1 << i)) for i in range(n)]
    for i in range(1, len(gens)):
        p, q = gens[i] + (1,), 1 << (n + i)
        dots = [sum(map(mul, h, p)) for h, _ in rows]
        kept = [(h, z | q if d == 0 else z) for (h, z), d in zip(rows, dots) if d >= 0]
        pos = [(h, z, d) for (h, z), d in zip(rows, dots) if d > 0]
        masks = [w for _, w in rows]
        for (hm, zm), dm in zip(rows, dots):
            if dm >= 0:
                continue
            for hp, zp, dp in pos:
                z = zm & zp
                # zm and zp hold z; a third mask holding it fails the test
                if z.bit_count() < n - 1 or len([w for w in masks if w & z == z]) > 2:
                    continue
                h = [dp * a - dm * b for a, b in zip(hm, hp)]
                c = gcd(*h)
                kept.append((tuple(a // c for a in h), z | q))
        rows = kept
    masks = [z for _, z in rows]
    vertices = []
    for i, g in enumerate(gens):
        q = 1 << (n + i)
        if reduce(and_, [z for z in masks if z & q], -1) == q:
            vertices.append(g)
    return tuple(vertices), tuple(sorted((h[:n], -h[n]) for h, _ in rows if h[n] < 0))


# vertices -> the live polyhedron of that hull; an entry lives while a
# _polyhedron entry, or a caller, holds its polyhedron
_HULLS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


@lru_cache(maxsize=POLY_CACHE_SIZE)
def _polyhedron(gens: tuple[Exponent, ...], n: int) -> NewtonPolyhedron:
    """The polyhedron of sorted distinct gens: the hull pass runs once per
    generator set while it stays in the cache, and a hull that is already
    live is returned as it is, with all that callers keep on it.  What is
    kept goes when the last generator set of the hull is evicted."""
    vertices, facets = _vertices_and_facets(gens, n)
    P = _HULLS.get(vertices)
    if P is None:
        P = _HULLS[vertices] = NewtonPolyhedron(n, facets, vertices)
    return P


def build_polyhedron(gens, n: int) -> NewtonPolyhedron:
    """Newton polyhedron conv(gens) + orthant, with exact vertices and
    facets; gens with the same hull give the same object."""
    return _polyhedron(MonomialIdeal.make(gens, n).generators, n)


def polyhedron_of(a: MonomialIdeal) -> NewtonPolyhedron:
    # the generators of a MonomialIdeal are sorted minimal ones, so they key
    # the cache as they are, without build_polyhedron's checks
    return _polyhedron(a.generators, a.dim)


def minkowski_sum(P: NewtonPolyhedron, Q: NewtonPolyhedron) -> NewtonPolyhedron:
    """P + Q, the Newton polyhedron of the product ideal.

    P = conv(P.vertices) + orthant, so every vertex of P + Q is the sum of a
    vertex of P and a vertex of Q, and the vertex sums generate it.  They go
    to the hull sorted but not minimalized.
    """
    if P.dim != Q.dim:
        raise InvalidInputError("dimension mismatch in Minkowski sum")
    sums = {tuple(x + y for x, y in zip(u, v))
            for u in P.vertices for v in Q.vertices}
    return _polyhedron(tuple(sorted(sums)), P.dim)


def diagonal_intercept(P: NewtonPolyhedron) -> Fraction:
    """min{t > 0 : t*(1,..,1) in P}; 0 for the full orthant.

    t*(1,..,1) meets the facet <w_F, x> >= c_F at t = c_F/|w_F|, with |w_F|
    the entry sum, and lies in P once it satisfies every facet, so the
    intercept is max_F c_F/|w_F|, found by integer cross-multiplication;
    only the result becomes a Fraction."""
    p, q = 0, 1
    for w, c in P.facets:
        s = sum(w)
        if c * q > p * s:
            p, q = c, s
    return Fraction(p, q)


def det(rows) -> int | Fraction:
    """Determinant of a small square matrix of int or Fraction entries, by
    cofactor expansion."""
    if len(rows) == 1:
        return rows[0][0]
    return sum((-1) ** j * a * det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, a in enumerate(rows[0]) if a)


def _cone_volume(P: NewtonPolyhedron) -> tuple[int, ...]:
    """n! vol conv(0, F) for each facet F of P, in P.facets order.

    Each facet is cut into simplices by a pulling triangulation: pick its
    first vertex, then recurse into every sub-face that misses it.  Faces
    are bitmasks over P.vertices, from facet-vertex incidences, with the
    coordinate hyperplanes counted as facets; each simplex s adds |det(s)|.
    """
    verts = P.vertices
    n = P.dim
    planes = [sum(1 << k for k, v in enumerate(verts) if sum(map(mul, w, v)) == c)
              for w, c in P.facets]
    cuts = planes + [sum(1 << k for k, v in enumerate(verts) if not v[i])
                     for i in range(n)]
    triangulations: dict[int, list[tuple[int, ...]]] = {}

    def simplices(face: int, d: int) -> list[tuple[int, ...]]:
        if d == 0:
            return [(face.bit_length() - 1,)]
        if face not in triangulations:
            apex = face & -face
            subs = {face & h for h in cuts} - {face, 0}
            triangulations[face] = [
                s + (apex.bit_length() - 1,) for g in subs
                if not g & apex and not any(g & h == g != h for h in subs)
                for s in simplices(g, d - 1)]
        return triangulations[face]

    return tuple(sum(abs(det([verts[k] for k in s])) for s in simplices(f, n - 1))
                 for f in planes)


def covolume(P: NewtonPolyhedron) -> Fraction:
    """Exact n-volume of {x >= 0 : x not in P}; requires finite axis intercepts.

    Then every facet normal is positive, so every facet is compact, and each
    ray from 0 leaves the complement through one of them: the cones
    conv(0, F) tile the complement.  The value is the sum of P's normalized
    cone volumes over n!, kept on P.
    """
    return P._covolume
