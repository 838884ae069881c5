"""Exact rational convex geometry over the nonnegative orthant.

Newton polyhedra of monomial ideals in dimension n <= 4: facet enumeration,
membership, Minkowski sums, diagonal/axis intercepts and orthant-complement
volumes (covolumes).  Everything is integer/Fraction arithmetic; floats never
enter this module.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

MAX_DIM = 4

Exponent = tuple[int, ...]


class GeometryError(ValueError):
    pass


class UnsupportedDimensionError(GeometryError):
    pass


class InvalidInputError(GeometryError):
    pass


class NotZeroDimensionalError(GeometryError):
    pass


def _check_dim(n: int) -> None:
    if not 1 <= n <= MAX_DIM:
        raise UnsupportedDimensionError(f"dimension {n} not supported (1..{MAX_DIM})")


def minimalize(gens) -> tuple[Exponent, ...]:
    """Reduce a set of exponent vectors to its componentwise-minimal elements."""
    unique = sorted(set(tuple(int(c) for c in g) for g in gens))
    keep = []
    for v in unique:
        if not any(u != v and all(ui <= vi for ui, vi in zip(u, v)) for u in unique):
            keep.append(v)
    return tuple(keep)


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal given by its minimal generator exponents."""

    dim: int
    generators: tuple[Exponent, ...]

    @classmethod
    def make(cls, gens, dim: int) -> "MonomialIdeal":
        _check_dim(dim)
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
        """Exponent of the generator supported on the given axis, if any."""
        best = None
        for g in self.generators:
            if all(c == 0 for i, c in enumerate(g) if i != axis):
                if best is None or g[axis] < best:
                    best = g[axis]
        return best

    @property
    def zero_dimensional(self) -> bool:
        return all(self.pure_power(i) is not None for i in range(self.dim))

    @property
    def min_degree(self) -> int:
        return min(sum(g) for g in self.generators)


def maximal_ideal(n: int) -> MonomialIdeal:
    _check_dim(n)
    gens = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    return MonomialIdeal.make(gens, n)


def ideal_product(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    if a.dim != b.dim:
        raise InvalidInputError("dimension mismatch in ideal product")
    sums = {tuple(x + y for x, y in zip(u, v))
            for u in a.generators for v in b.generators}
    return MonomialIdeal.make(sums, a.dim)


def ideal_power(a: MonomialIdeal, k: int) -> MonomialIdeal:
    if k < 1:
        raise InvalidInputError("power must be >= 1")
    out = a
    for _ in range(k - 1):
        out = ideal_product(out, a)
    return out


def scale_ideal(a: MonomialIdeal, k: int) -> MonomialIdeal:
    return MonomialIdeal.make([tuple(k * c for c in g) for g in a.generators], a.dim)


@dataclass(frozen=True)
class NewtonPolyhedron:
    """conv(generators) + nonnegative orthant, with exact facet inequalities.

    Facets are pairs (normal, offset) with primitive integer normal >= 0
    describing {x >= 0 : <normal, x> >= offset}; offsets are positive
    integers (inequalities implied by x >= 0 are not stored).
    """

    dim: int
    generators: tuple[Exponent, ...]
    facets: tuple[tuple[Exponent, int], ...]

    @property
    def is_orthant(self) -> bool:
        return not self.facets


def _primitive(vec) -> Exponent | None:
    g = 0
    for c in vec:
        g = gcd(g, abs(int(c)))
    if g == 0:
        return None
    return tuple(int(c) // g for c in vec)


def _sign_fix(vec) -> Exponent | None:
    """Orient an integer vector to be componentwise >= 0, else drop it."""
    has_pos = any(c > 0 for c in vec)
    has_neg = any(c < 0 for c in vec)
    if has_pos and has_neg:
        return None
    if has_neg:
        vec = tuple(-c for c in vec)
    return _primitive(vec)


def _rank(rows) -> int:
    """Exact rank of a small rational matrix."""
    mat = [[Fraction(c) for c in r] for r in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    col = 0
    while rank < len(mat) and col < ncols:
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        prow = mat[rank]
        for i in range(rank + 1, len(mat)):
            if mat[i][col] != 0:
                factor = mat[i][col] / prow[col]
                mat[i] = [a - factor * b for a, b in zip(mat[i], prow)]
        rank += 1
        col += 1
    return rank


def _directions(gens: tuple[Exponent, ...], n: int) -> list[Exponent]:
    dirs = set()
    for u, v in itertools.combinations(gens, 2):
        d = _primitive(tuple(a - b for a, b in zip(u, v)))
        if d is not None:
            # canonical sign: first nonzero entry positive
            first = next(c for c in d if c != 0)
            if first < 0:
                d = tuple(-c for c in d)
            dirs.add(d)
    for i in range(n):
        dirs.add(tuple(1 if j == i else 0 for j in range(n)))
    return sorted(dirs)


def _candidate_normals(dirs: list[Exponent], n: int) -> set[Exponent]:
    cands: set[Exponent] = set()
    if n == 1:
        cands.add((1,))
    elif n == 2:
        for dx, dy in dirs:
            w = _sign_fix((dy, -dx))
            if w is not None:
                cands.add(w)
    elif n == 3:
        arr = np.array(dirs, dtype=np.int64)
        cross = np.cross(arr[:, None, :], arr[None, :, :]).reshape(-1, 3)
        nz = cross[np.any(cross != 0, axis=1)]
        if len(nz):
            neg = np.all(nz <= 0, axis=1)
            nz[neg] *= -1
            ok = nz[np.all(nz >= 0, axis=1)]
            if len(ok):
                g = np.gcd.reduce(ok, axis=1)
                ok = ok // g[:, None]
                cands.update(map(tuple, np.unique(ok, axis=0).tolist()))
    else:  # n == 4: generalized cross product of 3 directions
        for trip in itertools.combinations(dirs, 3):
            m = [list(d) for d in trip]
            w = []
            for i in range(4):
                cols = [j for j in range(4) if j != i]
                sub = [[m[r][c] for c in cols] for r in range(3)]
                det = (sub[0][0] * (sub[1][1] * sub[2][2] - sub[1][2] * sub[2][1])
                       - sub[0][1] * (sub[1][0] * sub[2][2] - sub[1][2] * sub[2][0])
                       + sub[0][2] * (sub[1][0] * sub[2][1] - sub[1][1] * sub[2][0]))
                w.append((-1) ** i * det)
            fixed = _sign_fix(w)
            if fixed is not None:
                cands.add(fixed)
    return cands


_POLY_CACHE: dict[tuple[int, tuple[Exponent, ...]], NewtonPolyhedron] = {}


def build_polyhedron(gens, n: int) -> NewtonPolyhedron:
    """Newton polyhedron conv(gens) + orthant, with exact facet list."""
    _check_dim(n)
    gens = minimalize(gens)
    if not gens:
        raise InvalidInputError("empty generator set")
    for g in gens:
        if len(g) != n:
            raise InvalidInputError("generator dimension mismatch")
        if any(c < 0 for c in g):
            raise InvalidInputError("negative exponent")
    key = (n, gens)
    cached = _POLY_CACHE.get(key)
    if cached is not None:
        return cached

    dirs = _directions(gens, n)
    cands = _candidate_normals(dirs, n)

    garr = np.array(gens, dtype=np.int64)
    facets: set[tuple[Exponent, int]] = set()
    for w in sorted(cands):
        dots = garr @ np.array(w, dtype=np.int64)
        c = int(dots.min())
        if c <= 0:
            continue  # implied by x >= 0
        tight = [gens[i] for i in np.nonzero(dots == c)[0]]
        base = tight[0]
        rows = [tuple(a - b for a, b in zip(g, base)) for g in tight[1:]]
        rows += [tuple(1 if j == i else 0 for j in range(n))
                 for i in range(n) if w[i] == 0]
        if n == 1 or _rank(rows) == n - 1:
            facets.add((w, c))

    poly = NewtonPolyhedron(n, gens, tuple(sorted(facets)))
    _POLY_CACHE[key] = poly
    return poly


def polyhedron_of(a: MonomialIdeal) -> NewtonPolyhedron:
    return build_polyhedron(a.generators, a.dim)


def _facet_eval(P: NewtonPolyhedron, q) -> bool:
    return all(sum(Fraction(wi) * qi for wi, qi in zip(w, q)) >= c
               for w, c in P.facets)


def contains(P: NewtonPolyhedron, q) -> bool:
    """Exact membership, decided by the facet inequalities."""
    q = tuple(Fraction(c) for c in q)
    if len(q) != P.dim:
        raise InvalidInputError("point dimension mismatch")
    if any(c < 0 for c in q):
        raise InvalidInputError("negative coordinate")
    return _facet_eval(P, q)


def minkowski_sum(P: NewtonPolyhedron, Q: NewtonPolyhedron) -> NewtonPolyhedron:
    if P.dim != Q.dim:
        raise InvalidInputError("dimension mismatch in Minkowski sum")
    sums = {tuple(x + y for x, y in zip(u, v))
            for u in P.generators for v in Q.generators}
    return build_polyhedron(sums, P.dim)


def diagonal_intercept(P: NewtonPolyhedron) -> Fraction:
    """min{t > 0 : t*(1,..,1) in P}; 0 for the full orthant."""
    if P.is_orthant:
        return Fraction(0)
    return max(Fraction(c, sum(w)) for w, c in P.facets)


def axis_intercepts(P: NewtonPolyhedron) -> tuple[Fraction | None, ...]:
    """Per-axis min{t : t*e_i in P}; None where the axis never meets P."""
    out = []
    for i in range(P.dim):
        if any(w[i] == 0 for w, _ in P.facets):
            out.append(None)
        elif P.is_orthant:
            out.append(Fraction(0))
        else:
            out.append(max(Fraction(c, w[i]) for w, c in P.facets))
    return tuple(out)


def _dedup_rows(rows):
    """Normalize rows (a, b) of a*x <= b and keep the tightest per direction."""
    best: dict[tuple, Fraction] = {}
    trivial_feasible = True
    for a, b in rows:
        a = tuple(Fraction(c) for c in a)
        b = Fraction(b)
        if all(c == 0 for c in a):
            if b < 0:
                return None  # infeasible
            continue
        denom_lcm = 1
        for c in a:
            denom_lcm = denom_lcm * c.denominator // gcd(denom_lcm, c.denominator)
        ints = [int(c * denom_lcm) for c in a]
        g = 0
        for c in ints:
            g = gcd(g, abs(c))
        key = tuple(c // g for c in ints)
        bb = b * denom_lcm / g
        if key not in best or bb < best[key]:
            best[key] = bb
    return [(k, v) for k, v in sorted(best.items())]


def _poly_volume(rows, n: int) -> Fraction:
    """Exact volume of {x : a*x <= b}, all rows rational; must be bounded.

    Divergence-theorem recursion: each facet contributes
    (b_i/|a_ij|) * vol_{n-1}(face projected along x_j), summed and divided by n.
    """
    deduped = _dedup_rows(rows)
    if deduped is None:
        return Fraction(0)
    if n == 1:
        lo, hi = None, None
        for (a,), b in deduped:
            v = Fraction(b, a)
            if a > 0:
                hi = v if hi is None else min(hi, v)
            else:
                lo = v if lo is None else max(lo, v)
        if lo is None or hi is None:
            raise GeometryError("unbounded region in volume recursion")
        return max(Fraction(0), hi - lo)
    total = Fraction(0)
    for i, (a, b) in enumerate(deduped):
        j = max(range(n), key=lambda k: abs(a[k]))
        if a[j] == 0:
            continue
        aj = Fraction(a[j])
        sub = []
        for k, (a2, b2) in enumerate(deduped):
            if k == i:
                continue
            t = Fraction(a2[j]) / aj
            new_a = tuple(Fraction(a2[l]) - t * a[l] for l in range(n) if l != j)
            new_b = Fraction(b2) - t * b
            sub.append((new_a, new_b))
        face = _poly_volume(sub, n - 1)
        if face:
            total += Fraction(b) / abs(aj) * face
    return total / n


def _complement_volume(P: NewtonPolyhedron, M: Fraction) -> Fraction:
    """Volume of {0 <= x <= M : x not in P}; the covolume once M is at
    least every axis intercept."""
    n = P.dim
    rows = [(tuple(-wi for wi in w), -c) for w, c in P.facets]  # <w,x> >= c
    for i in range(n):
        e = tuple(1 if j == i else 0 for j in range(n))
        rows.append((tuple(-c for c in e), 0))  # x_i >= 0
        rows.append((e, M))                     # x_i <= M
    return M ** n - _poly_volume(rows, n)


_COVOL_CACHE: dict[tuple[int, tuple[Exponent, ...]], Fraction] = {}


def covolume(P: NewtonPolyhedron) -> Fraction:
    """Exact n-volume of {x >= 0 : x not in P}; requires finite axis intercepts."""
    key = (P.dim, P.generators)
    cached = _COVOL_CACHE.get(key)
    if cached is not None:
        return cached
    if P.is_orthant:
        _COVOL_CACHE[key] = Fraction(0)
        return Fraction(0)
    intercepts = axis_intercepts(P)
    if any(t is None for t in intercepts):
        raise NotZeroDimensionalError("unbounded orthant complement")
    vol = _complement_volume(P, max(intercepts))
    _COVOL_CACHE[key] = vol
    return vol
