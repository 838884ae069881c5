"""Exact rational convex geometry over the nonnegative orthant.

Newton polyhedra of monomial ideals in dimension n <= 4: vertex and facet
enumeration, membership, Minkowski sums, diagonal/axis intercepts and
orthant-complement volumes (covolumes, by triangulating the facets).
Everything is integer/Fraction arithmetic; floats never enter this module.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

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
    """Reduce a set of exponent vectors to its componentwise-minimal elements.

    In lexicographic order a vector can only be dominated by an earlier one,
    and then also by an earlier minimal one, so each vector is compared with
    the minimal vectors kept so far.
    """
    keep = []
    for v in sorted(set(tuple(int(c) for c in g) for g in gens)):
        if not any(all(a <= b for a, b in zip(u, v)) for u in keep):
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
    integers (inequalities implied by x >= 0 are not stored).  The
    vertices are the generators that are vertices of the polyhedron.
    """

    dim: int
    generators: tuple[Exponent, ...]
    facets: tuple[tuple[Exponent, int], ...]
    vertices: tuple[Exponent, ...]

    @property
    def is_orthant(self) -> bool:
        return not self.facets


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
        if col + 1 < ncols:  # nothing reads the last column once it has a pivot
            for i in range(rank + 1, len(mat)):
                if mat[i][col] != 0:
                    factor = mat[i][col] / prow[col]
                    mat[i] = [a - factor * b for a, b in zip(mat[i], prow)]
        rank += 1
        col += 1
    return rank


def _array_dtype(gens, n: int):
    """np.int64 when no product formed in facet enumeration can overflow it,
    else object (Python ints).

    With every coordinate in [0, D], a normal entry is an (n-1)-minor of
    differences and unit vectors, at most (n-1)! D^(n-1) in size, and a
    value <normal, point> is at most n! D^n.
    """
    top = max(max(g) for g in gens)
    return np.int64 if factorial(n) * top ** n < 2 ** 63 else object


def _normals(dirs):
    """Generalized cross product of each (n-1) x n block of direction rows:
    a normal of the hyperplane they span, zero when they are dependent."""
    k, _, n = dirs.shape
    if n == 1:
        return np.ones((k, 1), dtype=dirs.dtype)
    if n == 2:
        return np.stack([dirs[:, 0, 1], -dirs[:, 0, 0]], axis=1)
    if n == 3:
        a, b = dirs[:, 0], dirs[:, 1]
        return np.stack([a[:, 1] * b[:, 2] - a[:, 2] * b[:, 1],
                         a[:, 2] * b[:, 0] - a[:, 0] * b[:, 2],
                         a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]], axis=1)
    a, b, c = dirs[:, 0], dirs[:, 1], dirs[:, 2]
    minor = {(p, q): b[:, p] * c[:, q] - b[:, q] * c[:, p]
             for p, q in itertools.combinations(range(4), 2)}
    cols = []
    for i in range(4):
        p, q, r = (j for j in range(4) if j != i)
        det = a[:, p] * minor[q, r] - a[:, q] * minor[p, r] + a[:, r] * minor[p, q]
        cols.append(det if i % 2 == 0 else -det)
    return np.stack(cols, axis=1)


_BATCH = 1 << 15  # candidates per array pass: a few MB, however many points


def _candidate_rows(k: int, n: int):
    """Index rows (b, d_1, .., d_{n-1}) of the facet candidates of k points,
    in batches of about _BATCH rows.  Each increasing tuple of m points
    comes once with every set of n - m axes; an index k + j stands for the
    unit vector e_j."""
    batch, size = [], 0
    for z in range(n):
        m = n - z
        axes = list(itertools.combinations(range(n), z))
        axes = k + np.array(axes, dtype=np.intp).reshape(len(axes), z)
        flat = itertools.chain.from_iterable(itertools.combinations(range(k), m))
        chunk = max(1, _BATCH // len(axes)) * m
        while len(tuples := np.fromiter(itertools.islice(flat, chunk), dtype=np.intp)):
            tuples = tuples.reshape(-1, m)
            batch.append(np.concatenate([np.repeat(tuples, len(axes), axis=0),
                                         np.tile(axes, (len(tuples), 1))], axis=1))
            size += len(batch[-1])
            if size >= _BATCH:
                yield np.concatenate(batch)
                batch, size = [], 0
    if batch:
        yield np.concatenate(batch)


def _facets_of(pts, n: int) -> list[tuple[Exponent, int]]:
    """Facets {<w, x> >= c} with c > 0 of conv(pts) + orthant, sorted.

    A facet whose normal vanishes on the axes Z contains n - |Z| affinely
    independent points together with the directions e_i, i in Z.  So the
    candidates are the normals of the hyperplanes through every such tuple
    of points and set of unit directions (see _candidate_rows); a candidate
    is a facet when no point lies below it and its offset is positive.
    """
    k = len(pts)
    ext = np.concatenate([pts, np.eye(n, dtype=pts.dtype)])
    facets = set()
    for cand in _candidate_rows(k, n):
        base = pts[cand[:, 0]]
        W = _normals(ext[cand[:, 1:]] - (cand[:, 1:, None] < k) * base[:, None, :])
        nonpos = np.all(W <= 0, axis=1)
        keep = (np.all(W >= 0, axis=1) | nonpos) & np.any(W != 0, axis=1)
        W, base = W[keep], base[keep]
        W[nonpos[keep]] *= -1
        offsets = np.sum(W * base, axis=1)
        W, offsets = W[offsets > 0], offsets[offsets > 0]
        for p in pts:  # most candidates have a point below them early on
            above = W @ p >= offsets
            W, offsets = W[above], offsets[above]
        g = np.gcd.reduce(W, axis=1)
        W, offsets = W // g[:, None], offsets // g
        facets.update(zip(map(tuple, W.tolist()), offsets.tolist()))
    return sorted(facets)


def _vertices_and_facets(gens, n: int):
    """Vertices and facets of conv(gens) + orthant, for sorted minimal gens.

    Incremental hull: S starts with the generators minimizing each x_i and
    the coordinate sum, ties broken lexicographically; each is a vertex.
    While a generator lies strictly below a facet of conv(S) + orthant, the
    lexicographically first generator minimizing that facet's normal (again a
    vertex) joins S.  At the end conv(S) + orthant contains every generator,
    so it is the polyhedron and S is exactly its vertex set.
    """
    dtype = _array_dtype(gens, n)
    garr = np.array(gens, dtype=dtype)
    start = {min(gens, key=lambda g: (g[i],) + g) for i in range(n)}
    start.add(min(gens, key=lambda g: (sum(g),) + g))
    chosen = {gens.index(v) for v in start}
    while True:
        idx = sorted(chosen)
        facets = _facets_of(garr[idx], n)
        if not facets:
            break
        W = np.array([w for w, _ in facets], dtype=dtype)
        offsets = np.array([c for _, c in facets], dtype=dtype)
        dots = garr @ W.T
        below = np.nonzero(dots.min(axis=0) < offsets)[0]
        if not len(below):
            break
        chosen.update(int(np.argmin(dots[:, j])) for j in below)
    return tuple(gens[i] for i in idx), tuple(facets)


_POLY_CACHE: dict[tuple[int, tuple[Exponent, ...]], NewtonPolyhedron] = {}


def build_polyhedron(gens, n: int) -> NewtonPolyhedron:
    """Newton polyhedron conv(gens) + orthant, with exact vertices and facets."""
    _check_dim(n)
    gens = list(gens)
    for g in gens:
        if len(g) != n:
            raise InvalidInputError("generator dimension mismatch")
        if any(c < 0 for c in g):
            raise InvalidInputError("negative exponent")
    gens = minimalize(gens)
    if not gens:
        raise InvalidInputError("empty generator set")
    key = (n, gens)
    cached = _POLY_CACHE.get(key)
    if cached is not None:
        return cached
    vertices, facets = _vertices_and_facets(gens, n)
    poly = NewtonPolyhedron(n, gens, facets, vertices)
    _POLY_CACHE[key] = poly
    return poly


def polyhedron_of(a: MonomialIdeal) -> NewtonPolyhedron:
    # cache keys are sorted minimal generator tuples, like the generators of
    # MonomialIdeal.make; a hit skips build_polyhedron's checks and minimalize
    cached = _POLY_CACHE.get((a.dim, a.generators))
    if cached is not None:
        return cached
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
    """P + Q, the Newton polyhedron of the product ideal.

    P = conv(P.vertices) + orthant, so every vertex of P + Q is the sum of a
    vertex of P and a vertex of Q, and the vertex sums generate it.
    """
    if P.dim != Q.dim:
        raise InvalidInputError("dimension mismatch in Minkowski sum")
    sums = {tuple(x + y for x, y in zip(u, v))
            for u in P.vertices for v in Q.vertices}
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


def _det(rows) -> int:
    """Determinant of a small square integer matrix, by cofactor expansion."""
    if len(rows) == 1:
        return rows[0][0]
    return sum((-1) ** j * a * _det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, a in enumerate(rows[0]) if a)


def _cone_volume(P: NewtonPolyhedron) -> Fraction:
    """Volume of the union of conv(0, F) over the facets F of P.

    Each facet is cut into simplices by a pulling triangulation: pick its
    first vertex, then recurse into every sub-face that misses it.  The
    faces come from facet-vertex incidences, with the coordinate
    hyperplanes counted as facets; each simplex s adds |det(s)| / n!.
    """
    verts = P.vertices
    n = P.dim
    planes = [frozenset(k for k, v in enumerate(verts)
                        if sum(a * b for a, b in zip(w, v)) == c) for w, c in P.facets]
    cuts = planes + [frozenset(k for k, v in enumerate(verts) if v[i] == 0)
                     for i in range(n)]
    triangulations: dict[frozenset, list[tuple[int, ...]]] = {}

    def simplices(face: frozenset, d: int) -> list[tuple[int, ...]]:
        if d == 0:
            return [tuple(face)]
        if face not in triangulations:
            apex = min(face)
            subs = {face & h for h in cuts} - {face, frozenset()}
            triangulations[face] = [
                s + (apex,) for g in subs
                if apex not in g and not any(g < h for h in subs)
                for s in simplices(g, d - 1)]
        return triangulations[face]

    total = sum(abs(_det([verts[k] for k in s]))
                for f in planes for s in simplices(f, n - 1))
    return Fraction(total, factorial(n))


_COVOL_CACHE: dict[tuple[int, tuple[Exponent, ...]], Fraction] = {}


def covolume(P: NewtonPolyhedron) -> Fraction:
    """Exact n-volume of {x >= 0 : x not in P}; requires finite axis intercepts.

    Then every facet normal is positive, so every facet is compact, and each
    ray from 0 leaves the complement through one of them: the cones
    conv(0, F) tile the complement.
    """
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
    vol = _cone_volume(P)
    _COVOL_CACHE[key] = vol
    return vol
