"""Restriction to seeded generic linear subspaces and Lojasiewicz estimation.

Exact paths: monomial ideals (exponents on generic sections) and
one-variable restrictions (vanishing orders).  Other ideals fall back to a
numeric min-max slope estimator on shrinking spheres; floats appear only
there.  The estimator's functions import numpy themselves, so a process
loads it on its first numeric estimate and not when it imports lctlab.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations, product
from math import comb, isfinite
from operator import add, mul
from typing import ClassVar

from .exactgeom import InvalidInputError, MonomialIdeal, NotZeroDimensionalError, det
from .germs import IdealPresentation, IsolatedGerm, Polynomial
from .invariants import loja_monomial


class SamplingError(RuntimeError):
    pass


class DegenerateRestrictionError(ValueError):
    pass


class NumericFailureError(RuntimeError):
    pass


class BudgetError(RuntimeError):
    """An exact computation that would pass its work bound."""


# restrict's bounds (README, grammar section).  The digits of a restricted
# coefficient follow the degree of its term, and a product of two long ones
# takes a gcd quadratic in them: x^100000*y^100000 on a line takes 0.1 s,
# x^300000*y^300000 1.1 s.  The work counts coefficient products, each
# weighted by the degree it reaches: 10^7 take 0.5-1.2 s on a plane of
# dimension 2 or 3 (2-core VM, Python 3.11).
MAX_RESTRICT_DEGREE = 200_000
MAX_RESTRICT_WORK = 10_000_000
# loja_numeric's bound on the distinct terms of its ideal.  Its time grows
# with them, 2.5-3.1 ms a term on a 3-plane from 91 to 1071 terms, then
# 4.4 ms at 1824: 512 terms take about 1.4 s, near restrict's 1 s (2-core
# VM, Python 3.11).  A restriction within restrict's bounds can reach
# 31,378 terms, whose 62,504 monomials and partial monomials alone take
# 0.8 GB a step.  Only a germ whose J_f is not term-exact reaches it.
MAX_ESTIMATOR_TERMS = 512


@dataclass(frozen=True)
class PlaneRestriction:
    """A generic codimension-j plane through 0, parameterized by its columns."""

    ambient: int
    codim: int
    matrix: tuple[tuple[Fraction, ...], ...]  # ambient x (ambient-codim)


@dataclass(frozen=True)
class LojaEstimate:
    value: Fraction | float  # a Fraction for the exact methods, a float for "numeric"
    method: str  # "exact-line" | "exact-monomial" | "numeric"
    spread: float = 0.0
    radii: tuple[float, ...] = ()
    # numeric estimates only: min-max value per (seed, radius), slope per
    # (seed, dropped radius) and RMS residual of the first seed's fit
    minmax: tuple[tuple[float, ...], ...] = ()
    loo_slopes: tuple[tuple[float, ...], ...] = ()
    residual: float = 0.0


@dataclass(frozen=True)
class LojaParams:
    starts: int = 64
    iters: int = 250
    r0: ClassVar[float] = 0.1
    ratio: ClassVar[float] = 10 ** -0.5
    n_radii: ClassVar[int] = 6
    seeds: ClassVar[tuple[int, ...]] = (0, 1)

    def __post_init__(self):
        if self.starts < 0 or self.iters < 0:
            raise InvalidInputError(
                f"starts and iters must be >= 0, got {self.starts} and {self.iters}")


def _mix_seed(n: int, j: int, seed: int, attempt: int) -> int:
    return ((seed & 0xFFFFFFFFFFFFFFFF) * 1000003 + n * 101 + j * 13 + attempt) & 0xFFFFFFFFFFFFFFFF


# the one generator behind every seeded draw in the package: seed_draws
# reseeds it and draw reads it
_RNG = random.Random()
_bits = _RNG.getrandbits


def seed_draws(seed: int) -> None:
    """Reseed the package's one random.Random with seed: the run of
    draw(a, b) calls that follows gives what the same run of
    random.Random(seed).randint(a, b) calls gives.

    The generator is process state.  A caller seeds it and makes all its
    draws before it hands control to another caller that draws, and no two
    threads draw at once."""
    _RNG.seed(seed)


def draw(a: int, b: int) -> int:
    """The next randint(a, b) of the generator that seed_draws seeded: a + r,
    with r = getrandbits(k) for k the bit length of the width b - a + 1,
    redrawn while r >= width.  That is CPython's _randbelow_with_getrandbits
    behind randint, without its argument checks and method calls."""
    width = b - a + 1
    k = width.bit_length()
    r = _bits(k)
    while r >= width:
        if width < 1:  # an empty range would redraw forever
            raise ValueError(f"empty range for a draw: {a}..{b}")
        r = _bits(k)
    return a + r


def _draws(n: int, j: int, seed: int):
    """The integer draws behind sample_plane(n, j, seed), one per attempt:
    n rows of n - j (numerator, denominator) pairs, numerators in -9..9 and
    denominators in 1..9.  Each attempt reseeds and makes all its draws
    before it is yielded.  SamplingError once 1000 attempts are used up."""
    if not 1 <= j <= n - 1:
        raise InvalidInputError(f"codimension {j} invalid for dimension {n}")
    for attempt in range(1000):
        seed_draws(_mix_seed(n, j, seed, attempt))
        yield tuple(tuple((draw(-9, 9), draw(1, 9)) for _ in range(n - j))
                    for _ in range(n))
    raise SamplingError("could not draw a full-rank plane")


def sample_plane(n: int, j: int, seed: int) -> PlaneRestriction:
    """Deterministic pseudo-random rational plane, redrawn until full rank,
    that is, until some (n - j)-minor of its matrix is nonzero."""
    for rows in _draws(n, j, seed):
        matrix = tuple(tuple(Fraction(p, q) for p, q in row) for row in rows)
        if any(det(m) for m in combinations(matrix, n - j)):
            return PlaneRestriction(n, j, matrix)


def _line_zeros(n: int, seed: int) -> list[int]:
    """Indices of the zero entries of sample_plane(n, n - 1, seed).matrix,
    from the numerators alone: an n x 1 draw has rank 1 iff some numerator
    is nonzero, so this redraws exactly where sample_plane does."""
    for rows in _draws(n, n - 1, seed):
        zeros = [i for i, ((p, _),) in enumerate(rows) if not p]
        if len(zeros) < n:
            return zeros


def line_order(a: MonomialIdeal, seed: int) -> int:
    """Order of a zero-dimensional a on the line sample_plane(n, n-1, seed).

    On the line z = c t a generator z^g restricts to c^g t^|g|, so the order
    is the least |g| over the generators with no exponent on a zero entry
    of c; only the zero pattern of c is drawn.  Some entry of c is nonzero,
    and a zero-dimensional a has a pure power on its axis, so only an a
    that is not zero-dimensional can vanish on the line."""
    zeros = _line_zeros(a.dim, seed)
    orders = [sum(g) for g in a.generators if not any(g[i] for i in zeros)]
    if not orders:
        raise NotZeroDimensionalError("the ideal vanishes on the sampled line")
    return min(orders)


def _linear_power(row: tuple[Fraction, ...], e: int) -> list:
    """(sum_k row[k] t_k)^e, e > 0, by the multinomial theorem: (exponent,
    coefficient) pairs over the nonzero entries of row, with coefficients
    e!/alpha! prod row[k]^alpha_k, in the order that repeated multiplication
    by the linear form gives (descending lexicographic).  On a line this is
    [((e,), row[0]^e)]."""
    support = [k for k, c in enumerate(row) if c]
    if not support:
        return []
    out = []
    for head in product(range(e, -1, -1), repeat=len(support) - 1):
        alpha = head + (e - sum(head),)
        if alpha[-1] < 0:
            continue
        exp = [0] * len(row)
        multinomial, rest = 1, e
        for k, a in zip(support, alpha):
            exp[k] = a
            multinomial *= comb(rest, a)
            rest -= a
        # a power of a reduced Fraction needs no gcd; normalizing the
        # product as one integer ratio would take a gcd of e-digit numbers
        coef = reduce(mul, [row[k] ** a for k, a in zip(support, alpha) if a])
        out.append((tuple(exp), coef if multinomial == 1 else multinomial * coef))
    return out


def restrict(I: IdealPresentation, plane: PlaneRestriction) -> IdealPresentation:
    """Substitute z = M t into every generator; exact arithmetic.

    Each power (M_i . t)^e that a generator takes is expanded once, directly;
    every term c z^v is multiplied out coordinate by coordinate and summed
    into its generator's dict, so a term on a line maps to c M^v t^|v|.
    Terms come out in the order of repeated polynomial products: first
    occurrence, with a coefficient that cancels to zero dropped and
    re-appended if it returns.

    Before each power is taken, the degree reached and the products it
    costs, len(term) times the C(e + s - 1, e) terms of the power of a row
    with s nonzero entries, weighted by that degree, are checked against
    MAX_RESTRICT_DEGREE and MAX_RESTRICT_WORK: BudgetError past either."""
    if I.dim != plane.ambient:
        raise InvalidInputError("dimension mismatch in restriction")
    m = plane.ambient - plane.codim
    support = [sum(1 for c in row if c) for row in plane.matrix]
    powers: dict = {}
    out = []
    work = 0
    for g in I.generators:
        acc: dict = {}
        for v, c in g.terms.items():
            term = {(0,) * m: c}
            degree = 0
            for i, e in enumerate(v):
                if not e:
                    continue
                degree += e
                work += len(term) * comb(e + support[i] - 1, e) * degree
                if degree > MAX_RESTRICT_DEGREE or work > MAX_RESTRICT_WORK:
                    raise BudgetError(
                        f"restriction to a {m}-dimensional plane passes its work "
                        f"bound at a term of degree {degree}")
                power = powers.get((i, e))
                if power is None:
                    power = powers[i, e] = _linear_power(plane.matrix[i], e)
                prod: dict = {}
                for u, a in term.items():
                    for w, b in power:
                        key = tuple(map(add, u, w))
                        prod[key] = prod[key] + a * b if key in prod else a * b
                term = {u: a for u, a in prod.items() if a}
            for u, a in term.items():
                s = acc[u] + a if u in acc else a
                if s:
                    acc[u] = s
                else:
                    del acc[u]
        out.append(Polynomial(m, acc))
    return IdealPresentation(m, tuple(out))


def loja_line(I: IdealPresentation) -> int:
    """Min vanishing order at 0 among univariate generators."""
    if I.dim != 1:
        raise InvalidInputError("loja_line requires univariate generators")
    orders = [g.order() for g in I.generators if not g.is_zero]
    if not orders:
        raise DegenerateRestrictionError("all generators restrict to zero")
    return min(orders)


def _term_tables(I: IdealPresentation) -> tuple[np.ndarray, np.ndarray]:
    """Exponent table U (monomials x m, integers) of the distinct monomials
    that the terms of the nonzero generators and their partials take, the
    terms first, and real coefficient matrix K ((m + 1) gens x monomials),
    so that K times the monomials gives the generators and then their
    partials in each z_i: a term c z^v of generator j puts c in row j and,
    for each v_i > 0, v_i c in row (1 + i) gens + j at z^v lowered in z_i.
    BudgetError past MAX_ESTIMATOR_TERMS distinct terms."""
    import numpy as np

    gens = [g for g in I.generators if not g.is_zero]
    if not gens:
        raise DegenerateRestrictionError("all generators are zero")
    index: dict = {}
    for g in gens:
        for v in g.terms:
            index.setdefault(v, len(index))
    if len(index) > MAX_ESTIMATOR_TERMS:
        raise BudgetError(
            f"numeric estimate over {len(index)} terms passes its bound of "
            f"{MAX_ESTIMATOR_TERMS}")
    if max(max(v) for v in index) > np.iinfo(np.intp).max:
        raise NumericFailureError("exponent beyond the estimator's integer range")
    entries = []  # (row, column, value) of K
    for j, g in enumerate(gens):
        for v, c in g.terms.items():
            try:
                x = float(c)
            except OverflowError:
                x = 0.0
            if not x or not isfinite(x):  # c is nonzero
                raise NumericFailureError("coefficient beyond the estimator's float range")
            entries.append((j, index[v], x))
            for i, e in enumerate(v):
                if e:
                    lowered = (*v[:i], e - 1, *v[i + 1:])
                    entries.append(((1 + i) * len(gens) + j,
                                    index.setdefault(lowered, len(index)), e * x))
    U = np.array(list(index), dtype=np.intp).reshape(len(index), I.dim)
    K = np.zeros(((I.dim + 1) * len(gens), len(index)))
    rows, cols, values = zip(*entries)
    K[rows, cols] = values
    return U, K


def _divide(w: np.ndarray, d: np.ndarray) -> np.ndarray:
    """w / d for complex w and real d > 0, by two real divisions: numpy
    divides a complex by a real through the reciprocal of d, which overflows
    when d is denormal."""
    import numpy as np

    out = np.empty_like(w)
    np.divide(w.real, d, out=out.real)
    np.divide(w.imag, d, out=out.imag)
    return out


def _norms(w: np.ndarray) -> np.ndarray:
    """Euclidean norms of the columns of complex w: the sum that
    np.linalg.norm(w, axis=0) computes, without its dispatch."""
    import numpy as np

    return np.sqrt(np.add.reduce((w.conj() * w).real, axis=0))


def _minmax(U: np.ndarray, K: np.ndarray, radii, params: LojaParams) -> np.ndarray:
    """min over |z| = r (complex) of max_j |g_j(z)| for every (seed, radius),
    as a seeds x radii array, by one multi-start descent over all of them.

    Every (seed, radius) pair has its own rows: the starts drawn by
    default_rng(seed), the unit vectors and the all-ones vector, scaled to r.
    Points are the columns of Z (m x rows).  Each step gathers the monomials
    U of _term_tables from a table of integer powers of Z, and one real
    product with K gives every generator's value and partials at once; the
    coefficients are real, so it multiplies the interleaved (re, im) columns.
    """
    import numpy as np

    m = U.shape[1]
    blocks = []
    for seed in params.seeds:
        rng = np.random.default_rng(seed)
        Z = rng.standard_normal((params.starts, m)) + 1j * rng.standard_normal((params.starts, m))
        blocks.append(np.vstack([Z, np.eye(m), np.ones((1, m))]))
    V = np.stack(blocks)[:, None]  # seeds x 1 x S x m
    R = np.asarray(radii, dtype=float)[None, :, None, None]
    Z = R * V / np.linalg.norm(V, axis=3, keepdims=True)
    shape = Z.shape[:3]
    Z = Z.reshape(-1, m).T.copy()
    R = np.broadcast_to(R[..., 0], shape).reshape(-1)
    rows = Z.shape[1]
    gens = K.shape[0] // (m + 1)

    # power table: row k * m + i of P is Z[i] ** powers[k], for the powers
    # the monomials take.  Consecutive powers differ by one unless the
    # exponents are sparse.
    powers = np.array(sorted({0, *U.ravel().tolist()}))
    gaps = np.diff(powers).tolist()
    idx = np.searchsorted(powers, U.T) * m + np.arange(m)[:, None]  # m x monomials
    P = np.empty((len(powers), m, rows), dtype=complex)
    P[0] = 1.0
    Pf = P.reshape(-1, rows)
    # flat index in the product of the last row of block k at point r
    offsets = (np.arange(m + 1)[:, None] * gens + gens - 1) * rows + np.arange(rows)
    # a point's active generator is its first largest one, the one argmax
    # takes, found by one max over the ranks (gens - 1 - j) * rows: how far
    # row j lies back from the last row.  A NaN value equals no maximum and
    # gets rank 0, the last generator; its NaN min-max ends the estimate.
    rank = (gens - 1 - np.arange(gens))[:, None] * rows

    best = np.full(rows, np.inf)
    lr = 0.3
    for it in range(params.iters + 1):
        for k, gap in enumerate(gaps, 1):
            np.multiply(P[k - 1], Z if gap == 1 else Z ** gap, out=P[k])
        mono = Pf[idx[0]]
        for i in range(1, m):
            mono *= Pf[idx[i]]
        if it == params.iters:  # the last step needs only the values
            G = (K[:gens] @ mono.view(float)).view(complex)
            np.minimum(best, np.abs(G).max(axis=0), out=best)
            break
        GD = (K @ mono.view(float)).view(complex)  # (m + 1) gens x rows
        absG = np.abs(GD[:gens])
        gmod = absG.max(axis=0)
        np.minimum(best, gmod, out=best)
        sel = GD.take(offsets - ((absG == gmod) * rank).max(axis=0))  # active value, partials
        # descent direction in C^m for |g|: (g / |g|) * conj(dg)
        gmod[gmod == 0] = 1.0
        grad = _divide(sel[0], gmod) * np.conj(sel[1:])
        gn = _norms(grad)
        gn[gn == 0] = 1.0
        Z -= _divide(lr * R * grad, gn)
        # the step has length lr * R or 0, so |Z| >= (1 - lr) R > 0: no norm
        # is 0.  Z * (R / |Z|) rounds differently, and the descent can turn a
        # last-bit change into a 4% change of an estimate (dim 3, budget 17).
        Z = _divide(R * Z, _norms(Z))
        lr *= 0.97
    return best.reshape(shape).min(axis=2)


def loja_numeric(I: IdealPresentation, params: LojaParams | None = None) -> LojaEstimate:
    """Slope of log(min-max of |generators|) against log(radius).

    If a min-max value falls below 1e-250, every radius is retried once at
    ten times its size; NumericFailureError if one still does or is not
    finite.  BudgetError, before any descent, when the generators have more
    than MAX_ESTIMATOR_TERMS distinct terms.
    """
    import numpy as np

    if I.dim < 2:
        raise InvalidInputError("loja_numeric requires >= 2 variables")
    params = params or LojaParams()
    U, K = _term_tables(I)
    radii = [params.r0 * params.ratio ** i for i in range(params.n_radii)]
    minmax = _minmax(U, K, radii, params)
    if not (minmax >= 1e-250).all():
        radii = [r * 10 for r in radii]  # shrink the range upward and retry once
        minmax = _minmax(U, K, radii, params)
    if not np.isfinite(minmax).all():
        raise NumericFailureError("min-max is not finite")
    if not (minmax >= 1e-250).all():
        raise NumericFailureError("min-max collapsed below float range")

    # least-squares slopes as sums w . y with weights centred on each fit's
    # points: row 0 fits every radius, row 1 + k every radius but radius k
    logs_r = np.log(radii)
    n = len(radii)
    keep = np.vstack([np.ones(n, dtype=bool), ~np.eye(n, dtype=bool)])
    xc = np.where(keep, logs_r - (keep @ logs_r / keep.sum(axis=1))[:, None], 0.0)
    logs_v = np.log(minmax)
    slopes = logs_v @ (xc / np.square(xc).sum(axis=1, keepdims=True)).T  # seeds x (1 + n)
    ys = logs_v[0] - logs_v[0].mean()
    residual = float(np.sqrt(np.mean(np.square(ys - slopes[0, 0] * xc[0]))))
    return LojaEstimate(
        float(slopes[0, 0]), "numeric", float(slopes.max() - slopes.min()), tuple(radii),
        minmax=tuple(tuple(float(v) for v in row) for row in minmax),
        loo_slopes=tuple(tuple(float(s) for s in row[1:]) for row in slopes),
        residual=residual)


def polar_invariant(germ: IsolatedGerm, seed: int = 0) -> tuple[LojaEstimate, ...]:
    """(theta(f_0), ..., theta(f_(n-1))) of a germ that check_isolated
    accepted: theta(f_j) is the Lojasiewicz exponent of J_f restricted to a
    generic codimension-j plane (j = 0 means no restriction).

    When J_f is term-exact, theta_j is loja_monomial(j) of its monomial
    ideal for every j, labelled exact-line at j = n - 1 >= 1, where it is
    min_degree, the order on a generic line; no line is drawn.  In one
    variable J_f = (f') and theta_0 is the least exponent of f'.  Otherwise
    theta_0 is estimated on J_f, and theta_j for j >= 1 on J_f restricted
    to sample_plane(n, j, seed): by loja_line on the line, by loja_numeric
    on a larger plane.  Every restriction is made before the first
    estimate, so one past restrict's bounds costs no estimate."""
    J, mono = germ.jacobian, germ.mono
    n = J.dim
    if mono.exact or n == 1:
        return tuple(LojaEstimate(loja_monomial(mono.ideal, j),
                                  "exact-line" if j == n - 1 >= 1 else "exact-monomial")
                     for j in range(n))
    # one draw each: J_f vanishes on a plane L through 0 only if f is
    # singular along L, which an isolated germ is not
    restricted = [restrict(J, sample_plane(n, j, seed)) for j in range(1, n)]
    thetas = [loja_numeric(J)]
    for j, R in enumerate(restricted, 1):
        thetas.append(LojaEstimate(Fraction(loja_line(R)), "exact-line")
                      if j == n - 1 else loja_numeric(R))
    return tuple(thetas)
