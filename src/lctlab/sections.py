"""Restriction to seeded generic linear subspaces and Lojasiewicz estimation.

Exact paths: monomial ideals (axis intercepts) and one-variable restrictions
(vanishing orders).  Intermediate codimensions fall back to a numeric min-max
slope estimator on shrinking spheres; floats appear only there.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exactgeom import InvalidInputError, _rank, polyhedron_of
from .germs import (
    IdealPresentation,
    Monomialization,
    NotMonomializableError,
    Polynomial,
    check_isolated,
    derivative,
    jacobian_ideal,
    monomialize,
    poly,
    poly_add,
    poly_mul,
    NOT_ISOLATED,
)
from .invariants import loja_monomial


class SamplingError(RuntimeError):
    pass


class DegenerateRestrictionError(ValueError):
    pass


class NumericFailureError(RuntimeError):
    pass


@dataclass(frozen=True)
class PlaneRestriction:
    """A generic codimension-j plane through 0, parameterized by its columns."""

    ambient: int
    codim: int
    matrix: tuple[tuple[Fraction, ...], ...]  # ambient x (ambient-codim)
    seed: int


@dataclass(frozen=True)
class LojaEstimate:
    value: float
    method: str  # "exact-line" | "exact-monomial" | "numeric"
    spread: float
    radii: tuple[float, ...]
    starts: int
    rational: Fraction | None = None

    @property
    def restricted_loja(self) -> float:
        """L(phi|_plane) for phi = log|m*J_f|: the polar invariant plus 1."""
        return self.value + 1.0


@dataclass(frozen=True)
class LojaParams:
    r0: float = 0.1
    ratio: float = 10 ** -0.5
    n_radii: int = 6
    starts: int = 64
    seeds: tuple[int, ...] = (0, 1)
    iters: int = 250


def _mix_seed(n: int, j: int, seed: int, attempt: int) -> int:
    return ((seed & 0xFFFFFFFFFFFFFFFF) * 1000003 + n * 101 + j * 13 + attempt) & 0xFFFFFFFFFFFFFFFF


def sample_plane(n: int, j: int, seed: int, max_attempts: int = 1000) -> PlaneRestriction:
    """Deterministic pseudo-random rational plane, redrawn until full rank."""
    if not 1 <= j <= n - 1:
        raise InvalidInputError(f"codimension {j} invalid for dimension {n}")
    cols = n - j
    for attempt in range(max_attempts):
        rng = random.Random(_mix_seed(n, j, seed, attempt))
        matrix = tuple(
            tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(cols))
            for _ in range(n))
        if _rank(matrix) == cols:
            return PlaneRestriction(n, j, matrix, seed)
    raise SamplingError("could not draw a full-rank plane")


def restrict(I: IdealPresentation, plane: PlaneRestriction) -> IdealPresentation:
    """Substitute z = M t into every generator; exact arithmetic."""
    if I.dim != plane.ambient:
        raise InvalidInputError("dimension mismatch in restriction")
    m = plane.ambient - plane.codim
    linear_forms = []
    for i in range(plane.ambient):
        terms = {}
        for k in range(m):
            c = plane.matrix[i][k]
            if c != 0:
                terms[tuple(1 if l == k else 0 for l in range(m))] = c
        linear_forms.append(poly(m, terms))

    max_exp = [0] * plane.ambient
    for g in I.generators:
        for v in g.terms:
            for i, e in enumerate(v):
                max_exp[i] = max(max_exp[i], e)
    pow_cache = []
    for i, lf in enumerate(linear_forms):
        cache = [poly(m, {(0,) * m: 1})]
        for _ in range(max_exp[i]):
            cache.append(poly_mul(cache[-1], lf))
        pow_cache.append(cache)

    out = []
    for g in I.generators:
        acc = poly(m, {})
        for v, c in g.terms.items():
            term = poly(m, {(0,) * m: c})
            for i, e in enumerate(v):
                if e:
                    term = poly_mul(term, pow_cache[i][e])
            acc = poly_add(acc, term)
        out.append(acc)
    return IdealPresentation(m, tuple(out))


def loja_line(I: IdealPresentation) -> int:
    """Min vanishing order at 0 among univariate generators."""
    if I.dim != 1:
        raise InvalidInputError("loja_line requires univariate generators")
    orders = [g.order() for g in I.generators if not g.is_zero]
    if not orders:
        raise DegenerateRestrictionError("all generators restrict to zero")
    return min(orders)


def _eval_batch(exps: np.ndarray, coeffs: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Values of one polynomial at a batch of complex points Z (s x m)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        monos = np.prod(Z[:, None, :] ** exps[None, :, :], axis=2)
    return monos @ coeffs


def _minmax_on_sphere(gen_data, m: int, r: float, seed: int, starts: int, iters: int) -> float:
    """min over |z| = r (complex) of max_j |g_j(z)| by multi-start descent."""
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((starts, m)) + 1j * rng.standard_normal((starts, m))
    extra = []
    for i in range(m):
        e = np.zeros(m, dtype=complex)
        e[i] = 1.0
        extra.append(e)
    extra.append(np.ones(m, dtype=complex))
    Z = np.vstack([Z, np.array(extra)])
    norms = np.linalg.norm(Z, axis=1, keepdims=True)
    Z = r * Z / norms

    def F_and_active(Z):
        vals = np.stack([np.abs(_eval_batch(E, C, Z)) for E, C, _ in gen_data], axis=1)
        return vals.max(axis=1), vals.argmax(axis=1)

    best = np.inf
    lr = 0.3
    F, _ = F_and_active(Z)
    best = min(best, float(F.min()))
    for it in range(iters):
        vals = [np.abs(_eval_batch(E, C, Z)) for E, C, _ in gen_data]
        stackv = np.stack(vals, axis=1)
        active = stackv.argmax(axis=1)
        F = stackv.max(axis=1)
        best = min(best, float(F.min()))
        grad = np.zeros_like(Z)
        for j, (E, C, partials) in enumerate(gen_data):
            mask = active == j
            if not mask.any():
                continue
            Zm = Z[mask]
            g = _eval_batch(E, C, Zm)
            gmod = np.abs(g)
            gmod[gmod == 0] = 1.0
            phase = np.conj(g) / gmod
            dg = np.stack([_eval_batch(Ep, Cp, Zm) for Ep, Cp in partials], axis=1)
            # descent direction in C^m for |g|: conj(phase * dg)
            grad[mask] = np.conj(phase[:, None] * dg)
        gn = np.linalg.norm(grad, axis=1, keepdims=True)
        gn[gn == 0] = 1.0
        step = lr * r * grad / gn
        Z = Z - step
        zn = np.linalg.norm(Z, axis=1, keepdims=True)
        zn[zn == 0] = 1.0
        Z = r * Z / zn
        lr *= 0.97
    F, _ = F_and_active(Z)
    best = min(best, float(F.min()))
    return best


def _prepare_gen_data(I: IdealPresentation):
    data = []
    for g in I.generators:
        if g.is_zero:
            continue
        exps = np.array(list(g.terms.keys()), dtype=float)
        coeffs = np.array([float(c) for c in g.terms.values()], dtype=complex)
        partials = []
        for i in range(I.dim):
            d = derivative(g, i)
            if d.is_zero:
                partials.append((np.zeros((1, I.dim)), np.zeros(1, dtype=complex)))
            else:
                partials.append((
                    np.array(list(d.terms.keys()), dtype=float),
                    np.array([float(c) for c in d.terms.values()], dtype=complex),
                ))
        data.append((exps, coeffs, partials))
    if not data:
        raise DegenerateRestrictionError("all generators are zero")
    return data


def loja_numeric(I: IdealPresentation, params: LojaParams | None = None) -> LojaEstimate:
    """Slope of log(min-max of |generators|) against log(radius)."""
    if I.dim < 2:
        raise InvalidInputError("loja_numeric requires >= 2 variables")
    params = params or LojaParams()
    gen_data = _prepare_gen_data(I)
    radii = [params.r0 * params.ratio ** i for i in range(params.n_radii)]

    def run(radii):
        per_seed = {}
        for seed in params.seeds:
            vals = [
                _minmax_on_sphere(gen_data, I.dim, r, seed, params.starts, params.iters)
                for r in radii
            ]
            if any(v <= 0 or v < 1e-250 for v in vals):
                return None
            per_seed[seed] = vals
        return per_seed

    per_seed = run(radii)
    if per_seed is None:
        radii = [r * 10 for r in radii]  # shrink the range upward and retry once
        per_seed = run(radii)
        if per_seed is None:
            raise NumericFailureError("min-max collapsed below float range")

    logs_r = np.log(radii)
    slopes = []
    for seed in params.seeds:
        ys = np.log(per_seed[seed])
        slopes.append(float(np.polyfit(logs_r, ys, 1)[0]))
        for drop in range(len(radii)):
            xs = np.delete(logs_r, drop)
            yd = np.delete(ys, drop)
            slopes.append(float(np.polyfit(xs, yd, 1)[0]))
    value = slopes[0]
    spread = max(slopes) - min(slopes)
    return LojaEstimate(value, "numeric", spread, tuple(radii), params.starts)


def _exact_estimate(value: Fraction, method: str) -> LojaEstimate:
    return LojaEstimate(float(value), method, 0.0, (), 0, rational=value)


def _is_power_of_maximal(mono: Monomialization) -> int | None:
    """k if the Newton polyhedron is exactly that of m^k, else None."""
    P = polyhedron_of(mono.ideal)
    n = mono.ideal.dim
    if len(P.facets) == 1:
        w, c = P.facets[0]
        if w == (1,) * n:
            return c
    return None


def polar_invariant(
    f: Polynomial,
    j: int,
    seed: int = 0,
    params: LojaParams | None = None,
    max_reseeds: int = 5,
) -> LojaEstimate:
    """theta(f_j): Lojasiewicz exponent of J_f restricted to a generic
    codimension-j plane (j = 0 means no restriction)."""
    n = f.dim
    if not 0 <= j <= n - 1:
        raise InvalidInputError(f"restriction codimension {j} out of range")
    if check_isolated(f) == NOT_ISOLATED:
        raise InvalidInputError("germ has non-isolated singularity")
    J = jacobian_ideal(f)

    mono = None
    try:
        mono = monomialize(J)
    except NotMonomializableError:
        mono = None

    if mono is not None:
        k = _is_power_of_maximal(mono)
        if k is not None and 0 < j < n - 1:
            # integral closure of J_f is m^k, so log|J_f| = k log|z| + O(1)
            # and every plane restriction has exponent exactly k
            return _exact_estimate(Fraction(k), "exact-monomial")

    if j == 0:
        if mono is not None and mono.ideal.zero_dimensional:
            return _exact_estimate(loja_monomial(mono.ideal), "exact-monomial")
        return loja_numeric(J, params)

    if j == n - 1:
        last_err = None
        for attempt in range(max_reseeds):
            plane = sample_plane(n, j, seed + attempt)
            try:
                return _exact_estimate(
                    Fraction(loja_line(restrict(J, plane))), "exact-line")
            except DegenerateRestrictionError as err:
                last_err = err
        raise DegenerateRestrictionError(
            f"line restriction degenerate for {max_reseeds} seeds") from last_err

    last_err = None
    for attempt in range(max_reseeds):
        plane = sample_plane(n, j, seed + attempt)
        try:
            return loja_numeric(restrict(J, plane), params)
        except DegenerateRestrictionError as err:
            last_err = err
    raise DegenerateRestrictionError(
        f"plane restriction degenerate for {max_reseeds} seeds") from last_err
