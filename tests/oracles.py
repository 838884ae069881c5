"""Independent cross-checks of the exact production paths.

Each oracle computes a value that production computes one way by a second
route; test_oracles.py compares the two over the test corpora.  grid_points
gives the probe points of the membership oracle.  multiplicity_oracle gives
the Samuel multiplicity as a finite difference of the colengths of powers,
counted by colength on a lattice grid.  The facet enumeration over
all generators and the H-representation volume recursion are the production
code that the vertex-based core replaced; mixed_multiplicity_products is
the polarization over product ideals that the vertex Minkowski sums
replaced; lelong_covolume_polynomial is the solve for the Lelong numbers
from covolumes of P + tD that the facet formulas replaced; minmax_loop is the per-sphere descent loop that the batched
numeric estimator replaced; restrict_products is the substitution by one
polynomial product per degree that direct substitution replaced;
line_order_restrict is the line order by substitution that the zero
pattern of the line replaced; diagonal_intercept_fractions is the
intercept with one Fraction per facet that the integer maximum replaced;
axis_intercepts_fractions and loja_dual are the axis intercepts and L_0 over
the facets, which production reads off the pure powers; and
zero_dimensional_pure_powers is the check by one pure_power search per axis
that the one-pass check replaced.  random_ideal_randint and draws_randint
draw the corpus ideals and the plane entries by random.Random(s).randint,
the definition that sections.draw's getrandbits draws replaced.
loja_section_weights is L^(j) by its definition, a max over arc weight
vectors, against the max over (j+1)-sets of loja_monomial, and
section_line_order restricts to the line that certifies the max.
singular_axis is the isolation rule of check_isolated by restriction: the
partials of f restricted to each coordinate axis.  contains and facet_eval
decide membership by the facet inequalities, against the LP of lp_member;
ideal_power and scale_ideal build test ideals, and poly_add, poly_scale
and poly_mul test polynomials; poly_mul is also the product that the
polynomial shift of product_with_maximal_poly replaced.
product_with_maximal_poly is the presentation of m*I by the polynomials
z_i*g that germs built before m*J_f became the exponent shift of J_f's
term ideal.
"""
import itertools
import operator
import random
from fractions import Fraction
from math import comb, factorial, gcd

import numpy as np

from lctlab.exactgeom import (
    GeometryError,
    InvalidInputError,
    MonomialIdeal,
    NewtonPolyhedron,
    NotZeroDimensionalError,
    covolume,
    det,
    diagonal_intercept,
    ideal_product,
    maximal_ideal,
    minimalize,
    minkowski_sum,
    polyhedron_of,
)
from lctlab.germs import Exponent, IdealPresentation, Polynomial, derivative, poly
from lctlab.invariants import _require_zero_dim
from lctlab.sections import (
    PlaneRestriction,
    _mix_seed,
    loja_line,
    restrict,
    sample_plane,
)
from lctlab.simplex import solve_lp


def ideal_power(a: MonomialIdeal, k: int) -> MonomialIdeal:
    if k < 1:
        raise InvalidInputError("power must be >= 1")
    out = a
    for _ in range(k - 1):
        out = ideal_product(out, a)
    return out


def scale_ideal(a: MonomialIdeal, k: int) -> MonomialIdeal:
    return MonomialIdeal.make([tuple(k * c for c in g) for g in a.generators], a.dim)


def poly_add(p: Polynomial, q: Polynomial) -> Polynomial:
    terms = dict(p.terms)
    for v, c in q.terms.items():
        terms[v] = terms.get(v, Fraction(0)) + c
    return poly(p.dim, terms)


def poly_scale(p: Polynomial, c) -> Polynomial:
    c = Fraction(c)
    return poly(p.dim, {v: c * a for v, a in p.terms.items()})


def poly_mul(p: Polynomial, q: Polynomial) -> Polynomial:
    terms: dict[Exponent, Fraction] = {}
    for u, a in p.terms.items():
        for v, b in q.terms.items():
            key = tuple(x + y for x, y in zip(u, v))
            terms[key] = terms.get(key, Fraction(0)) + a * b
    return poly(p.dim, terms)


def product_with_maximal_poly(I: IdealPresentation) -> IdealPresentation:
    """The generators z_i*g of m*I, for each i and then each g: z_i*g has
    g's coefficients on g's exponents shifted by e_i, in g's term order."""
    n = I.dim
    return IdealPresentation(n, tuple(
        Polynomial(n, {v[:i] + (v[i] + 1,) + v[i + 1:]: c for v, c in g.terms.items()})
        for i in range(n) for g in I.generators))


def facet_eval(P: NewtonPolyhedron, q) -> bool:
    """q satisfies every facet inequality of P."""
    return all(sum(Fraction(wi) * qi for wi, qi in zip(w, q)) >= c
               for w, c in P.facets)


def contains(P: NewtonPolyhedron, q) -> bool:
    """Exact membership, decided by the facet inequalities."""
    q = tuple(Fraction(c) for c in q)
    if len(q) != P.dim:
        raise InvalidInputError("point dimension mismatch")
    if any(c < 0 for c in q):
        raise InvalidInputError("negative coordinate")
    return facet_eval(P, q)


def lp_hull_member(gens, n: int, q) -> bool:
    """q in conv(gens)+orthant, by exact LP feasibility over the generators."""
    g = len(gens)
    nvars = g + n  # convex weights, then slack per coordinate
    constraints = [([Fraction(1)] * g + [Fraction(0)] * n, "==", Fraction(1))]
    for k in range(n):
        coeffs = [Fraction(gens[i][k]) for i in range(g)]
        coeffs += [Fraction(1) if j == k else Fraction(0) for j in range(n)]
        constraints.append((coeffs, "==", Fraction(q[k])))
    res = solve_lp([Fraction(0)] * nvars, constraints, nvars)
    return res.status == "optimal"


def lp_member(a: MonomialIdeal, q) -> bool:
    """q in the Newton polyhedron of a, by exact LP feasibility over a's
    generators, interior ones included."""
    return lp_hull_member(a.generators, a.dim, q)


def grid_points(a: MonomialIdeal) -> list:
    """Probe points for membership in the Newton polyhedron P of a: a's
    generators, their midpoints, the axis and diagonal intercept points of P,
    each also shifted by +-1/7 along the diagonal."""
    P = polyhedron_of(a)
    gens = [tuple(Fraction(c) for c in g) for g in a.generators]
    pts = list(gens)
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            pts.append(tuple((a + b) / 2 for a, b in zip(gens[i], gens[j])))
    for i, t in enumerate(axis_intercepts_fractions(P)):
        if t is not None:
            pts.append(tuple(t if k == i else Fraction(0) for k in range(P.dim)))
    t0 = diagonal_intercept(P)
    pts.append(tuple(t0 for _ in range(P.dim)))
    eps = Fraction(1, 7)
    shifted = []
    for p in pts:
        shifted.append(tuple(c + eps for c in p))
        minus = tuple(c - eps for c in p)
        if all(c >= 0 for c in minus):
            shifted.append(minus)
    return pts + shifted


def lp_diagonal_intercept(P: NewtonPolyhedron) -> Fraction:
    """min t subject to t*sum(w) >= c for every facet (w, c), by the simplex."""
    constraints = [([Fraction(sum(w))], ">=", Fraction(c)) for w, c in P.facets]
    res = solve_lp([Fraction(1)], constraints, 1, maximize=False)
    assert res.status == "optimal", res.status
    return res.value


def _primitive(vec):
    g = 0
    for c in vec:
        g = gcd(g, abs(int(c)))
    if g == 0:
        return None
    return tuple(int(c) // g for c in vec)


def _sign_fix(vec):
    """Orient an integer vector to be componentwise >= 0, else drop it."""
    has_pos = any(c > 0 for c in vec)
    has_neg = any(c < 0 for c in vec)
    if has_pos and has_neg:
        return None
    if has_neg:
        vec = tuple(-c for c in vec)
    return _primitive(vec)


def _directions(gens, n: int) -> list:
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


def _candidate_normals(dirs: list, n: int) -> set:
    cands = set()
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


def facets_all_generators(gens, n: int) -> tuple:
    """Facets of conv(gens)+orthant from every minimal generator: candidate
    normals span n-1 of all pairwise difference directions and unit vectors;
    a candidate is a facet when the generators on it and its zero axes span
    a hyperplane, that is, when their rows have a nonzero (n-1)-minor.  It
    works in np.int64 and is meant for small exponents."""
    gens = minimalize(gens)
    garr = np.array(gens, dtype=np.int64)
    facets = set()
    for w in sorted(_candidate_normals(_directions(gens, n), n)):
        dots = garr @ np.array(w, dtype=np.int64)
        c = int(dots.min())
        if c <= 0:
            continue  # implied by x >= 0
        tight = [gens[i] for i in np.nonzero(dots == c)[0]]
        base = tight[0]
        rows = [tuple(a - b for a, b in zip(g, base)) for g in tight[1:]]
        rows += [tuple(1 if j == i else 0 for j in range(n))
                 for i in range(n) if w[i] == 0]
        if n == 1 or any(det([[r[k] for k in cols] for r in sub])
                         for sub in itertools.combinations(rows, n - 1)
                         for cols in itertools.combinations(range(n), n - 1)):
            facets.add((w, c))
    return tuple(sorted(facets))


def _dedup_rows(rows):
    """Normalize rows (a, b) of a*x <= b and keep the tightest per direction."""
    best = {}
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
    """Volume of {0 <= x <= M : x not in P}, from the facets of P."""
    n = P.dim
    rows = [(tuple(-wi for wi in w), -c) for w, c in P.facets]  # <w,x> >= c
    for i in range(n):
        e = tuple(1 if j == i else 0 for j in range(n))
        rows.append((tuple(-c for c in e), 0))  # x_i >= 0
        rows.append((e, M))                     # x_i <= M
    return M ** n - _poly_volume(rows, n)


def covolume_box(P: NewtonPolyhedron, extra: int = 0) -> Fraction:
    """Complement volume in the box of side M0 + extra, M0 the max axis
    intercept, by the H-representation recursion.

    Both sides equal the covolume only if the facets bound the complement
    inside the box of side M0, so a broken facet list shows as a difference.
    """
    return _complement_volume(P, max(axis_intercepts_fractions(P)) + extra)


def loja_dual(P: NewtonPolyhedron) -> Fraction:
    """Dual weight program: sup over weights w >= 0 with min_i w_i = 1 of
    min_g <g, w>; the optimum lies on a normal-fan ray, a facet normal
    rescaled."""
    return max(Fraction(c, min(w)) for w, c in P.facets)


class OracleBudgetExceededError(RuntimeError):
    pass


def _staircase_box(a: MonomialIdeal) -> tuple[int, ...]:
    box = []
    for i in range(a.dim):
        p = a.pure_power(i)
        if p is None:
            raise NotZeroDimensionalError("colength requires pure powers on all axes")
        box.append(p)
    return tuple(box)


def colength(a: MonomialIdeal) -> int:
    """Number of standard monomials (lattice points outside every v+orthant)."""
    box = _staircase_box(a)
    if any(b == 0 for b in box):
        return 0
    grid = np.zeros(box, dtype=bool)
    for g in a.generators:
        if all(gi < bi for gi, bi in zip(g, box)):
            grid[tuple(slice(gi, None) for gi in g)] = True
    return int((~grid).sum())


def multiplicity_oracle(a: MonomialIdeal, budget: int = 64) -> int:
    """n-th finite difference of colength(a^k), stabilized by doubling k0."""
    _require_zero_dim(a, "multiplicity oracle")
    n = a.dim
    powers: dict[int, MonomialIdeal] = {1: a}

    def power(k: int) -> MonomialIdeal:
        if k not in powers:
            powers[k] = ideal_product(power(k - 1), a)
        return powers[k]

    k0 = n + 1
    while k0 <= budget:
        vals = [colength(power(k)) for k in range(k0, k0 + n + 2)]
        diffs = vals
        for _ in range(n):
            diffs = [b - a_ for a_, b in zip(diffs, diffs[1:])]
        if diffs[0] == diffs[1]:
            return diffs[0]
        k0 *= 2
    raise OracleBudgetExceededError(f"no stable finite difference up to k0={budget}")


def mixed_multiplicity_products(ideals) -> Fraction:
    """Polarization of covolumes over the product ideal of every nonempty
    subset of the n arguments, each product built generator by generator."""
    ideals = tuple(ideals)
    n = len(ideals)
    total = Fraction(0)
    for size in range(1, n + 1):
        for subset in itertools.combinations(ideals, size):
            acc = subset[0]
            for b in subset[1:]:
                acc = ideal_product(acc, b)
            total += (-1) ** (n - size) * covolume(polyhedron_of(acc))
    return total


def lelong_covolume_polynomial(a: MonomialIdeal) -> tuple[Fraction, ...]:
    """e_1..e_n of a zero-dimensional non-unit a from the covolume polynomial

        n! covol(P + tD) = sum_k C(n, k) e_k t^(n-k),   e_0 = 1,

    P the Newton polyhedron of a and D that of m: e_n = n! covol(P), and the
    middle coefficients are solved exactly from t = 1..n-1, each P + tD built
    from P + (t-1)D."""
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
    return tuple(rows[n - k - 1][-1] / comb(n, k) for k in range(1, n)) + (en,)


def restrict_products(I: IdealPresentation, plane) -> IdealPresentation:
    """Substitute z = M t into every generator, with every power of each
    linear form M_i . t up to the largest exponent built by one polynomial
    product per degree."""
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


def diagonal_intercept_fractions(P: NewtonPolyhedron) -> Fraction:
    """max_F c_F/|w_F| over Fractions; 0 for the full orthant."""
    if not P.facets:
        return Fraction(0)
    return max(Fraction(c, sum(w)) for w, c in P.facets)


def axis_intercepts_fractions(P: NewtonPolyhedron) -> tuple:
    """Per axis max_F c_F/w_F[i] over Fractions; None where some w_F[i] = 0."""
    out = []
    for i in range(P.dim):
        if any(w[i] == 0 for w, _ in P.facets):
            out.append(None)
        elif not P.facets:
            out.append(Fraction(0))
        else:
            out.append(max(Fraction(c, w[i]) for w, c in P.facets))
    return tuple(out)


def zero_dimensional_pure_powers(a: MonomialIdeal) -> bool:
    """Every axis has a generator supported on it alone."""
    return all(a.pure_power(i) is not None for i in range(a.dim))


def singular_axis(f: Polynomial) -> int | None:
    """The first coordinate axis on which every partial of f restricts to 0,
    by exact substitution of the axis z = t*e_i into each partial."""
    n = f.dim
    partials = IdealPresentation(n, tuple(derivative(f, k) for k in range(n)))
    for i in range(n):
        axis = PlaneRestriction(n, n - 1, tuple((Fraction(k == i),) for k in range(n)))
        if all(g.is_zero for g in restrict(partials, axis).generators):
            return i
    return None


def line_order_restrict(a: MonomialIdeal, seed: int) -> int:
    """Order of a on the line sample_plane(n, n-1, seed): each generator
    restricted to the line by exact substitution, then the least vanishing
    order."""
    gens = IdealPresentation(a.dim, tuple(poly(a.dim, {v: 1}) for v in a.generators))
    return loja_line(restrict(gens, sample_plane(a.dim, a.dim - 1, seed)))


def loja_section_weights(a: MonomialIdeal, j: int) -> Fraction:
    """L^(j)(a) by its definition over arcs in a generic codimension-j plane:
    the max of min_g <w, g> / min(w) over integer weight vectors w whose
    least entry is taken at least j + 1 times, with entries 1, 2, 3 and
    B = 1 + the largest generator degree, which passes every degree and so
    stands for an unbounded weight."""
    n = a.dim
    big = 1 + max(sum(g) for g in a.generators)
    best = None
    for w in itertools.product((1, 2, 3, big), repeat=n):
        least = min(w)
        if w.count(least) > j:
            value = Fraction(min(sum(map(operator.mul, w, g)) for g in a.generators), least)
            best = value if best is None else max(best, value)
    return best


def section_line_order(a: MonomialIdeal, j: int, S, seed: int) -> int | None:
    """Order of a, by restrict, on the line where sample_plane(n, j, seed),
    1 <= j <= n - 2, meets x_k = 0 for every k not in S, a (j + 1)-set; None
    when that line also has a zero entry on S.  The line's direction is
    M v, with v the kernel vector of the rows of M off S, made of their
    signed maximal minors."""
    M = sample_plane(a.dim, j, seed).matrix
    rows = [M[k] for k in range(a.dim) if k not in S]
    v = [(-1) ** i * det([r[:i] + r[i + 1:] for r in rows]) for i in range(len(M[0]))]
    c = [sum(map(operator.mul, row, v)) for row in M]
    if not all(c[k] for k in S):
        return None
    gens = IdealPresentation(a.dim, tuple(poly(a.dim, {g: 1}) for g in a.generators))
    return loja_line(restrict(gens, PlaneRestriction(a.dim, a.dim - 1,
                                                     tuple((x,) for x in c))))


def random_ideal_randint(n: int, seed: int, budget: int) -> MonomialIdeal:
    """verify.random_ideal with one random.Random and its randint."""
    rng = random.Random((seed * 0x9E3779B1 + n * 7 + budget) & 0xFFFFFFFFFFFFFFFF)
    axis_powers = [rng.randint(2, budget) for _ in range(n)]
    gens = [tuple(axis_powers[i] if j == i else 0 for j in range(n))
            for i in range(n)]
    for _ in range(rng.randint(0, budget)):
        for _attempt in range(20):
            v = tuple(rng.randint(0, axis_powers[i] - 1) for i in range(n))
            if sum(v) > 0:
                gens.append(v)
                break
    return MonomialIdeal(n, minimalize(gens))


def draws_randint(n: int, j: int, seed: int, attempt: int) -> tuple:
    """The draw of sections._draws(n, j, seed) at the given attempt, by one
    random.Random and its randint."""
    rng = random.Random(_mix_seed(n, j, seed, attempt))
    return tuple(tuple((rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n - j))
                 for _ in range(n))


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
    assert data, "all generators are zero"
    return data


def minmax_loop(I: IdealPresentation, radii, seed: int, starts: int, iters: int) -> list:
    """min over |z| = r of max_j |g_j(z)| for each r in radii, one sphere at a
    time, every generator and partial derivative evaluated on its own."""
    gen_data = _prepare_gen_data(I)
    return [_minmax_on_sphere(gen_data, I.dim, r, seed, starts, iters) for r in radii]
