"""Polynomial germs with rational coefficients.

Parsing, Jacobian ideals, the product ideal m*J_f, monomialization with an
exactness flag, the Newton-diagram lct of f, and the one check that accepts
a germ.  Coefficients are exact rationals; no floating point in this module.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .exactgeom import InvalidInputError, MAX_DIM, MonomialIdeal
from .invariants import lct_monomial

Exponent = tuple[int, ...]

_VAR_NAMES = ("x", "y", "z", "w")


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


class DegenerateGermError(ValueError):
    pass


class NotMonomializableError(ValueError):
    pass


@dataclass(frozen=True)
class Polynomial:
    dim: int
    terms: dict[Exponent, Fraction] = field(compare=True)

    def __post_init__(self):
        for v, c in self.terms.items():
            if len(v) != self.dim:
                raise InvalidInputError(f"term {v} has wrong arity")
            if c == 0:
                raise InvalidInputError("zero coefficient stored")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def support(self) -> tuple[Exponent, ...]:
        return tuple(sorted(self.terms))

    def order(self) -> int | None:
        """Minimal total degree of a term; None for the zero polynomial."""
        if self.is_zero:
            return None
        return min(sum(v) for v in self.terms)

    def __str__(self) -> str:
        return format_polynomial(self)


def poly(dim: int, terms) -> Polynomial:
    """Build a polynomial, dropping zero coefficients."""
    clean = {}
    for v, c in dict(terms).items():
        c = Fraction(c)
        if c != 0:
            clean[tuple(int(e) for e in v)] = c
    return Polynomial(dim, clean)


def derivative(p: Polynomial, axis: int) -> Polynomial:
    terms = {}
    for v, c in p.terms.items():
        if v[axis] > 0:
            u = tuple(e - 1 if i == axis else e for i, e in enumerate(v))
            terms[u] = terms.get(u, Fraction(0)) + c * v[axis]
    return poly(p.dim, terms)


def _grlex_key(v: Exponent):
    return (sum(v), tuple(-e for e in v))


def format_polynomial(p: Polynomial) -> str:
    """Canonical graded-lexicographic printing."""
    if p.is_zero:
        return "0"
    parts = []
    for v in sorted(p.terms, key=_grlex_key):
        c = p.terms[v]
        factors = []
        for i, e in enumerate(v):
            if e == 1:
                factors.append(_VAR_NAMES[i])
            elif e > 1:
                factors.append(f"{_VAR_NAMES[i]}^{e}")
        mag = abs(c)
        if mag != 1 or not factors:
            factors.insert(0, str(mag))
        term = "*".join(factors)
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(("+ " if c > 0 else "- ") + term)
    return " ".join(parts)


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<var>x[1-4]|[xyzw])|(?P<op>[\^*+/\-()]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == m.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", at)
        at = m.start() + (len(m.group(0)) - len(m.group(0).lstrip()))
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), at))
        elif m.group("var") is not None:
            tokens.append(("var", m.group("var"), at))
        else:
            tokens.append(("op", m.group("op"), at))
        pos = m.end()
    return tokens


def _var_index(name: str) -> int:
    if name in _VAR_NAMES:
        return _VAR_NAMES.index(name)
    return int(name[1]) - 1  # x1..x4


def parse_polynomial(text: str, dim: int | None = None) -> Polynomial:
    """Parse the grammar: +/- separated terms of optional rational coefficient
    times variable powers; '*' optional; variables x,y,z,w or x1..x4, not
    both in one input."""
    tokens = _tokenize(text)
    end = len(text)
    if not tokens:
        raise ParseError("empty input", 0)

    terms: list[tuple[Fraction, dict[int, int]]] = []
    i = 0
    n_tokens = len(tokens)

    def peek():
        return tokens[i] if i < n_tokens else (None, None, end)

    max_var = -1
    style = None
    sign = 1
    while i < n_tokens:
        kind, val, at = tokens[i]
        if kind == "op" and val in "+-":
            sign = -1 if val == "-" else 1
            i += 1
            if i >= n_tokens:
                raise ParseError("dangling operator", end)
        coeff = Fraction(sign)
        sign = 1
        powers: dict[int, int] = {}
        saw_factor = False
        while True:
            kind, val, at = peek()
            if kind == "op" and val == "*":
                i += 1
                kind, val, at = peek()
                if kind not in ("num", "var"):
                    raise ParseError("expected factor after '*'", at)
                continue
            if kind == "num":
                i += 1
                numer = int(val)
                k2, v2, a2 = peek()
                if k2 == "op" and v2 == "/":
                    i += 1
                    k3, v3, a3 = peek()
                    if k3 != "num":
                        raise ParseError("expected denominator", a3)
                    if int(v3) == 0:
                        raise ParseError("zero denominator", a3)
                    i += 1
                    coeff *= Fraction(numer, int(v3))
                else:
                    coeff *= numer
                saw_factor = True
            elif kind == "var":
                i += 1
                if style is None:
                    style = len(val)  # 1 for x,y,z,w; 2 for x1..x4
                elif len(val) != style:
                    raise ParseError("mixed variable names x,y,z,w and x1..x4", at)
                idx = _var_index(val)
                max_var = max(max_var, idx)
                exp = 1
                k2, v2, a2 = peek()
                if k2 == "op" and v2 == "^":
                    i += 1
                    k3, v3, a3 = peek()
                    if k3 == "op" and v3 == "-":
                        raise ParseError("negative exponent", a3)
                    if k3 != "num":
                        raise ParseError("expected exponent", a3)
                    i += 1
                    exp = int(v3)
                powers[idx] = powers.get(idx, 0) + exp
                saw_factor = True
            else:
                break
        if not saw_factor:
            raise ParseError("expected term", at)
        terms.append((coeff, powers))
        kind, val, at = peek()
        if kind is None:
            break
        if kind == "op" and val in "+-":
            sign = -1 if val == "-" else 1
            i += 1
            if i >= n_tokens:
                raise ParseError("dangling operator", end)
        else:
            raise ParseError(f"unexpected token {val!r}", at)

    if dim is None:
        dim = max(max_var + 1, 1)
    if dim > MAX_DIM:
        raise InvalidInputError(f"dimension {dim} exceeds {MAX_DIM}")
    if max_var + 1 > dim:
        raise InvalidInputError(f"variable index exceeds dimension {dim}")

    acc: dict[Exponent, Fraction] = {}
    for coeff, powers in terms:
        v = tuple(powers.get(k, 0) for k in range(dim))
        acc[v] = acc.get(v, Fraction(0)) + coeff
    return poly(dim, acc)


@dataclass(frozen=True)
class IdealPresentation:
    dim: int
    generators: tuple[Polynomial, ...]

    def __post_init__(self):
        if not self.generators:
            raise InvalidInputError("empty ideal presentation")
        for g in self.generators:
            if g.dim != self.dim:
                raise InvalidInputError("generator dimension mismatch")


_UNIT = "f is a unit (nonzero constant term)"
_NOT_ISOLATED = "germ has non-isolated singularity"

TERM_EXACT = "term-exact"
NONDEGENERATE = "nondegenerate-assumed"


@dataclass(frozen=True)
class Monomialization:
    ideal: MonomialIdeal
    mode: str

    @property
    def exact(self) -> bool:
        return self.mode == TERM_EXACT


def jacobian_ideal(f: Polynomial) -> IdealPresentation:
    partials = [derivative(f, i) for i in range(f.dim)]
    nonzero = [p for p in partials if not p.is_zero]
    if not nonzero:
        raise DegenerateGermError("all partial derivatives vanish")
    return IdealPresentation(f.dim, tuple(nonzero))


def product_with_maximal(I: IdealPresentation) -> IdealPresentation:
    """The generators z_i*g of m*I, for each i and then each g: z_i*g has
    g's coefficients on g's exponents shifted by e_i, in g's term order."""
    n = I.dim
    return IdealPresentation(n, tuple(
        Polynomial(n, {v[:i] + (v[i] + 1,) + v[i + 1:]: c for v, c in g.terms.items()})
        for i in range(n) for g in I.generators))


def monomialize(I: IdealPresentation, allow_nondegenerate: bool = False) -> Monomialization:
    """The monomial ideal of every term of I: term-exact when each generator
    is a single term, else flagged nondegenerate-assumed if allowed, else
    NotMonomializableError naming the first generator that is not."""
    mixed = [g for g in I.generators if not g.is_monomial]
    if mixed and not allow_nondegenerate:
        raise NotMonomializableError(
            f"generator {format_polynomial(mixed[0])} is not a single term")
    exps = [v for g in I.generators for v in g.terms]
    return Monomialization(MonomialIdeal.make(exps, I.dim),
                           NONDEGENERATE if mixed else TERM_EXACT)


def lct_nondegenerate(f: Polynomial) -> tuple[Fraction, str]:
    """min(1, lct) of the Newton ideal of supp(f); flagged unless monomial."""
    if f.is_zero:
        raise InvalidInputError("empty support")
    a = MonomialIdeal.make(f.support(), f.dim)
    if a.is_unit:
        raise DegenerateGermError(_UNIT)
    value = min(Fraction(1), lct_monomial(a))
    mode = TERM_EXACT if f.is_monomial else NONDEGENERATE
    return value, mode


@dataclass(frozen=True)
class IsolatedGerm:
    """A germ that check_isolated accepted: its Jacobian ideal J_f and the
    monomial ideal of J_f's terms, term-exact or flagged nondegenerate-assumed."""
    jacobian: IdealPresentation
    mono: Monomialization

    def m_jacobian(self, allow_nondegenerate: bool) -> Monomialization:
        """The monomialization of m*J_f, strict unless allow_nondegenerate."""
        return monomialize(product_with_maximal(self.jacobian), allow_nondegenerate)


def check_isolated(f: Polynomial) -> IsolatedGerm:
    """Accept f as a germ with at most an isolated singularity at 0, or raise.

    In order: f misses a variable (non-isolated); f has a constant term
    (a unit, before any Jacobian); the monomial ideal of J_f's terms is not
    zero-dimensional (non-isolated).  The last rule is exact: a term x_i^m
    of a partial comes from a term x_i^(m+1) or x_i^m*x_k of f, so when no
    partial has one, f - f(0) lies in (x_k : k != i)^2 and is singular
    along the x_i-axis."""
    if not all(any(v[i] for v in f.terms) for i in range(f.dim)):
        raise InvalidInputError(_NOT_ISOLATED)
    if (0,) * f.dim in f.terms:
        raise DegenerateGermError(_UNIT)
    jac = jacobian_ideal(f)
    mono = monomialize(jac, allow_nondegenerate=True)
    if not mono.ideal.zero_dimensional:
        raise InvalidInputError(_NOT_ISOLATED)
    return IsolatedGerm(jac, mono)
