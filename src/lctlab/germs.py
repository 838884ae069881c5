"""Polynomial germs with rational coefficients.

Parsing, Jacobian ideals, the product ideal m*J_f, monomialization with an
exactness flag, the Newton-diagram lct of f, and the one check that accepts
a germ.  Coefficients are exact rationals; no floating point in this module.
"""
from __future__ import annotations

import re
import sys
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


def rational_text(c: Fraction, what: str) -> str:
    """str(c), or InvalidInputError naming what past Python's int-string
    limit: a product or sum of numbers that each parsed can pass it."""
    try:
        return str(c)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise InvalidInputError(f"{what} longer than {limit} digits") from None


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
            factors.insert(0, rational_text(mag, "coefficient"))
        term = "*".join(factors)
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(("+ " if c > 0 else "- ") + term)
    return " ".join(parts)


_TOKEN_RE = re.compile(r"\d+|x[1-4]|\S")


def parse_polynomial(text: str, dim: int | None = None) -> Polynomial:
    """Parse [sign] term {sign term}.  A sign is '+' or '-'; a term is one
    or more factors, with an optional '*' between two of them; a factor is
    a number, a fraction p/q, or a variable with an optional ^exponent.
    Variables are x,y,z,w or x1..x4, not both in one input, and a number
    may not follow a variable with nothing between them."""
    tokens = [(m.group(), m.start()) for m in _TOKEN_RE.finditer(text)]
    if not tokens:
        raise ParseError("empty input", 0)
    toks = iter(tokens + [("", len(text))])  # "" marks the end

    def digits(tok: str, at: int) -> int:
        """The digit run tok at offset at, within Python's int-string limit."""
        try:
            return int(tok)
        except ValueError:
            limit = sys.get_int_max_str_digits()
            raise ParseError(f"number longer than {limit} digits", at) from None

    def number(what: str) -> tuple[int, int]:
        """The number that must follow '/' or '^', and its offset."""
        tok, at = next(toks)
        if not tok.isdecimal():
            raise ParseError(f"expected {what}", at)
        return digits(tok, at), at

    acc: dict[Exponent, Fraction] = {}  # summed over the first MAX_DIM variables
    names = None  # x,y,z,w or x1..x4, fixed by the first variable
    max_var = var_end = -1
    tok, at = next(toks)
    while True:
        coeff = Fraction(-1 if tok == "-" else 1)
        if tok in ("+", "-"):
            tok, at = next(toks)
        powers = [0] * MAX_DIM
        while True:
            if tok.isdecimal():
                if at == var_end:
                    raise ParseError("number straight after a variable", at)
                coeff *= digits(tok, at)
                tok, at = next(toks)
                if tok == "/":
                    q, at = number("denominator")
                    if not q:
                        raise ParseError("zero denominator", at)
                    coeff /= q
                    tok, at = next(toks)
            elif tok[:1] in _VAR_NAMES:
                names = names or (_VAR_NAMES if len(tok) == 1 else ("x1", "x2", "x3", "x4"))
                if tok not in names:
                    raise ParseError("mixed variable names x,y,z,w and x1..x4", at)
                idx = names.index(tok)
                max_var = max(max_var, idx)
                var_end = at + len(tok)
                tok, at = next(toks)
                exp = 1
                if tok == "^":
                    exp, _ = number("exponent")
                    tok, at = next(toks)
                powers[idx] += exp
            else:
                raise ParseError("expected a number or a variable", at)
            if tok == "*":
                tok, at = next(toks)
            elif not (tok.isdecimal() or tok[:1] in _VAR_NAMES):
                break
        v = tuple(powers)
        acc[v] = acc.get(v, 0) + coeff
        if not tok:
            break
        if tok not in ("+", "-"):
            raise ParseError("expected + or - between terms", at)

    if dim is None:
        dim = max(max_var + 1, 1)
    if dim > MAX_DIM:
        raise InvalidInputError(f"dimension {dim} exceeds {MAX_DIM}")
    if max_var + 1 > dim:
        raise InvalidInputError(f"variable index exceeds dimension {dim}")
    return poly(dim, {v[:dim]: c for v, c in acc.items()})


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
