"""Inequality verdicts, randomized corpora and stable reports.

Assembles the exact invariants into the main inequality checks:
lct(m*J_f) against the polar-invariant sum, the Lelong-ratio chain, the
integral-closure domination of lct(f), and the hyperplane-restriction probe.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from . import __version__
from .exactgeom import (
    InvalidInputError,
    MonomialIdeal,
    minimalize,
    polyhedron_of,
)
from .germs import (
    IdealPresentation,
    Polynomial,
    check_isolated,
    lct_nondegenerate,
    poly,
    rational_text,
)
from .invariants import (
    lelong_numbers,
    lct_monomial,
    loja_monomial,
)
from .sections import (
    LojaEstimate,
    line_order,
    loja_numeric,
    polar_invariant,
    restrict,
    sample_plane,
)

EXIT_OK = 0
EXIT_EXACT_FAILURE = 2
EXIT_NUMERIC_FAILURE = 3
EXIT_INPUT_ERROR = 4  # ValueError: unparsable, invalid or unsupported input
EXIT_COMPUTE_ERROR = 5  # RuntimeError: numeric failure, sampling

DEFAULT_TOLERANCE = 0.05
DEFAULT_BUDGET = 5
MAX_BUDGET = 1000  # random_ideal's work grows linearly with the budget


@dataclass(frozen=True)
class Verdict:
    """lhs <= rhs, exact or within a relative tolerance.

    margin (rhs - lhs) and holds are settled at construction and kept as
    plain attributes, outside the dataclass fields."""

    name: str
    lhs: Fraction | float
    rhs: Fraction | float
    numeric: bool
    tolerance: float | None
    strict: bool | None = None
    sources: tuple[str, ...] = ()

    def __post_init__(self):
        if self.numeric:
            rhs = float(self.rhs)
            margin = rhs - float(self.lhs)
            tol = self.tolerance if self.tolerance is not None else DEFAULT_TOLERANCE
            holds = margin >= -tol * max(1.0, abs(rhs))
        else:
            margin = self.rhs - self.lhs
            holds = margin >= 0
        # a frozen dataclass admits attributes only through object.__setattr__
        object.__setattr__(self, "margin", margin)
        object.__setattr__(self, "holds", holds)


def _verdict(name, lhs, rhs, sources, tolerance=None, strict=None) -> Verdict:
    numeric = not (isinstance(lhs, Fraction) and isinstance(rhs, Fraction))
    return Verdict(name, lhs, rhs, numeric,
                   tolerance if numeric else None, strict, tuple(sources))


def _check_tolerance(tolerance: float) -> None:
    # a negative tolerance fails verdicts that hold, inf passes every one,
    # and nan would reach a JSON report as a bare NaN
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise InvalidInputError(f"tolerance must be finite and >= 0, got {tolerance}")


def verify_main(
    f: Polynomial,
    seed: int = 0,
    tolerance: float = DEFAULT_TOLERANCE,
    allow_nondegenerate: bool = False,
) -> tuple[Verdict, tuple[LojaEstimate, ...]]:
    """Sum of 1/(1+theta(f_j)) against lct(m*J_f)."""
    _check_tolerance(tolerance)
    germ = check_isolated(f)
    # m*J_f before the thetas: a germ that does not monomialize costs no estimate
    mono = germ.m_jacobian(allow_nondegenerate)
    thetas = polar_invariant(germ, seed=seed)
    lhs = Fraction(0)
    for est in thetas:
        v = est.value
        if isinstance(v, Fraction):
            lhs = lhs + Fraction(1) / (1 + v)
        else:
            lhs = float(lhs) + 1.0 / (1.0 + v)
    rhs = lct_monomial(mono.ideal)
    sources = ["polar_invariant:" + est.method for est in thetas]
    sources.append("lct_monomial:" + mono.mode)
    return _verdict("theorem-main", lhs, rhs, sources, tolerance), thetas


def _presentation(a: MonomialIdeal) -> IdealPresentation:
    return IdealPresentation(a.dim, tuple(poly(a.dim, {v: 1}) for v in a.generators))


def _chain_verdicts(a, lv, lct, order) -> list[Verdict]:
    """The chain's exact verdicts from a's Lelong vector, lct and line order:
    chain-lct, chain-term-j0 and, for n > 1, chain-term-j(n-1)."""
    n = a.dim
    ratios = lv.ratios
    verdicts = [
        _verdict("chain-lct", sum(ratios, Fraction(0)), lct,
                 ["dh_lower_bound", "lct_monomial"]),
        _verdict("chain-term-j0", Fraction(1) / loja_monomial(a), ratios[n - 1],
                 ["loja_monomial", "lelong_numbers"]),
    ]
    if n > 1:
        verdicts.append(_verdict(
            f"chain-term-j{n - 1}", Fraction(1, order), ratios[0],
            ["loja_line", "lelong_numbers"]))
    return verdicts


def _numeric_terms(a, lv, seed, tolerance) -> list[Verdict]:
    """The chain terms j = 1..n-2, numeric on seeded plane sections; in a
    chain's verdicts they follow chain-lct and chain-term-j0."""
    n = a.dim
    ratios = lv.ratios
    verdicts = []
    for j in range(1, n - 1):
        est = loja_numeric(restrict(_presentation(a), sample_plane(n, j, seed)))
        verdicts.append(_verdict(
            f"chain-term-j{j}", 1.0 / est.value, ratios[n - j - 1],  # e_(n-j-1)/e_(n-j)
            ["loja_numeric", "lelong_numbers"], tolerance))
    return verdicts


def verify_chain(
    a: MonomialIdeal,
    seed: int = 0,
    tolerance: float = DEFAULT_TOLERANCE,
    include_numeric: bool = False,
) -> list[Verdict]:
    """The Lelong-ratio chain and its termwise Lojasiewicz lower bounds."""
    _check_tolerance(tolerance)
    lv, lct = lelong_numbers(a), lct_monomial(a)
    order = line_order(a, seed) if a.dim > 1 else None
    verdicts = _chain_verdicts(a, lv, lct, order)
    if include_numeric:
        verdicts[2:2] = _numeric_terms(a, lv, seed, tolerance)
    return verdicts


def verify_lct_dominates(
    f: Polynomial,
    allow_nondegenerate: bool = False,
) -> Verdict:
    """lct(m*J_f) >= lct(f), with a strictness indicator."""
    germ = check_isolated(f)
    lct_f, flag = lct_nondegenerate(f)
    mono = germ.m_jacobian(allow_nondegenerate)
    rhs = lct_monomial(mono.ideal)
    return _verdict("lct-dominates", lct_f, rhs,
                    ["lct_nondegenerate:" + flag, "lct_monomial:" + mono.mode],
                    strict=rhs > lct_f)


def _pham_verdict(a, lv, lct, order) -> Verdict:
    """probe_pham's verdict from a's Lelong vector, lct and line order; a
    is zero-dimensional, since lelong_numbers(a) has run."""
    # the largest 1/order over the sampled line and the two coordinate lines,
    # which are not dominated when the sampled line is an axis
    lct_1 = Fraction(1, min(order, a.pure_power(0), a.pure_power(1)))
    lhs = lct_1 + lv[1] / lv[2]
    return _verdict("pham-probe", lhs, lct,
                    ["loja_line", "lelong_numbers", "lct_monomial"])


def probe_pham(
    a: MonomialIdeal,
    seed: int = 0,
) -> Verdict:
    """Evidence probe: lct(a) >= lct_1(a) + e_1/e_2 in dimension 2."""
    if a.dim != 2:
        raise InvalidInputError("probe is exact only in dimension 2")
    return _pham_verdict(a, lelong_numbers(a), lct_monomial(a),
                         line_order(a, seed))


def check_corpus_shape(n: int, budget: int, count: int = 0,
                       tolerance: float = DEFAULT_TOLERANCE) -> None:
    """InvalidInputError unless, in this order, count >= 0, the tolerance is
    finite and >= 0, n is 2..4 and budget is 2..MAX_BUDGET."""
    if count < 0:
        raise InvalidInputError(f"case count must be >= 0, got {count}")
    _check_tolerance(tolerance)
    if n not in (2, 3, 4):
        raise InvalidInputError("corpus dimensions are 2..4")
    if budget < 2:
        raise InvalidInputError("budget must be >= 2")
    if budget > MAX_BUDGET:
        raise InvalidInputError(f"budget must be <= {MAX_BUDGET}, got {budget}")


def random_ideal(n: int, seed: int, budget: int) -> MonomialIdeal:
    """Seeded zero-dimensional monomial ideal: pure powers plus mixed terms."""
    check_corpus_shape(n, budget)
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
    # the draws are nonnegative int tuples of length n, so make's checks
    # have nothing to find
    return MonomialIdeal(n, minimalize(gens))


@dataclass(frozen=True)
class CorpusConfig:
    dim: int
    count: int
    seed: int = 0
    budget: int = DEFAULT_BUDGET
    include_numeric: bool = False
    tolerance: float = DEFAULT_TOLERANCE


def frac_str(x) -> str:
    """A Fraction as "p/q", or "p" for an integer; a float to 12 digits."""
    if isinstance(x, Fraction):
        return rational_text(x, "value")
    return format(float(x), ".12g")


def _verdict_dict(v: Verdict) -> dict:
    d = {
        "name": v.name,
        "lhs": frac_str(v.lhs),
        "rhs": frac_str(v.rhs),
        "margin": frac_str(v.margin),
        "holds": v.holds,
        "numeric": v.numeric,
        "tolerance": v.tolerance,
    }
    if v.strict is not None:
        d["strict"] = v.strict
    return d


def _exit_code(failed_numeric: list[bool]) -> int:
    """Exit code from the numeric flags of the failed verdicts: an exact
    failure outranks a numeric one."""
    if not all(failed_numeric):
        return EXIT_EXACT_FAILURE
    return EXIT_NUMERIC_FAILURE if failed_numeric else EXIT_OK


@dataclass
class Report:
    input: str
    n: int
    ideal_generators: list[str]
    invariants: dict
    verdicts: list[Verdict]
    meta: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "input": self.input,
            "n": self.n,
            "ideal": {"generators": self.ideal_generators},
            "invariants": self.invariants,
            "verdicts": [_verdict_dict(v) for v in self.verdicts],
            "meta": {
                "seed": self.meta.get("seed", 0),
                "version": __version__,
                "timings_ms": self.meta.get("timings_ms"),
            },
        }

    @property
    def exit_code(self) -> int:
        return _exit_code([v.numeric for v in self.verdicts if not v.holds])


@dataclass
class CorpusReport:
    config: CorpusConfig
    cases: int
    summaries: dict  # verdict name -> {count, failures, min_margin, worst_index}
    failures: list  # reproduction data
    meta: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "corpus": {
                "dim": self.config.dim,
                "count": self.config.count,
                "seed": self.config.seed,
                "budget": self.config.budget,
            },
            "cases": self.cases,
            "summaries": self.summaries,
            "failures": self.failures,
            "meta": {
                "seed": self.config.seed,
                "version": __version__,
                "timings_ms": self.meta.get("timings_ms"),
            },
        }

    @property
    def exit_code(self) -> int:
        return _exit_code([f["numeric"] for f in self.failures])


def _case_verdicts(a: MonomialIdeal, order: int) -> tuple[Verdict, ...]:
    """A corpus case's exact verdicts: the chain's and, in dim 2, the Pham
    probe's.  The seed reaches them only through the line order, so they
    are kept on a's polyhedron per order, next to its Lelong vector, and go
    when the polyhedron leaves the cache; a Verdict is frozen, and no caller
    mutates the tuple."""
    return polyhedron_of(a).keep(("case_verdicts", order),
                                 lambda: _exact_verdicts(a, order))


def _exact_verdicts(a: MonomialIdeal, order: int) -> tuple[Verdict, ...]:
    lv, lct = lelong_numbers(a), lct_monomial(a)
    verdicts = _chain_verdicts(a, lv, lct, order)
    if a.dim == 2:
        verdicts.append(_pham_verdict(a, lv, lct, order))
    return tuple(verdicts)


def corpus_run(config: CorpusConfig) -> CorpusReport:
    """Run chain (and probe) verdicts over a seeded corpus; deterministic."""
    check_corpus_shape(config.dim, config.budget, config.count, config.tolerance)
    summaries: dict[str, dict] = {}
    min_margins = {}  # verdict name -> least margin so far, as computed
    failures = []
    for index in range(config.count):
        seed = config.seed + index
        a = random_ideal(config.dim, seed, config.budget)
        verdicts = _case_verdicts(a, line_order(a, seed))
        if config.include_numeric:
            middle = _numeric_terms(a, lelong_numbers(a), seed, config.tolerance)
            verdicts = verdicts[:2] + tuple(middle) + verdicts[2:]
        for v in verdicts:
            s = summaries.setdefault(v.name, {
                "count": 0, "failures": 0, "min_margin": None, "worst_index": None})
            s["count"] += 1
            # a verdict name is always exact or always numeric, so margins
            # compare as they are: two Fractions closer than a float ulp differ
            margin = v.margin
            least = min_margins.get(v.name)
            if least is None or margin < least:
                min_margins[v.name] = margin
                s["min_margin"] = frac_str(margin)
                s["worst_index"] = index
            if not v.holds:
                s["failures"] += 1
                failures.append({
                    "index": index,
                    "seed": seed,
                    "ideal": [list(g) for g in a.generators],
                    "verdict": _verdict_dict(v),
                    "numeric": v.numeric,
                })
    return CorpusReport(config, config.count, summaries, failures)


def _render_text(d: dict) -> str:
    lines = []

    def walk(obj, indent=0):
        pad = "  " * indent
        if isinstance(obj, dict):
            for k, v in obj.items():
                if isinstance(v, (dict, list)):
                    lines.append(f"{pad}{k}:")
                    walk(v, indent + 1)
                else:
                    lines.append(f"{pad}{k}: {v}")
        elif isinstance(obj, list):
            for v in obj:
                if isinstance(v, (dict, list)):
                    lines.append(f"{pad}-")
                    walk(v, indent + 1)
                else:
                    lines.append(f"{pad}- {v}")

    walk(d)
    return "\n".join(lines) + "\n"


def _json_float(x: float) -> str:
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


def _json_scalar(x) -> str:
    """x as json writes a leaf, in json's order of tests: bool before int."""
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        return _json_float(x)
    raise TypeError(f"Object of type {x.__class__.__name__} is not JSON serializable")


def _json_key(k) -> str:
    """A dict key that is not a str, as json converts it."""
    if k is None or isinstance(k, (int, float)):
        return _json_scalar(k)
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


# exact leaf types and their writers; subclasses go through _json_scalar
_JSON_LEAF = {str: encode_basestring_ascii, int: int.__repr__, float: _json_float,
              bool: _json_scalar, type(None): _json_scalar}


def _json_text(obj, pad: str = "\n") -> str:
    """obj as json.dumps(obj, indent=2) writes it, for trees of dicts, lists
    and tuples.  With indent, CPython's json leaves its C encoder for a
    pure-Python one; this writer makes the same text in fewer calls."""
    inner = pad + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = []
        for v in obj:
            leaf = _JSON_LEAF.get(v.__class__)
            parts.append(leaf(v) if leaf else _json_text(v, inner))
        return "[" + inner + ("," + inner).join(parts) + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = []
        for k, v in obj.items():
            if not isinstance(k, str):
                k = _json_key(k)
            leaf = _JSON_LEAF.get(v.__class__)
            parts.append(encode_basestring_ascii(k) + ": "
                         + (leaf(v) if leaf else _json_text(v, inner)))
        return "{" + inner + ("," + inner).join(parts) + pad + "}"
    return _json_scalar(obj)


def emit_report(report, fmt: str = "text") -> str:
    """Byte-stable serialization of a Report or CorpusReport; the JSON text
    is json.dumps(report.to_dict(), indent=2) and a newline."""
    d = report.to_dict()
    if fmt == "json":
        return _json_text(d) + "\n"
    if fmt == "text":
        return _render_text(d)
    raise InvalidInputError(f"unknown format {fmt!r}")
