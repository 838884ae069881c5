"""Command-line interface.

Subcommands: compute, verify-main, verify-chain, verify-lct, probe-pham,
corpus.  Ideal inputs are ';'-separated generators in the polynomial grammar;
reports are stable text or JSON with rationals as "p/q" strings.
"""
from __future__ import annotations

import argparse
import functools
import sys
import time
from .exactgeom import InvalidInputError, MonomialIdeal
from .germs import (
    NotMonomializableError,
    check_isolated,
    format_polynomial,
    lct_nondegenerate,
    parse_polynomial,
    poly,
)
from .invariants import (
    UnitIdealError,
    lct_monomial,
    lelong_numbers,
    loja_monomial,
)
from .sections import polar_invariant
from .verify import (
    CorpusConfig,
    DEFAULT_BUDGET,
    DEFAULT_TOLERANCE,
    EXIT_COMPUTE_ERROR,
    EXIT_INPUT_ERROR,
    EXIT_OK,
    Report,
    corpus_run,
    emit_report,
    frac_str,
    probe_pham,
    verify_chain,
    verify_lct_dominates,
    verify_main,
)


def _parse_ideal(text: str, dim: int | None) -> MonomialIdeal:
    parts = [p.strip() for p in text.split(";") if p.strip()]
    if not parts:
        raise InvalidInputError("empty ideal")
    polys = [parse_polynomial(p, dim) for p in parts]
    n = max(p.dim for p in polys)  # every p.dim is dim when dim is given
    exps = []
    for p in polys:
        if len(p.terms) != 1:
            raise NotMonomializableError(
                f"ideal generator {format_polynomial(p)} is not a monomial")
        exps.append(next(iter(p.terms)))
    exps = [v + (0,) * (n - len(v)) for v in exps]
    return MonomialIdeal.make(exps, n)


def _fmt(args) -> str:
    return "json" if args.json else "text"


def _ideal_invariants(a: MonomialIdeal) -> dict:
    try:
        lct = frac_str(lct_monomial(a))
    except UnitIdealError:
        lct = "unit-ideal"
    inv = {"lct": lct, "L": None, "e": [], "theta": [], "exact": True}
    if a.zero_dimensional and not a.is_unit:
        inv["L"] = frac_str(loja_monomial(a))
        lv = lelong_numbers(a)
        inv["e"] = [frac_str(e) for e in lv.e]
        inv["dh_lower_bound"] = frac_str(lv.ratio_sum)
    return inv


def _generator_strings(a: MonomialIdeal) -> list[str]:
    return [format_polynomial(poly(a.dim, {g: 1})) for g in a.generators]


def _theta_fields(thetas) -> dict:
    return {"theta": [frac_str(t.value) for t in thetas],
            "theta_methods": [t.method for t in thetas]}


def _germ_invariants(f, seed: int, allow_nondeg: bool) -> dict:
    lct_f, flag = lct_nondegenerate(f)
    inv = {"lct_f": frac_str(lct_f), "lct_f_mode": flag}
    germ = check_isolated(f)
    try:
        mono = germ.m_jacobian(allow_nondeg)
    except NotMonomializableError:
        mono = None
    thetas = polar_invariant(germ, seed=seed)
    inv.update(_theta_fields(thetas))
    if mono is not None:
        # m*J_f of an accepted germ is zero-dimensional
        a = mono.ideal
        inv["lct"] = frac_str(lct_monomial(a))
        inv["L"] = frac_str(loja_monomial(a))
        inv["e"] = [frac_str(e) for e in lelong_numbers(a).e]
    inv["exact"] = (mono is not None and mono.exact
                    and all(t.method != "numeric" for t in thetas))
    return inv


def _single_report(args, input_text, n, gens, invariants, verdicts) -> int:
    report = Report(
        input=input_text,
        n=n,
        ideal_generators=gens,
        invariants=invariants,
        verdicts=verdicts,
        meta={"seed": args.seed},
    )
    sys.stdout.write(emit_report(report, _fmt(args)))
    return report.exit_code


def _cmd_compute(args) -> int:
    if ";" in args.input or args.ideal:
        a = _parse_ideal(args.input, args.dim)
        return _single_report(args, args.input, a.dim, _generator_strings(a),
                              _ideal_invariants(a), [])
    f = parse_polynomial(args.input, args.dim)
    inv = _germ_invariants(f, args.seed, args.nondegenerate)
    return _single_report(args, args.input, f.dim, [format_polynomial(f)], inv, [])


def _cmd_verify_main(args) -> int:
    f = parse_polynomial(args.input, args.dim)
    verdict, thetas = verify_main(
        f, seed=args.seed, tolerance=args.tolerance,
        allow_nondegenerate=args.nondegenerate)
    inv = {**_theta_fields(thetas), "exact": not verdict.numeric}
    return _single_report(args, args.input, f.dim,
                          [format_polynomial(f)], inv, [verdict])


def _cmd_verify_chain(args) -> int:
    a = _parse_ideal(args.input, args.dim)
    verdicts = verify_chain(a, seed=args.seed, include_numeric=args.numeric)
    return _single_report(args, args.input, a.dim, _generator_strings(a),
                          _ideal_invariants(a), verdicts)


def _cmd_verify_lct(args) -> int:
    f = parse_polynomial(args.input, args.dim)
    verdict = verify_lct_dominates(f, allow_nondegenerate=args.nondegenerate)
    # the verdict's lhs is lct(f), and its first source names lct(f)'s mode
    flag = verdict.sources[0].removeprefix("lct_nondegenerate:")
    inv = {"lct_f": frac_str(verdict.lhs), "lct_f_mode": flag,
           "exact": not verdict.numeric}
    return _single_report(args, args.input, f.dim,
                          [format_polynomial(f)], inv, [verdict])


def _cmd_probe_pham(args) -> int:
    a = _parse_ideal(args.input, args.dim)
    verdict = probe_pham(a, seed=args.seed)
    return _single_report(args, args.input, a.dim, _generator_strings(a),
                          _ideal_invariants(a), [verdict])


def _cmd_corpus(args) -> int:
    config = CorpusConfig(
        dim=2 if args.dim is None else args.dim,
        count=args.count,
        seed=args.seed,
        budget=args.budget,
        include_numeric=args.numeric,
    )
    report = corpus_run(config)
    if args.timings:
        report.meta["timings_ms"] = round((time.monotonic() - args.start) * 1000.0, 3)
    sys.stdout.write(emit_report(report, _fmt(args)))
    return report.exit_code


_FLAGS = {
    "--json": dict(action="store_true", help="emit a JSON report"),
    "--seed": dict(type=int, default=0),
    "--dim": dict(type=int, default=None,
                  help="ambient dimension (default: inferred)"),
    "--tolerance": dict(type=float, default=DEFAULT_TOLERANCE,
                        help="relative tolerance for numeric verdicts"),
    "--budget": dict(type=int, default=DEFAULT_BUDGET, help="generator degree budget"),
    "--numeric": dict(action="store_true",
                      help="include the exact chain terms j = 1..n-2"),
    "--nondegenerate": dict(
        action="store_true",
        help="permit flagged nondegenerate-assumed monomialization"),
}


def _add_flags(p: argparse.ArgumentParser, *extra: str) -> None:
    for name in ("--json", "--seed", "--dim") + extra:
        p.add_argument(name, **_FLAGS[name])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser; main looks up the subcommand's function
    when it runs, so that a patched _cmd_* is the one called."""
    parser = argparse.ArgumentParser(
        prog="lctlab",
        description="Exact singularity invariants and inequality verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="invariant bundle of a germ or ideal")
    p.add_argument("input")
    p.add_argument("--ideal", action="store_true",
                   help="treat the input as a one-generator monomial ideal")
    _add_flags(p, "--nondegenerate")

    p = sub.add_parser("verify-main", help="polar-invariant sum vs lct(m*J_f)")
    p.add_argument("input")
    _add_flags(p, "--tolerance", "--nondegenerate")

    p = sub.add_parser("verify-chain", help="Lelong-ratio chain for an ideal")
    p.add_argument("input")
    _add_flags(p, "--numeric")

    p = sub.add_parser("verify-lct", help="lct(m*J_f) >= lct(f)")
    p.add_argument("input")
    _add_flags(p, "--nondegenerate")

    p = sub.add_parser("probe-pham", help="hyperplane-restriction probe (n=2)")
    p.add_argument("input")
    _add_flags(p)

    p = sub.add_parser("corpus", help="randomized corpus run")
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--timings", action="store_true",
                   help="record wall time (breaks byte-stability)")
    _add_flags(p, "--numeric", "--budget")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as stop:
        # argparse has printed help (code 0) or a usage error (code 2, which
        # is a failed exact verdict here); a usage error is an input error
        return EXIT_INPUT_ERROR if stop.code else EXIT_OK
    args.start = time.monotonic()
    try:
        return globals()["_cmd_" + args.command.replace("-", "_")](args)
    except (ValueError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT_ERROR if isinstance(err, ValueError) else EXIT_COMPUTE_ERROR


if __name__ == "__main__":
    sys.exit(main())
