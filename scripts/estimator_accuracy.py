#!/usr/bin/env python3
"""Compare the numeric Lojasiewicz estimator against exact values.

Draws random zero-dimensional monomial ideals in the plane, computes the
exact exponent from the Newton polyhedron, and reports for each case the
estimator's relative error, multi-seed spread, log-log fit residual and
time.  Exit status: 0 when every relative error is at most 0.05, 1 when
the largest exceeds it or is NaN, 4 on invalid input (a negative count,
starts or iters, a budget outside 2..1000, or a usage error), 5 when the
estimator fails on a case (a NumericFailureError, reported as `lctlab
compute` reports it for a numeric theta).
"""
import argparse
import math
import sys
import time

from lctlab.exactgeom import InvalidInputError
from lctlab.germs import IdealPresentation, poly
from lctlab.invariants import loja_monomial
from lctlab.sections import LojaParams, NumericFailureError, loja_numeric
from lctlab.verify import (
    DEFAULT_BUDGET,
    EXIT_COMPUTE_ERROR,
    EXIT_INPUT_ERROR,
    check_corpus_shape,
    random_ideal,
)

MAX_REL_ERR = 0.05


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=30)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    ap.add_argument("--starts", type=int, default=64)
    ap.add_argument("--iters", type=int, default=250)
    try:
        args = ap.parse_args(argv)
    except SystemExit as stop:  # help (0) or a usage error (2)
        return EXIT_INPUT_ERROR if stop.code else 0
    try:
        # checked before drawing, as corpus checks them: --count -1 is an
        # error, and --count 0 still rejects a bad budget
        check_corpus_shape(2, args.budget, args.count)
        params = LojaParams(starts=args.starts, iters=args.iters)
        ideals = [random_ideal(2, args.seed * 100_000 + i, args.budget)
                  for i in range(args.count)]
    except InvalidInputError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    print(f"{'case':>4} {'exact':>7} {'estimate':>10} {'rel err':>9} {'spread':>9} "
          f"{'residual':>9} {'ms':>8}")
    worst = 0.0
    for i, a in enumerate(ideals):
        exact = float(loja_monomial(a))
        pres = IdealPresentation(2, tuple(poly(2, {g: 1}) for g in a.generators))
        t0 = time.perf_counter()
        try:
            est = loja_numeric(pres, params)
        except NumericFailureError as err:
            print(f"error: {err}", file=sys.stderr)
            return EXIT_COMPUTE_ERROR
        ms = (time.perf_counter() - t0) * 1000.0
        err = abs(est.value - exact) / exact
        if math.isnan(err) or err > worst:  # a NaN error stays the worst
            worst = err
        print(f"{i:>4} {exact:>7.3f} {est.value:>10.4f} {err:>9.4f} "
              f"{est.spread / exact:>9.4f} {est.residual:>9.2e} {ms:>8.1f}")
    print(f"max relative error: {worst:.4f}")
    return 0 if worst <= MAX_REL_ERR else 1


if __name__ == "__main__":
    raise SystemExit(main())
