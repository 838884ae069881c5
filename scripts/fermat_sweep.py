#!/usr/bin/env python3
"""Sweep Fermat-type germs x1^d + ... + xn^d and tabulate the verified chain.

For each (n, d) the script prints the log canonical threshold, the polar
invariants theta_0..theta_{n-1}, the summed lower bound, and the verdict
margin (exactly 0 whenever the bound is attained).  Exit status: 0, or 4
on invalid input (a dimension outside 1..4, or a usage error).
"""
import argparse
import sys

from lctlab.germs import parse_polynomial
from lctlab.verify import EXIT_INPUT_ERROR, frac_str, verify_main

VARS = ["x", "y", "z", "w"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dims", type=int, nargs="+", default=[2, 3])
    ap.add_argument("--max-degree", type=int, default=6)
    try:
        args = ap.parse_args(argv)
    except SystemExit as stop:  # help (0) or a usage error (2)
        return EXIT_INPUT_ERROR if stop.code else 0
    for n in args.dims:
        if not 1 <= n <= len(VARS):
            print(f"error: dimensions are 1..{len(VARS)}, got {n}", file=sys.stderr)
            return EXIT_INPUT_ERROR

    print(f"{'n':>2} {'d':>3} {'lct':>6} {'theta':>16} {'bound':>8} {'margin':>8}")
    for n in args.dims:
        for d in range(2, args.max_degree + 1):
            f = parse_polynomial(" + ".join(f"{v}^{d}" for v in VARS[:n]))
            verdict, thetas = verify_main(f)
            theta_s = ",".join(frac_str(t.value) for t in thetas)
            print(f"{n:>2} {d:>3} {frac_str(verdict.rhs):>6} "
                  f"{theta_s:>16} {frac_str(verdict.lhs):>8} "
                  f"{frac_str(verdict.margin):>8}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
