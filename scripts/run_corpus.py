#!/usr/bin/env python3
"""Run the randomized inequality corpus and write the JSON report to a file.

Exit status follows the library convention: 0 when every verdict holds,
2 on an exact-arithmetic failure, 3 when only numeric verdicts fail.
"""
import argparse
import sys

from lctlab.verify import CorpusConfig, corpus_run, emit_report


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dim", type=int, default=2, choices=[2, 3, 4])
    ap.add_argument("--count", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--budget", type=int, default=5,
                    help="max generator count / pure-power exponent")
    ap.add_argument("--numeric", action="store_true",
                    help="include numeric intermediate-section verdicts")
    ap.add_argument("--tolerance", type=float, default=0.05)
    ap.add_argument("-o", "--output", default="-",
                    help="output path, '-' for stdout")
    args = ap.parse_args()

    config = CorpusConfig(dim=args.dim, count=args.count, seed=args.seed,
                          budget=args.budget, include_numeric=args.numeric,
                          tolerance=args.tolerance)
    report = corpus_run(config)
    text = emit_report(report, "json")
    if args.output == "-":
        print(text)
    else:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.output}: {report.cases} cases, "
              f"{len(report.failures)} failures", file=sys.stderr)
    return report.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
