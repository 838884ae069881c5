#!/usr/bin/env python3
"""Run the randomized inequality corpus and write the JSON report to a file.

The report's bytes are those of `lctlab corpus --json`.  Exit status follows
the CLI: 0 when every verdict holds, 2 on an exact-arithmetic failure, 3 when
only numeric verdicts fail, 4 on invalid input, 5 when a computation fails.
"""
import argparse
import sys

from lctlab.verify import (
    EXIT_COMPUTE_ERROR,
    EXIT_INPUT_ERROR,
    CorpusConfig,
    corpus_run,
    emit_report,
)


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
    try:
        report = corpus_run(config)
    except (ValueError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT_ERROR if isinstance(err, ValueError) else EXIT_COMPUTE_ERROR
    text = emit_report(report, "json")
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"wrote {args.output}: {report.cases} cases, "
              f"{len(report.failures)} failures", file=sys.stderr)
    return report.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
