#!/usr/bin/env python3
"""Run the randomized inequality corpus and write the JSON report to a file.

    scripts/run_corpus.py [-o PATH] [corpus flags]

Every flag but -o/--output ('-', the default, for stdout) and -h goes to
`lctlab corpus --json` (see `lctlab corpus -h`); the case count defaults to
200.  The report's bytes and the exit status are those of the CLI: 0 when
every verdict holds, 2 on an exact-arithmetic failure, 3 when only numeric
verdicts fail, 4 on invalid input (usage errors included), 5 when a
computation fails.
"""
import argparse
import contextlib
import io
import json
import sys

from lctlab import cli
from lctlab.verify import EXIT_INPUT_ERROR


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, exit_on_error=False,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("-o", "--output", default="-")
    try:
        args, rest = ap.parse_known_args(argv)
    except argparse.ArgumentError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    argv = ["corpus", "--json", "--count", "200", *rest]
    if args.output == "-":
        return cli.main(argv)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    text = buf.getvalue()
    if text:  # a report; an error writes nothing to stdout
        with open(args.output, "w") as fh:
            fh.write(text)
        report = json.loads(text)
        print(f"wrote {args.output}: {report['cases']} cases, "
              f"{len(report['failures'])} failures", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
