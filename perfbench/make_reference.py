#!/usr/bin/env python3
"""Write the reference digest tables in perfbench/reference/.

    PYTHONPATH=src python3 perfbench/make_reference.py

One line per item key: the key and the leading hex digits of the SHA-256 of
the item's exact JSON report bytes.  Each item's output must also pass its
workload's check.  The tables pin the exact answers of the commit that made
them; regenerate them only in a change whose exact output is meant to change,
and say so in CHANGES.md.  Keys past the end of a table are checked by the
workload's check alone.
"""
from __future__ import annotations

import itertools
import sys
from pathlib import Path

from workloads import WORKLOADS, key_str

HERE = Path(__file__).resolve().parent

# First keys covered per workload: corpus keys are seed + i, so a table of K
# keys covers every seed below K minus the items of one run.
COVERAGE = {"corpus-d2": 16000, "corpus-d3": 400, "germs-fermat": None}


def main() -> int:
    (HERE / "reference").mkdir(exist_ok=True)
    for name, count in COVERAGE.items():
        wl = WORKLOADS[name]
        keys = wl.keys(0)
        if count is not None:
            keys = itertools.islice(keys, count)
        else:
            keys = sorted(keys)
        lines = []
        for key in keys:
            d, problem = wl.check(key, wl.run(wl.make_input(key)))
            if problem is not None:
                print(f"{name} {key_str(key)}: {problem}", file=sys.stderr)
                return 1
            lines.append(f"{key_str(key)} {d}\n")
        (HERE / "reference" / f"{name}.txt").write_text("".join(lines))
        print(f"{name}: {len(lines)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
