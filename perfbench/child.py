"""One workload run in a fresh single-threaded interpreter.

Started by run.py, never by hand.  Prints one JSON line when ready, one per
finished item, and a last line with the totals; run.py reads them with a
per-item time limit.  Timing covers only `Workload.run`, the call into
lctlab; building inputs and checking outputs are outside it.
"""
from __future__ import annotations

import argparse
import itertools
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import hostspeed
from workloads import WORKLOADS, key_str

# Loop wall time stays below this many --seconds, so a run on a slow host
# (where reference seconds pass slowly) still ends in bounded time.
WALL_CAP = 1.2


def emit(obj) -> None:
    sys.__stdout__.write(json.dumps(obj) + "\n")
    sys.__stdout__.flush()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="start no item after this much loop time, in reference-host seconds")
    ap.add_argument("--items", type=int, default=None, help="stop after this many items")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--src", required=True)
    args = ap.parse_args()

    import numpy
    import lctlab

    src = Path(args.src).resolve()
    if src not in Path(lctlab.__file__).resolve().parents:
        print(f"lctlab imported from {lctlab.__file__}, not from {src}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    keys = wl.keys(args.seed)
    if args.items is not None:
        keys = list(itertools.islice(keys, args.items))
        if hasattr(wl, "exact"):
            for k in keys:
                wl.exact(k)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    emit({"ready": True, "numpy": numpy.__version__, "lctlab": lctlab.__file__})

    rel_errs = []
    timed = 0.0
    slices = []
    ref_elapsed = 0.0  # loop time in reference-host seconds, so the item
    # count follows the program's speed and not the host's drift
    last_slice = start = prev = time.perf_counter()
    for key in keys:
        now = time.perf_counter()
        if not slices or now - last_slice >= hostspeed.EVERY_S:
            slices.append(wl.slice())
            last_slice = time.perf_counter()
        ref_elapsed += (now - prev) * hostspeed.scale(slices, len(slices) - 1)
        prev = now
        if ref_elapsed >= args.seconds or now - start >= WALL_CAP * args.seconds:
            break
        line = {"key": key_str(key), "slice": len(slices) - 1}
        try:
            item = wl.make_input(key)
            t0 = time.perf_counter()
            out = wl.run(item)
            dt = time.perf_counter() - t0
            timed += dt
            line["ms"] = dt * 1e3
            line["digest"], line["problem"] = wl.check(key, out)
            if hasattr(wl, "rel_err"):
                rel_errs.append(wl.rel_err(key, out))
        except Exception:  # an item that raises is a counted failure
            line["problem"] = traceback.format_exc(limit=3)
        emit(line)
    slices.append(wl.slice())
    emit({
        "done": True,
        "timed_s": timed,
        "loop_s": time.perf_counter() - start,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "max_rel_err": max(rel_errs, default=None),
        "slices_s": slices,
        "layers": tracer.report() if tracer else None,
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
