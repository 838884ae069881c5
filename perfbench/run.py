#!/usr/bin/env python3
"""lctlab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload corpus-d2 --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; lctlab is imported from ./src and
from nowhere else.  Each run starts a fresh single-threaded child interpreter
(perfbench/child.py) with cold module caches and enforces a per-item time
limit from here, so a hang is a counted failure.

--trace 0  closed loop, one item at a time, for --seconds of loop time (in
           reference-host seconds, see hostspeed.py); prints the end-to-end
           metrics of BENCHMARK.json.
--trace 1  a fixed item count (--seconds x the workload's trace rate), first
           untraced and then, in a second fresh child, with spans around the
           lctlab functions in spans.SPANS; prints the per-layer metrics.

Every item's output is checked (see workloads.py); reports that have exact
bytes are compared with the SHA-256 digests in perfbench/reference/, made by
make_reference.py at the commit that defined the benchmark.  The last stdout
line is the JSON result; a full record with provenance goes to
.perfbench_out/.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
from spans import SPANS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

ITEM_LIMIT_S = 30.0  # per item, and for the child to get ready
SETUP_SAMPLES = 9
SETUP_SLICES = 3  # host-speed slices before each setup sample
TAIL_BEYOND = 10
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")

SETUP_SNIPPET = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import lctlab.cli\n"
    "lctlab.cli.build_parser()\n"
    "print(time.perf_counter() - t)\n"
)



def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def provenance(env: dict) -> dict:
    sha = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, env={**env, "GIT_DIR": str(ROOT / ".git")})
        sha = res.stdout.strip() or f"unknown: {res.stderr.strip()}"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg_start": os.getloadavg(),
        "child_env": {k: env[k] for k in ("PYTHONPATH", "PYTHONHASHSEED", *THREAD_VARS)},
    }


def measure_setup(env: dict) -> tuple[list[float], list[float]]:
    """Import lctlab.cli and build the parser in fresh interpreters, with
    host-speed slices in between; the first sample (which may compile
    bytecode) is dropped.  Returns (setup samples, slice samples)."""
    samples, slices = [], []
    for _ in range(SETUP_SAMPLES + 1):
        slices += [hostspeed.python_slice() for _ in range(SETUP_SLICES)]
        res = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=60)
        if res.returncode != 0:
            raise RuntimeError(f"setup probe failed: {res.stderr.strip()}")
        samples.append(float(res.stdout))
    return samples[1:], slices


def run_child(env, workload, seed, seconds, items=None, trace=False):
    """Run child.py; returns (item lines, done line or None, hello, problem)."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--src", str(SRC)]
    if items is not None:
        cmd += ["--items", str(items)]
    if trace:
        cmd.append("--trace")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE)
    lines, done, hello, problem = [], None, None, None
    buf = b""
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            deadline = time.monotonic() + ITEM_LIMIT_S
            while True:
                if not sel.select(timeout=max(0.0, deadline - time.monotonic())):
                    problem = f"no item finished within {ITEM_LIMIT_S} s"
                    break
                chunk = os.read(proc.stdout.fileno(), 1 << 16)
                if not chunk:
                    break
                deadline = time.monotonic() + ITEM_LIMIT_S
                *complete, buf = (buf + chunk).split(b"\n")
                for raw in complete:
                    msg = json.loads(raw)
                    if "ready" in msg:
                        hello = msg
                    elif "done" in msg:
                        done = msg
                    else:
                        lines.append(msg)
    finally:
        if proc.poll() is None and (problem or done is None):
            proc.kill()
        code = proc.wait()
        proc.stdout.close()
    if problem is None and (code != 0 or done is None):
        problem = f"child exited with code {code}"
    return lines, done, hello, problem


def load_reference(workload: str) -> dict:
    with open(HERE / "reference" / f"{workload}.txt") as fh:
        return dict(line.split() for line in fh)


def check_items(lines, reference) -> tuple[int, list, int]:
    """Count failures: raised, wrong output, or digest differing from reference."""
    failures, digest_checked = [], 0
    for ln in lines:
        problem = ln.get("problem")
        want = reference.get(ln["key"])
        if problem is None and want is not None:
            digest_checked += 1
            if ln["digest"] != want:
                problem = f"report digest {ln['digest']} != reference {want}"
        if problem is not None:
            failures.append({"key": ln["key"], "problem": problem})
    return len(failures), failures, digest_checked


def tail(ms: list[float]) -> tuple[float, float, int]:
    """Time at the highest percentile, up to p95, that leaves at least ten
    items beyond it; returns (value, percentile, items beyond)."""
    ordered = sorted(ms)
    n = len(ordered)
    beyond = min(max(TAIL_BEYOND, n // 20), n - 1)
    return ordered[-1 - beyond], 100.0 * (n - beyond) / n, beyond


def layer_metrics(layers: dict, k: float, overhead: float, max_rel_err) -> dict:
    """The per-layer metrics of BENCHMARK.json from the traced child's stats,
    times scaled by k."""
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    for module, names in SPANS.items():
        for fname in names:
            key = f"{module}.{fname}"
            s = layers[key]
            put(f"{key}.calls", s["calls"], "count")
            put(f"{key}.self_ms", s["self_ms"] * k, "ms")
            if key in ("exactgeom.build_polyhedron", "exactgeom.covolume",
                       "invariants.lelong_numbers"):
                put(f"{key}.repeat_ratio", s["repeats"] / s["calls"] if s["calls"] else 0.0,
                    "ratio")
            for count in ("gens_in", "facets_out", "gens_out", "size"):
                if count in s:
                    put(f"{key}.{count}", s[count], "count")
            if "retried" in s:
                put(f"{key}.retry_ratio", s["retried"] / s["calls"] if s["calls"] else 0.0,
                    "ratio")
    put("trace_overhead_ratio", overhead, "ratio")
    put("estimator_max_rel_err", max_rel_err or 0.0, "ratio")
    return m


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not (SRC / "lctlab" / "__init__.py").is_file():
        print(f"error: no lctlab sources under {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    env = child_env()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": provenance(env)}
    reference = load_reference(args.workload) if wl.reference else {}

    if args.trace == 0:
        setup, setup_slices = measure_setup(env)
        runs = [run_child(env, args.workload, args.seed, args.seconds)]
    else:
        items = math.ceil(args.seconds * wl.trace_items_per_s)
        limit = 2 * args.seconds  # safety stop; the item count normally ends the loop
        runs = [run_child(env, args.workload, args.seed, limit, items, trace=trace)
                for trace in (False, True)]
        (plain, *_), (traced, done, hello, problem) = runs
        if problem is None and len(plain) != len(traced):
            runs[1] = (traced, done, hello,
                       f"traced run finished {len(traced)} items, untraced {len(plain)}")

    attempted = failed = digest_checked = 0
    failures = []
    for lines, _, _, problem in runs:
        f, fl, dc = check_items(lines, reference)
        attempted += len(lines)
        failed += f
        failures += fl
        digest_checked += dc
        if problem:  # a hang or crash: the item in flight failed
            attempted += 1
            failed += 1
            failures.append({"key": None, "problem": problem})
    lines, done, hello, _ = runs[-1]
    record.update(numpy=(hello or {}).get("numpy"), attempted=attempted, failed=failed,
                  failures=failures[:20], digest_checked=digest_checked)

    ms = [ln["ms"] for ln in lines if "ms" in ln]
    if not ms or any(r[1] is None for r in runs):
        result = {"correct": False, "attempted": max(attempted, 1), "failed": max(failed, 1),
                  "metrics": {}}
    elif args.trace == 0:
        slices = done["slices_s"]
        timed = [ln for ln in lines if "ms" in ln]
        scaled = [ln["ms"] * hostspeed.scale(slices, ln["slice"]) for ln in timed]
        record["slowest"] = sorted(([ln["key"], t] for ln, t in zip(timed, scaled)),
                                   key=lambda kv: -kv[1])[:20]
        k_setup = hostspeed.scale(setup_slices)
        value, pct, beyond = tail(scaled)
        record["tail"] = {"percentile": pct, "samples_beyond": beyond, "samples": len(ms)}
        record["failed_ratio"] = failed / attempted
        record["estimator_max_rel_err"] = done["max_rel_err"]
        record["host_scale"] = {"run": hostspeed.scale(slices), "setup": k_setup}
        record["raw"] = {"setup_s": statistics.median(setup),
                         "items_per_s": len(ms) / done["timed_s"],
                         "item_p50_ms": statistics.median(ms), "item_tail_ms": tail(ms)[0],
                         "setup_samples_s": setup}
        metrics = {
            "setup_s": {"value": statistics.median(setup) * k_setup, "unit": "s"},
            "items_per_s": {"value": 1e3 * len(scaled) / sum(scaled), "unit": "1/s"},
            "item_p50_ms": {"value": statistics.median(scaled), "unit": "ms"},
            "item_tail_ms": {"value": value, "unit": "ms"},
            "peak_rss_mb": {"value": done["peak_rss_mb"], "unit": "MB"},
        }
        result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                  "metrics": metrics}
    else:
        plain_done = runs[0][1]
        k_plain, k = hostspeed.scale(plain_done["slices_s"]), hostspeed.scale(done["slices_s"])
        overhead = done["timed_s"] * k / (plain_done["timed_s"] * k_plain) - 1.0
        record["host_scale"] = {"untraced": k_plain, "traced": k}
        record["raw"] = {"trace_overhead_ratio": done["timed_s"] / plain_done["timed_s"] - 1.0}
        metrics = layer_metrics(done["layers"], k, overhead, done["max_rel_err"])
        record["layers"] = done["layers"]
        result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                  "metrics": metrics}
    record["result"] = result

    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")
    prov = record["provenance"]
    print(f"# {args.workload} seed {args.seed}: {attempted} items, {failed} failed, "
          f"{digest_checked} digests checked; git {prov['git_sha']}, "
          f"python {prov['python']}, numpy {record['numpy']}, nproc {prov['nproc']}, "
          f"load {prov['loadavg_start'][0]:.2f}")
    if "tail" in record:
        t = record["tail"]
        print(f"# item_tail_ms is p{t['percentile']:.2f} of {t['samples']} items "
              f"({t['samples_beyond']} beyond it)")
    for f in failures[:5]:
        print(f"# failed {f['key']}: {f['problem'].strip().splitlines()[-1]}")
    print(f"# full record: {out_file.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
