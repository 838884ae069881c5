"""Self-checks of the benchmark.

    python3 -m pytest -q perfbench/test_perfbench.py

Span coverage: a short traced run of every workload, under cProfile at the
same time; each wrapped function's span count must equal cProfile's count of
calls to the original function, so no binding of it escaped the wrapper.
"""
from __future__ import annotations

import cProfile
import pstats
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from spans import SPANS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ITEMS = {"corpus-d2": 40, "corpus-d3": 3, "germs-fermat": 3, "estimator-plane": 1}


def traced_counts(workload: str, seed: int = 0) -> tuple[dict, dict]:
    """(span calls, cProfile calls) per wrapped function for a short run."""
    wl = WORKLOADS[workload]
    keys = [k for _, k in zip(range(ITEMS[workload]), wl.keys(seed))]
    inputs = [wl.make_input(k) for k in keys]
    if hasattr(wl, "exact"):
        for k in keys:
            wl.exact(k)
    tracer = Tracer()
    tracer.install()
    prof = cProfile.Profile()
    try:
        prof.enable()
        outs = [wl.run(item) for item in inputs]
        prof.disable()
    finally:
        tracer.uninstall()
    for k, out in zip(keys, outs):
        assert wl.check(k, out)[1] is None
    profiled = pstats.Stats(prof).stats
    spans, calls = {}, {}
    for name, fn in tracer.originals.items():
        code = fn.__code__
        entry = profiled.get((code.co_filename, code.co_firstlineno, code.co_name))
        calls[name] = entry[1] if entry else 0
        spans[name] = tracer.stats[name].calls
    return spans, calls


def test_span_counts_match_cprofile():
    used = set()
    for workload in WORKLOADS:
        spans, calls = traced_counts(workload)
        assert spans == calls, workload
        used |= {name for name, c in spans.items() if c}
    assert used == {f"{m}.{f}" for m, names in SPANS.items() for f in names}


def test_uninstall_restores_bindings():
    import lctlab.invariants as inv

    before = inv.covolume
    tracer = Tracer()
    tracer.install()
    assert inv.covolume is not before
    tracer.uninstall()
    assert inv.covolume is before


def test_fails_without_sources(tmp_path):
    """Holding only the benchmark's files, run.py exits non-zero with no result."""
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus-d2", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert res.returncode != 0
    assert '"correct"' not in res.stdout


def test_item_time_limit(tmp_path, monkeypatch):
    """A child that stops finishing items is killed and the run reports it."""
    import run

    (tmp_path / "child.py").write_text(
        "import json, time\n"
        "print(json.dumps({'ready': True}), flush=True)\n"
        "print(json.dumps({'key': '0', 'ms': 1.0, 'slice': 0, 'digest': None,"
        " 'problem': None}), flush=True)\n"
        "time.sleep(60)\n")
    monkeypatch.setattr(run, "HERE", tmp_path)
    monkeypatch.setattr(run, "ITEM_LIMIT_S", 1.0)
    start = time.monotonic()
    lines, done, hello, problem = run.run_child(run.child_env(), "corpus-d2", 0, 5)
    assert time.monotonic() - start < 10
    assert hello == {"ready": True} and len(lines) == 1 and done is None
    assert problem.startswith("no item finished")
