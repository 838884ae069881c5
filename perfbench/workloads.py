"""The benchmark's workloads: seeded items, the timed call, the output check.

An item is one unit of user work.  `make_input` (untimed) builds what the
program receives, `run` (timed) calls a public entry point of lctlab, and
`check` (untimed) returns a digest of the exact report bytes, if there are
any, and a problem string, or None when the output is correct.  Items come
from the seed alone; the program never sees the seed.

Why each workload was chosen and which per-layer metric should move which
end-to-end metric on it is written in README.md next to this file.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction

from hostspeed import numpy_slice, python_slice

DIGEST_HEX = 16  # leading hex digits of SHA-256 kept in the reference tables
ESTIMATOR_MAX_REL_ERR = 0.05  # acceptance criterion 6's bound


def digest(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()[:DIGEST_HEX]


class Corpus:
    """One case of `lctlab corpus --dim D --budget 5 --json`: case i of a
    corpus with seed s is its one-case corpus with seed s + i."""

    budget = 5
    reference = True
    slice = staticmethod(python_slice)

    def __init__(self, name: str, dim: int, trace_items_per_s: float):
        self.name = name
        self.dim = dim
        self.trace_items_per_s = trace_items_per_s

    def keys(self, seed: int):
        return iter(range(seed, seed + 10 ** 7))

    def make_input(self, key):
        from lctlab.verify import CorpusConfig

        return CorpusConfig(dim=self.dim, count=1, seed=key, budget=self.budget)

    def run(self, config):
        from lctlab.verify import corpus_run, emit_report

        return emit_report(corpus_run(config), "json")

    def check(self, key, text):
        report = json.loads(text)
        if report["cases"] != 1 or report["failures"]:
            return digest(text), f"failures {report['failures']}"
        for name, s in report["summaries"].items():
            if s["failures"] or Fraction(s["min_margin"]) < 0:
                return digest(text), f"verdict {name} fails: {s}"
        return digest(text), None


class Fermat:
    """One germ x1^d + ... + xn^d through `lctlab verify-main --json` and
    then `lctlab verify-lct --json`.  Dimensions cycle 2, 3, 4 so every run
    holds the same share of dim-4 germs.  Degrees are 4..63 in a seeded
    order that takes one from each run of ten in turn, so every run spreads
    over the whole range (cost grows with d).  In dim 4, d <= 3 has fewer
    difference directions and costs 2-20x less, so it is left out."""

    name = "germs-fermat"
    reference = True
    slice = staticmethod(python_slice)
    trace_items_per_s = 1.2

    def keys(self, seed: int):
        rng = random.Random(seed)
        blocks = [list(range(lo, lo + 10)) for lo in range(4, 64, 10)]
        for block in blocks:
            rng.shuffle(block)
        return ((n, block[r]) for r in range(10) for block in blocks for n in (2, 3, 4))

    def make_input(self, key):
        n, d = key
        return " + ".join(f"x{i}^{d}" for i in range(1, n + 1))

    def run(self, text):
        from lctlab.cli import main

        outs = []
        for command in ("verify-main", "verify-lct"):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main([command, text, "--json"])
            outs.append((code, buf.getvalue()))
        return outs

    def check(self, key, outs):
        (main_code, main_text), (lct_code, lct_text) = outs
        d = digest(main_text + lct_text)
        if main_code or lct_code:
            return d, f"exit codes {main_code}, {lct_code}"
        (main_v,) = json.loads(main_text)["verdicts"]
        (lct_v,) = json.loads(lct_text)["verdicts"]
        if not main_v["holds"] or main_v["numeric"] or main_v["margin"] != "0":
            return d, f"verify-main verdict {main_v}"
        if not lct_v["holds"] or lct_v["numeric"]:
            return d, f"verify-lct verdict {lct_v}"
        return d, None


class Estimator:
    """`loja_numeric` on one plane ideal random_ideal(2, 100000 s + i, 5),
    the ideals of scripts/estimator_accuracy.py, checked against the exact
    `loja_monomial`.  Floats make no byte-stable report, so there is no
    digest: the gate is the relative error."""

    name = "estimator-plane"
    reference = False
    slice = staticmethod(numpy_slice)
    trace_items_per_s = 0.6

    def __init__(self):
        self._exact: dict[int, Fraction] = {}

    def keys(self, seed: int):
        return iter(range(seed * 100_000, seed * 100_000 + 100_000))

    def exact(self, key) -> Fraction:
        """Exact exponent; call before tracing so checks leave no spans."""
        if key not in self._exact:
            from lctlab.invariants import loja_monomial
            from lctlab.verify import random_ideal

            self._exact[key] = loja_monomial(random_ideal(2, key, 5))
        return self._exact[key]

    def make_input(self, key):
        from lctlab.germs import IdealPresentation, poly
        from lctlab.verify import random_ideal

        a = random_ideal(2, key, 5)
        return IdealPresentation(2, tuple(poly(2, {g: 1}) for g in a.generators))

    def run(self, pres):
        from lctlab.sections import loja_numeric

        return loja_numeric(pres)

    def rel_err(self, key, est) -> float:
        exact = float(self.exact(key))
        return abs(est.value - exact) / exact

    def check(self, key, est):
        err = self.rel_err(key, est)
        if est.method != "numeric" or not err <= ESTIMATOR_MAX_REL_ERR:
            return None, f"relative error {err} ({est.method})"
        return None, None


WORKLOADS = {
    w.name: w for w in (
        Corpus("corpus-d2", 2, trace_items_per_s=230.0),
        Corpus("corpus-d3", 3, trace_items_per_s=2.0),
        Fermat(),
        Estimator(),
    )
}


def key_str(key) -> str:
    """Item key as written in the reference tables: "17" or "4,17"."""
    return ",".join(map(str, key)) if isinstance(key, tuple) else str(key)
