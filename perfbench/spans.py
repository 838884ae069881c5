"""Per-layer spans recorded from outside the program.

`install()` replaces each function named in `SPANS` by a wrapper, in every
`lctlab` module namespace that binds it (modules re-bind names through
`from .exactgeom import covolume`-style imports, and a binding the wrapper
misses would drop spans silently; `test_perfbench.py` checks the call counts
against cProfile).  Spans are aggregated in memory per function: calls, total
time, self time (total minus the time covered by child spans and by the
wrappers' own bookkeeping) and the work counts below.
"""
from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

# Functions wrapped, per module.  Each one has at least one per-layer metric.
SPANS = {
    "exactgeom": ["build_polyhedron", "covolume", "ideal_product", "diagonal_intercept"],
    "simplex": ["solve_lp"],
    "invariants": ["lelong_numbers", "mixed_multiplicity", "lct_monomial", "loja_monomial"],
    "germs": ["parse_polynomial", "jacobian_ideal", "product_with_maximal",
              "check_isolated", "lct_nondegenerate", "monomialize"],
    "sections": ["sample_plane", "restrict", "loja_line", "polar_invariant", "loja_numeric"],
    "verify": ["verify_chain", "verify_main", "verify_lct_dominates", "probe_pham",
               "corpus_run", "emit_report"],
    "cli": ["main"],
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _loja_retried(args, kwargs, est) -> int:
    from lctlab.sections import LojaParams

    params = args[1] if len(args) > 1 else kwargs.get("params")
    return int(est.radii[0] != (params or LojaParams()).r0)


# name -> function(args, kwargs) giving a hashable key of the input, for
# repeat_ratio: calls whose input was already seen in this process / calls.
REPEAT_KEYS = {
    "exactgeom.build_polyhedron": lambda a, k: (_arg(a, k, 1, "n"), frozenset(_arg(a, k, 0, "gens"))),
    "exactgeom.covolume": lambda a, k: _arg(a, k, 0, "P"),
    "invariants.lelong_numbers": lambda a, k: _arg(a, k, 0, "a"),
}

# name -> {count: function(args, kwargs, result) giving the increment}
WORK_COUNTS = {
    "exactgeom.build_polyhedron": {
        "gens_in": lambda a, k, r: len(_arg(a, k, 0, "gens")),
        "facets_out": lambda a, k, r: len(r.facets),
    },
    "exactgeom.ideal_product": {"gens_out": lambda a, k, r: len(r.generators)},
    "simplex.solve_lp": {
        "size": lambda a, k, r: len(_arg(a, k, 1, "constraints")) * _arg(a, k, 2, "n_vars"),
    },
    "germs.monomialize": {"gens_out": lambda a, k, r: len(r.ideal.generators)},
    "sections.loja_numeric": {"retried": _loja_retried},
}


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "counts", "seen", "repeats")

    def __init__(self, counts):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.counts = dict.fromkeys(counts, 0)
        self.seen = set()
        self.repeats = 0

    def as_dict(self) -> dict:
        d = {"calls": self.calls, "total_ms": self.total_s * 1e3,
             "self_ms": self.self_s * 1e3, "repeats": self.repeats}
        d.update(self.counts)
        return d


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._stack: list[float] = []  # per open span: time covered by its children
        self.originals: dict[str, object] = {}  # name -> unwrapped function
        self._installed: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        stat = self.stats[name] = Stat(WORK_COUNTS.get(name, {}))
        repeat_key = REPEAT_KEYS.get(name)
        counts = WORK_COUNTS.get(name, {})
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            stack.append(0.0)
            t1 = perf_counter()
            returned = False
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                t2 = perf_counter()
                children = stack.pop()
                stat.calls += 1
                stat.total_s += t2 - t1
                stat.self_s += t2 - t1 - children
                if repeat_key is not None:
                    key = repeat_key(args, kwargs)
                    if key in stat.seen:
                        stat.repeats += 1
                    else:
                        stat.seen.add(key)
                if returned:
                    for count, fn_count in counts.items():
                        stat.counts[count] += fn_count(args, kwargs, result)
                if stack:
                    stack[-1] += perf_counter() - t0
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every function in SPANS at every binding in lctlab.*."""
        for module in SPANS:
            importlib.import_module(f"lctlab.{module}")
        namespaces = [m for n, m in sys.modules.items()
                      if n == "lctlab" or n.startswith("lctlab.")]
        for module, names in SPANS.items():
            mod = sys.modules[f"lctlab.{module}"]
            for fname in names:
                fn = self.originals[f"{module}.{fname}"] = getattr(mod, fname)
                wrapped = self.wrap(f"{module}.{fname}", fn)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, attr, wrapped)
                            self._installed.append((ns, attr, fn))

    def uninstall(self) -> None:
        for ns, attr, fn in reversed(self._installed):
            setattr(ns, attr, fn)
        self._installed.clear()

    def report(self) -> dict:
        return {name: stat.as_dict() for name, stat in self.stats.items()}
