"""The benchmark's span list names functions that exist.

perfbench/spans.py wraps each `module.function` in SPANS by `getattr`, so a
function deleted or renamed here breaks the traced benchmark run.  The
file is loaded by path: perfbench is not a package.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).parents[1] / "perfbench" / "spans.py"


def _spans() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


@pytest.mark.parametrize("name", [f"{module}.{fn}" for module, fns in _spans().items()
                                  for fn in fns])
def test_span_names_a_callable(name):
    module, fn = name.split(".")
    assert callable(getattr(importlib.import_module(f"lctlab.{module}"), fn, None)), name
