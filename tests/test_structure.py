"""Rules on the package's source that no single module test states.

No lctlab module imports another lctlab module's private names.  A name with
a leading underscore belongs to its module: when a second module needs it, it
is made public where it lives, or moved to the one module that uses it.
Dunder names such as __version__ are public.

Every seeded draw goes through sections.draw: no other module
imports random or calls randint, randrange or random.Random.

Every cache in the package is bounded: an lru_cache has an int maxsize, a
plain functools cache is kept for functions of no arguments, and no module
binds a name ending in _CACHE to an empty dict, which would keep every entry.
A weakref table is listed as a cache too, bounded by whatever holds its
values (or keys), so that the set of caches names it.
"""
import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lctlab"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_imports(path: Path) -> list[str]:
    """'module: name' for every underscore name that path imports from lctlab."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "lctlab"):
            found += [f"{path.stem}: {alias.name}" for alias in node.names
                      if _is_private(alias.name)]
    return found


def test_no_module_imports_private_names():
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    assert [name for path in paths for name in private_imports(path)] == []


DRAW_MODULE = "sections"  # the module of seed_draws and draw


def draw_uses(source: str) -> list[str]:
    """'name at line N' for each import of random, and each call of randint,
    randrange or Random, as a function or a method, in source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names if alias.name.split(".")[0] == "random"]
        elif isinstance(node, ast.ImportFrom):
            names = ["random"] if (node.module or "").split(".")[0] == "random" else []
        elif isinstance(node, ast.Call):
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            names = [name] if name in ("randint", "randrange", "Random") else []
        else:
            continue
        found += [f"{name} at line {node.lineno}" for name in names]
    return found


def test_one_draw_path():
    uses = {path.stem: draw_uses(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert uses[DRAW_MODULE]
    assert {stem: found for stem, found in uses.items() if found and stem != DRAW_MODULE} == {}


@pytest.mark.parametrize("source,found", [
    ("import random", ["random at line 1"]),
    ("import random as r", ["random at line 1"]),
    ("from random import getrandbits", ["random at line 1"]),
    ("rng.randint(1, 2)", ["randint at line 1"]),
    ("x = 1\nrandom.randrange(5)", ["randrange at line 2"]),
    ("rng = random.Random(3)", ["Random at line 1"]),
    ("rng = Random(3)", ["Random at line 1"]),
    ("seed_draws(7)\ndraw(1, 2)", []),
    ("rng = np.random.default_rng(0)", []),
    ("import randomness", []),
])
def test_draw_check_flags_other_draws(source, found):
    assert draw_uses(source) == found


def _cache_name(node) -> str | None:
    """'cache' or 'lru_cache' when node names functools' decorator of that name."""
    if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "functools":
        name = node.attr
    elif isinstance(node, ast.Name):
        name = node.id
    else:
        return None
    return name if name in ("cache", "lru_cache") else None


def _is_weak_table(node) -> bool:
    """node names weakref's WeakValueDictionary, WeakKeyDictionary or WeakSet."""
    if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "weakref":
        name = node.attr
    elif isinstance(node, ast.Name):
        name = node.id
    else:
        return False
    return name in ("WeakValueDictionary", "WeakKeyDictionary", "WeakSet")


def _no_arguments(fn) -> bool:
    args = fn.args
    return not (args.posonlyargs or args.args or args.vararg
                or args.kwonlyargs or args.kwarg)


def _empty_dict(node) -> bool:
    """node is {} or dict()."""
    if isinstance(node, ast.Dict):
        return not node.keys
    return (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "dict"
            and not node.args and not node.keywords)


def dict_caches(tree) -> list[tuple[str, bool]]:
    """('dict at line N', False) for each module-level name ending in _CACHE
    that is bound to an empty dict: nothing bounds what is put in it."""
    uses = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign):
            targets, value = [node.target], node.value
        else:
            continue
        if _empty_dict(value) and any(isinstance(t, ast.Name) and t.id.endswith("_CACHE")
                                      for t in targets):
            uses.append((f"dict at line {node.lineno}", False))
    return uses


def cache_uses(source: str, namespace: dict) -> list[tuple[str, bool]]:
    """(use, bounded) for each cache in source.  An lru_cache is bounded when
    its maxsize is an int literal or a name bound to an int in namespace; a
    functools cache, when it decorates a function of no arguments, which can
    keep one value only; a module-level dict cache never is; a weakref table
    always is, by what holds its entries."""
    tree = ast.parse(source)
    calls = {node.func: node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    decorated = {d: node for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                 for d in node.decorator_list}
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _is_weak_table(node.func):
            uses.append((f"weak at line {node.lineno}", True))
            continue
        name = _cache_name(node)
        if name is None:
            continue
        if name == "cache":
            fn = decorated.get(node)
            uses.append((f"cache at line {node.lineno}",
                         fn is not None and _no_arguments(fn)))
            continue
        call = calls.get(node)
        size = None
        if call is not None:
            size = next((k.value for k in call.keywords if k.arg == "maxsize"),
                        call.args[0] if call.args else None)
        if isinstance(size, ast.Name):
            size = namespace.get(size.id)
        elif isinstance(size, ast.Constant):
            size = size.value
        uses.append((f"lru_cache at line {node.lineno}",
                     isinstance(size, int) and not isinstance(size, bool)))
    return uses + dict_caches(tree)


def test_caches_are_bounded():
    uses = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"lctlab.{path.stem}")
        for use, bounded in cache_uses(path.read_text(), vars(module)):
            uses[f"{path.stem}: {use}"] = bounded
    assert [use for use, bounded in uses.items() if not bounded] == []
    assert {use.split(" at ")[0] for use in uses} == {
        "cli: cache", "exactgeom: lru_cache", "exactgeom: weak"}


@pytest.mark.parametrize("source,bounded", [
    ("@functools.lru_cache(maxsize=SIZE)\ndef f(a): pass", [True]),
    ("@lru_cache(64)\ndef f(a): pass", [True]),
    ("@functools.cache\ndef f(): pass", [True]),
    ("@functools.lru_cache(maxsize=None)\ndef f(a): pass", [False]),
    ("@functools.lru_cache\ndef f(a): pass", [False]),
    ("@functools.lru_cache()\ndef f(a): pass", [False]),
    ("@functools.lru_cache(maxsize=FLAG)\ndef f(a): pass", [False]),
    ("@functools.cache\ndef f(a): pass", [False]),
    ("g = functools.cache(f)", [False]),
    ("_POLY_CACHE = {}", [False]),
    ("_POLY_CACHE: dict[tuple, int] = {}", [False]),
    ("A_CACHE = B = dict()", [False]),
    ("_CACHE_SIZE = {}", []),
    ("_TABLE = {}", []),
    ("_LEAF_CACHE = {int: repr}", []),
    ("def f():\n    _CACHE = {}", []),
    ("_POLY_CACHE = dict(a=1)", []),
    ("_HULLS = weakref.WeakValueDictionary()", [True]),
    ("_HULLS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()", [True]),
    ("from weakref import WeakSet\nseen = WeakSet()", [True]),
    ("def f():\n    return weakref.WeakKeyDictionary()", [True]),
    ("r = weakref.ref(x)", []),
])
def test_cache_check_flags_unbounded(source, bounded):
    uses = cache_uses(source, {"SIZE": 1024, "FLAG": True})
    assert [b for _, b in uses] == bounded
