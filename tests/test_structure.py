"""No lctlab module imports another lctlab module's private names.

A name with a leading underscore belongs to its module: when a second module
needs it, it is made public where it lives, or moved to the one module that
uses it.  Dunder names such as __version__ are public.
"""
import ast
from pathlib import Path

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
