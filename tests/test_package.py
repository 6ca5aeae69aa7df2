"""The package surface: every name a module exports exists, and every
source file reads each name it imports."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import paretoscan

MODULES = ["paretoscan"] + [
    f"paretoscan.{info.name}" for info in pkgutil.iter_modules(paretoscan.__path__)
]

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_resolves(name):
    module = importlib.import_module(name)
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert missing == []


def _unread_imports(path: Path) -> list[str]:
    """Names ``path`` imports but never reads; ``__all__`` entries count as read."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return sorted(imported - read)


def test_no_file_imports_a_name_it_never_reads():
    files = [p for d in ("src", "scripts", "tests") for p in sorted((ROOT / d).rglob("*.py"))]
    assert len(files) > 20
    unread = {str(p.relative_to(ROOT)): names for p in files if (names := _unread_imports(p))}
    assert unread == {}
