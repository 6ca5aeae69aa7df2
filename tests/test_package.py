"""The package surface: every name a module exports exists, every source
file reads each name it imports, and every private module-level name in the
package is read somewhere in it."""

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


def _reads(node: ast.AST) -> set[str]:
    """Names and attribute names read anywhere under ``node``."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute) and not isinstance(sub.ctx, ast.Store):
            out.add(sub.attr)
    return out


def _private_definitions(statement: ast.stmt) -> list[str]:
    """Private (single-underscore) names a module-level statement defines."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [statement.name]
    elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        names = [t.id for t in targets if isinstance(t, ast.Name)]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def test_every_private_module_level_name_is_read_in_the_package():
    # a helper, class or constant whose last caller is gone is deleted with it;
    # reads inside the definition itself (recursion) do not count
    statements = [
        (path, statement)
        for path in sorted((ROOT / "src" / "paretoscan").glob("*.py"))
        for statement in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    reads = [_reads(statement) for _, statement in statements]
    unread = [
        f"{path.name}:{name}"
        for i, (path, statement) in enumerate(statements)
        for name in _private_definitions(statement)
        if not any(name in r for j, r in enumerate(reads) if j != i)
    ]
    assert len(statements) > 100
    assert unread == []
