"""Every name a module of src, tests or demos imports is read in it."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _unread_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in sorted(bound.items()) if name not in read]


def test_every_import_is_read():
    paths = sorted(p for d in ("src", "tests", "demos") for p in (ROOT / d).rglob("*.py"))
    assert len(paths) > 20
    unread = [hit for path in paths for hit in _unread_imports(path)]
    assert not unread, f"imported and never read: {unread}"
