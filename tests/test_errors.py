"""src raises two error families: ValueError for usage errors and
ConsistencyFailure for broken cross-checks (fgl_forge.errors).  The writer's
TypeError and the flag types' argparse.ArgumentTypeError are the only others."""

import ast
from pathlib import Path

from fgl_forge import errors

ROOT = Path(__file__).resolve().parents[1]

# (module, enclosing function or None for any) -> the classes raised there
_ALLOWED = {
    (None, None): {"ValueError", "ConsistencyFailure"},
    ("reports.py", "_write"): {"TypeError"},
    ("cli.py", None): {"argparse.ArgumentTypeError"},
}


def _raises(path):
    """(line, enclosing function, raised class) of every raise of a new exception."""
    out = []

    def walk(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, child.name)
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                out.append((child.lineno, function, ast.unparse(exc)))
            walk(child, function)

    walk(ast.parse(path.read_text(), filename=str(path)), None)
    return out


def _allowed(path, function, name):
    return any(name in classes for (module, where), classes in _ALLOWED.items()
               if module in (None, path.name) and where in (None, function))


def test_src_raises_only_the_two_families():
    paths = sorted((ROOT / "src").rglob("*.py"))
    assert len(paths) > 5
    found = {name for path in paths for _, _, name in _raises(path)}
    assert {"ValueError", "ConsistencyFailure"} <= found
    stray = [f"{path.relative_to(ROOT)}:{line} raises {name}"
             for path in paths for line, function, name in _raises(path)
             if not _allowed(path, function, name)]
    assert not stray, f"raises outside the two families: {stray}"


def test_errors_defines_one_class():
    classes = [name for name, value in vars(errors).items() if isinstance(value, type)]
    assert classes == ["ConsistencyFailure"]
    assert errors.ConsistencyFailure.__bases__ == (Exception,)
