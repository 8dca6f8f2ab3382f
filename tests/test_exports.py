"""The package's public names."""

import ast
import inspect
from pathlib import Path

import gxstplc
from gxstplc import errors


def test_every_export_resolves():
    assert len(gxstplc.__all__) == len(set(gxstplc.__all__))
    missing = [name for name in gxstplc.__all__ if not hasattr(gxstplc, name)]
    assert missing == []


def raised_names() -> set[str]:
    """Names raised anywhere in the package: `raise X(...)` and `raise X`."""
    names = set()
    for path in Path(gxstplc.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
    return names


def test_every_error_class_is_exported_and_raised():
    classes = [name for name, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, errors.GxstplcError) and cls is not errors.GxstplcError]
    assert classes
    assert [name for name in classes if name not in gxstplc.__all__] == []
    assert [name for name in classes if name not in raised_names()] == []
