"""Every error type in ``fedq.errors`` is raised somewhere in the package."""

import ast
import inspect
from pathlib import Path

import fedq
from fedq import errors


def raised_names() -> set[str]:
    """Names of the exceptions raised by ``raise X`` or ``raise X(...)``
    anywhere under ``src/fedq``, bare or module-qualified."""
    names = set()
    for path in Path(fedq.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    names.add(exc.attr)
    return names


def test_every_error_type_has_a_raise_site():
    # A type nothing raises is an interface no caller can meet: fold it
    # into the type whose meaning it fits, or raise it.
    defined = {name for name, obj in inspect.getmembers(errors, inspect.isclass)
               if issubclass(obj, errors.FedqError) and obj is not errors.FedqError
               and obj.__module__ == errors.__name__}
    assert defined, "found no error types"
    assert sorted(defined - raised_names()) == []
