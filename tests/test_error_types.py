"""Every error type the package declares is one that its code raises.

A static check over the package source: an ``EhrlichError`` subclass
that nothing raises is dead API, and so is a CLI exit-code mapping for a
class the package does not define.
"""

import ast
import builtins
from pathlib import Path

import ehrlich

PACKAGE = Path(ehrlich.__file__).resolve().parent


def parse(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def declared_errors() -> set[str]:
    """The classes ``errors.py`` defines that derive from ``EhrlichError``."""
    bases = {node.name: {base.id for base in node.bases if isinstance(base, ast.Name)}
             for node in parse("errors").body if isinstance(node, ast.ClassDef)}
    derived = {"EhrlichError"}
    while True:
        grown = derived | {name for name, parents in bases.items() if parents & derived}
        if grown == derived:
            return derived - {"EhrlichError"}
        derived = grown


def raised_names() -> set[str]:
    """The class names that ``raise X`` or ``raise X(...)`` names anywhere
    in the package; ``InvalidParamsError`` is raised inside ``require``."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return names


def test_every_declared_error_is_raised():
    assert declared_errors()  # the parse found the hierarchy
    assert sorted(declared_errors() - raised_names()) == []


def test_the_cli_catches_only_declared_or_builtin_classes():
    main = next(node for node in parse("cli").body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    caught = set()
    for handler in ast.walk(main):
        if isinstance(handler, ast.ExceptHandler) and handler.type is not None:
            types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
            caught |= {node.id for node in types}
    defined = declared_errors() | {"EhrlichError"}
    assert caught  # the parse found the handlers
    assert sorted(name for name in caught
                  if name not in defined and not hasattr(builtins, name)) == []
