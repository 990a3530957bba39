"""Docstring gate ("pydocstyle-lite") + doctests for the public API surface.

The contract, enforced over the modules named in ``AUDITED_MODULES``:

* the module itself has a docstring;
* every public class, function and method *defined in the module* (imports
  don't count) has a docstring whose first line is a one-line summary ending
  in a period;
* every named parameter of a public callable is mentioned somewhere in its
  docstring — or, for ``__init__``, in the owning class docstring (the
  numpydoc convention this codebase uses);
* functions that return a value say so (a ``Returns`` section, an
  ``-> type`` note, or the word "return" in prose).

Doctests embedded in ``DOCTESTED_MODULES`` are executed as part of the same
gate, so examples in docstrings cannot rot.
"""

from __future__ import annotations

import ast
import doctest
import importlib
import re
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: the audited public API surface: engine, sweep runner, pipeline, serving.
AUDITED_MODULES = [
    "repro/engine/__init__.py",
    "repro/engine/session.py",
    "repro/analysis/runner.py",
    "repro/analysis/reporting.py",
    "repro/analysis/perfhistory.py",
    "repro/core/pipeline.py",
    "repro/core/ecc.py",
    "repro/parallel/__init__.py",
    "repro/parallel/shm.py",
    "repro/parallel/plan.py",
    "repro/parallel/executor.py",
    "repro/parallel/dispatch.py",
    "repro/serve/__init__.py",
    "repro/serve/registry.py",
    "repro/serve/batcher.py",
    "repro/serve/telemetry.py",
    "repro/serve/gateway.py",
    "repro/serve/bench.py",
    "repro/serve/server.py",
    "repro/serve/loadgen.py",
    "repro/serve/replica.py",
    "repro/serve/router.py",
]

#: modules whose embedded doctests run as part of the gate.
DOCTESTED_MODULES = [
    "repro.analysis.reporting",
    "repro.serve.telemetry",
    "repro.serve.loadgen",
]

#: decorators that turn a function into an attribute-like member whose
#: parameters need no prose (properties) or that replace the signature.
_PROPERTY_DECORATORS = {"property", "cached_property", "staticmethod",
                        "classmethod", "abstractmethod"}


def _decorator_names(node: ast.AST) -> List[str]:
    names = []
    for decorator in getattr(node, "decorator_list", []):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Attribute):
            names.append(target.attr)
        elif isinstance(target, ast.Name):
            names.append(target.id)
    return names


def _param_names(node: ast.AST) -> List[str]:
    args = node.args
    names = [a.arg for a in (args.posonlyargs + args.args + args.kwonlyargs)]
    return [n for n in names if n not in ("self", "cls")]


def _returns_value(node: ast.AST) -> bool:
    for child in ast.walk(node):
        if isinstance(child, ast.FunctionDef) and child is not node:
            continue        # don't descend into nested defs
        if isinstance(child, ast.Return) and child.value is not None:
            if not (isinstance(child.value, ast.Constant)
                    and child.value.value is None):
                return True
    return False


def _public_defs(tree: ast.Module) -> Iterator[Tuple[str, ast.AST, Optional[ast.ClassDef]]]:
    """Yield (qualified_name, node, owning_class) for public defs."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not node.name.startswith("_"):
                yield node.name, node, None
        elif isinstance(node, ast.ClassDef):
            if node.name.startswith("_"):
                continue
            yield node.name, node, None
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if member.name == "__init__" or not member.name.startswith("_"):
                        yield f"{node.name}.{member.name}", member, node


def _word_in(word: str, text: str) -> bool:
    return re.search(rf"(?<![A-Za-z0-9_]){re.escape(word)}(?![A-Za-z0-9_])",
                     text) is not None


def _check_module(path: Path) -> List[str]:
    source = path.read_text()
    tree = ast.parse(source)
    problems: List[str] = []
    rel = path.relative_to(SRC)
    if ast.get_docstring(tree) is None:
        problems.append(f"{rel}: module has no docstring")
    for name, node, owner in _public_defs(tree):
        docstring = ast.get_docstring(node)
        where = f"{rel}:{node.lineno} {name}"
        if not docstring and name.endswith("__init__") and owner is not None \
                and ast.get_docstring(owner):
            # Codebase convention: constructor parameters are documented in
            # the class docstring (numpydoc style), not on __init__ itself.
            class_doc = ast.get_docstring(owner)
            for param in _param_names(node):
                if not _word_in(param, class_doc):
                    problems.append(f"{where}: parameter {param!r} not "
                                    "documented in the class docstring")
            continue
        if not docstring:
            problems.append(f"{where}: missing docstring")
            continue
        summary = docstring.strip().splitlines()[0].strip()
        if not summary.endswith((".", ":", "?")):
            problems.append(f"{where}: first line must be a one-line summary "
                            f"ending in a period (got {summary!r})")
        if isinstance(node, ast.ClassDef):
            continue
        decorators = _decorator_names(node)
        if _PROPERTY_DECORATORS & set(decorators) and "staticmethod" not in decorators:
            continue        # properties read like attributes
        class_doc = ast.get_docstring(owner) if owner is not None else None
        haystack = docstring + ("\n" + class_doc if class_doc else "")
        for param in _param_names(node):
            if not _word_in(param, haystack):
                problems.append(f"{where}: parameter {param!r} not documented")
        if _returns_value(node) and not re.search(
                r"(?i)\breturn|->", docstring):
            problems.append(f"{where}: returns a value but the docstring "
                            "never says what")
    return problems


@pytest.mark.parametrize("module_path", AUDITED_MODULES)
def test_public_api_docstrings(module_path):
    problems = _check_module(SRC / module_path)
    assert not problems, "\n".join(problems)


@pytest.mark.parametrize("module_name", DOCTESTED_MODULES)
def test_doctests(module_name):
    module = importlib.import_module(module_name)
    results = doctest.testmod(module, verbose=False)
    assert results.attempted > 0, f"{module_name} has no doctests to run"
    assert results.failed == 0
