"""No function or class of the package that only unit tests reach.

Every top-level ``def`` and ``class`` of ``src/cavityspin``, and every
method and property in a class body (dunder functions aside, in a class
body or at module level, such as a PEP 562 ``__getattr__``: Python calls
them), must be named
somewhere other than its own definition in the package, the scripts, the
benchmark or the acceptance tests: as a name, an attribute, an import or a
word of a string (the benchmark wraps functions by their names), but not in
a docstring or a comment.  A result that only a unit test computes is a
second code path the command line never runs.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cavityspin"
WORD = re.compile(r"[A-Za-z_]\w*")
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def _docstrings(tree: ast.AST) -> set[int]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                out.add(id(first.value))
    return out


def _scope(node: ast.AST):
    """The nodes of a function's own scope: its body without nested
    functions, classes and lambdas."""
    for child in ast.iter_child_nodes(node):
        yield child
        if not isinstance(child, SCOPES):
            yield from _scope(child)


def _local_names(func) -> set[str]:
    """The parameters of a function, the names it assigns and the names
    its nested functions and classes bind."""
    args = func.args
    params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
    stored = {
        node.id
        for node in _scope(func)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
    }
    nested = {
        node.name
        for node in _scope(func)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    return stored | nested | {a.arg for a in params if a is not None}


def _local_reads(tree: ast.AST) -> set[int]:
    """Ids of the ``Name`` nodes that read a parameter or an assigned local
    of their enclosing function: they name the local, not a definition."""
    out = set()
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            local = _local_names(func)
            out |= {
                id(node)
                for node in _scope(func)
                if isinstance(node, ast.Name) and node.id in local
            }
    return out


def _references(tree: ast.AST) -> list[tuple[str, int]]:
    """``(name, line)`` of every name the module mentions in code."""
    docs = _docstrings(tree)
    local = _local_reads(tree)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            if id(node) not in local:
                out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            out += [(alias.name, node.lineno) for alias in node.names]
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docs
        ):
            out += [(word, node.lineno) for word in WORD.findall(node.value)]
    return out


def _definitions(tree: ast.Module):
    """``(qualified name, node)`` of the top-level defs and classes and of
    the methods in class bodies, dunder functions aside."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, ast.FunctionDef) and node.name.startswith("__"):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item


def test_every_package_definition_has_a_caller_outside_the_unit_tests():
    users = [
        *sorted(PACKAGE.glob("*.py")),
        *sorted((ROOT / "scripts").glob("*.py")),
        *sorted((ROOT / "perfbench").glob("*.py")),
        ROOT / "tests" / "test_acceptance.py",
    ]
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in users}
    refs = {path: _references(tree) for path, tree in trees.items()}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qualified, node in _definitions(trees[path]):
            own = range(node.lineno, node.end_lineno + 1)
            if not any(
                name == node.name and not (user == path and line in own)
                for user, found in refs.items()
                for name, line in found
            ):
                unused.append(f"{path.stem}.{qualified}")
    assert unused == []
