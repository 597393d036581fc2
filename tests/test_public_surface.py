"""The library's public surface is what the pipeline reaches.

Every public top-level function and class of `src/cbplab` and
`perfbench`, and every public method of their classes, must be named
somewhere in those files outside its own definition: as a name, an
attribute or a string (the traced benchmark wraps functions by name).
Tests do not count as callers; an audit only tests call belongs in
`tests/checks.py`."""

import ast
import collections
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _imports_pytest(tree):
    return any(isinstance(node, ast.Import)
               and any(a.name == "pytest" for a in node.names)
               for node in tree.body)


def _sources():
    """Parsed program files by path: neither the package's __init__, whose
    exports call nothing, nor a test module (one that imports pytest)."""
    paths = (glob.glob(os.path.join(ROOT, "src", "cbplab", "*.py"))
             + glob.glob(os.path.join(ROOT, "perfbench", "*.py")))
    trees = {}
    for path in sorted(paths):
        if os.path.basename(path) != "__init__.py":
            with open(path) as fh:
                trees[os.path.relpath(path, ROOT)] = ast.parse(fh.read())
    return {p: t for p, t in trees.items() if not _imports_pytest(t)}


def _mentions(node):
    """Every identifier `node` mentions, counted."""
    out = collections.Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out[sub.value] += 1
    return out


def _public_definitions(tree):
    """(qualified name, name, node) of each public top-level function and
    class, and of each public method of a top-level class."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if (isinstance(node, (*functions, ast.ClassDef))
                and not node.name.startswith("_")):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, functions)
                        and not item.name.startswith("_")):
                    yield f"{node.name}.{item.name}", item.name, item


def test_every_public_name_is_reached_outside_the_tests():
    trees = _sources()
    total = sum((_mentions(tree) for tree in trees.values()),
                collections.Counter())
    unreached = [f"{path}: {qual}"
                 for path, tree in trees.items()
                 for qual, name, node in _public_definitions(tree)
                 if total[name] - _mentions(node)[name] <= 0]
    assert not unreached, unreached
