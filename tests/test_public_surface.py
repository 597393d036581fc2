"""The library's public surface is what the pipeline reaches.

Every public top-level function and class of `src/cbplab` and
`perfbench`, and every public method of their classes, must be named
somewhere in those files outside its own definition: as a name, an
attribute or a string (the traced benchmark wraps functions by name).
Tests do not count as callers; an audit only tests call belongs in
`tests/checks.py`.  Likewise every parameter with a default must be set
by some call in those files, or it is a constant, and left out by some
call there or in the tests, or it is required."""

import argparse
import ast
import collections
import glob
import os

from cbplab import cli

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


# defaults that only tests set, with the reason each is kept
_TEST_ONLY_SETTINGS = {
    ("_pairing_core", "masses"):
        "the closed-form multiplier audit passes the exact bump moments of "
        "its atom",
}


def _defaulted_parameters(tree):
    """(callee name, parameter, position or None, default node) of each
    parameter with a default of a top-level function or of a method of a
    top-level class; calls to a class reach its __init__.  Positions count
    from the first argument a call passes, so after `self` or `cls`."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield from _defaults_of(node.name, node)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield from _defaults_of(node.name if item.name == "__init__"
                                            else item.name, item)


def _defaults_of(callee, fn):
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    if positional[:1] in (["self"], ["cls"]):
        positional = positional[1:]
    for name, default in zip(positional[len(positional) - len(args.defaults):],
                             args.defaults):
        yield callee, name, positional.index(name), default
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield callee, arg.arg, None, default


def _passed(call, name, position):
    """The expression `call` passes for the parameter, or None."""
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    if (position is not None and position < len(call.args) and not any(
            isinstance(a, ast.Starred) for a in call.args[:position + 1])):
        return call.args[position]
    return None


def _sets(value, name, default, callee, classes):
    """Whether passing `value` sets the parameter: not when it is the
    default's own literal, nor when a class call copies the same-named
    setting of another object (`SphereRule(..., seed=rule.seed)`)."""
    if (isinstance(value, ast.Constant) and isinstance(default, ast.Constant)
            and value.value == default.value):
        return False
    return not (callee in classes and isinstance(value, ast.Attribute)
                and value.attr == name)


def test_every_default_is_set_outside_the_tests():
    trees = _sources()
    calls = collections.defaultdict(list)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", getattr(func, "attr", None))
                calls[name].append(node)
    classes = {node.name for tree in trees.values() for node in tree.body
               if isinstance(node, ast.ClassDef)}
    params = [(path, *param) for path, tree in trees.items()
              if path.startswith("src")
              for param in _defaulted_parameters(tree)]
    assert set(_TEST_ONLY_SETTINGS) <= {(c, n) for _, c, n, _, _ in params}
    unset = [f"{path}: {callee}({name})"
             for path, callee, name, position, default in params
             if (callee, name) not in _TEST_ONLY_SETTINGS
             and not any(
                 (value := _passed(call, name, position)) is not None
                 and _sets(value, name, default, callee, classes)
                 for call in calls[callee])]
    assert not unset, unset


def _all_calls():
    """Calls by callee name in every file of `src/cbplab`, `perfbench` and
    `tests`, test modules included, leaving out those that unpack `*` or
    `**`: what they pass cannot be read off the call."""
    paths = (glob.glob(os.path.join(ROOT, "src", "cbplab", "*.py"))
             + glob.glob(os.path.join(ROOT, "perfbench", "*.py"))
             + glob.glob(os.path.join(ROOT, "tests", "*.py")))
    calls = collections.defaultdict(list)
    for path in paths:
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and not (
                    any(isinstance(a, ast.Starred) for a in node.args)
                    or any(kw.arg is None for kw in node.keywords)):
                func = node.func
                calls[getattr(func, "id", getattr(func, "attr", None))].append(
                    node)
    return calls


def test_every_default_is_relied_on_by_some_call():
    # a default that every call overrides is a required parameter
    calls = _all_calls()
    unused = [f"{path}: {callee}({name})"
              for path, tree in _sources().items() if path.startswith("src")
              for callee, name, position, _ in _defaulted_parameters(tree)
              if all(_passed(call, name, position) is not None
                     for call in calls[callee])]
    assert not unused, unused


def test_settable_values_do_not_grow():
    # parameters with a default in src/cbplab plus the options of every
    # subcommand; a change that adds a knob raises the bound in review
    defaults = sum(1 for path, tree in _sources().items()
                   if path.startswith("src")
                   for _ in _defaulted_parameters(tree))
    [commands] = [action for action in cli.build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction)]
    options = sum(1 for parser in commands.choices.values()
                  for action in parser._actions
                  if action.option_strings
                  and not isinstance(action, argparse._HelpAction))
    assert defaults + options <= 72, (defaults, options)


def _code_lines(source):
    """Lines of `source` that are neither blank, comment-only nor inside a
    module, class or function docstring."""
    docs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docs.update(range(first.lineno, first.end_lineno + 1))
    return sum(1 for number, line in enumerate(source.splitlines(), 1)
               if number not in docs and line.strip()
               and not line.lstrip().startswith("#"))


def test_src_code_lines_do_not_grow():
    # code lines of src/cbplab, so that writing docs costs nothing; a change
    # that adds code raises the bound in review
    total = 0
    for path in glob.glob(os.path.join(ROOT, "src", "cbplab", "*.py")):
        with open(path) as fh:
            total += _code_lines(fh.read())
    assert total <= 2360, total
