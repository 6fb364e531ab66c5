"""Every defaulted parameter of the package's public functions is passed somewhere.

A parameter whose default every caller takes is a constant dressed as an
option.  This test parses, and only reads, the ``.py`` files of the package,
the demos and perfbench.  It fails on each defaulted parameter of a public
function or method of the package that no call in those files passes, by
keyword or by position.  A call is matched to a definition by name.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "src/statefuse"
CALLERS = (PACKAGE, "demos", "perfbench")

ALLOWED = {
    # The console script calls cli_main() with no arguments; argv is how
    # the tests and python -m hand it one.
    ("cli_main", "argv"),
}


def _modules(folders):
    for folder in folders:
        for path in sorted((ROOT / folder).rglob("*.py")):
            yield ast.parse(path.read_text(encoding="utf-8"), str(path))


def _public_functions(module):
    """(def, whether it takes self or cls first) of each public module-level
    function and each public method of a public module-level class."""
    for node in module.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node, False
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    static = any(
                        isinstance(d, ast.Name) and d.id == "staticmethod"
                        for d in item.decorator_list
                    )
                    yield item, not static


def _defaulted(fn, bound: bool):
    """(position or None, name) of each defaulted parameter of ``fn``; the
    position counts the call's positional arguments, so it leaves out a
    bound method's self or cls, and a keyword-only parameter has None."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for index in range(first, len(positional)):
        yield index - bound, positional[index].arg
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield None, arg.arg


def _calls(modules):
    """Per called name: the most positional arguments of one call (None
    when one call unpacks ``*args``) and the keywords passed ("**" when one
    call unpacks ``**kwargs``)."""
    calls = {}
    for module in modules:
        for node in ast.walk(module):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            most, keywords = calls.setdefault(name, [0, set()])
            if most is not None:
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                calls[name][0] = None if starred else max(most, len(node.args))
            keywords.update(k.arg or "**" for k in node.keywords)
    return calls


def _dead_parameters(defining, calling):
    """(function, parameter) of each defaulted parameter of the ``defining``
    modules that no call of the ``calling`` modules passes."""
    calls = _calls(calling)
    dead = []
    for module in defining:
        for fn, bound in _public_functions(module):
            most, keywords = calls.get(fn.name, [0, set()])
            for position, name in _defaulted(fn, bound):
                by_position = position is not None and (most is None or most > position)
                if not (by_position or name in keywords or "**" in keywords):
                    dead.append((fn.name, name))
    return sorted(set(dead) - ALLOWED)


def test_every_defaulted_parameter_is_passed_somewhere():
    assert _dead_parameters(_modules([PACKAGE]), _modules(CALLERS)) == []

