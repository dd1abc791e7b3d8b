"""Every defaulted parameter of the package is passed by some call.

A parameter with a default that no call in ``src/``, ``tests/``, ``bench/``
or ``demos/`` passes is one value in use: it belongs in a constant. Calls
are matched to definitions by name, so a call passes parameter k of every
function or method of that name; methods skip ``self`` or ``cls``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "wamalgam"
SOURCES = [p for d in ("src", "tests", "bench", "demos") for p in (ROOT / d).rglob("*.py")]

# the parameters set only through a registry, which no call names:
# "function(parameter)": the route that sets it
REGISTRY_ROUTES = {
    "gaussian_bump_sum(n)": "build_family(**kwargs) -> gaussian_bump_sum(n)",
}


def _defaulted(tree):
    """``(name, parameter) -> positional index or None`` for every defaulted
    parameter of the functions and methods defined in ``tree``."""
    params = {}
    methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
               for f in c.body if isinstance(f, ast.FunctionDef)}
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        skip = 1 if id(node) in methods and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod"
            for d in node.decorator_list) else 0
        for k, arg in enumerate(positional[len(positional) - len(args.defaults):],
                                len(positional) - len(args.defaults)):
            params[(node.name, arg.arg)] = k - skip
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                params[(node.name, arg.arg)] = None
    return params


def _passed(tree):
    """``(name, parameter or positional index)`` for what each call passes;
    ``partial(f, ...)`` passes to f. A starred argument passes every index,
    spelled ``"*"``; ``**d`` passes the keys of ``d = dict(...)`` or of a
    dict literal assigned in the same module, and nothing otherwise."""
    dicts = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            value = node.value
            if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "dict":
                keys = [kw.arg for kw in value.keywords]
            elif isinstance(value, ast.Dict):
                keys = [k.value for k in value.keys if isinstance(k, ast.Constant)]
            else:
                continue
            dicts.setdefault(node.targets[0].id, set()).update(keys)
    passed = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func, args = node.func, node.args
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        if name == "partial" and args and isinstance(args[0], ast.Name):
            name, args = args[0].id, args[1:]
        if name is None:
            continue
        for k, arg in enumerate(args):
            passed.add((name, "*" if isinstance(arg, ast.Starred) else k))
        for kw in node.keywords:
            keys = [kw.arg] if kw.arg else dicts.get(getattr(kw.value, "id", None), ())
            passed.update((name, key) for key in keys)
    return passed


def unset_parameters(package_sources, call_sources):
    """Sorted ``function(parameter)`` for each defaulted parameter of
    ``package_sources`` that no call in ``call_sources`` passes."""
    params = {}
    for source in package_sources:
        params |= _defaulted(ast.parse(source))
    passed = set().union(*(_passed(ast.parse(s)) for s in call_sources))
    return sorted(
        f"{name}({param})" for (name, param), index in params.items()
        if (name, param) not in passed
        and (index is None or not {(name, k) for k in (index, "*")} & passed))


def test_every_defaulted_parameter_is_passed():
    """Each parameter that no call passes is set through a registry route."""
    package = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    unset = unset_parameters(package, [p.read_text() for p in SOURCES])
    assert unset == sorted(REGISTRY_ROUTES)


def test_the_check_finds_an_unset_parameter():
    package = ("def f(a, b=1, *, c=2, d=3):\n    pass\n"
               "class K:\n    def m(self, x=0, y=0):\n        pass\n")
    calls = "f(0, 5)\nf(0, d=1)\nK().m(1)\n"
    assert unset_parameters([package], [calls]) == ["f(c)", "m(y)"]
