"""No function of the package is there only for the tests.

A function of ``src/wamalgam``, module-level or a method of a class
(dunders aside), that ``tests/`` names but no file of ``src/``, ``bench/``
or ``demos/`` names is test code: it belongs in a test module such as
``tests/oracles.py``. Names are matched as plain names and attributes, so
any reference counts, a call or not; an import alone does not, so the
package's exports are no use. A method whose name is also a plain name in
``src/`` escapes the scan (``total`` and ``origin`` do).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "wamalgam"
PROGRAM = [p for d in ("src", "bench", "demos") for p in (ROOT / d).rglob("*.py")]
TESTS = sorted((ROOT / "tests").rglob("*.py"))

# the package functions that only tests name, each with why it stays
ALLOWED = {
    "p_exponent_from_quasi_constant": "criterion 09's round trip",
    "quasi_constant_from_p_exponent": "criterion 09's round trip",
    "estimator_weight_on_line": "the weighted operator-norm estimator to come",
    "identity": "the group-axiom tests read each group's identity",
}


def _defined(tree):
    methods = [node for cls in tree.body if isinstance(cls, ast.ClassDef)
               for node in cls.body]
    return {node.name for node in tree.body + methods
            if isinstance(node, ast.FunctionDef)
            and not (node.name.startswith("__") and node.name.endswith("__"))}


def _named(tree):
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}


def only_named_by_tests(package_sources, program_sources, test_sources):
    """Sorted names of the functions of ``package_sources`` that
    ``test_sources`` name and ``program_sources`` do not."""
    defined = set().union(*(_defined(ast.parse(s)) for s in package_sources))
    program = set().union(*(_named(ast.parse(s)) for s in program_sources))
    tests = set().union(*(_named(ast.parse(s)) for s in test_sources))
    return sorted((defined & tests) - program)


def test_no_package_function_serves_only_the_tests():
    found = only_named_by_tests([p.read_text() for p in sorted(PACKAGE.glob("*.py"))],
                                [p.read_text() for p in PROGRAM],
                                [p.read_text() for p in TESTS])
    assert found == sorted(ALLOWED)


def test_the_check_finds_a_test_only_function():
    package = ("def used():\n    pass\ndef oracle():\n    pass\n"
               "class K:\n    def m(self):\n        pass\n")
    program = "from pkg import oracle\nused()\n"
    tests = "import pkg\npkg.oracle()\nused()\nK().m()\n"
    assert only_named_by_tests([package], [program], [tests]) == ["m", "oracle"]
