"""Scans of the package source."""

import ast
import collections
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# functions that nothing under src/ calls, each kept for a stated reason
UNREFERENCED = {
    "kronecker": "PrimeField.kronecker: the dense oracles and the benchmark's tracer use it",
    "transfer_up": "MackeySystem.transfer_up: public API, shown in the README",
    "restriction": "MackeySystem.restriction: public API, shown in the README",
    "conjugation": "MackeySystem.conjugation: public API, shown in the README",
    "multiply": "Algebra.multiply: public API, used by the tests on algebras",
}


def test_every_function_under_src_is_referenced_under_src():
    # a reference is a name, an attribute or an import of the name in code;
    # docstrings and comments do not count
    defined, referenced = set(), collections.Counter()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name):
                referenced[node.id] += 1
            elif isinstance(node, ast.Attribute):
                referenced[node.attr] += 1
            elif isinstance(node, ast.alias):
                referenced[node.name] += 1
    # special methods are called by the interpreter
    unreferenced = {name for name in defined
                    if not referenced[name] and not (name.startswith("__") and name.endswith("__"))}
    assert unreferenced == set(UNREFERENCED)
