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


# the module that owns each key of the ``_cache`` mappings on algebras,
# graded algebras and bimodules
CACHE_OWNERS = {
    "bimod": {"content", "shared", "contents", "carriers", "mult_isos"},
    "galg": {"lmul", "rmul", "subalgebras", "algebras", "unit_decompositions", "generators"},
    "hh": {"hh", "cochain"},
}


def _cache_keys(tree):
    """String constants used as keys of a ``._cache`` mapping: subscripts,
    ``setdefault`` and ``get`` calls, and ``in`` / ``not in`` tests."""

    def is_cache(node):
        return isinstance(node, ast.Attribute) and node.attr == "_cache"

    def text(node):
        return node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else None

    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and is_cache(node.value):
            yield text(node.slice)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in ("setdefault", "get") and is_cache(node.func.value)
              and node.args):
            yield text(node.args[0])
        elif (isinstance(node, ast.Compare) and len(node.ops) == 1
              and isinstance(node.ops[0], (ast.In, ast.NotIn)) and is_cache(node.comparators[0])):
            yield text(node.left)


def test_every_cache_key_has_one_owning_module():
    # two modules writing one key of the same mapping would overwrite each
    # other's entries
    owners = collections.defaultdict(set)
    for path in sorted(SRC.rglob("*.py")):
        for key in _cache_keys(ast.parse(path.read_text(), str(path))):
            assert key is not None, f"{path.name}: a _cache key that is not a string constant"
            owners[key].add(path.stem)
    shared = {key: mods for key, mods in owners.items() if len(mods) > 1}
    assert not shared
    found = collections.defaultdict(set)
    for key, (mod,) in owners.items():
        found[mod].add(key)
    assert found == CACHE_OWNERS


# the tag that leads every key of a ``bimod._shared`` cache, and the one
# function that writes entries under it
SHARED_TAGS = {"validate": "graded_carrier", "tensor_over": "tensor_over",
               "module_homs": "module_hom_basis", "is_projective": "is_projective",
               "mult_iso": "_build_mult_iso"}


def test_every_shared_cache_tag_has_one_owning_function():
    # entries of different kinds share one dict per module content, so two
    # functions using one tag would read each other's entries
    tree = ast.parse((SRC / "gradedhh" / "bimod.py").read_text())

    def is_shared_call(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "_shared")

    owners, scanned, calls = collections.defaultdict(set), set(), set()
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef) or fn.name == "_shared":
            continue
        for node in ast.walk(fn):
            if is_shared_call(node):
                calls.add(id(node))
            # cache, key = _shared(m), ("tag", ...)
            if (isinstance(node, ast.Tuple) and len(node.elts) == 2
                    and is_shared_call(node.elts[0]) and isinstance(node.elts[1], ast.Tuple)):
                tag = node.elts[1].elts[0]
                assert isinstance(tag, ast.Constant) and isinstance(tag.value, str)
                owners[tag.value].add(fn.name)
                scanned.add(id(node.elts[0]))
    # every lookup is one the scan reads
    assert calls == scanned
    assert owners == {tag: {fn} for tag, fn in SHARED_TAGS.items()}


def test_no_option_less_unique_under_src():
    # numpy 2's np.unique(x) without options asks np.ma.is_masked, which
    # imports numpy.ma on first use (13.5 ms and about 1.2 MB per process)
    bare = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "unique" and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "np" and len(node.args) <= 1
                    and not node.keywords):
                bare.append(f"{path.name}:{node.lineno}")
    assert not bare
