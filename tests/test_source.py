"""Source-level rules for the package: no ``assert`` (it vanishes under
``python -O``), no imports beyond the standard library and click, no
catch-all ``except`` (failures are raised as typed ``FreesetError``s, and a
bare ``except:`` or ``except Exception`` would swallow them), no float
arithmetic in the exact modules ``realize`` and ``rational``, no
``functools`` cache (it would outlive the calls that fill it, keeping their
graphs alive), and no module-level import that the module never uses
(``__init__`` re-exports exactly what it imports, and each exported name
resolves), every function the benchmark's layer trace wraps still
exists, no branch of ``realize`` reads a drawing's ``verified`` flag
(it is output only, so no check may be skipped on it), no Fraction is
named by ``parse_drawing``, ``verify_drawing``, ``serialize_drawing`` or
``export_svg``, and building a collinear system builds and validates no
graph."""

from __future__ import annotations

import ast
import importlib
import sys
from pathlib import Path

import pytest

import freeset

SOURCES = sorted((Path(__file__).parent.parent / "src" / "freeset").glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"click", "freeset"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_and_declared_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        where = f"{path.name}:{getattr(node, 'lineno', '?')}"
        assert not isinstance(node, ast.Assert), f"assert at {where}"
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            assert name.split(".")[0] in ALLOWED, f"import {name} at {where}"


def catch_all_handlers(tree: ast.AST) -> list[int]:
    """Lines of the bare ``except:`` clauses and of those that catch
    ``Exception`` or ``BaseException``, alone or in a tuple."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        caught = node.type.elts if isinstance(node.type, ast.Tuple) \
            else [node.type]
        if any(t is None or ast.unparse(t) in ("Exception", "BaseException")
               for t in caught):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_catch_all_except(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert catch_all_handlers(tree) == [], f"catch-all except in {path.name}"


@pytest.mark.parametrize("clause,caught", [
    ("except:", True), ("except Exception:", True),
    ("except (KeyError, BaseException) as exc:", True),
    ("except KeyError:", False), ("except (KeyError, ValueError):", False),
])
def test_catch_all_detected(clause, caught):
    tree = ast.parse(f"try:\n    pass\n{clause}\n    pass\n")
    assert catch_all_handlers(tree) == ([3] if caught else [])


CACHES = ("lru_cache", "cache")


def functools_caches(tree: ast.AST) -> list[int]:
    """Lines that import a ``functools`` cache or name it as an attribute
    of ``functools``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools" \
                and any(a.name in CACHES for a in node.names) or \
                isinstance(node, ast.Attribute) and node.attr in CACHES and \
                isinstance(node.value, ast.Name) and \
                node.value.id == "functools":
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_functools_cache(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert functools_caches(tree) == [], f"functools cache in {path.name}"


@pytest.mark.parametrize("source,found", [
    ("from functools import cmp_to_key, lru_cache\n\n"
     "@lru_cache(maxsize=24)\ndef f(g):\n    pass\n", [1]),
    ("import functools\n\n@functools.cache\ndef f(g):\n    pass\n", [3]),
    ("import functools\n\n@functools.lru_cache(maxsize=None)\n"
     "def f(g):\n    pass\n", [3]),
    ("from functools import cmp_to_key\n", []),
    ("cache = {}\ng.cache = None\n", []),
])
def test_functools_cache_detected(source, found):
    assert functools_caches(ast.parse(source)) == found


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by the module-level imports of ``tree`` (``__future__``
    aside) that the module never reads."""
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


@pytest.mark.parametrize("path", [p for p in SOURCES
                                  if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert unused_imports(tree) == [], f"unused imports in {path.name}"


@pytest.mark.parametrize("source,unused", [
    ("import os\n", ["os"]), ("import os\nos.sep\n", []),
    ("import os.path\nos.path.sep\n", []),
    ("from a import b, c as d\nd()\n", ["b"]),
    ("from __future__ import annotations\n", []),
    ("def f():\n    import os\n", []),
])
def test_unused_import_detected(source, unused):
    assert unused_imports(ast.parse(source)) == unused


def export_mismatch(tree: ast.Module) -> list[str]:
    """Names in the module's ``__all__`` that it does not import, and names
    it imports (``__future__`` aside) that ``__all__`` leaves out."""
    imported, exported = set(), set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Assign) and \
                any(isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    return sorted(imported ^ exported)


def test_exports_match_imports():
    path = next(p for p in SOURCES if p.name == "__init__.py")
    assert export_mismatch(ast.parse(path.read_text())) == []
    for name in freeset.__all__:
        assert getattr(freeset, name, None) is not None, name


@pytest.mark.parametrize("source,mismatch", [
    ("from a import b\n__all__ = ['b']\n", []),
    ("from a import b\n__all__ = ['b', 'c']\n", ["c"]),
    ("from a import b, c as d\n__all__ = ['b']\n", ["d"]),
    ("from __future__ import annotations\n__all__ = []\n", []),
])
def test_export_mismatch_detected(source, mismatch):
    assert export_mismatch(ast.parse(source)) == mismatch


EXACT = ("realize.py", "rational.py")


def float_uses(tree: ast.AST) -> list[int]:
    """Lines of the ``float(...)`` calls, float literals and
    ``limit_denominator`` references."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "float" or \
                isinstance(node, ast.Constant) and \
                isinstance(node.value, float) or \
                isinstance(node, ast.Attribute) and \
                node.attr == "limit_denominator":
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("name", EXACT)
def test_exact_modules_use_no_floats(name):
    path = next(p for p in SOURCES if p.name == name)
    tree = ast.parse(path.read_text(), filename=str(path))
    assert float_uses(tree) == [], f"float arithmetic in {name}"


@pytest.mark.parametrize("line,found", [
    ("x = float(y)", True), ("x = 1e-9 * y", True), ("x = 0.5", True),
    ("x = F(y).limit_denominator(8)", True), ("x = y ** 0.5", True),
    ("x = F(1, 2)", False), ("x = y // 2", False), ("x = 'float'", False),
])
def test_float_use_detected(line, found):
    assert float_uses(ast.parse(line)) == ([1] if found else [])


def test_sources_found():
    assert len(SOURCES) > 10


def perfbench_hooks() -> list[tuple[str, str]]:
    """(module, name) for every function that ``perfbench/layertrace.py``
    wraps, read from its ``LAYERS`` without importing it; a class method is
    named as in its ``_METHOD_ATTR``."""
    path = Path(__file__).parent.parent / "perfbench" / "layertrace.py"
    values = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and \
                isinstance(node.targets[0], ast.Name):
            if node.targets[0].id in ("LAYERS", "_METHOD_ATTR"):
                values[node.targets[0].id] = ast.literal_eval(node.value)
    hooks = []
    for layer, names in values["LAYERS"].items():
        for name in names:
            cls, _, method = name.rpartition(".")
            if cls:
                name = f"{cls}.{values['_METHOD_ATTR'][method]}"
            hooks.append((layer, name))
    return hooks


@pytest.mark.parametrize("layer,name", perfbench_hooks(),
                         ids=lambda x: x)
def test_perfbench_hooks_resolve(layer, name):
    # the benchmark's per-layer trace wraps these by name and fails on a
    # missing one
    obj = importlib.import_module(f"freeset.{layer}")
    for attr in name.split("."):
        obj = getattr(obj, attr, None)
        assert obj is not None, f"freeset.{layer}.{name} is gone"
    assert callable(obj)


GONE = ("clearance", "_COARSE_BITS", "_plan")


def gone_names(tree: ast.AST) -> list[str]:
    """The identifiers, and the string constants that name an attribute or
    slot, that still carry a name of the removed clearance: any name with
    "clearance" in it, and ``_COARSE_BITS`` and ``_plan`` exactly."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.arg):
            names = [node.arg]
        elif isinstance(node, ast.alias):
            names = [node.name, node.asname or node.name]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            names = [node.value]
        else:
            continue
        found += [n for n in names if "clearance" in n.lower()
                  or n in GONE[1:]]
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_clearance_names(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert gone_names(tree) == [], f"clearance names in {path.name}"


@pytest.mark.parametrize("source,found", [
    ("def _clearance_sq(d):\n    pass\n", ["_clearance_sq"]),
    ("x = g._plan\n", ["_plan"]), ("__slots__ = ('n', '_plan')\n", ["_plan"]),
    ("_COARSE_BITS = 60\n", ["_COARSE_BITS"]),
    ("from .realize import _clearance_plan as cp\n", ["_clearance_plan"]),
    ("plane = g._planar\n# no clearance here\n", []),
])
def test_clearance_name_detected(source, found):
    assert sorted(set(gone_names(ast.parse(source)))) == found


# the realization path: none of these may reach the sweep
REALIZATION_PATH = ("perturb_scale", "free_realize", "_collinear_base",
                    "realize_collinear")


def sweeping_functions(tree: ast.Module) -> set[str]:
    """The module-level functions that name ``verify_drawing``, directly
    or through another module-level function that does."""
    refs = {node.name: {n.id for n in ast.walk(node)
                        if isinstance(n, ast.Name)}
            for node in tree.body if isinstance(node, ast.FunctionDef)}
    sweeping = {"verify_drawing"}
    while True:
        more = {f for f, names in refs.items() if names & sweeping}
        if more <= sweeping:
            return sweeping - {"verify_drawing"}
        sweeping |= more


def test_realization_path_runs_no_sweep():
    path = next(p for p in SOURCES if p.name == "realize.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    defined = {node.name for node in tree.body
               if isinstance(node, ast.FunctionDef)}
    assert set(REALIZATION_PATH) <= defined
    sweeping = sweeping_functions(tree)
    assert "_checked" in sweeping and "tutte_solve" in sweeping
    assert sweeping.isdisjoint(REALIZATION_PATH)


def test_sweeping_function_detected():
    tree = ast.parse("def a():\n    verify_drawing(g, d)\n"
                     "def b():\n    return a()\n"
                     "def c():\n    f = verify_drawing\n"
                     "def d():\n    return 1\n")
    assert sweeping_functions(tree) == {"a", "b", "c"}


def flag_reads(tree: ast.AST) -> list[int]:
    """Lines where the test of an ``if``, ``while``, conditional expression
    or comprehension, or an operand of ``and``/``or``, reads an attribute
    named ``verified``."""
    tests = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.If, ast.While, ast.IfExp)):
            tests.append(node.test)
        elif isinstance(node, ast.BoolOp):
            tests += node.values
        elif isinstance(node, ast.comprehension):
            tests += node.ifs
    return sorted({n.lineno for t in tests for n in ast.walk(t)
                   if isinstance(n, ast.Attribute) and n.attr == "verified"})


def test_realize_never_branches_on_the_verified_flag():
    path = next(p for p in SOURCES if p.name == "realize.py")
    assert flag_reads(ast.parse(path.read_text(), filename=str(path))) == []


@pytest.mark.parametrize("source,found", [
    ("if d.verified:\n    pass\n", [1]),
    ("while not d.verified:\n    d = f(d)\n", [1]),
    ("x = d if d.verified else f(d)\n", [1]),
    ("x = all(y == 0 for y in ys) and d.verified\n", [1]),
    ("x = [d for d in ds if d.verified]\n", [1]),
    ("d = replace(d, verified=True)\n", []),
    ("d = PolyDrawing(g, pos, verified=d.verified)\n", []),
    ("if d.checked:\n    pass\n", []),
])
def test_flag_read_detected(source, found):
    assert flag_reads(ast.parse(source)) == found


# the text and svg path of a drawing reads, checks and prints it on its
# integer grid: none of these functions names a Fraction or reads the
# rational view ``GridDrawing.pos``
GRID_ONLY = {("textio.py", "parse_drawing"), ("realize.py", "verify_drawing"),
             ("textio.py", "serialize_drawing"), ("svg.py", "export_svg")}


def fraction_names(tree: ast.AST, name: str) -> list[int]:
    """Lines where the top-level function ``name`` names ``Fraction`` or
    ``F``, as a name or an attribute, or reads an attribute ``pos``."""
    fn = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
              and node.name == name)
    return sorted({node.lineno for node in ast.walk(fn)
                   if isinstance(node, ast.Name) and
                   node.id in ("Fraction", "F") or
                   isinstance(node, ast.Attribute) and
                   node.attr in ("Fraction", "F", "pos")})


@pytest.mark.parametrize("module,name", sorted(GRID_ONLY))
def test_grid_path_names_no_fraction(module, name):
    path = next(p for p in SOURCES if p.name == module)
    tree = ast.parse(path.read_text(), filename=str(path))
    assert fraction_names(tree, name) == []


@pytest.mark.parametrize("source,found", [
    ("def f(s):\n    return Fraction(s)\n", [2]),
    ("def f(d):\n    return {v: F(x, d.dx) for v, x in d.xy}\n", [2]),
    ("def f(s):\n    return fractions.Fraction(s)\n", [2]),
    ("def f(p: Fraction) -> int:\n    return p.numerator\n", [1]),
    ("def f(d):\n    return d.pos[0]\n", [2]),
    ("def f(d):\n    pos = d.xy\n    return pos\n", []),
    ("def g():\n    return F(1)\ndef f():\n    return 'F'\n", []),
])
def test_fraction_name_detected(source, found):
    assert fraction_names(ast.parse(source), "f") == found


# a collinear half is its rotation lists and face walks, checked once by the
# disk check: building a collinear system builds and validates no graph
GRAPH_BUILDERS = ("_rebuild", "build_embedded", "_checked_rotation")


def graph_builds(trees: dict[str, ast.Module],
                 start: tuple[str, str]) -> list[str]:
    """The module-level functions and classes reachable from ``start``, a
    (module, name) pair, that name a graph builder or call
    ``EmbeddedGraph``, as "module.name".  A function or class reaches each
    module-level function or class of its module that it names, and each
    that it imports by name from a package module (``from .m import n``)."""
    defs, imported = {}, {}
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[mod, node.name] = node
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for a in node.names:
                    imported[mod, a.asname or a.name] = (node.module, a.name)
    found, seen, todo = set(), {start}, [start]
    while todo:
        mod, name = todo.pop()
        for node in ast.walk(defs[mod, name]):
            if isinstance(node, ast.Call):
                f = node.func
                if getattr(f, "id", getattr(f, "attr", None)) == \
                        "EmbeddedGraph":
                    found.add(f"{mod}.{name}")
            elif isinstance(node, (ast.Name, ast.Attribute)):
                ident = getattr(node, "id", getattr(node, "attr", None))
                if ident in GRAPH_BUILDERS:
                    found.add(f"{mod}.{name}")
                ref = imported.get((mod, ident), (mod, ident))
                if isinstance(node, ast.Name) and ref in defs and \
                        ref not in seen:
                    seen.add(ref)
                    todo.append(ref)
    return sorted(found)


def test_collinear_system_builds_no_graph():
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p))
             for p in SOURCES}
    assert graph_builds(trees, ("realize", "_collinear_system")) == []
    # the same walk finds the builds of a function that makes a graph
    assert graph_builds(trees, ("embedding", "subdivide")) == \
        ["embedding._rebuild", "embedding.subdivide"]


@pytest.mark.parametrize("sources,found", [
    ({"a": "from .b import f\ndef start():\n    return f()\n",
      "b": "def f():\n    return _rebuild(rot, (0, 1))\n"}, ["b.f"]),
    ({"a": "def start():\n    return H(1)\n\n"
           "class H:\n    def __init__(self, g):\n"
           "        self.g = embedding.EmbeddedGraph(*g)\n"}, ["a.H"]),
    ({"a": "def start():\n    return choose(_checked_rotation)\n"},
     ["a.start"]),
    ({"a": "def start(g: EmbeddedGraph) -> EmbeddedGraph:\n"
           "    return helper(g)\n\ndef helper(g):\n    return g.rot\n\n"
           "def unreached():\n    return build_embedded(3, rot)\n"}, []),
])
def test_graph_build_detected(sources, found):
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    assert graph_builds(trees, ("a", "start")) == found
