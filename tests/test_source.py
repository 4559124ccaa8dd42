"""Lint of the package source, by its syntax tree: invariants are raised,
never asserted (``python -O`` drops asserts); no import sits inside a
function, where it could hide an import cycle; every absolute import is
from the standard library, so the package has no runtime dependencies;
and every random draw comes from a seeded generator, so every run can be
replayed. Every dotted name that a docstring of a module, class or
function quotes in single or double backticks must exist, so the
docstrings cannot drift from the code they describe. Importing the package loads none of the modules
that ``dataclasses`` would bring in. Every public method or property of
``LaurentPoly`` is read somewhere in the package outside its class, so
the tables' row type grows no API that only the tests use. Every slot
width of a packed product is sized by ``qseries._slot_bound``, so no
second width rule grows beside it. Each weight-set kind is defined once,
by its rows in ``repsets._SPECS``: no membership core or level function
grows beside them. Every public function of the package has one home:
it is read by other code of the package (or is a ``cli.cmd_*`` command),
it is listed as library API in the README's ``## Library`` section and
used by the demo or benchmark file named there, or it is kept for an open
ROADMAP item in ``KEPT_FOR_ROADMAP``."""

import ast
import builtins
import importlib
import inspect
import json
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

from dethodge import repsets, weights

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SOURCES = sorted((SRC / "dethodge").glob("*.py"))
# Public functions that no served path, demo or benchmark calls yet, each
# kept for the open ROADMAP item that is to serve it.
KEPT_FOR_ROADMAP = {
    "hodgeideals.grF_Dp_layer": "item 14, the associated graded of each simple module",
    "mhmweights.local_cohomology_weight": "item 3, Hodge filtrations on local cohomology",
}
# Modules that take most of an import's time and that the package does not
# need: dataclasses, and what it loads.
HEAVY_MODULES = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def asserts(tree):
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def nested_imports(tree):
    """Line of every import inside a function or method body."""
    return sorted({
        inner.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    })


def outside_imports(tree):
    """(line, module) for every absolute import of a module outside the
    standard library; relative imports are the package's own."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [
            (node.lineno, module)
            for module in modules
            if module.partition(".")[0] not in sys.stdlib_module_names
        ]
    return found


def unseeded_draws(tree):
    """(line, use) for every use of the ``random`` module other than a
    seeded ``random.Random(...)`` construction: the module's own functions
    draw from its global generator, which no report records."""
    seeded = {
        id(node.func)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "Random"
        and (node.args or node.keywords)
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "random":
            found += [(node.lineno, f"from random import {alias.name}") for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [
                (node.lineno, f"import random as {alias.asname}")
                for alias in node.names
                if alias.name == "random" and alias.asname not in (None, "random")
            ]
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "random"
            and id(node) not in seeded
        ):
            found.append((node.lineno, f"random.{node.attr}"))
    return sorted(found)


DOTTED_NAME = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def _params(node):
    """The parameter names of a function node."""
    args = node.args
    extra = [arg for arg in (args.vararg, args.kwarg) if arg]
    return {arg.arg for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs, *extra]}


def _documented(body, owner, cls=None, cls_params=frozenset()):
    """Each class and function node under `body`, with the names its
    docstring may use bare (a function's parameters, and the __init__
    parameters of its class) and the class object it sits in or is."""
    for node in body:
        if isinstance(node, ast.ClassDef):
            obj = getattr(owner, node.name, None)
            inits = [f for f in node.body if isinstance(f, ast.FunctionDef) and f.name == "__init__"]
            params = _params(inits[0]) if inits else set()
            yield node, params, obj
            yield from _documented(node.body, obj, obj, params)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, _params(node) | cls_params, cls
            yield from _documented(node.body, None, cls, cls_params)


MISSING = object()


def _lookup(head, cls, module, package):
    """What the first part of a quoted dotted name stands for: an attribute
    of the class, then of the module, then a module of the package, a
    builtin or a standard-library module; MISSING if none."""
    for scope in (cls, module):
        if scope is not None and hasattr(scope, head):
            return getattr(scope, head)
    candidates = [package if head == package else f"{package}.{head}"]
    if hasattr(builtins, head):
        return getattr(builtins, head)
    if head in sys.stdlib_module_names:
        candidates.append(head)
    for name in candidates:
        try:
            return importlib.import_module(name)
        except ImportError:
            continue
    return MISSING


def unresolved_doc_names(module, source, package="dethodge"):
    """Every name in single or double backticks in a docstring of the
    module, or of a class or function in its source, that resolves to
    nothing: a bare parameter name of the function (or of its class's
    __init__) resolves, else the name is an attribute chain of what
    `_lookup` finds for its first part. Quoted text that is not a dotted
    name, such as a command line, is not a name."""
    tree = ast.parse(source)
    found = []
    for node, params, cls in [(tree, set(), None), *_documented(tree.body, module)]:
        for _, text in re.findall(r"(`{1,2})([^`]+)\1", ast.get_docstring(node) or ""):
            if not DOTTED_NAME.fullmatch(text):
                continue
            head, *rest = text.split(".")
            if head in params:
                continue
            target = _lookup(head, cls, module, package)
            for attr in rest:
                target = getattr(target, attr, MISSING)
            if target is MISSING:
                found.append(text)
    return found


def unread_public_names(trees, module, class_name):
    """Each public method or property of the class that no attribute read
    in the sources names, reads inside the class body not counted."""
    [cls] = [
        node for node in trees[module].body
        if isinstance(node, ast.ClassDef) and node.name == class_name
    ]
    inside = {id(node) for node in ast.walk(cls)}
    read = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and id(node) not in inside
    }
    public = [
        node.name
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]
    return [name for name in public if name not in read]


def _loads(tree):
    """How often each name is loaded, bare or as an attribute, in a tree."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    )


def unhomed_functions(trees, homes):
    """module.name of every public module-level function that no code of
    the package loads by name outside the function's own body (``__init__``
    not counted, since it only re-exports), that is not a ``cli.cmd_*``
    command (``cli.main`` dispatches them by name), and that is not in
    `homes`."""
    trees = {module: tree for module, tree in trees.items() if module != "__init__.py"}
    loads = sum(map(_loads, trees.values()), Counter())
    return [
        f"{module[:-3]}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
        and loads[node.name] == _loads(node)[node.name]
        and not (module == "cli.py" and node.name.startswith("cmd_"))
        and f"{module[:-3]}.{node.name}" not in homes
    ]


LIBRARY_ENTRY = re.compile(r"^\* `(\w+)\.(\w+)`: `([\w/.]+)`", re.MULTILINE)


def library_entries(readme):
    """(module, name, file) of each bullet of the README's ``## Library``
    section, written "* `module.name`: `file`" and any comment after it."""
    section = readme.partition("\n## Library\n")[2].partition("\n## ")[0]
    return LIBRARY_ENTRY.findall(section)


def stray_library_entries(entries):
    """module.name of each library entry that is not a public function of
    its module, or whose file, under ``demos/`` or ``bench/``, does not
    use the name."""
    found = []
    for module, name, path in entries:
        try:
            function = getattr(importlib.import_module(f"dethodge.{module}"), name, None)
        except ImportError:
            function = None
        file = ROOT / path
        if not (
            inspect.isfunction(function)
            and function.__module__ == f"dethodge.{module}"
            and not name.startswith("_")
            and path.startswith(("demos/", "bench/"))
            and file.is_file()
            and re.search(rf"\b{name}\b", file.read_text())
        ):
            found.append(f"{module}.{name}")
    return found


def _calls(node, name):
    """Is the node a call of the function `name`, bare or as an attribute?"""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == name


def unbounded_widths(tree):
    """Line of every call of ``_slot_width`` with no call of
    ``_slot_bound`` in its arguments."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if _calls(node, "_slot_width")
        and not any(
            _calls(inner, "_slot_bound")
            for arg in [*node.args, *(keyword.value for keyword in node.keywords)]
            for inner in ast.walk(arg)
        )
    ]


def _trees():
    assert SOURCES
    return {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}


def test_the_lint_finds_what_it_looks_for():
    tree = ast.parse(
        "import os.path, numpy\n"
        "from hypothesis import given\n"
        "from . import cli\n"
        "from __future__ import annotations\n"
        "def f(x):\n"
        "    assert x\n"
        "rng = random.Random(f'{seed}|rank={rank}')\n"
        "x = rng.randint(0, 9) + random.randint(0, 9)\n"
        "y = random.random() + random.Random().random()\n"
        "from random import choice\n"
        "import random as r\n"
        "class C:\n"
        "    def method(self):\n"
        "        from json import dumps\n"
    )
    assert asserts(tree) == [6]
    assert nested_imports(tree) == [14]
    assert nested_imports(ast.parse("import os\ndef f():\n    return os.sep\n")) == []
    assert outside_imports(tree) == [(1, "numpy"), (2, "hypothesis")]
    assert unseeded_draws(tree) == [
        (8, "random.randint"),
        (9, "random.Random"),
        (9, "random.random"),
        (10, "from random import choice"),
        (11, "import random as r"),
    ]
    assert unseeded_draws(ast.parse("import random\nrng = random.Random(7)\n")) == []
    source = (
        '"""``WeightSet`` ``WeightSet.contains`` ``repsets.WeightSet.descriptor``\n'
        "``python -m dethodge`` ``dethodge`` ``nope`` ``qseries.nope``\n"
        "``nomodule.f`` ``WeightSet.nope``\n"
        "`WeightSet.contains` `oracle.line_vanishing_order` `verify oracle`\n"
        '`gone` `oracle.symbolic_membership`"""\n'
        "from dethodge.repsets import WeightSet\n"
        "def f(space, *rows, **options):\n"
        '    """`space.m` `rows` `options` `len` `math.comb` `json.nope`\n'
        '    `f` `qseries._solved_rows` `g` `used`"""\n'
        "class Row:\n"
        '    """`Row.used` `width` `used` `size`"""\n'
        "    def __init__(self, width): ...\n"
        "    def used(self, depth):\n"
        '        """`self.used` `width` `depth` `used` `Row` `height`"""\n'
        "        def inner(x):\n"
        '            """`x` `depth` `width` `WeightSet.contains`"""\n'
    )
    module = type(sys)("fake")
    exec(source, module.__dict__)
    assert unresolved_doc_names(module, source) == [
        "nope", "qseries.nope", "nomodule.f", "WeightSet.nope",
        "gone", "oracle.symbolic_membership",
        "json.nope", "qseries._solved_rows", "g", "used",
        "size",
        "height",
        "depth",
    ]
    row = ast.parse(
        "class Row:\n"
        "    def used(self):\n"
        "        return self.unread()\n"
        "    def unread(self): ...\n"
        "    @property\n"
        "    def size(self): ...\n"
        "    def _private(self): ...\n"
        "Row().used() + Row().size\n"
    )
    assert unread_public_names({"row.py": row}, "row.py", "Row") == ["unread"]
    widths = ast.parse(
        "w = _slot_width(_slot_bound(products))\n"
        "w = _slot_width(max(_slot_bound(p) for p in groups))\n"
        "w = qseries._slot_width(bound=qseries._slot_bound(products))\n"
        "w = _slot_width(comb(a + b, (a + b) // 2))\n"
        "w = _slot_width(_slot_bound)\n"
        "w = qseries._slot_width(total)\n"
    )
    assert unbounded_widths(widths) == [4, 5, 6]
    package = {
        "a.py": ast.parse(
            "def served(): ...\n"
            "def by_attribute(): ...\n"
            "def only_imported(): ...\n"
            "def recursive():\n"
            "    return recursive()\n"
            "def listed(): ...\n"
            "def _private(): ...\n"
            "async def exported(): ...\n"
            "class Row:\n"
            "    def method(self): ...\n"
        ),
        "b.py": ast.parse(
            "from .a import only_imported, served\n"
            "from . import a\n"
            "x = served() + a.by_attribute()\n"
        ),
        "cli.py": ast.parse("def cmd_run(args): ...\ndef main(): ...\n"),
        "__init__.py": ast.parse("from .a import exported\nexported()\n"),
    }
    assert unhomed_functions(package, {"a.listed"}) == [
        "a.only_imported", "a.recursive", "a.exported", "cli.main"
    ]
    readme = (
        "# Title\n\n## Library\n\nText naming `weights.leq`.\n\n"
        "* `weights.dual`: `demos/01_weight_sets.py`\n"
        "* `weights.leq`: `bench/tracer.py`, which counts\n  its calls\n"
        "* `weights.nope`: `demos/01_weight_sets.py`\n"
        "* `weights._plan`: `demos/01_weight_sets.py`\n"
        "* `weights.dual`: `demos/03_decomposition_tables.py`\n"
        "* `weights.dual`: `tests/test_weights.py`\n"
        "* `weights.dual`: `demos/none.py`\n"
        "* `nomodule.f`: `demos/01_weight_sets.py`\n"
        "* `repsets.check_weight`: `demos/01_weight_sets.py`\n"
        "\n## Next\n\n* `weights.pad`: `demos/01_weight_sets.py`\n"
    )
    entries = library_entries(readme)
    assert [f"{module}.{name}" for module, name, _ in entries] == [
        "weights.dual", "weights.leq", "weights.nope", "weights._plan", "weights.dual",
        "weights.dual", "weights.dual", "nomodule.f", "repsets.check_weight",
    ]
    assert stray_library_entries(entries) == [
        "weights.nope", "weights._plan", "weights.dual", "weights.dual", "weights.dual",
        "nomodule.f", "repsets.check_weight",
    ]


def test_no_module_asserts():
    found = {name: lines for name, tree in _trees().items() if (lines := asserts(tree))}
    assert not found, f"assert statements (raise instead): {found}"


def test_no_import_inside_a_function():
    found = {name: lines for name, tree in _trees().items() if (lines := nested_imports(tree))}
    assert not found, f"imports inside a function (move them to the top): {found}"


def test_every_absolute_import_is_stdlib():
    found = {name: hits for name, tree in _trees().items() if (hits := outside_imports(tree))}
    assert not found, f"imports from outside the standard library: {found}"


def test_every_draw_is_seeded():
    found = {name: hits for name, tree in _trees().items() if (hits := unseeded_draws(tree))}
    assert not found, f"draws outside a seeded random.Random: {found}"


def test_docstring_names_resolve():
    found = {}
    for path in SOURCES:
        name = "dethodge" if path.stem == "__init__" else f"dethodge.{path.stem}"
        if hits := unresolved_doc_names(importlib.import_module(name), path.read_text()):
            found[path.name] = hits
    assert not found, f"docstring names that do not resolve: {found}"


def test_every_slot_width_is_sized_by_slot_bound():
    found = {name: lines for name, tree in _trees().items() if (lines := unbounded_widths(tree))}
    assert not found, f"slot widths not sized by _slot_bound: {found}"


def test_qseries_has_one_polynomial_type():
    # One dense polynomial type, and the table that holds them: no second
    # form of a polynomial (packed, or as rows of coefficients) beside it.
    tree = _trees()["qseries.py"]
    classes = [node.name for node in tree.body if isinstance(node, ast.ClassDef)]
    assert classes == ["LaurentPoly", "DecompositionTable"]


def test_the_odometer_has_one_walk_shape():
    # One input shape, a piece of rows, a total being one more row of it,
    # and one output shape, runs: no separate total, no expanding flag, and
    # no box type beside the walk of the empty piece.
    def parameters(function):
        return list(inspect.signature(function).parameters)

    assert parameters(weights._decreasing_runs) == [
        "length", "lo", "hi", "piece", "descending", "dead_ends"
    ]
    assert parameters(weights._plan) == ["length", "lo", "hi", "piece"]
    records = [
        node.name for node in _trees()["weights.py"].body
        if isinstance(node, ast.ClassDef)
        and any(isinstance(base, ast.Name) and base.id == "_Record" for base in node.bases)
    ]
    assert records == []
    assert "total" not in parameters(weights.dominant_tuples)
    assert "total" not in parameters(repsets.WeightSet.members)


def second_definitions(trees):
    """(module, name) of every function whose name reads like a membership
    test or a level of its own, `_*_member` or `_*_level`."""
    return [
        (module, node.name)
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and re.fullmatch(r"_\w+_(member|level)", node.name)
    ]


def test_every_weight_set_kind_is_defined_once_by_its_rows():
    # A kind is its rows, solved by one reader: no membership field beside
    # them on _Spec, and no hand-derived membership core or level anywhere
    # in the package, which would be a second definition to drift.
    trees = _trees()
    [spec] = [
        node for node in trees["repsets.py"].body
        if isinstance(node, ast.ClassDef) and node.name == "_Spec"
    ]
    fields = [node.target.id for node in spec.body if isinstance(node, ast.AnnAssign)]
    assert fields == ["name", "args", "p_min", "param_min", "partitions_only", "keywords", "pieces"]
    assert second_definitions(trees) == []
    assert second_definitions({"t": ast.parse("def _wp_member(): pass\ndef _Fk_level(): pass")})


def test_laurent_poly_has_no_public_name_the_package_does_not_read():
    # LaurentPoly is the tables' row type: what no code outside it reads,
    # such as arithmetic that only tests would use, does not belong on it.
    assert unread_public_names(_trees(), "qseries.py", "LaurentPoly") == []


def test_value_types_have_no_public_name_the_package_does_not_read():
    # The same for the other value types. RankConstrainedSampler is left
    # out: a stream, it calls its own methods inside its class body.
    trees = _trees()
    found = {
        class_name: names
        for module, class_name in [
            ("qseries.py", "DecompositionTable"),
            ("matrixspace.py", "MatrixSpace"),
            ("repsets.py", "WeightSet"),
            ("reporting.py", "VerificationReport"),
        ]
        if (names := unread_public_names(trees, module, class_name))
    }
    assert not found, f"public names that no code outside the class reads: {found}"


def test_every_public_function_is_served_or_listed():
    # A public function is served (read by other code of the package, or a
    # cli.cmd_* command), library API listed in the README and used by the
    # demo or benchmark file it names, or kept for an open ROADMAP item:
    # one home each, so what only the tests call moves to the tests.
    entries = library_entries((ROOT / "README.md").read_text())
    listed = [f"{module}.{name}" for module, name, _ in entries]
    homes = {*listed, *KEPT_FOR_ROADMAP}
    trees = _trees()
    assert unhomed_functions(trees, homes) == [], "public functions with no home"
    assert stray_library_entries(entries) == []
    # Each listed or kept name is a public function that the package does
    # not serve, with one home: listed once, or kept.
    assert homes <= set(unhomed_functions(trees, set()))
    assert len(listed) == len(set(listed)) and not set(listed) & set(KEPT_FOR_ROADMAP)


def test_importing_the_package_loads_no_heavy_module():
    # In a fresh interpreter without the site step, so no start-up hook
    # of the installation loads one of them first.
    script = (
        f"import json, sys; sys.path.insert(0, {str(SRC)!r}); heavy = {HEAVY_MODULES!r}\n"
        "loaded = lambda: [name for name in heavy if name in sys.modules]\n"
        "before = loaded(); import dethodge; package = loaded()\n"
        "import dethodge.cli; cli = loaded()\n"
        "print(json.dumps([before, package, cli]))\n"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, check=True
    ).stdout
    assert json.loads(out) == [[], [], []]
