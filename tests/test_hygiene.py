"""Source hygiene checks that need nothing beyond the standard library."""

import ast
import os
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never read in the module.

    A name counts as read when it appears as a bare name anywhere (code and
    annotations alike) or is listed in the module's ``__all__``.
    ``from __future__`` imports are directives, not names.
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def public_names_unread(package: Path) -> list[str]:
    """Names in the package's ``__all__`` that no other module of it reads.

    A public name that only the tests call is API kept for the tests alone.
    A name counts as read when it appears as a bare name being loaded in any
    module of the package other than ``__init__.py``.
    """
    public: list[str] = []
    for node in ast.walk(ast.parse((package / "__init__.py").read_text())):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            public = ast.literal_eval(node.value)
    read: set[str] = set()
    for path in package.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
    return [name for name in public if name not in read]


def test_every_public_name_is_read_by_the_package():
    assert public_names_unread(ROOT / "src" / "diskcover") == []


def private_names_unread(package: Path) -> list[str]:
    """Private module-level names of the package that their own module never
    reads, as ``module: name``.

    A private name is a module-level function, class or assigned name with
    a leading underscore and no trailing one.  It counts as read where it is
    loaded as a bare name in its module outside its own definition, so a
    recursion does not count.
    """
    unread: list[str] = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined: dict[str, ast.stmt] = {}
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                names = [top.name]
            else:
                targets = getattr(top, "targets", [getattr(top, "target", None)])
                names = [n.id for t in targets if t for n in ast.walk(t) if isinstance(n, ast.Name)]
            for name in names:
                if name.startswith("_") and not name.endswith("_"):
                    defined[name] = top
        read = {
            node.id
            for top in tree.body
            for node in ast.walk(top)
            if isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)
            and defined.get(node.id) is not top
        }
        unread += [f"{path.name}: {name}" for name in defined if name not in read]
    return unread


def test_every_private_name_is_read_in_its_module():
    assert private_names_unread(ROOT / "src" / "diskcover") == []


def test_flags_a_private_name_its_module_never_reads(tmp_path):
    (tmp_path / "m.py").write_text(
        "import numpy as np\n"
        "_USED = np.array([1.0])\n_LEFT = np.array([-1.0, 1.0])\n_A, _B = 1, 2\n"
        "__all__ = ['run']\n\n"
        "def _loop(n):\n    return _loop(n - 1) if n else 0\n\n"
        "class _Cells:\n    pass\n\n"
        "def run():\n    return _USED, _A, _Cells()\n"
    )
    assert private_names_unread(tmp_path) == ["m.py: _LEFT", "m.py: _B", "m.py: _loop"]


def methods_unread(package: Path) -> list[str]:
    """Methods of the package's classes with no base class that no module of
    it reads as an attribute, as ``module: Class.method``.

    A method counts as read where its name is loaded as an attribute
    (``self.column``, ``report.mean_m``) anywhere in the package.  Dunder
    methods are called by Python, and a class with a base may override a
    method that the base calls (``cli._Parser.error``), so both are skipped.
    """
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    read = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return [
        f"{name}: {cls.name}.{fn.name}"
        for name, tree in trees.items()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and not cls.bases
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef)
        and not (fn.name.startswith("__") and fn.name.endswith("__"))
        and fn.name not in read
    ]


def test_every_method_is_read_by_the_package():
    assert methods_unread(ROOT / "src" / "diskcover") == []


def test_flags_a_method_no_module_reads(tmp_path):
    (tmp_path / "m.py").write_text(
        "import argparse\n\n"
        "class _Cells:\n"
        "    def __init__(self):\n        self.n = self.count()\n"
        "    def count(self):\n        return 0\n"
        "    def box(self):\n        return []\n\n"
        "class _Parser(argparse.ArgumentParser):\n"
        "    def error(self, message):\n        raise ValueError(message)\n"
    )
    assert methods_unread(tmp_path) == ["m.py: _Cells.box"]


def _name_of(node: ast.AST) -> str:
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else ""


def _is_dataclass(node: ast.ClassDef) -> bool:
    """Whether the class is decorated ``@dataclass`` or ``@dataclass(...)``."""
    return any(
        _name_of(d.func if isinstance(d, ast.Call) else d) == "dataclass"
        for d in node.decorator_list
    )


def unpassed_keywords(package: Path, callers: list[Path]) -> list[str]:
    """Defaulted parameters of the package's public functions, and defaulted
    fields of its public dataclasses, that no call passes.

    A public function or dataclass is a module-level ``def`` or ``@dataclass``
    class whose name has no leading underscore; a dataclass's parameters are
    its annotated fields, in order.  A parameter with a default counts as
    passed when a call in the package or under ``callers`` names the function
    or class and gives it, by keyword or at its position; a field counts as
    passed also when a ``replace`` call gives it by keyword.  A call names
    the function when it calls it directly or hands it on as an argument, as
    in ``call(span, fn, *args)``; then the arguments after it are the
    function's.  Matching is by name.
    """
    defaulted: list[tuple[str, str, int, str, bool]] = []
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                params = node.args.posonlyargs + node.args.args
                first = len(params) - len(node.args.defaults)
                for i, arg in enumerate(params[first:], first):
                    defaulted.append((path.stem, node.name, i, arg.arg, False))
                for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
                    if default is not None:
                        defaulted.append((path.stem, node.name, -1, arg.arg, False))
            elif (
                isinstance(node, ast.ClassDef)
                and not node.name.startswith("_")
                and _is_dataclass(node)
            ):
                fields = [f for f in node.body if isinstance(f, ast.AnnAssign)]
                for i, f in enumerate(fields):
                    if f.value is not None:
                        defaulted.append((path.stem, node.name, i, f.target.id, True))

    positions: dict[str, int] = {}
    keywords: dict[str, set[str]] = {}
    paths = list(package.glob("*.py")) + [p for d in callers for p in d.rglob("*.py")]
    for path in paths:
        for call in ast.walk(ast.parse(path.read_text())):
            if not isinstance(call, ast.Call):
                continue
            named = [(_name_of(call.func), call.args)]
            named += [(_name_of(a), call.args[i + 1 :]) for i, a in enumerate(call.args)]
            for fn, args in named:
                if not fn:
                    continue
                starred = [i for i, a in enumerate(args) if isinstance(a, ast.Starred)]
                given = starred[0] if starred else len(args)
                positions[fn] = max(positions.get(fn, 0), given)
                keywords.setdefault(fn, set()).update(k.arg for k in call.keywords if k.arg)
    replaced = keywords.get("replace", set())
    return [
        f"{module}.{fn}: {arg}"
        for module, fn, i, arg, is_field in defaulted
        if arg not in keywords.get(fn, set())
        and not 0 <= i < positions.get(fn, 0)
        and not (is_field and arg in replaced)
    ]


def test_every_keyword_parameter_is_passed():
    # perfbench is a real caller: it passes solve_spiral's deterministic_start,
    # whose one accepted value is True.  The parameter goes once the benchmark
    # stops passing it.
    assert unpassed_keywords(ROOT / "src" / "diskcover", [ROOT / "perfbench"]) == []


def helpers_unread(module: Path, tests: Path) -> list[str]:
    """Top-level functions of ``module`` that no module under ``tests`` reads
    outside the function's own definition.

    A function counts as read where its name is loaded as a bare name or as
    an attribute (``oracles.helper``); a read inside its own body, as in a
    recursion, does not count.
    """
    defined = [n.name for n in ast.parse(module.read_text()).body if isinstance(n, ast.FunctionDef)]
    read: set[str] = set()
    for path in tests.rglob("*.py"):
        for top in ast.parse(path.read_text()).body:
            own = top.name if path == module and isinstance(top, ast.FunctionDef) else None
            for node in ast.walk(top):
                if isinstance(getattr(node, "ctx", None), ast.Load) and _name_of(node) != own:
                    read.add(_name_of(node))
    return [name for name in defined if name not in read]


def test_every_reference_helper_is_read():
    assert helpers_unread(ROOT / "tests" / "oracles.py", ROOT / "tests") == []


def test_flags_a_reference_helper_no_test_reads(tmp_path):
    (tmp_path / "oracles.py").write_text(
        "def _step(n):\n    return n - 1\n\n"
        "def used(n):\n    return _step(n)\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n"
        "def unused():\n    return used(1)\n"
    )
    (tmp_path / "test_a.py").write_text("import oracles\n\ndef test_a():\n    oracles.used(2)\n")
    assert helpers_unread(tmp_path / "oracles.py", tmp_path) == ["recursive", "unused"]


def point_conversions(package: Path) -> list[str]:
    """Calls that convert an instance's point list, outside ``problem.py``.

    A conversion is an ``array`` or ``asarray`` call (``np.array``,
    ``np.asarray``, ``array.array``) given, as a positional argument, a
    ``.points`` attribute or a name that the enclosing function binds to one
    (``pts = inst.points``).  ``Instance`` converts its points once, to
    ``inst.xy``; a solver reads that instead.
    """
    def is_points(node: ast.AST) -> bool:
        return isinstance(node, ast.Attribute) and node.attr == "points"

    found: set[str] = set()
    for path in sorted(package.glob("*.py")):
        if path.name == "problem.py":
            continue
        tree = ast.parse(path.read_text())
        scopes = [(tree, set())]
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                aliases = {
                    t.id
                    for node in ast.walk(fn)
                    if isinstance(node, ast.Assign) and is_points(node.value)
                    for t in node.targets
                    if isinstance(t, ast.Name)
                }
                scopes.append((fn, aliases))
        for scope, aliases in scopes:
            for call in ast.walk(scope):
                if (
                    isinstance(call, ast.Call)
                    and _name_of(call.func) in ("array", "asarray")
                    and any(
                        is_points(a) or (isinstance(a, ast.Name) and a.id in aliases)
                        for a in call.args
                    )
                ):
                    found.add(f"{path.name}:{call.lineno}")
    return sorted(found)


def test_points_are_converted_in_problem_only():
    assert point_conversions(ROOT / "src" / "diskcover") == []


def test_flags_a_point_conversion(tmp_path):
    (tmp_path / "problem.py").write_text("xy = np.array(inst.points)\n")
    (tmp_path / "m.py").write_text(
        "import numpy as np\n"
        "def a(inst):\n    return np.asarray(inst.points, dtype=float)\n"
        "def b(inst):\n    pts = inst.points\n    return np.array(pts)\n"
        "def c(inst):\n    return array('d', inst.xy.tobytes()), np.array(inst.radius)\n"
        "def d(pts):\n    return np.array(pts)\n"
    )
    assert point_conversions(tmp_path) == ["m.py:3", "m.py:6"]


def coverage_rule_calls(package: Path) -> list[str]:
    """Calls of ``coverage_bound`` or ``within_radius`` outside ``problem.py``
    and ``geometry.py``.

    ``Instance`` works out its coverage bound once, as ``inst.bound``; a
    solver reads that instead of deriving the slack from the radius again.
    """
    found: list[tuple[str, int]] = []
    for path in sorted(package.glob("*.py")):
        if path.name in ("problem.py", "geometry.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and _name_of(node.func) in (
                "coverage_bound",
                "within_radius",
            ):
                found.append((path.name, node.lineno))
    return [f"{name}:{line}" for name, line in sorted(found)]


def test_the_coverage_bound_is_worked_out_in_problem_only():
    assert coverage_rule_calls(ROOT / "src" / "diskcover") == []


def test_flags_a_coverage_bound_call(tmp_path):
    (tmp_path / "problem.py").write_text("bound = coverage_bound(radius)\n")
    (tmp_path / "geometry.py").write_text("ok = within_radius(1.0, 1.0)\n")
    (tmp_path / "m.py").write_text(
        "def a(inst):\n    return inst.bound\n"
        "def b(inst, d):\n    return geometry.within_radius(inst.radius, d)\n"
        "def c(r):\n    return 2.0 * coverage_bound(r)\n"
    )
    assert coverage_rule_calls(tmp_path) == ["m.py:4", "m.py:6"]


# The modules that may build a random generator: bench.py draws topologies,
# baselines.py the trials of k-means and random, and geometry.py holds
# one_center's fixed shuffle.
RANDOM_MODULES = ("bench.py", "baselines.py", "geometry.py")


def random_generators(package: Path) -> list[str]:
    """Calls of ``PCG64`` or ``Random`` (``np.random.PCG64(seed)``,
    ``random.Random(0x5EED5)``) outside RANDOM_MODULES, as ``module:line``."""
    found: list[tuple[str, int]] = []
    for path in sorted(package.glob("*.py")):
        if path.name in RANDOM_MODULES:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and _name_of(node.func) in ("PCG64", "Random"):
                found.append((path.name, node.lineno))
    return [f"{name}:{line}" for name, line in sorted(found)]


def test_randomness_lives_in_three_modules():
    assert random_generators(ROOT / "src" / "diskcover") == []


def test_flags_a_random_generator(tmp_path):
    (tmp_path / "bench.py").write_text("rng = np.random.Generator(np.random.PCG64(seed))\n")
    (tmp_path / "geometry.py").write_text("random.Random(0x5EED5).shuffle(order)\n")
    (tmp_path / "m.py").write_text(
        "def a(seed):\n    return np.random.Generator(np.random.PCG64(seed))\n"
        "def b():\n    return Random(7), np.random.default_rng\n"
    )
    assert random_generators(tmp_path) == ["m.py:2", "m.py:4"]


def test_instance_xy_is_its_points_read_only():
    # Imported here, so that the module itself needs only the standard library.
    from diskcover import Instance

    inst = Instance([(0, -0.0), (1e-300, 2.5), (-3, 4e300)], radius=1)
    assert not inst.xy.flags.writeable
    assert inst.xy.shape == (3, 2)
    assert inst.xy.tobytes() == array("d", [c for p in inst.points for c in p]).tobytes()


class TestUnusedImports:
    def test_flags_an_unread_import(self):
        assert unused_imports("import math\nfrom os import path as p\n") == [
            "math (line 1)",
            "p (line 2)",
        ]

    def test_reads_through_attributes_annotations_and_all(self):
        source = (
            "from __future__ import annotations\n"
            "import os.path\n"
            "from typing import Optional\n"
            "from .a import exported\n"
            "__all__ = ['exported']\n"
            "def f(x: Optional[int]) -> str:\n"
            "    return os.path.join('a', str(x))\n"
        )
        assert unused_imports(source) == []


def test_flags_a_public_name_only_defined(tmp_path):
    (tmp_path / "__init__.py").write_text(
        "from .m import helper, used\n__all__ = ['helper', 'used']\n"
    )
    (tmp_path / "m.py").write_text(
        "def used():\n    return 1\n\ndef helper():\n    return used()\n"
    )
    assert public_names_unread(tmp_path) == ["helper"]


def test_flags_a_keyword_no_call_passes(tmp_path):
    package, callers = tmp_path / "pkg", tmp_path / "callers"
    package.mkdir()
    callers.mkdir()
    (package / "m.py").write_text(
        "def solve(inst, seed=0, keep=False, *, verbose=False):\n    return inst\n\n"
        "def _helper(flag=False):\n    return flag\n\n"
        "def run(rest):\n    return solve(1, *rest), _helper()\n"
    )
    (callers / "c.py").write_text("call('span', solve, 1, verbose=True)\n")
    assert unpassed_keywords(package, [callers]) == ["m.solve: seed", "m.solve: keep"]
    (callers / "d.py").write_text("solve(1, 2, keep=True)\n")
    assert unpassed_keywords(package, [callers]) == []


def test_flags_a_dataclass_field_no_construction_passes(tmp_path):
    package, callers = tmp_path / "pkg", tmp_path / "callers"
    package.mkdir()
    callers.mkdir()
    (package / "m.py").write_text(
        "from dataclasses import dataclass, field, replace\n\n"
        "@dataclass(frozen=True)\nclass Config:\n"
        "    points: list\n    trials: int = 100\n    limit: int = 5\n"
        "    tags: list = field(default_factory=list)\n    note: str = ''\n\n"
        "@dataclass\nclass _Private:\n    flag: bool = False\n\n"
        "def run(cfg):\n    return replace(cfg, limit=3)\n"
    )
    (callers / "c.py").write_text("Config([], 50)\n")
    assert unpassed_keywords(package, [callers]) == ["m.Config: tags", "m.Config: note"]
    (callers / "d.py").write_text("m.Config([], tags=[1], note='x')\n")
    assert unpassed_keywords(package, [callers]) == []


# Modules no import of the package may load: scipy.optimize alone adds about
# 49 MB of peak resident memory and numpy.ma about 1.2 MB, so either would
# move every benchmark workload's memory and start-up time.
HEAVY_MODULES = ("scipy", "numpy.ma")


def test_import_loads_no_heavy_module():
    # Importing every module, then one small oracle, k-means and spiral
    # solve: a call can load what an import does not (np.unique loads
    # numpy.ma, about 1.9 MB of peak resident memory).
    package = ROOT / "src" / "diskcover"
    names = sorted(f"diskcover.{p.stem}" for p in package.glob("*.py") if p.stem != "__init__")
    code = (
        "import importlib, sys\n"
        f"for name in {['diskcover'] + names!r}:\n"
        "    importlib.import_module(name)\n"
        "import diskcover as dc\n"
        "pts = [(0.0, 0.0), (1.0, 0.2), (0.3, 1.1), (2.5, 2.0), (0.0, 0.0)]\n"
        "inst = dc.Instance(pts, radius=0.8)\n"
        "dc.min_cover(inst)\n"
        "dc.solve_kmeans(inst, 0, dc.TrialConfig(trials=3))\n"
        "dc.solve_spiral(inst)\n"
        "print('\\n'.join(sys.modules))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    loaded = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "diskcover.exact" in loaded
    heavy = [m for m in loaded if any(m == h or m.startswith(h + ".") for h in HEAVY_MODULES)]
    assert heavy == []
