"""The runtime is stdlib-only, and its modules import one another in layers."""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import lolab

# each module may import only the layers before its own
LAYERS = (
    ("rational",),
    ("engine",),
    ("bounds",),
    ("antichain", "oracle"),
    ("search",),
    ("cli",),
)
RANK = {name: i for i, layer in enumerate(LAYERS) for name in layer}


def layer_breaches(name: str, source: str) -> list[str]:
    """The lolab modules that module `name` imports from its own layer or a later one.

    A name imported from the package itself counts as its __init__, which
    comes after every layer.
    """
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            paths = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ("lolab" if node.level else "", node.module)))
            paths = [f"{module}.{alias.name}" for alias in node.names]
        else:
            continue
        for path in paths:
            parts = path.split(".")
            if parts[0] == "lolab" and len(parts) > 1:
                imported.add(parts[1] if parts[1] in RANK else "__init__")
    return sorted(m for m in imported if RANK.get(m, len(LAYERS)) >= RANK[name])


def test_modules_import_only_earlier_layers():
    package = Path(lolab.__file__).resolve().parent
    names = sorted(path.stem for path in package.glob("*.py"))
    assert set(names) - {"__init__"} == set(RANK), "a module has no place in LAYERS"
    for name in RANK:
        assert layer_breaches(name, (package / f"{name}.py").read_text()) == [], name


@pytest.mark.parametrize(
    "name, source, breaches",
    [
        ("bounds", "from .search import SearchProblem", ["search"]),
        ("oracle", "from . import antichain", ["antichain"]),
        ("engine", "import lolab.cli", ["cli"]),
        ("search", "from lolab import NormSpec", ["__init__"]),
        ("search", "from .bounds import NormSpec\nfrom .oracle import derived_seed", []),
    ],
)
def test_the_layer_scan_sees_every_import_form(name, source, breaches):
    assert layer_breaches(name, source) == breaches


# the one home of integer square roots and binomials, so that every norm is
# rounded and every count is taken in one place
ROUNDING_HOME = "bounds"
ROUNDING_NAMES = {"isqrt", "comb"}


def rounding_uses(source: str) -> list[str]:
    """The math.isqrt and math.comb uses in a module's source: each import of
    either name from math, and each math.<name> or <alias>.<name> where the
    alias is math imported under another name."""
    tree = ast.parse(source)
    aliases = {"math"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {a.asname for a in node.names if a.name == "math" and a.asname}
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "math" and not node.level:
            uses += [f"math.{a.name}" for a in node.names if a.name in ROUNDING_NAMES]
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in ROUNDING_NAMES
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        ):
            uses.append(f"math.{node.attr}")
    return sorted(uses)


def test_only_bounds_takes_integer_square_roots_and_binomials():
    package = Path(lolab.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        if path.stem != ROUNDING_HOME:
            assert rounding_uses(path.read_text()) == [], path.name


@pytest.mark.parametrize(
    "source, uses",
    [
        ("from math import gcd, isqrt", ["math.isqrt"]),
        ("from math import comb as choose", ["math.comb"]),
        ("import math\nk = math.isqrt(9)", ["math.isqrt"]),
        ("import math as m\nc = m.comb(4, 2)", ["math.comb"]),
        ("import math\nf = math.comb", ["math.comb"]),
        ("import math\nk = math.ceil(1.5)\nfrom math import gcd", []),
        ("from .bounds import rounded_norms", []),
    ],
)
def test_the_rounding_scan_sees_every_use(source, uses):
    assert rounding_uses(source) == uses


# inside bounds, every sign count is nonuniform_count's binomial, and the
# antichain size bound milner_bound's
BINOMIAL_HOMES = {"nonuniform_count", "milner_bound"}


def comb_callers(source: str) -> list[str]:
    """The functions in a module's source that take math.comb, by name: a
    math.comb or <alias>.comb where the alias is math, or a name imported
    as comb from math. A use outside every function is named "<module>"."""
    tree = ast.parse(source)
    aliases, names = {"math"}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {a.asname for a in node.names if a.name == "math" and a.asname}
        elif isinstance(node, ast.ImportFrom) and node.module == "math" and not node.level:
            names |= {a.asname or a.name for a in node.names if a.name == "comb"}
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if (
                isinstance(child, ast.Attribute)
                and child.attr == "comb"
                and isinstance(child.value, ast.Name)
                and child.value.id in aliases
            ) or (isinstance(child, ast.Name) and child.id in names):
                found.add(owner)
            functions = (ast.FunctionDef, ast.AsyncFunctionDef)
            visit(child, child.name if isinstance(child, functions) else owner)

    visit(tree, "<module>")
    return sorted(found)


def test_only_the_sign_count_and_milner_bound_take_binomials():
    source = (Path(lolab.__file__).resolve().parent / f"{ROUNDING_HOME}.py").read_text()
    assert sorted(set(comb_callers(source)) - BINOMIAL_HOMES) == []


@pytest.mark.parametrize(
    "source, callers",
    [
        ("import math\ndef f(n):\n    return math.comb(n, 2)", ["f"]),
        ("from math import comb as choose\ndef g(n):\n    return choose(n, 1)", ["g"]),
        ("import math as m\nclass A:\n    def h(self):\n        return m.comb(4, 2)", ["h"]),
        ("import math\ndef f(n):\n    def g():\n        return math.comb(n, 1)", ["g"]),
        ("import math\nc = math.comb(4, 2)", ["<module>"]),
        ("import math\ndef f(n):\n    return math.isqrt(n)", []),
        ("def comb(n):\n    return n\ndef f(n):\n    return comb(n)", []),
    ],
)
def test_the_binomial_scan_names_every_caller(source, callers):
    assert comb_callers(source) == callers


def computed_caps(source: str) -> list[str]:
    """The calls in a module's source whose cap= is computed where it is passed:
    a max(...) call, or a config's summand count .n, each of which would lift
    a cap to fit the request. Each is named by its line and callee."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        for keyword in node.keywords:
            value = keyword.value
            if keyword.arg == "cap" and (
                (isinstance(value, ast.Call) and ast.unparse(value.func) == "max")
                or (isinstance(value, ast.Attribute) and value.attr == "n")
            ):
                found.append(f"line {node.lineno}: {ast.unparse(node.func)}")
    return found


def test_no_call_lifts_its_cap():
    package = Path(lolab.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        assert computed_caps(path.read_text()) == [], path.name


@pytest.mark.parametrize(
    "source, found",
    [
        ("p = atom_probability(cfg, x, cap=max(cap, cfg.n))", ["line 1: atom_probability"]),
        ("p = engine.atom_probability(cfg, x, cap=cfg.n)", ["line 1: engine.atom_probability"]),
        ("f(\n  cap=max(ATOM_QUERY_CAP, extremal.n))", ["line 1: f"]),
        ("p = atom_probability(cfg, x, cap=args.cap_full)", []),
        ("p = atom_probability(cfg, x, cap=ALIGNED_CAP)", []),
        ("p = atom_probability(cfg, x, limit=cfg.n)", []),
        ("m = max(cap, cfg.n)", []),
    ],
)
def test_the_cap_scan_sees_every_lift(source, found):
    assert computed_caps(source) == found


# the one home of the wire form: every other to_json writes its values with
# rational.wire, or as a Record, never through the "p/q" helpers
WIRE_HOME = "rational"
WIRE_HELPERS = {"rat_str", "ratio_str", "vec_strs"}


def wire_helper_uses(source: str) -> list[str]:
    """The uses of rat_str, ratio_str and vec_strs inside a to_json in a
    module's source, by name or as an attribute, each named by its line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.FunctionDef) and node.name == "to_json"):
            continue
        for use in ast.walk(node):
            name = use.id if isinstance(use, ast.Name) else getattr(use, "attr", None)
            if name in WIRE_HELPERS:
                found.append(f"line {use.lineno}: {name}")
    return found


def test_only_rational_writes_the_wire_form_in_a_to_json():
    package = Path(lolab.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        if path.stem != WIRE_HOME:
            assert wire_helper_uses(path.read_text()) == [], path.name


@pytest.mark.parametrize(
    "source, found",
    [
        ("def to_json(self):\n    return {'x': rat_str(self.x)}", ["line 2: rat_str"]),
        ("def to_json(self):\n    return [*map(vec_strs, self.ws)]", ["line 2: vec_strs"]),
        (
            "class A:\n    def to_json(self):\n        return rational.ratio_str(1, 2)",
            ["line 3: ratio_str"],
        ),
        ("def to_json(self):\n    return {'x': wire(self.x)}", []),
        ("def summary(self):\n    return rat_str(self.x)", []),
        ("def to_json(self):\n    return _weight_strs(*self.state)", []),
    ],
)
def test_the_wire_scan_sees_every_use(source, found):
    assert wire_helper_uses(source) == found


# rationals enter the integer lattice once: a config's weights in its one
# rational entry, WeightConfig.of, and a target where certify reads its
# bound or extremal_config aligns its weights; every other path reads a
# config's lattice state
LATTICE_CALLERS = {("engine", "of"), ("search", "certify"), ("bounds", "extremal_config")}


def calls_of(source: str, callee: str) -> list[str]:
    """The calls of callee in a module's source, by name or as an attribute,
    each named by the innermost function that makes it, or <module>."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == callee:
                    found.append(owner)
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def test_rationals_enter_the_lattice_once():
    package = Path(lolab.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        calls = {(path.stem, owner) for owner in calls_of(path.read_text(), "lattice")}
        assert calls <= LATTICE_CALLERS, path.name


@pytest.mark.parametrize(
    "source, found",
    [
        ("def f(cfg):\n    return lattice(cfg.weights)", ["f"]),
        ("scale, points = engine.lattice(ws)", ["<module>"]),
        ("class C:\n    def g(self):\n        return [lattice([w]) for w in self.ws]", ["g"]),
        ("def of(ws):\n    def inner():\n        return lattice(ws)\n    return inner()", ["inner"]),
        ("def f(a, b):\n    return g(lattice(a), lattice(b))", ["f", "f"]),
        ("def f(cfg):\n    return lattice_law(cfg.scale, cfg.points, 1, spec)", []),
        ("def f(x):\n    return lattice_target(x, 4, 1)", []),
    ],
)
def test_the_lattice_scan_sees_every_call(source, found):
    assert calls_of(source, "lattice") == found


# the search builds a sparse law in two places: the one choice of scorer path,
# `_walk`, and `_exact_law`, the independent recomputation `certify` reads
LAW_CALLERS = {"_exact_law", "_walk"}


def test_the_search_builds_sparse_laws_in_two_places():
    source = Path(lolab.search.__file__).read_text()
    assert set(calls_of(source, "lattice_law")) <= LAW_CALLERS


@pytest.mark.parametrize(
    "source, found",
    [
        ("def _score(problem, state):\n    return lattice_law(*state, 1, spec)", ["_score"]),
        ("def _walk(p, s):\n    law = engine.lattice_law(s.scale, s.points, 1, m)", ["_walk"]),
        ("def f(cfg):\n    return [lattice_law(*a) for a in cfg]", ["f"]),
        ("def f(cfg):\n    return lattice(cfg.weights)", []),
        ("def f(state):\n    return line_half_law(state.points, 1, 3)", []),
    ],
)
def test_the_law_scan_sees_every_call(source, found):
    assert calls_of(source, "lattice_law") == found


# lattice_law is the one choice of law builder: only it makes a law from the
# sorted signed sums, and the hash kernel runs there and for the atom query's
# half-sum tables
BUILDER_CALLERS = {
    "_sorted_sign_sums": {("engine", "lattice_law")},
    "_lattice_sums": {("engine", "lattice_law"), ("engine", "atom_probability")},
}


def builder_breaches(module: str, source: str) -> list[str]:
    """The calls of a law builder in module `module`'s source from a function
    not among its callers, each as "<builder> in <function>"."""
    return sorted(
        f"{builder} in {owner}"
        for builder, callers in BUILDER_CALLERS.items()
        for owner in calls_of(source, builder)
        if (module, owner) not in callers
    )


def test_only_lattice_law_chooses_a_law_builder():
    package = Path(lolab.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        assert builder_breaches(path.stem, path.read_text()) == [], path.name


@pytest.mark.parametrize(
    "module, source, found",
    [
        (
            "engine",
            "def full_distribution(cfg):\n    return _sorted_sign_sums(keys)",
            ["_sorted_sign_sums in full_distribution"],
        ),
        (
            "engine",
            "def atom_probability(cfg, x):\n    return _sorted_sign_sums(keys)",
            ["_sorted_sign_sums in atom_probability"],
        ),
        (
            "search",
            "def _walk(p, s):\n    return engine._lattice_sums(keys, (-1, 1))",
            ["_lattice_sums in _walk"],
        ),
        (
            "search",
            "def lattice_law(s, p, d, spec):\n    return engine._sorted_sign_sums(p)",
            ["_sorted_sign_sums in lattice_law"],
        ),
        ("engine", "half = _lattice_sums([1], (-1, 1))", ["_lattice_sums in <module>"]),
        (
            "engine",
            "def lattice_law(s, p, d, m):\n    return _sorted_sign_sums(p) or _lattice_sums(p, m)",
            [],
        ),
        (
            "engine",
            "def atom_probability(cfg, x):\n    return _lattice_sums(a, u), _lattice_sums(b, u)",
            [],
        ),
    ],
)
def test_the_builder_scan_sees_every_call(module, source, found):
    assert builder_breaches(module, source) == found


# `_cuts` is the one reader of the chunk size: every writer that holds its
# text a WRITE_CHUNK at a time slices through it
CHUNK_READERS = {("engine", "_cuts")}


def chunk_readers(source: str) -> list[str]:
    """The reads of WRITE_CHUNK in a module's source, by name, under a name
    it is imported as, or as an attribute, each named by the innermost
    function that makes it, or <module>."""
    tree = ast.parse(source)
    names = {"WRITE_CHUNK"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names |= {a.asname for a in node.names if a.name == "WRITE_CHUNK" and a.asname}
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (
                (isinstance(child, ast.Name) and child.id in names)
                or (isinstance(child, ast.Attribute) and child.attr == "WRITE_CHUNK")
            ) and isinstance(child.ctx, ast.Load):
                found.append(owner)
            visit(child, owner)

    visit(tree, "<module>")
    return found


def test_only_cuts_reads_the_chunk_size():
    package = Path(lolab.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        readers = {(path.stem, owner) for owner in chunk_readers(path.read_text())}
        assert readers <= CHUNK_READERS, path.name


@pytest.mark.parametrize(
    "source, found",
    [
        ("def _cuts(atoms):\n    return range(0, len(atoms), WRITE_CHUNK)", ["_cuts"]),
        ("def f(rows):\n    for s in range(0, len(rows), WRITE_CHUNK):\n        pass", ["f"]),
        ("def g(rows):\n    return rows[: engine.WRITE_CHUNK]", ["g"]),
        ("from .engine import WRITE_CHUNK as W\ndef h(rows):\n    return rows[:W]", ["h"]),
        ("class A:\n    def write(self, rows):\n        return rows[:WRITE_CHUNK]", ["write"]),
        ("size = 2 * WRITE_CHUNK", ["<module>"]),
        ("WRITE_CHUNK = 2048\nengine.WRITE_CHUNK = 1", []),
        ("from .engine import WRITE_CHUNK", []),
        ("def f(rows):\n    return [rows[cut] for cut in _cuts(range(len(rows)))]", []),
    ],
)
def test_the_chunk_scan_sees_every_read(source, found):
    assert chunk_readers(source) == found


def test_every_module_imports_only_the_standard_library():
    package = Path(lolab.__file__).resolve().parent
    names = sorted(
        "lolab" if path.stem == "__init__" else f"lolab.{path.stem}"
        for path in package.glob("*.py")
    )
    script = (
        "import importlib, sys\n"
        "before = set(sys.modules)\n"
        f"for name in {names!r}:\n"
        "    importlib.import_module(name)\n"
        "print(*sorted({m.split('.')[0] for m in set(sys.modules) - before}))\n"
    )
    # -S skips site, so nothing outside the standard library is importable
    # but lolab itself, which PYTHONPATH points at
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(package.parent)},
    )
    assert proc.returncode == 0, proc.stderr
    new = proc.stdout.split()
    assert "lolab" in new
    assert [m for m in new if m != "lolab" and m not in sys.stdlib_module_names] == []
