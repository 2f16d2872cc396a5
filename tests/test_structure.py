"""Structural rules of the package, read from its source with ast.

No module imports another module's private (_underscore) names, every
name a module lists in __all__ is bound at its top level, the cost
models import numpy only where a least-squares fit needs it, and every
module parses on the oldest Python that pyproject.toml admits.  Each
fact is defined once: the package exports exactly its modules' __all__
lists, and one function spells a clock pairing.  The software reference
reaches no accel function and no ufunc accumulate, so it stays a second
mechanism beside the accelerator model.  Every entry of the
mutation catalogue (tests/mutants.py) still finds the text it replaces, and
names test modules that exist, and every row of the fast-path ledger
(tests/fast_paths.py) names an attribute that exists and text it finds once.
"""

import ast
import importlib
import re
import types
from pathlib import Path

import pytest

import fast_paths
import mutants
import svmsoc

PACKAGE = Path(svmsoc.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _private_imports(tree: ast.Module) -> list[str]:
    """Private names this module takes from another module of the package."""
    found = []
    modules = set()  # local names bound to package modules
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or "svmsoc" in (node.module or "")):
            for alias in node.names:
                if _is_private(alias.name):
                    found.append(f"from {node.module} import {alias.name}")
                elif node.module is None:
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("svmsoc"):
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and _is_private(node.attr)
        ):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def _top_level_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
    return names


def _all_entries(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [ast.literal_eval(elt) for elt in node.value.elts]
    return []


def test_package_has_modules():
    assert {p.stem for p in MODULES} >= {"__init__", "accel", "driver", "model_io", "synth"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_module_imports_another_modules_private_names(path):
    assert _private_imports(_tree(path)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_all_entry_is_defined(path):
    tree = _tree(path)
    missing = sorted(set(_all_entries(tree)) - _top_level_names(tree))
    assert missing == []


def _top_level_imports(tree: ast.Module) -> set[str]:
    found = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
    return found


def test_synth_has_no_module_level_numpy_import():
    assert "numpy" not in _top_level_imports(_tree(PACKAGE / "synth.py"))


MIN_PYTHON = tuple(
    int(part)
    for part in re.search(
        r'requires-python\s*=\s*">=(\d+)\.(\d+)"',
        (Path(__file__).parents[1] / "pyproject.toml").read_text(),
    ).groups()
)


def _newer_syntax(source: str) -> list[str]:
    """Constructs in source that the oldest supported Python cannot parse.

    ast's feature_version misses a starred item in a bare subscript tuple,
    x[a, *b], which only parses from 3.11 (PEP 646); x[(a, *b)] parses on 3.10.
    """
    try:
        tree = ast.parse(source, feature_version=MIN_PYTHON)
    except SyntaxError as exc:
        return [f"line {exc.lineno}: {exc.msg}"]
    if MIN_PYTHON >= (3, 11):
        return []
    return [
        f"line {node.lineno}: {ast.get_source_segment(source, node)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Subscript)
        and isinstance(node.slice, ast.Tuple)
        and any(isinstance(e, ast.Starred) for e in node.slice.elts)
        and not ast.get_source_segment(source, node.slice).startswith("(")
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_parses_on_the_oldest_supported_python(path):
    assert _newer_syntax(path.read_text()) == []


def test_checks_catch_violations():
    bad = ast.parse(
        "from .synth import _mhz\n"
        "from . import model_io\n"
        "x = model_io._F32\n"
        "__all__ = ['x', 'ghost']\n"
    )
    assert _private_imports(bad) == ["from synth import _mhz", "model_io._F32"]
    assert set(_all_entries(bad)) - _top_level_names(bad) == {"ghost"}
    assert _top_level_imports(ast.parse("import numpy as np\nfrom numpy import linalg\n")) == {
        "numpy"
    }
    assert MIN_PYTHON == (3, 10)
    assert _newer_syntax('f = fits["lat", *design]\n') == ['line 1: fits["lat", *design]']
    assert _newer_syntax('f = fits[("lat", *design)]\n') == []
    assert _newer_syntax("match x:\n    case 1:\n        pass\n") == []
    assert _newer_syntax("try:\n    pass\nexcept* ValueError:\n    pass\n") != []


# The modules whose __all__ the package re-exports; cli is the front end.
LIBRARY = [p for p in MODULES if p.stem not in ("__init__", "cli")]


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.stem)
def test_every_library_module_has_an_all(path):
    assert _all_entries(_tree(path)) != []


def test_package_exports_exactly_the_modules_all_lists():
    public = {
        name
        for name, value in vars(svmsoc).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    exported = {name for path in LIBRARY for name in _all_entries(_tree(path))}
    assert public == exported


# Every name the package exported when it kept its own list, with the
# module that defines it.
EARLIER_EXPORTS = {
    "accel": "accumulate_weight_vector decide dot_distance f32_bits run_accelerator",
    "driver": "ClockPair batch_classify cosim run_oracle run_software_reference",
    "errors": "CalibrationError DimensionError FlMismatch FrameLengthError MalformedDataset"
    " MalformedInstance MalformedModel SvmSocError UnknownCalibration UnknownDesign"
    " UnsupportedKernel",
    "model_io": "LabeledDataset StreamFrame TestInstance TrainedModel emit_dataset"
    " emit_native_model emit_stream emit_test_instance format_real load_dataset"
    " make_synthetic parse_native_model parse_stream parse_svmlight_model"
    " parse_test_instance",
    "synth": "ANCHOR_EXACT EXTRAPOLATED INTERPOLATED AnchorRow DirectiveConfig"
    " default_calibration estimate_arm_cycles estimate_design estimate_latency"
    " estimate_power explore fit_calibration load_calibration parse_anchor_csv"
    " save_calibration",
}


def test_earlier_exports_resolve_to_the_same_objects():
    pairs = [(m, name) for m, names in EARLIER_EXPORTS.items() for name in names.split()]
    assert len(pairs) == 51
    for module, name in pairs:
        assert getattr(svmsoc, name) is getattr(
            importlib.import_module(f"svmsoc.{module}"), name
        ), name


def _pairing_text_sites() -> list[str]:
    """Where the source spells a clock pairing: module and enclosing function."""
    sites = []
    for path in MODULES:
        tree = _tree(path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and " MHz / ARM " in str(node.value):
                owner = [
                    f.name
                    for f in tree.body
                    if isinstance(f, ast.FunctionDef)
                    and f.lineno <= node.lineno <= f.end_lineno
                ]
                sites.append(f"{path.stem}.{'.'.join(owner) or '<module>'}")
    return sites


def test_one_function_spells_a_clock_pairing():
    assert _pairing_text_sites() == ["synth.format_pairing"]


def _reference_path(tree: ast.Module, root: str = "run_software_reference") -> dict:
    """The module's top-level functions that root reaches through calls, by name."""
    defs = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    path, todo = {}, [root]
    while todo:
        name = todo.pop()
        if name in defs and name not in path:
            path[name] = defs[name]
            todo += [n.id for n in ast.walk(defs[name]) if isinstance(n, ast.Name)]
    return path


def _reference_path_faults(tree: ast.Module) -> list[str]:
    """Where the software reference path uses the accelerator's mechanism: a name
    imported from accel other than AccelResult, or any ufunc's accumulate."""
    accel = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module == "accel"
        for alias in node.names
    } - {"AccelResult"}
    found = []
    for name, func in _reference_path(tree).items():
        for node in ast.walk(func):
            if isinstance(node, ast.Name) and node.id in accel:
                found.append(f"{name}: {node.id}")
            elif isinstance(node, ast.Attribute) and node.attr == "accumulate":
                found.append(f"{name}: {ast.unparse(node)}")
    return found


def test_the_software_reference_keeps_its_own_mechanism():
    # a speed-up that merged the reference into the accelerator would check nothing
    tree = _tree(PACKAGE / "driver.py")
    assert {"run_software_reference", "_weight_vector", "_rounded_sum", "_lane_sum"} <= set(
        _reference_path(tree)
    )
    assert _reference_path_faults(tree) == []
    merged = ast.parse(
        "from .accel import AccelResult, decide as settle, run_accelerator\n"
        "def run_software_reference(m, t):\n    return AccelResult(*_sum(m, t))\n"
        "def _sum(m, t):\n    return settle(np.add.accumulate(m)[-1], t)\n"
        "def other():\n    return run_accelerator()\n"
    )
    assert _reference_path_faults(merged) == ["_sum: settle", "_sum: np.add.accumulate"]


@pytest.mark.parametrize("mutant", mutants.CATALOGUE, ids=lambda m: m.name)
def test_every_catalogue_entry_finds_its_text_once(mutant):
    # a refactor that moves or deletes the text strands the entry
    assert (PACKAGE / mutant.file).read_text().count(mutant.old) == 1


@pytest.mark.parametrize("mutant", mutants.CATALOGUE, ids=lambda m: m.name)
def test_every_catalogue_entry_names_test_modules_that_exist(mutant):
    # a stale or misspelt module would send every run of the entry to tier-1
    tests = Path(mutants.__file__).parent
    assert all((tests / module).is_file() for module in mutant.modules)


@pytest.mark.parametrize("row", fast_paths.PATHS, ids=lambda r: r.name)
def test_every_fast_path_row_names_an_attribute_that_exists(row):
    # a rename or a move then fails here, where the ledger would time nothing
    original = getattr(fast_paths.module_of(row), row.attr)
    fast_paths.locate(row)  # its text, once in its file
    if isinstance(row.off, str):  # the fallback is the attribute's own source, edited
        fast_paths.edited_code(row, original)
