"""Layout rules of the package and its tests that no behaviour test
sees."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cfchain"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def test_no_private_names_cross_modules():
    # a name one module shares with another is part of its interface:
    # it goes public, or it moves to the module that uses it
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.ImportFrom)
                    and (node.level > 0 or (node.module or "").split(".")[0]
                         == "cfchain")):
                found += [f"{path.name}: from {'.' * node.level}"
                          f"{node.module or ''} import {alias.name}"
                          for alias in node.names if _private(alias.name)]
    assert found == []


def test_test_modules_share_code_through_the_helper_module():
    # a test module imports no other: code that two of them share lives
    # in tests/scenario.py, which pytest does not collect
    found = []
    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = ([node.module or ""] if isinstance(node, ast.ImportFrom)
                     else [alias.name for alias in node.names]
                     if isinstance(node, ast.Import) else [])
            found += [f"{path.name}: import {name}" for name in names
                      if name.startswith("test_")]
    assert found == []


def test_only_the_harness_names_a_stream_role():
    # the trial draws in harness.py state which stream feeds which draw;
    # any other module draws through them
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "harness.py":
            found += [f"{path.name}:{node.lineno}" for node in ast.walk(
                ast.parse(path.read_text(), str(path)))
                if isinstance(node, ast.Attribute)
                and "Role" in (getattr(node.value, "id", None),
                               getattr(node.value, "attr", None))]
    assert found == []



def test_only_the_trial_draws_call_seed_stream():
    # a stream tuple is stated by the one trial_* draw that uses it;
    # everything else, the sweeps included, draws through those
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        in_trial = {id(node) for fn in ast.walk(tree)
                    if isinstance(fn, ast.FunctionDef)
                    and fn.name.startswith("trial_")
                    for node in ast.walk(fn)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and id(node) not in in_trial
                  and "seed_stream" in (getattr(node.func, "id", None),
                                        getattr(node.func, "attr", None))]
    assert found == []


def test_the_step_unit_quantizer_has_one_call_site():
    # quantizing in step units needs the kernel's scaled projections and
    # combiners, so kernels.evaluate_chain is the one caller of the rule
    rule = ("step_units", "quantize_in_steps")
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owner = {id(node): f"{path.name}::{fn.name}" for fn in ast.walk(tree)
                 if isinstance(fn, ast.FunctionDef) for node in ast.walk(fn)}
        found += [(owner.get(id(node), path.name), name)
                  for node in ast.walk(tree) if isinstance(node, ast.Call)
                  for name in rule
                  if name in (getattr(node.func, "id", None),
                              getattr(node.func, "attr", None))]
    assert sorted(found) == [("kernels.py::evaluate_chain", name)
                             for name in sorted(rule)]


def test_only_the_kernel_reads_the_forwarded_stack():
    # the stack F the APs forward, in step units, and its combiner are
    # the kernel's layout: every other module calls apply_chain or
    # apply_chain_collect
    stack = {"evaluate_chain", "chain_product", "chain_combiner"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "kernels.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            name = (getattr(node, "id", None) or getattr(node, "attr", None)
                    or getattr(node, "name", None))
            if isinstance(name, str) and name.lstrip("_") in stack:
                found.append(f"{path.name}:{getattr(node, 'lineno', '?')}: "
                             f"{name}")
    assert found == []


def test_the_package_imports_numpy_and_the_standard_library_only():
    # numpy is pyproject's one dependency: every import of the package,
    # one inside a function too, names it, the standard library or cfchain
    allowed = set(sys.stdlib_module_names) | {"numpy", "cfchain"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: import {name}"
                      for name in names
                      if name.split(".")[0] not in allowed]
    assert found == []
