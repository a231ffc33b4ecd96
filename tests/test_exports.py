"""Every exported name resolves: each `cgnp.*` module's `__all__` and every
name the package `__init__` imports. A stale export left behind when code
is deleted fails here at once instead of at a user's import. Every
autodiff op and every graph and optim function also has a caller in
another module of the package: code that serves only tests belongs in
`tests/`. README's `cgnp.autodiff` bullet names every autodiff function,
and nothing that module lacks. Every autodiff op that returns a `Tensor`
has a finite-difference case in `tests/test_autodiff.py`."""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import cgnp

MODULES = sorted(m.name for m in pkgutil.iter_modules(cgnp.__path__) if not m.name.startswith("_"))


def test_modules_are_found():
    assert {"gp", "models", "training", "formats", "cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"cgnp.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []


def test_every_name_the_package_imports_resolves():
    tree = ast.parse(Path(cgnp.__file__).read_text(encoding="utf-8"))
    imported = [
        (node.module, alias.asname or alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert imported
    for module_name, name in imported:
        module = importlib.import_module(f"cgnp.{module_name}")
        assert hasattr(module, name), f"cgnp.{module_name}.{name}"
        assert getattr(cgnp, name) is getattr(module, name), name


def names_used(path: Path, source: str) -> set[str]:
    """Names a module imports from `.<source>` and then refers to."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name: alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == source
        for alias in node.names
    }
    return {imported[n.id] for n in ast.walk(tree) if isinstance(n, ast.Name) and n.id in imported}


def used_elsewhere_in_the_package(source: str) -> set[str]:
    package = Path(cgnp.__file__).parent
    return set().union(*(
        names_used(path, source)
        for path in package.glob("*.py")
        if path.name not in (f"{source}.py", "__init__.py")
    ))


def test_every_autodiff_op_has_a_caller_in_the_package():
    autodiff = importlib.import_module("cgnp.autodiff")
    assert sorted(set(autodiff.__all__) - used_elsewhere_in_the_package("autodiff")) == []


def public_functions(name: str) -> set[str]:
    module = importlib.import_module(f"cgnp.{name}")
    return {n for n in module.__all__ if inspect.isfunction(getattr(module, n))}


def test_every_graph_function_has_a_caller_in_the_package():
    functions = public_functions("graph")
    assert functions  # radius_neighborhood and bipartite_conv at least
    assert sorted(functions - used_elsewhere_in_the_package("graph")) == []


def test_every_optim_function_has_a_caller_in_the_package():
    functions = public_functions("optim")
    assert functions  # adam_step at least
    assert sorted(functions - used_elsewhere_in_the_package("optim")) == []


def readme_bullet(module: str) -> str:
    """README's top-level bullet on `module`, up to the next bullet."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    match = re.search(rf"^- `{re.escape(module)}` .*?(?=^- |^#|\Z)", text, re.M | re.S)
    assert match, module
    return match.group(0)


def test_readme_autodiff_bullet_names_every_function_and_only_real_ones():
    autodiff = importlib.import_module("cgnp.autodiff")
    quoted = set(re.findall(r"`([A-Za-z_]\w*)`", readme_bullet("cgnp.autodiff")))
    assert sorted(public_functions("autodiff") - quoted) == []
    assert sorted(n for n in quoted if not hasattr(autodiff, n)) == []


def test_every_tape_op_has_a_finite_difference_case():
    """Each function in `autodiff.__all__` annotated ``-> Tensor`` is called,
    by the name `test_autodiff.py` imports it under from `cgnp.autodiff`,
    inside some `test_fd_*` function there: an op without one has a
    gradient rule nothing checks."""
    autodiff = importlib.import_module("cgnp.autodiff")
    ops = {
        n for n in public_functions("autodiff")
        if getattr(autodiff, n).__annotations__.get("return") in ("Tensor", autodiff.Tensor)
    }
    tree = ast.parse((Path(__file__).parent / "test_autodiff.py").read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name: alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module == "cgnp.autodiff"
        for alias in node.names
    }
    called = {
        imported[node.func.id]
        for test in tree.body
        if isinstance(test, ast.FunctionDef) and test.name.startswith("test_fd_")
        for node in ast.walk(test)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in imported
    }
    assert {"affine", "gaussian_nll"} <= ops
    assert sorted(ops - called) == []
