import ast
import importlib
import inspect
import pathlib
import pkgutil

import mbce

MODULES = [m.name for m in pkgutil.walk_packages(mbce.__path__, prefix="mbce.")]


def test_every_module_imports():
    assert "mbce.estimation" in MODULES and "mbce.autodiff.engine" in MODULES
    for name in MODULES:
        importlib.import_module(name)


def test_every_all_resolves_and_lists_the_public_definitions():
    for name in ["mbce", *MODULES]:
        module = importlib.import_module(name)
        exported = getattr(module, "__all__", [])
        for attr in exported:
            assert hasattr(module, attr), f"{name}.__all__ lists missing {attr}"
        defined = {
            attr
            for attr, obj in vars(module).items()
            if not attr.startswith("_")
            and (inspect.isclass(obj) or inspect.isfunction(obj))
            and obj.__module__ == name
        }
        assert defined <= set(exported), f"{name}.__all__ lacks {sorted(defined - set(exported))}"


def test_no_module_packs_bytes_by_hand():
    # files are .npz archives through mbce._checks' one reader and writer
    for name in ["mbce", *MODULES]:
        tree = ast.parse(inspect.getsource(importlib.import_module(name)))
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names}
        imported |= {node.module for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and node.level == 0}
        assert not {m.partition(".")[0] for m in imported} & {"struct", "pickle"}, name


def test_sources_parse_as_the_oldest_supported_python():
    # pyproject.toml's requires-python floor: syntax newer than 3.10 fails here,
    # on any interpreter, rather than on a 3.10 install
    root = pathlib.Path(__file__).resolve().parents[1]
    files = sorted(p for d in ("src", "tests", "bench") for p in (root / d).rglob("*.py"))
    assert len(files) > 20
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
