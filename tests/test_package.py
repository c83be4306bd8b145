import importlib
import pkgutil

import mbce


def test_every_module_imports():
    names = [m.name for m in pkgutil.walk_packages(mbce.__path__, prefix="mbce.")]
    assert "mbce.estimation" in names and "mbce.autodiff.engine" in names
    for name in names:
        importlib.import_module(name)
