"""Every exported name resolves: the package's and each module's __all__."""
import importlib
import pkgutil

import seidel_forge


def test_all_names_resolve():
    modules = [seidel_forge] + [
        importlib.import_module(f"seidel_forge.{info.name}")
        for info in pkgutil.iter_modules(seidel_forge.__path__)
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in module.__all__
        if not hasattr(module, name)
    ]
    assert len(modules) > 1
    assert missing == []
