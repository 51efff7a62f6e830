"""Every exported name resolves: the package's and each module's __all__,
and every name the benchmark's span tracer wraps; no module imports a
package module inside a function."""
import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

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


def test_no_function_level_package_import():
    # a relative import inside a function hides a dependency, and with it an
    # import cycle, from the module's header
    paths = sorted(Path(seidel_forge.__file__).parent.glob("*.py"))
    found = [
        f"{path.name}:{fn.name}:{node.lineno}"
        for path in paths
        for fn in ast.walk(ast.parse(path.read_text()))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, ast.ImportFrom) and node.level
    ]
    assert len(paths) > 1
    assert found == []


def test_bench_span_targets_resolve():
    # bench/spans.py wraps these names by getattr; a deleted one would only
    # crash traced benchmark runs
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for module, attr, _ in spans.TARGETS:
        obj = importlib.import_module(f"seidel_forge.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(f"{module}.{attr}")
    assert len(spans.TARGETS) > 1
    assert missing == []
