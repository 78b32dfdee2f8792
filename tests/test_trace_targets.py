"""The benchmark's trace hooks must keep resolving against the package.

``bench/tracer.py`` wraps the names in its ``TARGETS`` table and counts the
items that generator targets yield.  A renamed or deleted target, or a
generator turned into a list-returning function, breaks ``--trace 1``; these
checks catch it in the test suite instead.
"""

import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import pathdist

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def resolve(module_name: str, attr: str):
    obj = importlib.import_module(module_name)
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def test_every_trace_target_is_callable():
    targets = load_targets()
    assert targets
    for _, module_name, attr in targets:
        assert callable(resolve(module_name, attr)), f"{module_name}.{attr}"


def test_counted_trace_targets_are_generators():
    names = {(m, a) for _, m, a in load_targets()}
    for module_name, attr in (("pathdist.paths", "enumerate_paths"), ("pathdist.parallel", "iter_chunked")):
        assert (module_name, attr) in names
        assert inspect.isgeneratorfunction(resolve(module_name, attr)), f"{module_name}.{attr}"


def test_every_exported_name_exists():
    modules = [pathdist] + [
        importlib.import_module(f"pathdist.{info.name}") for info in pkgutil.iter_modules(pathdist.__path__)
    ]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"
