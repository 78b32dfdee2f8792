"""The benchmark's trace hooks must keep resolving against the package.

``bench/tracer.py`` wraps the names in its ``TARGETS`` table and counts the
items that generator targets yield.  A renamed or deleted target, or a
generator turned into a list-returning function, breaks ``--trace 1``; these
checks catch it in the test suite instead.  So does a removed parameter or
function that a ``pathdist.*`` call in ``bench/`` still uses.
"""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import pathdist
import pathdist.geometry
import pathdist.matching
import pathdist.pathdistance
from pathdist.experiments import PerturbationSpec, generate_perturbed, grid_graph

from oracles import fresh

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_targets():
    return load_tracer().TARGETS


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


def test_every_sweep_goes_through_the_traced_decision(tmp_path, monkeypatch):
    # The benchmark counts decisions as calls of the wrapped match_decision;
    # a sweep that bypassed it would make matching.decisions undercount.
    # A decision steps both interval families once, for its own rows or for
    # its whole window, or reads rows its window stepped at the same eps; so
    # each step must run with a match_decision span on top of the tracer's
    # stack, and the steps are exactly two per own step and per window step.
    tracer = load_tracer().Tracer(tmp_path)
    step = pathdist.geometry.DiscQuadratic._roots
    window_tables = pathdist.matching._Window.tables
    window_step = pathdist.matching._Window.step
    callers = []
    served = {"alone": 0, "window": 0, "window steps": 0}

    def traced_step(self, radius):
        callers.append(tracer.names[tracer.spans[tracer.stack[-1]][0]] if tracer.stack else None)
        return step(self, radius)

    def counted_tables(self, rows, cols, eps):
        tables = window_tables(self, rows, cols, eps)
        served["alone" if tables is None else "window"] += 1
        return tables

    def counted_step(self, eps):
        served["window steps"] += 1
        return window_step(self, eps)

    h = grid_graph(6.0, 2.0)
    g = generate_perturbed(PerturbationSpec(p=0.4, seed_count=1, rng_seed=5, extent=6.0))[0]
    floored = fresh(g)
    pathdist.pathdistance.match_all_paths(floored, h, 1, 1e-3)
    monkeypatch.setattr(pathdist.geometry.DiscQuadratic, "_roots", traced_step)
    monkeypatch.setattr(pathdist.matching._Window, "tables", counted_tables)
    monkeypatch.setattr(pathdist.matching._Window, "step", counted_step)
    curve = pathdist.path_geometry(g, next(pathdist.enumerate_paths(g, 3)))
    tracer.install()
    try:
        pathdist.matching.map_match_distance(curve, h, 1e-3)
        pathdist.pathdistance.max_path_distance(g, h, 2, 1e-3)
        # Under a floor the early exits still decide at the running maximum,
        # except where the floor already proves that decision fails.
        pathdist.pathdistance.max_path_distance(floored, h, 2, 1e-3)
        # Every record's bisection, on problems prepared a window at a time.
        pathdist.pathdistance.match_all_paths(g, h, 2, 1e-3)
    finally:
        tracer.uninstall()
    stats = tracer.stats()
    assert stats["matching.map_match_distance"][0] >= 2
    assert stats["pathdistance.match_all_paths"][0] == 1
    assert callers and set(callers) == {"matching.match_decision"}
    # Every traced path has a segment, so every decision takes its tables.
    assert served["alone"] + served["window"] == stats["matching.match_decision"][0]
    # The early exits at one shared eps stepped whole windows, and later
    # decisions at that eps read them without a step.
    assert 0 < served["window steps"] < served["window"]
    assert len(callers) == 2 * (served["alone"] + served["window steps"])


def _pathdist_callee(func):
    """The package object a ``pathdist.a.b(...)`` call names, or None for any other call."""
    names = []
    while isinstance(func, ast.Attribute):
        names.append(func.attr)
        func = func.value
    if not (isinstance(func, ast.Name) and func.id == "pathdist" and names):
        return None
    obj = pathdist
    for name in reversed(names):
        # A submodule, such as pathdist.cli, is an attribute only once imported.
        obj = getattr(obj, name) if hasattr(obj, name) else importlib.import_module(f"{obj.__name__}.{name}")
    return obj


def test_bench_calls_bind_to_the_package():
    # A removed parameter or function would otherwise break bench/run.py unseen.
    bound = 0
    for path in sorted(TRACER.parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            callee = _pathdist_callee(node.func)
            if callee is None:
                continue
            where = f"{path.name}:{node.lineno}"
            assert not any(isinstance(a, ast.Starred) for a in node.args), where
            assert all(kw.arg is not None for kw in node.keywords), where
            try:
                inspect.signature(callee).bind(*node.args, **{kw.arg: kw.value for kw in node.keywords})
            except TypeError as exc:
                raise AssertionError(f"{where}: {exc}") from None
            bound += 1
    assert bound >= 15
