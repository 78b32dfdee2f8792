"""The process pool: one per run, workers that keep what they unpickled, clean exits."""

import contextlib
import functools
import multiprocessing
import os

import pytest

import pathdist.parallel as parallel
import pathdist.pathdistance as pathdistance
from pathdist.cli import main
from pathdist.errors import InputError
from pathdist.experiments import (
    PerturbationSpec,
    RunConfig,
    generate_perturbed,
    grid_graph,
    run_all,
)
from pathdist.graph import write_graph_csv
from pathdist.parallel import iter_chunked, run_chunked, run_pool

# How often this process unpickled a ``_Target``; each worker starts at 0.
_TARGET_LOADS = 0


class _Target:
    """Stands in for a target graph: counts how often a process unpickles it."""

    def __init__(self):
        self.name = "h"

    def __setstate__(self, state):
        global _TARGET_LOADS
        _TARGET_LOADS += 1
        self.__dict__.update(state)


def _loads_so_far(target, chunk):
    return os.getpid(), _TARGET_LOADS


def _squares(chunk):
    return [x * x for x in chunk]


def _sees_no_run_pool(chunk):
    return parallel._open_run() is None


# Where _logging_call_chunk records the pid of each process that runs a chunk.
_PID_DIR = None


def _logging_call_chunk(fn_bytes, chunk):
    (_PID_DIR / str(os.getpid())).touch()
    return _CALL_CHUNK(fn_bytes, chunk)


_CALL_CHUNK = parallel._call_chunk


def _raise_input_error(h, tol, items):
    raise InputError("chunk failed on purpose")


class _CountingPool(parallel.ProcessPoolExecutor):
    made = 0

    def __init__(self, *args, **kwargs):
        type(self).made += 1
        super().__init__(*args, **kwargs)


@pytest.fixture
def counting_pool(monkeypatch):
    monkeypatch.setattr(_CountingPool, "made", 0)
    monkeypatch.setattr(parallel, "ProcessPoolExecutor", _CountingPool)
    return _CountingPool


@pytest.fixture
def pair_dirs(tmp_path):
    """A 4x4-vertex grid and a perturbed copy, as graph directories."""
    g = grid_graph(6.0, 2.0)
    h = generate_perturbed(PerturbationSpec(p=0.3, seed_count=1, rng_seed=5, extent=6.0, spacing=2.0))[0]
    dirs = []
    for name, graph in (("g", g), ("h", h)):
        d = tmp_path / name
        d.mkdir()
        write_graph_csv(graph, d / "vertices.csv", d / "edges.csv")
        dirs.append(str(d))
    return dirs


def _no_children_left() -> bool:
    return not multiprocessing.active_children()


@pytest.mark.parametrize("workers", [0, -2])
def test_worker_count_below_one_raises_input_error(workers):
    with pytest.raises(InputError, match="workers must be >= 1"):
        with run_pool(workers):
            pass


def test_each_worker_unpickles_the_function_once_per_run(counting_pool):
    fn = functools.partial(_loads_so_far, _Target())
    with run_pool(2):
        seen = [r for _ in range(3) for r in iter_chunked(fn, list(range(16)))]
    assert len(seen) == 3 * 8
    assert {loads for _, loads in seen} == {1}
    assert len({pid for pid, _ in seen}) <= 2
    assert counting_pool.made == 1
    assert _no_children_left()


def test_a_forked_worker_never_uses_the_inherited_run_pool():
    with run_pool(2):
        assert all(iter_chunked(_sees_no_run_pool, list(range(8))))
    assert _no_children_left()


@pytest.mark.parametrize("run", ["distance", "run_all", "study"])
def test_one_pool_serves_a_whole_run(run, pair_dirs, tmp_path, counting_pool):
    gdir, hdir = pair_dirs
    if run == "distance":
        argv = ["distance", "--from", gdir, "--to", hdir, "--k", "3", "--both", "--workers", "2"]
        assert main(argv + ["--out", str(tmp_path / "r.csv")]) == 0
    elif run == "run_all":
        config = RunConfig(gdir, hdir, str(tmp_path / "all"), k_values=(1, 2, 3), both_directions=True, workers=2)
        run_all(config)
    else:
        argv = ["study", "--p-values", "0.2,0.5", "--seeds", "3", "--workers", "2"]
        assert main(argv + ["--out-dir", str(tmp_path / "study")]) == 0
    assert counting_pool.made == 1
    assert _no_children_left()


def test_the_run_pool_sets_the_chunk_count():
    items = list(range(100))
    with run_pool(2):
        assert len(list(iter_chunked(_squares, items))) == 8
        assert len(run_chunked(_squares, items)) == 8
        # A nested block uses the outer pool and its count.
        with run_pool(3):
            assert len(list(iter_chunked(_squares, items))) == 8
    # Outside a run pool chunks run serially: four streamed, one eager.
    assert len(list(iter_chunked(_squares, items))) == 4
    assert len(run_chunked(_squares, items)) == 1
    assert _no_children_left()


@pytest.mark.parametrize("in_run", [False, True], ids=["serial", "run-pool"])
def test_library_calls_share_the_open_pool(in_run, counting_pool, monkeypatch, tmp_path):
    g = grid_graph(6.0, 2.0)
    h = generate_perturbed(PerturbationSpec(p=0.3, seed_count=1, rng_seed=5, extent=6.0, spacing=2.0))[0]
    # Patched before the pool starts, so the forked workers run the logging version.
    monkeypatch.setattr(parallel, "_call_chunk", _logging_call_chunk)
    monkeypatch.setitem(globals(), "_PID_DIR", tmp_path)
    calls = [
        lambda: pathdistance.undirected_path_distance(g, h, 2),
        lambda: pathdistance.separation_census(g, h),
        lambda: pathdistance.path_distance_analysis(g, h, 3),
        lambda: pathdistance.directed_path_distance(g, h, 2, strict=True),
    ]
    with run_pool(2) if in_run else contextlib.nullcontext():
        for call in calls:
            call()
            logs = list(tmp_path.iterdir())
            assert bool(logs) == in_run and str(os.getpid()) not in {p.name for p in logs}
            for log in logs:
                log.unlink()
    assert counting_pool.made == in_run
    assert _no_children_left()


def test_an_error_inside_a_worker_exits_2_and_leaves_no_child(pair_dirs, tmp_path, capsys, monkeypatch):
    gdir, hdir = pair_dirs
    # Patched before the pool starts, so the forked workers resolve the patched name.
    monkeypatch.setattr(pathdistance, "_chunk_distances", _raise_input_error)
    argv = ["distance", "--from", gdir, "--to", hdir, "--k", "2", "--workers", "2"]
    assert main(argv + ["--out", str(tmp_path / "r.csv")]) == 2
    assert "chunk failed on purpose" in capsys.readouterr().err
    assert _no_children_left()


def test_an_abandoned_stream_leaves_no_child():
    with run_pool(2):
        stream = iter_chunked(_squares, list(range(40)))
        assert next(stream) == [0, 1, 4, 9, 16]
        stream.close()
    assert _no_children_left()


def test_an_interrupted_run_leaves_no_child():
    with pytest.raises(KeyboardInterrupt):
        with run_pool(2):
            assert list(iter_chunked(_squares, [1, 2, 3])) == [[1], [4], [9]]
            raise KeyboardInterrupt
    assert _no_children_left()


def test_multi_pass_outputs_do_not_depend_on_workers(pair_dirs, tmp_path):
    gdir, hdir = pair_dirs
    outputs = []
    for workers in (1, 2, 3):
        out = tmp_path / f"w{workers}"
        (out / "cli").mkdir(parents=True)
        argv = ["distance", "--from", gdir, "--to", hdir, "--k", "3", "--both"]
        assert main(argv + ["--workers", str(workers), "--out", str(out / "cli" / "r.csv")]) == 0
        config = RunConfig(
            gdir, hdir, str(out / "all"), k_values=(1, 2, 3), both_directions=True, workers=workers
        )
        run_all(config)
        files = sorted(p for p in out.rglob("*") if p.is_file() and p.name != "manifest.json")
        outputs.append({str(p.relative_to(out)): p.read_bytes() for p in files})
    assert "cli/r_hg.csv.summary.json" in outputs[0] and "all/separation_hg.json" in outputs[0]
    assert outputs[0] == outputs[1] == outputs[2]
