import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import pathdist
from pathdist.errors import InputError
from pathdist.experiments import (
    PerturbationSpec,
    RunConfig,
    generate_perturbed,
    grid_graph,
    resolve_graph_files,
    run_all,
    run_perturbation_study,
)
from pathdist.graph import write_graph_csv


def test_grid_graph_shape(grid6):
    assert len(grid6.vertices) == 36
    assert len(grid6.edges) == 60
    coords = {(p.x, p.y) for p in grid6.vertices.values()}
    assert all(x % 2 == 0 and y % 2 == 0 for x, y in coords)


def test_spec_validation():
    with pytest.raises(InputError):
        PerturbationSpec(p=1.5, seed_count=1)
    with pytest.raises(InputError):
        PerturbationSpec(p=0.5, seed_count=0)


@pytest.mark.parametrize("seed_count", [2.5, 2.0, True, "2", None, -1])
def test_seed_count_must_be_an_integer_of_at_least_one(seed_count):
    with pytest.raises(InputError, match="seed_count"):
        PerturbationSpec(p=0.1, seed_count=seed_count)


@pytest.mark.parametrize("rng_seed", [-1, 1.5, (0, -2), (0, 1.0), [0, 1], True, None, "3"])
def test_rng_seed_must_be_non_negative_integers(rng_seed):
    # numpy's SeedSequence would raise a TypeError or ValueError of its own.
    with pytest.raises(InputError, match="rng_seed"):
        PerturbationSpec(p=0.1, seed_count=1, rng_seed=rng_seed)


@pytest.mark.parametrize("rng_seed", [0, 2**70, np.int64(5), (3, 0), (np.uint32(1), 7)])
def test_non_negative_integer_seeds_draw_graphs(rng_seed):
    assert len(generate_perturbed(PerturbationSpec(p=0.1, seed_count=2, rng_seed=rng_seed))) == 2


@pytest.mark.parametrize(
    "extent, spacing",
    [(10.0, 0.0), (10.0, -2.0), (10.0, math.nan), (10.0, math.inf), (0.0, 2.0), (-10.0, 2.0), (math.nan, 2.0)],
)
def test_grid_extent_and_spacing_must_be_positive_and_finite(extent, spacing):
    with pytest.raises(InputError, match="extent and spacing"):
        grid_graph(extent, spacing)
    with pytest.raises(InputError, match="extent and spacing"):
        PerturbationSpec(p=0.5, seed_count=1, extent=extent, spacing=spacing)


def test_zero_perturbation_is_identity(grid6):
    gp = generate_perturbed(PerturbationSpec(p=0.0, seed_count=1, rng_seed=1))[0]
    for vid, pos in grid6.vertices.items():
        assert gp.vertices[vid] == pos


def test_displacement_bounded_by_p(grid6):
    p = 0.7
    for gp in generate_perturbed(PerturbationSpec(p=p, seed_count=3, rng_seed=9)):
        for vid, pos in grid6.vertices.items():
            moved = gp.vertices[vid]
            assert math.hypot(moved.x - pos.x, moved.y - pos.y) <= math.sqrt(2) * p + 1e-12


def test_generation_is_deterministic():
    spec = PerturbationSpec(p=0.4, seed_count=2, rng_seed=123)
    a = generate_perturbed(spec)
    b = generate_perturbed(spec)
    for ga, gb in zip(a, b):
        assert all(ga.vertices[v] == gb.vertices[v] for v in ga.vertices)


def test_study_rows_and_summaries(tmp_path):
    result = run_perturbation_study([0.0, 0.4], 3, k=1, tol=1e-3, rng_seed=7, out_dir=tmp_path)
    assert len(result.rows) == 6
    for p, seed, d in result.rows:
        assert d <= math.sqrt(2) * p + 2e-3
    zero_rows = [d for p, _, d in result.rows if p == 0.0]
    assert all(d == 0.0 for d in zero_rows)
    summary = result.summary()
    assert summary[0]["median"] <= summary[1]["median"]
    assert (tmp_path / "study_rows.csv").exists()
    assert (tmp_path / "study_summary.csv").exists()
    assert (tmp_path / "study_boxplot.svg").exists()


def test_study_workers_do_not_change_bytes(tmp_path):
    out1 = tmp_path / "w1"
    out4 = tmp_path / "w4"
    run_perturbation_study([0.3], 4, k=1, tol=1e-3, rng_seed=3, workers=1, out_dir=out1)
    run_perturbation_study([0.3], 4, k=1, tol=1e-3, rng_seed=3, workers=4, out_dir=out4)
    for name in ("study_rows.csv", "study_summary.csv", "study_boxplot.svg"):
        assert (out1 / name).read_bytes() == (out4 / name).read_bytes()


def _write_pair(tmp_path):
    g = grid_graph(4.0, 2.0)
    spec = PerturbationSpec(p=0.2, seed_count=1, rng_seed=2, extent=4.0, spacing=2.0)
    h = generate_perturbed(spec)[0]
    gdir = tmp_path / "g"
    hdir = tmp_path / "h"
    gdir.mkdir()
    hdir.mkdir()
    write_graph_csv(g, gdir / "vertices.csv", gdir / "edges.csv")
    write_graph_csv(h, hdir / "vertices.csv", hdir / "edges.csv")
    return str(gdir), str(hdir)


def test_resolve_graph_files(tmp_path):
    gdir, _ = _write_pair(tmp_path)
    v, e = resolve_graph_files(gdir)
    assert v.endswith("vertices.csv") and e.endswith("edges.csv")
    v2, e2 = resolve_graph_files(f"{v},{e}")
    assert (v2, e2) == (v, e)
    with pytest.raises(FileNotFoundError):
        resolve_graph_files(str(tmp_path / "missing"))


def test_run_all_emits_artifacts_and_manifest(tmp_path):
    gdir, hdir = _write_pair(tmp_path)
    config = RunConfig(
        from_graph=gdir,
        to_graph=hdir,
        out_dir=str(tmp_path / "out"),
        k_values=(1,),
        tol=1e-3,
    )
    out = run_all(config)
    manifest = json.loads((out / "manifest.json").read_text())
    for name in manifest["files"]:
        assert (out / name).exists(), name
    assert "distance_gh_k1.csv" in manifest["files"]
    assert "heatmap_gh_k1.svg" in manifest["files"]
    assert "separation_gh.json" in manifest["files"]
    summary = json.loads((out / "distance_gh_k1.summary.json").read_text())
    assert summary["path_count"] == 12
    assert summary["max"] <= math.sqrt(2) * 0.2 + 2e-3


def test_run_all_manifest_carries_the_package_version(tmp_path):
    gdir, hdir = _write_pair(tmp_path)
    out = run_all(RunConfig(gdir, hdir, str(tmp_path / "out"), k_values=(1,), tol=1e-3))
    assert json.loads((out / "manifest.json").read_text())["package_version"] == pathdist.__version__


def test_package_version_is_the_one_in_pyproject():
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert re.search(r'^version = "(.*)"$', pyproject, re.M).group(1) == pathdist.__version__


def test_run_all_manifest_records_no_strict_switch(tmp_path):
    gdir, hdir = _write_pair(tmp_path)
    out = run_all(RunConfig(gdir, hdir, str(tmp_path / "out"), k_values=(1,), tol=1e-3))
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert "strict" not in config
    assert config["k_values"] == [1]


def test_run_all_identity_smoke_and_reproducible(tmp_path):
    gdir, _ = _write_pair(tmp_path)
    cfg = dict(from_graph=gdir, to_graph=gdir, k_values=(1, 2), tol=1e-3)
    out1 = run_all(RunConfig(out_dir=str(tmp_path / "o1"), **cfg))
    out2 = run_all(RunConfig(out_dir=str(tmp_path / "o2"), **cfg))
    summary = json.loads((out1 / "distance_gh_k2.summary.json").read_text())
    assert summary["max"] <= 1e-3
    files1 = json.loads((out1 / "manifest.json").read_text())["files"]
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_run_all_leaves_the_previous_artifacts_when_a_writer_fails(tmp_path, monkeypatch):
    import pathdist.experiments as experiments

    gdir, hdir = _write_pair(tmp_path)
    config = RunConfig(gdir, hdir, str(tmp_path / "out"), k_values=(1,), tol=1e-3)
    out = run_all(config)
    before = {p.name: p.read_bytes() for p in out.iterdir()}

    def failing(sig, fh):
        fh.write("edge_id,signature_m\nhalf,")
        raise RuntimeError("disk gone")

    monkeypatch.setattr(experiments, "write_signature_csv", failing)
    with pytest.raises(RuntimeError, match="disk gone"):
        run_all(config)
    # Every artifact, the signature CSV and the manifest too, holds its old
    # bytes, and no temporary file is left behind.
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_atomic_write_replaces_the_file_only_when_the_block_ends(tmp_path):
    from pathdist.atomic import atomic_write

    path = tmp_path / "a.txt"
    path.write_text("old\n")
    with atomic_write(path) as fh:
        fh.write("new\n")
        fh.flush()
        assert path.read_text() == "old\n"
    assert path.read_text() == "new\n"
    with pytest.raises(ValueError):
        with atomic_write(path) as fh:
            fh.write("partial")
            raise ValueError
    assert path.read_text() == "new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]


def test_run_all_census_reuses_the_distances_it_has(tmp_path, monkeypatch):
    import pathdist.matching as matching
    import pathdist.pathdistance as pd
    from pathdist.experiments import load_graph_arg

    gdir, hdir = _write_pair(tmp_path)
    g, h = load_graph_arg(gdir), load_graph_arg(hdir)
    expected = [
        {"k": r.k, "d": r.d, "separated": r.separated_count, "vertices": len(r.per_vertex)}
        for r in pd.separation_census(g, h, 1e-3)
    ]
    calls = []
    original = matching.match_decision

    def counting(*args, **kwargs):
        calls.append(args[2])
        return original(*args, **kwargs)

    monkeypatch.setattr(matching, "match_decision", counting)
    # The k=1 and k=2 records and a Δ3 under the k=2 floors (early exits at
    # the running maximum, bisections from each floor), on graphs of their own.
    g, h = load_graph_arg(gdir), load_graph_arg(hdir)
    for k in (1, 2):
        pd.match_all_paths(g, h, k, 1e-3)
    records = len(calls)
    pd.max_path_distance(g, h, 3, 1e-3)
    reference = len(calls)
    assert reference > records
    calls.clear()
    out = run_all(RunConfig(gdir, hdir, str(tmp_path / "out"), k_values=(1, 2), tol=1e-3))
    # The census adds Δ3's decisions alone: Δ1 and Δ2 are the records' maxima.
    assert len(calls) == reference
    assert json.loads((out / "separation_gh.json").read_text()) == expected


def test_run_all_takes_the_lower_k_values_from_the_higher_k_pass(tmp_path, monkeypatch):
    # k=3 computes the k=1 and k=2 values of its sub-paths first, so a run
    # of k=3 alone, or of k=1 and k=3, decides as often as one of k=1..3.
    import pathdist.matching as matching

    from test_pathdistance import small_city_pair

    for name, graph in zip("gh", small_city_pair(0)):
        write_graph_csv(graph, tmp_path / f"{name}.vertices.csv", tmp_path / f"{name}.edges.csv")
    gp, hp = str(tmp_path / "g"), str(tmp_path / "h")
    calls = []
    original = matching.match_decision

    def counting(*args, **kwargs):
        calls.append(args[2])
        return original(*args, **kwargs)

    monkeypatch.setattr(matching, "match_decision", counting)
    counts = {}
    for k_values in ((1, 2, 3), (1, 3), (3,)):
        calls.clear()
        run_all(RunConfig(gp, hp, str(tmp_path / "-".join(map(str, k_values))), k_values=k_values, tol=1e-3))
        counts[k_values] = len(calls)
    assert counts[1, 3] == counts[3,] == counts[1, 2, 3]


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0])
def test_run_config_rejects_a_tolerance_that_is_not_positive_and_finite(tmp_path, tol):
    with pytest.raises(InputError, match="tol"):
        RunConfig("g", "h", str(tmp_path), tol=tol)


@pytest.mark.parametrize("k_values", [(0,), (1.5,), (1, -2), (1, True), (math.nan,), (1, "3")])
def test_run_config_rejects_a_link_length_that_is_not_an_integer_of_at_least_one(tmp_path, k_values):
    # Rejected before run_all writes any file.
    with pytest.raises(InputError, match="link-length"):
        RunConfig("g", "h", str(tmp_path / "out"), k_values=k_values)


@pytest.mark.parametrize("k_values", [(1, 1), (1, 2, 1)])
def test_run_config_rejects_a_repeated_link_length(tmp_path, k_values):
    # Each k writes its artifacts once, and the manifest lists each file once.
    with pytest.raises(InputError, match="repeat"):
        RunConfig("g", "h", str(tmp_path / "out"), k_values=k_values)
    assert not (tmp_path / "out").exists()
