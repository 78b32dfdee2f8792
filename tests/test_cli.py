import codecs
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pathdist
from pathdist.cli import main
from pathdist.experiments import (
    PerturbationSpec,
    RunConfig,
    generate_perturbed,
    grid_graph,
    run_all,
)
from pathdist.graph import EmbeddedGraph, write_graph_csv


@pytest.fixture
def graph_dirs(tmp_path):
    g = grid_graph(4.0, 2.0)
    h = generate_perturbed(
        PerturbationSpec(p=0.2, seed_count=1, rng_seed=4, extent=4.0, spacing=2.0)
    )[0]
    gdir = tmp_path / "g"
    hdir = tmp_path / "h"
    gdir.mkdir()
    hdir.mkdir()
    write_graph_csv(g, gdir / "vertices.csv", gdir / "edges.csv")
    write_graph_csv(h, hdir / "vertices.csv", hdir / "edges.csv")
    return str(gdir), str(hdir)


def write_curve(path, pts):
    path.write_text("x,y\n" + "\n".join(f"{x},{y}" for x, y in pts))
    return str(path)


def test_stats(graph_dirs, capsys):
    gdir, _ = graph_dirs
    assert main(["stats", "--graph", gdir]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["vertex_count"] == 9
    assert doc["edge_count"] == 12


def test_distance_writes_report_and_summary(graph_dirs, tmp_path, capsys):
    gdir, hdir = graph_dirs
    out = tmp_path / "report.csv"
    code = main(
        ["distance", "--from", gdir, "--to", hdir, "--k", "1", "--out", str(out), "--tol", "0.001"]
    )
    assert code == 0
    assert out.exists()
    summary = json.loads((tmp_path / "report.csv.summary.json").read_text())
    assert summary["k"] == 1 and summary["path_count"] == 12
    lines = out.read_text().splitlines()
    assert lines[0] == "path_id,vertex_sequence,path_length_m,match_distance_m"
    assert len(lines) == 13


def test_distance_both_directions(graph_dirs, tmp_path):
    gdir, hdir = graph_dirs
    out = tmp_path / "r.csv"
    assert main(["distance", "--from", gdir, "--to", hdir, "--k", "1", "--both", "--out", str(out)]) == 0
    assert (tmp_path / "r_gh.csv").exists()
    assert (tmp_path / "r_hg.csv").exists()
    gh = json.loads((tmp_path / "r_gh.csv.summary.json").read_text())
    hg = json.loads((tmp_path / "r_hg.csv.summary.json").read_text())
    assert gh["direction"] == "G->H" and hg["direction"] == "H->G"


def test_distance_resume_reuses_rows(graph_dirs, tmp_path):
    gdir, hdir = graph_dirs
    out = tmp_path / "resume.csv"
    main(["distance", "--from", gdir, "--to", hdir, "--k", "1", "--out", str(out)])
    first = out.read_text()
    main(["distance", "--from", gdir, "--to", hdir, "--k", "1", "--out", str(out), "--resume"])
    assert out.read_text() == first


@pytest.mark.parametrize("cut", ["before_last_field", "inside_last_float"])
def test_distance_resume_after_a_row_cut_off(graph_dirs, tmp_path, cut):
    gdir, hdir = graph_dirs
    out = tmp_path / "resume.csv"
    argv = ["distance", "--from", gdir, "--to", hdir, "--k", "1", "--out", str(out)]
    assert main(argv) == 0
    first = out.read_text()
    body = first.rstrip("\n")
    end = body.rindex(",") if cut == "before_last_field" else len(body) - 4
    out.write_text(body[:end])
    assert main(argv + ["--resume"]) == 0
    assert out.read_text() == first


def test_distance_k2_resume_after_half_the_rows(graph_dirs, tmp_path):
    # The resumed run computes the k=1 values of the missing rows' sub-paths
    # only, and must still write the uncut report.
    gdir, hdir = graph_dirs
    out = tmp_path / "resume.csv"
    argv = ["distance", "--from", gdir, "--to", hdir, "--k", "2", "--out", str(out)]
    assert main(argv) == 0
    first = out.read_bytes()
    lines = first.splitlines(keepends=True)
    half = 1 + (len(lines) - 1) // 2
    out.write_bytes(b"".join(lines[:half]))
    assert main(argv + ["--resume"]) == 0
    assert out.read_bytes() == first


def test_distance_report_named_json_keeps_its_rows(graph_dirs, tmp_path):
    # The summary goes next to the report, never over it, whatever --out ends in.
    gdir, hdir = graph_dirs
    out = tmp_path / "r.json"
    argv = ["distance", "--from", gdir, "--to", hdir, "--k", "1", "--out", str(out)]
    assert main(argv) == 0
    first = out.read_text()
    assert first.splitlines()[0] == "path_id,vertex_sequence,path_length_m,match_distance_m"
    assert len(first.splitlines()) == 13
    assert json.loads((tmp_path / "r.json.summary.json").read_text())["path_count"] == 12
    out.write_text("".join(first.splitlines(keepends=True)[:7]))
    assert main(argv + ["--resume"]) == 0
    assert out.read_text() == first


def test_distance_report_matches_run_all(graph_dirs, tmp_path):
    gdir, hdir = graph_dirs
    out = tmp_path / "report.csv"
    assert main(["distance", "--from", gdir, "--to", hdir, "--k", "1", "--out", str(out)]) == 0
    run_all(RunConfig(gdir, hdir, str(tmp_path / "all"), k_values=(1,)))
    assert out.read_bytes() == (tmp_path / "all" / "distance_gh_k1.csv").read_bytes()


def test_cli_artifacts_match_run_all(graph_dirs, tmp_path):
    # The CLI and run_all write each artifact format through the same writer.
    gdir, hdir = graph_dirs
    cli = tmp_path / "cli"
    cli.mkdir()
    pair = ["--from", gdir, "--to", hdir]
    assert main(["distance", *pair, "--k", "2", "--both", "--out", str(cli / "report.csv")]) == 0
    assert main(["separation", *pair, "--out", str(cli / "sep.json")]) == 0
    sig = ["--out", str(cli / "sig.csv"), "--heatmap", str(cli / "sig.svg"), "--geojson", str(cli / "sig.geojson")]
    assert main(["signature", *pair, "--k", "2", *sig]) == 0
    out = run_all(RunConfig(gdir, hdir, str(tmp_path / "all"), k_values=(2,), both_directions=True))
    pairs = [
        ("report_gh.csv", "distance_gh_k2.csv"),
        ("report_hg.csv", "distance_hg_k2.csv"),
        ("report_gh.csv.summary.json", "distance_gh_k2.summary.json"),
        ("report_hg.csv.summary.json", "distance_hg_k2.summary.json"),
        ("sep.json", "separation_gh.json"),
        ("sig.csv", "signature_gh_k2.csv"),
        ("sig.svg", "heatmap_gh_k2.svg"),
        ("sig.geojson", "heatmap_gh_k2.geojson"),
    ]
    for mine, theirs in pairs:
        assert (cli / mine).read_bytes() == (out / theirs).read_bytes(), mine


def test_distance_strict_writes_a_subset_of_the_full_report(graph_dirs, tmp_path):
    gdir, hdir = graph_dirs
    full = tmp_path / "full.csv"
    strict = tmp_path / "strict.csv"
    argv = ["distance", "--from", gdir, "--to", hdir, "--k", "2"]
    assert main(argv + ["--out", str(full)]) == 0
    assert main(argv + ["--strict", "--out", str(strict)]) == 0
    full_rows = full.read_text().splitlines()
    strict_rows = strict.read_text().splitlines()
    assert strict_rows[0] == full_rows[0]
    assert set(strict_rows[1:]) <= set(full_rows[1:])
    # Degree-3 interiors drop out of the 3x3 grid's paths, but not all paths.
    assert 1 < len(strict_rows) < len(full_rows)
    summary = json.loads((tmp_path / "strict.csv.summary.json").read_text())
    assert summary["strict"] is True
    assert summary["path_count"] == len(strict_rows) - 1


@pytest.mark.parametrize("from_config", [False, True])
def test_distance_strict_refuses_resume(graph_dirs, tmp_path, capsys, from_config):
    gdir, hdir = graph_dirs
    out = tmp_path / "report.csv"
    out.write_text("kept\n")
    argv = ["distance", "--from", gdir, "--to", hdir, "--k", "1", "--out", str(out)]
    if from_config:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("strict = true\nresume = yes\n")
        argv += ["--config", str(cfg)]
    else:
        argv += ["--strict", "--resume"]
    assert main(argv) == 1
    assert "--resume cannot be combined with --strict" in capsys.readouterr().err
    assert out.read_text() == "kept\n"


def test_signature_and_cdf_pipeline(graph_dirs, tmp_path):
    gdir, hdir = graph_dirs
    sig = tmp_path / "sig.csv"
    heat = tmp_path / "sig.svg"
    geo = tmp_path / "sig.geojson"
    assert (
        main(
            [
                "signature",
                "--from", gdir,
                "--to", hdir,
                "--k", "2",
                "--out", str(sig),
                "--heatmap", str(heat),
                "--geojson", str(geo),
            ]
        )
        == 0
    )
    assert sig.exists() and heat.exists() and geo.exists()
    cdf_csv = tmp_path / "cdf.csv"
    cdf_svg = tmp_path / "cdf.svg"
    assert main(["cdf", "--sig", str(sig), "--out", str(cdf_csv), "--plot", str(cdf_svg)]) == 0
    rows = cdf_csv.read_text().splitlines()
    assert rows[0] == "x_m,fraction"
    assert float(rows[-1].split(",")[1]) == 1.0


def test_separation(graph_dirs, tmp_path, capsys):
    gdir, hdir = graph_dirs
    out = tmp_path / "sep.json"
    assert main(["separation", "--from", gdir, "--to", hdir, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert [row["k"] for row in doc] == [1, 2, 3]


def test_mapmatch_and_frechet(graph_dirs, tmp_path, capsys):
    gdir, _ = graph_dirs
    curve = write_curve(tmp_path / "c.csv", [(0, 1), (4, 1)])
    assert main(["mapmatch", "--graph", gdir, "--curve", curve, "--tol", "0.001"]) == 0
    d = float(capsys.readouterr().out)
    assert abs(d - 1.0) <= 1e-3

    a = write_curve(tmp_path / "a.csv", [(0, 0), (1, 0)])
    b = write_curve(tmp_path / "b.csv", [(0, 2), (1, 2)])
    assert main(["frechet", "--curve-a", a, "--curve-b", b, "--tol", "1e-6"]) == 0
    d = float(capsys.readouterr().out)
    assert abs(d - 2.0) <= 1e-6


def test_fscore(graph_dirs, tmp_path, capsys):
    gdir, hdir = graph_dirs
    out = tmp_path / "fsig.csv"
    heat = tmp_path / "fsig.svg"
    code = main(
        [
            "fscore",
            "--from", gdir,
            "--to", hdir,
            "--interval", "1",
            "--match-dist", "2",
            "--max-path", "6",
            "--out", str(out),
            "--heatmap", str(heat),
        ]
    )
    assert code == 0
    score = float(capsys.readouterr().out)
    assert 0.0 <= score <= 1.0
    assert out.exists() and heat.exists()


def test_perturb_writes_graphs(tmp_path, capsys):
    out = tmp_path / "perturbed"
    assert main(["perturb", "--p", "0.5", "--count", "2", "--out-dir", str(out)]) == 0
    assert (out / "grid.vertices.csv").exists()
    assert (out / "perturbed_1.edges.csv").exists()


@pytest.mark.parametrize(
    "args, named",
    [
        (["perturb", "--p", "0.3", "--rng-seed", "-1"], "rng_seed"),
        (["perturb", "--p", "0.3", "--count", "0"], "seed_count"),
        (["study", "--p-values", "0.2", "--seeds", "1", "--k", "1", "--rng-seed", "-1"], "rng_seed"),
    ],
)
def test_a_refused_seed_exits_2_and_writes_nothing(args, named, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(args + ["--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"pathdist: {named} must be") and err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def test_study_outputs_and_worker_determinism(tmp_path):
    args = ["study", "--p-values", "0.2,0.6", "--seeds", "2", "--k", "1", "--rng-seed", "5"]
    out1 = tmp_path / "w1"
    out4 = tmp_path / "w4"
    assert main(args + ["--workers", "1", "--out-dir", str(out1)]) == 0
    assert main(args + ["--workers", "4", "--out-dir", str(out4)]) == 0
    assert (out1 / "study_rows.csv").read_bytes() == (out4 / "study_rows.csv").read_bytes()


def test_usage_error_missing_file(tmp_path):
    assert main(["stats", "--graph", str(tmp_path / "nope")]) == 1


def test_usage_error_bad_flag_exits_1():
    with pytest.raises(SystemExit) as exc:
        main(["distance", "--nonsense"])
    assert exc.value.code == 1


@pytest.mark.parametrize(
    "argv",
    [["perturb", "--p", "0.5"], ["cdf", "--sig", "s.csv", "--out", "c.csv", "--workers", "2"]],
    ids=["perturb-without-out-dir", "cdf-with-workers"],
)
def test_missing_or_unread_flag_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["distance", "--out", "r.csv"],
        ["signature", "--out", "s.csv"],
        ["separation", "--out", "sep.json"],
        ["fscore", "--out", "f.csv"],
        ["study", "--p-values", "0.5", "--seeds", "1", "--out-dir", "study"],
    ],
    ids=lambda argv: argv[0],
)
def test_workers_below_one_is_a_usage_error(argv, graph_dirs, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    gdir, hdir = graph_dirs
    pair = [] if argv[0] == "study" else ["--from", gdir, "--to", hdir]
    with pytest.raises(SystemExit) as exc:
        main(argv + pair + ["--workers", "0"])
    assert exc.value.code == 1
    assert "--workers: must be >= 1" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g", "h"]


def test_workers_below_one_in_a_config_file_exits_2(graph_dirs, tmp_path, capsys):
    gdir, hdir = graph_dirs
    cfg = tmp_path / "run.cfg"
    cfg.write_text("workers = -2\n")
    out = tmp_path / "r.csv"
    assert main(["distance", "--from", gdir, "--to", hdir, "--out", str(out), "--config", str(cfg)]) == 2
    assert "workers must be >= 1" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "r.csv.fingerprint").exists()


def test_data_error_dangling_edge_exits_2(tmp_path):
    (tmp_path / "vertices.csv").write_text("id,x,y\na,0,0\n")
    (tmp_path / "edges.csv").write_text("id,u,v\ne,a,zz\n")
    assert main(["stats", "--graph", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "vertices, edges, line",
    [
        ("id,x,y\na,0,0\nb,1,0\nc,nan,5\n", "id,u,v\ne,a,b\n", 4),
        ("id,x,y\na,0,0\nb,inf,0\n", "id,u,v\ne,a,b\n", 3),
        ("id,x,y\na,0,0\nb,1,0\n", "id,u,v\ne,a,b,0.5,-inf\n", 2),
        ("id,x,y\na,0,0\nb,1,0\n", "id,u,v\ne,a,b\nloop,a,a\n", 3),
    ],
    ids=["nan-isolated-vertex", "inf-edge-endpoint", "inf-interior-point", "self-loop"],
)
def test_bad_graph_row_exits_2_with_its_line(tmp_path, capsys, vertices, edges, line):
    (tmp_path / "vertices.csv").write_text(vertices)
    (tmp_path / "edges.csv").write_text(edges)
    argv = ["distance", "--from", str(tmp_path), "--to", str(tmp_path), "--k", "1"]
    assert main(argv + ["--out", str(tmp_path / "r.csv")]) == 2
    assert f"line {line}:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "rows, line",
    [
        ("x,y\n0,0\n5,abc\n", 3),
        ("x,y\n0,0\n5\n", 3),
        ("0,0\n1,2,3\n", 2),
        ("0,0\nnan,1\n", 2),
        ("0,0\nx,5\n1,1\n", 2),
    ],
    ids=["not-a-number", "one-field", "three-fields", "nan", "header-after-line-1"],
)
def test_bad_curve_row_exits_2_with_its_line(graph_dirs, tmp_path, capsys, rows, line):
    gdir, _ = graph_dirs
    curve = tmp_path / "c.csv"
    curve.write_text(rows)
    assert main(["mapmatch", "--graph", gdir, "--curve", str(curve)]) == 2
    assert f"line {line}:" in capsys.readouterr().err
    good = write_curve(tmp_path / "good.csv", [(0, 0), (1, 0)])
    assert main(["frechet", "--curve-a", good, "--curve-b", str(curve)]) == 2


INPUT_FILES = ["vertices", "edges", "curve", "config", "report", "signature"]


def input_file(case, graph_dirs, tmp_path):
    """An input file of kind ``case`` and the command line that reads it."""
    gdir, hdir = graph_dirs
    pair = ["--from", gdir, "--to", hdir]
    if case in ("vertices", "edges"):
        target = Path(gdir) / f"{case}.csv"
        argv = ["stats", "--graph", gdir]
    elif case == "curve":
        target = Path(write_curve(tmp_path / "c.csv", [(0, 0), (1, 0), (2, 0)]))
        argv = ["mapmatch", "--graph", gdir, "--curve", str(target)]
    elif case == "config":
        target = tmp_path / "run.cfg"
        target.write_text("tol = 0.5\nk = 1\n")
        argv = ["distance", *pair, "--out", str(tmp_path / "r.csv"), "--config", str(target)]
    elif case == "report":
        target = tmp_path / "r.csv"
        argv = ["distance", *pair, "--k", "1", "--out", str(target)]
        assert main(argv) == 0
        argv.append("--resume")
    else:
        target = tmp_path / "sig.csv"
        assert main(["signature", *pair, "--k", "1", "--out", str(target)]) == 0
        argv = ["cdf", "--sig", str(target), "--out", str(tmp_path / "cdf.csv")]
    return target, argv


@pytest.mark.parametrize("case", INPUT_FILES)
def test_bytes_that_are_not_utf8_exit_2_with_their_line(case, graph_dirs, tmp_path, capsys):
    target, argv = input_file(case, graph_dirs, tmp_path)
    lines = target.read_bytes().splitlines(keepends=True)
    lines[1] = b"\xff" + lines[1]
    target.write_bytes(b"".join(lines))
    capsys.readouterr()
    assert main(argv) == 2
    assert "line 2:" in capsys.readouterr().err


def _outputs(tmp_path) -> dict:
    """The bytes of every report and CDF written into ``tmp_path``."""
    return {p.name: p.read_bytes() for pattern in ("r*.csv", "cdf.csv") for p in sorted(tmp_path.glob(pattern))}


@pytest.mark.parametrize("case", INPUT_FILES)
def test_input_files_that_start_with_a_byte_order_mark_load(case, graph_dirs, tmp_path, capsys):
    # Spreadsheet exports start with a UTF-8 byte-order mark; it is no part of the first cell.
    target, argv = input_file(case, graph_dirs, tmp_path)
    plain = target.read_bytes()
    capsys.readouterr()
    assert main(argv) == 0
    expected = capsys.readouterr().out, _outputs(tmp_path)
    target.write_bytes(codecs.BOM_UTF8 + plain)
    assert main(argv) == 0
    assert (capsys.readouterr().out, _outputs(tmp_path)) == expected


@pytest.mark.parametrize("case", INPUT_FILES)
def test_a_bad_byte_after_a_byte_order_mark_names_its_line(case, graph_dirs, tmp_path, capsys):
    target, argv = input_file(case, graph_dirs, tmp_path)
    lines = target.read_bytes().splitlines(keepends=True)
    lines[-1] = b"\xff" + lines[-1]
    target.write_bytes(codecs.BOM_UTF8 + b"".join(lines))
    capsys.readouterr()
    assert main(argv) == 2
    assert f"line {len(lines)}:" in capsys.readouterr().err


CSV_FILES = [case for case in INPUT_FILES if case != "config"]


def write_lines(target, lines) -> None:
    """Write ``lines`` to ``target``, each ending in a newline."""
    target.write_text("".join(line + "\n" for line in lines))


@pytest.mark.parametrize("case", CSV_FILES)
def test_an_unmatched_quote_in_a_large_file_exits_2_with_its_line(case, graph_dirs, tmp_path, capsys):
    # The quoted field runs on to the end of the file, past the csv module's field size limit.
    target, argv = input_file(case, graph_dirs, tmp_path)
    lines = target.read_text().splitlines()
    lines[1] = '"' + lines[1]
    lines.extend([lines[-1]] * (1 + (128 << 10) // len(lines[-1])))
    write_lines(target, lines)
    assert target.stat().st_size > 128 << 10
    capsys.readouterr()
    assert main(argv) == 2
    assert "line 2: field larger than field limit" in capsys.readouterr().err


@pytest.mark.parametrize("case", CSV_FILES)
def test_a_row_after_a_field_that_spans_lines_names_its_own_line(case, graph_dirs, tmp_path, capsys):
    target, argv = input_file(case, graph_dirs, tmp_path)
    lines = target.read_text().splitlines()
    # Line 2's last field now ends in a quoted newline, so its row takes lines 2 and 3.
    first, _, last = lines[1].rpartition(",")
    lines[1] = f'{first},"{last}\n"'
    lines.insert(2, "z,z,z,z,z,z")
    write_lines(target, lines)
    capsys.readouterr()
    assert main(argv) == 2
    assert "line 4:" in capsys.readouterr().err


@pytest.mark.parametrize("case", CSV_FILES)
def test_a_nul_byte_in_a_field_exits_2_with_its_line(case, graph_dirs, tmp_path, capsys):
    # Python 3.10's csv module refuses the line; 3.11 reads it, and the field then fails to parse.
    target, argv = input_file(case, graph_dirs, tmp_path)
    lines = target.read_text().splitlines()
    lines[1] += "\0"
    write_lines(target, lines)
    capsys.readouterr()
    assert main(argv) == 2
    assert "line 2:" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["flag", "config"])
def test_p_values_that_do_not_parse_are_refused(source, tmp_path, capsys):
    argv = ["study", "--seeds", "1", "--out-dir", str(tmp_path / "study")]
    if source == "flag":
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--p-values", "0.1,abc"])
        assert exc.value.code == 1
        assert "--p-values: invalid float list: '0.1,abc'" in capsys.readouterr().err
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("p-values = 0.1,abc\n")
        assert main(argv + ["--config", str(cfg)]) == 2
        assert "'p_values': invalid float list: '0.1,abc'" in capsys.readouterr().err
    assert not (tmp_path / "study").exists()


def test_config_value_that_does_not_parse_exits_2(graph_dirs, tmp_path, capsys):
    gdir, hdir = graph_dirs
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tol = abc\n")
    argv = ["distance", "--from", gdir, "--to", hdir, "--k", "1", "--out", str(tmp_path / "r.csv")]
    assert main(argv + ["--config", str(cfg)]) == 2
    assert "'tol'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ("tol = 0.5\nk 1\n", "line 2: config line without '=': 'k 1'"),
        ("tol = 0.5\nk = 7\n", "line 2: config key 'k': '7' is not one of [1, 2, 3]"),
    ],
    ids=["no-equals", "not-a-choice"],
)
def test_a_bad_config_line_exits_2_with_its_line(graph_dirs, tmp_path, capsys, text, message):
    gdir, hdir = graph_dirs
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    argv = ["distance", "--from", gdir, "--to", hdir, "--out", str(tmp_path / "r.csv"), "--config", str(cfg)]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("value, written", [("yes", ["r_gh.csv", "r_hg.csv"]), ("off", ["r.csv"]), ("ture", [])])
def test_config_bool_takes_only_known_words(graph_dirs, tmp_path, capsys, value, written):
    gdir, hdir = graph_dirs
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"both = {value}\n")
    argv = ["distance", "--from", gdir, "--to", hdir, "--k", "1", "--out", str(tmp_path / "r.csv")]
    assert main(argv + ["--config", str(cfg)]) == (0 if written else 2)
    if not written:
        assert "config key 'both': 'ture'" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.glob("r*.csv")) == written


@pytest.mark.parametrize("command, line", [("distance", "k = 5"), ("signature", "ramp = foo")])
def test_config_value_outside_the_flags_choices_exits_2(graph_dirs, tmp_path, capsys, command, line):
    gdir, hdir = graph_dirs
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    argv = [command, "--from", gdir, "--to", hdir, "--out", str(tmp_path / "out.csv"), "--config", str(cfg)]
    assert main(argv) == 2
    key, _, value = line.split()
    err = capsys.readouterr().err
    assert repr(key) in err and repr(value) in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g", "h", "run.cfg"]


def test_config_keys_that_name_no_flag_are_ignored(graph_dirs, tmp_path, capsys):
    # Namespace entries that are not flags (the handler, the subcommand) take no values.
    gdir, _ = graph_dirs
    cfg = tmp_path / "run.cfg"
    cfg.write_text("fn = x\ncommand = distance\nhelp = 1\n")
    assert main(["stats", "--graph", gdir, "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["edge_count"] == 12


def test_distance_resume_refuses_a_report_from_other_inputs(graph_dirs, tmp_path, capsys):
    gdir, hdir = graph_dirs
    out = tmp_path / "rep.csv"
    assert main(["distance", "--from", gdir, "--to", hdir, "--k", "1", "--out", str(out)]) == 0
    first = out.read_text()
    argv = ["distance", "--from", gdir, "--to", gdir, "--k", "1", "--out", str(out), "--resume"]
    assert main(argv) == 2
    assert "--resume" in capsys.readouterr().err
    assert out.read_text() == first
    # Settings count as inputs too, and a report with no fingerprint is refused.
    same = ["distance", "--from", gdir, "--to", hdir, "--out", str(out), "--resume"]
    assert main(same + ["--k", "1", "--tol", "0.01"]) == 2
    (tmp_path / "rep.csv.fingerprint").unlink()
    assert main(same + ["--k", "1"]) == 2
    # Without --resume the report is recomputed, and then it resumes.
    assert main(["distance", "--from", gdir, "--to", gdir, "--k", "1", "--out", str(out)]) == 0
    assert main(argv) == 0
    assert "max=0.0" in capsys.readouterr().out


@pytest.mark.parametrize(
    "row",
    ["2,bad-row,xx,yy", "2,0-1,2.0", "2,0-1,2.0,nan", "2,0-1,2.0,inf", "2,0-1,2.0,-5"],
    ids=["not-a-number", "three-fields", "nan", "inf", "negative"],
)
def test_distance_resume_bad_row_exits_2_with_its_line(graph_dirs, tmp_path, capsys, row):
    gdir, hdir = graph_dirs
    out = tmp_path / "rep.csv"
    argv = ["distance", "--from", gdir, "--to", hdir, "--k", "1", "--out", str(out)]
    assert main(argv) == 0
    lines = out.read_text().splitlines(keepends=True)
    lines[3] = row + "\n"
    out.write_text("".join(lines))
    assert main(argv + ["--resume"]) == 2
    assert "line 4:" in capsys.readouterr().err
    assert out.read_text() == "".join(lines)


@pytest.mark.parametrize(
    "row",
    ["e1,10.0,abc", "e1,10.0", "e1,10.0,nan", "e1,inf,1.5", "e1,-5,1.5"],
    ids=["not-a-number", "two-fields", "nan", "inf", "negative"],
)
def test_cdf_bad_signature_row_exits_2_with_its_line(tmp_path, capsys, row):
    sig = tmp_path / "sig.csv"
    sig.write_text(f"edge_id,length_m,signature_m\ne0,5.0,1.5\n{row}\n")
    assert main(["cdf", "--sig", str(sig), "--out", str(tmp_path / "cdf.csv")]) == 2
    assert "line 3:" in capsys.readouterr().err
    assert not (tmp_path / "cdf.csv").exists()


def test_config_file_defaults_flags_override(graph_dirs, tmp_path, capsys):
    gdir, hdir = graph_dirs
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tol = 0.5\nworkers = 2\n")
    out = tmp_path / "r.csv"
    # tol comes from the file; --workers on the command line wins.
    code = main(
        [
            "distance",
            "--from", gdir,
            "--to", hdir,
            "--k", "1",
            "--out", str(out),
            "--config", str(cfg),
            "--workers", "1",
        ]
    )
    assert code == 0
    assert out.exists()


@pytest.mark.parametrize("flags, line", [(["--bo"], "both = no"), (["--wor", "1"], "workers = 0")], ids=["bo", "wor"])
def test_a_flag_in_any_form_argparse_accepts_wins_over_the_config_file(graph_dirs, tmp_path, flags, line):
    # argparse takes an unambiguous prefix of a long flag, so the file must lose to it too.
    gdir, hdir = graph_dirs
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    argv = ["distance", "--from", gdir, "--to", hdir, "--k", "1", "--out", str(tmp_path / "r.csv")]
    assert main(argv + flags + ["--config", str(cfg)]) == 0
    expected = ["r.csv"] if "workers" in line else ["r_gh.csv", "r_hg.csv"]
    assert sorted(p.name for p in tmp_path.glob("r*.csv")) == expected


def test_a_bad_config_value_exits_2_even_where_a_flag_overrides_it(graph_dirs, tmp_path, capsys):
    gdir, hdir = graph_dirs
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k = 5\n")
    argv = ["distance", "--from", gdir, "--to", hdir, "--k", "1", "--out", str(tmp_path / "r.csv")]
    assert main(argv + ["--config", str(cfg)]) == 2
    assert "config key 'k': '5'" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


def _demo_city(missing_street: bool, shift: float) -> EmbeddedGraph:
    """The pair of ``demos/03_signatures_heatmap.py``: string ids, one street gone."""
    vertices = [
        ("a", (0, 0)), ("b", (100, 0)), ("c", (200, 0)),
        ("d", (0, 100)), ("e", (100 + shift, 100 + shift)), ("f", (200, 100)),
        ("g", (0, 200)), ("h", (100, 200)), ("i", (200, 200)),
    ]
    edges = [
        ("ab", ("a", "b")), ("bc", ("b", "c")), ("de", ("d", "e")), ("ef", ("e", "f")),
        ("gh", ("g", "h")), ("hi", ("h", "i")), ("ad", ("a", "d")), ("dg", ("d", "g")),
        ("be", ("b", "e")), ("eh", ("e", "h")), ("cf", ("c", "f")),
    ]
    if not missing_street:
        edges.append(("fi", ("f", "i")))
    return EmbeddedGraph(vertices, edges)


def test_signature_rows_do_not_depend_on_hash_seed(tmp_path):
    # Graphs loaded from CSV have string ids, whose set order changes with
    # PYTHONHASHSEED; the signature rows must come out in the same order.
    dirs = []
    for name, graph in (("g", _demo_city(False, 0.0)), ("h", _demo_city(True, 12.0))):
        d = tmp_path / name
        d.mkdir()
        write_graph_csv(graph, d / "vertices.csv", d / "edges.csv")
        dirs.append(str(d))
    src = str(Path(pathdist.__file__).resolve().parents[1])
    outputs = []
    for hash_seed in ("1", "3"):
        out = tmp_path / f"sig_{hash_seed}.csv"
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
        subprocess.run(
            [sys.executable, "-m", "pathdist.cli", "signature", "--from", dirs[0], "--to", dirs[1],
             "--k", "2", "--out", str(out)],
            env=env, check=True, capture_output=True,
        )
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
def test_non_finite_tolerance_exits_2_before_writing(graph_dirs, tmp_path, capsys, tol):
    gdir, hdir = graph_dirs
    out = tmp_path / "report.csv"
    code = main(["distance", "--from", gdir, "--to", hdir, "--k", "1", "--out", str(out), f"--tol={tol}"])
    assert code == 2
    assert "tol must be positive and finite" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "report.csv.fingerprint").exists()
    curve = write_curve(tmp_path / "c.csv", [(0, 0), (1, 0)])
    assert main(["mapmatch", "--graph", gdir, "--curve", curve, f"--tol={tol}"]) == 2
    assert main(["frechet", "--curve-a", curve, "--curve-b", curve, f"--tol={tol}"]) == 2
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"tol = {tol}\n")
    assert main(["mapmatch", "--graph", gdir, "--curve", curve, "--config", str(cfg)]) == 2


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_cdf_reference_exits_2_before_writing(graph_dirs, tmp_path, capsys, source, value):
    gdir, hdir = graph_dirs
    sig = tmp_path / "sig.csv"
    assert main(["signature", "--from", gdir, "--to", hdir, "--k", "1", "--out", str(sig)]) == 0
    out, plot = tmp_path / "cdf.csv", tmp_path / "cdf.svg"
    argv = ["cdf", "--sig", str(sig), "--out", str(out), "--plot", str(plot)]
    if source == "flag":
        argv.append(f"--reference={value}")
    else:
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"reference = {value}\n")
        argv += ["--config", str(cfg)]
    capsys.readouterr()
    assert main(argv) == 2
    assert "reference line needs a finite x" in capsys.readouterr().err
    assert not out.exists() and not plot.exists()


def test_a_source_map_without_edges_runs_through(tmp_path):
    # No edge, so no path and an empty signature: there is nothing to colour
    # and no CDF to draw, and the reverse pass still has its own.
    g = EmbeddedGraph([(0, (0.0, 0.0)), (1, (5.0, 0.0))], [])
    write_graph_csv(g, tmp_path / "g.vertices.csv", tmp_path / "g.edges.csv")
    write_graph_csv(grid_graph(4.0, 2.0), tmp_path / "h.vertices.csv", tmp_path / "h.edges.csv")
    gp, hp = str(tmp_path / "g"), str(tmp_path / "h")
    for both in (False, True):
        out = run_all(RunConfig(gp, hp, str(tmp_path / f"out{both}"), k_values=(1, 2), both_directions=both))
        files = json.loads((out / "manifest.json").read_text())["files"]
        assert all((out / name).exists() for name in files)
        assert ("cdf.svg" in files) == both == (out / "cdf.svg").exists()
        assert (out / "signature_gh_k2.csv").read_text() == "edge_id,length_m,signature_m\n"
    heat = tmp_path / "sig.svg"
    argv = ["signature", "--from", gp, "--to", hp, "--k", "1", "--out", str(tmp_path / "s.csv")]
    assert main(argv + ["--heatmap", str(heat)]) == 0
    assert heat.exists()


@pytest.mark.parametrize("option", ["--interval", "--match-dist", "--max-path"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_fscore_parameter_exits_2_before_writing(graph_dirs, tmp_path, capsys, option, value):
    gdir, hdir = graph_dirs
    out = tmp_path / "fscore.csv"
    code = main(["fscore", "--from", gdir, "--to", hdir, "--out", str(out), f"{option}={value}"])
    assert code == 2
    assert "F-score parameters" in capsys.readouterr().err
    assert not out.exists()
