import io
import json

import numpy as np
import pytest

from pathdist.errors import InputError, ParseError, StructuralError
from pathdist.graph import EmbeddedGraph
from pathdist.signatures import (
    CdfCurve,
    SignatureMap,
    _cdf_from_pairs,
    cdf,
    cdf_at,
    cdf_from_signature_rows,
    export_cdf_plot,
    export_heatmap,
    read_signature_csv,
    write_signature_csv,
)


def two_edge_graph():
    # Edge lengths 1 and 3.
    return EmbeddedGraph(
        [(0, (0, 0)), (1, (1, 0)), (2, (4, 0))],
        [("short", (0, 1)), ("long", (1, 2))],
    )


def sig(values, graph=None, target="edge", k=1):
    return SignatureMap(target=target, k=k, values=values, graph=graph or two_edge_graph())


def test_signature_validation():
    g = two_edge_graph()
    with pytest.raises(StructuralError):
        sig({"nope": 1.0}, g)
    with pytest.raises(InputError):
        sig({"short": -2.0}, g)
    with pytest.raises(InputError):
        SignatureMap(target="face", k=1, values={}, graph=g)


def test_cdf_uniform_signature_single_jump():
    curve = cdf(sig({"short": 5.0, "long": 5.0}))
    assert curve.xs == (5.0,)
    assert curve.ys == (1.0,)
    assert curve.value_at(4.999) == 0.0
    assert curve.value_at(5.0) == 1.0


def scan_value_at(curve: CdfCurve, x: float) -> float:
    """The step value by a linear scan over the breakpoints."""
    out = 0.0
    for bx, by in zip(curve.xs, curve.ys):
        if bx > x:
            break
        out = by
    return out


def test_cdf_value_at_matches_a_breakpoint_scan():
    rng = np.random.default_rng(17)
    for n in (1, 2, 7, 40):
        # Rounded values make ties, which merge into one breakpoint.
        values = np.round(rng.uniform(0.0, 10.0, n), 1).tolist()
        curve = _cdf_from_pairs([(v, w) for v, w in zip(values, rng.uniform(0.1, 2.0, n))])
        xs = np.array(curve.xs)
        probes = [-1.0, 0.0, *xs, *np.nextafter(xs, -np.inf), *np.nextafter(xs, np.inf), 11.0,
                  *rng.uniform(-1.0, 11.0, 20), -np.inf, np.inf]
        for x in probes:
            assert curve.value_at(float(x)) == scan_value_at(curve, float(x))


def test_cdf_weighted_by_length():
    # Lengths 1 and 3 with signatures 5 and 10.
    curve = cdf(sig({"short": 5.0, "long": 10.0}))
    assert curve.value_at(5.0) == pytest.approx(0.25)
    assert curve.value_at(9.999) == pytest.approx(0.25)
    assert curve.value_at(10.0) == pytest.approx(1.0)
    assert curve.value_at(99.0) == 1.0
    assert curve.value_at(0.0) == 0.0


def test_cdf_at_shortcut():
    s = sig({"short": 5.0, "long": 10.0})
    assert cdf_at(s, 5.0) == pytest.approx(0.25)
    assert cdf_at(s, 10.0) == 1.0


def test_cdf_requires_edges_and_values():
    g = two_edge_graph()
    with pytest.raises(InputError):
        cdf(SignatureMap(target="vertex", k=1, values={0: 1.0}, graph=g))
    with pytest.raises(InputError):
        cdf(SignatureMap(target="edge", k=1, values={}, graph=g))


def test_cdf_is_monotone_and_ends_at_one():
    curve = cdf(sig({"short": 2.0, "long": 7.5}))
    assert list(curve.ys) == sorted(curve.ys)
    assert curve.ys[-1] == 1.0


def test_heatmap_geojson_round_trip(tmp_path):
    g = two_edge_graph()
    s = sig({"short": 1.25, "long": 8.5}, g)
    out = tmp_path / "sig.geojson"
    export_heatmap(s, out, fmt="geojson")
    doc = json.loads(out.read_text())
    assert len(doc["features"]) == 2
    ramp_values = {f["properties"]["edge_id"]: f["properties"]["ramp_value"] for f in doc["features"]}
    assert ramp_values["long"] == 1.0  # max-signature edge tops the ramp
    restored = {f["properties"]["edge_id"]: f["properties"]["signature_m"] for f in doc["features"]}
    assert restored == s.values


def test_heatmap_svg_uniform_color(tmp_path):
    g = two_edge_graph()
    out = tmp_path / "uniform.svg"
    export_heatmap(sig({"short": 3.0, "long": 3.0}, g), out, fmt="svg")
    text = out.read_text()
    colors = {seg.split('"')[0] for seg in text.split('stroke="')[1:] if seg.startswith("#")}
    assert len(colors) == 1  # all edges share one ramp color


def test_heatmap_svg_two_value_quantile_two_colors(tmp_path):
    g = two_edge_graph()
    out = tmp_path / "two.svg"
    export_heatmap(sig({"short": 1.0, "long": 9.0}, g), out, fmt="svg", ramp="quantile")
    text = out.read_text()
    colors = {seg.split('"')[0] for seg in text.split('stroke="')[1:] if seg.startswith("#")}
    assert len(colors) == 2


def test_heatmap_svg_deterministic(tmp_path):
    g = two_edge_graph()
    s = sig({"short": 1.0, "long": 9.0}, g)
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    export_heatmap(s, a, fmt="svg")
    export_heatmap(s, b, fmt="svg")
    assert a.read_bytes() == b.read_bytes()


def test_heatmap_rejects_vertex_target_and_bad_format(tmp_path):
    g = two_edge_graph()
    v = SignatureMap(target="vertex", k=1, values={0: 1.0}, graph=g)
    with pytest.raises(InputError):
        export_heatmap(v, tmp_path / "x.svg")
    with pytest.raises(InputError):
        export_heatmap(sig({"short": 1.0}, g), tmp_path / "x.png", fmt="png")
    with pytest.raises(InputError):
        export_heatmap(sig({"short": 1.0}, g), tmp_path / "x.svg", ramp="log")


def test_linear_ramp_tops_at_max(tmp_path):
    g = two_edge_graph()
    s = sig({"short": 2.0, "long": 8.0}, g)
    from pathdist.signatures import _ramp_values

    rv = _ramp_values(s, "linear")
    assert rv["long"] == 1.0
    assert rv["short"] == pytest.approx(0.25)


def test_cdf_plot_renders_and_requires_curves(tmp_path):
    curve = CdfCurve((1.0, 2.0), (0.5, 1.0))
    out = tmp_path / "cdf.svg"
    export_cdf_plot([curve], ["test"], out)
    text = out.read_text()
    assert "<svg" in text and "polyline" in text
    with pytest.raises(InputError):
        export_cdf_plot([], [], tmp_path / "empty.svg")
    with pytest.raises(InputError):
        export_cdf_plot([curve], [], tmp_path / "mismatch.svg")


def test_cdf_plot_two_curves_distinct_strokes(tmp_path):
    a = CdfCurve((1.0,), (1.0,))
    b = CdfCurve((2.0,), (1.0,))
    out = tmp_path / "two.svg"
    export_cdf_plot([a, b], ["a", "b"], out)
    text = out.read_text()
    assert text.count("polyline") >= 2
    assert "#1f77b4" in text and "#d62728" in text


def test_signature_csv_round_trip(tmp_path):
    g = two_edge_graph()
    s = sig({"short": 1.5, "long": 6.25}, g)
    path = tmp_path / "sig.csv"
    with open(path, "w") as fh:
        write_signature_csv(s, fh)
    with open(path) as fh:
        rows = read_signature_csv(fh)
    assert [(r[0], r[2]) for r in rows] == [("short", 1.5), ("long", 6.25)]
    curve = cdf_from_signature_rows(rows)
    assert curve.value_at(1.5) == pytest.approx(0.25)
    # Total edge-length weight equals the graph length.
    assert sum(r[1] for r in rows) == pytest.approx(g.total_length(), rel=1e-9)


def test_signature_csv_without_a_header_keeps_its_first_row():
    assert read_signature_csv(io.StringIO("e1,1.0,2.0\ne2,3.0,4.0\n")) == [("e1", 1.0, 2.0), ("e2", 3.0, 4.0)]
    assert read_signature_csv(io.StringIO("EDGE_ID,length_m,signature_m\ne2,3.0,4.0\n")) == [("e2", 3.0, 4.0)]
    # A first row that is neither the header nor a signature row is an error, not a header.
    with pytest.raises(ParseError, match="^line 1: bad signature row"):
        read_signature_csv(io.StringIO("edge,length,signature\ne2,3.0,4.0\n"))


def test_signature_csv_quotes_ids_with_commas_and_quotes(tmp_path):
    g = EmbeddedGraph(
        [(0, (0, 0)), (1, (1, 0)), (2, (4, 0))],
        [("a,b", (0, 1)), ('q"x', (1, 2))],
    )
    s = sig({"a,b": 1.5, 'q"x': 6.25}, g)
    path = tmp_path / "sig.csv"
    with open(path, "w", newline="") as fh:
        write_signature_csv(s, fh)
    assert path.read_text() == (
        'edge_id,length_m,signature_m\n"a,b",1.0,1.5\n"q""x",3.0,6.25\n'
    )
    with open(path, newline="") as fh:
        rows = read_signature_csv(fh)
    assert rows == [("a,b", 1.0, 1.5), ('q"x', 3.0, 6.25)]
