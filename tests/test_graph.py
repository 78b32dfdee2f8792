import io
import json
import math

import numpy as np
import pytest

from pathdist.errors import InputError, ParseError, StructuralError
from pathdist.geometry import PolyLine
from pathdist.graph import (
    Edge,
    EmbeddedGraph,
    contract_degree_two,
    csv_rows,
    export_geojson,
    graph_stats,
    load_graph,
    write_graph_csv,
)
from pathdist.experiments import grid_graph


def write(path, text):
    path.write_text(text)
    return str(path)


def test_load_simple_graph(tmp_path):
    v = write(tmp_path / "v.csv", "id,x,y\na,0,0\nb,3,4\n")
    e = write(tmp_path / "e.csv", "id,u,v\ne1,a,b\n")
    g = load_graph(v, e)
    assert len(g.vertices) == 2
    assert g.degree("a") == 1 and g.degree("b") == 1
    assert g.edges["e1"].geometry.length() == pytest.approx(5.0)


def test_load_edge_with_interior_points(tmp_path):
    v = write(tmp_path / "v.csv", "a,0,0\nb,2,0\n")
    e = write(tmp_path / "e.csv", "e1,a,b,1,1\n")
    g = load_graph(v, e)
    assert np.allclose(g.edges["e1"].geometry.points, [(0, 0), (1, 1), (2, 0)])


def test_load_rejects_unknown_endpoint(tmp_path):
    v = write(tmp_path / "v.csv", "a,0,0\n")
    e = write(tmp_path / "e.csv", "e1,a,zz\n")
    with pytest.raises(StructuralError):
        load_graph(v, e)


def test_load_rejects_duplicate_ids_with_line_number(tmp_path):
    v = write(tmp_path / "v.csv", "a,0,0\na,1,1\n")
    e = write(tmp_path / "e.csv", "")
    with pytest.raises(ParseError, match="line 2"):
        load_graph(v, e)


def test_csv_rows_number_each_row_by_the_line_it_starts_on():
    text = 'ID,x\n\n"a\nb",1\n , \nc,2\nid,3\n'
    assert list(csv_rows(io.StringIO(text, newline=""), "id")) == [(3, ["a\nb", "1"]), (6, ["c", "2"]), (7, ["id", "3"])]
    with pytest.raises(ParseError, match="^line 2: field larger than field limit"):
        list(csv_rows(io.StringIO('id,x\n"a,' + "b" * (128 << 10)), "id"))


def test_load_reports_malformed_row_line(tmp_path):
    v = write(tmp_path / "v.csv", "a,0,0\nb,xx,1\n")
    e = write(tmp_path / "e.csv", "")
    with pytest.raises(ParseError, match="line 2"):
        load_graph(v, e)


def test_self_loop_rejected():
    with pytest.raises(StructuralError):
        EmbeddedGraph([(0, (0, 0))], [(0, (0, 0))])


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_non_finite_vertex_rejected_without_edges(x):
    # No edge geometry checks an isolated vertex, so the graph checks it.
    with pytest.raises(InputError, match="vertex 'far'"):
        EmbeddedGraph([("a", (0, 0)), ("b", (1, 0)), ("far", (x, 0))], [("e", ("a", "b"))])


def test_grid_counts_and_stats(grid6):
    stats = graph_stats(grid6)
    assert stats.vertex_count == 36
    assert stats.edge_count == 60  # 2 * 6 * 5
    assert stats.total_length == pytest.approx(120.0)  # 60 edges of length 2
    assert stats.vertex_count_degree_not3 == 20


def test_empty_graph_stats():
    g = EmbeddedGraph([], [])
    stats = graph_stats(g)
    assert stats == (0, 0, 0, 0.0)


def test_csv_round_trip(tmp_path, grid6):
    vfile = tmp_path / "grid.vertices.csv"
    efile = tmp_path / "grid.edges.csv"
    write_graph_csv(grid6, vfile, efile)
    g2 = load_graph(vfile, efile)
    assert len(g2.vertices) == 36 and len(g2.edges) == 60
    assert g2.total_length() == pytest.approx(120.0)


def test_geojson_export(tmp_path, grid6):
    out = tmp_path / "g.geojson"
    doc = export_geojson(grid6, out)
    assert doc["type"] == "FeatureCollection"
    assert len(doc["features"]) == 60
    on_disk = json.loads(out.read_text())
    assert on_disk == json.loads(json.dumps(doc))
    feat = doc["features"][0]
    assert feat["geometry"]["type"] == "LineString"
    assert "edge_id" in feat["properties"]


def test_contract_merges_degree_two_chain():
    g = EmbeddedGraph(
        [("a", (0, 0)), ("b", (1, 0)), ("c", (2, 0))],
        [("e1", ("a", "b")), ("e2", ("b", "c"))],
    )
    c = contract_degree_two(g)
    assert set(c.vertices) == {"a", "c"}
    assert len(c.edges) == 1
    geom = next(iter(c.edges.values())).geometry
    assert np.allclose(geom.points, [(0, 0), (1, 0), (2, 0)])


def test_contract_grid_corners_become_bends():
    g = grid_graph(4.0, 2.0)  # 3x3 grid: 4 corners of degree 2
    c = contract_degree_two(g)
    assert len(c.vertices) == 5  # 4 boundary middles + center
    assert all(c.degree(v) != 2 for v in c.vertices)
    assert c.total_length() == pytest.approx(g.total_length())
    # Corner chains become single edges with a bend at the old corner.
    bend_edges = [e for e in c.edges.values() if len(e.geometry.points) == 3]
    assert len(bend_edges) == 4


def test_contract_pure_cycle_keeps_two_anchors():
    g = EmbeddedGraph(
        [(0, (0, 0)), (1, (1, 0)), (2, (1, 1)), (3, (0, 1))],
        [(0, (0, 1)), (1, (1, 2)), (2, (2, 3)), (3, (3, 0))],
    )
    c = contract_degree_two(g)
    assert len(c.vertices) == 2
    assert len(c.edges) == 2  # two parallel chains, no self-loop
    assert all(e.u != e.v for e in c.edges.values())
    assert c.total_length() == pytest.approx(4.0)


def test_contract_idempotent_and_length_preserving(grid6):
    c1 = contract_degree_two(grid6)
    c2 = contract_degree_two(c1)
    assert set(c1.vertices) == set(c2.vertices)
    assert len(c1.edges) == len(c2.edges)
    assert c2.total_length() == pytest.approx(grid6.total_length(), rel=1e-9)


def test_contract_keeps_a_self_loop_as_one_edge():
    # A self-loop, which only a pickle carries, is a chain of one edge from
    # its vertex back to it: on an anchor (c) and on a vertex of its own (z).
    g = EmbeddedGraph(
        [("c", (0, 0)), ("m", (5, 0)), ("e", (10, 0)), ("n", (0, 10)), ("w", (-10, 0)), ("z", (20, 20))],
        [(0, ("c", "m")), (1, ("m", "e")), (2, ("c", "n")), (3, ("c", "w"))],
    )
    edges = dict(g.edges)
    for eid, v, (x, y) in (("loop", "c", (0.0, 0.0)), ("lone", "z", (20.0, 20.0))):
        edges[eid] = Edge(v, v, PolyLine([(x, y), (x + 3, y + 4), (x + 3, y), (x, y)]))
    looped = EmbeddedGraph.__new__(EmbeddedGraph)
    looped.__setstate__((dict(g.vertices), edges))
    c = contract_degree_two(looped)
    assert list(c.vertices) == ["c", "e", "n", "w", "z"]
    assert list(c.edges) == [0, 2, 3, "loop", "lone"]
    for eid in ("loop", "lone"):
        assert (c.edges[eid].u, c.edges[eid].v) == (looped.edges[eid].u,) * 2
        assert c.edges[eid].geometry.points.tobytes() == looped.edges[eid].geometry.points.tobytes()
    assert c.total_length() == pytest.approx(looped.total_length(), rel=1e-12)
    again = contract_degree_two(c)
    assert list(again.vertices) == list(c.vertices)
    assert list(again.edges) == list(c.edges)
    for eid, e in c.edges.items():
        assert (again.edges[eid].u, again.edges[eid].v) == (e.u, e.v)
        assert again.edges[eid].geometry.points.tobytes() == e.geometry.points.tobytes()


def test_contract_inverts_subdivision():
    # Splitting edges with degree-2 vertices and contracting again restores
    # the original counts; leftover degree-2 vertices appear only as anchors
    # of two parallel chains (2-cycles, forced by the no-self-loop rule).
    from oracles import random_geometric_graph

    for seed in range(3):
        rng = np.random.default_rng(seed)
        base = random_geometric_graph(rng, 9, 3, 10.0)
        vertices = list(base.vertices.items())
        edges = []
        next_v, next_e = 10_000, 0
        for e in base.edges.values():
            a = np.asarray(base.vertices[e.u], float)
            b = np.asarray(base.vertices[e.v], float)
            parts = int(rng.integers(1, 5))
            chain = [e.u]
            for i in range(1, parts):
                pos = a + (i / parts) * (b - a)
                vertices.append((next_v, (float(pos[0]), float(pos[1]))))
                chain.append(next_v)
                next_v += 1
            chain.append(e.v)
            for u, v in zip(chain[:-1], chain[1:]):
                edges.append((next_e, (u, v)))
                next_e += 1
        sub = EmbeddedGraph(vertices, edges)
        con = contract_degree_two(sub)
        assert con.total_length() == pytest.approx(base.total_length(), rel=1e-9)
        for v in con.vertices:
            if con.degree(v) == 2:
                e1, e2 = con.adjacency[v]
                assert {con.edges[e1].u, con.edges[e1].v} == {con.edges[e2].u, con.edges[e2].v}
        con2 = contract_degree_two(con)
        assert len(con2.edges) == len(con.edges)
        assert len(con2.vertices) == len(con.vertices)


def test_geometry_must_join_endpoints():
    with pytest.raises(StructuralError):
        EmbeddedGraph(
            [(0, (0, 0)), (1, (1, 0))],
            [(0, (0, 1, PolyLine([(0, 0), (5, 5)])))],
        )
