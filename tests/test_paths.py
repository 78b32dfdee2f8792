import math
import pickle
import warnings

import numpy as np
import pytest

from pathdist.errors import InputError, StructuralError
from pathdist.geometry import PolyLine
from pathdist.graph import EmbeddedGraph
from pathdist.pathdistance import match_all_paths, max_path_distance
from pathdist.paths import VertexPath, canonical_walks, dart_table, enumerate_paths, path_curves, path_geometry, sub_rows

from oracles import (
    adjacency_from_edges,
    as_walks,
    canonical_path,
    count_canonical_walks,
    link_length,
    path_key,
    random_geometric_graph,
    recursive_paths,
    reversed_path,
    walk_geometry,
)


def single_edge():
    return EmbeddedGraph([(0, (0, 0)), (1, (1, 0))], [("e", (0, 1))])


def star(n=4):
    verts = [(0, (0.0, 0.0))]
    edges = []
    for i in range(n):
        ang = 2 * np.pi * i / n
        verts.append((i + 1, (10 * np.cos(ang), 10 * np.sin(ang))))
        edges.append((i, (0, i + 1)))
    return EmbeddedGraph(verts, edges)


def test_single_edge_k1():
    paths = list(enumerate_paths(single_edge(), 1))
    assert len(paths) == 1
    assert link_length(paths[0]) == 1


def test_star_k2_contains_all_center_pairs():
    g = star(4)
    paths = list(enumerate_paths(g, 2))
    centered = [p for p in paths if p.vertex_ids[1] == 0]
    # All unordered leaf pairs through the center, including backtracks l-0-l.
    assert len(centered) == 6 + 4
    # Walks that bounce off a leaf (0-l-0) are paths too; the full set
    # therefore also holds one leaf-centered backtrack per leaf.
    assert len(paths) == 14
    assert len(paths) == count_canonical_walks(g, 2)


def test_no_path_is_a_reverse_of_another():
    g = star(4)
    for k in (1, 2, 3):
        keys = set()
        for p in enumerate_paths(g, k):
            assert path_key(p) not in keys
            assert path_key(reversed_path(p)) not in keys
            keys.add(path_key(p))


def mixed_id_graph():
    """Ids of both types, whose repr order differs from their value order (``"10" < "9"``).

    Edges 10 and ``"p"`` both join 9 and 10, so a walk 9-10-9 over both is
    ordered by its edge ids alone.
    """
    verts = [(9, (0.0, 0.0)), (10, (10.0, 0.0)), ("a", (10.0, 10.0)), (2, (0.0, 10.0))]
    edges = [
        (10, (9, 10)),
        (9, (10, "a")),
        ("e", ("a", 2)),
        (1, (2, 9)),
        ("f", (9, "a")),
        ("p", (9, 10, [(0.0, 0.0), (5.0, -3.0), (10.0, 0.0)])),
    ]
    return EmbeddedGraph(verts, edges)


def test_enumeration_keeps_the_key_order_on_mixed_ids():
    g = mixed_id_graph()
    adj = adjacency_from_edges(g)

    def walks(vseq, eseq, k):
        # Every directed walk, starts in insertion order, hops in adjacency order.
        if len(eseq) == k:
            yield VertexPath(tuple(vseq), tuple(eseq))
            return
        for eid, w in adj[vseq[-1]]:
            yield from walks(vseq + [w], eseq + [eid], k)

    for k in (1, 2, 3):
        expected = [
            p for v in g.vertices for p in walks([v], [], k) if path_key(p) <= path_key(reversed_path(p))
        ]
        assert list(enumerate_paths(g, k)) == expected, k
    assert VertexPath((9, 10, 9), ("p", 10)) in enumerate_paths(g, 2)
    assert VertexPath((9, 10, 9), (10, "p")) not in enumerate_paths(g, 2)


class SameRepr:
    """An id whose ``repr`` every instance shares, so distinct ids tie on it."""

    def __repr__(self):
        return "v"


def tied_repr_graph():
    """Ids whose ``repr``s tie in a prefix (``1``, ``10``, ``'1'``), and distinct ids with one ``repr``.

    Vertices ``a`` and ``b`` and edges ``x`` and ``y`` are :class:`SameRepr`,
    so a walk ``a-b-a`` over ``x`` and ``y`` equals its reverse by ``repr``.
    """
    a, b, x, y = SameRepr(), SameRepr(), SameRepr(), SameRepr()
    verts = [(10, (0.0, 0.0)), (1, (10.0, 0.0)), ("1", (10.0, 10.0)), ("10", (0.0, 10.0)), (a, (5.0, 5.0)), (b, (5.0, -5.0))]
    edges = [
        ("1", (1, 10)),
        (1, (10, "10")),
        (10, ("1", "10")),
        ("10", (1, "1")),
        (x, (a, b)),
        (y, (b, a, [(5.0, -5.0), (8.0, 0.0), (5.0, 5.0)])),
        (11, (a, 10)),
        ("11", (b, 1)),
    ]
    return EmbeddedGraph(verts, edges)


def enumeration_case(name, grid6):
    from test_fscore import _with_self_loop
    from test_pathdistance import cross

    if name == "grid6":
        return [grid6]
    if name == "random":
        rng = np.random.default_rng(11)
        return [random_geometric_graph(rng, 8, 3, 10.0) for _ in range(3)]
    if name == "parallel edges":
        return [degenerate_joins_graph()]
    if name == "self-loop":
        return [_with_self_loop(cross(), "c", (3.0, 4.0)), _with_self_loop(mixed_id_graph(), 9, (-2.0, 3.0))]
    if name == "tied reprs":
        return [tied_repr_graph()]
    return [mixed_id_graph()]


@pytest.mark.parametrize("name", ["grid6", "random", "parallel edges", "self-loop", "tied reprs", "mixed ids"])
def test_array_enumeration_keeps_the_recursive_order(name, grid6):
    for g in enumeration_case(name, grid6):
        for k in (1, 2, 3):
            walks = canonical_walks(g, k)
            paths = list(enumerate_paths(g, k))
            assert paths == list(recursive_paths(g, k)), k
            assert len(walks) == len(paths)
            # Read by index, the walks gather what their paths, checked hop by hop, do.
            curves, lengths = path_curves(g, walks, return_lengths=True)
            want, want_lengths = path_curves(g, as_walks(g, paths), return_lengths=True)
            assert [c.tobytes() for c in curves] == [c.tobytes() for c in want]
            assert [x.hex() for x in lengths] == [x.hex() for x in want_lengths]
        for k in (2, 3, 4):
            assert_sub_rows_are_canonical_halves(g, k)
    if name == "tied reprs":
        a, b = list(g.vertices)[4:]
        x, y = list(g.edges)[4:6]
        # Equal reprs all the way: a walk and its reverse are both canonical.
        paths = list(enumerate_paths(g, 2))
        assert VertexPath((a, b, a), (x, y)) in paths and VertexPath((a, b, a), (y, x)) in paths


def assert_sub_rows_are_canonical_halves(g, k):
    """Each link-``k`` walk's sub rows hold its prefix's and suffix's ``canonical_path``, and gather their curves."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # k > 3 warns once per graph
        paths = list(enumerate_paths(g, k))
    shorter = list(enumerate_paths(g, k - 1))
    halves = [
        (
            canonical_path(VertexPath(p.vertex_ids[:-1], p.edge_ids[:-1])),
            canonical_path(VertexPath(p.vertex_ids[1:], p.edge_ids[1:])),
        )
        for p in paths
    ]
    subs = sub_rows(g, k)
    assert [(shorter[a], shorter[b]) for a, b in subs.tolist()] == halves, k
    assert sub_rows(g, k) is subs and not subs.flags.writeable
    rows = np.unique(subs)
    curves = path_curves(g, canonical_walks(g, k - 1)[rows])
    for r, curve in zip(rows.tolist(), curves):
        assert curve.tobytes() == path_geometry(g, shorter[r]).collapsed().points.tobytes(), (k, r)


def test_walks_are_enumerated_once_per_graph_and_link_length(grid6):
    g = pickle.loads(pickle.dumps(grid6))
    assert canonical_walks(g, 2) is canonical_walks(g, np.int64(2))
    assert canonical_walks(g, 2) is not canonical_walks(g, 3)
    assert not canonical_walks(g, 2).darts.flags.writeable
    # A pickled graph arrives without them, as with its dart table.
    assert ("walks", 2) in g._frozen_cache
    assert ("walks", 2) not in pickle.loads(pickle.dumps(g))._frozen_cache


def test_grid_counts_match_bruteforce(grid6):
    for k in (1, 2, 3):
        assert sum(1 for _ in enumerate_paths(grid6, k)) == count_canonical_walks(grid6, k)


def test_random_graph_counts_match_bruteforce():
    rng = np.random.default_rng(5)
    for _ in range(5):
        g = random_geometric_graph(rng, 8, 3, 10.0)
        for k in (1, 2, 3):
            assert sum(1 for _ in enumerate_paths(g, k)) == count_canonical_walks(g, k)


def test_paths_are_valid_walks(grid6):
    for p in enumerate_paths(grid6, 3):
        for i, eid in enumerate(p.edge_ids):
            e = grid6.edges[eid]
            assert {p.vertex_ids[i], p.vertex_ids[i + 1]} == {e.u, e.v}


def test_path_geometry_orientation_and_shared_points():
    g = EmbeddedGraph(
        [(0, (0, 0)), (1, (2, 0)), (2, (2, 2))],
        [("a", (0, 1)), ("b", (2, 1))],  # b stored from vertex 2 down to 1
    )
    p = VertexPath((0, 1, 2), ("a", "b"))
    geom = path_geometry(g, p)
    assert np.allclose(geom.points, [(0, 0), (2, 0), (2, 2)])
    rev = path_geometry(g, reversed_path(p))
    assert np.allclose(rev.points, geom.points[::-1])


def test_path_geometry_single_edge_identity():
    g = single_edge()
    p = VertexPath((0, 1), ("e",))
    assert np.allclose(path_geometry(g, p).points, g.edges["e"].geometry.points)


def test_large_k_warns(grid6):
    with pytest.warns(UserWarning):
        next(iter(enumerate_paths(grid6, 4)))


@pytest.mark.parametrize("k", [0, -1, 1.5, 2.0, math.nan, math.inf, True, "2", None])
def test_link_length_must_be_an_integer_of_at_least_one(k):
    g = star(3)
    with pytest.raises(InputError, match="link-length"):
        list(enumerate_paths(g, k))
    with pytest.raises(InputError, match="link-length"):
        max_path_distance(g, g, k)
    with pytest.raises(InputError, match="link-length"):
        match_all_paths(g, g, k)


def test_numpy_integer_link_lengths_are_accepted():
    g = star(3)
    assert list(enumerate_paths(g, np.int64(2))) == list(enumerate_paths(g, 2))


def degenerate_joins_graph(offset=(0.0, 0.0)):
    """Parallel edges, an edge with repeated points, and joins that meet a repeated point.

    Edges ``a`` and ``b`` both join 0 and 1, so ``0-1-0`` over both is a
    loop back to its start.  ``c`` repeats its first point, so a path that
    enters it at 1 repeats the join point; ``d`` repeats its last point and
    an interior one, so a path that leaves it at 3 does too.
    """
    ox, oy = offset
    pts = {0: (0.0, 0.0), 1: (4.0, 0.0), 2: (4.0, 3.0), 3: (8.0, 3.0)}
    verts = [(v, (x + ox, y + oy)) for v, (x, y) in pts.items()]

    def line(*xy):
        return [(x + ox, y + oy) for x, y in xy]

    edges = [
        ("a", (0, 1)),
        ("b", (1, 0, line((4, 0), (2, -1.5), (0, 0)))),
        ("c", (1, 2, line((4, 0), (4, 0), (5, 1.5), (4, 3)))),
        ("d", (3, 2, line((8, 3), (6, 4), (6, 4), (4, 3), (4, 3)))),
        ("e", (2, 0)),
    ]
    return EmbeddedGraph(verts, edges)


def walks(g, k):
    """Every directed walk of link-length ``k``, so each edge is taken both ways."""
    adj = adjacency_from_edges(g)
    out = [((v,), ()) for v in g.vertices]
    for _ in range(k):
        out = [(vs + (w,), es + (e,)) for vs, es in out for e, w in adj[vs[-1]]]
    return [VertexPath(vs, es) for vs, es in out]


def assert_gathered_bit_for_bit(g, paths):
    curves, lengths = path_curves(g, as_walks(g, paths), return_lengths=True)
    assert len(curves) == len(lengths) == len(paths)
    assert [c.tobytes() for c in path_curves(g, as_walks(g, paths))] == [c.tobytes() for c in curves]
    for p, curve, length in zip(paths, curves, lengths):
        geom = path_geometry(g, p)
        assert curve.shape == geom.collapsed().points.shape, p
        assert curve.tobytes() == geom.collapsed().points.tobytes(), p
        assert length.hex() == geom.length().hex(), p
        assert not curve.flags.writeable


@pytest.mark.parametrize("offset", [(0.0, 0.0), (4.5e5, 5.2e6)])
def test_path_curves_match_path_geometry_on_degenerate_joins(offset):
    g = degenerate_joins_graph(offset)
    loop = VertexPath((0, 1, 0), ("a", "b"))
    into_c = VertexPath((0, 1, 2), ("a", "c"))
    out_of_d = VertexPath((3, 2, 0), ("d", "e"))
    for k in (1, 2, 3):
        paths = walks(g, k)
        assert_gathered_bit_for_bit(g, paths)
        assert_gathered_bit_for_bit(g, paths[::-1])
    assert_gathered_bit_for_bit(g, [loop, reversed_path(loop), into_c, out_of_d, reversed_path(out_of_d)])
    # A join onto a repeated point leaves it out of the curve, but not out of the length.
    assert path_curves(g, as_walks(g, [into_c]))[0].shape == (4, 2)
    assert path_curves(g, as_walks(g, [out_of_d]))[0].shape == (4, 2)
    # A path that starts where the one before it ended keeps its first point.
    first, second = path_curves(g, as_walks(g, [loop, VertexPath((0, 1, 0), ("a", "a"))]))
    assert second[0].tobytes() == first[-1].tobytes()
    assert second.shape == (3, 2)


def test_each_curve_starts_with_its_own_first_point():
    # -0.0 == 0.0: the second path starts where the first ends, but in other bits.
    g = EmbeddedGraph(
        [(0, (0.0, 0.0)), (1, (4.0, 0.0))],
        [("a", (0, 1)), ("b", (1, 0, [(4.0, 0.0), (2.0, 1.0), (-0.0, -0.0)]))],
    )
    paths = [VertexPath((0, 1, 0), ("a", "b")), VertexPath((0, 1, 0), ("a", "a"))]
    assert_gathered_bit_for_bit(g, paths)
    assert_gathered_bit_for_bit(g, [reversed_path(p) for p in paths[::-1]])


def test_path_curves_match_path_geometry_on_bent_city_paths_and_sub_paths():
    from test_pathdistance import small_city_pair

    for g in small_city_pair(0):
        for k in (1, 2, 3):
            paths = list(enumerate_paths(g, k))
            assert_gathered_bit_for_bit(g, paths)
            if k > 1:
                assert_gathered_bit_for_bit(g, [reversed_path(p) for p in paths])
        for k in (2, 3, 4):
            assert_sub_rows_are_canonical_halves(g, k)


def test_path_record_lengths_are_path_geometry_lengths():
    from test_pathdistance import small_city_pair

    from pathdist.pathdistance import iter_match_records

    g, h = small_city_pair(1)
    paths = list(enumerate_paths(g, 2))
    for rec in iter_match_records(g, h, 2, 1e-3):
        assert rec.length.hex() == path_geometry(g, paths[rec.path_id]).length().hex()


def test_path_curves_validate_every_path():
    g = degenerate_joins_graph()
    none = canonical_walks(g, 1)[[]]
    assert path_curves(g, none) == []
    assert path_curves(g, none, return_lengths=True) == ([], [])
    # Every hop of a hand-made path is checked against the dart table.
    with pytest.raises(StructuralError, match="'a' joins 0 and 2"):
        path_geometry(g, VertexPath((0, 2), ("a",)))
    with pytest.raises(StructuralError, match="'a' joins 1 and 2"):
        path_geometry(g, VertexPath((0, 1, 2), ("a", "a")))
    with pytest.raises(StructuralError, match="'zz'"):
        path_geometry(g, VertexPath((0, 1), ("zz",)))


def one_point_edges_graph():
    """Two one-point edges between vertices at one position, which ``EmbeddedGraph`` accepts."""
    return EmbeddedGraph(
        [(0, (0.0, 0.0)), (1, (4.0, 0.0)), (2, (4.0, 0.0)), (3, (4.0, 3.0))],
        [("p", (1, 2, [(4.0, 0.0)])), ("a", (0, 1)), ("b", (2, 3)), ("q", (2, 1, [(4.0, 0.0)]))],
    )


def test_one_point_edges_gather_the_oracles_points():
    g = one_point_edges_graph()
    for k in (1, 2, 3):
        paths = walks(g, k)
        curves, lengths = path_curves(g, as_walks(g, paths), return_lengths=True)
        for p, curve, length in zip(paths, curves, lengths):
            expected = PolyLine(walk_geometry(g, p.vertex_ids, p.edge_ids))
            assert path_geometry(g, p).points.tobytes() == expected.points.tobytes(), p
            assert curve.tobytes() == expected.collapsed().points.tobytes(), p
            assert length.hex() == expected.length().hex(), p


def test_a_pickled_graph_rebuilds_its_dart_table(grid6):
    darts = dart_table(grid6)
    copy = pickle.loads(pickle.dumps(grid6))
    assert "darts" not in copy._frozen_cache
    rebuilt = dart_table(copy)
    assert rebuilt is not darts and dart_table(copy) is rebuilt
    assert rebuilt.points.tobytes() == darts.points.tobytes()
    assert rebuilt.start.tolist() == darts.start.tolist()
    assert rebuilt.dart_of == darts.dart_of
    paths = list(enumerate_paths(grid6, 2))
    assert [c.tobytes() for c in path_curves(copy, as_walks(copy, paths))] == [
        c.tobytes() for c in path_curves(grid6, as_walks(grid6, paths))
    ]
