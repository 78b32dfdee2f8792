"""Seeded synthetic city pair: a curved street lattice and a perturbed copy.

Both maps come from one lattice of ``blocks x blocks`` blocks.  Every street
is a polyline with three bends, shared by the two maps.  Each map drops about
3% of the streets and adds about 2% block diagonals, independently of the
other, and the second map is jittered by a few metres.  Maps are built only
through ``EmbeddedGraph`` and written only with ``write_graph_csv``, so the
program under test sees nothing but its ordinary input files.

The seed draws the geometry: every street's bends, the diagonals' bends and
the jitter.  Which streets are dropped and which diagonals are added (the
layout) is drawn from a stream fixed per lattice size.  On maps this small a
single dropped street changes the amount of work by 10-20% (it decides which
paths need long detours and how often the early exit in
``max_path_distance`` fires), so a seeded layout would make run-to-run
spread a property of the seed rather than of the program.
"""

from __future__ import annotations

import numpy as np

from pathdist import EmbeddedGraph, write_graph_csv

SPACING_M = 100.0
DROP_FRAC = 0.03
DIAGONAL_FRAC = 0.02
BEND_M = 8.0
JITTER_M = 3.0
BEND_AT = (0.25, 0.5, 0.75)


def _street_shapes(rng, n: int):
    """Lattice streets as (u, v, perpendicular bend offsets at BEND_AT)."""
    streets = []
    for j in range(n + 1):
        for i in range(n + 1):
            for di, dj in ((1, 0), (0, 1)):
                if i + di <= n and j + dj <= n:
                    streets.append(((i, j), (i + di, j + dj)))
    amp = rng.uniform(-BEND_M, BEND_M, size=len(streets))
    wobble = rng.uniform(-0.2 * BEND_M, 0.2 * BEND_M, size=(len(streets), 3))
    profile = np.sin(np.pi * np.asarray(BEND_AT))
    return [(u, v, amp[s] * profile + wobble[s]) for s, (u, v) in enumerate(streets)]


def _one_map(layout, rng, n: int, shapes, jitter: float) -> EmbeddedGraph:
    """Drop and add streets (``layout``), bend and jitter them (``rng``)."""
    n_drop = max(1, round(DROP_FRAC * len(shapes)))
    dropped = set(layout.choice(len(shapes), size=n_drop, replace=False).tolist())
    streets = [s for i, s in enumerate(shapes) if i not in dropped]
    n_diag = max(1, round(DIAGONAL_FRAC * len(shapes)))
    blocks = layout.choice(n * n, size=n_diag, replace=False)
    for b in sorted(int(x) for x in blocks):
        i, j = b % n, b // n
        if layout.random() < 0.5:
            u, v = (i, j), (i + 1, j + 1)
        else:
            u, v = (i + 1, j), (i, j + 1)
        streets.append((u, v, rng.uniform(-0.5 * BEND_M, 0.5 * BEND_M, size=3)))

    used = sorted({c for u, v, _ in streets for c in (u, v)}, key=lambda c: (c[1], c[0]))
    shift = rng.uniform(-jitter, jitter, size=(len(used), 2))
    pos = {c: np.asarray(c, float) * SPACING_M + shift[k] for k, c in enumerate(used)}
    bend_shift = rng.uniform(-jitter, jitter, size=(len(streets), 3, 2))
    vertices = [(_vid(c), (float(pos[c][0]), float(pos[c][1]))) for c in used]
    edges = []
    for s, (u, v, offsets) in enumerate(streets):
        a, b = pos[u], pos[v]
        d = b - a
        normal = np.array([-d[1], d[0]]) / np.hypot(d[0], d[1])
        interior = [a + t * d + off * normal + bend_shift[s, k] for k, (t, off) in enumerate(zip(BEND_AT, offsets))]
        pts = [pos[u], *interior, pos[v]]
        edges.append((f"e{s}", (_vid(u), _vid(v), np.asarray(pts))))
    return EmbeddedGraph(vertices, edges)


def _vid(c) -> str:
    return f"v{c[0]}_{c[1]}"


def city_pair(seed: int, blocks: int) -> tuple[EmbeddedGraph, EmbeddedGraph]:
    """The source map and its perturbed counterpart for ``seed``."""
    layout = np.random.default_rng(np.random.SeedSequence([blocks]))
    rng = np.random.default_rng(np.random.SeedSequence([seed, blocks]))
    shapes = _street_shapes(rng, blocks)
    g = _one_map(layout, rng, blocks, shapes, 0.0)
    h = _one_map(layout, rng, blocks, shapes, JITTER_M)
    return g, h


def path_count(g: EmbeddedGraph, k: int) -> int:
    """Canonical link-length-k paths, counted from the adjacency alone.

    There are ``1' A^k 1`` directed walks.  Of a walk and its reverse one is
    canonical; a walk equals its reverse only for k=2 immediate backtracks
    (one per directed edge), since the graphs have no self-loops.
    """
    ids = {v: i for i, v in enumerate(g.vertices)}
    adj = np.zeros((len(ids), len(ids)), dtype=np.int64)
    for e in g.edges.values():
        adj[ids[e.u], ids[e.v]] += 1
        adj[ids[e.v], ids[e.u]] += 1
    walks = np.ones(len(ids), dtype=np.int64)
    for _ in range(k):
        walks = adj @ walks
    palindromes = 2 * len(g.edges) if k == 2 else 0
    return (int(walks.sum()) + palindromes) // 2


def describe(g: EmbeddedGraph) -> dict:
    """Sizes that fix the amount of work: V, E, segments and paths per k."""
    return {
        "V": len(g.vertices),
        "E": len(g.edges),
        "segments": sum(len(e.geometry) - 1 for e in g.edges.values()),
        "paths": {f"k{k}": path_count(g, k) for k in (1, 2, 3)},
    }


def write_pair(g: EmbeddedGraph, h: EmbeddedGraph, out_dir) -> tuple[str, str]:
    """Write both maps as ``<dir>/g.*.csv`` and ``<dir>/h.*.csv`` prefixes."""
    prefixes = []
    for name, graph in (("g", g), ("h", h)):
        prefix = f"{out_dir}/{name}"
        write_graph_csv(graph, f"{prefix}.vertices.csv", f"{prefix}.edges.csv")
        prefixes.append(prefix)
    return prefixes[0], prefixes[1]
