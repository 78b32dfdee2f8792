"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.  Tolerances are fixed here and match the library
default bisection tolerance of 1e-3 meters unless a criterion states
otherwise.
"""

import math

import numpy as np
import pytest

from pathdist.cli import main
from pathdist.experiments import (
    PerturbationSpec,
    generate_perturbed,
    grid_graph,
    run_perturbation_study,
)
from pathdist.frechet import discrete_frechet, frechet_distance
from pathdist.fscore import FScoreParams, bottleneck_match, fscore_analysis
from pathdist.geometry import PolyLine
from pathdist.graph import EmbeddedGraph, write_graph_csv
from pathdist.matching import map_match_distance
from pathdist.pathdistance import intersection_radius, path_distance_analysis
from pathdist.signatures import cdf_at

from oracles import (
    DenseWalkOracle,
    DiscreteMatchOracle,
    exhaustive_max_matching,
    random_curve_near_graph,
    random_geometric_graph,
    resample_points,
    with_bends,
)

TOL = 1e-3
P_VALUES = [0.1, 0.3, 0.5, 0.7, 0.9]
SEEDS_PER_P = 20
STUDY_RNG_SEED = 2024


def report(num: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


@pytest.fixture(scope="module")
def study_result():
    return run_perturbation_study(
        P_VALUES, SEEDS_PER_P, k=3, tol=TOL, rng_seed=STUDY_RNG_SEED
    )


@pytest.fixture(scope="module")
def pair_analyses():
    """25 random graph pairs analyzed at k = 1, 2, 3 (used by criteria 3+8)."""
    out = []
    rng = np.random.default_rng(77)
    for _ in range(25):
        n = int(rng.integers(10, 21))
        g = random_geometric_graph(np.random.default_rng(int(rng.integers(1 << 30))), n, 3, 30.0)
        h = random_geometric_graph(np.random.default_rng(int(rng.integers(1 << 30))), n, 3, 30.0)
        per_k = {k: path_distance_analysis(g, h, k, TOL) for k in (1, 2, 3)}
        out.append((g, h, per_k))
    return out


def test_criterion_1_perturbation_bound(study_result):
    ok = all(d <= math.sqrt(2.0) * p + 2 * TOL for p, _, d in study_result.rows)
    assert len(study_result.rows) == len(P_VALUES) * SEEDS_PER_P
    report(1, "perturbation bound sqrt(2)p", ok)


def _spearman_rho(xs, ys) -> float:
    """Exact tie-free Spearman rank correlation (integer rank formula)."""
    n = len(xs)
    rank_x = {v: i for i, v in enumerate(sorted(xs))}
    rank_y = {v: i for i, v in enumerate(sorted(ys))}
    assert len(rank_x) == n and len(rank_y) == n, "ties need the general formula"
    d2 = sum((rank_x[a] - rank_y[b]) ** 2 for a, b in zip(xs, ys))
    return 1.0 - 6.0 * d2 / (n * (n * n - 1))


def test_criterion_2_trend_reproduction(study_result):
    medians = [row["median"] for row in study_result.summary()]
    rho = _spearman_rho(P_VALUES, medians)
    ok = rho == 1.0 and all(a < b for a, b in zip(medians, medians[1:]))
    report(2, "median trend (Spearman 1.0)", ok)


def test_criterion_3_monotonicity_suite(pair_analyses):
    ok = True
    for _, _, per_k in pair_analyses:
        maxima = {k: per_k[k][0].max_distance for k in (1, 2, 3)}
        ok &= maxima[1] <= maxima[2] + 2 * TOL and maxima[2] <= maxima[3] + 2 * TOL
        for lo_k, hi_k in ((1, 2), (2, 3)):
            for idx in (1, 2):  # edge signatures, vertex signatures
                lo_sig = per_k[lo_k][idx].values
                hi_sig = per_k[hi_k][idx].values
                ok &= all(
                    lo_sig[key] <= hi_sig[key] + 2 * TOL
                    for key in lo_sig
                    if key in hi_sig
                )
    report(3, "distance monotone in link-length", ok)


def test_criterion_4_identity_suite(grid6, star4, tee):
    ok = True
    graphs = [grid6, star4, tee, random_geometric_graph(np.random.default_rng(5), 12, 3, 30.0)]
    for g in graphs:
        for k in (1, 2, 3):
            rep, edge_sig, _ = path_distance_analysis(g, g, k, TOL)
            ok &= rep.max_distance <= TOL
            ok &= cdf_at(edge_sig, TOL) == 1.0
    report(4, "identity distance and CDF", ok)


def test_criterion_5_frechet_correctness():
    ok = True
    for offset in (0.25, 1.0, 7.5):
        f = PolyLine([(0, 0), (3, 0), (6, 1)])
        g = PolyLine(f.points + np.array([0.0, offset]))
        ok &= abs(frechet_distance(f, g, 1e-6) - offset) <= 1e-6
    spacing = 0.25
    rng = np.random.default_rng(99)
    for _ in range(100):
        f = PolyLine(rng.uniform(0, 10, (5, 2)))
        g = PolyLine(rng.uniform(0, 10, (5, 2)))
        d = frechet_distance(f, g, TOL)
        rf, _ = resample_points(f.points, spacing)
        rg, _ = resample_points(g.points, spacing)
        dd = discrete_frechet(PolyLine(rf), PolyLine(rg))
        ok &= d - TOL <= dd <= d + spacing + TOL
    report(5, "Fréchet distance vs discrete oracle", ok)


def test_criterion_6_map_matching_oracle_equivalence():
    # Candidate matched paths sampled at spacing s/2 on curve and graph keep
    # the discrete minimum within s of the true value.
    s = 0.01
    ok = True
    rng = np.random.default_rng(2718)
    for i in range(25):
        h = random_geometric_graph(
            np.random.default_rng(int(rng.integers(1 << 30))), int(rng.integers(5, 9)), 2, 1.0
        )
        dense = DenseWalkOracle(h, spacing=s / 2)
        curve = random_curve_near_graph(rng, h, 4, 0.25)
        impl = map_match_distance(PolyLine(curve), h, TOL)
        ok &= abs(impl - dense.match_distance(curve)) <= TOL + s
        if i < 3:
            # The link-length <= 6 vertex-path family can only overestimate.
            enum = DiscreteMatchOracle(h, kmax=6, spacing=s)
            ok &= impl <= enum.match_distance(curve) + TOL + s
    # Targets whose edges bend one to three times, and targets with one to
    # three isolated vertices, each a constant matched path of its own.
    for kind, seed in (("bent", 3141), ("isolated", 1618)):
        rng = np.random.default_rng(seed)
        for _ in range(16):
            h = random_geometric_graph(
                np.random.default_rng(int(rng.integers(1 << 30))), int(rng.integers(5, 9)), 2, 1.0
            )
            if kind == "bent":
                h = with_bends(h, rng)
            else:
                lonely = rng.uniform(-0.25, 1.25, (int(rng.integers(1, 4)), 2))
                h = EmbeddedGraph(
                    [*h.vertices.items(), *((len(h.vertices) + j, tuple(p)) for j, p in enumerate(lonely))],
                    [(eid, (e.u, e.v, e.geometry)) for eid, e in h.edges.items()],
                )
            curve = random_curve_near_graph(rng, h, 4, 0.25)
            impl = map_match_distance(PolyLine(curve), h, TOL)
            ok &= abs(impl - DenseWalkOracle(h, spacing=s / 2).match_distance(curve)) <= TOL + s
    report(6, "map-matching vs brute-force oracle", ok)


def test_criterion_7_straight_edge_intersection_radius():
    ok = True
    rng = np.random.default_rng(31415)
    for _ in range(50):
        degree = int(rng.integers(2, 7))
        angles = np.sort(rng.uniform(0, 2 * math.pi, degree))
        lengths = rng.uniform(2.0, 12.0, degree)
        center = rng.uniform(-5, 5, 2)
        verts = [("c", tuple(center))]
        edges = []
        for i, (ang, ln) in enumerate(zip(angles, lengths)):
            verts.append((i, (center[0] + ln * math.cos(ang), center[1] + ln * math.sin(ang))))
            edges.append((i, ("c", i)))
        g = EmbeddedGraph(verts, edges)
        d = float(rng.uniform(0.2, 3.0))
        got = intersection_radius(g, "c", d)
        gaps = [
            min(
                abs(a - b) % (2 * math.pi),
                2 * math.pi - abs(a - b) % (2 * math.pi),
            )
            for i, a in enumerate(angles)
            for b in angles[i + 1 :]
        ]
        theta = min(gaps)
        if theta == 0.0:
            expected = math.inf
        else:
            r = d / math.sin(theta / 2.0)
            expected = r if all(ln >= r for ln in lengths) else math.inf
        if math.isinf(expected):
            ok &= math.isinf(got)
        else:
            ok &= abs(got - expected) <= 1e-6
    report(7, "straight-edge intersection radius", ok)


def test_criterion_8_signature_inequality(pair_analyses):
    ok = True
    for g, _, per_k in pair_analyses:
        for k in (1, 2, 3):
            _, edge_sig, vertex_sig = per_k[k]
            for eid, value in edge_sig.values.items():
                e = g.edges[eid]
                bound = min(vertex_sig.values[e.u], vertex_sig.values[e.v])
                ok &= value <= bound + 2 * TOL
    report(8, "edge signature bounded by endpoints", ok)


def test_criterion_9_fscore_baseline(grid6):
    params = FScoreParams(sampling_interval=2.0, matched_distance=2.0, max_path_length=20.0)
    identity = fscore_analysis(grid6, grid6, params)
    ok = identity.global_score >= 0.99

    # A 200 m-scale pair differing by one missing street: the score climbs
    # as the matched distance loosens.
    big_tee = EmbeddedGraph(
        [("w", (-200.0, 0.0)), ("c", (0.0, 0.0)), ("e", (200.0, 0.0)), ("n", (0.0, 200.0))],
        [("we", ("w", "c")), ("ce", ("c", "e")), ("cn", ("c", "n"))],
    )
    pruned = EmbeddedGraph(
        [("w", (-200.0, 0.0)), ("c", (0.0, 0.0)), ("e", (200.0, 0.0)), ("n", (0.0, 40.0))],
        [("we", ("w", "c")), ("ce", ("c", "e")), ("cn", ("c", "n"))],
    )
    scores = []
    for md in range(10, 221, 30):
        p = FScoreParams(sampling_interval=5.0, matched_distance=float(md), max_path_length=300.0)
        scores.append(fscore_analysis(big_tee, pruned, p).global_score)
    ok &= scores == sorted(scores)

    rng = np.random.default_rng(11)
    for _ in range(10):
        nm, nh = rng.integers(1, 9, size=2)
        marbles = rng.uniform(0, 10, (int(nm), 2))
        holes = rng.uniform(0, 10, (int(nh), 2))
        thresh = float(rng.uniform(1.0, 6.0))
        matched, _, _ = bottleneck_match(marbles, holes, thresh)
        ok &= matched == exhaustive_max_matching(marbles, holes, thresh)
    report(9, "F-score baseline behavior", ok)


def test_criterion_10_determinism_across_workers(tmp_path):
    study_args = [
        "study", "--p-values", "0.2,0.5", "--seeds", "3", "--k", "3",
        "--rng-seed", "9", "--tol", "0.001",
    ]
    outs = {}
    for workers in (1, 4):
        out = tmp_path / f"study_w{workers}"
        assert main(study_args + ["--workers", str(workers), "--out-dir", str(out)]) == 0
        outs[workers] = out
    ok = all(
        (outs[1] / name).read_bytes() == (outs[4] / name).read_bytes()
        for name in ("study_rows.csv", "study_summary.csv", "study_boxplot.svg")
    )

    g = grid_graph()
    h = generate_perturbed(PerturbationSpec(p=0.4, seed_count=1, rng_seed=9))[0]
    gdir = tmp_path / "g"
    hdir = tmp_path / "h"
    gdir.mkdir()
    hdir.mkdir()
    write_graph_csv(g, gdir / "vertices.csv", gdir / "edges.csv")
    write_graph_csv(h, hdir / "vertices.csv", hdir / "edges.csv")
    reports = {}
    for workers in (1, 4):
        out = tmp_path / f"report_w{workers}.csv"
        code = main(
            [
                "distance", "--from", str(hdir), "--to", str(gdir), "--k", "2",
                "--out", str(out), "--workers", str(workers),
            ]
        )
        assert code == 0
        reports[workers] = out
    ok &= reports[1].read_bytes() == reports[4].read_bytes()
    summaries = [
        (tmp_path / f"report_w{w}.csv.summary.json").read_bytes() for w in (1, 4)
    ]
    ok &= summaries[0] == summaries[1]
    report(10, "worker-count determinism", ok)
