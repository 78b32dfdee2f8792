"""Controlled experiments: perturbed grids, the study runner, and run-all.

The controlled study perturbs a regular grid by a parameter p, measures the
directed link-length-3 distance of each perturbed copy back to the grid,
and summarizes the distribution per p.  Each vertex moves by independent
uniform offsets in [-p, p] per coordinate, so every measured distance is
bounded by sqrt(2)*p up to the bisection tolerance.

Randomness comes from numpy's seeded default generator (PCG64); a fixed
``rng_seed`` reproduces byte-identical outputs on any platform and worker
count.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .atomic import atomic_write, write_json
from .errors import InputError, is_integer
from .frechet import DEFAULT_TOLERANCE, check_tolerance
from .graph import EmbeddedGraph, contract_degree_two, export_geojson, graph_stats, load_graph
from .parallel import check_workers, run_chunked, run_pool
from .pathdistance import (
    directions,
    path_distance_analysis,
    max_path_distance,
    separation_census,
    write_records_csv,
)
from .paths import check_link_length
from .signatures import cdf, export_cdf_plot, export_heatmap, write_signature_csv
from .svgplot import PLOT_SIZE, SvgCanvas

__all__ = [
    "PerturbationSpec",
    "RunConfig",
    "grid_graph",
    "generate_perturbed",
    "run_perturbation_study",
    "StudyResult",
    "run_all",
]


def _check_grid(extent: float, spacing: float) -> None:
    """Raise :class:`InputError` unless ``extent`` and ``spacing`` are finite and positive."""
    if not (0.0 < extent < math.inf and 0.0 < spacing < math.inf):
        raise InputError("grid extent and spacing must be positive and finite")


def grid_graph(extent: float = 10.0, spacing: float = 2.0) -> EmbeddedGraph:
    """Regular grid over [0, extent]^2 with vertices every ``spacing`` meters."""
    _check_grid(extent, spacing)
    n = int(round(extent / spacing)) + 1
    vertices = []
    for j in range(n):
        for i in range(n):
            vertices.append((j * n + i, (i * spacing, j * spacing)))
    edges = []
    eid = 0
    for j in range(n):
        for i in range(n):
            v = j * n + i
            if i + 1 < n:
                edges.append((eid, (v, v + 1)))
                eid += 1
            if j + 1 < n:
                edges.append((eid, (v, v + n)))
                eid += 1
    return EmbeddedGraph(vertices, edges)


@dataclass(frozen=True)
class PerturbationSpec:
    """Parameters of one perturbed-grid batch."""

    p: float
    seed_count: int
    rng_seed: int | tuple[int, ...] = 0
    extent: float = 10.0
    spacing: float = 2.0

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise InputError("perturbation index p must be in [0, 1]")
        if not is_integer(self.seed_count, 1):
            raise InputError(f"seed_count must be an integer >= 1, got {self.seed_count!r}")
        for seed in self.rng_seed if isinstance(self.rng_seed, tuple) else (self.rng_seed,):
            if not is_integer(seed, 0):
                raise InputError(f"rng_seed must be a non-negative integer or a tuple of them, got {seed!r}")
        _check_grid(self.extent, self.spacing)


def generate_perturbed(spec: PerturbationSpec) -> list[EmbeddedGraph]:
    """``seed_count`` perturbed copies of the grid, drawn deterministically.

    Vertex (i, j) moves to (i + a, j + b) with a, b uniform in [-p, p];
    edges stay straight segments between the perturbed endpoints.
    """
    base = grid_graph(spec.extent, spec.spacing)
    rng = np.random.default_rng(
        np.random.SeedSequence(list(spec.rng_seed) if isinstance(spec.rng_seed, tuple) else spec.rng_seed)
    )
    n_vertices = len(base.vertices)
    offsets = rng.uniform(-spec.p, spec.p, size=(spec.seed_count, n_vertices, 2))
    out = []
    vertex_ids = list(base.vertices)
    edge_specs = [(eid, (e.u, e.v)) for eid, e in base.edges.items()]
    for s in range(spec.seed_count):
        moved = [
            (vid, (base.vertices[vid].x + offsets[s, idx, 0], base.vertices[vid].y + offsets[s, idx, 1]))
            for idx, vid in enumerate(vertex_ids)
        ]
        out.append(EmbeddedGraph(moved, edge_specs))
    return out


@dataclass
class StudyResult:
    p_values: list[float]
    k: int
    tol: float
    rng_seed: int
    rows: list[tuple[float, int, float]] = field(default_factory=list)

    def summary(self) -> list[dict]:
        out = []
        for p in self.p_values:
            dists = np.asarray([d for pp, _, d in self.rows if pp == p])
            out.append(
                {
                    "p": p,
                    "count": int(dists.size),
                    "min": float(dists.min()),
                    "q1": float(np.percentile(dists, 25)),
                    "median": float(np.percentile(dists, 50)),
                    "q3": float(np.percentile(dists, 75)),
                    "max": float(dists.max()),
                }
            )
        return out

    def write_rows_csv(self, path) -> None:
        with atomic_write(path) as fh:
            fh.write("p,seed,distance\n")
            for p, seed, d in self.rows:
                fh.write(f"{p!r},{seed},{d!r}\n")

    def write_summary_csv(self, path) -> None:
        with atomic_write(path) as fh:
            fh.write("p,count,min,q1,median,q3,max\n")
            for row in self.summary():
                fh.write(
                    f"{row['p']!r},{row['count']},{row['min']!r},{row['q1']!r},"
                    f"{row['median']!r},{row['q3']!r},{row['max']!r}\n"
                )

    def write_boxplot_svg(self, path) -> None:
        summary = self.summary()
        width, height = PLOT_SIZE
        margin = 50.0
        top = max(row["max"] for row in summary) * 1.1 + 1e-9
        canvas = SvgCanvas(width, height)
        slot = (width - 2 * margin) / max(len(summary), 1)

        def py(v: float) -> float:
            return height - margin - (v / top) * (height - 2 * margin)

        canvas.line(margin, py(0), width - margin, py(0), stroke="black")
        canvas.line(margin, py(0), margin, margin, stroke="black")
        for frac in (0.0, 0.5, 1.0):
            v = top * frac
            canvas.line(margin - 4, py(v), margin, py(v), stroke="black")
            canvas.text(margin - 7, py(v) + 4, f"{v:.2f}", anchor="end")
        for idx, row in enumerate(summary):
            cx = margin + slot * (idx + 0.5)
            half = slot * 0.18
            canvas.line(cx, py(row["min"]), cx, py(row["q1"]), stroke="black")
            canvas.line(cx, py(row["q3"]), cx, py(row["max"]), stroke="black")
            canvas.line(cx - half, py(row["min"]), cx + half, py(row["min"]), stroke="black")
            canvas.line(cx - half, py(row["max"]), cx + half, py(row["max"]), stroke="black")
            canvas.rect(
                cx - half,
                py(row["q3"]),
                2 * half,
                py(row["q1"]) - py(row["q3"]),
                fill="#fdbf6f",
                stroke="black",
            )
            canvas.line(cx - half, py(row["median"]), cx + half, py(row["median"]), stroke="black", stroke_width=2.0)
            canvas.text(cx, height - margin + 16, f"p={row['p']:g}", anchor="middle")
        canvas.text(width / 2, height - 8, "perturbation index", anchor="middle")
        canvas.text(14, height / 2, "distance", anchor="middle")
        canvas.write(path)


def _study_distance(base: EmbeddedGraph, k: int, tol: float, graphs: list) -> list[float]:
    return [max_path_distance(gp, base, k, tol) for gp in graphs]


def run_perturbation_study(
    p_values: list[float],
    seed_count: int,
    k: int = 3,
    tol: float = DEFAULT_TOLERANCE,
    *,
    rng_seed: int = 0,
    workers: int = 1,
    out_dir=None,
) -> StudyResult:
    """Distances of perturbed grids back to the grid, per p and seed.

    Per-p streams are derived from (rng_seed, p index), so adding or
    removing p values never changes another p's graphs.  Results are
    independent of ``workers``.
    """
    if not p_values:
        raise InputError("need at least one perturbation index")
    base = grid_graph()
    result = StudyResult(p_values=list(p_values), k=k, tol=tol, rng_seed=rng_seed)
    with run_pool(workers):
        for pi, p in enumerate(p_values):
            spec = PerturbationSpec(p=p, seed_count=seed_count, rng_seed=(rng_seed, pi))
            graphs = generate_perturbed(spec)
            fn = functools.partial(_study_distance, base, k, tol)
            distances: list[float] = []
            for chunk in run_chunked(fn, graphs):
                distances.extend(chunk)
            result.rows.extend((p, s, d) for s, d in enumerate(distances))
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        result.write_rows_csv(out_dir / "study_rows.csv")
        result.write_summary_csv(out_dir / "study_summary.csv")
        result.write_boxplot_svg(out_dir / "study_boxplot.svg")
    return result


@dataclass
class RunConfig:
    """Inputs and switches for a full comparison run."""

    from_graph: str
    to_graph: str
    out_dir: str
    k_values: tuple[int, ...] = (1, 2, 3)
    tol: float = DEFAULT_TOLERANCE
    workers: int = 1
    contract: bool = False
    both_directions: bool = False

    def __post_init__(self):
        check_tolerance(self.tol)
        for k in self.k_values:
            check_link_length(k)
        if len(set(self.k_values)) < len(self.k_values):
            raise InputError(f"k_values must not repeat a link-length, got {self.k_values!r}")
        check_workers(self.workers)


def resolve_graph_files(spec: str) -> tuple[str, str]:
    """Map a graph argument to its (vertex CSV, edge CSV) pair.

    Accepts ``vertices.csv,edges.csv`` explicitly, a directory containing
    ``vertices.csv``/``edges.csv``, or a prefix with ``.vertices.csv`` /
    ``.edges.csv`` (or ``_vertices.csv`` / ``_edges.csv``) attached.
    """
    if "," in spec:
        v, e = spec.split(",", 1)
        return v, e
    p = Path(spec)
    if p.is_dir():
        return str(p / "vertices.csv"), str(p / "edges.csv")
    for fmt in ("{}.vertices.csv", "{}_vertices.csv"):
        v = Path(fmt.format(spec))
        e = Path(fmt.format(spec).replace("vertices", "edges"))
        if v.exists() and e.exists():
            return str(v), str(e)
    raise FileNotFoundError(f"cannot resolve graph files from {spec!r}")


def load_graph_arg(spec: str, contract: bool = False) -> EmbeddedGraph:
    vfile, efile = resolve_graph_files(spec)
    g = load_graph(vfile, efile)
    return contract_degree_two(g) if contract else g


def run_all(config: RunConfig) -> Path:
    """Full comparison: stats, distances, signatures, CDFs, heat-maps, census.

    Writes every artifact into ``config.out_dir`` along with a manifest
    recording the configuration and the emitted files.  Reruns with the same
    configuration reproduce identical CSV/JSON/SVG bytes.
    """
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    g = load_graph_arg(config.from_graph, config.contract)
    h = load_graph_arg(config.to_graph, config.contract)
    emitted: list[str] = []

    def track(name: str) -> Path:
        emitted.append(name)
        return out / name

    for name, graph in (("from", g), ("to", h)):
        write_json(track(f"stats_{name}.json"), graph_stats(graph)._asdict())
        export_geojson(graph, track(f"graph_{name}.geojson"))

    curves = {}
    with run_pool(config.workers):
        for tag, direction, src, dst in directions(g, h, config.both_directions):
            for k in config.k_values:
                report, edge_sig, _vertex_sig = path_distance_analysis(src, dst, k, config.tol)
                report.direction = direction
                with atomic_write(track(f"distance_{tag}_k{k}.csv"), newline="") as fh:
                    write_records_csv(report.records, fh)
                write_json(track(f"distance_{tag}_k{k}.summary.json"), report.summary())
                with atomic_write(track(f"signature_{tag}_k{k}.csv"), newline="") as fh:
                    write_signature_csv(edge_sig, fh)
                export_heatmap(edge_sig, track(f"heatmap_{tag}_k{k}.svg"), "svg")
                export_heatmap(edge_sig, track(f"heatmap_{tag}_k{k}.geojson"), "geojson")
                # An empty signature (a map without edges) has no CDF.
                if edge_sig.values:
                    curves[f"{tag} k={k}"] = cdf(edge_sig)
            census = separation_census(src, dst, config.tol)
            write_json(track(f"separation_{tag}.json"), [rep.summary() for rep in census])
    if curves:
        export_cdf_plot(list(curves.values()), list(curves.keys()), track("cdf.svg"))

    from . import __version__  # the package defines it after importing this module

    manifest = {
        "config": asdict(config),
        "python": sys.version.split()[0],
        "package_version": __version__,
        "files": sorted(emitted),
    }
    write_json(out / "manifest.json", manifest)
    return out
