"""Per-layer metrics derived from a traced unit, and what each should move.

``EFFECTS`` is the prediction written down before any optimisation: for each
per-layer metric, the workloads whose ``wall_s`` it should move and those on
which it should not change.  ``layer_metrics`` turns the spans of one traced
unit into the metric values.
"""

from __future__ import annotations

# metric: (moves wall_s on, expected unchanged on)
EFFECTS = {
    "matching.decisions": ("city cli-k3", "study(per decision) fscore"),
    "matching.decision_us": ("city cli-k3", "study fscore"),
    "matching.decisions_per_path": ("city cli-k3", "study fscore"),
    "matching.map_match_calls": ("city cli-k3", "fscore"),
    "matching.self_s": ("city cli-k3", "fscore"),
    "matching.decision_us.e60": ("city", "-"),
    "matching.decision_us.e220": ("city", "-"),
    "matching.decision_us.e840": ("city", "-"),
    "matching.decision_us.e3k": ("city", "-"),
    "geometry.disc_intervals_calls": ("city cli-k3", "fscore"),
    "geometry.disc_intervals_s": ("city cli-k3", "fscore"),
    "geometry.point_at_calls": ("fscore", "study city cli-k3"),
    "geometry.point_at_s": ("fscore", "study city cli-k3"),
    "geometry.self_s": ("city cli-k3 fscore", "-"),
    "pathdistance.early_exit_frac": ("study", "city(analyses)"),
    "pathdistance.max_calls": ("city(census)", "fscore"),
    "pathdistance.radius_calls": ("city(census)", "fscore"),
    "pathdistance.radius_s": ("city(census)", "fscore"),
    "pathdistance.self_s": ("city(census)", "fscore"),
    "spatial.nearest_queries": ("city cli-k3 fscore", "study"),
    "spatial.nearest_us": ("city cli-k3 fscore", "study"),
    "spatial.self_s": ("city cli-k3 fscore", "study"),
    "paths.enumerated": ("cli-k3 study", "fscore"),
    "paths.enum_s": ("cli-k3 study (and peak_rss_mb)", "fscore"),
    "paths.self_s": ("cli-k3 study", "fscore"),
    "fscore.sample_s": ("fscore", "study city cli-k3"),
    "fscore.seed_sample_s": ("fscore", "study city cli-k3"),
    "fscore.match_s": ("fscore", "study city cli-k3"),
    "fscore.samples": ("fscore", "study city cli-k3"),
    "fscore.self_s": ("fscore", "study city cli-k3"),
    "parallel.chunks": ("cli-k3", "workers=1 workloads"),
    "parallel.wait_s": ("cli-k3", "workers=1 workloads"),
    "graph.load_s": ("city", "fscore"),
    "graph.export_s": ("city", "fscore"),
    "graph.self_s": ("city", "fscore"),
    "signatures.export_s": ("city", "fscore"),
    "signatures.self_s": ("city", "fscore"),
    "cli.self_s": ("cli-k3", "fscore"),
    "experiments.generate_s": ("study", "fscore"),
    "experiments.self_s": ("study city", "fscore"),
    "trace.overhead_frac": ("-", "-"),
    "trace.accounted_frac": ("-", "-"),
    "trace.worker_spans": ("-", "-"),
    "trace.worker_self_s": ("-", "-"),
}

UNITS = {"_s": "s", "_us": "us", "_frac": "frac"}


def unit_of(name: str) -> str:
    """Unit of a metric, read from its name's suffix; counts otherwise."""
    base = name.split(".")[1] if name.count(".") > 1 else name
    for suffix, unit in UNITS.items():
        if base.endswith(suffix):
            return unit
    return "count"


def layer_metrics(tracer, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced unit (all but the ladder and overhead).

    Counts and per-call times include spans merged from worker processes;
    self times are the traced process's own and add up to its wall time.
    """
    own = tracer.stats()
    worker_spans, workers = tracer.worker_stats()

    def calls(name):
        return own.get(name, [0])[0] + workers.get(name, [0])[0]

    def incl(name):
        return own.get(name, [0, 0.0])[1] + workers.get(name, [0, 0.0])[1]

    def items(name):
        return own.get(name, [0, 0, 0, 0])[3] + workers.get(name, [0, 0, 0, 0])[3]

    def per_call_us(*names):
        n = sum(calls(x) for x in names)
        return 1e6 * sum(incl(x) for x in names) / n if n else 0.0

    layer_self = tracer.layer_self()
    decisions = calls("matching.match_decision")
    enumerated = items("paths.enumerate_paths")
    paths_in_max = tracer.inside("pathdistance.max_path_distance", "paths.enumerate_paths")[1]
    full_in_max = tracer.inside("pathdistance.max_path_distance", "matching.map_match_distance")[0]
    nearest = ("spatial.SpatialGrid.nearest_point", "spatial.nearest_point_on_graph")
    out = {
        "matching.decisions": decisions,
        "matching.decision_us": per_call_us("matching.match_decision"),
        "matching.decisions_per_path": decisions / enumerated if enumerated else 0.0,
        "matching.map_match_calls": calls("matching.map_match_distance"),
        "geometry.disc_intervals_calls": calls("geometry.disc_segment_intervals"),
        "geometry.disc_intervals_s": incl("geometry.disc_segment_intervals"),
        "geometry.point_at_calls": calls("geometry.PolyLine.point_at"),
        "geometry.point_at_s": incl("geometry.PolyLine.point_at"),
        "pathdistance.early_exit_frac": 1.0 - full_in_max / paths_in_max if paths_in_max else 0.0,
        "pathdistance.max_calls": calls("pathdistance.max_path_distance"),
        "pathdistance.radius_calls": calls("pathdistance.intersection_radius"),
        "pathdistance.radius_s": incl("pathdistance.intersection_radius"),
        "spatial.nearest_queries": sum(calls(x) for x in nearest),
        "spatial.nearest_us": per_call_us(*nearest),
        "paths.enumerated": enumerated,
        "paths.enum_s": incl("paths.enumerate_paths") + incl("paths.path_geometry"),
        "fscore.sample_s": incl("fscore.sample_neighborhood"),
        "fscore.seed_sample_s": incl("fscore.sample_neighborhood_at"),
        "fscore.match_s": incl("fscore.bottleneck_match"),
        "fscore.samples": items("fscore.sample_neighborhood") + items("fscore.sample_neighborhood_at"),
        "parallel.chunks": items("parallel.iter_chunked"),
        "parallel.wait_s": layer_self.get("parallel", 0.0),
        "graph.load_s": incl("graph.load_graph"),
        "graph.export_s": incl("graph.export_geojson"),
        "signatures.export_s": sum(
            incl(f"signatures.{x}") for x in ("export_heatmap", "export_cdf_plot", "write_signature_csv")
        ),
        "experiments.generate_s": incl("experiments.generate_perturbed") + incl("experiments.grid_graph"),
        "trace.accounted_frac": sum(layer_self.values()) / wall_s,
        "trace.worker_spans": worker_spans,
        "trace.worker_self_s": sum(row[2] for row in workers.values()),
    }
    for layer in ("geometry", "graph", "paths", "matching", "spatial", "pathdistance",
                  "signatures", "fscore", "experiments", "cli"):
        out[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    return out
