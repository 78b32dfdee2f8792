"""Path-based comparison of embedded street-map graphs.

Compares two planar geometric graphs by Fréchet-matching every bounded
link-length path of one graph into the other.  The maximum matching
distance is the directed path-based distance; per-edge and per-vertex
maxima form local similarity signatures with heat-map and CDF exports.  A
sampling-based F-score baseline and a perturbed-grid study round out the
toolkit.
"""

from .errors import InputError, ParseError, PathdistError, StructuralError
from .experiments import (
    PerturbationSpec,
    RunConfig,
    generate_perturbed,
    grid_graph,
    run_all,
    run_perturbation_study,
)
from .frechet import DEFAULT_TOLERANCE, discrete_frechet, frechet_decision, frechet_distance
from .fscore import (
    FScoreParams,
    SampleSet,
    bottleneck_match,
    f_score,
    fscore_analysis,
    sample_neighborhood,
    sample_neighborhood_at,
)
from .geometry import Point2D, PolyLine
from .graph import (
    EmbeddedGraph,
    GraphStats,
    contract_degree_two,
    export_geojson,
    graph_stats,
    load_graph,
    write_graph_csv,
)
from .matching import map_match_distance, match_decision
from .pathdistance import (
    PathDistanceReport,
    SeparationReport,
    directed_path_distance,
    intersection_radius,
    max_path_distance,
    path_distance_analysis,
    separation_census,
    undirected_path_distance,
)
from .parallel import run_pool
from .paths import VertexPath, enumerate_paths, path_geometry
from .signatures import CdfCurve, SignatureMap, cdf, cdf_at, export_cdf_plot, export_heatmap
from .spatial import SpatialGrid

__version__ = "0.1.0"

__all__ = [
    "CdfCurve",
    "DEFAULT_TOLERANCE",
    "EmbeddedGraph",
    "FScoreParams",
    "GraphStats",
    "InputError",
    "ParseError",
    "PathDistanceReport",
    "PathdistError",
    "PerturbationSpec",
    "Point2D",
    "PolyLine",
    "RunConfig",
    "SampleSet",
    "SeparationReport",
    "SignatureMap",
    "SpatialGrid",
    "StructuralError",
    "VertexPath",
    "bottleneck_match",
    "cdf",
    "cdf_at",
    "contract_degree_two",
    "directed_path_distance",
    "discrete_frechet",
    "enumerate_paths",
    "export_cdf_plot",
    "export_geojson",
    "export_heatmap",
    "f_score",
    "frechet_decision",
    "frechet_distance",
    "fscore_analysis",
    "generate_perturbed",
    "graph_stats",
    "grid_graph",
    "intersection_radius",
    "load_graph",
    "map_match_distance",
    "match_decision",
    "max_path_distance",
    "path_distance_analysis",
    "path_geometry",
    "run_all",
    "run_perturbation_study",
    "run_pool",
    "sample_neighborhood",
    "sample_neighborhood_at",
    "separation_census",
    "undirected_path_distance",
    "write_graph_csv",
]
