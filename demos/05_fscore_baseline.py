"""The marbles-and-holes F-score baseline next to the path-based signature.

The sampling baseline walks out from every vertex, drops samples every few
meters, and matches them one-to-one against the other map's samples within
a threshold.  It is sensitive to its three tuning knobs; the comparison
below shows the threshold sweep and a case where a long detour hides a
missing intersection from the F-score but not from the link-2 signature.
"""

from pathdist import EmbeddedGraph, FScoreParams, fscore_analysis, path_distance_analysis

# Two maps of one neighborhood: in the second, the north-south street stops
# short of the main road (a missing intersection), but a detour exists.
common = [
    ("w", (-300.0, 0.0)), ("c", (0.0, 0.0)), ("e", (300.0, 0.0)),
    ("n", (0.0, 250.0)), ("ne", (300.0, 250.0)),
]
g = EmbeddedGraph(
    common,
    [
        ("main_w", ("w", "c")), ("main_e", ("c", "e")),
        ("ns", ("c", "n")), ("top", ("n", "ne")), ("side", ("e", "ne")),
    ],
)
h = EmbeddedGraph(
    common + [("gap", (0.0, 40.0))],
    [
        ("main_w", ("w", "c")), ("main_e", ("c", "e")),
        ("ns", ("gap", "n")),  # stops 40 m short of the main road
        ("top", ("n", "ne")), ("side", ("e", "ne")),
    ],
)

print("matched-distance sweep (global F-score):")
for md in (10, 20, 40, 80, 160):
    params = FScoreParams(sampling_interval=5.0, matched_distance=float(md), max_path_length=300.0)
    score = fscore_analysis(g, h, params).global_score
    print(f"  {md:4d} m -> {score:.4f}")

params = FScoreParams(sampling_interval=5.0, matched_distance=20.0, max_path_length=300.0)
result = fscore_analysis(g, h, params)
_, sig, _ = path_distance_analysis(g, h, 2, tol=1e-3)
print("\nper-street comparison at 20 m (F-score high = similar; signature low = similar):")
for eid in g.edges:
    print(f"  {eid:7s} f-score {result.edge_scores.values[eid]:.3f}   "
          f"link-2 signature {sig.values[eid]:8.2f} m")
print("\nthe severed junction stands out in the link-2 signature even where")
print("sampling still finds matches through the detour")
