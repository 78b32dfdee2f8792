"""Decision-cost ladder: one ``match_decision`` at a fixed eps, by target size.

The query curves are fixed link-3 paths of one perturbed 6x6 grid (the
study's kind of curve), matched into ``grid_graph`` targets of 60, 220, 840
and 2964 edges that all contain the curves' region.  Only the target size
changes along the ladder, so a decision whose cost does not depend on map
size reads flat.  The first decision per target builds the target's cached
geometry and is not counted; the median of the rest, corrected for CPU
contention like every time the benchmark reports (``speed.py``), is printed
in microseconds as one JSON line.
"""

from __future__ import annotations

import itertools
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import pathdist  # noqa: E402
from speed import SpeedSampler, corrected  # noqa: E402

LADDER = {"e60": 10.0, "e220": 20.0, "e840": 40.0, "e3k": 76.0}  # grid extent, spacing 2 m
EPS = 0.4
CURVES = 8
ROUNDS = 10


def _curves():
    spec = pathdist.PerturbationSpec(p=0.5, seed_count=1, rng_seed=20130924)
    g = pathdist.generate_perturbed(spec)[0]
    paths = itertools.islice(pathdist.enumerate_paths(g, 3), 0, None, 37)
    return [pathdist.path_geometry(g, p) for p in itertools.islice(paths, CURVES)]


def main() -> int:
    curves = _curves()
    sampler = SpeedSampler()
    sampler.start()
    out = {}
    for name, extent in LADDER.items():
        h = pathdist.grid_graph(extent, 2.0)
        pathdist.match_decision(curves[0], h, EPS)
        sampler.take()
        times = []
        for _, curve in itertools.product(range(ROUNDS), curves):
            start = time.perf_counter()
            pathdist.match_decision(curve, h, EPS)
            times.append(time.perf_counter() - start)
        samples = sampler.take()
        out[f"matching.decision_us.{name}"] = 1e6 * corrected(
            statistics.median(times), len(samples), sum(samples)
        )
    sampler.stop()
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
