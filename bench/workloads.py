"""The benchmark's workloads: seeded inputs, one timed unit of work, checks.

Each workload builds its inputs from the seed in ``setup`` (that time counts
as set-up), runs one fixed unit of work in ``run`` (timed as ``wall_s``),
reads the outputs back in ``results`` and checks them in ``check``.  Every
unit starts from freshly built or freshly loaded graphs, so the caches that
pathdist keeps on a graph (``_SurfaceGeometry``, ``SpatialGrid``) are built
inside the timed unit, as they are for a user on every run.
"""

from __future__ import annotations

import csv
import json
import math
import os
from pathlib import Path

import pathdist
import pathdist.cli
from citygen import city_pair, describe, write_pair

TOL = pathdist.DEFAULT_TOLERANCE


class Checks:
    """Operations attempted and failed; an operation fails on any bad output."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL


def _read_rows(path) -> dict[str, float]:
    """Last column of a CSV with a header, keyed by its first column."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return {row[0]: float(row[-1]) for row in rows if row}


class Study:
    """The perturbed-grid study: 6x6 grids, k=3, ``max_path_distance``.

    Fifteen graphs: the early exit makes one graph's work swing by about 25%
    with its perturbation, and fifteen of them average that to a few percent.
    """

    name = "study"
    P_VALUES = (0.1, 0.3, 0.5, 0.7, 0.9)
    SEEDS_PER_P = 3

    def setup(self, seed: int, work: Path) -> dict:
        self.seed = seed
        return {"grid": "6x6 vertices, 60 edges", "k": 3, "p_values": list(self.P_VALUES),
                "graphs": len(self.P_VALUES) * self.SEEDS_PER_P}

    def run(self) -> None:
        self.out = pathdist.run_perturbation_study(
            list(self.P_VALUES), self.SEEDS_PER_P, 3, TOL, rng_seed=self.seed, workers=1
        )

    def results(self) -> dict:
        return {"rows": [[p, s, d] for p, s, d in self.out.rows]}

    def check(self, res: dict, ref: dict | None) -> Checks:
        c = Checks()
        rows = {(p, s): d for p, s, d in res["rows"]}
        ref_rows = {(p, s): d for p, s, d in ref["rows"]} if ref else {}
        for p in self.P_VALUES:
            for s in range(self.SEEDS_PER_P):
                d = rows.get((p, s))
                ok = d is not None and 0.0 <= d <= math.sqrt(2.0) * p + 2 * TOL
                if ok and ref:
                    ok = _close(d, ref_rows[(p, s)])
                c.op(ok, f"study p={p} seed={s}: d={d}")
        return c


class City:
    """``run_all`` with k=1,2 on a curved city pair loaded from CSV."""

    name = "city"
    BLOCKS = 3
    K_VALUES = (1, 2)

    def setup(self, seed: int, work: Path) -> dict:
        self.work = work
        g, h = city_pair(seed, self.BLOCKS)
        self.g_prefix, self.h_prefix = write_pair(g, h, work)
        self.sizes = {"from": describe(g), "to": describe(h)}
        return {"blocks": self.BLOCKS, "k_values": list(self.K_VALUES), **self.sizes}

    def run(self) -> None:
        config = pathdist.RunConfig(
            self.g_prefix, self.h_prefix, str(self.work / "out"), k_values=self.K_VALUES, tol=TOL
        )
        pathdist.run_all(config)

    def results(self) -> dict:
        out = self.work / "out"
        res = {"paths": {}, "max": {}, "signature": {}}
        for k in self.K_VALUES:
            res["paths"][str(k)] = _read_rows(out / f"distance_gh_k{k}.csv")
            res["max"][str(k)] = json.loads((out / f"distance_gh_k{k}.summary.json").read_text())["max"]
            res["signature"][str(k)] = _read_rows(out / f"signature_gh_k{k}.csv")
        census = json.loads((out / "separation_gh.json").read_text())
        res["census"] = [row["d"] for row in census]
        return res

    def check(self, res: dict, ref: dict | None) -> Checks:
        c = Checks()
        for k in self.K_VALUES:
            key = str(k)
            paths, top = res["paths"][key], res["max"][key]
            ok = len(paths) == self.sizes["from"]["paths"][f"k{k}"]
            ok = ok and all(0.0 <= d < math.inf for d in paths.values())
            ok = ok and top == max(paths.values()) and _close(top, res["census"][k - 1])
            if ref:
                ok = ok and _close(top, ref["max"][key])
                ok = ok and paths.keys() == ref["paths"][key].keys()
                ok = ok and all(_close(d, ref["paths"][key][i]) for i, d in paths.items())
            c.op(ok, f"city delta{k}: max={top}")

            sig = res["signature"][key]
            ok = bool(sig) and _close(max(sig.values()), top)
            ok = ok and all(0.0 <= v <= top + TOL for v in sig.values())
            if ref:
                ok = ok and sig.keys() == ref["signature"][key].keys()
                ok = ok and all(_close(v, ref["signature"][key][e]) for e, v in sig.items())
            c.op(ok, f"city signature k={k}")
        d1, d2, d3 = res["census"]
        for k, d in enumerate(res["census"], start=1):
            ok = 0.0 <= d < math.inf
            if ref:
                ok = ok and _close(d, ref["census"][k - 1])
            c.op(ok, f"city census delta{k}={d}")
        c.op(d1 <= d2 + TOL and d2 <= d3 + TOL, f"city census order {d1} {d2} {d3}")
        return c


class FScore:
    """``fscore_analysis`` on a larger city pair loaded from CSV."""

    name = "fscore"
    BLOCKS = 8

    def setup(self, seed: int, work: Path) -> dict:
        g, h = city_pair(seed, self.BLOCKS)
        self.g_prefix, self.h_prefix = write_pair(g, h, work)
        return {"blocks": self.BLOCKS, "from": describe(g), "to": describe(h)}

    def run(self) -> None:
        g = pathdist.load_graph(f"{self.g_prefix}.vertices.csv", f"{self.g_prefix}.edges.csv")
        h = pathdist.load_graph(f"{self.h_prefix}.vertices.csv", f"{self.h_prefix}.edges.csv")
        self.out = pathdist.fscore_analysis(g, h, pathdist.FScoreParams())

    def results(self) -> dict:
        return {"per_seed": {v: [m, nm, nh] for v, m, nm, nh in self.out.per_seed}}

    def check(self, res: dict, ref: dict | None) -> Checks:
        c = Checks()
        for v, (matched, marbles, holes) in res["per_seed"].items():
            ok = 0 <= matched <= min(marbles, holes) and marbles >= 1
            if ref:
                ok = ok and ref["per_seed"].get(v) == [matched, marbles, holes]
            c.op(ok, f"fscore seed {v}: {matched}/{marbles}/{holes}")
        if ref:
            c.op(res["per_seed"].keys() == ref["per_seed"].keys(), "fscore seed set")
        return c


class CliK3:
    """``pathdist distance --k 3`` with a process pool, streaming its report."""

    name = "cli-k3"
    BLOCKS = 3

    def setup(self, seed: int, work: Path) -> dict:
        self.work = work
        self.workers = min(2, os.cpu_count() or 1)
        g, h = city_pair(seed, self.BLOCKS)
        self.g_prefix, self.h_prefix = write_pair(g, h, work)
        self.sizes = {"from": describe(g), "to": describe(h)}
        return {"blocks": self.BLOCKS, "k": 3, "workers": self.workers, **self.sizes}

    def run(self) -> None:
        argv = [
            "distance", "--from", self.g_prefix, "--to", self.h_prefix, "--k", "3",
            "--workers", str(self.workers), "--out", str(self.work / "report.csv"),
        ]
        self.rc = pathdist.cli.main(argv)

    def results(self) -> dict:
        report = self.work / "report.csv"
        rows = _read_rows(report) if report.exists() else {}
        summary = self.work / "report.csv.summary.json"
        top = json.loads(summary.read_text())["max"] if summary.exists() else None
        return {"rc": self.rc, "rows": rows, "max": top}

    def check(self, res: dict, ref: dict | None) -> Checks:
        c = Checks()
        c.op(res["rc"] == 0, f"cli exit code {res['rc']}")
        rows = res["rows"]
        expected = self.sizes["from"]["paths"]["k3"]
        c.op(len(rows) == expected and res["max"] == max(rows.values(), default=None),
             f"cli rows {len(rows)} of {expected}")
        for i, d in rows.items():
            ok = 0.0 <= d < math.inf
            if ref:
                ok = ok and i in ref["rows"] and _close(d, ref["rows"][i])
            c.op(ok, f"cli row {i}: {d}")
        return c


WORKLOADS = {w.name: w for w in (Study, City, FScore, CliK3)}
