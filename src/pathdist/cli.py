"""Command-line interface.

Subcommands: stats, distance, signature, cdf, separation, mapmatch,
frechet, fscore, perturb, study.  Exit codes: 0 success, 1 usage error,
2 data error.  A ``--config`` file holds ``key = value`` lines mirroring
the long flag names; explicit flags override file values.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .atomic import atomic_write, write_json
from .errors import ParseError, PathdistError
from .experiments import (
    PerturbationSpec,
    generate_perturbed,
    grid_graph,
    load_graph_arg,
    run_perturbation_study,
)
from .frechet import DEFAULT_TOLERANCE, check_tolerance, frechet_distance
from .fscore import FScoreParams, fscore_analysis
from .geometry import PolyLine
from .graph import csv_rows, finite_numbers, graph_stats, open_text, write_graph_csv
from .matching import map_match_distance
from .parallel import run_pool
from .pathdistance import (
    PathDistanceReport,
    directed_path_distance,
    directions,
    iter_match_records,
    path_distance_analysis,
    read_records_csv,
    separation_census,
    write_records_csv,
)
from .signatures import (
    SignatureMap,
    cdf_from_signature_rows,
    export_cdf_plot,
    export_heatmap,
    read_signature_csv,
    write_signature_csv,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def load_curve(path) -> PolyLine:
    """Curve CSV: one ``x,y`` row per point; optional ``x,y`` header on line 1."""
    pts = []
    for lineno, row in csv_rows(open_text(path), "x"):
        if len(row) != 2:
            raise ParseError(f"curve row needs 2 fields, got {len(row)}", lineno)
        pts.append(finite_numbers(row, "curve coordinates", lineno))
    return PolyLine(pts)


def _read_config(path) -> dict[str, tuple[int, str]]:
    out = {}
    for lineno, raw in enumerate(open_text(path), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"config line without '=': {raw.strip()!r}", lineno)
        key, value = line.split("=", 1)
        out[key.strip().replace("-", "_")] = lineno, value.strip()
    return out


_CONFIG_BOOLS = {word: True for word in ("1", "true", "yes", "on")} | {
    word: False for word in ("0", "false", "no", "off")
}


def _apply_config(args: argparse.Namespace, argv: list[str], parser: argparse.ArgumentParser):
    """``argv`` parsed again with the ``--config`` values as the subcommand's defaults.

    argparse then decides precedence, so a flag given in ``argv`` in any
    form it accepts (``--both``, ``--bo``, ``--k=2``) wins over the file.
    Without ``--config`` this is ``args``.
    """
    if not getattr(args, "config", None):
        return args
    command = next(a for a in parser._actions if a.dest == "command").choices[args.command]
    # Only the subcommand's own flags take values; a value must pass the flag's choices too.
    flags = {a.dest: a for a in command._actions if a.option_strings and hasattr(args, a.dest)}
    defaults = {}
    for key, (lineno, raw) in _read_config(args.config).items():
        if key not in flags:
            continue
        current = getattr(args, key)
        value = raw
        if isinstance(current, bool):
            value = _CONFIG_BOOLS.get(raw.lower())
            if value is None:
                raise ParseError(f"config key {key!r}: {raw!r} is not a valid bool", lineno)
        elif isinstance(current, (int, float)):
            try:
                value = type(current)(raw)
            except ValueError:
                kind = type(current).__name__
                raise ParseError(f"config key {key!r}: {raw!r} is not a valid {kind}", lineno) from None
        elif flags[key].type is not None:
            try:
                value = flags[key].type(raw)
            except argparse.ArgumentTypeError as exc:
                raise ParseError(f"config key {key!r}: {exc}", lineno) from None
        choices = flags[key].choices
        if choices is not None and value not in choices:
            raise ParseError(f"config key {key!r}: {raw!r} is not one of {list(choices)}", lineno)
        defaults[key] = value
    command.set_defaults(**defaults)
    return parser.parse_args(argv)


def _worker_count(text: str) -> int:
    """A ``--workers`` value: a process count, so at least 1."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _p_values(text: str) -> list[float]:
    """A ``--p-values`` value: comma-separated perturbation indices."""
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float list: {text!r}") from None


_SHARED_FLAGS = {
    "from": dict(required=True, help="source graph"),
    "to": dict(required=True, help="target graph"),
    "tol": dict(type=float, default=DEFAULT_TOLERANCE, help="bisection tolerance in meters"),
    "workers": dict(type=_worker_count, default=1, help="parallel worker processes"),
    "contract": dict(action="store_true", help="contract degree-2 chains after loading"),
    "out-dir": dict(required=True, help="directory for output artifacts"),
}


def _add_common(p: argparse.ArgumentParser, *flags: str) -> None:
    """Add the shared ``flags`` a subcommand reads, plus ``--config``."""
    for flag in flags:
        p.add_argument("--" + flag, **_SHARED_FLAGS[flag])
    p.add_argument("--config", default=None, help="key = value file of defaults")


def _graph_pair(args) -> tuple:
    """The ``--from`` and ``--to`` graphs, each contracted if ``--contract`` is given."""
    return load_graph_arg(getattr(args, "from"), args.contract), load_graph_arg(args.to, args.contract)


def _cmd_stats(args) -> int:
    g = load_graph_arg(args.graph, args.contract)
    stats = graph_stats(g)
    doc = stats._asdict()
    print(json.dumps(doc, indent=1, sort_keys=True))
    return EXIT_OK


def _cmd_distance(args) -> int:
    if args.strict and args.resume:
        # A strict report keeps only some paths and is always recomputed.
        print("pathdist: --resume cannot be combined with --strict", file=sys.stderr)
        return EXIT_USAGE
    g, h = _graph_pair(args)
    out = Path(args.out)
    for tag, direction, src, dst in directions(g, h, args.both):
        out_path = out.with_name(f"{out.stem}_{tag}{out.suffix}") if args.both else out
        fingerprint_path = out_path.with_name(out_path.name + ".fingerprint")
        fingerprint = _fingerprint(src, dst, args.k, args.tol, direction)
        known: dict[int, float] = {}
        if args.resume and out_path.exists():
            found = fingerprint_path.read_text().strip() if fingerprint_path.exists() else None
            if found != fingerprint:
                print(
                    f"pathdist: --resume: {out_path} was not written from these inputs and "
                    f"settings ({fingerprint_path.name} is missing or differs)",
                    file=sys.stderr,
                )
                return EXIT_DATA
            known = read_records_csv(open_text(out_path))
        with atomic_write(fingerprint_path) as fh:
            fh.write(fingerprint + "\n")
        if args.strict:
            report = directed_path_distance(src, dst, args.k, args.tol, strict=True)
            with atomic_write(out_path, newline="") as fh:
                write_records_csv(report.records, fh)
        else:
            # Stream rows as chunks complete so long runs are restartable.
            with open(out_path, "w", newline="") as fh:
                records = write_records_csv(
                    iter_match_records(src, dst, args.k, args.tol, known=known or None), fh
                )
            report = PathDistanceReport(k=args.k, direction=direction, records=records)
        report.direction = direction
        write_json(out_path.with_name(out_path.name + ".summary.json"), report.summary())
        print(f"{report.direction} k={args.k} max={report.max_distance!r}")
    return EXIT_OK


def _fingerprint(src, dst, k: int, tol: float, direction: str) -> str:
    """sha256 over everything a distance report depends on.

    Covers both graphs as loaded (and contracted, if asked): vertex and edge
    ids, edge endpoints and every coordinate as ``float.hex``, in insertion
    order; plus k, tol, the direction and the package version.
    """
    digest = hashlib.sha256()

    def put(*items) -> None:
        digest.update(repr(items).encode() + b"\n")

    put(__version__, k, float(tol).hex(), direction)
    for g in (src, dst):
        put(len(g.vertices), len(g.edges))
        for vid, p in g.vertices.items():
            put(vid, p.x.hex(), p.y.hex())
        for eid, e in g.edges.items():
            put(eid, e.u, e.v, *[c.hex() for c in e.geometry.points.ravel().tolist()])
    return digest.hexdigest()


def _cmd_signature(args) -> int:
    g, h = _graph_pair(args)
    _, edge_sig, _ = path_distance_analysis(g, h, args.k, args.tol)
    with atomic_write(args.out, newline="") as fh:
        write_signature_csv(edge_sig, fh)
    if args.heatmap:
        export_heatmap(edge_sig, args.heatmap, "svg", args.ramp)
    if args.geojson:
        export_heatmap(edge_sig, args.geojson, "geojson", args.ramp)
    print(f"signature k={args.k}: {len(edge_sig.values)} edges")
    return EXIT_OK


def _cmd_cdf(args) -> int:
    rows = read_signature_csv(open_text(args.sig))
    curve = cdf_from_signature_rows(rows)
    # The plot first: it refuses a reference line that is not finite.
    if args.plot:
        export_cdf_plot([curve], [Path(args.sig).stem], args.plot, reference_x=args.reference)
    with atomic_write(args.out) as fh:
        fh.write("x_m,fraction\n")
        for x, y in zip(curve.xs, curve.ys):
            fh.write(f"{x!r},{y!r}\n")
    print(f"cdf: {len(curve.xs)} breakpoints")
    return EXIT_OK


def _cmd_separation(args) -> int:
    g, h = _graph_pair(args)
    doc = [r.summary() for r in separation_census(g, h, args.tol)]
    if args.out:
        write_json(args.out, doc)
    print(json.dumps(doc, indent=1, sort_keys=True))
    return EXIT_OK


def _cmd_mapmatch(args) -> int:
    h = load_graph_arg(args.graph, args.contract)
    curve = load_curve(args.curve)
    d = map_match_distance(curve, h, args.tol)
    print(repr(d))
    return EXIT_OK


def _cmd_frechet(args) -> int:
    a = load_curve(args.curve_a)
    b = load_curve(args.curve_b)
    print(repr(frechet_distance(a, b, args.tol)))
    return EXIT_OK


def _cmd_fscore(args) -> int:
    g, h = _graph_pair(args)
    params = FScoreParams(
        sampling_interval=args.interval,
        matched_distance=args.match_dist,
        max_path_length=args.max_path,
    )
    result = fscore_analysis(g, h, params)
    with atomic_write(args.out, newline="") as fh:
        write_signature_csv(result.edge_scores, fh)
    if args.heatmap:
        # High similarity should render light, so color by 1 - score.
        dissim = SignatureMap(
            target="edge",
            k=0,
            values={k: 1.0 - v for k, v in result.edge_scores.values.items()},
            graph=result.edge_scores.graph,
        )
        export_heatmap(dissim, args.heatmap, "svg", "linear")
    print(repr(result.global_score))
    return EXIT_OK


def _cmd_perturb(args) -> int:
    spec = PerturbationSpec(p=args.p, seed_count=args.count, rng_seed=args.rng_seed)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    base = grid_graph(spec.extent, spec.spacing)
    write_graph_csv(base, out / "grid.vertices.csv", out / "grid.edges.csv")
    for i, gp in enumerate(generate_perturbed(spec)):
        write_graph_csv(gp, out / f"perturbed_{i}.vertices.csv", out / f"perturbed_{i}.edges.csv")
    print(f"wrote {args.count} perturbed grids to {out}")
    return EXIT_OK


def _cmd_study(args) -> int:
    result = run_perturbation_study(
        args.p_values,
        args.seeds,
        args.k,
        args.tol,
        rng_seed=args.rng_seed,
        workers=args.workers,
        out_dir=args.out_dir,
    )
    bound_ok = all(d <= np.sqrt(2.0) * p + 2 * args.tol for p, _, d in result.rows)
    print(f"rows={len(result.rows)} bound_ok={bound_ok}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="pathdist", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="graph statistics")
    p.add_argument("--graph", required=True)
    _add_common(p, "contract")
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser("distance", help="directed path-based distance")
    p.add_argument("--k", type=int, default=3, choices=(1, 2, 3))
    p.add_argument("--both", action="store_true", help="compute both directions")
    p.add_argument("--strict", action="store_true", help="restrict to separated, degree!=3 interiors")
    p.add_argument("--resume", action="store_true", help="reuse distances already in --out")
    p.add_argument("--out", required=True, help="per-path report CSV")
    _add_common(p, "from", "to", "tol", "workers", "contract")
    p.set_defaults(fn=_cmd_distance)

    p = sub.add_parser("signature", help="per-edge local signature")
    p.add_argument("--k", type=int, default=2, choices=(1, 2, 3))
    p.add_argument("--out", required=True)
    p.add_argument("--heatmap", default=None)
    p.add_argument("--geojson", default=None)
    p.add_argument("--ramp", default="quantile", choices=("quantile", "linear"))
    _add_common(p, "from", "to", "tol", "workers", "contract")
    p.set_defaults(fn=_cmd_signature)

    p = sub.add_parser("cdf", help="weighted CDF of a signature CSV")
    p.add_argument("--sig", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--plot", default=None)
    p.add_argument("--reference", type=float, default=20.0)
    _add_common(p)
    p.set_defaults(fn=_cmd_cdf)

    p = sub.add_parser("separation", help="d-separated vertex census")
    p.add_argument("--out", default=None)
    _add_common(p, "from", "to", "tol", "workers", "contract")
    p.set_defaults(fn=_cmd_separation)

    p = sub.add_parser("mapmatch", help="Fréchet map-matching distance")
    p.add_argument("--graph", required=True)
    p.add_argument("--curve", required=True)
    _add_common(p, "tol", "contract")
    p.set_defaults(fn=_cmd_mapmatch)

    p = sub.add_parser("frechet", help="Fréchet distance between two curves")
    p.add_argument("--curve-a", required=True)
    p.add_argument("--curve-b", required=True)
    _add_common(p, "tol")
    p.set_defaults(fn=_cmd_frechet)

    p = sub.add_parser("fscore", help="marbles-and-holes F-score baseline")
    p.add_argument("--interval", type=float, default=5.0)
    p.add_argument("--match-dist", type=float, default=20.0)
    p.add_argument("--max-path", type=float, default=300.0)
    p.add_argument("--out", required=True)
    p.add_argument("--heatmap", default=None)
    _add_common(p, "from", "to", "workers", "contract")
    p.set_defaults(fn=_cmd_fscore)

    p = sub.add_parser("perturb", help="generate perturbed grid graphs")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--rng-seed", type=int, default=0)
    _add_common(p, "out-dir")
    p.set_defaults(fn=_cmd_perturb)

    p = sub.add_parser("study", help="perturbed-grid distance study")
    p.add_argument("--p-values", type=_p_values, default="0.1,0.3,0.5,0.7,0.9")
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--rng-seed", type=int, default=0)
    _add_common(p, "tol", "workers", "out-dir")
    p.set_defaults(fn=_cmd_study)

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _apply_config(args, list(argv), parser)
        if hasattr(args, "tol"):
            check_tolerance(args.tol)
        # One pool serves every pass of the run and is joined before main returns.
        with run_pool(getattr(args, "workers", 1)):
            return args.fn(args)
    except FileNotFoundError as exc:
        print(f"pathdist: missing file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PathdistError as exc:
        print(f"pathdist: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
