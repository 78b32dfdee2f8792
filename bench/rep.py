"""One repetition of one workload, in a fresh process started by ``run.py``.

Builds the inputs from the seed and prints ``READY n sum`` (the parent times
set-up up to that line; ``n`` kernel samples summing to ``sum`` seconds give
the vCPU's speed meanwhile), runs the timed unit, checks the outputs and
prints one JSON line: the unit's raw and contention-corrected wall time,
``peak_rss_mb``, the check tallies and, with ``--trace``, the per-layer
metrics of the traced unit.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from speed import SpeedSampler, corrected

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
# Started before pathdist is imported, so set-up is sampled from the import on.
SAMPLER = SpeedSampler()
SAMPLER.start()

import pathdist  # noqa: E402

if not Path(pathdist.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"pathdist was imported from {pathdist.__file__}, not from {ROOT / 'src'}")

from metrics import layer_metrics  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _reference(workload: str, seed: int) -> dict | None:
    path = Path(__file__).resolve().parent / "reference" / f"seed-{seed}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text())[workload]


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest of its finished children."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", default=None, help="write the traced spans to this CSV")
    args = ap.parse_args()

    work = Path(args.dir)
    work.mkdir(parents=True, exist_ok=True)
    SAMPLER.worker_dir = work
    wl = WORKLOADS[args.workload]()
    info = wl.setup(args.seed, work)
    setup_speed = SAMPLER.take()
    print(f"READY {len(setup_speed)} {sum(setup_speed)!r}", flush=True)

    tracer = None
    if args.trace:
        tracer = Tracer(work)
        tracer.install()
    out = {"info": info}
    start = time.perf_counter()
    try:
        wl.run()
        raw = time.perf_counter() - start
        SAMPLER.stop()
        samples = SAMPLER.take()
        out.update(raw_wall_s=raw, wall_s=corrected(raw, len(samples), sum(samples)))
        if tracer is not None:
            tracer.uninstall()
            out["layers"] = layer_metrics(tracer, raw)
            if args.spans:
                tracer.write_spans(args.spans)
        checks = wl.check(wl.results(), _reference(args.workload, args.seed))
    except Exception:  # a crashing unit is a failed operation, not a crashed benchmark
        out.update(attempted=1, failed=1, messages=[traceback.format_exc(limit=3)])
    else:
        out.update(peak_rss_mb=_peak_rss_mb(), attempted=checks.attempted,
                   failed=checks.failed, messages=checks.messages)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
