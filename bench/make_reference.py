"""Write the reference outputs that ``rep.py`` compares each run against.

    python3 bench/make_reference.py [--seeds 0-15]

For every seed it runs each workload's unit once, untraced, and stores the
outputs the checks read (study distances, city per-path values, Δk and
signatures, F-score per-seed tallies, the k=3 report rows) in
``bench/reference/seed-<n>.json``.  The stored files were produced by the
code this benchmark was written against; regenerate them only for a change
that is meant to alter results beyond the checks' tolerance.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import WORKLOADS  # noqa: E402


def _seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="0-15", help="inclusive range, e.g. 0-15")
    args = ap.parse_args()
    out_dir = HERE / "reference"
    out_dir.mkdir(exist_ok=True)
    work_root = HERE.parent / ".bench_work"
    work_root.mkdir(exist_ok=True)
    for seed in _seeds(args.seeds):
        doc = {}
        for name, cls in WORKLOADS.items():
            work = Path(tempfile.mkdtemp(prefix="reference-", dir=work_root))
            try:
                wl = cls()
                wl.setup(seed, work)
                wl.run()
                res = wl.results()
                checks = wl.check(res, None)
                if checks.failed:
                    raise SystemExit(f"seed {seed} {name}: invariants fail: {checks.messages}")
                doc[name] = res
            finally:
                shutil.rmtree(work, ignore_errors=True)
        (out_dir / f"seed-{seed}.json").write_text(json.dumps(doc, sort_keys=True) + "\n")
        print(f"seed {seed}: written", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
