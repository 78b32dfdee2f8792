"""pathdist benchmark: run one workload for a fixed time and report metrics.

    python3 bench/run.py --workload {study,city,fscore,cli-k3} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a source checkout; it uses ``src/pathdist`` from
that checkout and nothing installed.  Each repetition is a fresh process
(``rep.py``) that builds the seeded inputs, runs the workload's fixed unit
of work once and checks the outputs.  Repetitions continue until the next
one would end after ``--seconds``; every figure is the median over them.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (the unit),
``setup_s`` (process start, ``import pathdist``, building and writing the
inputs) and ``peak_rss_mb``.  ``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer metrics of the traced ones, the
tracing overhead, and the decision-cost ladder (``ladder.py``).

The last line of stdout is the result object; the line before it describes
the inputs, the machine and the checks.  Failed operations count in
``failed``; the failed fraction is ``failed / attempted``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from metrics import EFFECTS, unit_of
from speed import corrected

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("study", "city", "fscore", "cli-k3")
RUN_LIMIT_S = 170.0  # every process this run starts is done by then
# Thread pools of numeric libraries stay at one thread, so worker counts alone
# set the parallelism.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def _machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
    }


def _rep(args, env, work: Path, traced: bool, spans: Path | None, timeout: float) -> dict:
    """Run one repetition; set-up time is measured up to its READY line."""
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--dir", str(work)]
    if traced:
        cmd.append("--trace")
        if spans is not None:
            cmd += ["--spans", str(spans)]
    start = time.perf_counter()
    # A session of its own, so a timeout can stop the pool workers with it.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
                            start_new_session=True)
    try:
        first = proc.stdout.readline().split()
        setup_s = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"attempted": 1, "failed": 1, "messages": ["repetition timed out"]}
    lines = rest.strip().splitlines()
    if len(first) != 3 or first[0] != "READY" or proc.returncode != 0 or not lines:
        return {"attempted": 1, "failed": 1,
                "messages": [f"repetition exited with {proc.returncode}"]}
    out = json.loads(lines[-1])
    out["raw_setup_s"] = setup_s
    out["setup_s"] = corrected(setup_s, int(first[1]), float(first[2]))
    out["traced"] = traced
    return out


def _ladder(env, timeout: float) -> dict | None:
    """The decision-cost ladder's metrics, or None if it failed."""
    try:
        done = subprocess.run([sys.executable, str(HERE / "ladder.py")], capture_output=True,
                              text=True, env=env, cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None
    if done.returncode != 0:
        print(done.stderr, file=sys.stderr)
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


def _median(reps: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in reps)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "pathdist" / "__init__.py").is_file():
        print(f"bench: no pathdist sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    base = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    spans = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}.spans.csv"
    if args.trace:
        spans.parent.mkdir(exist_ok=True)
    reps: list[dict] = []
    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S
    min_reps = 4 if args.trace else 3
    try:
        while True:
            traced = bool(args.trace) and len(reps) % 2 == 1
            t0 = time.perf_counter()
            rep = _rep(args, env, base / f"rep{len(reps)}", traced, spans, deadline - t0)
            rep["elapsed_s"] = time.perf_counter() - t0
            reps.append(rep)
            if "wall_s" not in rep or "peak_rss_mb" not in rep:
                break
            now = time.perf_counter()
            next_s = statistics.median(r["elapsed_s"] for r in reps)
            if now + next_s > deadline or (len(reps) >= min_reps and now + next_s > started + args.seconds):
                break
        ladder = _ladder(env, max(deadline - time.perf_counter(), 1.0)) if args.trace else {}
    finally:
        shutil.rmtree(base, ignore_errors=True)
        if base.parent.is_dir() and not any(base.parent.iterdir()):
            base.parent.rmdir()

    # The ladder is one more operation of a traced run.
    attempted = sum(r["attempted"] for r in reps) + bool(args.trace)
    failed = sum(r["failed"] for r in reps) + (ladder is None)
    complete = all("peak_rss_mb" in r for r in reps) and ladder is not None
    correct = complete and failed == 0
    plain = [r for r in reps if not r.get("traced") and "wall_s" in r]
    traced_reps = [r for r in reps if r.get("traced") and "layers" in r]
    metrics = {}
    if complete and not args.trace:
        metrics = {
            "wall_s": {"value": _median(plain, "wall_s"), "unit": "s"},
            "setup_s": {"value": _median(plain, "setup_s"), "unit": "s"},
            "peak_rss_mb": {"value": _median(plain, "peak_rss_mb"), "unit": "MB"},
        }
    elif complete:
        layers = {name: statistics.median(r["layers"][name] for r in traced_reps)
                  for name in traced_reps[0]["layers"]}
        layers.update(ladder)
        layers["trace.overhead_frac"] = (
            _median(traced_reps, "wall_s") / _median(plain, "wall_s") - 1.0
        )
        metrics = {name: {"value": layers[name], "unit": unit_of(name)} for name in EFFECTS}

    notes = {
        "workload": args.workload,
        "seed": args.seed,
        "repetitions": len(reps),
        "traced_repetitions": len(traced_reps),
        "inputs": reps[0].get("info"),
        "machine": _machine(),
        "failed_frac": failed / attempted if attempted else 1.0,
        "check_messages": [m for r in reps for m in r.get("messages", [])][:10],
        "wall_s_each": [round(r["wall_s"], 4) for r in reps if "wall_s" in r],
        "raw_wall_s_each": [round(r["raw_wall_s"], 4) for r in reps if "raw_wall_s" in r],
        "raw_setup_s_each": [round(r["raw_setup_s"], 4) for r in reps if "raw_setup_s" in r],
    }
    if args.trace:
        notes["worker_spans"] = (
            "spans of pool workers are aggregated inside each worker and merged into counts "
            "and per-call times; self times are the benchmarked process's own"
        )
        notes["spans_csv"] = str(spans.relative_to(ROOT))
    print(json.dumps(notes))
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
