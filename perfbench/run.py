"""Benchmark of quatprym: one workload, measured in fresh interpreters.

    python3 perfbench/run.py --workload registry|census|wedge_powers \
        --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from its
``src`` directory.  Every timed repetition runs in its own interpreter
(perfbench/worker.py), one at a time, because the engine's caches
(lie_engine._FREUD_CACHE and _IRREP_CACHE, H1Data._rho_cache) would make
in-process repeats measure warm state that a `hodge` user never sees.

The end-to-end times are in seconds at a reference host speed
(hostspeed.py): each measured time is scaled by how fast a fixed piece of
reference work ran on the same thread while it was measured.  The measured
times are printed beside them.

With --trace 0 the run repeats the workload while another repetition still
fits in S seconds (at least once) and reports the end-to-end metrics.  With
--trace 1 it runs one untraced and one traced repetition and reports the
per-layer metrics, including the tracing overhead.  The last line of
standard output is one JSON object; the lines before it print every metric
with its unit, the failed ratio and the host.  The exit code is 1 if an
output gate failed and 2 if the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

WORKLOAD_NAMES = ("registry", "census", "wedge_powers")
# setup-only interpreters before the first repetition and after each one,
# besides the set-up of each repetition itself
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 150

# end-to-end metric name -> unit, in BENCHMARK.json order
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio"}


class BenchError(RuntimeError):
    pass


def spawn(args):
    """Run the worker in a fresh interpreter and return its record, with the
    set-up time measured from just before the interpreter starts."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("HODGE_BUDGET_SCALE", None)
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args} did not finish in {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    rec["setup_raw_s"] = rec["ready"] - start
    rec["setup_s"] = rec["setup_raw_s"] * rec["setup_scale"]
    if "wall_s" in rec:
        rec["wall_ref_s"] = rec["wall_s"] * rec["scale"]
    rec["lifetime_s"] = time.monotonic() - start
    return rec


def percentile(values, q):
    """Nearest-rank percentile: the smallest sample with at least q% of the
    samples at or below it (0.0 for no samples)."""
    xs = sorted(values)
    return xs[max(0, math.ceil(q / 100 * len(xs)) - 1)] if xs else 0.0


def measure(workload, seed, seconds, trace):
    spawn(["--setup-only"])  # warm-up: writes the bytecode caches, not timed
    setups = [spawn(["--setup-only"])["setup_s"] for _ in range(SETUP_SAMPLES)]
    rep_args = ["--workload", workload, "--seed", str(seed)]
    reps = []
    start = time.monotonic()
    while True:
        reps.append(spawn(rep_args + ["--trace", str(int(trace and len(reps) == 1))]))
        setups += [spawn(["--setup-only"])["setup_s"] for _ in range(SETUP_SAMPLES)]
        if trace:
            if len(reps) == 2:
                break
        elif time.monotonic() - start + max(r["lifetime_s"] for r in reps) > seconds:
            break
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    if trace:
        plain, traced = reps
        latencies = plain["latencies_ms"]
        values = dict(traced["layers"])
        values.update({
            "surface_homs.normalize_hom.p50_ms": percentile(latencies, 50),
            "surface_homs.normalize_hom.p90_ms": percentile(latencies, 90),
            "surface_homs.normalize_hom.samples": len(latencies),
            "trace.overhead_s": traced["wall_ref_s"] - plain["wall_ref_s"],
        })
        units = layers.UNITS
    else:
        values = {
            "setup_s": statistics.median(setups + [r["setup_s"] for r in reps]),
            "wall_s": statistics.median(r["wall_ref_s"] for r in reps),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in reps),
            "ok_ratio": (attempted - failed) / attempted,
        }
        units = E2E_UNITS
    return {
        "reps": reps,
        "summary": {
            "correct": all(r["correct"] for r in reps),
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        },
    }


def host_facts():
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def report(workload, seed, trace, reps, summary):
    print(f"workload {workload}, seed {seed}, trace {trace}: "
          f"{len(reps)} repetition(s), each in a fresh interpreter")
    print("host: " + json.dumps(host_facts()))
    errors = {}
    for r in reps:
        for name, n in r["errors"].items():
            errors[name] = errors.get(name, 0) + n
    print(f"failed_ratio = {summary['failed'] / summary['attempted']:.6g} "
          f"({summary['failed']} of {summary['attempted']} operations; "
          f"exceptions {errors}; normalization cap hits {sum(r['cap_hit'] for r in reps)})")
    for t, r in enumerate(reps, 1):
        print(f"repetition {t}: wall {r['wall_s']:.3f} s measured, "
              f"{r['wall_ref_s']:.3f} s at reference speed; cpu {r['cpu_s']:.3f} s; "
              f"set-up {r['setup_raw_s']:.3f} s measured, {r['setup_s']:.3f} s at reference speed")
        for line in r["problems"]:
            print(f"problem: {line}")
    for name, m in summary["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(summary))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "quatprym" / "__init__.py").is_file():
        print(f"error: no quatprym sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report(args.workload, args.seed, args.trace, result["reps"], result["summary"])
    return 0 if result["summary"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
