"""One timed repetition of one workload, in a fresh interpreter.

Started by run.py; not meant to be run by hand.  The first statements are
the set-up the benchmark times: importing quatprym and loading the budgets,
as `hodge` does.  The worker then prints one JSON line with the monotonic
time at which set-up ended, the host-speed scale factors (hostspeed.py),
the body's wall time, the peak resident memory and the outcome of every
operation.

    worker.py --setup-only
    worker.py --workload NAME --seed N --trace 0|1
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import quatprym  # noqa: E402

BUDGETS = quatprym.load_budgets()
READY = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import hostspeed  # noqa: E402

# reference_work() runs right after set-up, to scale the set-up time
SETUP_PROBES = 3


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    result = {"ready": READY, "setup_scale": hostspeed.scale(
        [hostspeed.reference_work() for _ in range(SETUP_PROBES)])}
    if not args.setup_only:
        result.update(run_workload(args.workload, args.seed, args.trace))
    print(json.dumps(result))


def run_workload(name, seed, trace):
    from workloads import WORKLOADS, Outcome

    body = WORKLOADS[name](seed)
    # spans and per-operation times use a clock that leaves the host-speed
    # probes out
    probe = hostspeed.Sampler()
    tracer = None
    if trace:
        import layers
        from tracer import Tracer

        tracer = Tracer(clock=probe.clock)
        layers.install(tracer)
    out = Outcome(clock=probe.clock)
    with probe:
        start, cpu_start = time.perf_counter(), time.process_time()
        body(BUDGETS, out)
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu_start
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": wall - probe.inside_s,
        "cpu_s": cpu - probe.inside_s,
        "scale": probe.scale,
        "peak_rss_mb": peak_kib * 1024 / 1e6,
        "attempted": out.attempted,
        "failed": out.failed,
        "cap_hit": out.cap_hit,
        "errors": out.errors,
        "problems": out.problems[:20],
        "correct": out.correct,
        "latencies_ms": out.latencies_ms,
        "layers": None if tracer is None else layers.metrics(tracer),
    }


if __name__ == "__main__":
    main()
