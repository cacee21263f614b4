"""Tests of the benchmark's own code: the tracer's self-time arithmetic,
its rebinding of imported names, the host-speed scaling, and the metric
names against BENCHMARK.json.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import signal
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(HERE), str(SRC)]

import hostspeed  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, rebind  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


class ScriptedClock:
    """A clock that advances only when the test says so."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_subtracts_nested_spans():
    clock = ScriptedClock()
    tracer = Tracer(clock)

    def leaf():
        clock.advance(2.0)

    leaf = tracer.span("leaf", leaf)

    def middle():
        clock.advance(1.0)
        leaf()
        leaf()

    middle = tracer.span("middle", middle)

    def outer():
        clock.advance(0.5)
        middle()
        clock.advance(0.25)
        leaf()

    tracer.span("outer", outer)()

    assert tracer.stats("leaf").calls == 3
    assert tracer.stats("leaf").total_s == 6.0
    assert tracer.stats("leaf").self_s == 6.0
    assert tracer.stats("middle").total_s == 5.0
    assert tracer.stats("middle").self_s == 1.0
    assert tracer.stats("outer").total_s == 7.75
    assert tracer.stats("outer").self_s == 0.75
    # the self times partition the root span
    assert sum(tracer.stats(n).self_s for n in ("leaf", "middle", "outer")) == 7.75


def test_span_closes_when_the_call_raises():
    clock = ScriptedClock()
    tracer = Tracer(clock)

    def boom():
        clock.advance(3.0)
        raise ValueError("contained")

    boom = tracer.span("boom", boom)

    def outer():
        clock.advance(1.0)
        with pytest.raises(ValueError):
            boom()

    tracer.span("outer", outer)()
    assert tracer.stats("boom").calls == 1
    assert tracer.stats("outer").self_s == 1.0
    assert tracer._open == []


def test_counter_and_observer():
    tracer = Tracer()
    double = tracer.counter("double", lambda x: 2 * x)
    assert [double(x) for x in range(5)] == [0, 2, 4, 6, 8]
    assert tracer.count("double") == 5
    seen = tracer.span("sq", lambda x: x * x,
                       observe=lambda t, args, kwargs, result: t.add("sq.sum", result))
    seen(3)
    seen(4)
    assert tracer.count("sq.sum") == 25
    assert tracer.count("never") == 0


def test_rebind_reaches_every_importing_module():
    def f():
        return 1

    home, user, other = (types.ModuleType(n) for n in ("home", "user", "other"))
    home.f = f
    user.f = f          # as after `from home import f`
    user.alias = f      # as after `from home import f as alias`
    other.f = lambda: 2
    wrapped = Tracer().counter("f", f)
    assert rebind([home, user, other], f, wrapped) == 3
    assert home.f is wrapped and user.f is wrapped and user.alias is wrapped
    assert other.f is not wrapped


def test_install_wraps_functions_bound_by_from_import():
    # run in a fresh interpreter: install() patches the quatprym modules
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import quatprym, layers, tracer, json\n"
        "from quatprym import weil_classes\n"
        "t = tracer.Tracer(); layers.install(t)\n"
        "weil_classes.mat_mul([[1, 0], [0, 1]], [[2, 0], [0, 3]])\n"
        "print(json.dumps(layers.metrics(t)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(HERE), str(SRC)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    got = json.loads(proc.stdout)
    assert got["linalg.mat_mul.calls"] == 1
    assert got["linalg.mat_mul.madds"] == 8
    # two of the eight products have both factors nonzero
    assert got["linalg.mat_mul.useful_ratio"] == 0.25
    assert got["qalg.qmul.calls"] == 0


def test_host_speed_scale_is_the_time_averaged_relative_speed():
    ref = hostspeed.REFERENCE_S
    assert hostspeed.scale([ref, ref]) == 1.0
    # half the time at the reference speed, half at half of it
    assert hostspeed.scale([ref, 2 * ref]) == 0.75


def test_sampler_probes_during_the_block_and_restores_the_timer():
    with hostspeed.Sampler() as probe:
        end = time.perf_counter() + 4 * hostspeed.SAMPLE_INTERVAL_S
        while time.perf_counter() < end:
            pass
    assert len(probe.outside) == 2 and len(probe.inside) >= 2
    assert probe.inside_s == sum(probe.inside)
    assert probe.scale == hostspeed.scale(probe.inside)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    with hostspeed.Sampler() as quick:
        pass
    assert quick.inside == [] and quick.scale == hostspeed.scale(quick.outside)


def test_metric_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == layers.UNITS
    produced = set(layers.metrics(Tracer())) | set(layers.FROM_UNTRACED)
    assert produced == set(layers.UNITS)


def test_workload_table_matches_names():
    assert tuple(workloads.WORKLOADS) == run.WORKLOAD_NAMES


def test_census_inputs_are_seeded_surjective_tuples():
    from itertools import product

    all_tuples = list(product(workloads.Q8, repeat=4))
    surjective = [t for t in all_tuples if workloads.is_surjective_hom(t, 2)]
    assert len(surjective) == 1440  # the genus-2 census of the registry
    batch = workloads.genus2_batch(7, workloads.NORMALIZE_BATCH)
    assert batch == workloads.genus2_batch(7, workloads.NORMALIZE_BATCH)
    assert batch != workloads.genus2_batch(8, workloads.NORMALIZE_BATCH)
    assert len(set(batch)) == len(batch) and set(batch) <= set(surjective)
    assert workloads.mednykh_count(2) == 2176
    assert workloads.mednykh_count(3) == workloads.CENSUS_G3[1]


def test_percentile_is_nearest_rank():
    samples = list(range(1, 121))
    assert run.percentile(samples, 50) == 60
    assert run.percentile(samples, 90) == 108
    assert sum(1 for x in samples if x > run.percentile(samples, 90)) == 12
    assert run.percentile([], 90) == 0.0
