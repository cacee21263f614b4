"""The benchmark's tracer (perfbench/layers.py) wraps quatprym functions
by module and name.  Installing it must still find every one of them, so
deleting or renaming a wrapped function fails here, not only in a traced
benchmark run.  Runs in a fresh interpreter, since installing the tracer
patches the package's modules."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def traced_metrics(*calls):
    """The tracer's per-layer metrics after the given statements, run in a
    fresh interpreter with the tracer installed."""
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import json, layers, tracer\n"
        "from quatprym import qalg, report, weil_classes\n"
        "t = tracer.Tracer(); layers.install(t)\n"
        + "".join(f"{call}\n" for call in calls)
        + "print(json.dumps(layers.metrics(t)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "perfbench"), str(ROOT / "src")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_tracer_installs_on_every_wrapped_name():
    got = traced_metrics(
        "weil_classes.weil_report(1, qalg.HAMILTON)",
        "report.run_suite(module='spin')",
        "report.run_suite(module='cover')",
        "report.run_suite(module='curve')",
    )
    assert got["weil_classes.weil_kernel.calls"] == 1
    assert got["weil_classes.weil_report.s"] > 0
    for name in ("build_spin_rep", "so7_invariant", "reference_comparison",
                 "cross_check_weights"):
        assert got[f"spin_explicit.{name}.s"] > 0, name
    # spans that a call bypassing the module attribute would leave at zero
    for name in ("cover_homology.check_cycle_c_and_basis", "cover_homology.prym_lattice_model",
                 "curve_model.finite_field_locus"):
        assert got[f"{name}.s"] > 0, name


def test_tracer_counts_the_lie_registry_calls():
    # the canned scenarios evaluate grammar expressions; a readout that
    # called a function object held since import, not the module
    # attribute the tracer rebinds, would drop out of these counts
    got = traced_metrics("report.run_suite(module='lie')")
    calls = {f: got[f"lie_engine.{f}.calls"] for f in ("wedge_power", "decompose", "invariant_dim")}
    assert calls == {"wedge_power": 18, "decompose": 20, "invariant_dim": 12}
