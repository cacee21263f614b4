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


def test_tracer_installs_on_every_wrapped_name():
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import json, layers, tracer\n"
        "from quatprym import qalg, report, weil_classes\n"
        "t = tracer.Tracer(); layers.install(t)\n"
        "weil_classes.weil_report(1, qalg.HAMILTON)\n"
        "report.run_suite(module='spin')\n"
        "report.run_suite(module='cover')\n"
        "report.run_suite(module='curve')\n"
        "print(json.dumps(layers.metrics(t)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "perfbench"), str(ROOT / "src")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["weil_classes.weil_kernel.calls"] == 1
    assert got["weil_classes.weil_report.s"] > 0
    for name in ("build_spin_rep", "so7_invariant", "reference_comparison",
                 "cross_check_weights"):
        assert got[f"spin_explicit.{name}.s"] > 0, name
    # spans that a call bypassing the module attribute would leave at zero
    for name in ("cover_homology.check_cycle_c_and_basis", "cover_homology.prym_lattice_model",
                 "curve_model.finite_field_locus"):
        assert got[f"{name}.s"] > 0, name
