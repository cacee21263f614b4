"""Smoke test of scripts/kernel_bench.py: one repetition, one JSON object."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "kernel_bench.py"


def test_kernel_bench_prints_one_json_object():
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--repeat", "1"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 1
    out = json.loads(lines[0])
    kernels = ("wedge4_product", "weil_nullspace", "hurwitz_index_box", "wedge_row")
    assert set(out) == {*kernels, "repeat", "python"}
    assert out["repeat"] == 1
    for key in kernels:
        assert isinstance(out[key], float) and out[key] > 0
