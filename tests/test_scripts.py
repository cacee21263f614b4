"""End-to-end runs of the experiment scripts in scripts/."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from quatprym import cli

ROOT = Path(__file__).resolve().parent.parent
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def run_script(name, *argv, check=True):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        capture_output=True, text=True, timeout=120, check=check, env=ENV,
    )


def test_run_report_writes_what_hodge_report_prints(tmp_path, capsys):
    run_script("run_report.py", "--module", "qalg", "--out", str(tmp_path))
    assert cli.main(["report", "--module", "qalg"]) == 0
    printed = capsys.readouterr().out.encode()
    assert (tmp_path / "report.json").read_bytes() == printed
    assert cli.main(["report", "--module", "qalg", "--format", "markdown"]) == 0
    assert (tmp_path / "report.md").read_bytes() == capsys.readouterr().out.encode()


def test_run_report_rejects_an_unknown_module(tmp_path):
    out = run_script("run_report.py", "--module", "nope", "--out", str(tmp_path), check=False)
    assert out.returncode == 2
    assert out.stdout == ""
    error = out.stderr.splitlines()[-1]
    assert error.startswith("run_report.py: error: argument --module: invalid choice: 'nope'")
    assert list(tmp_path.iterdir()) == []


def test_orbit_survey_genus_2():
    lines = run_script("orbit_survey.py", "--genus", "2").stdout.splitlines()
    assert lines[0].startswith("genus 2 (")
    assert lines[1:] == [
        "  candidate tuples   4096",
        "  satisfy relation   2176",
        "  surjective         1440",
        "  orbit sizes        [1440]",
        "  standard tuple     i,j,1,1",
        "  its orbit size     1440",
        "  single orbit: every surjection normalizes to the standard tuple",
    ]


def test_orbit_survey_genus_3():
    lines = run_script("orbit_survey.py", "--genus", "3").stdout.splitlines()
    assert lines[0].startswith("genus 3 (")
    # two decimals: the run takes under a tenth of a second
    assert re.fullmatch(r"genus 3 \(\d+\.\d\ds\)", lines[0])
    assert lines[1:] == [
        "  candidate tuples   262144",
        "  satisfy relation   133120",
        "  surjective         120960",
        "  orbit sizes        [120960]",
        "  standard tuple     1,i,j,1,1,1",
        "  its orbit size     120960",
        "  single orbit: every surjection normalizes to the standard tuple",
    ]


@pytest.mark.parametrize("genus,message", [
    ("4", "enumeration only supported for genus <= 3"),
    ("-1", "genus must be non-negative"),
], ids=["4", "-1"])
def test_orbit_survey_rejects_unsupported_genus(genus, message):
    out = run_script("orbit_survey.py", "--genus", genus, check=False)
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.splitlines() == [f"orbit_survey.py: error: {message}"]
