"""Claim registry and the command-line surface.

The registry must be deterministic byte for byte, and the CLI exit
codes must reflect failures.  Only the fast modules are rerun here;
the complete suite is exercised by the acceptance tests.
"""

import json

import pytest

from quatprym import cli, report


def test_module_names_frozen():
    assert report.module_names() == (
        "qalg",
        "homs",
        "cover",
        "lie",
        "spin",
        "weil",
        "curve",
    )


def test_qalg_records_pass_and_are_sorted():
    records = report.run_suite("qalg")
    assert records
    ids = [r.claim_id for r in records]
    assert ids == sorted(ids)
    assert len(set(ids)) == len(ids)
    assert all(r.status == report.PASS for r in records)
    assert all(r.claim_id.startswith("qalg.") for r in records)


def test_unknown_module_rejected():
    with pytest.raises(ValueError):
        report.run_suite("nope")


def test_emit_json_round_trips():
    records = report.run_suite("qalg")
    payload = json.loads(report.emit(records, "json"))
    assert [c["claim_id"] for c in payload["claims"]] == [r.claim_id for r in records]
    assert all(set(c) == {"claim_id", "statement", "expected", "computed", "status"} for c in payload["claims"])


def test_emit_is_deterministic():
    a = report.emit(report.run_suite("qalg"), "json")
    b = report.emit(report.run_suite("qalg"), "json")
    assert a == b


def test_emit_markdown_row_count():
    records = report.run_suite("qalg")
    lines = report.emit(records, "markdown").strip().splitlines()
    # header, separator, then one row per record
    assert len(lines) == len(records) + 2
    assert lines[0].startswith("|")


def test_emit_rejects_unknown_format():
    with pytest.raises(ValueError):
        report.emit(report.run_suite("qalg"), "yaml")


def test_has_failures_logic():
    records = report.run_suite("qalg")
    assert not report.has_failures(records)
    bad = report.ClaimRecord("x.y", "statement", "1", "2", report.FAIL)
    assert report.has_failures(list(records) + [bad])
    flagged = report.ClaimRecord("x.z", "statement", "1", "2", report.FLAGGED)
    assert not report.has_failures(list(records) + [flagged])


# ------------------------------------------------------------------- CLI


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cli_qalg_check(capsys):
    code, out = run_cli(capsys, "qalg", "--check", "wedderburn")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "PASS"


def test_cli_qalg_all_checks(capsys):
    for check in ("nonfree", "wedderburn", "embed"):
        code, out = run_cli(capsys, "qalg", "--check", check)
        assert code == 0
        assert json.loads(out)["status"] == "PASS"


def test_cli_homs_verify_psi(capsys):
    code, out = run_cli(capsys, "homs", "--genus", "2", "--verify-psi")
    assert code == 0
    assert "true" in out.lower() or "PASS" in out


def test_cli_homs_normalize(capsys):
    code, out = run_cli(capsys, "homs", "--genus", "2", "--normalize", "j,i,1,-1")
    assert code == 0
    payload = json.loads(out)
    assert payload["reached"] is True
    assert payload["moves"]


def test_cli_lie_scenario(capsys):
    code, out = run_cli(capsys, "lie", "--scenario", "weil_4fold")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True


def test_cli_lie_decompose(capsys):
    code, out = run_cli(capsys, "lie", "--decompose", "B3", "wedge(2, Gamma)")
    assert code == 0
    payload = json.loads(out)
    assert payload["size"] == 28
    assert payload["invariant_dim"] == 0
    parts = [(tuple(d["weight"]), d["mult"]) for d in payload["decomposition"]]
    assert parts == [(("1", "1", "0"), 1), (("1", "0", "0"), 1)]


def test_cli_lie_decompose_algebra_mismatch(capsys):
    code = cli.main(["lie", "--decompose", "A3", "wedge(2, Gamma)"])
    assert code != 0


def test_cli_weil_report(capsys):
    code, out = run_cli(capsys, "weil", "--n", "1", "--params=-1,-3", "--report")
    assert code == 0
    payload = json.loads(out)
    assert payload["dim_WK"] == 2
    assert payload["dim_WF"] == 3


def test_cli_weil_rejects_indefinite_params(capsys):
    assert cli.main(["weil", "--n", "1", "--params=1,-1", "--report"]) != 0


def test_cli_curve_numerology(capsys):
    code, out = run_cli(capsys, "curve", "--check", "numerology", "--n", "4")
    assert code == 0
    assert json.loads(out)["genus"] == 9


def test_cli_curve_locus_requires_p(capsys):
    assert cli.main(["curve", "--check", "locus"]) != 0


def test_cli_spin_invariant(capsys):
    code, out = run_cli(capsys, "spin", "--invariant")
    assert code == 0
    assert out.count("\n") >= 8


def test_cli_spin_check_bracket(capsys):
    # one line per unordered pair of basis elements e_a ^ e_b of so(7),
    # in lexicographic order, then the summary line
    basis = [(a, b) for a in range(7) for b in range(a + 1, 7)]
    expected = [
        f"[{basis[s]}, {basis[t]}]: pass"
        for s in range(len(basis))
        for t in range(s + 1, len(basis))
    ]
    code, out = run_cli(capsys, "spin", "--check-bracket")
    assert code == 0
    assert len(expected) == 210
    assert out.splitlines() == expected + ["all brackets pass"]


def test_cli_report_module_json(capsys):
    code, out = run_cli(capsys, "report", "--module", "qalg", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert all(c["status"] == "PASS" for c in payload["claims"])


def test_cli_report_markdown(capsys):
    code, out = run_cli(capsys, "report", "--module", "qalg", "--format", "markdown")
    assert code == 0
    assert out.startswith("|")


def test_cli_report_respects_config(tmp_path, capsys):
    path = tmp_path / "b.conf"
    path.write_text("ladder_max = 20\n")
    code, _ = run_cli(capsys, "--config", str(path), "report", "--module", "qalg")
    assert code == 0


def test_cli_rejects_unknown_module(capsys):
    assert cli.main(["report", "--module", "nope"]) != 0
