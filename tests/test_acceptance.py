"""Acceptance gate: one test per headline criterion.

Every test prints a single PASS line (visible under ``pytest -s``; pytest's
own PASSED/FAILED row per test is the machine-readable verdict) and enforces
the stated wall-clock budget with time.monotonic().  All arithmetic in the
library is exact, so every comparison below is exact equality.
"""

import time
from pathlib import Path

from quatprym import cover_homology as ch
from quatprym import curve_model as cm
from quatprym import lie_engine as le
from quatprym import linalg
from quatprym import qalg
from quatprym import report
from quatprym import spin_explicit as sp
from quatprym import surface_homs as sh
from quatprym import weil_classes as wc
from test_lie_engine import weyl_dim


def _done(name, t0, cap, detail):
    """Print the per-criterion verdict line and enforce the time budget."""
    dt = time.monotonic() - t0
    if cap is not None and dt >= cap:
        print(f"FAIL {name} [{dt:.2f}s, budget {cap:.0f}s]: over time budget")
        raise AssertionError(f"{name}: {dt:.2f}s exceeded the {cap:.0f}s budget")
    budget = f", budget {cap:.0f}s" if cap is not None else ""
    print(f"PASS {name} [{dt:.2f}s{budget}]: {detail}")


def _w(*xs):
    """A weight of true coordinates xs, in the engine's doubled ints."""
    return tuple(2 * x for x in xs)


def test_spin_rep_wedge_decompositions():
    t0 = time.monotonic()
    alg, gamma = le.atom("Gamma")
    assert le.multiset_size(gamma) == 8

    wedge2 = le.wedge_power(alg, gamma, 2)
    assert le.multiset_size(wedge2) == 28
    assert dict(le.decompose(alg, wedge2)) == {_w(1, 1, 0): 1, _w(1, 0, 0): 1}
    assert weyl_dim(alg, _w(1, 1, 0)) == 21
    assert weyl_dim(alg, _w(1, 0, 0)) == 7

    sym2 = le.sym_power(alg, gamma, 2)
    assert le.multiset_size(sym2) == 36
    assert dict(le.decompose(alg, sym2)) == {_w(1, 1, 1): 1, _w(0, 0, 0): 1}
    assert weyl_dim(alg, _w(1, 1, 1)) == 35

    wedge4 = le.wedge_power(alg, gamma, 4)
    assert le.multiset_size(wedge4) == 70
    assert dict(le.decompose(alg, wedge4)) == {
        _w(1, 1, 1): 1,
        _w(2, 0, 0): 1,
        _w(1, 0, 0): 1,
        _w(0, 0, 0): 1,
    }
    assert weyl_dim(alg, _w(2, 0, 0)) == 27

    _done(
        "spin-rep-wedge-decompositions",
        t0,
        5,
        "degree 2/2-sym/4 powers of the 8-dim spin rep split as "
        "21+7, 35+1 and 35+27+7+1",
    )


def test_doubled_spin_invariant_counts():
    t0 = time.monotonic()
    alg, gamma = le.atom("Gamma")
    two = le.dsum(gamma, gamma)

    assert le.invariant_dim(alg, le.wedge_power(alg, two, 2)) == 1
    assert le.invariant_dim(alg, le.wedge_power(alg, two, 4)) == 6
    assert le.invariant_dim(alg, le.tensor(alg, two, two)) == 4

    # the two intermediate pairing counts behind the degree-4 total
    wedge2 = le.wedge_power(alg, gamma, 2)
    wedge3 = le.wedge_power(alg, gamma, 3)
    assert le.invariant_dim(alg, le.tensor(alg, wedge2, wedge2)) == 2
    assert le.invariant_dim(alg, le.tensor(alg, wedge3, gamma)) == 1

    _done(
        "doubled-spin-invariant-counts",
        t0,
        30,
        "invariants of the doubled spin rep: 1 in degree 2, 6 in degree 4, "
        "4 in the square; intermediate pairings 2 and 1",
    )


def test_high_degree_invariant_counts():
    t0 = time.monotonic()
    alg, gamma = le.atom("Gamma")
    two = le.dsum(gamma, gamma)

    wedge6 = le.wedge_power(alg, two, 6)
    assert le.multiset_size(wedge6) == 8008
    assert le.invariant_dim(alg, wedge6) == 6

    wedge8 = le.wedge_power(alg, two, 8)
    assert le.multiset_size(wedge8) == 12870
    assert le.invariant_dim(alg, wedge8) == 16

    _done(
        "high-degree-invariant-counts",
        t0,
        120,
        "doubled spin rep has 6 invariants in degree 6 (size 8008) and "
        "16 in degree 8 (size 12870)",
    )


def test_canned_scenarios():
    t0 = time.monotonic()
    reports = {name: report.scenario_report(name) for name in report.SCENARIOS}
    for name, rep in reports.items():
        assert rep["ok"], f"scenario {name} failed: {rep['rows']}"

    def computed(name):
        return [r["computed"] for r in reports[name]["rows"]]

    assert computed("so7_hodge") == [1, 6, 6, 16]
    assert computed("so8_hodge") == [1, 1, 1, 10]
    assert computed("weil_4fold") == [3]
    assert computed("selfproduct_weil") == [4]
    assert computed("gl2_summand") == [1, 1, 1, 1]
    assert computed("lemma68") == ["(0,0):1, (4,0):1"]

    _done(
        "canned-scenarios",
        t0,
        None,
        "all six scenario reports ok: so8 ladder (1,1,1,10), 4fold 3, "
        "self-product 4, middle-power multiplicity 1 for n=1..4, "
        "box-tensor trivial part (0,0)+(4,0)",
    )


def test_explicit_invariant_line():
    t0 = time.monotonic()
    rep = sp.build_spin_rep()

    zmonos = sp.weight_zero_monomials(rep)
    assert len(zmonos) == 8

    # one invariant line in degree 4; so7_invariant itself raises unless
    # all 21 basis operators annihilate the normalized vector
    assert sp.invariant_count(rep, 4, "wedge") == 1
    inv = sp.so7_invariant(rep)
    assert inv[(0, 4, 5, 6)] == 2      # leading term, normalization anchor
    assert inv[(1, 2, 3, 7)] == 2      # last term
    assert sp.project_even(inv) == 2   # component in wedge^4 of the even part

    # the transcribed reference list differs in exactly one position;
    # that discrepancy is FLAGGED by the claim registry, never FAIL
    cmp = sp.reference_comparison(rep, inv)
    assert cmp["matches"] == 7
    assert cmp["mismatch_positions"] == [6]
    statuses = {r.claim_id: r.status for r in report.run_suite(module="spin")}
    assert "FAIL" not in statuses.values()
    assert list(statuses.values()).count("FLAGGED") == 1

    _done(
        "explicit-invariant-line",
        t0,
        10,
        "weight-0 slice is 8-dim, invariant line unique with leading/last "
        "coefficient 2 and even-part component 2; single transcription "
        "mismatch is FLAGGED not fatal",
    )


def test_weil_class_dimensions():
    t0 = time.monotonic()
    cases = []
    for n in (1, 2):
        for r, s in ((-1, -1), (-1, -3)):
            params = qalg.AlgebraParams.make(r, s)
            rep = wc.weil_report(n, params)
            assert rep["dim_WK"] == 2, rep
            assert rep["dim_WF"] == 2 * n + 1, rep
            cases.append(f"n={n},(r,s)=({r},{s})")

    _done(
        "weil-class-dimensions",
        t0,
        120,
        "dim W_K = 2 and dim W_F = 2n+1 on " + "; ".join(cases),
    )


def test_prym_lattice_structure():
    t0 = time.monotonic()
    graph = ch.build_cover_graph(sh.standard_hom(2))
    h1 = ch.H1Data(graph)
    assert h1.rank == 9

    chk = ch.check_cycle_c_and_basis()
    assert chk == {
        "boundary_zero": True,
        "zeta_integral": True,
        "v_minus_rank": 4,
        "inclusion_divisors": [1, 1, 1, 1],
        "translate_basis_det": 1,
        "structure_match": True,
    }

    m2 = ch.prym_lattice_model(2)
    assert m2.module_type == "(M)^2"
    assert m2.rank == 8
    assert m2.inclusion_divisors == [1, 1, 1, 1]
    assert abs(m2.basis_det) == 1
    assert m2.symplectic_ok()

    m3 = ch.prym_lattice_model(3)
    assert m3.module_type == "(M ⊕ H_Z)^2"
    assert m3.rank == 16
    assert m3.symplectic_ok()

    _done(
        "prym-lattice-structure",
        t0,
        5,
        "H1 rank 9; anti-invariant part rank 4 and saturated; distinguished "
        "cycle closes with unimodular translate basis matching the maximal "
        "order; genus-2 model (M)^2, genus-3 model (M ⊕ H_Z)^2, "
        "deck action symplectic",
    )


def test_hom_normalization_and_census():
    t0 = time.monotonic()
    for g in range(2, 6):
        for k in range(1, g):
            assert sh.verify_psi_in_Ag(g, k)

    assert sh.enumerate_surjections(1).surjective == 0

    rep = sh.enumerate_surjections(2)
    assert rep.total == 4096
    assert rep.valid == 2176
    assert rep.surjective == 1440
    assert rep.orbit_sizes == (1440,)
    assert rep.standard_orbit_size == 1440

    # every tuple in the constructive normal shape (last two handles i, j,
    # everything else central) must normalize to the standard tuple, with
    # a replayable move program
    shapes = []
    for b1 in "1,-1".split(","):
        for b2 in "1,-1".split(","):
            shapes.append(f"i,j,{b1},{b2}")
    for a1 in "1,-1".split(","):
        for b1 in "1,-1".split(","):
            for b2 in "1,-1".split(","):
                for b3 in "1,-1".split(","):
                    shapes.append(f"{a1},i,j,{b1},{b2},{b3}")
    assert len(shapes) == 20
    for text in shapes:
        g = len(text.split(",")) // 2
        h = sh.parse_hom(g, text)
        out = sh.normalize_hom(h)
        assert out["reached"], text
        cur = h
        for mv in out["moves"]:
            cur = sh.apply_move(cur, mv)
        assert cur == sh.standard_hom(h.g), text

    _done(
        "hom-normalization-and-census",
        t0,
        60,
        "handle-mix moves fix the relator class for g<=5; genus-1 count 0; "
        "genus-2 census 4096/2176/1440 in a single move orbit (orbit count 1 "
        "recorded as EVIDENCE); all 20 normal-shape tuples normalize and "
        "replay to the standard tuple",
    )


def test_order_index_identity():
    t0 = time.monotonic()
    checked = 0
    for a in range(-3, 4):
        for b in range(-3, 4):
            for c in range(-3, 4):
                for d in range(-3, 4):
                    if (a, b, c, d) == (0, 0, 0, 0):
                        continue
                    m = qalg.QuatElem.make(qalg.HAMILTON, a, b, c, d)
                    got, expected = qalg.hurwitz_index_identity(m)
                    assert got == expected, (a, b, c, d)
                    assert expected == 2 * m.norm() ** 2
                    checked += 1
    assert checked == 7 ** 4 - 1

    comps = qalg.group_ring_wedderburn()
    assert sorted(comps) == [(1, 1), (1, 1), (1, 1), (1, 1), (2, -1)]

    # the 2x2 embedding over Q(sqrt(r)) is a ring map with det = norm
    sample = [
        qalg.QuatElem.make(qalg.HAMILTON, a, b, c, d)
        for a, b, c, d in [
            (1, 0, 0, 0),
            (0, 1, 0, 0),
            (0, 0, 1, 0),
            (0, 0, 0, 1),
            (1, 1, 1, 1),
            (2, -1, 3, 0),
            (-1, 2, 0, -3),
        ]
    ]
    for x in sample:
        for y in sample:
            assert qalg.embed_in_m2(x * y) == linalg.mat_mul(qalg.embed_in_m2(x), qalg.embed_in_m2(y))
        det = linalg.det(qalg.embed_in_m2(x))
        assert det.v == 0 and det.u == x.norm()

    _done(
        "order-index-identity",
        t0,
        5,
        f"index of the principal sublattice equals twice the squared norm at "
        f"all {checked} nonzero points of the [-3,3]^4 box; group ring splits "
        f"as four characters plus one quaternionic 2-dim factor; 2x2 "
        f"embedding is multiplicative",
    )


def test_plane_curve_model():
    t0 = time.monotonic()
    autos = cm.verify_curve_autos()
    assert autos["ok"] and autos["group_order"] == 8

    assert cm.verify_quadrics()["ok"]

    p4 = cm.verify_p4_action()
    assert p4["ok"] and p4["projective_group_order"] == 8

    quartics = cm.verify_invariant_quartics()
    assert quartics["ok"] and quartics["span_rank"] == 4

    for p, size in ((13, 14), (17, 30)):
        locus = cm.finite_field_locus(p)
        assert not locus["degenerate"]
        assert locus["quadric_locus_size"] == size
        assert locus["quartic_locus_size"] == size
        assert locus["parametrized_points"] == size
        assert locus["ok"], locus

    assert cm.scroll_numerology(4) == {
        "genus": 9,
        "h0_H": 8,
        "h0_H2": 24,
        "sym2_dim": 36,
        "quadric_gap": 12,
        "scroll_dim": 4,
        "scroll_deg": 4,
    }

    _done(
        "plane-curve-model",
        t0,
        120,
        "automorphism, quadric, projective-action and quartic identities all "
        "exact; finite-field loci agree at p=13 (14 points) and p=17 "
        "(30 points), recorded as EVIDENCE; scroll numerology "
        "(9,8,24,36,12,4,4)",
    )


def test_full_claim_registry_is_green():
    t0 = time.monotonic()
    records = report.run_suite()
    counts = {}
    for r in records:
        counts[r.status] = counts.get(r.status, 0) + 1
    assert not report.has_failures(records), [
        r.claim_id for r in records if r.status == "FAIL"
    ]
    assert counts == {"PASS": 35, "EVIDENCE": 3, "FLAGGED": 1}
    assert len(records) == 39
    # the emitted JSON is the frozen golden file, byte for byte
    golden = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "report.json"
    assert report.emit(records, "json").encode() == golden.read_bytes()

    _done(
        "full-claim-registry",
        t0,
        None,
        "registry reports 35 PASS, 3 EVIDENCE, 1 FLAGGED, 0 FAIL",
    )
