"""Claim registry and verification report.

Every computational claim the package checks is registered here as a
builder that runs the computation and returns ClaimRecords.  Statuses:

  PASS      exact computation agrees with the expected value
  FAIL      it does not
  EVIDENCE  the check is a finite search or sampling argument (finite
            field loci, orbit census), supporting but not proving
  FLAGGED   the computation disagrees with a transcribed reference
            value in a way attributed to a typo in the source text;
            recorded, not fatal

Exit-code contract: a suite is green iff it contains no FAIL.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from itertools import product as iproduct

from . import (
    cover_homology,
    curve_model,
    lie_engine,
    linalg,
    qalg,
    spin_explicit,
    surface_homs,
    weil_classes,
)
from .config import Budgets

PASS = "PASS"
FAIL = "FAIL"
EVIDENCE = "EVIDENCE"
FLAGGED = "FLAGGED"


@dataclass(frozen=True)
class ClaimRecord:
    claim_id: str
    statement: str
    expected: str
    computed: str
    status: str


def _record(claim_id, statement, expected, computed, evidence=False):
    ok = str(expected) == str(computed)
    status = (EVIDENCE if ok else FAIL) if evidence else (PASS if ok else FAIL)
    return ClaimRecord(
        claim_id=claim_id,
        statement=statement,
        expected=str(expected),
        computed=str(computed),
        status=status,
    )


# ---------------------------------------------------------------------------
# qalg


def _qalg_claims(budgets: Budgets):
    recs = []
    order = qalg.hurwitz_order()
    bad = 0
    checked = 0
    for coords in iproduct(range(-3, 4), repeat=4):
        if coords == (0, 0, 0, 0):
            continue
        m = qalg.QuatElem.make(qalg.HAMILTON, 0)
        for c, b in zip(coords, order.basis):
            m = m + b.scale(c)
        idx, twice_norm_sq = qalg.hurwitz_index_identity(m, order)
        checked += 1
        if idx != twice_norm_sq:
            bad += 1
    recs.append(
        _record(
            "qalg.left_ideal_index",
            "index of (m, im, jm, km) in the maximal order equals 2*N(m)^2 "
            f"for all {checked} nonzero m in the [-3,3]^4 coordinate box",
            "0 mismatches",
            f"{bad} mismatches",
        )
    )
    recs.append(
        _record(
            "qalg.group_ring_shape",
            "rational group ring of the order-8 quaternion group: four linear "
            "characters and one 2-dim character with Frobenius-Schur -1",
            "[(1, 1), (1, 1), (1, 1), (1, 1), (2, -1)]",
            str(qalg.group_ring_wedderburn()),
        )
    )
    embed_ok = True
    for params in (qalg.HAMILTON, qalg.AlgebraParams.make(-1, -3)):
        sample = [
            qalg.QuatElem.make(params, *c)
            for c in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 2, -1, 1), (2, -1, 3, 0))
        ]
        for x in sample:
            for y in sample:
                lhs = qalg.embed_in_m2(x * y)
                rhs = linalg.mat_mul(qalg.embed_in_m2(x), qalg.embed_in_m2(y))
                if not linalg.mat_eq(lhs, rhs):
                    embed_ok = False
            det = linalg.det(qalg.embed_in_m2(x))
            if det != qalg.KNum.make(params.r, x.norm()):
                embed_ok = False
    recs.append(
        _record(
            "qalg.splitting_embed",
            "the 2x2 embedding over Q(sqrt(r)) is multiplicative and its "
            "determinant is the quaternion norm",
            "True",
            str(embed_ok),
        )
    )
    return recs


# ---------------------------------------------------------------------------
# surface homomorphisms


def _homs_claims(budgets: Budgets):
    recs = []
    psi_ok = all(
        surface_homs.verify_psi_in_Ag(g, k) for g in range(2, 6) for k in range(1, g)
    )
    recs.append(
        _record(
            "homs.twist_moves_fix_relator",
            "each twist substitution sends the genus-g surface relator to an "
            "exact conjugate, for g <= 5",
            "True",
            str(psi_ok),
        )
    )
    rep1 = surface_homs.enumerate_surjections(1)
    recs.append(
        _record(
            "homs.genus1_no_surjection",
            "no genus-1 tuple maps onto the quaternion group",
            "0",
            str(rep1.surjective),
        )
    )
    rep2 = surface_homs.enumerate_surjections(2)
    recs.append(
        _record(
            "homs.genus2_census",
            "genus-2 census: total tuples, tuples satisfying the relation, "
            "surjective tuples",
            "(4096, 2176, 1440)",
            str((rep2.total, rep2.valid, rep2.surjective)),
        )
    )
    recs.append(
        _record(
            "homs.genus2_single_orbit",
            "all genus-2 surjective tuples form one orbit under the move set "
            "(supports uniqueness of the quaternionic cover up to moves)",
            "(1440,)",
            str(rep2.orbit_sizes),
            evidence=True,
        )
    )
    norm_ok = True
    for g in (2, 3):
        shapes = []
        central = [(1, 0), (-1, 0)]
        for alphas in iproduct(central, repeat=g - 2):
            for betas in iproduct(central, repeat=g):
                images = tuple(alphas) + ((1, 1), (1, 2)) + tuple(betas)
                shapes.append(surface_homs.HomTuple(g, images))
        for h in shapes:
            out = surface_homs.normalize_hom(h, node_budget=budgets.bfs_node_cap)
            if not out["reached"]:
                norm_ok = False
                continue
            replay = h
            for mv in out["moves"]:
                replay = surface_homs.apply_move(replay, mv)
            if replay.images != surface_homs.standard_hom(g).images:
                norm_ok = False
    recs.append(
        _record(
            "homs.normalization_reaches_standard",
            "every genus-2 and genus-3 tuple in the constructive shape is "
            "driven to the standard surjection by the move program, and "
            "replaying the returned moves lands exactly there",
            "True",
            str(norm_ok),
        )
    )
    num = surface_homs.genus_numerology(3)
    recs.append(
        _record(
            "homs.cover_numerology",
            "genus-3 cover numerology: top cover genus, intermediate cover "
            "genus, abelian quotient dimension, period-domain dimension",
            "(17, 9, 8, 6)",
            str(
                (
                    num["genus_tilde"],
                    num["genus_hat"],
                    num["prym_dim"],
                    num["moduli_dim"],
                )
            ),
        )
    )
    return recs


# ---------------------------------------------------------------------------
# cover homology


def _cover_claims(budgets: Budgets):
    recs = []
    h = surface_homs.standard_hom(2)
    h1 = cover_homology.H1Data(cover_homology.build_cover_graph(h))
    recs.append(
        _record(
            "cover.h1_rank",
            "first homology of the genus-2 quaternionic cover graph has rank 9",
            "9",
            str(h1.rank),
        )
    )
    chk = cover_homology.check_cycle_c_and_basis(h)
    recs.append(
        _record(
            "cover.distinguished_cycle",
            "the distinguished 8-segment cycle is closed, its half-sum translate "
            "is integral, the anti-invariant part has rank 4 with unit "
            "elementary divisors, the four translates form a det +-1 basis, and "
            "the group action on that basis matches left multiplication on the "
            "maximal order",
            str(
                {
                    "boundary_zero": True,
                    "zeta_integral": True,
                    "v_minus_rank": 4,
                    "inclusion_divisors": (1, 1, 1, 1),
                    "translate_basis_det": 1,
                    "structure_match": True,
                }
            ),
            str(
                {
                    "boundary_zero": chk["boundary_zero"],
                    "zeta_integral": chk["zeta_integral"],
                    "v_minus_rank": chk["v_minus_rank"],
                    "inclusion_divisors": tuple(chk["inclusion_divisors"]),
                    "translate_basis_det": abs(chk["translate_basis_det"]),
                    "structure_match": chk["structure_match"],
                }
            ),
        )
    )
    for g, want in ((2, "(M)^2"), (3, "(M ⊕ H_Z)^2")):
        model = cover_homology.prym_lattice_model(g, node_budget=budgets.bfs_node_cap)
        recs.append(
            _record(
                f"cover.lattice_model_g{g}",
                f"genus-{g} anti-invariant lattice with its symplectic group "
                "action: module type, unit divisors, unimodular basis, and "
                "symplectic matrices",
                str((want, (1,) * (4 * (g - 1)), 1, True)),
                str(
                    (
                        model.module_type,
                        tuple(model.inclusion_divisors),
                        abs(model.basis_det),
                        model.symplectic_ok(),
                    )
                ),
            )
        )
    return recs


# ---------------------------------------------------------------------------
# Lie-theoretic invariant counts


def _decomp_str(alg, ms):
    dec = lie_engine.decompose(alg, ms)
    return ", ".join(f"{tuple(map(str, lam))}:{mult}" for lam, mult in dec)


def _lie_claims(budgets: Budgets):
    recs = []
    _, spin = lie_engine.atom("Gamma")
    w2 = lie_engine.wedge_power(lie_engine.B3, spin, 2)
    recs.append(
        _record(
            "lie.spin8_wedge2",
            "degree-2 exterior power of the 8-dim spin representation of the "
            "rank-3 odd orthogonal algebra: 21 + 7",
            "('1', '1', '0'):1, ('1', '0', '0'):1",
            _decomp_str(lie_engine.B3, w2),
        )
    )
    s2 = lie_engine.sym_power(lie_engine.B3, spin, 2)
    recs.append(
        _record(
            "lie.spin8_sym2",
            "degree-2 symmetric power of the spin representation: 35 + 1",
            "('1', '1', '1'):1, ('0', '0', '0'):1",
            _decomp_str(lie_engine.B3, s2),
        )
    )
    w4 = lie_engine.wedge_power(lie_engine.B3, spin, 4)
    recs.append(
        _record(
            "lie.spin8_wedge4",
            "degree-4 exterior power of the spin representation: 35 + 27 + 7 + 1",
            "('2', '0', '0'):1, ('1', '1', '1'):1, ('1', '0', '0'):1, ('0', '0', '0'):1",
            _decomp_str(lie_engine.B3, w4),
        )
    )
    pair2 = lie_engine.tensor(lie_engine.B3, w2, w2)
    w3 = lie_engine.wedge_power(lie_engine.B3, spin, 3)
    recs.append(
        _record(
            "lie.spin8_paired_counts",
            "invariants of wedge2 x wedge2 and of wedge3 x spin",
            "(2, 1)",
            str(
                (
                    lie_engine.invariant_dim(lie_engine.B3, pair2),
                    lie_engine.invariant_dim(
                        lie_engine.B3, lie_engine.tensor(lie_engine.B3, w3, spin)
                    ),
                )
            ),
        )
    )
    for name, expect in (
        ("so7_hodge", "(1, 6, 6, 16)"),
        ("so8_hodge", "(1, 1, 1, 10)"),
        ("weil_4fold", "3"),
        ("selfproduct_weil", "4"),
        ("gl2_summand", "(1, 1, 1, 1)"),
        ("lemma68", "(0,0):1, (4,0):1"),
    ):
        rep = lie_engine.scenario_report(name)
        computed = tuple(row["computed"] for row in rep["rows"])
        if len(computed) == 1:
            comp_str = str(computed[0])
        else:
            comp_str = str(computed)
        recs.append(
            _record(
                f"lie.scenario_{name}",
                f"canned invariant-count scenario '{name}'",
                expect,
                comp_str,
            )
        )
    return recs


# ---------------------------------------------------------------------------
# explicit spin model


def _spin_claims(budgets: Budgets):
    recs = []
    rep = spin_explicit.build_spin_rep()
    zmonos = spin_explicit.weight_zero_monomials(rep)
    recs.append(
        _record(
            "spin.weight_zero_dim",
            "the zero-weight subspace of the degree-4 exterior power of the "
            "spinor space has dimension 8",
            "8",
            str(len(zmonos)),
        )
    )
    inv = spin_explicit.so7_invariant(rep)
    recs.append(
        _record(
            "spin.invariant_line",
            "the invariant subspace in degree 4 is one line, annihilated by "
            "all 21 generators; normalized leading and trailing coefficients "
            "are both 2",
            "(2, 2)",
            str((int(inv[(0, 4, 5, 6)]), int(inv[(1, 2, 3, 7)]))),
        )
    )
    recs.append(
        _record(
            "spin.even_part_projection",
            "the coefficient on the unique monomial from the even Clifford "
            "half is nonzero (value 2), so the invariant meets that summand",
            "2",
            str(int(spin_explicit.project_even(inv))),
        )
    )
    cmp = spin_explicit.reference_comparison(rep)
    ref_ok = cmp["matches"] == 7 and cmp["mismatch_positions"] == [6]
    term6 = cmp["terms"][5]
    recs.append(
        ClaimRecord(
            claim_id="spin.reference_formula",
            statement=(
                "term-by-term match against the transcribed reference "
                "expression; the sixth reference monomial has nonzero weight "
                "(a typo), the computed invariant carries that coefficient on "
                "the corrected monomial"
            ),
            expected="7 of 8 terms match; position 6 corrected to (1, 3, 4, 6)",
            computed=(
                f"{cmp['matches']} of 8 terms match; "
                f"position 6 nearest computed monomial {term6.get('nearest_computed')}"
            ),
            status=FLAGGED if ref_ok and term6.get("nearest_computed") == (1, 3, 4, 6) else FAIL,
        )
    )
    checks = spin_explicit.cross_check_weights(rep)
    recs.append(
        _record(
            "spin.matches_weight_engine",
            "matrix-model weights agree with the abstract weight engine for "
            "the spin representation and its degree-4 exterior power; degree-2 "
            "exterior and symmetric invariant counts are 0 and 1",
            str(
                {
                    "spin_weights_match": True,
                    "wedge4_weights_match": True,
                    "wedge4_zero_dim": 8,
                    "wedge2_invariants": 0,
                    "sym2_invariants": 1,
                }
            ),
            str(checks),
        )
    )
    return recs


# ---------------------------------------------------------------------------
# Weil classes


def _weil_claims(budgets: Budgets):
    recs = []
    for n in (1, 2):
        for r, s in ((-1, -1), (-1, -3)):
            rep = weil_classes.weil_report(
                n, qalg.AlgebraParams.make(r, s), ladder_max=budgets.ladder_max
            )
            recs.append(
                _record(
                    f"weil.dims_n{n}_r{r}_s{s}",
                    f"on the 4n-dim model with parameters ({r},{s}): the "
                    "quadratic-field kernel intersection has dimension 2 and "
                    "its algebra translates span dimension 2n+1",
                    str((2, 2 * n + 1)),
                    str((rep["dim_WK"], rep["dim_WF"])),
                )
            )
    return recs


# ---------------------------------------------------------------------------
# curve model


def _curve_claims(budgets: Budgets):
    recs = []
    autos = curve_model.verify_curve_autos()
    recs.append(
        _record(
            "curve.automorphism_group",
            "the two substitutions preserve the curve ideal (factors -1 and "
            "-x^-6), square to the hyperelliptic involution, satisfy the "
            "quaternion relation, and generate a group of order 8",
            str(
                {
                    "ideal_factor_i": ("-1", 0),
                    "ideal_factor_j": ("-1", 6),
                    "i_squared_is_hyp": True,
                    "j_squared_is_hyp": True,
                    "hyp_squared_is_id": True,
                    "ij_vs_hyp_ji": True,
                    "group_order": 8,
                    "ok": True,
                }
            ),
            str(autos),
        )
    )
    quad = curve_model.verify_quadrics()
    recs.append(
        _record(
            "curve.quadrics_vanish",
            "all four quadrics vanish identically on the parametrized curve",
            "True",
            str(quad["ok"]),
        )
    )
    act = curve_model.verify_p4_action()
    recs.append(
        _record(
            "curve.projective_action",
            "the stated 5x5 matrices satisfy the quaternion relations "
            "projectively, stabilize the quadric span, and agree with the "
            "transported section action up to one global unit each",
            str((True, 8, True, {"i": "-1*i", "j": "-1*i"})),
            str(
                (
                    act["ok"],
                    act["projective_group_order"],
                    act["quadric_span_stable"],
                    {
                        "i": act["section_transport"]["i"]["scalar"],
                        "j": act["section_transport"]["j"]["scalar"],
                    },
                )
            ),
        )
    )
    quart = curve_model.verify_invariant_quartics()
    recs.append(
        _record(
            "curve.invariant_quartics",
            "the four quartics are exact eigenvectors of both pullbacks with "
            "scalar 1 and span a 4-dimensional space",
            str({"eigen_scalars": {"i": ["1"] * 4, "j": ["1"] * 4}, "span_rank": 4, "ok": True}),
            str(quart),
        )
    )
    for p in (13, 17):
        loc = curve_model.finite_field_locus(p, prime_cap=budgets.locus_prime_cap)
        recs.append(
            _record(
                f"curve.point_locus_p{p}",
                f"over F_{p}, the common zeros of the four quartics coincide "
                "with the common zeros of the quadrics and with the "
                "parametrized curve points (exhaustive check at one prime)",
                "(True, True, True)",
                str(
                    (
                        loc["loci_equal"],
                        loc["parametrized_contained"],
                        loc["locus_equals_parametrized"],
                    )
                ),
                evidence=True,
            )
        )
    num = curve_model.scroll_numerology(4)
    recs.append(
        _record(
            "curve.scroll_numerology",
            "scroll dimension count at n=4: genus, sections of H and H^2, "
            "symmetric square, quadric gap, scroll dimension and degree",
            "(9, 8, 24, 36, 12, 4, 4)",
            str(
                (
                    num["genus"],
                    num["h0_H"],
                    num["h0_H2"],
                    num["sym2_dim"],
                    num["quadric_gap"],
                    num["scroll_dim"],
                    num["scroll_deg"],
                )
            ),
        )
    )
    return recs


# ---------------------------------------------------------------------------
# registry and emission

MODULE_BUILDERS = (
    ("qalg", _qalg_claims),
    ("homs", _homs_claims),
    ("cover", _cover_claims),
    ("lie", _lie_claims),
    ("spin", _spin_claims),
    ("weil", _weil_claims),
    ("curve", _curve_claims),
)

_ALIASES = {
    "qalg": "qalg",
    "surface_homs": "homs",
    "homs": "homs",
    "cover_homology": "cover",
    "cover": "cover",
    "lie_engine": "lie",
    "lie": "lie",
    "spin_explicit": "spin",
    "spin": "spin",
    "weil_classes": "weil",
    "weil": "weil",
    "curve_model": "curve",
    "curve": "curve",
}


def module_names():
    return tuple(name for name, _ in MODULE_BUILDERS)


def run_suite(module: str = None, budgets: Budgets = None):
    """Run all registered checks (or one module's) and return the
    records sorted by claim id."""
    if budgets is None:
        budgets = Budgets()
    if module is not None:
        key = _ALIASES.get(module)
        if key is None:
            raise ValueError(f"unknown module {module!r}; know {sorted(set(_ALIASES))}")
        builders = [b for name, b in MODULE_BUILDERS if name == key]
    else:
        builders = [b for _, b in MODULE_BUILDERS]
    records = []
    for builder in builders:
        records.extend(builder(budgets))
    records.sort(key=lambda r: r.claim_id)
    ids = [r.claim_id for r in records]
    assert len(ids) == len(set(ids)), "claim ids must be unique"
    return records


def has_failures(records) -> bool:
    return any(r.status == FAIL for r in records)


def emit(records, fmt: str) -> str:
    if fmt == "json":
        payload = {"claims": [asdict(r) for r in records]}
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "markdown":
        lines = [
            "| claim_id | statement | expected | computed | status |",
            "| --- | --- | --- | --- | --- |",
        ]
        for r in records:
            cells = (r.claim_id, r.statement, r.expected, r.computed, r.status)
            lines.append("| " + " | ".join(c.replace("|", "\\|") for c in cells) + " |")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")
