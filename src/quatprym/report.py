"""Claim registry and verification report.

Every computational claim the package checks is one row of ``CLAIMS``:
its id, its statement, the expected value (a tuple, dict, int or string),
its computation and the status it earns when the computation matches.
A row's ``compute(run)`` returns the computed value.  ``run`` is the memo
of one run of the row's module: it holds the ``budgets``, and
``run(f, *args)`` returns f(*args) computed once in that run.  Work that
several rows share (the genus-2 census, the explicit spin representation
and its invariant, the spin weights and their square) therefore runs
once per ``run_suite`` call, and no result outlives the call.
``run_suite`` compares each computed value with its row and renders both
as text once, into a ClaimRecord.  Statuses:

  PASS      exact computation agrees with the expected value
  FAIL      it does not, or the computation raised
  EVIDENCE  the check is a finite search or sampling argument (finite
            field loci, orbit census), supporting but not proving
  FLAGGED   the computation disagrees with a transcribed reference
            value in a way attributed to a typo in the source text;
            recorded, not fatal

A row matches when the computed value equals the expected one and both
render to the same text.  A FLAGGED row names instead the computed value
that marks the typo.  A row whose computation raises gets a FAIL record
naming the exception; the other rows still run.  ``MODULE_BUILDERS``
pairs each module with the callable that computes its rows from the
budgets; a callable that raises fails each of its module's claims.

Exit-code contract: a suite is green iff it contains no FAIL.
"""

from __future__ import annotations

import json
from itertools import product as iproduct
from operator import attrgetter, itemgetter

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


class ClaimRecord:
    __slots__ = ("claim_id", "statement", "expected", "computed", "status")  # the JSON key order

    def __init__(self, claim_id: str, statement: str, expected: str, computed: str, status: str):
        self.claim_id = claim_id
        self.statement = statement
        self.expected = expected
        self.computed = computed
        self.status = status


class Claim:
    """One registry row.  ``compute(run)`` returns the computed value;
    ``status`` is earned when it matches ``typo`` if given (FLAGGED
    rows), else ``expected``."""

    __slots__ = ("claim_id", "statement", "expected", "compute", "status", "typo")

    def __init__(self, claim_id: str, statement: str, expected: object, compute,
                 status: str = PASS, typo: object = None):
        self.claim_id = claim_id
        self.statement = statement
        self.expected = expected
        self.compute = compute
        self.status = status
        self.typo = typo


class _Run:
    """The memo of one module's run: ``run(f, *args)`` is f(*args),
    computed once; ``budgets`` are the run's search caps."""

    __slots__ = ("budgets", "_values")

    def __init__(self, budgets: Budgets):
        self.budgets = budgets
        self._values = {}

    def __call__(self, f, *args):
        key = (f, *args)
        if key not in self._values:
            self._values[key] = f(*args)
        return self._values[key]


def _doubled_ladder(rep, label, want):
    return [(f"invariants in degree {k} of the doubled {label}", f"wedge({k}, {rep} (+) {rep})", n)
            for k, n in zip((2, 4, 6, 8), want)]


# The canned Lie scenarios: name -> (readout, rows of (claim, lie_engine
# expression, expected value, further readout arguments)).  The readout is
# named, and looked up in lie_engine when a row runs, so a tracer that
# rebinds lie_engine.invariant_dim sees every call.
SCENARIOS = {
    "so7_hodge": ("invariant_dim", _doubled_ladder("Gamma", "spin rep", (1, 6, 6, 16))),
    "so8_hodge": ("invariant_dim", _doubled_ladder("Gamma+", "half-spin rep", (1, 1, 1, 10))),
    "weil_4fold": ("invariant_dim", [
        ("invariants in degree 4 of standard plus dual", "wedge(4, W (+) W*)", 3)]),
    "selfproduct_weil": ("invariant_dim", [
        ("invariants in degree 2 of the doubled standard-plus-dual",
         "wedge(2, W (+) W* (+) W (+) W*)", 4)]),
    "gl2_summand": ("multiplicity", [
        (f"multiplicity of the {k + 1}-dim constituent in the middle power of {k} doubled lines",
         f"wedge({k}, {' (+) '.join(['V2'] * k)})", 1, (2 * k, 0)) for k in (2, 4, 6, 8)]),
    "lemma68": ("first_factor_trivial", [
        ("first-factor-trivial constituents of the degree-4 power", "wedge(4, Gamma (x) V2)",
         "(0,0):1, (4,0):1")]),
}


def _claim_value(values):
    """A scenario's registry value: its one row's value, else the tuple of them."""
    return values[0] if len(values) == 1 else tuple(values)


def scenario_report(name) -> dict:
    """One canned scenario, row by row, {claim, expected, computed, ok}:
    each row's expression evaluated by lie_engine.parse_expr, then read
    out with its further arguments."""
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; have {tuple(SCENARIOS)}")
    readout, rows = SCENARIOS[name]
    out = []
    for claim, expr, want, *args in rows:
        got = getattr(lie_engine, readout)(*lie_engine.parse_expr(expr), *args)
        out.append({"claim": claim, "expected": want, "computed": got, "ok": want == got})
    return {"scenario": name, "rows": out, "ok": all(r["ok"] for r in out)}


# ---------------------------------------------------------------------------
# the computations of rows that take more than one expression


def _splitting_embed_ok(run):
    for params in (qalg.HAMILTON, qalg.AlgebraParams.make(-1, -3)):
        sample = [
            qalg.QuatElem.make(params, *c)
            for c in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 2, -1, 1), (2, -1, 3, 0))
        ]
        images = [qalg.embed_in_m2(x) for x in sample]
        for x, image in zip(sample, images):
            for y, y_image in zip(sample, images):
                if qalg.embed_in_m2(x * y) != linalg.mat_mul(image, y_image):
                    return False
            if linalg.det(image) != qalg.KNum.make(params.r, x.norm()):
                return False
    return True


def _normalization_reaches_standard(run):
    norm_ok = True
    central = [(1, 0), (-1, 0)]
    for g in (2, 3):
        for alphas in iproduct(central, repeat=g - 2):
            for betas in iproduct(central, repeat=g):
                h = surface_homs.HomTuple(g, alphas + ((1, 1), (1, 2)) + betas)
                out = surface_homs.normalize_hom(h, node_budget=run.budgets.bfs_node_cap)
                if not out["reached"]:
                    # running out of budget is not a wrong answer and says so,
                    # but a wrong answer from another tuple wins over it
                    if norm_ok is not False:
                        norm_ok = f"BFS cap {run.budgets.bfs_node_cap} hit"
                    continue
                replay = h
                for mv in out["moves"]:
                    replay = surface_homs.apply_move(replay, mv)
                if replay.images != surface_homs.standard_hom(g).images:
                    norm_ok = False
    return norm_ok


def _distinguished_cycle(run):
    chk = cover_homology.check_cycle_c_and_basis(surface_homs.standard_hom(2))
    return {**chk, "inclusion_divisors": tuple(chk["inclusion_divisors"]),
            "translate_basis_det": abs(chk["translate_basis_det"])}


def _lattice_model(g):
    model = cover_homology.prym_lattice_model(g)
    return (model.module_type, tuple(model.inclusion_divisors), abs(model.basis_det),
            model.symplectic_ok())


def _spin8():
    """The 8-dim spin representation of B3 and its exterior square."""
    _, spin = lie_engine.atom("Gamma")
    return spin, lie_engine.wedge_power(lie_engine.B3, spin, 2)


def _decomp_str(ms):
    dec = lie_engine.decompose(lie_engine.B3, ms)
    return ", ".join(f"{lie_engine.weight_text(lam)}:{mult}" for lam, mult in dec)


def _spin8_paired_counts(run):
    spin, w2 = run(_spin8)
    b3 = lie_engine.B3
    w3 = lie_engine.wedge_power(b3, spin, 3)
    return (lie_engine.invariant_dim(b3, lie_engine.tensor(b3, w2, w2)),
            lie_engine.invariant_dim(b3, lie_engine.tensor(b3, w3, spin)))


def _spin_invariant(run):
    return run(spin_explicit.so7_invariant, run(spin_explicit.build_spin_rep))


def _reference_formula(run):
    cmp = spin_explicit.reference_comparison(run(spin_explicit.build_spin_rep), _spin_invariant(run))
    return (f"{cmp['matches']} of 8 terms match; position 6 nearest computed "
            f"monomial {cmp['terms'][5].get('nearest_computed')}")


def _projective_action(run):
    act = curve_model.verify_p4_action()
    transport = act["section_transport"]
    return (act["ok"], act["projective_group_order"], act["quadric_span_stable"],
            {q: transport[q]["scalar"] for q in ("i", "j")})


CLAIMS = (
    Claim(
        "qalg.left_ideal_index",
        "index of (m, im, jm, km) in the maximal order equals 2*N(m)^2 "
        "for all 2400 nonzero m in the [-3,3]^4 coordinate box",
        "0 mismatches",
        lambda run: "{} mismatches".format(qalg.index_mismatches(
            qalg.hurwitz_order(), (c for c in iproduct(range(-3, 4), repeat=4) if any(c)))),
    ),
    Claim(
        "qalg.group_ring_shape",
        "rational group ring of the order-8 quaternion group: four linear "
        "characters and one 2-dim character with Frobenius-Schur -1",
        [(1, 1), (1, 1), (1, 1), (1, 1), (2, -1)],
        lambda run: qalg.group_ring_wedderburn(),
    ),
    Claim(
        "qalg.splitting_embed",
        "the 2x2 embedding over Q(sqrt(r)) is multiplicative and its "
        "determinant is the quaternion norm",
        True,
        _splitting_embed_ok,
    ),
    Claim(
        "homs.twist_moves_fix_relator",
        "each twist substitution sends the genus-g surface relator to an "
        "exact conjugate, for g <= 5",
        True,
        lambda run: all(
            surface_homs.verify_psi_in_Ag(g, k) for g in range(2, 6) for k in range(1, g)
        ),
    ),
    Claim("homs.genus1_no_surjection", "no genus-1 tuple maps onto the quaternion group", 0,
          lambda run: surface_homs.enumerate_surjections(1).surjective),
    Claim(
        "homs.genus2_census",
        "genus-2 census: total tuples, tuples satisfying the relation, "
        "surjective tuples",
        (4096, 2176, 1440),
        lambda run: attrgetter("total", "valid", "surjective")(
            run(surface_homs.enumerate_surjections, 2)),
    ),
    Claim(
        "homs.genus2_single_orbit",
        "all genus-2 surjective tuples form one orbit under the move set "
        "(supports uniqueness of the quaternionic cover up to moves)",
        (1440,),
        lambda run: run(surface_homs.enumerate_surjections, 2).orbit_sizes,
        EVIDENCE,
    ),
    Claim(
        "homs.normalization_reaches_standard",
        "every genus-2 and genus-3 tuple in the constructive shape is "
        "driven to the standard surjection by the move program, and "
        "replaying the returned moves lands exactly there",
        True,
        _normalization_reaches_standard,
    ),
    Claim(
        "homs.cover_numerology",
        "genus-3 cover numerology: top cover genus, intermediate cover "
        "genus, abelian quotient dimension, period-domain dimension",
        (17, 9, 8, 6),
        lambda run: itemgetter("genus_tilde", "genus_hat", "prym_dim", "moduli_dim")(
            surface_homs.genus_numerology(3)),
    ),
    Claim("cover.h1_rank", "first homology of the genus-2 quaternionic cover graph has rank 9", 9,
          lambda run: cover_homology.H1Data(
              cover_homology.build_cover_graph(surface_homs.standard_hom(2))).rank),
    Claim(
        "cover.distinguished_cycle",
        "the distinguished 8-segment cycle is closed, its half-sum translate "
        "is integral, the anti-invariant part has rank 4 with unit "
        "elementary divisors, the four translates form a det +-1 basis, and "
        "the group action on that basis matches left multiplication on the "
        "maximal order",
        {
            "boundary_zero": True,
            "zeta_integral": True,
            "v_minus_rank": 4,
            "inclusion_divisors": (1, 1, 1, 1),
            "translate_basis_det": 1,
            "structure_match": True,
        },
        _distinguished_cycle,
    ),
    *(
        Claim(
            f"cover.lattice_model_g{g}",
            f"genus-{g} anti-invariant lattice with its symplectic group "
            "action: module type, unit divisors, unimodular basis, and "
            "symplectic matrices",
            (want, (1,) * (4 * (g - 1)), 1, True),
            lambda run, g=g: _lattice_model(g),
        )
        for g, want in ((2, "(M)^2"), (3, "(M ⊕ H_Z)^2"))
    ),
    Claim(
        "lie.spin8_wedge2",
        "degree-2 exterior power of the 8-dim spin representation of the "
        "rank-3 odd orthogonal algebra: 21 + 7",
        "('1', '1', '0'):1, ('1', '0', '0'):1",
        lambda run: _decomp_str(run(_spin8)[1]),
    ),
    Claim(
        "lie.spin8_sym2",
        "degree-2 symmetric power of the spin representation: 35 + 1",
        "('1', '1', '1'):1, ('0', '0', '0'):1",
        lambda run: _decomp_str(lie_engine.sym_power(lie_engine.B3, run(_spin8)[0], 2)),
    ),
    Claim(
        "lie.spin8_wedge4",
        "degree-4 exterior power of the spin representation: 35 + 27 + 7 + 1",
        "('2', '0', '0'):1, ('1', '1', '1'):1, ('1', '0', '0'):1, ('0', '0', '0'):1",
        lambda run: _decomp_str(lie_engine.wedge_power(lie_engine.B3, run(_spin8)[0], 4)),
    ),
    Claim("lie.spin8_paired_counts", "invariants of wedge2 x wedge2 and of wedge3 x spin", (2, 1),
          _spin8_paired_counts),
    *(
        Claim(f"lie.scenario_{name}", f"canned invariant-count scenario '{name}'",
              _claim_value([row[2] for row in rows]),
              lambda run, name=name: _claim_value(
                  [r["computed"] for r in scenario_report(name)["rows"]]))
        for name, (_, rows) in SCENARIOS.items()
    ),
    Claim(
        "spin.weight_zero_dim",
        "the zero-weight subspace of the degree-4 exterior power of the "
        "spinor space has dimension 8",
        8,
        lambda run: len(spin_explicit.weight_zero_monomials(run(spin_explicit.build_spin_rep))),
    ),
    Claim(
        "spin.invariant_line",
        "the invariant subspace in degree 4 is one line, annihilated by "
        "all 21 generators; normalized leading and trailing coefficients "
        "are both 2",
        (2, 2),
        lambda run: itemgetter((0, 4, 5, 6), (1, 2, 3, 7))(_spin_invariant(run)),
    ),
    Claim(
        "spin.even_part_projection",
        "the coefficient on the unique monomial from the even Clifford "
        "half is nonzero (value 2), so the invariant meets that summand",
        2,
        lambda run: spin_explicit.project_even(_spin_invariant(run)),
    ),
    Claim(
        "spin.reference_formula",
        "term-by-term match against the transcribed reference "
        "expression; the sixth reference monomial has nonzero weight "
        "(a typo), the computed invariant carries that coefficient on "
        "the corrected monomial",
        "7 of 8 terms match; position 6 corrected to (1, 3, 4, 6)",
        _reference_formula,
        FLAGGED,
        typo="7 of 8 terms match; position 6 nearest computed monomial (1, 3, 4, 6)",
    ),
    Claim(
        "spin.matches_weight_engine",
        "matrix-model weights agree with the abstract weight engine for "
        "the spin representation and its degree-4 exterior power; degree-2 "
        "exterior and symmetric invariant counts are 0 and 1",
        {
            "spin_weights_match": True,
            "wedge4_weights_match": True,
            "wedge4_zero_dim": 8,
            "wedge2_invariants": 0,
            "sym2_invariants": 1,
        },
        lambda run: spin_explicit.cross_check_weights(run(spin_explicit.build_spin_rep)),
    ),
    *(
        Claim(
            f"weil.dims_n{n}_r{r}_s{s}",
            f"on the 4n-dim model with parameters ({r},{s}): the "
            "quadratic-field kernel intersection has dimension 2 and "
            "its algebra translates span dimension 2n+1",
            (2, 2 * n + 1),
            lambda run, n=n, r=r, s=s: itemgetter("dim_WK", "dim_WF")(
                weil_classes.weil_report(n, qalg.AlgebraParams.make(r, s))),
        )
        for n in (1, 2) for r, s in ((-1, -1), (-1, -3))
    ),
    Claim(
        "curve.automorphism_group",
        "the two substitutions preserve the curve ideal (factors -1 and "
        "-x^-6), square to the hyperelliptic involution, satisfy the "
        "quaternion relation, and generate a group of order 8",
        {
            "ideal_factor_i": ("-1", 0),
            "ideal_factor_j": ("-1", 6),
            "i_squared_is_hyp": True,
            "j_squared_is_hyp": True,
            "hyp_squared_is_id": True,
            "ij_vs_hyp_ji": True,
            "group_order": 8,
            "ok": True,
        },
        lambda run: curve_model.verify_curve_autos(),
    ),
    Claim(
        "curve.quadrics_vanish",
        "all four quadrics vanish identically on the parametrized curve",
        True,
        lambda run: curve_model.verify_quadrics()["ok"],
    ),
    Claim(
        "curve.projective_action",
        "the stated 5x5 matrices satisfy the quaternion relations "
        "projectively, stabilize the quadric span, and agree with the "
        "transported section action up to one global unit each",
        (True, 8, True, {"i": "-1*i", "j": "-1*i"}),
        _projective_action,
    ),
    Claim(
        "curve.invariant_quartics",
        "the four quartics are exact eigenvectors of both pullbacks with "
        "scalar 1 and span a 4-dimensional space",
        {"eigen_scalars": {"i": ["1"] * 4, "j": ["1"] * 4}, "span_rank": 4, "ok": True},
        lambda run: curve_model.verify_invariant_quartics(),
    ),
    *(
        Claim(
            f"curve.point_locus_p{p}",
            f"over F_{p}, the common zeros of the four quartics coincide "
            "with the common zeros of the quadrics and with the "
            "parametrized curve points (exhaustive check at one prime)",
            (True, True, True),
            lambda run, p=p: itemgetter(
                "loci_equal", "parametrized_contained", "locus_equals_parametrized"
            )(curve_model.finite_field_locus(p)),
            EVIDENCE,
        )
        for p in (13, 17)
    ),
    Claim(
        "curve.scroll_numerology",
        "scroll dimension count at n=4: genus, sections of H and H^2, "
        "symmetric square, quadric gap, scroll dimension and degree",
        (9, 8, 24, 36, 12, 4, 4),
        lambda run: itemgetter(
            "genus", "h0_H", "h0_H2", "sym2_dim", "quadric_gap", "scroll_dim", "scroll_deg"
        )(curve_model.scroll_numerology(4)),
    ),
)


# ---------------------------------------------------------------------------
# registry and emission


def _module_rows(name):
    return [c for c in CLAIMS if c.claim_id.startswith(name + ".")]


def _module_builder(name):
    """The callable that computes module ``name``'s rows under one run
    memo: {claim id: computed value, or the exception its row raised}."""

    def build(budgets: Budgets) -> dict:
        run = _Run(budgets)
        values = {}
        for c in _module_rows(name):
            try:
                values[c.claim_id] = c.compute(run)
            except Exception as exc:  # the row fails; the other rows run
                values[c.claim_id] = exc
        return values

    return build


MODULE_BUILDERS = tuple(
    (name, _module_builder(name))
    for name in dict.fromkeys(c.claim_id.split(".")[0] for c in CLAIMS)
)


def module_names():
    return tuple(name for name, _ in MODULE_BUILDERS)


def run_suite(module: str = None, budgets: Budgets = None):
    """Run all registered checks (or one module's) and return the
    records sorted by claim id."""
    if budgets is None:
        budgets = Budgets()
    builders = [(name, b) for name, b in MODULE_BUILDERS if module in (None, name)]
    if not builders:
        raise ValueError(f"unknown module {module!r}; know {list(module_names())}")
    ids = [c.claim_id for c in CLAIMS]
    if len(ids) != len(set(ids)):
        raise RuntimeError("claim ids must be unique")
    records = []
    for name, builder in builders:
        rows = _module_rows(name)
        try:
            values = builder(budgets)
        except Exception as exc:  # the module's claims fail; the other modules run
            values = dict.fromkeys((c.claim_id for c in rows), exc)
        for c in rows:
            got = values[c.claim_id]
            want = c.expected if c.typo is None else c.typo
            if isinstance(got, Exception):
                ok, got = False, f"raised {type(got).__name__}: {got}"
            else:
                ok = got == want and str(got) == str(want)
            status = c.status if ok else FAIL
            records.append(ClaimRecord(c.claim_id, c.statement, str(c.expected), str(got), status))
    records.sort(key=lambda r: r.claim_id)
    return records


def has_failures(records) -> bool:
    return any(r.status == FAIL for r in records)


def emit(records, fmt: str) -> str:
    if fmt == "json":
        payload = {"claims": [{k: getattr(r, k) for k in ClaimRecord.__slots__} for r in records]}
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
