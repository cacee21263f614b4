"""Cover graph, first homology, deck action, and the lattice model.

The deck-action matrices are rechecked against the group law pair by
pair, and the distinguished-cycle data against hand-frozen values.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from quatprym import cover_homology as ch
from quatprym import linalg, report
from quatprym import surface_homs as sh
from quatprym.qalg import QUAT_GROUP, qinv, qmul


def h1(g=2, h=None):
    graph = ch.build_cover_graph(h or sh.standard_hom(g))
    return ch.H1Data(graph)


# ------------------------------------------------------------------ graph


def test_graph_shape_g2():
    graph = ch.build_cover_graph(sh.standard_hom(2))
    assert graph.n_edges == 16 and {v for u, w, _ in graph.edges for v in (u, w)} == set(range(8))
    ch.H1Data(graph)  # connected: the spanning tree reaches all 8 vertices
    elems = QUAT_GROUP
    # edge (m-1)*8+u runs from vertex u to vertex u * image(m)
    for idx, (src, dst, m) in enumerate(graph.edges):
        assert m == idx // 8 + 1
        assert src == idx % 8
        assert elems[dst] == qmul(elems[src], graph.alpha_images[m - 1])


def test_disconnected_cover_is_rejected():
    bad = sh.HomTuple(2, ((1, 1), (1, 1), (1, 0), (1, 0)))
    graph = ch.build_cover_graph(bad)
    with pytest.raises(ValueError, match="cover graph is disconnected"):
        ch.H1Data(graph)


# ------------------------------------------------------------------- H1


@pytest.mark.parametrize("g,rank", [(2, 9), (3, 17)])
def test_h1_rank_matches_euler_count(g, rank):
    data = h1(g)
    assert data.rank == rank == len(data.cycles)
    # independent count: edges minus vertices plus one
    assert 8 * g - 8 + 1 == rank


def test_fundamental_cycles_have_zero_boundary():
    data = h1(2)
    for cyc in data.cycles:
        assert all(x == 0 for x in data.boundary(cyc))


def test_boundary_detects_non_cycles():
    data = h1(2)
    chain = [0] * data.graph.n_edges
    chain[0] = 1
    assert any(x != 0 for x in data.boundary(chain))
    with pytest.raises(ValueError):
        data.coords_of_cycle(chain)


def test_coords_of_cycle_inverts_the_basis():
    data = h1(2)
    combo = [0] * data.graph.n_edges
    weights = [3, -2, 0, 1, 0, 0, 5, -1, 2]
    for w, cyc in zip(weights, data.cycles):
        for i, x in enumerate(cyc):
            combo[i] += w * x
    assert data.coords_of_cycle(combo) == weights


# ------------------------------------------------------------ deck action


def test_deck_action_is_a_left_group_action():
    data = h1(2)
    elems = QUAT_GROUP
    rho = {q: linalg.frac_mat(data.rho(q)) for q in elems}
    assert rho[(1, 0)] == linalg.identity(data.rank)
    for a in elems:
        for b in elems:
            assert linalg.mat_mul(rho[a], rho[b]) == rho[qmul(a, b)]


def rho_by_edge_vectors(data, q):
    """The deck action by moving each fundamental cycle's edge vector,
    (u, m) -> (q u, m), and reading it back with coords_of_cycle: the
    oracle for H1Data.rho."""
    graph = data.graph
    cols = []
    for cyc in data.cycles:
        moved = [0] * graph.n_edges
        for idx, coef in enumerate(cyc):
            u, _, m = graph.edges[idx]
            moved[graph.edge_index(QUAT_GROUP.index(qmul(q, QUAT_GROUP[u])), m)] += coef
        cols.append(data.coords_of_cycle(moved))
    return [list(row) for row in zip(*cols)]


@pytest.mark.parametrize(
    "h", [sh.standard_hom(2), sh.standard_hom(3), sh.parse_hom(2, "j,i,1,-1")],
    ids=["standard-g2", "standard-g3", "j,i,1,-1"],
)
def test_deck_action_matches_the_edge_vector_path(h):
    data = h1(h=h)
    for q in QUAT_GROUP:
        assert data.rho(q) == rho_by_edge_vectors(data, q)


def test_deck_action_permutes_vertices_without_fixed_points():
    for q in QUAT_GROUP:
        if q == (1, 0):
            continue
        for v in QUAT_GROUP:
            assert qmul(q, v) != v


# ------------------------------------------------------------- minus part


def test_minus_part_is_saturated_rank4():
    data = h1(2)
    lat = ch.minus_part(data)
    assert lat.rank == 4
    assert lat.inclusion_divisors() == [1, 1, 1, 1]


def test_minus_part_negated_by_central_element():
    data = h1(2)
    lat = ch.minus_part(data)
    neg = linalg.frac_mat(data.rho((-1, 0)))
    for row in lat.basis:
        image = linalg.mat_vec(neg, [Fraction(x) for x in row])
        assert image == [Fraction(-x) for x in row]


def solve_coords(lat, vec):
    """Coordinates by one rational solve per vector: the oracle for the
    cached elimination behind IntLattice.coords."""
    cols = [list(row) for row in zip(*lat.basis)] if lat.basis else []
    sol = linalg.solve(linalg.frac_mat(cols), [Fraction(x) for x in vec])
    if sol is None or any(x.denominator != 1 for x in sol):
        return None
    return [x.numerator for x in sol]


def combination(basis, coeffs):
    return [sum(c * b[t] for c, b in zip(coeffs, basis)) for t in range(len(basis[0]))]


def coords_cases(lat, rng):
    """(vector, whether the oracle must find integer coordinates) pairs:
    integer and half-integer combinations of the basis, and random
    integer vectors, which lie outside the span of a proper sublattice."""
    r = lat.rank
    for _ in range(40):
        yield combination(lat.basis, [rng.randint(-5, 5) for _ in range(r)]), True
    for _ in range(20):
        coeffs = [Fraction(rng.randint(-5, 5), 2) for _ in range(r)]
        coeffs[rng.randrange(r)] = Fraction(2 * rng.randint(-3, 3) + 1, 2)
        yield combination(lat.basis, coeffs), False
    for _ in range(20):
        yield [rng.randint(-5, 5) for _ in range(lat.ambient)], False
    yield [0] * lat.ambient, True


@pytest.mark.parametrize("g", [2, 3])
def test_lattice_coords_match_the_solve_oracle(g):
    rng = random.Random(20 + g)
    vm = ch.minus_part(h1(g))
    assert vm.rank < vm.ambient
    b0, *rest = vm.basis
    lattices = [
        vm,
        ch.IntLattice(vm.ambient, [[2 * x for x in b0]] + rest),  # index 2: half-integral coords
        ch.IntLattice(vm.ambient, vm.basis + [combination(vm.basis, [1] * vm.rank)]),  # dependent
    ]
    for lat in lattices:
        for vec, integral in coords_cases(lat, rng):
            want = solve_coords(lat, vec)
            got = lat.coords(vec)
            assert got == want
            assert got is None or all(type(x) is int for x in got)
            if integral:
                assert want is not None
            elif lat is vm:
                assert want is None
    # integer vectors with an odd multiple of b0 have a coordinate in
    # 1/2 + Z over the index-2 lattice
    for _ in range(20):
        coeffs = [2 * rng.randint(-3, 3) + 1] + [rng.randint(-5, 5) for _ in rest]
        vec = combination(vm.basis, coeffs)
        assert lattices[1].coords(vec) is None is solve_coords(lattices[1], vec)
        got = vm.coords(vec)
        assert got == coeffs and all(type(x) is int for x in got)


def test_lattice_coords_of_an_empty_basis_are_none():
    lat = ch.IntLattice(5, [])
    for vec in ([0] * 5, [1, 0, 0, 0, 0]):
        assert lat.coords(vec) is None is solve_coords(lat, vec)


# ------------------------------------------- distinguished cycle and basis


def test_distinguished_cycle_report_frozen():
    rep = ch.check_cycle_c_and_basis()
    assert rep == {
        "boundary_zero": True,
        "zeta_integral": True,
        "v_minus_rank": 4,
        "inclusion_divisors": [1, 1, 1, 1],
        "translate_basis_det": 1,
        "structure_match": True,
    }


def test_translates_that_are_no_basis_fail_structure_match(monkeypatch):
    """At determinant 2 the four translates are not a basis, so they cannot
    carry the Hurwitz table: structure_match reads False and the registry
    records the claim as a FAIL."""
    models = {g: ch.prym_lattice_model(g) for g in (2, 3)}
    real = ch._translate_basis

    def det_two(h1, vm, extra=()):
        vecs, zeta_integral, coords, _ = real(h1, vm, extra)
        return vecs, zeta_integral, coords, 2

    monkeypatch.setattr(ch, "_translate_basis", det_two)
    # the lattice models raise on their own determinant; keep them out of this
    monkeypatch.setattr(ch, "prym_lattice_model", lambda g: models[g])
    rep = ch.check_cycle_c_and_basis()
    assert (rep["translate_basis_det"], rep["structure_match"]) == (2, False)
    records = {r.claim_id: r for r in report.run_suite("cover")}
    cycle = records.pop("cover.distinguished_cycle")
    assert cycle.status == report.FAIL
    assert "'structure_match': False" in cycle.computed
    assert all(r.status == report.PASS for r in records.values())


def test_a_chain_with_a_boundary_raises_before_boundary_zero(monkeypatch):
    """boundary_zero cannot read False: the coordinates of a chain with a
    boundary raise first, and the registry records that raise."""
    monkeypatch.setattr(ch, "chain_c_edge_vector", lambda graph: [1] + [0] * (graph.n_edges - 1))
    with pytest.raises(ValueError, match="chain is not a cycle"):
        ch.check_cycle_c_and_basis()
    cycle = next(r for r in report.run_suite("cover") if r.claim_id == "cover.distinguished_cycle")
    assert (cycle.computed, cycle.status) == ("raised ValueError: chain is not a cycle", report.FAIL)


def test_chain_c_vector_matches_vertex_pairs():
    graph = ch.build_cover_graph(sh.standard_hom(2))
    vec = ch.chain_c_edge_vector(graph)
    elems = QUAT_GROUP
    support = set()
    for idx, x in enumerate(vec):
        if x == 0:
            continue
        src, dst, _ = graph.edges[idx]
        if x > 0:
            support.add((elems[src], elems[dst]))
        else:
            support.add((elems[dst], elems[src]))
    assert support == set(ch.C_CHAIN_VERTEX_PAIRS)


# ------------------------------------------------------------ lattice model


def deck_action(model, q):
    """rho(q) = diag(A(q), transpose(A(q^-1))), the deck action on Z^rank
    whose symplecticity symplectic_ok stands for."""
    return linalg.block_diag([model.a_blocks[q], linalg.transpose(model.a_blocks[qinv(q)])])


@pytest.mark.parametrize(
    "g,module_type,rank",
    [(2, "(M)^2", 8), (3, "(M ⊕ H_Z)^2", 16)],
)
def test_prym_lattice_model_structure(g, module_type, rank):
    model = ch.prym_lattice_model(g)
    assert model.module_type == module_type
    assert model.rank == rank
    assert model.symplectic_ok()
    assert model.inclusion_divisors == [1] * (rank // 2)
    assert abs(model.basis_det) == 1
    # diag(A(q), transpose(A(q^-1))) really is diag(A, tA^{-1}) on every group element
    r = rank // 2
    for q, block in model.a_blocks.items():
        m = deck_action(model, q)
        a = linalg.frac_mat(block)
        inv_t = linalg.transpose(linalg.inverse(a))
        for i in range(r):
            for j in range(r):
                assert Fraction(m[i][j + r]) == 0
                assert Fraction(m[i + r][j]) == 0
                assert Fraction(m[i][j]) == a[i][j]
                assert Fraction(m[i + r][j + r]) == inv_t[i][j]


def symplectic_by_j_form(model):
    """rho(q)^T J rho(q) = J for every q, with the standard J: the oracle
    for symplectic_ok."""
    r = model.rank // 2
    j_form = [[int(c == t + r) - int(t == c + r) for c in range(2 * r)] for t in range(2 * r)]
    for q in model.a_blocks:
        m = deck_action(model, q)
        if linalg.mat_mul(linalg.transpose(m), linalg.mat_mul(j_form, m)) != j_form:
            return False
    return True


@pytest.mark.parametrize("g", [2, 3])
@pytest.mark.parametrize("broken", [None, "doubled", "swapped"])
def test_symplectic_ok_matches_the_j_form(g, broken):
    model = ch.prym_lattice_model(g)
    blocks = dict(model.a_blocks)
    if broken == "doubled":
        blocks[(-1, 0)] = [[2 * x for x in row] for row in blocks[(-1, 0)]]
    elif broken == "swapped":
        blocks[(1, 1)], blocks[(1, 2)] = blocks[(1, 2)], blocks[(1, 1)]
    model = ch.PrymLatticeModel(
        g=model.g, rank=model.rank, module_type=model.module_type, a_blocks=blocks,
        inclusion_divisors=model.inclusion_divisors, basis_det=model.basis_det,
        normalization_moves=model.normalization_moves,
    )
    assert model.symplectic_ok() == symplectic_by_j_form(model) == (broken is None)


def test_deck_blocks_form_a_representation():
    model = ch.prym_lattice_model(2)
    blocks = {q: linalg.frac_mat(m) for q, m in model.a_blocks.items()}
    for a in QUAT_GROUP:
        for b in QUAT_GROUP:
            assert linalg.mat_mul(blocks[a], blocks[b]) == blocks[qmul(a, b)]


def find_dual_intertwiner(a_i, a_j):
    """Integer T of determinant +-1 with T * transpose(A)^{-1} = A * T
    for A in {a_i, a_j}; exists because the dual of the Hurwitz order is
    a principal (two-sided) ideal, hence isomorphic as a left module."""
    n = len(a_i)
    rows = []
    for a in (a_i, a_j):
        fa = linalg.frac_mat(a)
        b = linalg.transpose(linalg.inverse(fa))
        # equation T b - a T = 0, unknowns T[p][q] flattened row-major;
        # both blocks are unimodular, so the system is integral
        for p in range(n):
            for q in range(n):
                row = [0] * (n * n)
                for t in range(n):
                    if b[t][q].denominator != 1 or fa[p][t].denominator != 1:
                        raise ValueError("block or its inverse transpose is not integral")
                    row[p * n + t] += int(b[t][q])
                    row[t * n + q] -= int(fa[p][t])
                rows.append(row)
    # the saturated integer solution lattice; a rational basis with
    # cleared denominators can sit at finite index and miss every
    # unimodular point, so saturation matters here
    ints = linalg.integer_kernel(rows)
    if not ints:
        raise ValueError("no intertwiner between the block and its dual")
    for bound in (1, 2, 3):
        for coeffs in product(range(-bound, bound + 1), repeat=len(ints)):
            if max((abs(c) for c in coeffs), default=0) != bound:
                continue
            flat = [sum(c * v[t] for c, v in zip(coeffs, ints)) for t in range(n * n)]
            t_mat = [flat[p * n : (p + 1) * n] for p in range(n)]
            if abs(linalg.int_det(t_mat)) == 1:
                return t_mat
    raise ValueError("no unimodular intertwiner found in the search range")


def test_dual_intertwiner_identity_g2():
    model = ch.prym_lattice_model(2)
    blocks = {q: [row[:4] for row in model.a_blocks[q][:4]] for q in ((1, 1), (1, 2))}
    t = linalg.frac_mat(find_dual_intertwiner(blocks[(1, 1)], blocks[(1, 2)]))
    assert abs(linalg.det(t)) == 1
    for q in ((1, 1), (1, 2)):
        a = linalg.frac_mat(model.a_blocks[q])
        lhs = linalg.mat_mul(t, linalg.transpose(linalg.inverse(a)))
        rhs = linalg.mat_mul(a, t)
        assert lhs == rhs


@pytest.mark.parametrize(
    "a_i,a_j,message",
    [
        ([[2]], [[1]], "block or its inverse transpose is not integral"),
        # A has characteristic polynomial x^2 - x - 1 and transpose(A)^{-1}
        # has x^2 + x - 1: no common eigenvalue, so only T = 0 intertwines
        ([[1, 1], [1, 0]], [[1, 1], [1, 0]], "no intertwiner between the block and its dual"),
    ],
)
def test_dual_intertwiner_search_rejects(a_i, a_j, message):
    with pytest.raises(ValueError, match=message):
        find_dual_intertwiner(a_i, a_j)


def test_lattice_model_normalizes_nonstandard_input():
    h = sh.parse_hom(2, "j,i,1,-1")
    model = ch.prym_lattice_model(2, h)
    assert model.module_type == "(M)^2"
    assert model.normalization_moves > 0
    assert model.symplectic_ok()


def test_a_tuple_the_search_leaves_unnormalized_raises(monkeypatch):
    """A search that stops short of the standard tuple raises; the model
    of the standard cover is not returned for it."""
    monkeypatch.setattr(ch, "normalize_hom", lambda h: {"reached": False, "moves": []})
    with pytest.raises(ValueError, match="could not normalize the tuple within budget"):
        ch.prym_lattice_model(2, sh.parse_hom(2, "j,i,1,-1"))


@pytest.mark.parametrize(
    "target,replacement,message",
    [
        ("IntLattice.coords", lambda self, vec: None, "explicit basis left the minus part"),
        ("linalg.int_det", lambda m: 2, "do not form a basis of the minus part"),
        ("OrderLattice.left_mult", lambda self, q: [[int(i == j) for j in range(4)] for i in range(4)],
         "module structure constants do not match"),
    ],
)
def test_lattice_model_consistency_checks_raise(monkeypatch, target, replacement, message):
    """Each internal consistency check of the lattice model raises, and
    does not vanish as an assert would under python -O."""
    owner = ch
    *path, name = target.split(".")
    for attr in path:
        owner = getattr(owner, attr)
    monkeypatch.setattr(owner, name, replacement)
    with pytest.raises(ValueError, match=message):
        ch.prym_lattice_model(2)


def test_a_doubled_block_fails_the_symplectic_check(monkeypatch):
    """symplectic_ok multiplies A(q^-1) by A(q) without an inverse, so a
    block that is not invertible over Z surfaces in it, and
    the registry records the model as a FAIL."""
    real = ch._actions_in_basis

    def doubled(h1, vecs, qs):
        out = real(h1, vecs, qs)
        if (-1, 0) in out:
            out[(-1, 0)] = [[2 * x for x in row] for row in out[(-1, 0)]]
        return out

    monkeypatch.setattr(ch, "_actions_in_basis", doubled)
    assert not ch.prym_lattice_model(2).symplectic_ok()
    status = {r.claim_id: r.status for r in report.run_suite("cover")}
    assert status["cover.lattice_model_g2"] == "FAIL"
    assert status["cover.distinguished_cycle"] == "PASS"


def test_lattice_model_rejects_unsupported_genus():
    with pytest.raises(ValueError):
        ch.prym_lattice_model(4)
