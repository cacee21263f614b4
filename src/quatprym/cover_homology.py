"""Integral homology of the 8-fold covering graph and its deck action.

For a surjection f from a genus-g surface group onto the quaternion
group Q, the associated cover retracts onto a graph with vertex set Q
and one edge q -> q * f(alpha_m) per vertex and per handle index m.
The deck group acts by left multiplication.  This module computes
H_1 of that graph with the deck action, cuts out the sublattice on
which -1 acts as -1, and assembles the rank-8(g-1) symplectic lattice
model diag(A(q), transpose(A(q))^{-1}) together with an explicit basis
exhibiting its module structure over the integer quaternions: one
Hurwitz-order block from an 8-term cycle and its translates, and one
free block per extra handle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product as iproduct

from . import linalg
from .config import Budgets
from .linalg import frac_mat, identity, inverse, mat_mul, transpose
from .qalg import (
    HAMILTON,
    qmul,
    qstr,
    basis_elems,
    left_mult_matrix,
    q8_elements,
)
from .surface_homs import HomTuple, classify_hom, standard_hom, normalize_hom

VERTEX_ORDER = q8_elements()  # +1, -1, +i, -i, +j, -j, +k, -k
_VINDEX = {q: t for t, q in enumerate(VERTEX_ORDER)}

# the 8-term cycle in the g=2 graph, as ordered vertex pairs
C_CHAIN_VERTEX_PAIRS = (
    ((1, 0), (1, 1)),
    ((1, 1), (-1, 3)),
    ((-1, 3), (-1, 2)),
    ((-1, 2), (1, 0)),
    ((-1, 1), (-1, 0)),
    ((-1, 0), (1, 2)),
    ((1, 2), (1, 3)),
    ((1, 3), (-1, 1)),
)


@dataclass(frozen=True)
class CoverGraph:
    g: int
    alpha_images: tuple  # g group elements
    edges: tuple  # 8g triples (u_index, v_index, m), edge (m-1)*8+u

    @property
    def n_edges(self):
        return 8 * self.g

    def edge_index(self, u_idx, m):
        return (m - 1) * 8 + u_idx

    def is_connected(self) -> bool:
        adj = {t: set() for t in range(8)}
        for u, v, _ in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        seen = {0}
        stack = [0]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == 8


def build_cover_graph(h: HomTuple) -> CoverGraph:
    if not classify_hom(h)["valid"]:
        raise ValueError("tuple does not satisfy the surface relation")
    alpha = tuple(h.images[: h.g])
    edges = []
    for m in range(1, h.g + 1):
        am = alpha[m - 1]
        for u_idx, q in enumerate(VERTEX_ORDER):
            edges.append((u_idx, _VINDEX[qmul(q, am)], m))
    return CoverGraph(h.g, alpha, tuple(edges))


class H1Data:
    """First homology of a connected cover graph, with the deck action.

    The basis is the set of fundamental cycles of the non-tree edges of
    a breadth-first spanning tree rooted at the identity vertex; the
    tree is deterministic (edges scanned in index order).  Cycles are
    stored as integer vectors over the edge set.
    """

    def __init__(self, graph: CoverGraph):
        if not graph.is_connected():
            raise ValueError("cover graph is disconnected")
        self.graph = graph
        ne = graph.n_edges
        # undirected incidence, in edge-index order
        incident = {t: [] for t in range(8)}
        for idx, (u, v, _) in enumerate(graph.edges):
            incident[u].append((idx, v, 1))
            if v != u:
                incident[v].append((idx, u, -1))
        for t in incident:
            incident[t].sort()
        chain = {0: [0] * ne}
        tree = set()
        order = [0]
        head = 0
        while head < len(order):
            u = order[head]
            head += 1
            for idx, w, sgn in incident[u]:
                if w in chain:
                    continue
                vec = chain[u][:]
                vec[idx] += sgn
                chain[w] = vec
                tree.add(idx)
                order.append(w)
        if len(chain) != 8:
            raise ValueError(f"spanning tree reaches {len(chain)} of 8 vertices")
        self.nontree = [idx for idx in range(ne) if idx not in tree]
        self.rank = len(self.nontree)
        cycles = []
        for idx in self.nontree:
            u, v, _ = graph.edges[idx]
            vec = [a - b for a, b in zip(chain[u], chain[v])]
            vec[idx] += 1
            cycles.append(tuple(vec))
        self.cycles = tuple(cycles)
        self._rho_cache = {}

    def boundary(self, edge_vec):
        out = [0] * 8
        for idx, coef in enumerate(edge_vec):
            if coef:
                u, v, _ = self.graph.edges[idx]
                out[v] += coef
                out[u] -= coef
        return out

    def coords_of_cycle(self, edge_vec):
        """Coordinates in the fundamental-cycle basis; exact."""
        if any(x != 0 for x in self.boundary(edge_vec)):
            raise ValueError("chain is not a cycle")
        coords = [edge_vec[idx] for idx in self.nontree]
        recon = [0] * self.graph.n_edges
        for c, cyc in zip(coords, self.cycles):
            if c:
                for t, x in enumerate(cyc):
                    recon[t] += c * x
        if recon != list(edge_vec):
            raise ValueError("cycle outside the fundamental span")
        return coords

    def edge_perm(self, q):
        """Action of left multiplication by q on edge indices."""
        perm = [0] * self.graph.n_edges
        for idx, (u, _, m) in enumerate(self.graph.edges):
            qu = _VINDEX[qmul(q, VERTEX_ORDER[u])]
            perm[idx] = self.graph.edge_index(qu, m)
        return perm

    def act_on_edge_vec(self, q, edge_vec):
        perm = self.edge_perm(q)
        out = [0] * self.graph.n_edges
        for idx, coef in enumerate(edge_vec):
            if coef:
                out[perm[idx]] += coef
        return out

    def rho(self, q):
        """Deck action of q in the fundamental-cycle basis."""
        if q in self._rho_cache:
            return self._rho_cache[q]
        cols = [self.coords_of_cycle(self.act_on_edge_vec(q, cyc)) for cyc in self.cycles]
        mat = [list(row) for row in zip(*cols)]
        self._rho_cache[q] = mat
        return mat


@dataclass(frozen=True)
class IntLattice:
    """A sublattice of Z^ambient, rows of ``basis`` are the basis vectors.

    ``coords`` reads off one cached elimination per lattice: the rref
    [R | E] of [B | I], with B the basis vectors as columns, so E B = R."""

    ambient: int
    basis: list

    @property
    def rank(self):
        return len(self.basis)

    def inclusion_divisors(self):
        return linalg.elementary_divisors(self.basis)

    @cached_property
    def _elimination(self):
        """(pivot columns of R, E), or None for an empty basis."""
        cols = transpose(self.basis)
        if not cols:
            return None
        r, pivots = linalg.rref([row + eye for row, eye in zip(cols, identity(len(cols)))])
        return [c for c in pivots if c < self.rank], [row[self.rank :] for row in r]

    def coords(self, vec):
        """Integer coordinates of vec in the basis, or None: B x = vec iff
        E vec is 0 past the pivot rows, and x is E vec at the pivots."""
        if self._elimination is None:
            return None
        pivots, e = self._elimination
        ev = linalg.mat_vec(e, vec)
        if any(ev[len(pivots) :]) or any(v.denominator != 1 for v in ev[: len(pivots)]):
            return None
        x = [0] * self.rank
        for c, v in zip(pivots, ev):
            x[c] = v.numerator
        return x


def minus_part(h1: H1Data) -> IntLattice:
    """The saturated sublattice of H_1 on which -1 acts as -1."""
    r = h1.rank
    m = h1.rho((-1, 0))
    a = [[m[i][j] + (1 if i == j else 0) for j in range(r)] for i in range(r)]
    basis = linalg.integer_kernel(a)
    lat = IntLattice(r, basis)
    for b in basis:
        if linalg.mat_vec(m, b) != [-x for x in b]:
            raise ValueError("minus-part basis vector is not negated by -1")
    return lat


def chain_c_edge_vector(graph: CoverGraph):
    """The 8-term cycle as an edge vector; every term must be an edge of
    the graph up to orientation."""
    vec = [0] * graph.n_edges
    edge_lookup = {}
    for idx, (u, v, _) in enumerate(graph.edges):
        edge_lookup.setdefault((u, v), []).append(idx)
    for src, dst in C_CHAIN_VERTEX_PAIRS:
        u, v = _VINDEX[src], _VINDEX[dst]
        if (u, v) in edge_lookup:
            vec[edge_lookup[(u, v)][0]] += 1
        elif (v, u) in edge_lookup:
            vec[edge_lookup[(v, u)][0]] -= 1
        else:
            raise ValueError(f"segment {qstr(src)} -> {qstr(dst)} is not an edge")
    return vec


def _hurwitz_left_mult(q):
    """Left multiplication by the group element q on the Hurwitz order,
    in the basis (1, i, j, zeta)."""
    one, i, j, k = basis_elems(HAMILTON)
    zeta = (one + i + j + k).scale(Fraction(1, 2))
    basis = (one, i, j, zeta)
    s, a = q
    x = (one, i, j, k)[a].scale(s)
    m = left_mult_matrix(x, basis)
    if any(v.denominator != 1 for row in m for v in row):
        raise ValueError(f"left multiplication by {qstr(q)} is not integral on the Hurwitz order")
    return [[v.numerator for v in row] for row in m]


def _hz_left_mult(q):
    """Left multiplication by q on the integer quaternions, basis (1, i, j, k)."""
    cols = []
    for a in range(4):
        s2, a2 = qmul(q, (1, a))
        col = [0, 0, 0, 0]
        col[a2] = s2
        cols.append(col)
    return [list(row) for row in zip(*cols)]


def _c_translates(h1: H1Data, c):
    """The vectors c, ic, jc and zeta c = (c + ic + jc + kc) / 2 for a
    cycle c in the fundamental-cycle basis, and whether that half-sum is
    integral."""
    ic, jc, kc = (linalg.mat_vec(h1.rho(q), c) for q in ((1, 1), (1, 2), (1, 3)))
    total = [sum(xs) for xs in zip(c, ic, jc, kc)]
    return [c, ic, jc, [x // 2 for x in total]], all(x % 2 == 0 for x in total)


def _actions_in_basis(h1: H1Data, vm: IntLattice, vecs, coords, qs):
    """q -> matrix of the deck action of q in the basis ``vecs`` of the
    minus part, whose coordinates in vm are ``coords``."""
    cb_inv = inverse(transpose(frac_mat(coords)))
    out = {}
    for q in qs:
        act = [vm.coords(linalg.mat_vec(h1.rho(q), b)) for b in vecs]
        out[q] = mat_mul(cb_inv, transpose(frac_mat(act)))
    return out


def check_cycle_c_and_basis(h: HomTuple = None) -> dict:
    """Verify the 8-term cycle data in the genus-2 cover graph: boundary
    zero, integrality of the half-sum translate, and that the four
    translates form a basis of the minus part carrying the Hurwitz-order
    multiplication table."""
    if h is None:
        h = standard_hom(2)
    if h.g != 2:
        raise ValueError("cycle check is a genus-2 computation")
    graph = build_cover_graph(h)
    h1 = H1Data(graph)
    vm = minus_part(h1)
    vec = chain_c_edge_vector(graph)
    boundary_zero = all(x == 0 for x in h1.boundary(vec))
    basis_vecs, zeta_integral = _c_translates(h1, h1.coords_of_cycle(vec))
    coords = [vm.coords(b) for b in basis_vecs]
    in_minus = all(co is not None for co in coords)
    d = linalg.int_det(coords) if in_minus else 0
    structure_match = True
    if in_minus and abs(d) == 1:
        # matrices of rho(q) in the (c, ic, jc, zeta c) basis
        actions = _actions_in_basis(h1, vm, basis_vecs, coords, ((1, 1), (1, 2)))
        structure_match = all(
            linalg.mat_eq(x, frac_mat(_hurwitz_left_mult(q))) for q, x in actions.items()
        )
    return {
        "boundary_zero": boundary_zero,
        "zeta_integral": zeta_integral,
        "v_minus_rank": vm.rank,
        "inclusion_divisors": vm.inclusion_divisors(),
        "translate_basis_det": d,
        "structure_match": structure_match,
    }


@dataclass
class PrymLatticeModel:
    g: int
    rank: int
    module_type: str
    a_blocks: dict  # q -> integer matrix, in the explicit module basis
    rho: dict  # q -> full 2r x 2r integer matrix diag(A, tA^{-1})
    j_form: list
    inclusion_divisors: list
    basis_det: int
    dual_intertwiner: list  # T with T * tA(q)^{-1} = A(q) * T on the Hurwitz block
    normalization_moves: int

    def symplectic_ok(self) -> bool:
        jf = frac_mat(self.j_form)
        for q, m in self.rho.items():
            fm = frac_mat(m)
            if not linalg.mat_eq(mat_mul(transpose(fm), mat_mul(jf, fm)), jf):
                return False
        return True


def _find_dual_intertwiner(a_i, a_j):
    """Integer T of determinant +-1 with T * transpose(A)^{-1} = A * T
    for A in {a_i, a_j}; exists because the dual of the Hurwitz order is
    a principal (two-sided) ideal, hence isomorphic as a left module."""
    n = len(a_i)
    rows = []
    for a in (a_i, a_j):
        fa = frac_mat(a)
        b = transpose(inverse(fa))
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
        for coeffs in iproduct(range(-bound, bound + 1), repeat=len(ints)):
            if max((abs(c) for c in coeffs), default=0) != bound:
                continue
            flat = [sum(c * v[t] for c, v in zip(coeffs, ints)) for t in range(n * n)]
            t_mat = [flat[p * n : (p + 1) * n] for p in range(n)]
            if abs(linalg.int_det(t_mat)) == 1:
                return t_mat
    raise ValueError("no unimodular intertwiner found in the search range")


def prym_lattice_model(
    g, h: HomTuple = None, node_budget=Budgets.bfs_node_cap
) -> PrymLatticeModel:
    """The rank-8(g-1) lattice with symplectic deck action attached to a
    quaternionic cover in genus 2 or 3.

    The input tuple is first driven to the standard surjection (the
    model only depends on the kernel up to automorphism); the cover
    graph of the standard surjection carries an explicit homology basis:
    the four translates of the 8-term cycle, plus, for each handle
    mapping to +1, the four antisymmetrized self-loop differences.
    """
    if g not in (2, 3):
        raise ValueError("lattice model implemented for genus 2 and 3 only")
    moves = 0
    if h is not None:
        if h.g != g:
            raise ValueError("genus mismatch")
        res = normalize_hom(h, node_budget=node_budget)
        if not res["reached"]:
            raise ValueError("could not normalize the tuple within budget")
        moves = len(res["moves"])
    std = standard_hom(g)
    graph = build_cover_graph(std)
    h1 = H1Data(graph)
    if h1.rank != 8 * g - 7:
        raise ValueError(f"H_1 has rank {h1.rank}, expected {8 * g - 7}")
    vm = minus_part(h1)
    if vm.rank != 4 * (g - 1):
        raise ValueError(f"minus part has rank {vm.rank}, expected {4 * (g - 1)}")
    divisors = vm.inclusion_divisors()

    explicit, zeta_integral = _c_translates(h1, h1.coords_of_cycle(chain_c_edge_vector(graph)))
    if not zeta_integral:
        raise ValueError("the half-sum of the cycle translates is not integral")

    # one free quaternion block per handle mapped to +1: self-loop cycles
    for m_idx in range(1, g - 1):
        if std.alpha(m_idx) != (1, 0):
            raise ValueError(f"handle {m_idx} of the standard tuple does not map to 1")
        for a in range(4):
            plus = h1.coords_of_cycle(
                _self_loop_vec(graph, _VINDEX[(1, a)], m_idx)
            )
            minus = h1.coords_of_cycle(
                _self_loop_vec(graph, _VINDEX[(-1, a)], m_idx)
            )
            explicit.append([p - q for p, q in zip(plus, minus)])

    coords = [vm.coords(b) for b in explicit]
    if any(co is None for co in coords):
        raise ValueError("explicit basis left the minus part")
    basis_det = linalg.int_det(coords)
    if abs(basis_det) != 1:
        raise ValueError("explicit vectors do not form a basis of the minus part")

    # action matrices in the explicit basis
    a_blocks = {}
    for q, x in _actions_in_basis(h1, vm, explicit, coords, VERTEX_ORDER).items():
        if any(v.denominator != 1 for row in x for v in row):
            raise ValueError(f"action of {qstr(q)} on the explicit basis is not integral")
        a_blocks[q] = [[v.numerator for v in row] for row in x]

    # the explicit basis must realize the block module structure
    for q in ((1, 1), (1, 2)):
        expected = linalg.block_diag(
            [_hurwitz_left_mult(q)] + [_hz_left_mult(q)] * (g - 2)
        )
        if a_blocks[q] != expected:
            raise ValueError("module structure constants do not match")

    rk = 4 * (g - 1)
    rho = {}
    for q, a in a_blocks.items():
        fa = frac_mat(a)
        bt = transpose(inverse(fa))
        if any(v.denominator != 1 for row in bt for v in row):
            raise ValueError(f"inverse transpose of the block of {qstr(q)} is not integral")
        b = [[v.numerator for v in row] for row in bt]
        rho[q] = linalg.block_diag([a, b])
    j_form = [[0] * (2 * rk) for _ in range(2 * rk)]
    for t in range(rk):
        j_form[t][rk + t] = 1
        j_form[rk + t][t] = -1

    t_m = _find_dual_intertwiner(
        [row[:4] for row in a_blocks[(1, 1)][:4]],
        [row[:4] for row in a_blocks[(1, 2)][:4]],
    )
    module_type = "(M)^2" if g == 2 else "(M ⊕ H_Z)^2"
    return PrymLatticeModel(
        g=g,
        rank=2 * rk,
        module_type=module_type,
        a_blocks=a_blocks,
        rho=rho,
        j_form=j_form,
        inclusion_divisors=divisors,
        basis_det=basis_det,
        dual_intertwiner=t_m,
        normalization_moves=moves,
    )


def _self_loop_vec(graph: CoverGraph, u_idx, m):
    vec = [0] * graph.n_edges
    idx = graph.edge_index(u_idx, m)
    eu, ev, em = graph.edges[idx]
    if not (eu == ev == u_idx and em == m):
        raise ValueError(f"edge {idx} is not a self-loop at vertex {u_idx} of handle {m}")
    vec[idx] = 1
    return vec
