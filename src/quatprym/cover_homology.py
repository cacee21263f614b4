"""Integral homology of the 8-fold covering graph and its deck action.

For a surjection f from a genus-g surface group onto the quaternion
group Q, the associated cover retracts onto a graph with vertex set Q
and one edge q -> q * f(alpha_m) per vertex and per handle index m,
read off the ``qalg`` table ``Q8_MUL``.  The deck group acts by left
multiplication, which permutes the edges.  This module computes H_1 of
that graph with the deck action, cuts out the sublattice on which -1
acts as -1, and assembles the rank-8(g-1) symplectic lattice model of
blocks A(q) on that sublattice, with an explicit basis exhibiting its
module structure over the integer quaternions: one Hurwitz-order block
from an 8-term cycle and its translates, and one free block per extra
handle.  The blocks must equal the left multiplications that
``OrderLattice.left_mult`` reads off the structure constants of the
Hurwitz order, in the basis (1, i, j, zeta) that the translates follow,
and of the Lipschitz order, in (1, i, j, k).  The model's
``symplectic_ok`` checks A(q^{-1}) A(q) = I for every q, which is
exactly rho(q)^T J rho(q) = J for rho(q) = diag(A(q), transpose(A(q^{-1})))
and the standard form J: it holds when the blocks form a representation,
and it does not compute an intersection form.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from . import linalg
from .linalg import identity, mat_mul, transpose
from .qalg import (HAMILTON, Q8_INDEX, Q8_INV, Q8_MUL, QUAT_GROUP, OrderLattice, basis_elems,
                   qinv, qstr)
from .surface_homs import HomTuple, classify_hom, standard_hom, normalize_hom

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


class CoverGraph:
    __slots__ = ("g", "alpha_images", "edges")

    def __init__(self, g: int, alpha_images: tuple, edges: tuple):
        self.g = g
        self.alpha_images = alpha_images  # g group elements
        self.edges = edges  # 8g triples (u_index, v_index, m), edge (m-1)*8+u

    @property
    def n_edges(self):
        return 8 * self.g

    def edge_index(self, u_idx, m):
        return (m - 1) * 8 + u_idx


def build_cover_graph(h: HomTuple) -> CoverGraph:
    if not classify_hom(h)["valid"]:
        raise ValueError("tuple does not satisfy the surface relation")
    alpha = tuple(h.images[: h.g])
    edges = tuple((u, Q8_MUL[8 * u + Q8_INDEX[am]], m)
                  for m, am in enumerate(alpha, 1) for u in range(8))
    return CoverGraph(h.g, alpha, edges)


class H1Data:
    """First homology of a connected cover graph, with the deck action.

    The basis is the set of fundamental cycles of the non-tree edges of
    a breadth-first spanning tree rooted at the identity vertex; the
    tree is deterministic (edges scanned in index order).  Cycles are
    stored as integer vectors over the edge set.
    """

    def __init__(self, graph: CoverGraph):
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
            raise ValueError("cover graph is disconnected")
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
        if mat_mul([coords], self.cycles)[0] != list(edge_vec):
            raise ValueError("cycle outside the fundamental span")
        return coords

    def rho(self, q):
        """Deck action of q in the fundamental-cycle basis.

        Left multiplication by q permutes the edges, (u, m) -> (q u, m),
        so it maps cycles to cycles, and the coordinates of a cycle are
        its entries on the non-tree edges: entry (i, j) is cycle j on the
        edge that q maps onto non-tree edge i."""
        if q not in self._rho_cache:
            back = 8 * Q8_INV[Q8_INDEX[q]]  # the row of q^-1 in Q8_MUL
            edges = self.graph.edges
            pulled = [self.graph.edge_index(Q8_MUL[back + edges[idx][0]], edges[idx][2])
                      for idx in self.nontree]
            self._rho_cache[q] = [[cyc[e] for cyc in self.cycles] for e in pulled]
        return self._rho_cache[q]


class IntLattice:
    """A sublattice of Z^ambient, rows of ``basis`` are the basis vectors.

    ``coords`` reads off one cached elimination per lattice: the rows of
    ``linalg.int_echelon`` of [B | I], with B the basis vectors as
    columns, each row [R | E] with a positive int pivot d, so E B = R."""

    __slots__ = ("ambient", "basis", "__dict__")  # __dict__ holds the cached elimination

    def __init__(self, ambient: int, basis: list):
        self.ambient = ambient
        self.basis = basis

    @property
    def rank(self):
        return len(self.basis)

    def inclusion_divisors(self):
        return linalg.elementary_divisors(self.basis)

    @cached_property
    def _elimination(self):
        """(pivot columns, pivots d, E parts) of the rows, or None if empty."""
        cols = transpose(self.basis)
        if not cols:
            return None
        rows, pivots = linalg.int_echelon([row + eye for row, eye in zip(cols, identity(len(cols)))])
        return pivots, [row[c] for row, c in zip(rows, pivots)], [row[self.rank :] for row in rows]

    def coords(self, vec):
        """Integer coordinates of vec in the basis, or None: B x = vec iff
        E vec / d is an integer x_c at each pivot column c of B and 0 at
        the pivots past B."""
        if self._elimination is None:
            return None
        pivots, dens, e = self._elimination
        x = [0] * self.rank
        for c, d, v in zip(pivots, dens, linalg.mat_vec(e, vec)):
            q, rem = divmod(v, d)
            if rem or (q and c >= self.rank):
                return None
            if c < self.rank:
                x[c] = q
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
        u, v = Q8_INDEX[src], Q8_INDEX[dst]
        if (u, v) in edge_lookup:
            vec[edge_lookup[(u, v)][0]] += 1
        elif (v, u) in edge_lookup:
            vec[edge_lookup[(v, u)][0]] -= 1
        else:
            raise ValueError(f"segment {qstr(src)} -> {qstr(dst)} is not an edge")
    return vec


_ONE, _I, _J, _K = basis_elems(HAMILTON)
# the Hurwitz order M and the Lipschitz order H_Z, in the bases of the blocks
_HURWITZ = OrderLattice(HAMILTON, (_ONE, _I, _J, (_ONE + _I + _J + _K).scale(Fraction(1, 2))))
_LIPSCHITZ = OrderLattice(HAMILTON, (_ONE, _I, _J, _K))


def _translate_basis(h1: H1Data, vm: IntLattice, extra=()):
    """The 8-term cycle c, its translates ic, jc and zeta c = (c + ic +
    jc + kc) / 2, then the vectors ``extra``, all in the fundamental-cycle
    basis; whether that half-sum is integral; the coordinates of the
    vectors in the minus part vm (None for one outside it); and their
    determinant (0 if a vector is outside)."""
    c = h1.coords_of_cycle(chain_c_edge_vector(h1.graph))
    ic, jc, kc = (linalg.mat_vec(h1.rho(q), c) for q in ((1, 1), (1, 2), (1, 3)))
    total = [sum(xs) for xs in zip(c, ic, jc, kc)]
    vecs = [c, ic, jc, [x // 2 for x in total]] + list(extra)
    coords = [vm.coords(b) for b in vecs]
    det = 0 if None in coords else linalg.int_det(coords)
    return vecs, all(x % 2 == 0 for x in total), coords, det


def _actions_in_basis(h1: H1Data, vecs, qs):
    """q -> integer matrix of the deck action of q in the basis ``vecs``
    of the minus part, read column by column through IntLattice.coords."""
    lat = IntLattice(h1.rank, vecs)
    out = {}
    for q in qs:
        cols = [lat.coords(linalg.mat_vec(h1.rho(q), b)) for b in vecs]
        if None in cols:
            raise ValueError(f"action of {qstr(q)} on the explicit basis is not integral")
        out[q] = transpose(cols)
    return out


def _module_structure_matches(actions, n_free):
    """Whether i and j act as on the Hurwitz order followed by n_free
    copies of the Lipschitz order."""
    return all(
        actions[q]
        == linalg.block_diag([_HURWITZ.left_mult(q)] + [_LIPSCHITZ.left_mult(q)] * n_free)
        for q in ((1, 1), (1, 2))
    )


def check_cycle_c_and_basis(h: HomTuple = None) -> dict:
    """Verify the 8-term cycle data in the genus-2 cover graph: boundary
    zero, integrality of the half-sum translate, and that the four
    translates form a basis of the minus part carrying the Hurwitz-order
    multiplication table.  A chain with a boundary raises "chain is not a
    cycle" before ``boundary_zero`` is read: that raise is the check."""
    if h is None:
        h = standard_hom(2)
    if h.g != 2:
        raise ValueError("cycle check is a genus-2 computation")
    h1 = H1Data(build_cover_graph(h))
    vm = minus_part(h1)
    vecs, zeta_integral, _, d = _translate_basis(h1, vm)
    structure_match = abs(d) == 1 and _module_structure_matches(
        _actions_in_basis(h1, vecs, ((1, 1), (1, 2))), 0
    )
    return {
        "boundary_zero": not any(h1.boundary(chain_c_edge_vector(h1.graph))),
        "zeta_integral": zeta_integral,
        "v_minus_rank": vm.rank,
        "inclusion_divisors": vm.inclusion_divisors(),
        "translate_basis_det": d,
        "structure_match": structure_match,
    }


class PrymLatticeModel:
    __slots__ = ("g", "rank", "module_type", "a_blocks", "inclusion_divisors", "basis_det",
                 "normalization_moves")

    def __init__(self, g: int, rank: int, module_type: str, a_blocks: dict,
                 inclusion_divisors: list, basis_det: int, normalization_moves: int):
        self.g = g
        self.rank = rank
        self.module_type = module_type
        self.a_blocks = a_blocks  # q -> integer matrix, in the explicit module basis
        self.inclusion_divisors = inclusion_divisors
        self.basis_det = basis_det
        self.normalization_moves = normalization_moves

    def symplectic_ok(self) -> bool:
        """A(q^-1) A(q) = I for every q: exactly rho(q)^T J rho(q) = J for
        the deck action rho(q) = diag(A(q), transpose(A(q^-1))) on Z^rank
        and the standard symplectic form J."""
        eye = [[int(r == c) for c in range(self.rank // 2)] for r in range(self.rank // 2)]
        return all(mat_mul(self.a_blocks[qinv(q)], a) == eye for q, a in self.a_blocks.items())


def prym_lattice_model(g, h: HomTuple = None) -> PrymLatticeModel:
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
        res = normalize_hom(h)
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

    # one free quaternion block per handle mapped to +1: self-loop cycles
    free = []
    for m_idx in range(1, g - 1):
        if std.alpha(m_idx) != (1, 0):
            raise ValueError(f"handle {m_idx} of the standard tuple does not map to 1")
        for a in range(4):
            plus = _self_loop_vec(graph, Q8_INDEX[(1, a)], m_idx)
            minus = _self_loop_vec(graph, Q8_INDEX[(-1, a)], m_idx)
            free.append(h1.coords_of_cycle([p - q for p, q in zip(plus, minus)]))
    explicit, zeta_integral, coords, basis_det = _translate_basis(h1, vm, free)
    if not zeta_integral:
        raise ValueError("the half-sum of the cycle translates is not integral")
    if None in coords:
        raise ValueError("explicit basis left the minus part")
    if abs(basis_det) != 1:
        raise ValueError("explicit vectors do not form a basis of the minus part")

    a_blocks = _actions_in_basis(h1, explicit, QUAT_GROUP)
    if not _module_structure_matches(a_blocks, g - 2):
        raise ValueError("module structure constants do not match")
    module_type = "(M)^2" if g == 2 else "(M ⊕ H_Z)^2"
    return PrymLatticeModel(
        g=g,
        rank=8 * (g - 1),
        module_type=module_type,
        a_blocks=a_blocks,
        inclusion_divisors=vm.inclusion_divisors(),
        basis_det=basis_det,
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
