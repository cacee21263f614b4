"""Exact-arithmetic models of quaternionic covers of curves, their
anti-invariant lattices, and the invariant theory attached to them.

Modules:
  linalg          exact linear algebra over any field, integer Smith form
  qalg            quaternion algebras, orders, the group ring
  surface_homs    surface-group tuples, moves, normalization, census
  cover_homology  the 8-sheeted cover graph and its lattice model
  lie_engine      weight-multiset representation calculus
  spin_explicit   explicit 8x8 spinor model and the degree-4 invariant
  weil_classes    Weil classes on quaternion modules, by derivations
  curve_model     the genus-2 curve, its quadrics, and the P^4 action
  report, cli     claim registry and the hodge command line tool
  record          the value-record base: equality, hash and repr by fields
"""

from .config import Budgets, load_budgets
from .qalg import (
    HAMILTON,
    AlgebraParams,
    KNum,
    QuatElem,
    group_ring_wedderburn,
    hurwitz_index_identity,
    hurwitz_order,
    left_ideal_index,
)
from .report import ClaimRecord, run_suite
from .surface_homs import (
    HomTuple,
    enumerate_surjections,
    genus_numerology,
    normalize_hom,
    standard_hom,
    verify_psi_in_Ag,
)
from .cover_homology import check_cycle_c_and_basis, prym_lattice_model
from .lie_engine import AlgebraType, decompose, invariant_dim, irrep_weights
from .spin_explicit import build_spin_rep, project_even, so7_invariant
from .weil_classes import HModel, weil_kernel, weil_report
from .curve_model import (
    finite_field_locus,
    scroll_numerology,
    verify_curve_autos,
    verify_invariant_quartics,
    verify_p4_action,
    verify_quadrics,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraParams",
    "AlgebraType",
    "Budgets",
    "ClaimRecord",
    "HAMILTON",
    "HModel",
    "HomTuple",
    "KNum",
    "QuatElem",
    "build_spin_rep",
    "check_cycle_c_and_basis",
    "decompose",
    "enumerate_surjections",
    "finite_field_locus",
    "genus_numerology",
    "group_ring_wedderburn",
    "hurwitz_index_identity",
    "hurwitz_order",
    "invariant_dim",
    "irrep_weights",
    "left_ideal_index",
    "load_budgets",
    "normalize_hom",
    "project_even",
    "prym_lattice_model",
    "run_suite",
    "scroll_numerology",
    "so7_invariant",
    "standard_hom",
    "verify_curve_autos",
    "verify_invariant_quartics",
    "verify_p4_action",
    "verify_psi_in_Ag",
    "verify_quadrics",
    "weil_kernel",
    "weil_report",
]
