"""Search budgets.

The normalization cap is a fixed constant, set here and nowhere else:
every input the registry checks is pinned by the paper, and the cap
covers all of them.  There is no config file and no environment
override; to run past the cap off the registry, edit the constant.  The
kernels that take the cap as a parameter default to the value here, and
``report.run_suite`` takes a ``Budgets`` that every caller leaves at
these defaults.
"""

from __future__ import annotations

from .record import Record


class Budgets(Record):
    """The caps as class constants; every instance is the default one,
    so ``normalize_hom`` can read its default off the class."""

    __slots__ = ()

    # normalization phase 2: a cached distance table when every genus-g
    # tuple fits in the cap, else the bounded breadth-first search
    bfs_node_cap = 200000


def load_budgets() -> Budgets:
    """The fixed budgets; always equal to ``Budgets()``."""
    return Budgets()
