"""Workload bodies and their output gates.

Each workload is a function of the seed that prepares its inputs (not
timed) and returns the body the worker times.  Only ``census`` draws inputs
from the seed; the inputs of ``registry`` and ``wedge_powers`` are fixed by
the paper, so for them every seed runs the same work.

Every body records its operations in an Outcome: an operation fails when it
raises (the exception type is recorded and the run goes on) or when its
output differs from the golden or frozen value.
"""

from __future__ import annotations

import json
import math
import random
import time
from pathlib import Path

from quatprym import lie_engine, report, surface_homs

GOLDEN_REPORT = Path(__file__).resolve().parent / "golden" / "report.json"

# census: (total, valid, surjective, orbit sizes) of enumerate_surjections(3)
CENSUS_G3 = (262144, 133120, 120960, (120960,))
Q8_CHARACTER_DEGREES = (1, 1, 1, 1, 2)
# genus-2 tuples normalized per census repetition; the p90 of the
# per-tuple times then has 12 samples beyond it
NORMALIZE_BATCH = 120

# dim of the so(7)-invariants of wedge^k of m copies of the spin
# representation.  The m = 2, k <= 8 values are the paper's; the row is
# palindromic under k <-> 16 - k.  The m = 3 values are frozen from the
# enumerating engine.
PAPER_ROW_M2 = (1, 0, 1, 0, 6, 0, 6, 0, 16)
WEDGE_INVARIANTS = {
    2: PAPER_ROW_M2 + PAPER_ROW_M2[-2::-1],
    3: (1, 0, 3, 0, 21, 0, 55),
}


class Outcome:
    """Operations attempted and failed in one repetition, and why."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock      # times operations; excludes host-speed probes
        self.attempted = 0
        self.failed = 0
        self.cap_hit = 0
        self.errors = {}        # exception type name -> count
        self.problems = []      # one line per failed operation or gate
        self.gates_ok = True
        self.latencies_ms = []

    def attempt(self, label, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(f"{label}: wrong output")

    def raised(self, label, exc, ops=1):
        name = type(exc).__name__
        self.attempted += ops
        self.failed += ops
        self.errors[name] = self.errors.get(name, 0) + 1
        self.problems.append(f"{label}: {name}: {exc}")

    def op(self, label, fn, check):
        """Run one operation; it fails if fn raises or check(result) is false."""
        try:
            result = fn()
        except Exception as exc:  # contained: the run goes on
            self.raised(label, exc)
            return None
        self.attempt(label, check(result))
        return result

    def gate(self, label, ok):
        """A check on the workload's whole output, beyond its operations."""
        if not ok:
            self.gates_ok = False
            self.problems.append(f"{label}: gate failed")

    @property
    def correct(self):
        return self.failed == 0 and self.gates_ok


# ---------------------------------------------------------------------------
# registry: what `hodge report` runs


def _claims_by_id(text):
    return {c["claim_id"]: c for c in json.loads(text)["claims"]}


def registry(seed):
    golden_bytes = GOLDEN_REPORT.read_bytes()
    golden = _claims_by_id(golden_bytes)

    def body(budgets, out):
        try:
            text = report.emit(report.run_suite(budgets=budgets), "json")
        except Exception as exc:  # contained: every claim counts as failed
            out.raised("run_suite", exc, ops=len(golden))
            return
        got = _claims_by_id(text)
        for cid in sorted(golden.keys() | got.keys()):
            out.attempt(f"claim {cid}", got.get(cid) == golden.get(cid))
        out.gate("report.json bytes", text.encode() == golden_bytes)

    return body


# ---------------------------------------------------------------------------
# census: genus-3 enumeration, then a seeded batch of genus-2 normalizations

Q8 = tuple((s, a) for a in range(4) for s in (1, -1))
_IJK = {(1, 2): 3, (2, 3): 1, (3, 1): 2}


def _q8_mul(x, y):
    (s, a), (t, b) = x, y
    if a == 0 or b == 0:
        return (s * t, a + b)
    if a == b:
        return (-s * t, 0)
    if (a, b) in _IJK:
        return (s * t, _IJK[(a, b)])
    return (-s * t, _IJK[(b, a)])


def _q8_inv(x):
    return (-x[0], x[1]) if x[1] else x


def is_surjective_hom(images, g):
    """Whether alpha/beta images satisfy the surface relation and generate Q8."""
    acc = (1, 0)
    for a, b in zip(images[:g], images[g:]):
        for x in (a, b, _q8_inv(a), _q8_inv(b)):
            acc = _q8_mul(acc, x)
    return acc == (1, 0) and len({ax for _, ax in images if ax}) >= 2


def genus2_batch(seed, size):
    """``size`` distinct surjective genus-2 tuples drawn from ``seed``."""
    rng = random.Random(seed)
    batch, seen = [], set()
    while len(batch) < size:
        images = tuple(rng.choice(Q8) for _ in range(4))
        if images not in seen and is_surjective_hom(images, 2):
            seen.add(images)
            batch.append(images)
    return batch


def mednykh_count(g, order=8, degrees=Q8_CHARACTER_DEGREES):
    """|Hom(pi_1 of the genus-g surface, G)| = |G| sum_chi (|G|/chi(1))^(2g-2)."""
    return order * sum((order // d) ** (2 * g - 2) for d in degrees)


def _normalize_and_replay(images, budgets):
    h = surface_homs.HomTuple(2, images)
    res = surface_homs.normalize_hom(h, node_budget=budgets.bfs_node_cap)
    for mv in res["moves"]:
        h = surface_homs.apply_move(h, mv)
    return res["reached"], h.images


def census(seed):
    batch = genus2_batch(seed, NORMALIZE_BATCH)

    def body(budgets, out):
        out.op(
            "census g=3",
            lambda: surface_homs.enumerate_surjections(3),
            lambda r: (r.total, r.valid, r.surjective, r.orbit_sizes) == CENSUS_G3
            and r.valid == mednykh_count(3),
        )
        target = surface_homs.standard_hom(2).images
        for images in batch:
            start = out.clock()
            res = out.op(
                f"normalize {images}",
                lambda: _normalize_and_replay(images, budgets),
                lambda r: r == (True, target),
            )
            out.latencies_ms.append((out.clock() - start) * 1e3)
            if res is not None and not res[0]:
                out.cap_hit += 1

    return body


# ---------------------------------------------------------------------------
# wedge_powers: invariants of wedge^k of m spin representations


def _wedge_cell(m, k):
    alg, gamma = lie_engine.atom("Gamma")
    ms = {}
    for _ in range(m):
        ms = lie_engine.dsum(ms, gamma)
    power = lie_engine.wedge_power(alg, ms, k)
    return lie_engine.multiset_size(power), lie_engine.invariant_dim(alg, power)


def wedge_powers(seed):
    def body(budgets, out):
        for m, row in WEDGE_INVARIANTS.items():
            got = []
            for k, want in enumerate(row):
                res = out.op(
                    f"wedge^{k} of {m} spin reps",
                    lambda: _wedge_cell(m, k),
                    lambda r: r == (math.comb(8 * m, k), want),
                )
                got.append(None if res is None else res[1])
            if m == 2:
                out.gate("m = 2 row is palindromic", got == got[::-1])

    return body


WORKLOADS = {"registry": registry, "census": census, "wedge_powers": wedge_powers}
