"""The traced run's instrumentation of quatprym and the per-layer metrics.

The layers are the package's modules.  ``install`` wraps their public
functions from outside (no file of the program changes); ``metrics`` turns
the tracer's totals into the named per-layer metrics of BENCHMARK.json.
Counts named ``madds`` and ``subsets`` are computed from operand shapes and
input sizes, not counted inside the kernels.
"""

from __future__ import annotations

import importlib
import inspect
import math
import sys

from tracer import rebind

LINALG = ("mat_mul", "rref", "solve", "det", "inverse", "nullspace",
          "smith_normal_form", "intersect_row_spaces")
LIE = ("wedge_power", "sym_power", "tensor", "decompose", "invariant_dim")
SUITE_MODULES = ("qalg", "homs", "cover", "lie", "spin", "weil", "curve")
# spans reported by inclusive time only
WHOLE_SPANS = (
    ("weil_classes", "weil_report"),
    ("spin_explicit", "build_spin_rep"),
    ("spin_explicit", "so7_invariant"),
    ("spin_explicit", "reference_comparison"),
    ("spin_explicit", "cross_check_weights"),
    ("cover_homology", "check_cycle_c_and_basis"),
    ("cover_homology", "prym_lattice_model"),
    ("curve_model", "finite_field_locus"),
)
# spans reported by call count and self time
SELF_SPANS = (
    tuple(("linalg", f) for f in LINALG)
    + (("qalg", "coords_in_basis"), ("qalg", "hurwitz_index_identity"))
    + tuple(("lie_engine", f) for f in LIE)
    + (("weil_classes", "weil_kernel"), ("weil_classes", "exterior_action"),
       ("surface_homs", "normalize_hom"))
)
# hot tiny functions: counted, never timed per call
COUNTED = (("qalg", "qmul"), ("qalg", "qinv"),
           ("surface_homs", "apply_move"), ("surface_homs", "eval_word"))

# per-layer metric name -> unit, in BENCHMARK.json order
UNITS = {}
UNITS.update({f"report.run_suite.{m}.s": "s" for m in SUITE_MODULES})
UNITS.update({"report.claims": "count", "report.claims_failed": "count"})
for _f in LINALG:
    UNITS.update({f"linalg.{_f}.calls": "count", f"linalg.{_f}.self_s": "s"})
UNITS.update({"linalg.mat_mul.madds": "count", "linalg.mat_mul.useful_ratio": "ratio"})
for _f in ("coords_in_basis", "hurwitz_index_identity"):
    UNITS.update({f"qalg.{_f}.calls": "count", f"qalg.{_f}.self_s": "s"})
UNITS.update({"qalg.qmul.calls": "count", "qalg.qinv.calls": "count"})
UNITS.update({
    "surface_homs.enumerate_surjections.s": "s",
    "surface_homs.enumerate_surjections.tuples": "count",
    "surface_homs.enumerate_surjections.surjective": "count",
    "surface_homs.enumerate_surjections.valid_ratio": "ratio",
    "surface_homs.apply_move.calls": "count",
    "surface_homs.eval_word.calls": "count",
    "surface_homs.normalize_hom.calls": "count",
    "surface_homs.normalize_hom.self_s": "s",
    "surface_homs.normalize_hom.moves": "count",
    "surface_homs.normalize_hom.cap_hit": "count",
    "surface_homs.normalize_hom.p50_ms": "ms",
    "surface_homs.normalize_hom.p90_ms": "ms",
    "surface_homs.normalize_hom.samples": "count",
})
UNITS.update({"lie_engine.wedge_power.subsets": "count",
              "lie_engine.wedge_power.useful_ratio": "ratio"})
for _f in LIE:
    UNITS.update({f"lie_engine.{_f}.calls": "count", f"lie_engine.{_f}.self_s": "s"})
UNITS.update({"weil_classes.weil_kernel.calls": "count",
              "weil_classes.weil_kernel.self_s": "s",
              "weil_classes.exterior_action.calls": "count",
              "weil_classes.exterior_action.self_s": "s"})
UNITS.update({f"{mod}.{f}.s": "s" for mod, f in WHOLE_SPANS})
UNITS["trace.overhead_s"] = "s"

# metrics the traced run fills from the untraced repetition, not the tracer
FROM_UNTRACED = ("surface_homs.normalize_hom.p50_ms",
                 "surface_homs.normalize_hom.p90_ms",
                 "surface_homs.normalize_hom.samples",
                 "trace.overhead_s")


def _observe_mat_mul(tracer, args, kwargs, result):
    from quatprym import linalg

    a, b = inspect.signature(linalg.mat_mul).bind(*args, **kwargs).arguments.values()
    if not a or not b:
        return
    inner = len(b)
    col_nonzero = [0] * inner
    for row in a:
        for t, x in enumerate(row):
            if x:
                col_nonzero[t] += 1
    row_nonzero = [sum(1 for x in row if x) for row in b]
    tracer.add("linalg.mat_mul.madds", len(a) * inner * len(b[0]))
    tracer.add("linalg.mat_mul.useful", sum(c * r for c, r in zip(col_nonzero, row_nonzero)))


def _observe_wedge_power(tracer, args, kwargs, result):
    from quatprym import lie_engine

    bound = inspect.signature(lie_engine.wedge_power).bind(*args, **kwargs).arguments
    n = lie_engine.multiset_size(bound["ms"])
    tracer.add("lie_engine.wedge_power.subsets", math.comb(n, bound["k"]))
    tracer.add("lie_engine.wedge_power.distinct", len(result))


def _observe_enumerate(tracer, args, kwargs, rep):
    tracer.add("surface_homs.enumerate_surjections.tuples", rep.total)
    tracer.add("surface_homs.enumerate_surjections.valid", rep.valid)
    tracer.add("surface_homs.enumerate_surjections.surjective", rep.surjective)


def _observe_normalize(tracer, args, kwargs, out):
    tracer.add("surface_homs.normalize_hom.moves", len(out["moves"]))
    tracer.add("surface_homs.normalize_hom.cap_hit", 0 if out["reached"] else 1)


def _observe_run_suite(tracer, args, kwargs, records):
    tracer.add("report.claims", len(records))
    tracer.add("report.claims_failed", sum(1 for r in records if r.status == "FAIL"))


OBSERVERS = {
    ("linalg", "mat_mul"): _observe_mat_mul,
    ("lie_engine", "wedge_power"): _observe_wedge_power,
    ("surface_homs", "enumerate_surjections"): _observe_enumerate,
    ("surface_homs", "normalize_hom"): _observe_normalize,
    ("report", "run_suite"): _observe_run_suite,
}


def install(tracer):
    """Wrap the traced functions in every quatprym module that binds them."""
    modules = [m for n, m in sys.modules.items() if n == "quatprym" or n.startswith("quatprym.")]
    spans = SELF_SPANS + WHOLE_SPANS + (("surface_homs", "enumerate_surjections"),
                                        ("report", "run_suite"))
    for modname, fname in spans + COUNTED:
        original = getattr(importlib.import_module(f"quatprym.{modname}"), fname)
        name = f"{modname}.{fname}"
        if (modname, fname) in COUNTED:
            wrapper = tracer.counter(name, original)
        else:
            wrapper = tracer.span(name, original, OBSERVERS.get((modname, fname)))
        if not rebind(modules, original, wrapper):
            raise RuntimeError(f"{name} is not bound in any quatprym module")
    report = importlib.import_module("quatprym.report")
    report.MODULE_BUILDERS = tuple(
        (m, tracer.span(f"report.run_suite.{m}", builder)) for m, builder in report.MODULE_BUILDERS
    )


def _ratio(num, den):
    return num / den if den else 0.0


def metrics(tracer):
    """Every per-layer metric except FROM_UNTRACED, read from the tracer."""
    out = {}
    for m in SUITE_MODULES:
        out[f"report.run_suite.{m}.s"] = tracer.stats(f"report.run_suite.{m}").total_s
    for name in ("report.claims", "report.claims_failed",
                 "linalg.mat_mul.madds", "lie_engine.wedge_power.subsets",
                 "surface_homs.enumerate_surjections.tuples",
                 "surface_homs.enumerate_surjections.surjective",
                 "surface_homs.normalize_hom.moves", "surface_homs.normalize_hom.cap_hit"):
        out[name] = tracer.count(name)
    for modname, fname in SELF_SPANS:
        st = tracer.stats(f"{modname}.{fname}")
        out[f"{modname}.{fname}.calls"] = st.calls
        out[f"{modname}.{fname}.self_s"] = st.self_s
    for modname, fname in WHOLE_SPANS + (("surface_homs", "enumerate_surjections"),):
        out[f"{modname}.{fname}.s"] = tracer.stats(f"{modname}.{fname}").total_s
    for modname, fname in COUNTED:
        out[f"{modname}.{fname}.calls"] = tracer.count(f"{modname}.{fname}")
    out["linalg.mat_mul.useful_ratio"] = _ratio(
        tracer.count("linalg.mat_mul.useful"), tracer.count("linalg.mat_mul.madds"))
    out["lie_engine.wedge_power.useful_ratio"] = _ratio(
        tracer.count("lie_engine.wedge_power.distinct"),
        tracer.count("lie_engine.wedge_power.subsets"))
    out["surface_homs.enumerate_surjections.valid_ratio"] = _ratio(
        tracer.count("surface_homs.enumerate_surjections.valid"),
        tracer.count("surface_homs.enumerate_surjections.tuples"))
    return out
