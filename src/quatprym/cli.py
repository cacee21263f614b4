"""The hodge command line tool.

One subcommand per module plus `report`, which runs the whole claim
registry and emits the verification table.  All output is deterministic;
exit code 0 means no FAIL record was produced, 2 a bad input, and 141
(128 + SIGPIPE, as a shell reports a process a closed pipe killed) that
the reader of standard output went away before it was all written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import (
    cover_homology,
    curve_model,
    lie_engine,
    qalg,
    report as report_mod,
    spin_explicit,
    surface_homs,
)
from .weil_classes import weil_report


EXIT_BROKEN_PIPE = 141


def _print_json(obj):
    print(json.dumps(obj, indent=2, default=str))


def _cmd_qalg(args) -> int:
    claim_for = {
        "nonfree": "qalg.left_ideal_index",
        "wedderburn": "qalg.group_ring_shape",
        "embed": "qalg.splitting_embed",
    }
    records = report_mod.run_suite("qalg")
    wanted = claim_for[args.check]
    rec = next(r for r in records if r.claim_id == wanted)
    _print_json(
        {
            "claim": rec.claim_id,
            "expected": rec.expected,
            "computed": rec.computed,
            "status": rec.status,
        }
    )
    return 0 if rec.status != report_mod.FAIL else 1


def _cmd_homs(args) -> int:
    g = args.genus
    if args.enumerate:
        rep = surface_homs.enumerate_surjections(g)
        _print_json(
            {
                "genus": rep.genus,
                "total": rep.total,
                "valid": rep.valid,
                "surjective": rep.surjective,
                "orbit_sizes": list(rep.orbit_sizes),
                "standard_orbit_size": rep.standard_orbit_size,
            }
        )
        return 0
    if args.normalize is not None:
        h = surface_homs.parse_hom(g, args.normalize)
        out = surface_homs.normalize_hom(h)
        _print_json(
            {
                "reached": out["reached"],
                "moves": [mv.kind for mv in out["moves"]],
            }
        )
        return 0 if out["reached"] else 1
    # --verify-psi: k = 1 at least, so that verify_psi_in_Ag rejects genus
    # 0 and 1 instead of an empty range passing them
    results = {k: surface_homs.verify_psi_in_Ag(g, k) for k in range(1, max(g, 2))}
    _print_json({"genus": g, "relator_conjugated": results})
    return 0 if all(results.values()) else 1


def _cmd_prym(args) -> int:
    h = None
    if args.hom is not None:
        h = surface_homs.parse_hom(args.genus, args.hom)
    model = cover_homology.prym_lattice_model(args.genus, h)
    _print_json(
        {
            "genus": model.g,
            "rank": model.rank,
            "module_type": model.module_type,
            "inclusion_divisors": list(model.inclusion_divisors),
            "basis_det": model.basis_det,
            "symplectic_ok": model.symplectic_ok(),
            "normalization_moves": model.normalization_moves,
        }
    )
    return 0


def _cmd_lie(args) -> int:
    if args.scenario:
        rep = report_mod.scenario_report(args.scenario)
        _print_json(rep)
        return 0 if rep["ok"] else 1
    alg_text, expr = args.decompose
    alg = lie_engine.AlgebraType.parse(alg_text)
    got_alg, ms = lie_engine.parse_expr(expr)
    if got_alg != alg:
        print(
            f"expression lives on {got_alg}, not {alg}",
            file=sys.stderr,
        )
        return 2
    dec = lie_engine.decompose(alg, ms)
    _print_json(
        {
            "algebra": str(alg),
            "size": lie_engine.multiset_size(ms),
            "decomposition": [
                {"weight": list(lie_engine.weight_text(lam)), "mult": m} for lam, m in dec
            ],
            # the multiplicity of the trivial constituent
            "invariant_dim": dict(dec).get((0,) * alg.ncoords, 0),
        }
    )
    return 0


def _cmd_spin(args) -> int:
    rep = spin_explicit.build_spin_rep()
    if args.invariant:
        inv = spin_explicit.so7_invariant(rep)
        for mono in spin_explicit.weight_zero_monomials(rep):
            subsets = tuple(spin_explicit.SUBSETS[t] for t in mono)
            print(f"{mono}  {subsets}  coefficient {inv.get(mono, 0)}")
        return 0
    failures = set(spin_explicit.bracket_failures(rep.two_rho))
    for x, y in spin_explicit.BRACKET_PAIRS:
        print(f"[{x}, {y}]: {'FAIL' if (x, y) in failures else 'pass'}")
    print(f"{len(failures)} bracket failures" if failures else "all brackets pass")
    return 1 if failures else 0


def _cmd_weil(args) -> int:
    r_s = args.params.split(",")
    if len(r_s) != 2:
        print("--params expects r,s", file=sys.stderr)
        return 2
    params = qalg.AlgebraParams.make(int(r_s[0]), int(r_s[1]))
    rep = weil_report(args.n, params)
    _print_json(rep)
    return 0


def _cmd_curve(args) -> int:
    if args.check == "autos":
        rep = curve_model.verify_curve_autos()
    elif args.check == "quadrics":
        rep = curve_model.verify_quadrics()
    elif args.check == "action":
        rep = curve_model.verify_p4_action()
    elif args.check == "quartics":
        rep = curve_model.verify_invariant_quartics()
    elif args.check == "locus":
        if args.p is None:
            print("--check locus requires --p", file=sys.stderr)
            return 2
        rep = curve_model.finite_field_locus(args.p)
    elif args.check == "numerology":
        if args.n is None:
            print("--check numerology requires --n", file=sys.stderr)
            return 2
        rep = curve_model.scroll_numerology(args.n)
        rep = dict(rep, ok=True)
    else:
        raise AssertionError(args.check)
    _print_json(rep)
    return 0 if rep.get("ok", True) else 1


def _cmd_report(args) -> int:
    records = report_mod.run_suite(args.module)
    sys.stdout.write(report_mod.emit(records, args.format))
    return 1 if report_mod.has_failures(records) else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hodge",
        description="exact-arithmetic checks for quaternionic covers, their "
        "lattices, and the associated invariant computations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("qalg", help="quaternion arithmetic checks")
    p.add_argument("--check", choices=("nonfree", "wedderburn", "embed"), required=True)
    p.set_defaults(func=_cmd_qalg)

    p = sub.add_parser("homs", help="surface-group tuple calculus")
    p.add_argument("--genus", type=int, required=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--enumerate", action="store_true")
    mode.add_argument("--normalize", metavar="TUPLE", default=None,
                      help="2g comma-separated symbols from {1,-1,i,-i,j,-j,k,-k}")
    mode.add_argument("--verify-psi", action="store_true")
    p.set_defaults(func=_cmd_homs)

    p = sub.add_parser("prym", help="anti-invariant lattice model")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--hom", metavar="TUPLE", default=None)
    p.set_defaults(func=_cmd_prym)

    p = sub.add_parser("lie", help="weight-multiset representation engine")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--scenario", choices=report_mod.SCENARIOS, default=None)
    mode.add_argument("--decompose", nargs=2, metavar=("ALG", "EXPR"), default=None)
    p.set_defaults(func=_cmd_lie)

    p = sub.add_parser("spin", help="explicit spinor model checks")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--invariant", action="store_true")
    mode.add_argument("--check-bracket", action="store_true")
    p.set_defaults(func=_cmd_spin)

    p = sub.add_parser("weil", help="dimensions of the Weil spaces W_K and W_F")
    p.add_argument("--n", type=int, choices=(1, 2), required=True)
    p.add_argument("--params", default="-1,-1", help="algebra parameters r,s")
    p.set_defaults(func=_cmd_weil)

    p = sub.add_parser("curve", help="genus-2 curve symbolic checks")
    p.add_argument(
        "--check",
        choices=("autos", "quadrics", "action", "quartics", "locus", "numerology"),
        required=True,
    )
    p.add_argument("--p", type=int, default=None, help="prime for --check locus")
    p.add_argument("--n", type=int, default=None, help="size for --check numerology")
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("report", help="run the claim registry")
    p.add_argument("--module", default=None)
    p.add_argument("--format", choices=("json", "markdown"), default="json")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader went away (`hodge ... | head`): send what is still
        # buffered to devnull, so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    raise SystemExit(main())
