#!/usr/bin/env python3
"""Median seconds of the exact kernels on the inputs the registry uses.

    python3 scripts/kernel_bench.py [--repeat N]

Prints one JSON object.  wedge4_product: mat_mul(X, X), X the 70x70 wedge^4
action of 1 + sqrt(-1) on the n = 2 model of B(-1, -1); weil_nullspace:
nullspace(X^2 + aX + b) as in weil_kernel; hurwitz_index_box: the registry's
qalg.left_ideal_index check, at the 2,400 nonzero points of the [-3, 3]^4 box
of the Hurwitz order; wedge_row: invariant_dim of wedge_power(B3, Gamma (+)
Gamma (+) Gamma, k) for k = 0..12, Gamma the 8-dim spin representation.
quatprym is imported from the ``src`` directory beside this script.
"""

import argparse
import json
import platform
import statistics
import sys
import time
from itertools import product
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from quatprym import lie_engine as le, linalg, qalg, weil_classes as wc  # noqa: E402


def seconds(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=5)
    repeat = ap.parse_args(argv).repeat
    x = qalg.KNum.make(-1, 1, 1)
    model = wc.HModel.make(2, qalg.HAMILTON)
    xm = wc.exterior_action(model.mat_of(qalg.QuatElem.make(qalg.HAMILTON, x.u, x.v)), 4)
    a, b = wc.annihilator_coefficients(x, 4)
    p = linalg.mat_add(linalg.mat_add(linalg.mat_mul(xm, xm), linalg.mat_scale(xm, a)),
                       linalg.mat_scale(linalg.identity(len(xm)), b))
    box = list(filter(any, product(range(-3, 4), repeat=4)))

    def hurwitz_index_box():
        order = qalg.hurwitz_order()
        for coords in box:
            qalg.left_ideal_index(order, coords)

    _, gamma = le.atom("Gamma")
    three = le.dsum(le.dsum(gamma, gamma), gamma)

    def wedge_row():
        for k in range(13):
            le.invariant_dim(le.B3, le.wedge_power(le.B3, three, k))

    kernels = {"wedge4_product": lambda: linalg.mat_mul(xm, xm),
               "weil_nullspace": lambda: linalg.nullspace(p),
               "hurwitz_index_box": hurwitz_index_box,
               "wedge_row": wedge_row}
    out = {name: statistics.median(seconds(fn) for _ in range(repeat)) for name, fn in kernels.items()}
    print(json.dumps({**out, "repeat": repeat, "python": platform.python_version()}))


if __name__ == "__main__":
    main()
