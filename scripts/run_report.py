#!/usr/bin/env python3
"""Run the full claim registry and write report artifacts.

Produces report.json and report.md in the chosen output directory and
prints the status histogram.  Exit code is nonzero iff any claim FAILs
(EVIDENCE and FLAGGED rows do not fail the run).
"""

import argparse
import sys
from collections import Counter
from pathlib import Path

from quatprym import report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--module", choices=report.module_names(), default=None,
                    help="restrict to one module")
    ap.add_argument(
        "--out", type=Path, default=Path("."), help="output directory"
    )
    args = ap.parse_args(argv)

    records = report.run_suite(module=args.module)

    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "report.json").write_text(report.emit(records, "json"))
    (args.out / "report.md").write_text(report.emit(records, "markdown"))

    counts = Counter(r.status for r in records)
    for status in ("PASS", "EVIDENCE", "FLAGGED", "FAIL"):
        if counts.get(status):
            print(f"{status:8s} {counts[status]}")
    print(f"wrote {args.out / 'report.json'} and {args.out / 'report.md'}")

    if report.has_failures(records):
        for r in records:
            if r.status == "FAIL":
                print(f"FAIL {r.claim_id}: {r.computed!r} != {r.expected!r}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
