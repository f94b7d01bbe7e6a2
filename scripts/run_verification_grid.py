#!/usr/bin/env python3
"""Run the identity verification suite over the full parameter grid and print
one summary row per (r, l, field), with timings.

Usage: python3 scripts/run_verification_grid.py [--closure] [--jsonl]

--closure adds group-order rows: the closure of the Weil generators of
Sp(2l, r) over GF(p) at (r, l) = (3, 1), (5, 1), (7, 1), (3, 2), of
Sp(2, r) over Q(theta_r) and over GF(2^k) at r = 3, 5, 7, and of Sp(4, 3)
over GF(4), two coefficient planes per row at l = 2.

With --jsonl every row is one JSON object on its own line instead: r, l,
field, checks (the number of checks), failures (id and witness of each
failed check) and duration_s; a closure row has closure and group_order in
place of checks and failures.  The total line is left out.
"""

import argparse
import json
import sys
import time

from spweil.fields import FieldSpec, make_field
from spweil.generators import weil_generators
from spweil.operators import WeilParams
from spweil.symplectic import group_order
from spweil.verification import CapExceeded, closure_order, run_relation_suite

GRID = [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (7, 2), (11, 1), (13, 1)]
CHAR2 = [(3, 1), (3, 2), (5, 1)]
# (r, l) closes over auto-prime; (r, l, kind) names another field family
CLOSURE_SETS = [(3, 1), (5, 1), (7, 1), (3, 2)] + [
    (r, 1, kind) for kind in ("cyclotomic", "auto-char2") for r in (3, 5, 7)] + [
    (3, 2, "auto-char2")]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--closure", action="store_true",
                        help="also run the group-order closure counts")
    parser.add_argument("--jsonl", action="store_true",
                        help="print one JSON object per row")
    args = parser.parse_args()

    failures = 0
    rows = [(kind, r, ell) for r, ell in GRID
            for kind in ("cyclotomic", "auto-prime")]
    rows += [("auto-char2", r, ell) for r, ell in CHAR2]
    grand = time.time()
    for kind, r, ell in rows:
        t0 = time.time()
        ctx = make_field(FieldSpec(kind, r))
        report = run_relation_suite(WeilParams(r, ell, ctx))
        duration = time.time() - t0
        nfail = len(report.failures())
        failures += nfail
        if args.jsonl:
            print(json.dumps({"r": r, "l": ell, "field": ctx.describe(),
                              "checks": len(report.entries),
                              "failures": [{"id": f.id, "witness": f.witness}
                                           for f in report.failures()],
                              "duration_s": round(duration, 4)}))
            continue
        status = "ok" if report.ok else "FAIL"
        print(f"{status:4s} r={r:2d} l={ell} {ctx.describe():10s} "
              f"{len(report.entries):3d} checks, {nfail} failures "
              f"[{duration:6.2f}s]")
        for f in report.failures():
            print(f"     {f.id}: {f.witness}")

    if args.closure:
        for r, ell, *kind in CLOSURE_SETS:
            t0 = time.time()
            ctx = make_field(FieldSpec(kind[0] if kind else "auto-prime", r))
            gens = weil_generators(WeilParams(r, ell, ctx))
            mats = [op.materialize() for _, _, _, op in gens.sp_generating_ops()]
            want = group_order(ell, r)
            try:
                got, exceeded = closure_order(mats, want + 1), None
            except CapExceeded as exc:
                got, exceeded = None, exc
            failures += got != want
            if args.jsonl:
                print(json.dumps({"r": r, "l": ell, "field": ctx.describe(),
                                  "closure": got, "group_order": want,
                                  "duration_s": round(time.time() - t0, 4)}))
            elif exceeded:
                print(f"FAIL r={r} l={ell} {ctx.describe()} closure: {exceeded}")
            else:
                status = "ok" if got == want else "FAIL"
                print(f"{status:4s} r={r:2d} l={ell} {ctx.describe():10s} closure {got} "
                      f"(group order {want}) [{time.time() - t0:6.2f}s]")

    if not args.jsonl:
        print(f"total {time.time() - grand:.1f}s, {failures} failing checks")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
