#!/usr/bin/env python3
"""Digest the CLI's output over a fixed list of runs, to compare two trees.

Usage: PYTHONPATH=src python3 scripts/cli_digest.py [--list]

Every argv of RUNS goes in-process through spweil.cli.main, with stdout
and stderr captured: `gens` in JSON, Magma and GAP; `image`, full and with
each --irreducible (two of the four end in exit 3 in every field); and
`verify --json` and `verify --closure --json`; then `gens --full` in all
three formats for each of FULL_SETS, whose rows a generator set shares
through its row pool.  The fields are
cyclotomic, auto-prime, gf2-auto, gf:13^2, gf:3^4 and gf:4294967311
(GF(2^32 + 15), whose rows pack in 16-byte lanes).  It prints the number
of runs, the histogram of exit codes and one SHA-256 over every run's
argv, exit code, stdout and stderr, in order: two trees with the same
digest gave the same bytes on every run.  --list prints the argv list
instead.
"""

import contextlib
import hashlib
import io
import json
import sys
from collections import Counter

from spweil.cli import main as cli_main

# (field, r, l) and a symplectic 2l x 2l matrix mod r for `image`
SETS = [(field, r, ell) for field in ("cyclotomic", "auto-prime", "gf2-auto")
        for r, ell in ((3, 1), (3, 2), (5, 1))]
SETS += [("gf:13^2", 3, 1), ("gf:13^2", 3, 2), ("gf:13^2", 7, 1), ("gf:3^4", 5, 1),
         ("gf:3^4", 5, 2), ("gf:4294967311", 3, 1), ("gf:4294967311", 3, 2),
         ("gf:4294967311", 5, 1)]
MATRICES = {(3, 1): "2 1 2 0", (3, 2): "0 2 0 1 1 2 0 1 2 0 2 2 1 0 1 0",
            (5, 1): "1 4 3 3", (7, 1): "3 0 5 5", (5, 2): "2 4 4 4 3 4 4 4 3 0 3 1 3 0 1 4"}
# --full generator sets at l >= 3 over GF(p): (5, 3) over GF(11), n = 125
FULL_SETS = [("auto-prime", 5, 3)]
# a closure of Sp(4, r) would take minutes, so at l = 2 the cap skips it
CLOSURE_CAP = {1: "1000000", 2: "1000"}


def runs():
    """The fixed argv list, set by set."""
    out = []
    for field, r, ell in SETS:
        common = ["--r", str(r), "--l", str(ell), "--field", field]
        out += [["gens", *common, "--format", fmt] for fmt in ("json", "magma", "gap")]
        image = ["image", *common, "--g", MATRICES[(r, ell)]]
        out += [image] + [[*image, "--irreducible", mode]
                          for mode in ("plus", "minus", "socle", "quotient")]
        out += [["verify", *common, "--json"],
                ["verify", *common, "--closure", "--cap", CLOSURE_CAP[ell], "--json"]]
    for field, r, ell in FULL_SETS:
        out += [["gens", "--r", str(r), "--l", str(ell), "--field", field, "--full",
                 "--format", fmt] for fmt in ("json", "magma", "gap")]
    return out


def run(argv):
    """(exit code, stdout, stderr) of cli.main(argv) in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def digest(results):
    """SHA-256 over (argv, exit code, stdout, stderr) of each result, each
    field length-prefixed so that no two lists of results share a stream."""
    h = hashlib.sha256()
    for argv, code, out, err in results:
        for part in (json.dumps(argv), str(code), out, err):
            data = part.encode()
            h.update(len(data).to_bytes(8, "big") + data)
    return h.hexdigest()


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if args == ["--list"]:
        for run_argv in runs():
            print(" ".join(run_argv))
        return 0
    results = [(a, *run(a)) for a in runs()]
    codes = Counter(code for _, code, _, _ in results)
    print(f"runs {len(results)}")
    print("exit codes " + " ".join(f"{code}:{count}" for code, count in sorted(codes.items())))
    print(f"sha256 {digest(results)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
