#!/usr/bin/env python3
"""Record the output digests the benchmark checks at the default seed.

    python3 perfbench/record_digests.py

Documents are produced through the CLI (spweil.cli.main), not through the
benchmark's requests, so the benchmark's check also shows that its
requests give the CLI's bytes.  The acceptance-8 matrices and vector have
no CLI form small enough to emit: the matrices are recorded from
serialize.generator_matrices, the call `spweil gens` makes, and the vector
from the benchmark's apply_word.  Run this only on code whose output is
known to be right, and commit the resulting digests.json.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from spweil.cli import main as cli_main  # noqa: E402
from spweil.serialize import generator_matrices  # noqa: E402

import workloads as wl  # noqa: E402


def cli_output(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main([str(a) for a in argv])
    if code != 0:
        raise SystemExit(f"spweil {' '.join(map(str, argv))} exited with {code}")
    return out.getvalue()


def image_digests():
    out = {}
    for index, (spec, r, ell), which, g in wl.ImageStream(wl.DEFAULT_SEED).plan():
        argv = ["image", "--r", r, "--l", ell, "--field", spec,
                "--g", " ".join(str(x) for row in g.rows for x in row)]
        if which:
            argv += ["--irreducible", which]
        out[str(index)] = wl.sha256(cli_output(argv))
    return out


def gens_digests():
    out = {}
    for fmt, spec, r, ell, full in wl.GENS_DOCUMENTS:
        argv = ["gens", "--r", r, "--l", ell, "--field", spec, "--format", fmt]
        if full:
            argv.append("--full")
        out[wl.document_key(fmt, spec, r, ell, full)] = wl.sha256(cli_output(argv))
    gens = wl.generators.weil_generators(wl.make_params(*wl.ACC8_SET))
    word = wl.acc8_word(wl.DEFAULT_SEED)
    _, result = wl.apply_word(gens, word, wl.acc8_vector(gens))
    out["acc8:matrices"] = wl.matrices_digest(generator_matrices(gens, full=True))
    out["acc8:vector"] = wl.vector_digest(result)
    return out


def main():
    digests = {"gens_emit": gens_digests(), "image_stream": image_digests()}
    wl.DIGEST_FILE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {wl.DIGEST_FILE}")


if __name__ == "__main__":
    main()
