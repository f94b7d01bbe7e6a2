#!/usr/bin/env python3
"""Decompose a pseudorandom symplectic matrix and pull it back through the
Weil representation, printing the word, the matrix, its check against the
word evaluated on every column (weil_image builds it from l + 1 columns),
and the projection roundtrip check.

Usage: python3 scripts/weil_image_demo.py [--r 5] [--l 2] [--seed 7]
       [--field auto-prime]

The parameters are checked as `spweil` checks them: an invalid r, l or
field, or r^l above cli.MAX_DIM, prints an `error:` line and exits 2.
"""

import argparse
import sys

from spweil.cli import EXIT_USAGE, validated_setup
from spweil.fields import InvalidFieldSpec
from spweil.generators import weil_generators
from spweil.heisenberg import pi_map
from spweil.symplectic import decompose, random_element, weil_image, weil_image_op


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--r", type=int, default=5)
    parser.add_argument("--l", type=int, default=2)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--field", default="auto-prime")
    args = parser.parse_args()

    try:
        params = validated_setup(args)
    except InvalidFieldSpec as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    ctx = params.ctx
    gens = weil_generators(params)

    g = random_element(args.l, args.r, args.seed)
    print(f"g in Sp({2 * args.l}, {args.r}), seed {args.seed}:")
    for row in g.rows:
        print("   ", row)

    word = decompose(g)
    pretty = " ".join(t.name + (f"^{t.exp}" if t.exp != 1 else "") for t in word)
    print(f"\nword ({len(word)} tokens): {pretty}")

    mat = weil_image(g, gens, word)
    print(f"\nWeil image over {ctx.describe()} ({params.n} x {params.n}):")
    for row in mat.serialize():
        print("   ", row)

    reference = weil_image_op(g, gens, word).materialize()
    print("\nword-route check:", "ok" if mat == reference else "MISMATCH")
    back = pi_map(mat, params)
    print("projection roundtrip:", "ok" if back == g else "MISMATCH")
    return 0


if __name__ == "__main__":
    sys.exit(main())
