"""Command-line front end.

    spweil gens   --r 3 --l 1 --field auto-prime --format json
    spweil image  --r 3 --l 1 --g "1 1 0 1" [--irreducible minus]
    spweil verify --r 3 --l 2 --field cyclotomic [--closure]

Exit codes: 0 success, 2 invalid arguments, 3 invalid mathematical input,
4 verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from .fields import InvalidFieldSpec, is_prime, make_field, parse_field_spec
from .generators import weil_generators
from .heisenberg import DoesNotNormalize
from .operators import WeilParams
from .serialize import (build_document, dumps_document, emit_gap, emit_magma,
                        generator_matrices, parse_matrix_text)
from .submodules import WrongCharacteristic, weil_image_irreducible
from .symplectic import (NotSymplectic, SpMatrix, decompose, group_order,
                         weil_image)
from .verification import CapExceeded, closure_order, params_label, run_relation_suite

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MATH = 3
EXIT_VERIFY = 4

# Largest dimension n = r^l accepted: generator matrices have n^2 entries
# each, so this keeps one at no more than 4 * 10^6 entries.
MAX_DIM = 2000

# Longest --g file read, in characters.  Under MAX_DIM l is at most 6, so
# a valid matrix is 144 integers, each within Python's 4,300-digit int
# limit: about 620 KB with signs and separators.  A longer file (or a
# device or pipe that never ends) is refused after this many characters.
MAX_MATRIX_TEXT = 2 ** 20

# Largest closure verify starts, in bytes: the group order times the size
# of one generator matrix, about what a breadth-first search keeps.
MAX_CLOSURE_BYTES = 2 ** 31


def _common_flags(sub):
    sub.add_argument("--r", type=int, required=True, help="odd prime r")
    sub.add_argument("--l", type=int, required=True, help="number of hyperbolic pairs")
    sub.add_argument("--field", default="auto-prime",
                     help="cyclotomic | auto-prime | gf:p | gf:p^k | gf2-auto")
    sub.add_argument("--out", default=None, help="output path (default stdout)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="spweil",
        description="Exact Weil representation generators for Sp(2l, r)")
    subs = parser.add_subparsers(dest="command", required=True)

    gens = subs.add_parser("gens", help="emit the generator matrices")
    _common_flags(gens)
    gens.add_argument("--format", choices=("json", "magma", "gap"), default="json")
    gens.add_argument("--full", action="store_true",
                      help="include the normalizer extras A_t, B_t, C_t, E_t, sigma")

    image = subs.add_parser("image", help="Weil image of a symplectic matrix")
    _common_flags(image)
    image.add_argument("--format", choices=("json", "magma", "gap"), default="json")
    image.add_argument("--g", required=True,
                       help="2l x 2l integer matrix, inline or a file path")
    image.add_argument("--irreducible",
                       choices=("plus", "minus", "socle", "quotient"), default=None)

    verify = subs.add_parser("verify", help="run the identity verification suite")
    _common_flags(verify)
    verify.add_argument("--closure", action="store_true",
                        help="also count the generated matrix group by closure")
    verify.add_argument("--cap", type=int, default=10 ** 6)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the report as JSON instead of a summary")
    return parser


def validated_setup(args):
    """WeilParams from args.r, args.l and args.field, or InvalidFieldSpec
    before any field or matrix is built."""
    if args.r < 3:
        raise InvalidFieldSpec("r must be an odd prime")
    if args.l < 1:
        raise InvalidFieldSpec("l must be >= 1")
    # r >= 3 > 2, so r^l is formed only for l below MAX_DIM.bit_length()
    if args.l >= MAX_DIM.bit_length() or args.r ** args.l > MAX_DIM:
        raise InvalidFieldSpec(f"dimension r^l = {args.r}^{args.l} exceeds "
                               f"the limit {MAX_DIM}")
    if not is_prime(args.r):
        raise InvalidFieldSpec("r must be an odd prime")
    spec = parse_field_spec(args.field, args.r)
    ctx = make_field(spec)
    return WeilParams(args.r, args.l, ctx)


@contextlib.contextmanager
def _output(args):
    """The file named by --out, closed afterwards, or stdout."""
    if not args.out:
        yield sys.stdout
        return
    with open(args.out, "w") as out:
        yield out


def _write_matrices(args, gens, matrices, word=None, **extra):
    """Write the matrices in args.format to --out or stdout; a JSON document
    also carries the word and then the extra keys."""
    with _output(args) as out:
        if args.format == "json":
            doc = build_document(gens, matrices, word=word)
            out.write(dumps_document({**doc, **extra}))
        elif args.format == "magma":
            emit_magma(gens, matrices, out)
        else:
            emit_gap(gens, matrices, out)
    return EXIT_OK


def cmd_gens(args):
    gens = weil_generators(validated_setup(args))
    return _write_matrices(args, gens, generator_matrices(gens, full=args.full))


def _read_matrix(args, params):
    text = args.g
    if os.path.exists(text):
        with open(text) as fh:
            text = fh.read(MAX_MATRIX_TEXT + 1)
        if len(text) > MAX_MATRIX_TEXT:
            raise ValueError(f"{args.g} is longer than {MAX_MATRIX_TEXT} characters")
    rows = parse_matrix_text(text, params.ell, params.r)
    return SpMatrix(params.r, rows)


def cmd_image(args):
    params = validated_setup(args)
    try:
        g = _read_matrix(args, params)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    gens = weil_generators(params)
    word = decompose(g)
    if args.irreducible:
        mat = weil_image_irreducible(g, gens, args.irreducible, word)
        name = f"g_weil_{args.irreducible}"
    else:
        mat = weil_image(g, gens, word)
        name = "g_weil"
    return _write_matrices(args, gens, {name: mat}, word=word, input=g.serialize())


def _matrix_bytes(mat):
    """sys.getsizeof summed over mat's rows and each distinct object in its
    entries, nested tuples included, each row counted as the tuple of its
    entries: a bytes row (ctx.row over GF(p), p < 256) stands for that
    tuple, so the estimate does not depend on the row form."""
    sizes, stack = {}, [mat.rows]
    while stack:
        obj = stack.pop()
        if id(obj) not in sizes:
            items = tuple(obj) if isinstance(obj, (tuple, bytes)) else ()
            sizes[id(obj)] = sys.getsizeof(items if isinstance(obj, bytes) else obj)
            stack.extend(items)
    return sum(sizes.values())


def _check_closure(report, args, gens):
    """Record closure-order, or skip it when the group order passes --cap or
    the search would need more than MAX_CLOSURE_BYTES."""
    pstr = params_label(gens.params)
    expected = group_order(args.l, args.r)
    if expected > args.cap:
        return report.skip("closure-order", pstr,
                           f"group order {expected} exceeds cap {args.cap}")
    mats = [op.materialize() for _, _, _, op in gens.sp_generating_ops()]
    need = expected * max(map(_matrix_bytes, mats))
    if need > MAX_CLOSURE_BYTES:
        return report.skip("closure-order", pstr,
                           f"closure of {expected} elements needs about {need} "
                           f"bytes, above the limit of {MAX_CLOSURE_BYTES}")
    try:
        count = closure_order(mats, args.cap)
    except CapExceeded as exc:
        return report.skip("closure-order", pstr, str(exc))
    report.record("closure-order", pstr, () if count == expected else
                  [f"closure gave {count}, expected {expected}"])


def cmd_verify(args):
    if args.cap < 1:
        print("error: --cap must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    params = validated_setup(args)
    gens = weil_generators(params)
    report = run_relation_suite(params, seed=args.seed, gens=gens)
    if args.closure:
        _check_closure(report, args, gens)
    with _output(args) as out:
        if args.as_json:
            out.write(dumps_document(report.to_json()))
        else:
            out.write(report.summary() + "\n")
    return EXIT_OK if report.ok else EXIT_VERIFY


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "gens":
            return cmd_gens(args)
        if args.command == "image":
            return cmd_image(args)
        return cmd_verify(args)
    except InvalidFieldSpec as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # a path named on the command line cannot be opened
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NotSymplectic, DoesNotNormalize, WrongCharacteristic) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH


if __name__ == "__main__":
    sys.exit(main())
