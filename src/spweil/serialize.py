"""Interoperable output: JSON documents plus Magma and GAP text emission.

The JSON document layout is

    {"r": int, "l": int, "field": {...}, "theta": elem, "lambda": elem,
     "version": str, "matrices": {name: [[elem]]}, "word": [tokens]}

with elements encoded per field family (prime: decimal string; extension:
array of k coefficient strings; cyclotomic: array of r-1 "num/den" strings
in lowest terms).  dumps_document is canonical: parsing an emitted document
and re-serialising it reproduces the bytes.

Matrix keys: "C1".."Cl" are the determinant-one lam*C_t; "D12"... and
"U1".."Ul" the other group generators; with extras enabled also "rawC1"...,
"A1"..., "B1"..., "E1"..., "sigma".

All three writers work per distinct entry and per distinct row.  Equal rows
of a generator set are one tuple (generator_matrices' row pool lives for
one call), and a writer keeps each row's text, or its form list in
build_document, by id(row) for one document: documents may share row lists
as they share entry forms.  A matrix's new rows get one table from entry to
text (DenseMatrix.render_rows; at most r + 1 entries in a Weil generator)
and each is a C-level join over it.  dumps_document writes the bytes of
json.dumps(doc, indent=2) + "\n" itself, since the standard library
encodes with its pure-Python encoder whenever indent is set; the tests
keep json.dumps as the reference.
"""

from __future__ import annotations

import functools
import json
import math

from . import __version__
from .symplectic import GenToken


def generator_matrices(gens, full=False):
    """Named, materialised generator matrices in emission order; equal rows
    are one tuple, through one row pool (linalg.sparse_rows) for the call."""
    pool = {}
    out = {GenToken(kind, t, s).name: op.materialize(pool)
           for kind, t, s, op in gens.sp_generating_ops()}
    if full:
        for name, ops in (("rawC", gens.rawC), ("A", gens.A),
                          ("B", gens.B), ("E", gens.E)):
            for t in range(1, gens.ell + 1):
                out[f"{name}{t}"] = ops[t - 1].materialize(pool)
        out["sigma"] = gens.sigma.materialize(pool)
    return out


def serialize_word(word):
    out = []
    for tok in word:
        rec = {"gen": tok.kind, "t": tok.t}
        if tok.kind == "D":
            rec["s"] = tok.s
        rec["exp"] = tok.exp
        out.append(rec)
    return out


def build_document(gens, matrices, word=None):
    ctx, forms = gens.ctx, {}
    doc = {
        "r": gens.r,
        "l": gens.ell,
        "field": ctx.spec_json(),
        "theta": ctx.serialize_elem(ctx.theta),
        "lambda": ctx.serialize_elem(gens.lam),
        "version": __version__,
        "matrices": {name: mat.serialize(forms) for name, mat in matrices.items()},
    }
    if word is not None:
        doc["word"] = serialize_word(word)
    return doc


def dumps_document(doc):
    """Canonical byte form, json.dumps(doc, indent=2) + "\n" byte for byte;
    load + dumps round-trips exactly.  doc holds dicts with str keys, lists,
    tuples, str, int, float, bool and None."""
    return _json_text(doc, "\n", {}, tail="\n")


_encode_str = json.encoder.encode_basestring_ascii


def _json_text(obj, newline, memo, head="", tail=""):
    """head, then obj as json.dumps(obj, indent=2) writes it where newline
    (a line break and the current indent) starts each of its lines, then
    tail.  A container's text is one join of its items' texts, with head
    and tail put on the first and last item, so each level copies its
    bytes once."""
    if isinstance(obj, (list, tuple, dict)) and obj:
        inner = newline + "  "
        if isinstance(obj, dict):
            items = [_json_text(v, inner, memo, _encode_str(k) + ": ")
                     for k, v in obj.items()]
            opening, closing = "{", "}"
        else:
            items = _item_texts(obj, inner, memo)
            opening, closing = "[", "]"
        items[0] = head + opening + inner + items[0]
        items[-1] += newline + closing + tail
        return ("," + inner).join(items)
    if isinstance(obj, str):
        text = _encode_str(obj)
    elif isinstance(obj, int) and not isinstance(obj, bool):
        text = int.__repr__(obj)
    else:
        text = json.dumps(obj)   # None, bool, float, [] or {}
    return head + text + tail


def _item_texts(items, newline, memo):
    """The text of each item where newline starts its lines.  Strings are
    encoded in one C-level map.  Any other item's text is kept in memo by
    indent and id, so an entry form that DenseMatrix.serialize shares
    across a matrix's rows is encoded once; memo lives for one document,
    which keeps every id alive."""
    try:
        return list(map(_encode_str, items))
    except TypeError:   # not every item is a string
        pass
    texts = memo.setdefault(newline, {})
    try:
        return list(map(texts.__getitem__, map(id, items)))
    except KeyError:    # an item not yet seen at this indent
        for x in items:
            if id(x) not in texts:
                texts[id(x)] = _json_text(x, newline, memo)
        return list(map(texts.__getitem__, map(id, items)))


# ---------------------------------------------------------------------------
# Magma / GAP text


def _poly_terms(coeffs, symbol, den=1, unit=""):
    """The nonzero terms (c_i/den) * symbol^i, constant term first, with
    coefficients in lowest terms and a coefficient 1 left out; the constant
    term multiplies unit ("" prints the bare number)."""
    terms = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        g = math.gcd(c, den)
        coeff = str(c // g) if g == den else f"{c // g}/{den // g}"
        power = unit if i == 0 else symbol if i == 1 else f"{symbol}^{i}"
        if not power:
            terms.append(coeff)
        elif coeff == "1":
            terms.append(power)
        elif coeff == "-1":
            terms.append(f"-{power}")
        else:
            terms.append(f"{coeff}*{power}")
    return terms


def _poly(coeffs, symbol, den=1, unit="", zero="0"):
    """An element as a polynomial in symbol, as _poly_terms spells it."""
    terms = _poly_terms(coeffs, symbol, den, unit)
    return " + ".join(terms).replace("+ -", "- ") if terms else zero


def _modulus(modulus, symbol):
    """A defining polynomial, highest degree first."""
    return " + ".join(reversed(_poly_terms(modulus, symbol)))


def _magma_elem(ctx, value):
    if ctx.kind == "prime":
        return str(value)
    if ctx.kind == "extension":
        return _poly(value, "x")
    nums, den = value
    return _poly(nums, "theta", den)


def emit_magma(gens, matrices, out):
    """Write Magma assignments for the field, theta, lambda, and matrices."""
    ctx = gens.ctx
    if ctx.kind == "cyclotomic":
        out.write(f"K := CyclotomicField({gens.r});\n")
        out.write("theta := K.1;\n")
    elif ctx.kind == "prime":
        out.write(f"K := GF({ctx.p});\n")
        out.write(f"theta := K!{ctx.theta};\n")
    else:
        out.write(f"P<X> := PolynomialRing(GF({ctx.p}));\n")
        out.write(f"K<x> := ext<GF({ctx.p}) | {_modulus(ctx.modulus, 'X')}>;\n")
        out.write(f"theta := {_magma_elem(ctx, ctx.theta)};\n")
    out.write(f"lambda := {_magma_elem(ctx, gens.lam)};\n")
    spell, lines = functools.partial(_magma_elem, ctx), {}
    for name, mat in matrices.items():
        out.write(f"{name} := Matrix(K, {mat.nrows}, {mat.ncols}, [\n"
                  f"{_rows_text(mat, spell, '', '', lines)}\n]);\n")


def _rows_text(mat, spell, left, right, lines):
    """One line per row: two spaces, left, the entries as spell writes them
    joined by ", ", then right; the lines joined by ",\n".  lines keeps the
    document's lines (DenseMatrix.render_rows)."""
    return ",\n".join(mat.render_rows(
        spell, lambda entries: f"  {left}{', '.join(entries)}{right}", lines))


def _gap_elem(ctx, value, r):
    if ctx.kind == "prime":
        return f"{value}*Z({ctx.p})^0"
    if ctx.kind == "extension":
        return _poly(value, "a", unit="One(K)", zero="Zero(K)")
    nums, den = value
    return _poly(nums, f"E({r})", den)


def emit_gap(gens, matrices, out):
    """Write GAP assignments for the field, theta, lambda, and matrices."""
    ctx = gens.ctx
    r = gens.r
    if ctx.kind == "cyclotomic":
        out.write(f"K := CyclotomicField({r});;\n")
        out.write(f"theta := E({r});;\n")
    elif ctx.kind == "prime":
        # Z(p) is the smallest primitive root, matching this package's theta
        out.write(f"K := GF({ctx.p});;\n")
        out.write(f"theta := Z({ctx.p})^{(ctx.p - 1) // r};;\n")
    else:
        out.write(f"x_ := Indeterminate(GF({ctx.p}), \"x_\");;\n")
        out.write(f"K := AlgebraicExtension(GF({ctx.p}), {_modulus(ctx.modulus, 'x_')});;\n")
        out.write("a := RootOfDefiningPolynomial(K);;\n")
        out.write(f"theta := {_gap_elem(ctx, ctx.theta, r)};;\n")
    out.write(f"lambda_ := {_gap_elem(ctx, gens.lam, r)};;\n")
    spell, lines = functools.partial(_gap_elem, ctx, r=r), {}
    for name, mat in matrices.items():
        out.write(f"{name} := [\n{_rows_text(mat, spell, '[ ', ' ]', lines)}\n];;\n")


def parse_matrix_text(text, ell, r):
    """Whitespace/comma-separated integers, row-major, reduced mod r."""
    entries = [int(tok) for tok in text.replace(",", " ").split()]
    n = 2 * ell
    if len(entries) != n * n:
        raise ValueError(f"expected {n * n} integers, got {len(entries)}")
    return [[entries[i * n + j] % r for j in range(n)] for i in range(n)]
