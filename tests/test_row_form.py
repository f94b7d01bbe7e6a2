"""One row form per field context: every route that builds a DenseMatrix
gives rows of type ctx.row, bytes over GF(p) with p < 256 and tuples
otherwise, and the same matrix by every route is one value."""

import gc
import io
import json

import pytest

from spweil import serialize
from spweil.fields import (CyclotomicContext, ExtensionFieldContext, FieldSpec,
                           PrimeFieldContext, make_field)
from spweil.generators import weil_generators
from spweil.linalg import DenseMatrix
from spweil.operators import ProductOp, WeilParams

from test_text_parse_back import read_entry, read_matrices

# GF(7), GF(11), GF(29) and GF(311) (tuple rows), GF(4) and Q(theta_3), with
# l = 2 but at r = 7 (n = 49 would make the double inverse slow)
ROUTE_CASES = [(PrimeFieldContext(3, 7), 2), (PrimeFieldContext(5, 11), 2),
               (PrimeFieldContext(7, 29), 1), (PrimeFieldContext(5, 311), 2),
               (ExtensionFieldContext(3, 2, 2), 2), (CyclotomicContext(3), 2)]


def _value(ctx, coeffs):
    """The field value of an emitted entry read as {exponent: coefficient}:
    a residue over GF(p), the coefficients of x^0 .. x^(k-1) over GF(p^k),
    those of theta^0 .. theta^(r-2) over Q(theta)."""
    width = ctx.r - 1 if ctx.kind == "cyclotomic" else ctx.k
    forms = [str(coeffs.get(e, 0)) for e in range(width)]
    return ctx.parse_elem(forms[0] if ctx.kind == "prime" else forms)


def _parsed(gens, mats):
    """Each route of a parse-back, {route: {name: matrix}}: the JSON
    document's entries through ctx.parse_elem, and the Magma and GAP
    texts' entries read back."""
    ctx = gens.ctx
    doc = json.loads(serialize.dumps_document(serialize.build_document(gens, mats)))
    out = {"json": {name: DenseMatrix(ctx, [[ctx.parse_elem(e) for e in row] for row in rows])
                    for name, rows in doc["matrices"].items()}}
    for fmt, emit in (("magma", serialize.emit_magma), ("gap", serialize.emit_gap)):
        text = io.StringIO()
        emit(gens, mats, text)
        out[fmt] = {name: DenseMatrix(ctx, [[_value(ctx, read_entry(e)) for e in row]
                                            for row in rows])
                    for name, (_, rows) in read_matrices(text.getvalue(), fmt).items()}
    return out


@pytest.mark.parametrize("ctx,ell", ROUTE_CASES,
                         ids=[f"{ctx.describe()}-l{ell}" for ctx, ell in ROUTE_CASES])
def test_one_matrix_by_every_route_is_one_value(ctx, ell):
    params = WeilParams(ctx.r, ell, ctx)
    gens = weil_generators(params)
    ops = {"U": gens.U[0], "lamC": gens.lamC[0],
           "product": ProductOp(params, (gens.lamC[0], gens.U[-1], gens.lamC[-1]))}
    mats = {name: op.materialize() for name, op in ops.items()}
    parsed = _parsed(gens, mats)
    identity = DenseMatrix.identity(ctx, params.n)
    assert ctx.row is (bytes if ctx.kind == "prime" and ctx.p < 256 else tuple)
    for name, op in ops.items():
        want = mats[name]
        routes = {
            "product_rows": DenseMatrix(ctx, ctx.product_rows((op,))),
            "mul_rows": DenseMatrix(ctx, identity.mul_rows(want.rows)),
            "transpose": want.transpose().transpose(),
            "columns": DenseMatrix.from_columns(ctx, want.columns()),
            "inverse": want.inverse().inverse(),
            **{route: by_name[name] for route, by_name in parsed.items()},
        }
        for route, mat in [("materialize", want), *routes.items()]:
            assert mat == want and hash(mat) == hash(want), (name, route)
            assert all(type(row) is ctx.row for row in mat.rows), (name, route)
            if ctx.row is bytes:
                assert not any(map(gc.is_tracked, mat.rows)), (name, route)


def test_full_54_set_shares_its_bytes_rows():
    # (5,4) --full over GF(11): 19,375 rows, 7,884 row objects through the
    # row pool, each bytes, which the garbage collector does not track
    ctx = make_field(FieldSpec("auto-prime", 5))
    gens = weil_generators(WeilParams(5, 4, ctx))
    rows = [row for mat in serialize.generator_matrices(gens, full=True).values()
            for row in mat.rows]
    assert len(rows) == 19375
    assert len({id(row) for row in rows}) == len(set(rows)) == 7884
    assert all(type(row) is bytes and not gc.is_tracked(row) for row in rows)
