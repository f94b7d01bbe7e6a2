import functools
import itertools
import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spweil.fields import FieldSpec, make_field
from spweil.linalg import DenseMatrix, SingularMatrix, sparse_rows
from spweil.operators import WeilParams
from spweil.generators import op_A, op_C, op_D


def _random_matrix(ctx, n, rng):
    if ctx.kind == "prime":
        return DenseMatrix(ctx, [[rng.randrange(ctx.p) for _ in range(n)]
                                 for _ in range(n)])
    return DenseMatrix(ctx, [[ctx.from_int(rng.randrange(-4, 5)) for _ in range(n)]
                             for _ in range(n)])


def test_identity_and_trace(gf7):
    eye = DenseMatrix.identity(gf7, 4)
    assert eye.det() == gf7.one
    assert eye.trace() == gf7.from_int(4)


@given(n=st.integers(1, 30), data=st.data())
@settings(max_examples=60, deadline=None)
def test_sparse_rows_place_each_block(n, data):
    # the row for (b, c) is zero but for blocks[b] at c, c + stride, ...,
    # built here entry by entry
    stride = data.draw(st.integers(1, n))
    width = data.draw(st.integers(1, (n - 1) // stride + 1))
    blocks = data.draw(st.lists(st.lists(st.integers(1, 9), min_size=width, max_size=width)
                                .map(tuple), min_size=1, max_size=4))
    starts = data.draw(st.lists(st.tuples(st.integers(0, len(blocks) - 1),
                                          st.integers(0, n - 1 - (width - 1) * stride)),
                                max_size=8))
    want = []
    for b, c in starts:
        row = [0] * n
        for k, v in enumerate(blocks[b]):
            row[c + k * stride] = v
        want.append(tuple(row))
    assert sparse_rows(0, n, blocks, starts, stride) == tuple(want)
    assert sparse_rows(0, n, blocks, starts, stride, row=bytes) == tuple(map(bytes, want))
    # through a pool the rows are the same, and a second call returns the
    # first call's row objects, one per distinct row
    pool = {}
    first = sparse_rows(0, n, blocks, starts, stride, pool)
    again = sparse_rows(0, n, blocks[::-1], [(len(blocks) - 1 - b, c) for b, c in starts],
                        stride, pool)
    assert first == tuple(want) and all(map(operator.is_, first, again))
    assert len({id(row) for row in first}) == len(set(want))


def test_det_of_C_over_gf7(gf7):
    # independent 3x3 elimination oracle: expansion by the first row
    params = WeilParams(3, 1, gf7)
    C = op_C(params, 1).materialize()
    rows = C.rows
    # cofactor expansion, all arithmetic mod 7
    a, b, c = rows[0]
    d, e, f = rows[1]
    g, h, i = rows[2]
    cof = (a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)) % 7
    assert cof == 6
    assert C.det() == 6
    # consistency: det(C)^2 = (-1) * 3^3 mod 7
    assert (6 * 6) % 7 == (-27) % 7


def test_det_multiplicative(gf7, cyc3):
    for ctx in (gf7, cyc3):
        rng = random.Random(11)
        for _ in range(10):
            a = _random_matrix(ctx, 3, rng)
            b = _random_matrix(ctx, 3, rng)
            assert (a * b).det() == ctx.mul(a.det(), b.det())


def test_inverse_contract(gf7, cyc3):
    rng = random.Random(5)
    for ctx in (gf7, cyc3):
        eye = DenseMatrix.identity(ctx, 3)
        found = 0
        while found < 5:
            m = _random_matrix(ctx, 3, rng)
            if m.det() == ctx.zero:
                continue
            found += 1
            assert m.inverse() * m == eye
            assert m * m.inverse() == eye


DET_FIELDS = {name: make_field(FieldSpec(kind, 3)) for name, kind in
              (("Q(theta3)", "cyclotomic"), ("GF(7)", "auto-prime"), ("GF(4)", "auto-char2"))}


def _leibniz_det(ctx, rows):
    """sum over permutations p of sign(p) * prod_i rows[i][p(i)]."""
    n = len(rows)
    acc = ctx.zero
    for perm in itertools.permutations(range(n)):
        term = ctx.one
        for i, j in enumerate(perm):
            term = ctx.mul(term, rows[i][j])
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        acc = ctx.sub(acc, term) if inversions % 2 else ctx.add(acc, term)
    return acc


@given(field=st.sampled_from(sorted(DET_FIELDS)), n=st.integers(1, 4),
       coeffs=st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                       min_size=16, max_size=16),
       singular=st.sampled_from([None, "zero column", "row combination"]))
@settings(max_examples=80, deadline=None)
def test_det_matches_leibniz_expansion(field, n, coeffs, singular):
    # entries a + b * theta reach every element of GF(4) and non-rational
    # ones of Q(theta); a singular matrix gets a zero column or a last row
    # that is the sum of the others
    ctx = DET_FIELDS[field]
    elems = [ctx.add(ctx.from_int(a), ctx.mul(ctx.from_int(b), ctx.theta)) for a, b in coeffs]
    rows = [elems[i * n:(i + 1) * n] for i in range(n)]
    if singular == "zero column":
        for row in rows:
            row[-1] = ctx.zero
    elif singular == "row combination" and n > 1:
        rows[-1] = [functools.reduce(ctx.add, col) for col in zip(*rows[:-1])]
    else:
        singular = None
    m = DenseMatrix(ctx, rows)
    assert m.det() == _leibniz_det(ctx, rows)
    if singular:
        assert m.det() == ctx.zero


def test_singular_matrix_raises(gf7):
    m = DenseMatrix(gf7, [[1, 2], [2, 4]])
    assert m.det() == 0
    with pytest.raises(SingularMatrix):
        m.inverse()


def test_kron_identity(gf7, kron):
    m = DenseMatrix(gf7, [[1, 2], [3, 4]])
    eye1 = DenseMatrix.identity(gf7, 1)
    assert kron(eye1, m) == m
    assert kron(m, eye1) == m


def test_kron_matches_tensor_slots(gf7, kron):
    # kron(A, I_3) = materialize(A_1) and kron(I_3, A) = materialize(A_2) at l=2
    p1 = WeilParams(3, 1, gf7)
    p2 = WeilParams(3, 2, gf7)
    A = op_A(p1, 1).materialize()
    eye3 = DenseMatrix.identity(gf7, 3)
    assert kron(A, eye3) == op_A(p2, 1).materialize()
    assert kron(eye3, A) == op_A(p2, 2).materialize()
    C = op_C(p1, 1).materialize()
    assert kron(C, eye3) == op_C(p2, 1).materialize()
    assert kron(eye3, C) == op_C(p2, 2).materialize()


@given(seed=st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_kron_associative(seed, kron):
    ctx = make_field(FieldSpec("auto-prime", 3))
    rng = random.Random(seed)
    a = _random_matrix(ctx, 2, rng)
    b = _random_matrix(ctx, 2, rng)
    c = _random_matrix(ctx, 2, rng)
    assert kron(kron(a, b), c) == kron(a, kron(b, c))


def test_kron_mixed_context_rejected(gf7, gf11, kron):
    a = DenseMatrix.identity(gf7, 2)
    b = DenseMatrix.identity(gf11, 2)
    with pytest.raises(ValueError):
        kron(a, b)
    with pytest.raises(ValueError):
        a * b


def test_det_D12_is_one(gf7, cyc3):
    for ctx in (gf7, cyc3):
        params = WeilParams(3, 2, ctx)
        D = op_D(params, 1, 2).materialize()
        assert D.det() == ctx.one


def test_apply_matches_columns(cyc3):
    params = WeilParams(3, 1, cyc3)
    C = op_C(params, 1).materialize()
    v = [cyc3.one, cyc3.theta, cyc3.zero]
    out = C.apply(v)
    cols = C.columns()
    expect = [cyc3.add(cols[0][i], cyc3.mul(cyc3.theta, cols[1][i])) for i in range(3)]
    assert out == expect
