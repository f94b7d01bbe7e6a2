import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spweil.fields import (LANE_LIMIT, CyclotomicContext, FieldSpec, PackedRows, PlaneRows,
                           PrimeFieldContext, lane_division, make_field)
from spweil.linalg import DenseMatrix
from spweil.operators import (DenseOp, FourierOp, MonomialOp, ProductOp,
                              ScalarOp, WeilParams, first_difference, flat_index,
                              identity_op, index_vectors, negation_monomial,
                              operators_equal)
from spweil.generators import (lambda_scalar, op_A, op_B, op_C, op_D, op_E, op_U,
                               sigma_involution, weil_generators)
from spweil.heisenberg import pi_map
from spweil.symplectic import SpMatrix, random_element, weil_image_op
from spweil.verification import structured_generator


def _random_vec(ctx, n, rng):
    if ctx.kind == "prime":
        return [rng.randrange(ctx.p) for _ in range(n)]
    return [ctx.from_int(rng.randrange(-5, 6)) for _ in range(n)]


def test_flat_index_convention():
    # xi_1 is the most significant digit
    assert flat_index((1, 0), 3) == 3
    assert flat_index((0, 1), 3) == 1
    assert flat_index((2, 2), 3) == 8
    vecs = index_vectors(3, 2)
    assert vecs[3] == (1, 0)
    assert [flat_index(v, 3) for v in vecs] == list(range(9))


def test_scalar_op(gf7):
    params = WeilParams(3, 1, gf7)
    op = ScalarOp(params, 4)
    assert op.apply([1, 2, 3]) == [4, 1, 5]
    assert op.materialize() == DenseMatrix.identity(gf7, 3).scale(4)


def test_monomial_shift_example(gf7):
    # B e_0 = e_1
    params = WeilParams(3, 1, gf7)
    B = op_B(params, 1)
    assert B.apply([1, 0, 0]) == [0, 1, 0]
    assert B.apply([0, 1, 0]) == [0, 0, 1]
    assert B.apply([0, 0, 1]) == [1, 0, 0]


def test_fourier_apply_example(gf7):
    # C e_1 = (1, theta, theta^2) = (1, 2, 4) over GF(7)
    params = WeilParams(3, 1, gf7)
    C = op_C(params, 1)
    assert C.apply([0, 1, 0]) == [1, 2, 4]


def test_fourier_materialize_cyclotomic(cyc3):
    # rows (1,1,1), (1,theta,theta^2), (1,theta^2,theta)
    params = WeilParams(3, 1, cyc3)
    C = op_C(params, 1).materialize()
    th = cyc3.theta
    th2 = cyc3.mul(th, th)
    one = cyc3.one
    assert C.rows == ((one, one, one), (one, th, th2), (one, th2, th))


def test_apply_matches_materialize_on_random_vectors(gf7, cyc3):
    for ctx in (gf7, cyc3):
        for ell in (1, 2):
            params = WeilParams(3, ell, ctx)
            ops = [op_A(params, 1), op_B(params, ell), op_C(params, 1),
                   op_E(params, ell), op_U(params, 1), sigma_involution(params),
                   ScalarOp(params, ctx.theta)]
            if ell == 2:
                ops.append(op_D(params, 1, 2))
            rng = random.Random(3)
            for op in ops:
                mat = op.materialize()
                for _ in range(20):
                    v = _random_vec(ctx, params.n, rng)
                    assert op.apply(v) == mat.apply(v)


def test_product_materialize_is_ordered_matmul(gf7):
    params = WeilParams(3, 2, gf7)
    a, b, c = op_C(params, 1), op_D(params, 1, 2), op_U(params, 2)
    prod = ProductOp(params, (a, b, c))
    assert prod.materialize() == a.materialize() * b.materialize() * c.materialize()


def test_operator_inverses(gf7, cyc3, gf4):
    for ctx in (gf7, cyc3, gf4):
        params = WeilParams(3, 2, ctx)
        ident = identity_op(params)
        ops = [op_A(params, 2), op_B(params, 1), op_C(params, 2),
               op_U(params, 1), op_D(params, 1, 2), sigma_involution(params),
               ScalarOp(params, ctx.theta),
               DenseOp(params, op_C(params, 1).materialize()),
               op_C(params, 1) * op_D(params, 1, 2)]
        for op in ops:
            assert operators_equal(op * op.inverse(), ident)
            assert operators_equal(op.inverse() * op, ident)


def test_monomial_compose_matches_product(gf7):
    params = WeilParams(3, 2, gf7)
    x = op_A(params, 1)
    y = op_B(params, 2)
    assert x.compose(y).materialize() == x.materialize() * y.materialize()


def test_monomial_det(gf7, cyc3):
    for ctx in (gf7, cyc3):
        params = WeilParams(3, 1, ctx)
        assert op_U(params, 1).det() == op_U(params, 1).materialize().det()
        assert sigma_involution(params).det() == \
            sigma_involution(params).materialize().det()


def test_negation_monomial_is_involution(gf7):
    params = WeilParams(3, 2, gf7)
    sig = negation_monomial(params)
    assert operators_equal(sig * sig, identity_op(params))
    # slot negation only touches its slot
    n1 = negation_monomial(params, 1)
    vecs = index_vectors(3, 2)
    for j, xi in enumerate(vecs):
        target = ((-xi[0]) % 3, xi[1])
        assert n1.perm[j] == flat_index(target, 3)


def test_pow_and_dimension_mismatch(gf7):
    params = WeilParams(3, 1, gf7)
    B = op_B(params, 1)
    assert operators_equal(B ** 3, identity_op(params))
    assert operators_equal(B ** 0, identity_op(params))
    assert operators_equal(B ** -1, B * B)
    with pytest.raises(ValueError):
        op_C(params, 2)  # slot out of range


# Q(theta_3), Q(theta_5), GF(7), GF(11), GF(4)
FAST_PATH_CTXS = [
    FieldSpec("cyclotomic", 3),
    FieldSpec("cyclotomic", 5),
    FieldSpec("auto-prime", 3),
    FieldSpec("auto-prime", 5),
    FieldSpec("auto-char2", 3),
]


def _element(ctx, rng):
    """sum_i (c_i / d_i) theta^i with small random c_i, d_i: over Q(theta)
    the terms have mixed denominators (a d_i that is 0 in ctx counts as 1)."""
    acc = ctx.zero
    for i in range(ctx.r - 1):
        den = ctx.from_int(rng.randrange(1, 7))
        if den == ctx.zero:
            den = ctx.one
        term = ctx.mul(ctx.from_int(rng.randrange(-4, 5)), ctx.inv(den))
        acc = ctx.add(acc, ctx.mul(term, ctx.theta_pow[i]))
    return acc


def _nonzero_element(ctx, rng):
    while True:
        a = _element(ctx, rng)
        if a != ctx.zero:
            return a


def _dense_fourier(params, t, scale):
    """scale * C_t entry by entry from theta_pow: theta^(eta_t * xi_t) where
    eta and xi agree outside slot t."""
    ctx, r = params.ctx, params.r
    vecs = index_vectors(r, params.ell)
    rows = []
    for eta in vecs:
        row = []
        for xi in vecs:
            same = all(a == b for k, (a, b) in enumerate(zip(eta, xi)) if k != t - 1)
            row.append(ctx.mul(scale, ctx.theta_pow[eta[t - 1] * xi[t - 1] % r])
                       if same else ctx.zero)
        rows.append(row)
    return DenseMatrix(ctx, rows)


@pytest.mark.parametrize("spec", FAST_PATH_CTXS, ids=str)
@pytest.mark.parametrize("ell", [1, 2, 3])
@given(seed=st.integers(0, 2 ** 32))
@settings(max_examples=4, deadline=None)
def test_fourier_apply_matches_dense_kernel(spec, ell, seed):
    ctx = make_field(spec)
    params = WeilParams(ctx.r, ell, ctx)
    rng = random.Random(seed)
    scales = [ctx.one, ctx.inv(ctx.from_int(ctx.r)), _nonzero_element(ctx, rng)]
    for t in range(1, ell + 1):
        stride = ctx.r ** (ell - t)
        for scale in scales:
            dense = _dense_fourier(params, t, scale)
            # zero out single entries, and whole slot-t fibres at random
            vec = [_element(ctx, rng) if rng.random() < 0.8 else ctx.zero
                   for _ in range(params.n)]
            dropped = {}
            for j in range(params.n):
                fibre = (j // (stride * ctx.r), j % stride)
                if dropped.setdefault(fibre, rng.random() < 0.4):
                    vec[j] = ctx.zero
            assert FourierOp(params, t, scale).apply(vec) == dense.apply(vec)


def _column_walk(op):
    """op's matrix from op.apply on every basis vector e_j, column j the
    image of e_j: the reference for MonomialOp.materialize and
    FourierOp.materialize."""
    ctx, n = op.ctx, op.n
    basis = [ctx.zero] * n
    cols = []
    for j in range(n):
        basis[j] = ctx.one
        cols.append(op.apply(basis))
        basis[j] = ctx.zero
    return DenseMatrix.from_columns(ctx, cols)


class _ShiftedFourier(FourierOp):
    """B_t * scale * C_t: still I (x) K (x) I in slot t, with K the kernel's
    rows shifted down by one, so K is not symmetric and a transposed
    placement of it shows."""

    __slots__ = ()

    def apply(self, vec):
        return op_B(self.params, self.t).apply(super().apply(vec))


@pytest.mark.parametrize("spec", FAST_PATH_CTXS, ids=str)
@pytest.mark.parametrize("ell", [1, 2, 3])
def test_fourier_materialize_matches_column_walk(spec, ell):
    # the slot block placed as I (x) K (x) I, in every slot, with scale one,
    # lambda and a random nonzero scale; det, trace and the recognition of
    # the matrix are those of the walk's matrix
    ctx = make_field(spec)
    params = WeilParams(ctx.r, ell, ctx)
    rng = random.Random(ell)
    for t in range(1, ell + 1):
        for scale in (ctx.one, lambda_scalar(ctx.r, ctx), _nonzero_element(ctx, rng)):
            op = FourierOp(params, t, scale)
            walk = _column_walk(op)
            assert op.materialize() == walk
            shifted = _ShiftedFourier(params, t, scale)
            assert shifted.materialize() == _column_walk(shifted)
            found = structured_generator(walk)
            assert isinstance(found, FourierOp) and (found.t, found.scale) == (t, scale)
            if params.n <= 25:
                assert (op.det(), op.trace()) == (walk.det(), walk.trace())


@pytest.mark.parametrize("spec", FAST_PATH_CTXS, ids=str)
@pytest.mark.parametrize("ell", [1, 2, 3])
def test_monomial_materialize_matches_column_walk(spec, ell):
    # every monomial generator in every slot (D_st for every s < t), sigma,
    # each slot negation, and for each slot a scaled compose of a shift
    # with another generator: scaled entries off the diagonal
    ctx = make_field(spec)
    params = WeilParams(ctx.r, ell, ctx)
    rng = random.Random(ell)
    ops = [sigma_involution(params), negation_monomial(params)]
    for t in range(1, ell + 1):
        ops += [op_A(params, t), op_B(params, t), op_E(params, t), op_U(params, t),
                negation_monomial(params, t)]
        ops += [op_D(params, s, t) for s in range(1, t)]
    for t in range(1, ell + 1):
        scale = _nonzero_element(ctx, rng)
        while scale == ctx.one:
            scale = _nonzero_element(ctx, rng)
        shift = ScalarOp(params, scale).compose(op_B(params, t))
        ops.append(shift.compose(rng.choice(ops)))
    assert any(op.scale != ctx.one and op.perm != tuple(range(params.n)) for op in ops)
    for op in ops:
        assert op.materialize() == _column_walk(op)


class _TupleRowsOnly(DenseMatrix):
    """A DenseMatrix that takes tuple rows only, so a materialisation that
    builds list rows for DenseMatrix to copy fails."""

    __slots__ = ()

    def __init__(self, ctx, rows):
        rows = tuple(rows)
        assert all(type(row) is tuple for row in rows)
        super().__init__(ctx, rows)


@pytest.mark.parametrize("spec", FAST_PATH_CTXS, ids=str)
def test_materialized_rows_are_built_as_tuples(spec, monkeypatch):
    # monomial, Fourier, identity and product materialisations hand
    # DenseMatrix tuple rows, and DenseMatrix keeps them as they are
    ctx = make_field(spec)
    params = WeilParams(ctx.r, 2, ctx)
    lam = lambda_scalar(ctx.r, ctx)
    ops = [op_U(params, 1), op_B(params, 2).compose(ScalarOp(params, lam)),
           FourierOp(params, 1), FourierOp(params, 2, lam), identity_op(params),
           ProductOp(params, (op_C(params, 1), op_D(params, 1, 2), op_C(params, 2))),
           ProductOp(params, ())]
    monkeypatch.setattr("spweil.operators.DenseMatrix", _TupleRowsOnly)
    mats = [op.materialize() for op in ops] + [_TupleRowsOnly.identity(ctx, params.n)]
    for mat in mats:
        assert type(mat) is _TupleRowsOnly
        assert all(type(row) is tuple for row in mat.rows)
        assert all(DenseMatrix(ctx, mat.rows).rows[i] is row for i, row in enumerate(mat.rows))


def _random_monomial(params, rng, scale):
    perm = list(range(params.n))
    rng.shuffle(perm)
    return MonomialOp(params, perm, [rng.randrange(params.r) for _ in perm], scale)


@pytest.mark.parametrize("spec", FAST_PATH_CTXS, ids=str)
@given(seed=st.integers(0, 2 ** 32))
@settings(max_examples=10, deadline=None)
def test_monomial_algebra_matches_dense(spec, seed):
    ctx = make_field(spec)
    params = WeilParams(ctx.r, 2, ctx)
    rng = random.Random(seed)
    scales = [ctx.one, ctx.neg(ctx.one), ctx.from_int(ctx.r), ctx.theta,
              _nonzero_element(ctx, rng)]
    for s1 in scales:
        x = _random_monomial(params, rng, s1)
        y = _random_monomial(params, rng, rng.choice(scales))
        X, Y = x.materialize(), y.materialize()
        assert x.compose(y).materialize() == X * Y
        assert x.inverse().materialize() == X.inverse()
        assert x.det() == X.det()
        assert (x ** 3).materialize() == X * X * X
        assert (x ** -2).materialize() == (X * X).inverse()
        assert x.commutator(y).materialize() == X * Y * X.inverse() * Y.inverse()
        v = [_element(ctx, rng) for _ in range(params.n)]
        assert x.apply(v) == X.apply(v)
        assert [X.rows[p][j] for j, p in enumerate(x.perm)] == \
            [ctx.mul(x.scale, ctx.theta_pow[e]) for e in x.expo]
        assert x.trace() == X.trace()


@pytest.mark.parametrize("spec", FAST_PATH_CTXS, ids=str)
@given(seed=st.integers(0, 2 ** 32))
@settings(max_examples=10, deadline=None)
def test_monomial_equality_up_to_theta_shift(spec, seed):
    ctx = make_field(spec)
    r = ctx.r
    params = WeilParams(r, 2, ctx)
    rng = random.Random(seed)
    c = _nonzero_element(ctx, rng)
    x = _random_monomial(params, rng, c)
    # c * theta^e and (c * theta) * theta^(e - 1) are the same operator
    y = MonomialOp(params, x.perm, [(e - 1) % r for e in x.expo], ctx.mul(c, ctx.theta))
    assert x == y and x.materialize() == y.materialize()
    j = rng.randrange(params.n)
    bumped = list(x.expo)
    bumped[j] = (bumped[j] + rng.randrange(1, r)) % r
    for other in (MonomialOp(params, x.perm, bumped, c),
                  MonomialOp(params, x.perm, x.expo, ctx.mul(c, ctx.theta)),
                  MonomialOp(params, x.perm, x.expo, ctx.mul(c, ctx.add(ctx.one, ctx.theta)))):
        assert x != other
        assert x.materialize() != other.materialize()
    swapped = list(x.perm)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    assert x != MonomialOp(params, swapped, x.expo, c)


@pytest.mark.parametrize("spec", FAST_PATH_CTXS, ids=str)
@given(seed=st.integers(0, 2 ** 32))
@settings(max_examples=5, deadline=None)
def test_mul_rows_matches_dense_product(spec, seed):
    # ctx.product_rows((op,), M.rows) and the dense mul_rows are the rows of
    # op * M, for a monomial, a Fourier kernel and a product
    ctx = make_field(spec)
    params = WeilParams(ctx.r, 2, ctx)
    rng = random.Random(seed)
    m = DenseMatrix(ctx, [[_element(ctx, rng) if rng.random() < 0.7 else ctx.zero
                           for _ in range(params.n)] for _ in range(params.n)])
    scales = [ctx.one, ctx.neg(ctx.one), ctx.theta, _nonzero_element(ctx, rng)]
    ops = [_random_monomial(params, rng, s) for s in scales]
    ops += [FourierOp(params, t, s) for t in (1, 2) for s in scales[::3]]
    ops.append(ProductOp(params, (ops[0], ops[-1])))
    for op in ops:
        dense = op.materialize()
        want = (dense * m).rows
        assert ctx.product_rows((op,), m.rows) == want
        assert dense.mul_rows(m.rows) == want


# Q(theta_3), GF(7) and GF(4) at l = 1..3 (n up to 27), and GF(11) at l = 1, 2
ROW_KERNEL_CASES = [(FieldSpec(kind, 3), ell) for kind in ("cyclotomic", "auto-prime", "auto-char2")
                    for ell in (1, 2, 3)] + [(FieldSpec("auto-prime", 5), ell) for ell in (1, 2)]


@pytest.mark.parametrize("spec,ell", ROW_KERNEL_CASES, ids=str)
@given(seed=st.integers(0, 2 ** 32))
@settings(max_examples=3, deadline=None)
def test_row_kernels_match_column_route(spec, ell, seed):
    # ctx.product_rows((op,), rows) (packed rows over GF(p), planes over
    # Q(theta)) and the dense product against the column route, which sends
    # each column through apply; M has zero entries and whole zero rows
    ctx = make_field(spec)
    params = WeilParams(ctx.r, ell, ctx)
    rng = random.Random(seed)
    rows = tuple(tuple(_element(ctx, rng) if rng.random() < 0.7 else ctx.zero
                       for _ in range(params.n)) if rng.random() < 0.8
                 else (ctx.zero,) * params.n for _ in range(params.n))
    scales = [ctx.one, ctx.inv(ctx.from_int(ctx.r)), _nonzero_element(ctx, rng)]
    ops = [FourierOp(params, t, s) for t in range(1, ell + 1) for s in scales]
    ops += [_random_monomial(params, rng, ctx.one), _random_monomial(params, rng, ctx.theta),
            negation_monomial(params)]
    for op in ops:
        want = _column_route(ctx, (op,), rows)
        assert ctx.product_rows((op,), rows) == want
        assert op.materialize().mul_rows(rows) == want


# GF(7), GF(11), GF(29) and GF(31), each with a prime r dividing p - 1, and
# Q(theta_r) as (r, None)
PACKED_CTXS = [(3, 7), (5, 11), (7, 29), (3, 31), (5, 31)]
PLANE_CTXS = [(r, None) for r in (3, 5, 7, 13)]


def _packed_ctx(r, p):
    return CyclotomicContext(r) if p is None else PrimeFieldContext(r, p)


def _random_scale(ctx, rng, low=1):
    """A random nonzero value: a residue in [low, p) over GF(p); over
    Q(theta) a _nonzero_element over a denominator 2, 6 or 10, never a power
    of r."""
    if ctx.kind == "prime":
        return rng.randrange(low, ctx.p)
    return ctx.mul(_nonzero_element(ctx, rng), ctx.inv(ctx.from_int(rng.choice((2, 6, 10)))))


def _random_factor(params, rng):
    """A monomial (scale 1 or random), a scaled Fourier factor in a random
    slot, a scalar, a dense operator or an inverted product."""
    ctx = params.ctx
    kind = rng.randrange(6)
    if kind == 0:
        return _random_monomial(params, rng, ctx.one)
    if kind == 1:
        return _random_monomial(params, rng, _random_scale(ctx, rng))
    if kind == 2:
        return FourierOp(params, rng.randrange(1, params.ell + 1), _random_scale(ctx, rng))
    if kind == 3:
        return ScalarOp(params, _random_scale(ctx, rng, 2))
    if kind == 4:
        mixed = ProductOp(params, (FourierOp(params, 1),
                                   _random_monomial(params, rng, ctx.from_int(2))))
        return DenseOp(params, mixed.materialize())
    return ProductOp(params, (FourierOp(params, params.ell, ctx.from_int(3)),
                              _random_monomial(params, rng, ctx.one))).inverse()


def _column_route(ctx, factors, rows=None):
    """ctx.product_rows on the column route, the reference for the packed
    routes."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(type(ctx), "row_class", None)
        return ctx.product_rows(factors, rows)


def _unit_columns(params):
    """The n x (l + 1) rows of e_0 and the e_(delta_t), as
    heisenberg.image_from_columns passes them."""
    ctx, r, ell = params.ctx, params.r, params.ell
    units = [0] + [r ** (ell - t) for t in range(1, ell + 1)]
    return tuple(tuple(ctx.one if i == u else ctx.zero for u in units)
                 for i in range(params.n))


@pytest.mark.parametrize("r,p", PACKED_CTXS + PLANE_CTXS, ids=str)
@given(seed=st.integers(0, 2 ** 32), length=st.integers(1, 40))
@settings(max_examples=8, deadline=None)
def test_packed_product_matches_column_route(r, p, seed, length):
    # GF(p) materialises a product on packed rows and Q(theta) on planes,
    # also on the l + 1 columns a Weil image is built from; the column route
    # is the reference
    ctx = _packed_ctx(r, p)
    rng = random.Random(seed)
    params = WeilParams(r, rng.choice((1, 2)) if r < 7 or p is not None else 1, ctx)
    op = ProductOp(params, [_random_factor(params, rng) for _ in range(length)])
    rows = op.materialize().rows
    assert rows == _column_route(ctx, op.factors)
    columns = _unit_columns(params)
    assert ctx.product_rows((op,), columns) == _column_route(ctx, (op,), columns)
    if p is not None:
        assert all(0 <= a < p for row in rows for a in row)


@pytest.mark.parametrize("r,p", PACKED_CTXS + [(3, 2479700473)] + PLANE_CTXS, ids=str)
def test_packed_long_product_reduces_mid_product(r, p, monkeypatch):
    # 60 factors grow a lane far past 2^64 unreduced, so before the end the
    # lanes must be reduced, over GF(p), where _lanes then runs for more
    # than the n final rows, or the entries loaded again, over Q(theta),
    # where unpacked then runs for more than the final read.  The factors
    # are Fourier, scaled monomial, scalar and scale-one slot negation
    # factors; at the largest packed prime for r = 3 one scaled factor can
    # carry a reduced lane past 2^64
    ctx = _packed_ctx(r, p)
    rng = random.Random(r * (p or 1))
    params = WeilParams(r, 2 if r < 13 else 1, ctx)
    factors = [f for t in (1, 2) * 6 for f in (
        FourierOp(params, 1, _random_scale(ctx, rng)), FourierOp(params, params.ell),
        _random_monomial(params, rng, _random_scale(ctx, rng)), ScalarOp(params, ctx.neg(ctx.one)),
        negation_monomial(params, min(t, params.ell)))]
    op = ProductOp(params, factors)
    calls = []
    rows_class, method = (PackedRows, "_lanes") if p else (PlaneRows, "unpacked")
    original = getattr(rows_class, method)
    monkeypatch.setattr(rows_class, method,
                        lambda self, *args: calls.append(1) or original(self, *args))
    rows = op.materialize().rows
    assert len(calls) > (params.n if p else 1)
    monkeypatch.undo()
    assert rows == _column_route(ctx, op.factors)


def test_plane_rows_widen_past_64_bit_lanes(cyc5):
    # 2^70 times a Fourier kernel and a monomial: no 64-bit lane holds the
    # canonical entries, so the planes move to 128-bit lanes and still match
    # the column route; a closure state of the product keeps the wide lanes,
    # and its square over 2^140 narrows again to 64 bits once divided out
    params = WeilParams(5, 1, cyc5)
    ops = [_random_monomial(params, random.Random(5), cyc5.theta), FourierOp(params, 1)]
    ops += [ScalarOp(params, cyc5.from_int(2))] * 70
    rows = _column_route(cyc5, ops)
    assert max(abs(x) for row in rows for nums, _ in row for x in nums) > 2 ** 63
    packed = PlaneRows.load(cyc5, DenseMatrix.identity(cyc5, 5).rows)
    for op in reversed(ops):
        op.mul_packed(packed)
    assert packed.width == 16
    assert packed.unpacked() == rows
    assert ProductOp(params, ops).materialize().rows == rows
    den, width, _ = packed.state()
    assert (den, width) == (1, 16)
    big = ProductOp(params, ops)
    half = ScalarOp(params, cyc5.inv(cyc5.from_int(2 ** 140)))
    packed = PlaneRows.load(cyc5, DenseMatrix.identity(cyc5, 5).rows)
    for op in reversed((half, big, big)):
        op.mul_packed(packed)
    assert packed.state()[1] == 8
    assert packed.unpacked() == _column_route(cyc5, (half, big, big))


def test_packed_product_reduces_at_exactly_two_to_the_64():
    # 16 * 16^15 lanes of 16^16 = 2^64 would carry into the next lane, so the
    # sixteenth factor of 16 must reduce first; likewise for monomials
    ctx = PrimeFieldContext(5, 31)
    params = WeilParams(5, 1, ctx)
    want = DenseMatrix.identity(ctx, 5).scale(pow(16, 16, 31)).rows
    assert ProductOp(params, [ScalarOp(params, 16)] * 16).materialize().rows == want
    sixteen = MonomialOp(params, range(5), (0,) * 5, 16)
    assert ProductOp(params, [sixteen] * 16).materialize().rows == want
    assert ProductOp(params, [sixteen] * 17).materialize().rows == \
        DenseMatrix.identity(ctx, 5).scale(pow(16, 17, 31)).rows


def test_packed_route_at_the_lane_limit(monkeypatch):
    # r * p^2 < 2^64 packs, with every lane near its bound; the next prime
    # p = 1 (mod 3) above 2^32 keeps the column route
    below, above = 2479700473, 4294967311
    assert 3 * below ** 2 < LANE_LIMIT <= 3 * above ** 2
    for p in (below, above):
        ctx = PrimeFieldContext(3, p)
        params = WeilParams(3, 2, ctx)
        rng = random.Random(p)
        op = ProductOp(params, [_random_factor(params, rng) for _ in range(30)]
                       + [ScalarOp(params, p - 1), FourierOp(params, 2, p - 1)] * 3)
        want = _column_route(ctx, op.factors)
        if p == above:
            monkeypatch.setattr(PackedRows, "__init__", None)
        assert op.materialize().rows == want


# (r, p) with r | p - 1, for the lane reduction
DIVISION_CTXS = [(3, 7), (5, 11), (7, 29), (13, 53), (3, 1009)]


def _lane_specials(p):
    """0, p - 1, p, the budget's last value and the largest value below the
    budget that is p - 1 mod p, where a quotient x // p is closest to
    rounding up."""
    budget = lane_division(p)[0]
    top = budget - budget % p - 1
    return [0, p - 1, p, budget - 1, top]


@pytest.mark.parametrize("r,p", DIVISION_CTXS, ids=str)
@given(data=st.data(), lanes=st.integers(1, 30))
@settings(max_examples=40, deadline=None)
def test_lane_reduction_is_lane_by_lane_mod_p(r, p, data, lanes):
    # every lane below the budget reduces to x % p in one multiply and shift
    # per row; rows of several lanes show a carry or a shifted-in bit
    ctx = PrimeFieldContext(r, p)
    budget = lane_division(p)[0]
    lane = st.one_of(st.sampled_from(_lane_specials(p)), st.integers(0, budget - 1))
    rows = data.draw(st.lists(st.lists(lane, min_size=lanes, max_size=lanes),
                              min_size=1, max_size=3))
    packed = PackedRows(ctx, list(map(PackedRows.pack, rows)), lanes, budget - 1)
    packed.reduce()
    assert packed.rows == [PackedRows.pack([x % p for x in row]) for row in rows]
    assert packed.bound == p - 1


@pytest.mark.parametrize("r,p", DIVISION_CTXS, ids=str)
def test_lane_reduction_route_switches_at_the_budget(r, p, monkeypatch):
    # a bound below the budget takes the multiply and shift, a bound at it
    # the lane-by-lane route; both give the same residues
    ctx = PrimeFieldContext(r, p)
    budget = lane_division(p)[0]
    assert budget == 2 ** ((64 - p.bit_length()) // 2 - 1)
    rows = [_lane_specials(p), _lane_specials(p)[::-1]]
    want = [PackedRows.pack([x % p for x in row]) for row in rows]
    calls = []
    lanes = PackedRows._lanes
    monkeypatch.setattr(PackedRows, "_lanes", lambda self, row: calls.append(1) or lanes(self, row))
    for bound, lane_calls in ((budget - 1, 0), (budget, len(rows))):
        calls.clear()
        packed = PackedRows(ctx, list(map(PackedRows.pack, rows)), 5, bound)
        packed.reduce()
        assert (packed.rows, len(calls)) == (want, lane_calls)


def test_products_flatten_and_inverse_is_unchanged(gf11):
    # FourierOp.inverse is a product, so an inverted Weil image nested
    # products before ProductOp flattened its factors
    params = WeilParams(5, 2, gf11)
    gens = weil_generators(params)
    g = random_element(2, 5, 11)
    op = weil_image_op(g, gens)
    inv = op.inverse()
    assert not any(isinstance(f, ProductOp) for f in inv.factors)
    rng = random.Random(5)
    vec = [rng.randrange(11) for _ in range(params.n)]
    nested = vec
    for f in op.factors:
        nested = f.inverse().apply(nested)
    assert inv.apply(vec) == nested
    assert inv.materialize() == op.materialize().inverse()
    assert inv.materialize().rows == _column_route(inv.ctx, inv.factors)
    a, b, c = gens.lamC[0], gens.U[1], gens.D[(1, 2)]
    assert ((a * b) * (c * a)).factors == (a, b, c, a)


def _basis_walk_difference(op1, op2):
    """The first disagreement of op1 and op2 on the basis vectors e_0, e_1,
    ...: (row, column, value1, value2), or None.  The reference for
    first_difference, which compares materialised matrices instead."""
    n = op1.n
    zero, one = op1.ctx.zero, op1.ctx.one
    basis = [zero] * n
    for j in range(n):
        basis[j] = one
        a, b = op1.apply(basis), op2.apply(basis)
        basis[j] = zero
        if a != b:
            i = next(i for i in range(n) if a[i] != b[i])
            return (i, j, a[i], b[i])
    return None


def _any_factor(params, rng):
    """A monomial, a Fourier factor in a random slot, a scalar (each with a
    random scale), a dense operator with zero entries or an inverted
    product, over any field."""
    ctx = params.ctx
    kind = rng.randrange(5)
    scale = rng.choice((ctx.one, _nonzero_element(ctx, rng)))
    if kind == 0:
        return _random_monomial(params, rng, scale)
    if kind == 1:
        return FourierOp(params, rng.randrange(1, params.ell + 1), scale)
    if kind == 2:
        return ScalarOp(params, _nonzero_element(ctx, rng))
    if kind == 3:
        return DenseOp(params, DenseMatrix(ctx, [
            [_element(ctx, rng) if rng.random() < 0.6 else ctx.zero for _ in range(params.n)]
            for _ in range(params.n)]))
    return ProductOp(params, (FourierOp(params, params.ell),
                              _random_monomial(params, rng, ctx.one))).inverse()


def _bumped(op, entries, rng):
    """DenseOp of op's matrix with each (row, column) of entries changed."""
    ctx = op.ctx
    rows = [list(row) for row in op.materialize().rows]
    for i, j in entries:
        rows[i][j] = ctx.add(rows[i][j], _nonzero_element(ctx, rng))
    return DenseOp(op.params, DenseMatrix(ctx, rows))


# Q(theta_3), GF(7) and GF(4)
FIRST_DIFFERENCE_CTXS = [FieldSpec(kind, 3) for kind in ("cyclotomic", "auto-prime", "auto-char2")]


@pytest.mark.parametrize("spec", FIRST_DIFFERENCE_CTXS, ids=str)
@given(seed=st.integers(0, 2 ** 32), length=st.integers(1, 6), ell=st.integers(1, 2))
@settings(max_examples=15, deadline=None)
def test_first_difference_matches_basis_walk(spec, seed, length, ell):
    # equal operators built differently, single-entry mutations, two
    # mutations ordered column first, and unrelated products
    ctx = make_field(spec)
    params = WeilParams(ctx.r, ell, ctx)
    rng = random.Random(seed)
    n = params.n
    x = ProductOp(params, [_any_factor(params, rng) for _ in range(length)])
    y = ProductOp(params, [_any_factor(params, rng) for _ in range(length)])
    i, j = rng.randrange(n), rng.randrange(n)
    single = _bumped(x, [(i, j)], rng)
    crossed = _bumped(x, [(0, n - 1), (n - 1, 0)], rng)
    pairs = [(x, DenseOp(params, x.materialize())), (x, single), (single, x),
             (x, crossed), (x, y), (y, x.factors[0]), (x.factors[-1], x.factors[-1])]
    for a, b in pairs:
        assert first_difference(a, b) == _basis_walk_difference(a, b)
    assert first_difference(x, DenseOp(params, x.materialize())) is None
    assert first_difference(x, single)[:2] == (i, j)
    assert first_difference(x, crossed)[:2] == (n - 1, 0)


@pytest.mark.parametrize("spec", FAST_PATH_CTXS, ids=str)
@given(seed=st.integers(0, 2 ** 32))
@settings(max_examples=4, deadline=None)
def test_det_and_trace_match_materialize(spec, seed):
    # the monomial det and trace (sign and fixed points) and the default
    # route through materialize agree, for every operator kind
    ctx = make_field(spec)
    params = WeilParams(ctx.r, 2 if ctx.r == 3 else 1, ctx)
    rng = random.Random(seed)
    c = _nonzero_element(ctx, rng)
    ops = [_random_monomial(params, rng, c), _random_monomial(params, rng, ctx.one),
           op_U(params, 1), negation_monomial(params, 1), ScalarOp(params, c),
           FourierOp(params, params.ell, c), DenseOp(params, op_C(params, 1).materialize()),
           ProductOp(params, (op_C(params, 1), _random_monomial(params, rng, c)))]
    for op in ops:
        mat = op.materialize()
        assert op.det() == mat.det()
        assert op.trace() == mat.trace()


@pytest.mark.parametrize("spec", FAST_PATH_CTXS, ids=str)
def test_scalar_is_the_monomial_with_identity_perm(spec):
    ctx = make_field(spec)
    r = ctx.r
    params = WeilParams(r, 2, ctx)
    n = params.n
    c = _nonzero_element(ctx, random.Random(r))
    scalar = ScalarOp(params, c)
    for k in range(r):
        assert scalar == MonomialOp(params, range(n), (k,) * n, ctx.mul_theta_power(c, -k))
    assert scalar != MonomialOp(params, range(n), (1,) + (0,) * (n - 1), c)
    assert identity_op(params) == MonomialOp(params, range(n), (0,) * n)
    assert scalar.inverse().compose(scalar) == identity_op(params)
    assert pi_map(ScalarOp(params, ctx.theta), params) == SpMatrix.identity(2, r)


def test_packed_fourier_rows_match_column_route(monkeypatch):
    # r * p^2 < 2^64 maps fibres on PackedRows, with rows of entries up to
    # p - 1; the next prime p = 1 (mod 3) above 2^32 keeps the column route
    below, above = 2479700473, 4294967311
    for p in (below, above):
        ctx = PrimeFieldContext(3, p)
        params = WeilParams(3, 2, ctx)
        rng = random.Random(p)
        rows = tuple(tuple(rng.choice((0, p - 1, rng.randrange(p))) for _ in range(9))
                     for _ in range(8)) + ((p - 1,) * 9,)
        if p == above:
            monkeypatch.setattr(PackedRows, "__init__", None)
        for t in (2, 1):   # fibre strides 1 and 3
            for scale in (1, p - 1, rng.randrange(2, p)):
                op = FourierOp(params, t, scale)
                got = ctx.product_rows((op,), rows)
                assert got == _column_route(ctx, (op,), rows)
