import pytest

from spweil.fields import FieldSpec, make_field
from spweil.linalg import DenseMatrix
from spweil.operators import (ProductOp, ScalarOp, WeilParams, identity_op,
                              index_vectors, operators_equal)
from spweil.generators import (base_generators, det_C, gauss_sum_identity,
                               lam_C_squared, lambda_scalar, op_A, op_B, op_C,
                               op_D, op_E, op_U, sigma_involution,
                               weil_generators)

GRID = [
    ("cyclotomic", 3), ("cyclotomic", 5), ("cyclotomic", 7),
    ("auto-prime", 3), ("auto-prime", 5), ("auto-prime", 7),
    ("auto-char2", 3), ("auto-char2", 5),
]


def _params(kind, r, ell):
    return WeilParams(r, ell, make_field(FieldSpec(kind, r)))


def test_base_generator_diagonals(cyc3):
    # r = 3: U = diag(1, theta^2, theta^2), E = diag(1, 1, theta)
    gens = base_generators(cyc3)
    th = cyc3.theta
    th2 = cyc3.mul(th, th)
    U = gens["U"].materialize()
    assert (U.rows[0][0], U.rows[1][1], U.rows[2][2]) == (cyc3.one, th2, th2)
    E = gens["E"].materialize()
    assert (E.rows[0][0], E.rows[1][1], E.rows[2][2]) == (cyc3.one, cyc3.one, th)


@pytest.mark.parametrize("kind,r", GRID, ids=str)
def test_commutator_AB_is_theta(kind, r):
    # [A, B] = theta * I generates the center
    params = _params(kind, r, 1)
    ctx = params.ctx
    A, B = op_A(params, 1), op_B(params, 1)
    comm = A.compose(B).compose(A.inverse()).compose(B.inverse())
    assert operators_equal(comm, ScalarOp(params, ctx.theta))


@pytest.mark.parametrize("kind,r", GRID, ids=str)
def test_U_equals_A_power_E(kind, r):
    # U_t = A_t^((r+1)/2) * E_t
    params = _params(kind, r, 2)
    for t in (1, 2):
        lhs = op_U(params, t)
        a_pow = op_A(params, t)
        acc = a_pow
        for _ in range((r + 1) // 2 - 1):
            acc = acc.compose(a_pow)
        assert operators_equal(lhs, acc.compose(op_E(params, t)))


def test_U_defining_formula(gf11):
    # U_t v = theta^(xi_t(xi_t + r)/2) v, slot independence included
    params = WeilParams(5, 2, gf11)
    U2 = op_U(params, 2)
    rows = U2.materialize().rows
    for j, xi in enumerate(index_vectors(5, 2)):
        expo = (xi[1] * (xi[1] + 5) // 2) % 5
        assert rows[j][j] == gf11.theta_pow[expo]
        assert U2.perm[j] == j


def test_D_diagonal_entries(cyc3):
    # D_12 entry at (xi1, xi2) is theta^(xi1*xi2); at (2,2): theta^4 = theta
    params = WeilParams(3, 2, cyc3)
    rows = op_D(params, 1, 2).materialize().rows
    vecs = index_vectors(3, 2)
    for j, xi in enumerate(vecs):
        assert rows[j][j] == cyc3.theta_pow[(xi[0] * xi[1]) % 3]
    j22 = vecs.index((2, 2))
    assert rows[j22][j22] == cyc3.theta


def test_tensor_slot_kronecker_consistency(gf7, kron):
    p1 = WeilParams(3, 1, gf7)
    p2 = WeilParams(3, 2, gf7)
    eye = DenseMatrix.identity(gf7, 3)
    for builder in (op_A, op_B, op_C, op_E, op_U):
        base = builder(p1, 1).materialize()
        assert builder(p2, 1).materialize() == kron(base, eye)
        assert builder(p2, 2).materialize() == kron(eye, base)


def test_lambda_cyclotomic_vandermonde(cyc3):
    # independent oracle: expand det(C) = prod_(i<j) (theta^j - theta^i)
    th = [cyc3.theta_pow[i] for i in range(3)]
    det = cyc3.one
    for i in range(3):
        for j in range(i + 1, 3):
            det = cyc3.mul(det, cyc3.sub(th[j], th[i]))
    assert det == det_C(3, cyc3)
    # det(C) = 3 theta^2 - 3 theta; lambda = (theta^2 - theta)/3
    th2 = cyc3.mul(cyc3.theta, cyc3.theta)
    assert det == cyc3.mul(cyc3.from_int(3), cyc3.sub(th2, cyc3.theta))
    lam = lambda_scalar(3, cyc3)
    assert lam == cyc3.mul(cyc3.sub(th2, cyc3.theta), cyc3.inv(cyc3.from_int(3)))
    # cross-check lambda^2 = -1/3
    assert cyc3.mul(lam, lam) == cyc3.neg(cyc3.inv(cyc3.from_int(3)))


def test_lambda_gf7(gf7):
    assert det_C(3, gf7) == 6
    lam = lambda_scalar(3, gf7)
    assert lam == 3  # (-3) * 6^-1 = 4 * 6 = 24 = 3 mod 7
    assert (3 * 3 * 3) % 7 == 6  # lambda^2 * r = -1


def _lambda_by_elimination(r, ctx):
    minus_r = ctx.neg(ctx.from_int(r))
    return ctx.mul(ctx.pow(minus_r, (r - 1) // 2), ctx.inv(det_C(r, ctx)))


@pytest.mark.parametrize("kind", ["cyclotomic", "auto-prime", "auto-char2"])
@pytest.mark.parametrize("r", [3, 5, 7, 11, 13])
def test_lambda_matches_elimination(kind, r):
    # lambda_scalar takes det(C) in its Gauss-sum form
    ctx = make_field(FieldSpec(kind, r))
    assert lambda_scalar(r, ctx) == _lambda_by_elimination(r, ctx)


@pytest.mark.parametrize("kind", ["cyclotomic", "auto-prime", "auto-char2"])
def test_weil_generators_eliminate_nothing(kind, monkeypatch):
    def no_det(self):
        raise AssertionError("DenseMatrix.det called")
    monkeypatch.setattr(DenseMatrix, "det", no_det)
    gens = weil_generators(_params(kind, 3, 2))
    monkeypatch.undo()
    assert gens.lam == _lambda_by_elimination(3, gens.ctx)


@pytest.mark.parametrize("kind,r", GRID, ids=str)
def test_det_lam_C_is_one(kind, r):
    params = _params(kind, r, 1)
    ctx = params.ctx
    lam = lambda_scalar(r, ctx)
    mat = op_C(params, 1, lam).materialize()
    assert mat.det() == ctx.one


@pytest.mark.parametrize("kind,r", GRID, ids=str)
def test_lambda_squared_times_r(kind, r):
    params = _params(kind, r, 1)
    ctx = params.ctx
    lam = lambda_scalar(r, ctx)
    want = ctx.one if ((r - 1) // 2) % 2 == 0 else ctx.neg(ctx.one)
    assert ctx.mul(ctx.mul(lam, lam), ctx.from_int(r)) == want


def test_sigma_involution_examples(cyc3):
    params = WeilParams(3, 1, cyc3)
    sig = sigma_involution(params)
    assert sig.apply([1, 0, 0].__class__([cyc3.one, cyc3.zero, cyc3.zero])) == \
        [cyc3.one, cyc3.zero, cyc3.zero]
    assert sig.apply([cyc3.zero, cyc3.one, cyc3.zero]) == \
        [cyc3.zero, cyc3.zero, cyc3.one]
    # sigma = -(lam C)^2 at r = 3
    gens = weil_generators(params)
    lc2 = gens.lamC[0] * gens.lamC[0]
    assert operators_equal(ScalarOp(params, cyc3.neg(cyc3.one)) * lc2, sig)


@pytest.mark.parametrize("kind,r", GRID, ids=str)
def test_sigma_commutes_with_generators(kind, r):
    params = _params(kind, r, 2)
    gens = weil_generators(params)
    sig = gens.sigma
    for _, _, _, op in gens.sp_generating_ops():
        assert operators_equal(sig * op, op * sig)


@pytest.mark.parametrize("kind,r", GRID, ids=str)
def test_sigma_inverts_R(kind, r):
    params = _params(kind, r, 1)
    sig = sigma_involution(params)
    for g in (op_A(params, 1), op_B(params, 1)):
        conj = sig.compose(g).compose(sig.inverse())
        inv = g.inverse()
        assert conj.perm == inv.perm and conj.materialize() == inv.materialize()


def test_lam_C_squared_matches_square(gf11, cyc5):
    for ctx in (gf11, cyc5):
        params = WeilParams(5, 2, ctx)
        gens = weil_generators(params)
        for t in (1, 2):
            assert operators_equal(gens.lamC[t - 1] * gens.lamC[t - 1],
                                   lam_C_squared(params, t))


@pytest.mark.parametrize("kind,r", GRID, ids=str)
def test_gauss_sum_identity(kind, r):
    ctx = make_field(FieldSpec(kind, r))
    d, via = gauss_sum_identity(r, ctx)
    assert d == via


def test_gauss_sum_values(cyc3, gf7):
    # both routes equal -3 - 6*theta over Q(theta_3): (2|3) = -1, sum = 1 + 2 theta
    d, via = gauss_sum_identity(3, cyc3)
    minus3 = cyc3.from_int(-3)
    expect = cyc3.add(minus3, cyc3.mul(cyc3.from_int(-6), cyc3.theta))
    assert d == expect and via == expect
    # over GF(7): (-1) * 3 * (1 + 2*2) = -15 = 6 mod 7
    d, via = gauss_sum_identity(3, gf7)
    assert d == 6 and via == 6


@pytest.mark.parametrize("kind,r", GRID, ids=str)
def test_detC_squared(kind, r):
    ctx = make_field(FieldSpec(kind, r))
    d = det_C(r, ctx)
    sign = ctx.one if ((r - 1) // 2) % 2 == 0 else ctx.neg(ctx.one)
    assert ctx.mul(d, d) == ctx.mul(sign, ctx.pow(ctx.from_int(r), r))


def test_CU_cubed_is_r_trace_scalar(cyc5):
    params = WeilParams(5, 1, cyc5)
    gens = weil_generators(params)
    cu = gens.rawC[0] * gens.U[0]
    tr = gens.U[0].materialize().trace()
    scalar = ScalarOp(params, cyc5.mul(cyc5.from_int(5), tr))
    assert operators_equal(ProductOp(params, cu.factors * 3), scalar)


def test_det_U_small_cases(cyc3, cyc5):
    # det(U) = theta for r = 3, 1 for r > 3
    params = WeilParams(3, 1, cyc3)
    assert op_U(params, 1).det() == cyc3.theta
    params5 = WeilParams(5, 1, cyc5)
    assert op_U(params5, 1).det() == cyc5.one
