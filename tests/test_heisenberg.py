import itertools
import random
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spweil.fields import FieldSpec, make_field, parse_field_spec, smallest_primitive_root
from spweil.generators import op_A, op_B, op_C, weil_generators
from spweil.heisenberg import (DoesNotNormalize, ExtraspecialElement,
                               NotCharacterDiagonal, NotMonomial, NotThetaPower,
                               RecognitionError, _recognize_monomial, comm_exponent,
                               pi_map, realize, recognize)
from spweil.linalg import DenseMatrix
from spweil.operators import MonomialOp, ProductOp, ScalarOp, WeilParams, identity_op
from spweil.symplectic import (GenToken, SpMatrix, gen_images, random_element, sp_form,
                               weil_image)
from spweil.verification import corrupt_c_entry

# Q(theta_3), GF(7) and GF(4): the three field families at r = 3
FAMILIES = {"cyc3": FieldSpec("cyclotomic", 3), "gf7": FieldSpec("auto-prime", 3),
            "gf4": FieldSpec("auto-char2", 3)}


@pytest.fixture(scope="module")
def setup7(gf7):
    params = WeilParams(3, 1, gf7)
    return params, weil_generators(params)


def test_recognize_generators(setup7):
    params, gens = setup7
    assert recognize(gens.A[0].materialize(), params) == \
        ExtraspecialElement(0, (1,), (0,))
    assert recognize(gens.B[0].materialize(), params) == \
        ExtraspecialElement(0, (0,), (1,))


def test_recognize_scaled_shift(setup7):
    params, gens = setup7
    ctx = params.ctx
    m = gens.B[0].compose(gens.B[0]).materialize().scale(ctx.theta)
    assert recognize(m, params) == ExtraspecialElement(1, (0,), (2,))


def test_recognize_errors(setup7):
    params, gens = setup7
    ctx = params.ctx
    with pytest.raises(NotMonomial):
        recognize(gens.rawC[0].materialize(), params)  # dense columns
    # monomial but not a translation: sigma swaps v_1 and v_2
    with pytest.raises(NotMonomial):
        recognize(gens.sigma.materialize(), params)
    # translation but scalars not a character: diag(1, 1, theta) = E
    with pytest.raises(NotCharacterDiagonal):
        recognize(gens.E[0].materialize(), params)
    # character shape but overall scalar not a theta power
    m = gens.A[0].materialize().scale(ctx.from_int(3))
    with pytest.raises(NotThetaPower):
        recognize(m, params)
    # ... unless recognition is modulo scalars
    el = recognize(m, params, mod_scalars=True)
    assert (el.a, el.b) == ((1,), (0,))


def test_realize_recognize_roundtrip_exhaustive(gf7):
    params = WeilParams(3, 2, gf7)
    for c, a1, a2, b1, b2 in itertools.product(range(3), repeat=5):
        elem = ExtraspecialElement(c, (a1, a2), (b1, b2))
        mat = realize(elem, params).materialize()
        assert recognize(mat, params) == elem


def test_canonical_form_count_is_group_order(gf7):
    # |R| = r^(1+2l): the canonical forms enumerate R bijectively
    params = WeilParams(3, 1, gf7)
    seen = set()
    for c, a, b in itertools.product(range(3), repeat=3):
        mat = realize(ExtraspecialElement(c, (a,), (b,)), params).materialize()
        seen.add(mat.rows)
    assert len(seen) == 3 ** 3


def test_comm_exponent_basis_pairs():
    r, ell = 5, 2
    for i in range(ell):
        for j in range(ell):
            a_i = ExtraspecialElement(0, tuple(1 if k == i else 0 for k in range(ell)),
                                      (0,) * ell)
            b_j = ExtraspecialElement(0, (0,) * ell,
                                      tuple(1 if k == j else 0 for k in range(ell)))
            assert comm_exponent(a_i, b_j, r) == (1 if i == j else 0)
            a_j = ExtraspecialElement(0, tuple(1 if k == j else 0 for k in range(ell)),
                                      (0,) * ell)
            assert comm_exponent(a_i, a_j, r) == 0
    central = ExtraspecialElement(2, (0,) * ell, (0,) * ell)
    other = ExtraspecialElement(1, (1, 2), (3, 4))
    assert comm_exponent(central, other, r) == 0


def test_comm_exponent_matches_matrix_commutator(gf7):
    params = WeilParams(3, 2, gf7)
    rng = random.Random(0)
    for _ in range(10):
        x = ExtraspecialElement(0, (rng.randrange(3), rng.randrange(3)),
                                (rng.randrange(3), rng.randrange(3)))
        y = ExtraspecialElement(0, (rng.randrange(3), rng.randrange(3)),
                                (rng.randrange(3), rng.randrange(3)))
        mx, my = realize(x, params), realize(y, params)
        comm = mx.compose(my).compose(mx.inverse()).compose(my.inverse())
        expo = comm_exponent(x, y, 3)
        scalar = ScalarOp(params, params.ctx.theta_pow[expo]).materialize()
        assert comm.materialize() == scalar


def test_pi_images(setup7):
    params, gens = setup7
    assert pi_map(gens.lamC[0], params).rows == ((0, 1), (2, 0))
    assert pi_map(gens.A[0], params) == SpMatrix.identity(1, 3)
    u_img = pi_map(gens.U[0], params)
    assert u_img.rows == ((1, 1), (0, 1))
    assert pi_map(gens.E[0], params) == u_img
    assert pi_map(gens.sigma, params).rows == ((2, 0), (0, 2))


def test_pi_respects_form(gf11):
    params = WeilParams(5, 2, gf11)
    gens = weil_generators(params)
    J = sp_form(2, 5)
    for _, _, _, op in gens.sp_generating_ops():
        img = pi_map(op, params)
        assert img.transpose() * J * img == J


def test_pi_homomorphism_samples(gf7):
    params = WeilParams(3, 2, gf7)
    gens = weil_generators(params)
    rng = random.Random(7)
    pool = [op for _, _, _, op in gens.sp_generating_ops()] + \
        [gens.A[0], gens.B[1], gens.sigma]
    for _ in range(8):
        x = ProductOp(params, tuple(rng.choice(pool) for _ in range(3)))
        y = ProductOp(params, tuple(rng.choice(pool) for _ in range(3)))
        assert pi_map(x * y, params) == pi_map(x, params) * pi_map(y, params)


def test_pi_D_image_matches_table(gf7):
    params = WeilParams(3, 2, gf7)
    gens = weil_generators(params)
    assert pi_map(gens.D[(1, 2)], params) == gen_images(2, 3)[GenToken("D", 2, 1)]


def test_pi_rejects_non_normalizer(setup7):
    params, gens = setup7
    ctx = params.ctx
    # a generic invertible matrix does not normalize R
    bad = DenseMatrix(ctx, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(DoesNotNormalize):
        pi_map(bad, params)
    # singular matrices are rejected as well
    sing = DenseMatrix(ctx, [[1, 1, 0], [1, 1, 0], [0, 0, 1]])
    with pytest.raises(DoesNotNormalize):
        pi_map(sing, params)


def test_pi_on_dense_input_matches_operator_input(setup7):
    params, gens = setup7
    op = gens.lamC[0] * gens.U[0] * gens.lamC[0]
    assert pi_map(op, params) == pi_map(op.materialize(), params)


@pytest.mark.parametrize("rows", [
    [[1, 0, 1], [0, 1, 1], [1, 1, 2]],   # rank 2, no two rows proportional
    [[1, 0, 0], [0, 1, 0], [0, 0, 0]],   # a zero row
    [[0, 0, 0]] * 3,
])
def test_pi_rejects_rank_deficient_matrix(setup7, rows):
    params, _ = setup7
    with pytest.raises(DoesNotNormalize):
        pi_map(DenseMatrix(params.ctx, rows), params)


@pytest.mark.parametrize("field", ["cyc3", "gf7", "gf4"])
def test_pi_structured_matches_materialized(field, request):
    """A monomial, a product of at most 8 factors and one of more than 8
    project the same way as their matrices, and as the word's image."""
    params = WeilParams(3, 2, request.getfixturevalue(field))
    gens = weil_generators(params)
    images = gen_images(2, 3)
    pool = list(gens.sp_generating_ops())
    rng = random.Random(3)
    for op in (gens.D[(1, 2)], gens.sigma):
        assert pi_map(op, params) == pi_map(op.materialize(), params)
    for length in (3, 12):
        word = [rng.choice(pool) for _ in range(length)]
        op = ProductOp(params, tuple(o for _, _, _, o in word))
        assert (len(op.factors) <= 8) == (length == 3)
        want = SpMatrix.identity(2, 3)
        for kind, t, s, _ in word:
            want = want * images[GenToken(kind, t, s)]
        assert pi_map(op, params) == want
        assert pi_map(op.materialize(), params) == want


def _monomial_pool(params):
    """Normalising monomials of (r, l) = (3, 2) with their images under pi,
    taken from the generator table (sigma is -1; R maps to the identity)."""
    gens = weil_generators(params)
    images = gen_images(2, 3)
    ident = SpMatrix.identity(2, 3)
    pool = [(gens.U[t - 1], images[GenToken("U", t)]) for t in (1, 2)]
    pool += [(gens.D[(1, 2)], images[GenToken("D", 2, 1)]),
             (gens.sigma, SpMatrix(3, [[2 if i == j else 0 for j in range(4)]
                                       for i in range(4)])),
             (gens.A[0], ident), (gens.B[1], ident)]
    return pool


@pytest.mark.parametrize("field", FAMILIES)
@given(picks=st.lists(st.integers(0, 5), min_size=1, max_size=6),
       elem=st.tuples(*[st.integers(0, 2)] * 5),
       scale=st.integers(0, 2))
@settings(max_examples=25, deadline=None)
def test_pi_monomial_route_matches_dense_route(field, picks, elem, scale):
    # a random normalising MonomialOp: a word in U_t, D_12, sigma, A_1, B_2,
    # times a realised theta^c B^b A^a, with scale 1, theta or 1 + theta
    # (a nonzero scale in each family).  The integer route for the operator
    # and the row-matching route for its matrix agree with the table.
    ctx = make_field(FAMILIES[field])
    params = WeilParams(3, 2, ctx)
    pool = _monomial_pool(params)
    c, a1, a2, b1, b2 = elem
    op = realize(ExtraspecialElement(c, (a1, a2), (b1, b2)), params)
    want = SpMatrix.identity(2, 3)
    for i in picks:
        factor, image = pool[i]
        op, want = op.compose(factor), want * image
    s = (ctx.one, ctx.theta, ctx.add(ctx.one, ctx.theta))[scale]
    op = MonomialOp(params, op.perm, op.expo, ctx.mul(op.scale, s))
    assert pi_map(op, params) == want
    assert pi_map(op.materialize(), params) == want


@pytest.mark.parametrize("field", FAMILIES)
def test_pi_ignores_non_theta_scalars(field):
    # pi(lam * n) = pi(n) for every nonzero scalar lam; 2 and 1 + theta are
    # not theta powers over Q(theta_3) and 1 + theta is not over GF(7) (in
    # GF(4) every nonzero element is a theta power, and 2 = 0)
    ctx = make_field(FAMILIES[field])
    params = WeilParams(3, 2, ctx)
    gens = weil_generators(params)
    images = gen_images(2, 3)
    g = images[GenToken("U", 1)] * images[GenToken("C", 2)] * images[GenToken("D", 2, 1)]
    dense = weil_image(g, gens)
    u1 = gens.U[0]
    scalars = [lam for lam in (ctx.from_int(2), ctx.add(ctx.one, ctx.theta))
               if lam != ctx.zero]
    if field != "gf4":
        assert any(ctx.dlog_theta(lam) is None for lam in scalars)
    for lam in scalars:
        scaled_u1 = MonomialOp(params, u1.perm, u1.expo, lam)
        assert pi_map(scaled_u1, params) == images[GenToken("U", 1)]
        assert pi_map(scaled_u1.materialize(), params) == images[GenToken("U", 1)]
        assert pi_map(dense.scale(lam), params) == g == pi_map(dense, params)


@pytest.mark.parametrize("field", FAMILIES)
def test_pi_rejects_diag_2(field):
    # diag(2, 1, ..., 1) at (3, 2): 2 is no theta power over Q(theta_3); over
    # GF(7) 2 = theta, and theta^f(xi) normalises only for quadratic f; over
    # GF(4) 2 = 0 and the matrix is singular.  The theta-exponent form
    # diag(theta, 1, ..., 1) fails on the integer route too.
    ctx = make_field(FAMILIES[field])
    params = WeilParams(3, 2, ctx)
    n = params.n
    rows = [[ctx.zero] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = ctx.one
    rows[0][0] = ctx.from_int(2)
    with pytest.raises(DoesNotNormalize):
        pi_map(DenseMatrix(ctx, rows), params)
    with pytest.raises(DoesNotNormalize):
        pi_map(MonomialOp(params, range(n), (1,) + (0,) * (n - 1)), params)


def reference_pi_map(mat, params):
    """pi_map of the DenseMatrix mat with rows matched on field values, as
    before pi_map read integer theta codes: each row of mat * g is keyed by
    theta^k times it, k making its first nonzero entry the least of its r
    theta multiples, every entry scaled by mul_theta_power.  The conjugates
    are recognised, and every failure raised, as pi_map does."""
    ctx, r, ell, n = params.ctx, params.r, params.ell, params.n
    zero, mtp = ctx.zero, ctx.mul_theta_power

    def keyed(g):
        take = itemgetter(*g.perm)
        for row in mat.rows:
            moved = take(row)
            j = next((j for j, a in enumerate(moved) if a != zero), None)
            if j is None:
                raise DoesNotNormalize("matrix has a zero row")
            multiples = [mtp(moved[j], e) for e in range(r)]
            k = multiples.index(min(multiples)) - g.expo[j]
            yield k, tuple(a if a == zero else mtp(a, e + k) for a, e in zip(moved, g.expo))

    zeros = (0,) * ell
    units = [tuple(int(m == t) for m in range(ell)) for t in range(ell)]
    match = {key: (c, k) for c, (k, key) in enumerate(keyed(identity_op(params)))}
    cols = []
    try:
        for u in units:
            for a, b in ((u, zeros), (zeros, u)):
                perm, expo = [None] * n, [0] * n
                for i, (k, key) in enumerate(keyed(realize(ExtraspecialElement(0, a, b), params))):
                    hit = match.get(key)
                    if hit is None:
                        raise NotMonomial(f"row {i} of n*g is not a theta multiple of a row of n")
                    c, k_c = hit
                    if perm[c] is not None:
                        raise NotMonomial(f"rows {perm[c]} and {i} of n*g match row {c} of n")
                    perm[c], expo[c] = i, (k_c - k) % r
                x = MonomialOp(params, perm, expo)
                cols.append(_recognize_monomial(x, params, True).coset_vector())
    except RecognitionError as exc:
        raise DoesNotNormalize(f"a conjugate left R*Z: {exc}") from None
    result = SpMatrix(r, tuple(zip(*cols)))
    if not result.is_symplectic():
        raise DoesNotNormalize("projected action does not preserve the form")
    return result


def _outcome(project, mat, params):
    try:
        return project(mat, params)
    except DoesNotNormalize as exc:
        return f"DoesNotNormalize: {exc}"


def _theta_classes(mat, params):
    """The number of theta classes among the nonzero entries of mat."""
    ctx = params.ctx
    return len({min(ctx.mul_theta_power(a, e) for e in range(params.r))
                for row in mat.rows for a in row if a != ctx.zero})


def _with_row(mat, i, row):
    rows = list(mat.rows)
    rows[i] = tuple(row)
    return DenseMatrix(mat.ctx, rows)


def _pi_inputs(params, gens):
    """(name, DenseMatrix): Weil images of random elements, products with a
    corrupted C_1, a monomial outside the normaliser, a singular matrix, a
    row whose ratio to every other is no theta power (one class) and a row
    scaled out of the theta class."""
    ctx, r, ell = params.ctx, params.r, params.ell
    images = [weil_image(random_element(ell, r, seed), gens) for seed in range(3)]
    out = [(f"image {seed}", m) for seed, m in enumerate(images)]
    bad = corrupt_c_entry(gens)
    out += [("corrupt lamC1", bad.lamC[0].materialize()),
            ("corrupt lamC1 U1", ProductOp(params, (bad.lamC[0], bad.U[0])).materialize()),
            ("corrupt C1 D", ProductOp(params, (gens.D.get((1, 2), gens.U[0]),
                                                bad.rawC[0])).materialize())]
    out.append(("diag theta", MonomialOp(params, range(params.n),
                                         (1,) + (0,) * (params.n - 1)).materialize()))
    m = images[0]
    out.append(("singular", _with_row(m, 1, m.rows[0])))
    row = list(m.rows[0])
    j, k = [j for j, a in enumerate(row) if a != ctx.zero][:2]
    row[j], row[k] = row[k], ctx.mul_theta_power(row[j], 1)
    out.append(("row ratio", _with_row(m, 0, row)))
    scalars = [ctx.add(ctx.one, ctx.theta), *map(ctx.from_int, range(2, 40))]
    lam = next((x for x in scalars if x != ctx.zero and ctx.dlog_theta(x) is None), None)
    if lam is not None:   # GF(4) has one theta class
        out.append(("two classes", _with_row(m, 0, (ctx.mul(lam, a) for a in m.rows[0]))))
        # lam on the rows whose last slot digit is 0 and 1 elsewhere, then
        # that times A_1 (theta^(xi_1) on row xi): every A_t and B_t with
        # t < l keeps the two classes apart, and B_l mixes them at row 0
        n = params.n
        for twist in (0, 1):
            out.append((f"diag lam {twist}", _diagonal(ctx, [
                ctx.mul_theta_power(lam if xi % r == 0 else ctx.one, twist * xi // (n // r))
                for xi in range(n)])))
    return out


def _diagonal(ctx, values):
    n = len(values)
    return DenseMatrix(ctx, [[a if i == j else ctx.zero for j in range(n)]
                             for i, a in enumerate(values)])


PI_CELLS = [(field, r, ell) for field in ("cyclotomic", "auto-prime", "auto-char2")
            for r, ell in [(3, 2), (5, 2), (3, 3)]]
# GF(8) at r = 7 has one theta class; GF(2^100) at r = 101 is above the
# field order limit
PI_CELLS += [("cyclotomic", 7, 2), ("auto-prime", 7, 2), ("auto-prime", 101, 1)]


@pytest.mark.parametrize("field,r,ell", PI_CELLS)
def test_pi_matches_the_field_value_reference(field, r, ell):
    # the same projection, or the same DoesNotNormalize text, on normalisers
    # and on inputs that fail the match, the recognition or the form
    params = WeilParams(r, ell, make_field(FieldSpec(field, r)))
    gens = weil_generators(params)
    outcomes = []
    for name, mat in _pi_inputs(params, gens):
        got = _outcome(pi_map, mat, params)
        assert got == _outcome(reference_pi_map, mat, params), name
        outcomes.append((name, _theta_classes(mat, params), got))
    for seed in range(3):
        assert outcomes[seed][1:] == (1, pi_map(weil_image(
            random_element(ell, r, seed), gens), params))
    assert all(isinstance(got, str) for name, _, got in outcomes[3:]), outcomes
    two = [classes for name, classes, _ in outcomes if name == "two classes"]
    assert two == ([] if (field, r) == ("auto-char2", 3) else [2])   # GF(4): one class


def test_pi_matches_the_reference_past_255_classes():
    # at (17, 2) over GF(4931), n = 289, powers of a generator of GF(4931)*
    # lie in 289 of its 290 theta classes, numbered past one byte: a
    # diagonal with one class per row, and the full-support normaliser
    # F = C_1 * C_2 times it, one class per column, each kept by A_1 and
    # refused at B_1; F itself projects
    ctx = make_field(parse_field_spec("gf:4931", 17))
    params = WeilParams(17, 2, ctx)
    n = params.n
    root = ctx.from_int(smallest_primitive_root(4931))
    values = [ctx.pow(root, i) for i in range(n)]
    fourier = ProductOp(params, (op_C(params, 1), op_C(params, 2))).materialize()
    scaled = DenseMatrix(ctx, [list(map(ctx.mul, row, values)) for row in fourier.rows])
    for mat in (_diagonal(ctx, values), scaled, fourier):
        assert _outcome(pi_map, mat, params) == _outcome(reference_pi_map, mat, params)
    assert _theta_classes(scaled, params) == n


@pytest.mark.parametrize("spec", ["cyclotomic", "gf:31"])
def test_pi_refuses_more_theta_classes_than_rows(spec, monkeypatch):
    # entries 1 .. 9 lie in 9 theta classes over Q(theta_3) and in 4 of the
    # 10 over GF(31); at n = 3 either is more than a normaliser can have,
    # refused before more than r * n multiples are registered
    ctx = make_field(parse_field_spec(spec, 3))
    params = WeilParams(3, 1, ctx)
    mat = DenseMatrix(ctx, [[ctx.from_int(3 * i + j + 1) for j in range(3)] for i in range(3)])
    assert _theta_classes(mat, params) > 3
    calls = []
    mtp = ctx.mul_theta_power
    monkeypatch.setattr(ctx, "mul_theta_power", lambda a, e: calls.append(e) or mtp(a, e))
    with pytest.raises(DoesNotNormalize, match="^matrix entries lie in more than 3 theta classes$"):
        pi_map(mat, params)
    assert len(calls) <= 3 * 3


@pytest.mark.parametrize("field", FAMILIES)
def test_pi_makes_no_field_inverse_multiply_or_add(field, monkeypatch):
    # a matrix is read into theta codes by r mul_theta_power calls per theta
    # class of its entries, and a monomial's conjugates are integer work, so
    # pi_map calls no mul, add, sub or inv of the field context
    ctx = make_field(FAMILIES[field])
    params = WeilParams(3, 2, ctx)
    gens = weil_generators(params)
    bad = corrupt_c_entry(gens)
    mats = [weil_image(gen_images(2, 3)[GenToken("C", 1)], gens),
            ProductOp(params, (bad.lamC[0], gens.U[1])).materialize()]
    mono = gens.U[0].compose(gens.D[(1, 2)]).compose(gens.sigma)
    mono = MonomialOp(params, mono.perm, mono.expo, ctx.add(ctx.one, ctx.theta))
    classes = [_theta_classes(m, params) for m in mats]
    calls = []
    for name in ("inv", "mul", "add", "sub", "mul_theta_power"):
        method = getattr(type(ctx), name)
        monkeypatch.setattr(type(ctx), name,
                            lambda self, *args, _m=method, _n=name: calls.append(_n) or _m(self, *args))
    assert ctx.mul(ctx.one, ctx.one) == ctx.one and calls == ["mul"]
    for mat, count in zip(mats, classes):
        calls.clear()
        _outcome(pi_map, mat, params)
        assert set(calls) <= {"mul_theta_power"} and len(calls) <= 3 * count
    calls.clear()
    pi_map(mono, params)
    assert calls == []
