import pytest

from spweil.fields import CyclotomicContext, FieldSpec, make_field
from spweil.generators import weil_generators
from spweil.linalg import DenseMatrix, SingularMatrix
from spweil.operators import DenseOp, WeilParams, flat_index
from spweil.submodules import (NotInvariant, SubmoduleBasis, WrongCharacteristic,
                               quotient_representatives, representative_indices,
                               restrict, restrict_quotient, solve_in_span, spin,
                               submodule_bases, weil_image_irreducible)
from spweil.symplectic import SpMatrix, random_element, weil_image


def test_representative_indices():
    # each nonzero pair {xi, -xi} contributes its lexicographically smaller member
    reps = representative_indices(3, 1)
    assert reps == [(1,)]
    reps = representative_indices(3, 2)
    assert len(reps) == 4
    for xi in reps:
        neg = tuple(-x % 3 for x in xi)
        assert xi < neg
    reps = representative_indices(5, 2)
    assert len(reps) == 12


def test_dims_char0(cyc3, cyc5):
    p31 = WeilParams(3, 1, cyc3)
    wp, wm = submodule_bases(p31)
    assert (wp.label, wp.dim) == ("W+", 2)
    assert (wm.label, wm.dim) == ("W-", 1)
    p32 = WeilParams(3, 2, cyc3)
    wp, wm = submodule_bases(p32)
    assert (wp.dim, wm.dim) == (5, 4)
    p52 = WeilParams(5, 2, cyc5)
    wp, wm = submodule_bases(p52)
    assert (wp.dim, wm.dim) == (13, 12)


def test_dims_char2(gf4, gf16):
    socle, heart = submodule_bases(WeilParams(3, 1, gf4))
    assert (socle.label, socle.dim) == ("A", 1)
    assert (heart.label, heart.dim) == ("B", 2)
    # A = span{v_1 + v_2}, B = A + span{v_0}
    assert socle.vectors[0] == (gf4.zero, gf4.one, gf4.one)
    assert heart.vectors[-1] == (gf4.one, gf4.zero, gf4.zero)
    socle, heart = submodule_bases(WeilParams(5, 1, gf16))
    assert (socle.dim, heart.dim) == (2, 3)


def test_restrict_U_on_W_minus(cyc3):
    params = WeilParams(3, 1, cyc3)
    gens = weil_generators(params)
    _, wm = submodule_bases(params)
    m = restrict(gens.U[0], wm, cyc3, 3, 1)
    th2 = cyc3.mul(cyc3.theta, cyc3.theta)
    assert m.rows == ((th2,),)


def test_restrict_C_on_W_plus(cyc3):
    # oracle: C v_0 = v_0 + (v_1 + v_2); C(v_1+v_2) = 2 v_0 - (v_1+v_2)
    params = WeilParams(3, 1, cyc3)
    gens = weil_generators(params)
    wp, _ = submodule_bases(params)
    m = restrict(gens.rawC[0], wp, cyc3, 3, 1)
    assert m.rows == ((cyc3.one, cyc3.from_int(2)),
                      (cyc3.one, cyc3.from_int(-1)))


def test_restrict_not_invariant(cyc3):
    params = WeilParams(3, 1, cyc3)
    gens = weil_generators(params)
    wp, wm = submodule_bases(params)
    with pytest.raises(NotInvariant):
        restrict(gens.B[0], wp, cyc3, 3, 1)  # B v_0 = v_1 not in W+
    with pytest.raises(NotInvariant):
        restrict(gens.A[0], wm, cyc3, 3, 1)


def test_fast_path_matches_generic_solve(cyc3, gf4):
    # the pair-structure shortcut agrees with the RREF solve
    for ctx, ell in ((cyc3, 1), (cyc3, 2), (gf4, 1)):
        params = WeilParams(3, ell, ctx)
        gens = weil_generators(params)
        for basis in submodule_bases(params):
            for _, _, _, op in gens.sp_generating_ops():
                fast = restrict(op, basis, ctx, 3, ell)
                generic = restrict(op, basis, ctx)
                assert fast == generic


def test_restrict_takes_ell_from_the_basis(gf7, gf4):
    # with r but no ell, ell is the one with r^ell = n
    for ctx in (gf7, gf4):
        params = WeilParams(3, 2, ctx)
        gens = weil_generators(params)
        for basis in submodule_bases(params):
            for op in (gens.U[0], gens.D[(1, 2)], gens.lamC[1]):
                assert restrict(op, basis, ctx, 3) == restrict(op, basis, ctx, 3, 2)


def test_generic_solve_on_adhoc_basis(gf7):
    # solve_in_span on a non-structured basis
    basis = [(1, 0, 1), (0, 1, 0)]
    images = [(2, 3, 2)]
    coords = solve_in_span(gf7, basis, images)
    assert coords == [[2, 3]]
    with pytest.raises(NotInvariant):
        solve_in_span(gf7, basis, [(0, 0, 1)])


def test_dependent_basis_is_rejected(gf7):
    # the elimination solve_in_span and DenseMatrix.inverse share finds no
    # pivot in the third column, (1, 0, 1) + 2 * (0, 1, 0)
    basis = [(1, 0, 1), (0, 1, 0), (1, 2, 1)]
    with pytest.raises(ValueError):
        solve_in_span(gf7, basis, [(2, 3, 2)])
    with pytest.raises(SingularMatrix):
        DenseMatrix.from_columns(gf7, basis).inverse()


def test_direct_sum_char0(cyc3):
    params = WeilParams(3, 2, cyc3)
    wp, wm = submodule_bases(params)
    combined = list(wp.vectors) + list(wm.vectors)
    assert spin(combined, [], cyc3) == 9


def test_invariance_all_generators(cyc5, gf11):
    for ctx in (cyc5, gf11):
        params = WeilParams(5, 2, ctx)
        gens = weil_generators(params)
        for basis in submodule_bases(params):
            for _, _, _, op in gens.sp_generating_ops():
                restrict(op, basis, ctx, 5, 2)  # must not raise


def test_spin_examples(cyc3):
    params = WeilParams(3, 1, cyc3)
    gens = weil_generators(params)
    ops = [op for _, _, _, op in gens.sp_generating_ops()]
    # seed v_1 - v_2 spans W- (dim 1)
    assert spin([[cyc3.zero, cyc3.one, cyc3.neg(cyc3.one)]], ops, cyc3) == 1
    # seed v_0 spans W+ (dim 2)
    assert spin([[cyc3.one, cyc3.zero, cyc3.zero]], ops, cyc3) == 2
    with pytest.raises(ValueError):
        spin([[cyc3.zero, cyc3.zero, cyc3.zero]], ops, cyc3)


def test_spin_every_basis_vector(cyc3, cyc5, gf4):
    cases = [(3, 1, cyc3), (5, 1, cyc5), (3, 2, cyc3), (3, 1, gf4)]
    for r, ell, ctx in cases:
        params = WeilParams(r, ell, ctx)
        gens = weil_generators(params)
        ops = [op for _, _, _, op in gens.sp_generating_ops()]
        target_label = "A" if ctx.char == 2 else "W-"
        target = next(b for b in submodule_bases(params) if b.label == target_label)
        for v in target.vectors:
            assert spin([list(v)], ops, ctx) == target.dim


def test_char2_chain_and_quotient(gf4):
    params = WeilParams(3, 1, gf4)
    gens = weil_generators(params)
    socle, heart = submodule_bases(params)
    assert 0 < socle.dim < heart.dim < params.n
    assert heart.dim - socle.dim == 1
    quot = quotient_representatives(params)
    assert quot.dim == socle.dim
    # trace additivity for each generator
    for _, _, _, op in gens.sp_generating_ops():
        full = op.materialize().trace()
        t_a = restrict(op, socle, gf4, 3, 1).trace()
        t_ba = restrict(op, heart, gf4, 3, 1).rows[-1][-1]
        t_q = restrict_quotient(op, params).trace()
        assert full == gf4.add(gf4.add(t_a, t_ba), t_q)


def test_quotient_requires_char2(cyc3):
    params = WeilParams(3, 1, cyc3)
    gens = weil_generators(params)
    with pytest.raises(WrongCharacteristic):
        restrict_quotient(gens.U[0], params)


def test_weil_image_irreducible_examples(cyc3):
    params = WeilParams(3, 1, cyc3)
    gens = weil_generators(params)
    ident = SpMatrix.identity(1, 3)
    assert weil_image_irreducible(ident, gens, "minus") == \
        DenseMatrix.identity(cyc3, 1)
    th2 = cyc3.mul(cyc3.theta, cyc3.theta)
    m = weil_image_irreducible(SpMatrix(3, [[1, 1], [0, 1]]), gens, "minus")
    assert m.rows == ((th2,),)
    lam = gens.lam
    m = weil_image_irreducible(SpMatrix(3, [[0, 1], [2, 0]]), gens, "plus")
    base = ((cyc3.one, cyc3.from_int(2)), (cyc3.one, cyc3.from_int(-1)))
    expect = tuple(tuple(cyc3.mul(lam, x) for x in row) for row in base)
    assert m.rows == expect


def test_weil_image_irreducible_guards(cyc3, gf4):
    gens_c0 = weil_generators(WeilParams(3, 1, cyc3))
    gens_c2 = weil_generators(WeilParams(3, 1, gf4))
    ident = SpMatrix.identity(1, 3)
    with pytest.raises(WrongCharacteristic):
        weil_image_irreducible(ident, gens_c0, "socle")
    with pytest.raises(WrongCharacteristic):
        weil_image_irreducible(ident, gens_c2, "plus")


def test_weil_image_irreducible_homomorphism(cyc3, gf4):
    gens = weil_generators(WeilParams(3, 1, cyc3))
    for seed in range(6):
        g = random_element(1, 3, seed)
        h = random_element(1, 3, seed + 50)
        for which in ("plus", "minus"):
            assert weil_image_irreducible(g * h, gens, which) == \
                weil_image_irreducible(g, gens, which) * \
                weil_image_irreducible(h, gens, which)
    gens2 = weil_generators(WeilParams(3, 1, gf4))
    for seed in range(6):
        g = random_element(1, 3, seed)
        h = random_element(1, 3, seed + 50)
        for which in ("socle", "quotient"):
            assert weil_image_irreducible(g * h, gens2, which) == \
                weil_image_irreducible(g, gens2, which) * \
                weil_image_irreducible(h, gens2, which)


def test_socle_isomorphic_quotient_dims_and_traces(gf4):
    # A and W/B: equal dimension and equal generator traces
    params = WeilParams(3, 2, gf4)
    gens = weil_generators(params)
    socle = next(b for b in submodule_bases(params) if b.label == "A")
    for _, _, _, op in gens.sp_generating_ops():
        a_mat = restrict(op, socle, gf4, 3, 2)
        q_mat = restrict_quotient(op, params)
        assert a_mat.nrows == q_mat.nrows == 4
        assert a_mat.trace() == q_mat.trace()


def test_restrict_dense_image_on_pair_bases_makes_no_multiply(monkeypatch):
    # the pair bases' vectors have entries 0, 1 and -1, so a dense image
    # restricts by adding and subtracting its columns; the generic solve is
    # the reference
    ctx = make_field(FieldSpec("cyclotomic", 5))
    params = WeilParams(5, 2, ctx)
    gens = weil_generators(params)
    op = DenseOp(params, weil_image(random_element(2, 5, 7), gens))
    calls = []
    mul = CyclotomicContext.mul
    monkeypatch.setattr(CyclotomicContext, "mul",
                        lambda self, a, b: calls.append(1) or mul(self, a, b))
    got = {b.label: restrict(op, b, ctx, 5, 2) for b in submodule_bases(params)}
    assert calls == []
    monkeypatch.undo()
    for basis in submodule_bases(params):
        images = [op.mat.apply(list(v)) for v in basis.vectors]
        want = DenseMatrix.from_columns(ctx, solve_in_span(ctx, basis.vectors, images))
        assert got[basis.label] == want
