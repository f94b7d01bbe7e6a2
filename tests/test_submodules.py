import itertools

import pytest

from spweil import submodules, symplectic
from spweil.fields import (CyclotomicContext, ExtensionFieldContext, FieldSpec,
                           PrimeFieldContext, make_field)
from spweil.generators import weil_generators
from spweil.linalg import DenseMatrix, SingularMatrix
from spweil.operators import DenseOp, WeilParams, flat_index
from spweil.submodules import (NotInvariant, SubmoduleBasis, WrongCharacteristic,
                               _flat_pairs, quotient_representatives,
                               representative_indices, restrict, restrict_quotient,
                               solve_in_span, spin, submodule_bases,
                               weil_image_irreducible)
from spweil.symplectic import SpMatrix, random_element, weil_image, weil_image_op


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


def test_pair_table_lists_the_representatives_in_order():
    # the (xi, -xi) table read off the negation permutation lists the flat
    # pairs of representative_indices in its order, the W+- coordinate order
    for r in (3, 5, 7, 11):
        for ell in itertools.takewhile(lambda e: r ** e <= 1331, itertools.count(1)):
            want = tuple((flat_index(xi, r), flat_index(tuple(-x % r for x in xi), r))
                         for xi in representative_indices(r, ell))
            assert _flat_pairs(r, ell) == want


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


def _generators_and_word_images(params, gens, seeds=(0, 1)):
    """The generating operators, then the word-route images of random
    elements as DenseOps."""
    r, ell = params.r, params.ell
    ops = [op for _, _, _, op in gens.sp_generating_ops()]
    return ops + [DenseOp(params, weil_image_op(random_element(ell, r, seed), gens).materialize())
                  for seed in seeds]


def test_fast_path_matches_generic_solve(cyc3, gf4, cyc5, gf11, gf16):
    # the pair reader agrees with the RREF solve on every pair label, for
    # the generators and for word-route images
    cases = [(3, 1, cyc3), (3, 2, cyc3), (3, 1, gf4)]
    cases += [(5, ell, ctx) for ctx in (cyc5, gf11, gf16) for ell in (1, 2)]
    for r, ell, ctx in cases:
        params = WeilParams(r, ell, ctx)
        gens = weil_generators(params)
        ops = _generators_and_word_images(params, gens)
        for basis in submodule_bases(params):
            for op in ops:
                fast = restrict(op, basis, ctx, r, ell)
                generic = restrict(op, basis, ctx)
                assert fast == generic


def test_restrict_without_r_is_the_exact_solve(monkeypatch, gf7):
    # with no r every basis, the pair bases included, goes through
    # solve_in_span, so it stays a reference independent of the pair reader
    calls = []
    solve = submodules.solve_in_span
    monkeypatch.setattr(submodules, "solve_in_span",
                        lambda *args: calls.append(1) or solve(*args))
    params = WeilParams(3, 2, gf7)
    gens = weil_generators(params)
    bases = submodule_bases(params)
    for basis in bases:
        restrict(gens.lamC[0], basis, gf7)
    assert len(calls) == len(bases)
    for basis in bases:
        restrict(gens.lamC[0], basis, gf7, 3, 2)
    assert len(calls) == len(bases)


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


def test_quotient_matches_solve_in_span_reference():
    # each image of a representative v_xi, written by the exact solve in
    # B's basis plus the representatives: its representative coordinates
    # are its class in W/B
    for r in (3, 5, 7):
        ctx = make_field(FieldSpec("auto-char2", r))  # GF(4), GF(16), GF(8)
        for ell in (1, 2):
            params = WeilParams(r, ell, ctx)
            gens = weil_generators(params)
            heart = next(b for b in submodule_bases(params) if b.label == "B")
            reps = quotient_representatives(params).vectors
            for op in _generators_and_word_images(params, gens):
                images = [op.apply(list(v)) for v in reps]
                coords = solve_in_span(ctx, heart.vectors + reps, images)
                want = DenseMatrix.from_columns(ctx, [c[heart.dim:] for c in coords])
                assert restrict_quotient(op, params) == want


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


def _count_muls(monkeypatch):
    """A list that gains an entry at each field mul, in every family."""
    calls = []
    for cls in (CyclotomicContext, PrimeFieldContext, ExtensionFieldContext):
        mul = cls.mul
        monkeypatch.setattr(cls, "mul",
                            lambda self, a, b, mul=mul: calls.append(1) or mul(self, a, b))
    return calls


def test_restrict_dense_image_on_pair_bases_makes_no_multiply(monkeypatch):
    # the pair reader restricts a dense image by adding and subtracting its
    # columns: no field multiply in restrict, restrict_quotient or any of
    # weil_image_irreducible's four constituents; the generic solve is the
    # reference
    ctx = make_field(FieldSpec("cyclotomic", 5))
    params = WeilParams(5, 2, ctx)
    gens = weil_generators(params)
    g = random_element(2, 5, 7)
    op = DenseOp(params, weil_image(g, gens))
    ctx2 = make_field(FieldSpec("auto-char2", 5))
    params2 = WeilParams(5, 2, ctx2)
    gens2 = weil_generators(params2)
    op2 = DenseOp(params2, weil_image(g, gens2))
    images = {id(gens): op.mat, id(gens2): op2.mat}
    monkeypatch.setattr(symplectic, "weil_image", lambda g, gens, word=None: images[id(gens)])
    calls = _count_muls(monkeypatch)
    got = {b.label: restrict(op, b, ctx, 5, 2) for b in submodule_bases(params)}
    got2 = {b.label: restrict(op2, b, ctx2, 5, 2) for b in submodule_bases(params2)}
    quotient = restrict_quotient(op2, params2)
    constituents = {which: weil_image_irreducible(g, gens, which) for which in ("plus", "minus")}
    constituents.update((which, weil_image_irreducible(g, gens2, which))
                        for which in ("socle", "quotient"))
    assert calls == []
    monkeypatch.undo()
    for basis in submodule_bases(params):
        images = [op.mat.apply(list(v)) for v in basis.vectors]
        want = DenseMatrix.from_columns(ctx, solve_in_span(ctx, basis.vectors, images))
        assert got[basis.label] == want
    for basis in submodule_bases(params2):
        assert got2[basis.label] == restrict(op2, basis, ctx2)
    assert constituents == {"plus": got["W+"], "minus": got["W-"], "socle": got2["A"],
                            "quotient": quotient}
