import hashlib
import itertools
import json
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spweil import generators
from spweil.fields import FieldSpec, make_field
from spweil.generators import weil_generators
from spweil.heisenberg import pi_map
from spweil.operators import WeilParams, identity_op, operators_equal
from spweil.serialize import serialize_word
from spweil.symplectic import (GenToken, NotSymplectic, SpMatrix, UndefinedToken,
                               decompose, evaluate_word, gen_images, group_order,
                               random_element, random_word, sp_assignment, sp_form,
                               weil_assignment, weil_image)
from spweil.verification import mutate_lambda_sign


def brute_force_sp2(r):
    """Oracle: all 2x2 matrices over GF(r) with determinant 1."""
    out = []
    for a, b, c, d in itertools.product(range(r), repeat=4):
        if (a * d - b * c) % r == 1:
            out.append(SpMatrix(r, [[a, b], [c, d]]))
    return out


def bfs_closure(mats, ell, r):
    """Oracle: breadth-first closure of SpMatrix generators."""
    ident = SpMatrix.identity(ell, r)
    seen = {ident.rows}
    queue = deque([ident])
    while queue:
        m = queue.popleft()
        for g in mats:
            nm = m * g
            if nm.rows not in seen:
                seen.add(nm.rows)
                queue.append(nm)
    return len(seen)


def test_gen_images_l1():
    imgs = gen_images(1, 3)
    assert imgs[GenToken("C", 1)].rows == ((0, 1), (2, 0))
    assert imgs[GenToken("U", 1)].rows == ((1, 1), (0, 1))


def test_gen_images_D():
    imgs = gen_images(2, 5)
    d = imgs[GenToken("D", 2, 1)]
    # f_2 -> f_2 + e_1 and f_1 -> f_1 + e_2, others fixed
    cols = list(zip(*d.rows))
    assert cols[3] == (1, 0, 0, 1)  # image of f_2
    assert cols[1] == (0, 1, 1, 0)  # image of f_1
    assert cols[0] == (1, 0, 0, 0)
    assert cols[2] == (0, 0, 1, 0)


def test_form_and_identity_entries():
    assert sp_form(2, 5).rows == ((0, 1, 0, 0), (4, 0, 0, 0), (0, 0, 0, 1), (0, 0, 4, 0))
    assert SpMatrix.identity(2, 3).rows == tuple(
        tuple(int(i == j) for j in range(4)) for i in range(4))
    assert sp_form(1, 3) * sp_form(1, 3) == SpMatrix(3, [[2, 0], [0, 2]])


@pytest.mark.parametrize("ell,r", [(1, 3), (1, 5), (2, 3), (2, 5), (3, 3)])
def test_gen_images_are_symplectic(ell, r):
    J = sp_form(ell, r)
    for m in gen_images(ell, r).values():
        assert m.transpose() * J * m == J
        assert m.is_symplectic()


def symplectic_pairing(u, v, r):
    """b(u, v) for coordinate vectors in the interleaved basis."""
    return sum(u[i] * v[i + 1] - u[i + 1] * v[i] for i in range(0, len(u), 2)) % r


def test_symplectic_pairing_hyperbolic():
    # b(e_i, f_j) = delta_ij in the interleaved ordering
    e1, f1, e2, f2 = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)
    assert symplectic_pairing(e1, f1, 5) == 1
    assert symplectic_pairing(f1, e1, 5) == 4
    assert symplectic_pairing(e1, e2, 5) == 0
    assert symplectic_pairing(e1, f2, 5) == 0


def test_evaluate_word_empty_and_orders():
    ident = SpMatrix.identity(1, 3)
    assign = sp_assignment(1, 3)
    assert evaluate_word([], assign, ident) == ident
    assert evaluate_word([GenToken("C", 1, None, 4)], assign, ident) == ident
    word = [GenToken("C", 1), GenToken("C", 1), GenToken("C", 1), GenToken("C", 1)]
    assert evaluate_word(word, assign, ident) == ident


def test_free_reduction_invariance():
    # a word and an unreduced variant evaluate identically
    assign = sp_assignment(2, 3)
    ident = SpMatrix.identity(2, 3)
    word = [GenToken("U", 1, None, 2), GenToken("D", 2, 1, 1), GenToken("C", 2, None, 3)]
    padded = [GenToken("U", 1, None, 2), GenToken("C", 1, None, 2),
              GenToken("C", 1, None, 2), GenToken("D", 2, 1, 1),
              GenToken("U", 2, None, 1), GenToken("U", 2, None, 2),
              GenToken("C", 2, None, 3)]
    assert evaluate_word(word, assign, ident) == evaluate_word(padded, assign, ident)


def test_decompose_identity_is_empty():
    assert decompose(SpMatrix.identity(2, 5)) == []


def test_decompose_generator_roundtrip():
    u = SpMatrix(3, [[1, 1], [0, 1]])
    word = decompose(u)
    got = evaluate_word(word, sp_assignment(1, 3), SpMatrix.identity(1, 3))
    assert got == u


def test_decompose_rejects_non_symplectic():
    with pytest.raises(NotSymplectic):
        decompose(SpMatrix(3, [[1, 1], [1, 1]]))
    with pytest.raises(NotSymplectic):
        decompose(SpMatrix(5, [[2, 0], [0, 2]]))


def test_decompose_exhaustive_sp2_3():
    assign = sp_assignment(1, 3)
    ident = SpMatrix.identity(1, 3)
    for g in brute_force_sp2(3):
        word = decompose(g)
        assert evaluate_word(word, assign, ident) == g
        # emitted exponents are normalised
        for tok in word:
            assert 1 <= tok.exp < tok.order(3)


@pytest.mark.parametrize("ell,r", [(1, 5), (1, 7), (2, 3), (2, 5), (3, 3), (2, 7)])
def test_decompose_roundtrip_random(ell, r):
    assign = sp_assignment(ell, r)
    ident = SpMatrix.identity(ell, r)
    bound = 8 * ell * ell * r
    for seed in range(100):
        g = random_element(ell, r, seed)
        word = decompose(g)
        assert evaluate_word(word, assign, ident) == g
        assert len(word) <= bound


GOLDEN_CELLS = [(1, 3), (1, 5), (1, 7), (2, 3), (2, 5), (2, 7), (3, 3), (3, 5), (4, 3)]
GOLDEN_WORDS_SHA256 = "b6dce48547526ad231f7c65abec4863473a956cc639453bc74b7335ecb0633e5"


def test_decompose_golden_words():
    # the roundtrip holds for many words; this pins the one decompose emits,
    # so the words in `spweil image` documents keep their bytes
    h = hashlib.sha256()
    for ell, r in GOLDEN_CELLS:
        for seed in range(200):
            word = decompose(random_element(ell, r, seed))
            h.update(json.dumps(serialize_word(word)).encode() + b"\n")
    assert h.hexdigest() == GOLDEN_WORDS_SHA256


@given(seed=st.integers(0, 10 ** 9))
@settings(max_examples=40, deadline=None)
def test_decompose_roundtrip_hypothesis(seed):
    g = random_element(2, 3, seed)
    word = decompose(g)
    got = evaluate_word(word, sp_assignment(2, 3), SpMatrix.identity(2, 3))
    assert got == g


def test_random_element_deterministic_and_symplectic():
    a = random_element(2, 5, 123)
    b = random_element(2, 5, 123)
    assert a == b
    assert a.is_symplectic()
    assert random_element(2, 5, 124) != a


@pytest.mark.parametrize("ell,r", [(4, 3), (2, 5), (3, 3), (1, 7)])
def test_random_element_is_its_word_in_sp(ell, r):
    # random_element applies the word by row operations; the dense product
    # of the word's SpMatrix images is the reference
    for seed in range(60):
        want = evaluate_word(random_word(ell, r, seed), sp_assignment(ell, r),
                             SpMatrix.identity(ell, r))
        assert random_element(ell, r, seed) == want, (ell, r, seed)


def test_random_element_hits_all_of_sp2_3():
    all_sp = {m.rows for m in brute_force_sp2(3)}
    seen = set()
    for seed in range(10000):
        seen.add(random_element(1, 3, seed).rows)
        if len(seen) == 24:
            break
    assert seen == all_sp


def test_group_order_formula_vs_closure():
    # independent closure oracle over the projected generators
    assert group_order(1, 3) == 24 == bfs_closure(list(gen_images(1, 3).values()), 1, 3)
    assert group_order(1, 5) == 120 == bfs_closure(list(gen_images(1, 5).values()), 1, 5)
    assert group_order(2, 3) == 51840 == bfs_closure(list(gen_images(2, 3).values()), 2, 3)
    assert group_order(1, 7) == 336


def test_weil_image_identity(gf7):
    params = WeilParams(3, 1, gf7)
    gens = weil_generators(params)
    from spweil.linalg import DenseMatrix
    assert weil_image(SpMatrix.identity(1, 3), gens) == DenseMatrix.identity(gf7, 3)


def test_weil_image_unique_preimages(gf7):
    params = WeilParams(3, 1, gf7)
    gens = weil_generators(params)
    # pi(U) pulls back to U, pi(lam C) to lam C (= 3 C over GF(7))
    assert weil_image(SpMatrix(3, [[1, 1], [0, 1]]), gens) == gens.U[0].materialize()
    assert weil_image(SpMatrix(3, [[0, 1], [2, 0]]), gens) == gens.lamC[0].materialize()


def test_weil_image_homomorphism(gf7):
    params = WeilParams(3, 2, gf7)
    gens = weil_generators(params)
    for seed in range(10):
        g = random_element(2, 3, seed)
        h = random_element(2, 3, seed + 1000)
        assert weil_image(g * h, gens) == weil_image(g, gens) * weil_image(h, gens)


def test_weil_image_word_independent(gf7):
    # evaluating a different word for the same element gives the same matrix
    params = WeilParams(3, 1, gf7)
    gens = weil_generators(params)
    ident = identity_op(params)
    g = SpMatrix(3, [[1, 1], [0, 1]])
    word1 = decompose(g)
    # an artificially padded word for the same group element
    word2 = [GenToken("C", 1, None, 2), GenToken("C", 1, None, 2)] + word1
    m1 = evaluate_word(word1, weil_assignment(gens), ident).materialize()
    m2 = evaluate_word(word2, weil_assignment(gens), ident).materialize()
    assert m1 == m2


def test_weil_image_independent_factorizations(gf7, gf11):
    # factor g as h * (h^-1 g): two genuinely different words, one Weil matrix
    for r, ell, ctx in [(3, 2, gf7), (5, 2, gf11)]:
        params = WeilParams(r, ell, ctx)
        gens = weil_generators(params)
        ident = identity_op(params)
        assign = weil_assignment(gens)
        for seed in range(5):
            g = random_element(ell, r, seed)
            h = random_element(ell, r, seed + 777)
            word_direct = decompose(g)
            word_split = decompose(h) + decompose(h.inverse() * g)
            assert word_direct != word_split
            m1 = evaluate_word(word_direct, assign, ident).materialize()
            m2 = evaluate_word(word_split, assign, ident).materialize()
            assert m1 == m2


def test_word_serialization_roundtrip():
    word = [GenToken("C", 1, None, 3), GenToken("D", 2, 1, 4),
            GenToken("U", 2, None, 1)]
    records = serialize_word(word)
    assert records[1] == {"gen": "D", "t": 2, "s": 1, "exp": 4}
    assert "s" not in records[0]
    assert [GenToken(rec["gen"], rec["t"], rec.get("s"), rec["exp"])
            for rec in records] == word


def test_pi_weil_image_roundtrip(gf7):
    params = WeilParams(3, 2, gf7)
    gens = weil_generators(params)
    for seed in range(25):
        g = random_element(2, 3, seed)
        assert pi_map(weil_image(g, gens), params) == g


@pytest.mark.parametrize("ell,r", [(1, 3), (2, 5), (3, 3)])
def test_sp_assignment_powers_match_repeated_products(ell, r):
    # each cached power against a product of the exponent-1 image, for
    # exponents below zero and past the order
    assign = sp_assignment(ell, r)
    for base_tok, base in gen_images(ell, r).items():
        order = base_tok.order(r)
        for exp in range(-order - 1, 2 * order + 1):
            want = SpMatrix.identity(ell, r)
            for _ in range(exp % order):
                want = want * base
            tok = GenToken(base_tok.kind, base_tok.t, base_tok.s, exp)
            assert assign(tok) == want
            assert assign(tok) is assign(tok)
    assert sp_assignment(ell, r) is assign
    with pytest.raises(UndefinedToken):
        assign(GenToken("D", 1, 1))


# tokens with no base image at l = 2: slots out of range (t = 0 would wrap
# around to U_2 as a tuple index), s and t swapped or equal, an s on C or U,
# a D without s, an unknown kind; each at exponents 0, 1 and 2
MALFORMED_TOKENS = [GenToken(kind, t, s, e) for kind, t, s in [
    ("U", 0, None), ("U", 3, None), ("U", 1, 2), ("C", 0, None), ("C", 3, None),
    ("C", 2, 1), ("D", 1, 2), ("D", 2, 2), ("D", 2, None), ("D", 3, 1), ("X", 1, None)]
    for e in (0, 1, 2)]


def test_weil_assignment_rejects_what_sp_assignment_rejects(gf7):
    params = WeilParams(3, 2, gf7)
    weil, sp = weil_assignment(weil_generators(params)), sp_assignment(2, 3)
    for tok in MALFORMED_TOKENS:
        with pytest.raises(UndefinedToken):
            sp(tok)
        with pytest.raises(UndefinedToken):
            weil(tok)


def test_weil_token_powers_built_once_per_generator_set(gf7, monkeypatch):
    gens = weil_generators(WeilParams(3, 3, gf7))
    calls = []
    negation = generators.negation_monomial
    monkeypatch.setattr(generators, "negation_monomial",
                        lambda *args: calls.append(args) or negation(*args))
    g = random_element(3, 3, 5)
    weil_image(g, gens)
    built = len(calls)
    assert built > 0  # the word has C-token powers above 1
    weil_image(g, gens)
    assert len(calls) == built
    # a set made by dataclasses.replace gets its own operators
    bad = mutate_lambda_sign(gens)
    assert weil_assignment(bad) is not weil_assignment(gens)
    assert weil_assignment(bad)(GenToken("C", 1)) is bad.lamC[0]
    c3 = GenToken("C", 1, None, 3)
    assert not operators_equal(weil_assignment(bad)(c3), weil_assignment(gens)(c3))


@pytest.mark.parametrize("r,p", [(3, 7), (5, 11)])
def test_weil_token_powers_project_to_sp_powers(r, p):
    # every valid (kind, t, s, exp) at l = 2: the Weil operator projects to
    # the symplectic power, so the power is built for every exponent
    params = WeilParams(r, 2, make_field(FieldSpec("prime", r, p=p)))
    weil, sp = weil_assignment(weil_generators(params)), sp_assignment(2, r)
    for base_tok in gen_images(2, r):
        for e in range(base_tok.order(r)):
            tok = GenToken(base_tok.kind, base_tok.t, base_tok.s, e)
            assert pi_map(weil(tok), params) == sp(tok)


@pytest.mark.parametrize("ell,r", [(1, 3), (1, 5), (2, 3), (2, 5), (3, 3)])
def test_sp_inverse_from_the_form(ell, r):
    ident = SpMatrix.identity(ell, r)
    for seed in range(6):
        g = random_element(ell, r, seed)
        assert g * g.inverse() == ident
        assert g.inverse() * g == ident
        assert g ** -3 * g ** 3 == ident


def test_sp_inverse_rejects_a_non_symplectic_matrix():
    # both invertible, but the final entry 2 scales the form on the last plane
    for g in (SpMatrix(3, [[1, 0], [0, 2]]),
              SpMatrix(5, [[1 if i == j else 0 for j in range(4)] for i in range(3)]
                       + [[0, 0, 0, 2]])):
        with pytest.raises(NotSymplectic):
            g.inverse()
