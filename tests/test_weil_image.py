"""weil_image builds rho(g) from l + 1 word columns and g's action on R.

The reference is the word route, weil_image_op(g, gens).materialize(),
which pushes every basis vector through the word; pi_map(image) == g is
no reference, as the image is built from g's columns.  The trace identity
Tr rho(g) * Tr rho(g^-1) = r^dim ker(g - 1) shares no route with either,
nor does reduction mod p: the Q(theta) image, mapped by theta -> theta_p,
is the GF(p) image.
"""

import functools
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spweil.fields import make_field, parse_field_spec
from spweil.generators import weil_generators
from spweil.heisenberg import DoesNotNormalize, image_from_columns
from spweil.linalg import DenseMatrix
from spweil.operators import DenseOp, WeilParams
from spweil.submodules import (restrict, restrict_quotient, submodule_bases,
                               weil_image_irreducible)
from spweil.symplectic import (GenToken, SpMatrix, evaluate_word, gen_images,
                               random_element, sp_assignment, weil_image,
                               weil_image_op)
from spweil.verification import corrupt_c_entry

FAMILIES = ["cyclotomic", "auto-prime", "gf2-auto"]
CELLS = [(3, 1), (5, 1), (3, 2), (5, 2), (3, 3)]


@functools.lru_cache(maxsize=None)
def generator_set(family, r, ell):
    return weil_generators(WeilParams(r, ell, make_field(parse_field_spec(family, r))))


def rank_mod(rows, r):
    """Rank over GF(r) by Gauss-Jordan elimination on integer rows."""
    rows = [[x % r for x in row] for row in rows]
    rank = 0
    for j in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][j], r - 2, r)
        for i in range(len(rows)):
            if i != rank and rows[i][j]:
                f = rows[i][j] * inv
                rows[i] = [(a - f * b) % r for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def lower_left_rank(g):
    """Rank of the block of g from the e-coordinates to the f-coordinates."""
    return rank_mod([row[0::2] for row in g.rows[1::2]], g.r)


def unipotent_word(draw, r, ell):
    """A word in U_t and D_st: g with zero lower-left block and identity
    diagonal blocks."""
    tokens = [GenToken("U", t) for t in range(1, ell + 1)]
    tokens += [GenToken("D", t, s) for s in range(1, ell + 1) for t in range(s + 1, ell + 1)]
    picks = draw(st.lists(st.sampled_from(tokens), max_size=4))
    return [GenToken(tok.kind, tok.t, tok.s, draw(st.integers(1, r - 1))) for tok in picks]


@st.composite
def elements(draw, r, ell):
    """The identity, a generator image, an element whose lower-left block
    has rank < l (C_t on fewer than l slots between two unipotent words),
    or a random_element."""
    kind = draw(st.sampled_from(["identity", "generator", "low-rank", "random"]))
    if kind == "identity":
        return SpMatrix.identity(ell, r)
    if kind == "generator":
        images = gen_images(ell, r)
        return images[draw(st.sampled_from(sorted(images, key=lambda tok: tok.name)))]
    if kind == "random":
        return random_element(ell, r, draw(st.integers(0, 10 ** 6)))
    slots = draw(st.sets(st.integers(1, ell), max_size=ell - 1))
    word = unipotent_word(draw, r, ell) + [GenToken("C", t) for t in sorted(slots)]
    word += unipotent_word(draw, r, ell)
    g = evaluate_word(word, sp_assignment(ell, r), SpMatrix.identity(ell, r))
    assert lower_left_rank(g) == len(slots) < ell
    return g


@st.composite
def cases(draw):
    r, ell = draw(st.sampled_from(CELLS))
    return r, ell, draw(elements(r, ell))


@pytest.mark.parametrize("family", FAMILIES)
@given(case=cases())
@settings(max_examples=60, deadline=None)
def test_image_matches_the_word_route(family, case):
    r, ell, g = case
    gens = generator_set(family, r, ell)
    assert weil_image(g, gens) == weil_image_op(g, gens).materialize()


@pytest.mark.parametrize("family,which", [
    ("cyclotomic", "plus"), ("cyclotomic", "minus"), ("auto-prime", "plus"),
    ("auto-prime", "minus"), ("gf2-auto", "socle"), ("gf2-auto", "quotient")])
@pytest.mark.parametrize("r,ell", [(5, 1), (3, 2), (3, 3)])
def test_constituent_is_the_restricted_word_route(family, which, r, ell):
    gens = generator_set(family, r, ell)
    params = gens.params
    label = {"plus": "W+", "minus": "W-", "socle": "A"}.get(which)
    images = gen_images(ell, r)
    for g in [random_element(ell, r, seed) for seed in range(3)] + [images[GenToken("U", 1)]]:
        op = weil_image_op(g, gens)
        if which == "quotient":
            want = restrict_quotient(op, params)
        else:
            basis = next(b for b in submodule_bases(params) if b.label == label)
            want = restrict(op, basis, params.ctx, r, ell)
        assert weil_image_irreducible(g, gens, which) == want


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("r,ell", CELLS)
def test_corrupted_generators_do_not_normalize(family, r, ell):
    # weil_image checks only the l + 1 columns it computes (e_0 and the
    # e_(delta_t)), so it sees a fault in C_1 only where the word carries
    # one of those columns onto the fault; for C_1 alone that needs the
    # corrupted column of C_1 to be one of them, which is asserted first
    sound = generator_set(family, r, ell)
    gens = corrupt_c_entry(sound)
    faulty = {j for j, (a, b) in enumerate(zip(gens.rawC[0].materialize().columns(),
                                               sound.rawC[0].materialize().columns()))
              if a != b}
    assert faulty and faulty <= {0} | {r ** (ell - t) for t in range(1, ell + 1)}
    c1 = gen_images(ell, r)[GenToken("C", 1)]
    for g in (c1, c1 ** 3, c1 * random_element(ell, r, 1)):
        with pytest.raises(DoesNotNormalize, match="slot"):
            weil_image(g, gens)


def test_zero_first_column_does_not_normalize(gf7):
    params = WeilParams(3, 2, gf7)
    zero = DenseOp(params, DenseMatrix(gf7, [[0] * 9 for _ in range(9)]))
    with pytest.raises(DoesNotNormalize, match="zero"):
        image_from_columns(SpMatrix.identity(2, 3), zero, params)


@pytest.mark.parametrize("family", FAMILIES)
@given(case=cases())
@settings(max_examples=30, deadline=None)
def test_trace_identity(family, case):
    # |chi(g)|^2 = r^dim ker(g - 1) for the Weil character (Howe 1973,
    # Gerardin 1977), here as Tr rho(g) * Tr rho(g^-1), an identity of
    # algebraic integers that holds in every family
    r, ell, g = case
    gens = generator_set(family, r, ell)
    ctx = gens.params.ctx
    kernel_dim = 2 * ell - rank_mod(
        [[a - (i == j) for j, a in enumerate(row)] for i, row in enumerate(g.rows)], r)
    product = ctx.mul(weil_image(g, gens).trace(), weil_image(g.inverse(), gens).trace())
    assert product == ctx.from_int(r ** kernel_dim)


# the cells of the reduction oracle; the prime field is auto-prime's GF(p)
REDUCTION_CELLS = [(3, 2), (5, 2), (3, 3), (7, 2)]


@st.composite
def reduction_cases(draw):
    r, ell = draw(st.sampled_from(REDUCTION_CELLS))
    return r, ell, draw(elements(r, ell))


def reduced_mod_p(a, ctx):
    """The Q(theta) value a = (nums, den) under theta -> ctx.theta, over
    ctx = GF(p): sum_k nums[k] * theta_p^k times den^-1 mod p."""
    nums, den = a
    return sum(map(operator.mul, nums, ctx.theta_pow)) * pow(den, -1, ctx.p) % ctx.p


@given(case=reduction_cases())
@settings(max_examples=24, deadline=None)
def test_reduction_mod_p_is_the_prime_image(case):
    # theta -> theta_p, with every denominator (a divisor of a power of
    # 2r) inverted mod p, is a ring map from the Q(theta) entries onto
    # GF(p), p = 1 (mod r), so it carries the Q(theta) image, lambda and
    # all, to the GF(p) image; pi_map cannot see a wrong scalar, this can.
    # The Q(theta) side is the plane product route, the GF(p) side the
    # column fill over packed rows, and the map shares no code with either
    r, ell, g = case
    cyc = generator_set("cyclotomic", r, ell)
    prime = generator_set("auto-prime", r, ell)
    ctx = prime.params.ctx
    rows = weil_image_op(g, cyc).materialize().rows
    assert tuple(ctx.row([reduced_mod_p(a, ctx) for a in row]) for row in rows) == \
        weil_image(g, prime).rows


def reduced_mod_2(a, ctx):
    """The Q(theta) value a = (nums, den) under theta -> ctx.theta, over
    ctx = GF(2^k): the sum of the theta_F^k with nums[k] odd, the image of
    the numerator, over the image of den.  den must be odd: an even one has
    no inverse in characteristic 2."""
    nums, den = a
    assert den % 2, f"denominator {den} is zero in characteristic 2"
    acc = ctx.zero
    for c, power in zip(nums, ctx.theta_pow):
        if c % 2:
            acc = ctx.add(acc, power)
    return ctx.mul(acc, ctx.inv(ctx.from_int(den)))


@given(case=reduction_cases())
@settings(max_examples=20, deadline=None)
def test_reduction_mod_2_is_the_char2_image(case):
    # the same oracle in characteristic 2: the denominators are powers of r,
    # hence odd, so theta -> theta_F is a ring map from the Q(theta)
    # entries onto GF(2^k), r | 2^k - 1, and carries the Q(theta) image to
    # the GF(2^k) image
    r, ell, g = case
    cyc = generator_set("cyclotomic", r, ell)
    char2 = generator_set("gf2-auto", r, ell)
    ctx = char2.params.ctx
    rows = weil_image_op(g, cyc).materialize().rows
    assert tuple(tuple(reduced_mod_2(a, ctx) for a in row) for row in rows) == \
        weil_image(g, char2).rows
