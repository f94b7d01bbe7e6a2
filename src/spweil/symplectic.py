"""Sp(2l, r): matrices, generator images, words, and decomposition.

The symplectic form lives on GF(r)^(2l) in the interleaved hyperbolic basis
(e_1, f_1, ..., e_l, f_l): b(e_i, f_i) = 1 and all other pairings vanish.
Coordinates 2i-2 / 2i-1 (0-based) belong to e_i / f_i.

The generator images are

    c_t: e_t -> -f_t, f_t -> e_t       (order 4)
    d_st: f_t -> f_t + e_s, f_s -> f_s + e_t   (order r)
    u_t: f_t -> f_t + e_t              (order r)

with all other basis vectors fixed.  decompose() writes an arbitrary
symplectic matrix as a word in these generators by hyperbolic-pair
elimination; the emitted word has at most ~8*l^2 tokens (well inside the
documented K*l^2*r bound) and is certified by the roundtrip contract
evaluate_word(decompose(g)) == g, not by the internal route.
"""

from __future__ import annotations

import functools
import operator
import random
from dataclasses import dataclass

from .generators import lam_C_squared
from .linalg import sparse_rows
from .operators import identity_op


class NotSymplectic(ValueError):
    pass


class UndefinedToken(KeyError):
    pass


@dataclass(frozen=True)
class GenToken:
    """One factor of a word: kind "C" | "D" | "U", slot t (and s < t for D),
    integer exponent."""

    kind: str
    t: int
    s: int | None = None
    exp: int = 1

    @property
    def name(self):
        """The generator's name in emitted documents and check ids: C1, D12, U1."""
        return f"D{self.s}{self.t}" if self.kind == "D" else f"{self.kind}{self.t}"

    def order(self, r):
        return 4 if self.kind == "C" else r

    def inverse(self, r):
        o = self.order(r)
        return GenToken(self.kind, self.t, self.s, (-self.exp) % o)


@dataclass(frozen=True)
class SpMatrix:
    """A 2l x 2l matrix over GF(r), rows of residues in [0, r)."""

    r: int
    rows: tuple

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(tuple(x % self.r for x in row)
                                               for row in self.rows))

    @classmethod
    def identity(cls, ell, r):
        return cls(r, sparse_rows(0, 2 * ell, [(1,)], ((0, i) for i in range(2 * ell))))

    @property
    def n(self):
        return len(self.rows)

    @property
    def ell(self):
        return self.n // 2

    def __mul__(self, other):
        if not isinstance(other, SpMatrix):
            return NotImplemented
        cols = list(zip(*other.rows))
        # __post_init__ reduces the entries mod r
        return SpMatrix(self.r, [[sum(map(operator.mul, row, col)) for col in cols]
                                 for row in self.rows])

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        out = SpMatrix.identity(self.ell, self.r)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def transpose(self):
        return SpMatrix(self.r, zip(*self.rows))

    def inverse(self):
        """g^-1 = J^-1 g^T J, read off g^T J g = J, with J^-1 = J^T = -J."""
        if not self.is_symplectic():
            raise NotSymplectic("only a symplectic matrix is inverted through the form")
        J = sp_form(self.ell, self.r)
        return J.transpose() * self.transpose() * J

    def is_symplectic(self):
        J = sp_form(self.ell, self.r)
        return self.transpose() * J * self == J

    def serialize(self):
        return [list(row) for row in self.rows]


def sp_form(ell, r):
    """The Gram matrix J of the alternating form in the interleaved basis:
    row k is 1 (k even) or -1 (k odd) in column k ^ 1."""
    return SpMatrix(r, sparse_rows(0, 2 * ell, [(1,), (r - 1,)],
                                   ((k % 2, k ^ 1) for k in range(2 * ell))))


def gen_images(ell, r):
    """Images of the base tokens (exponent 1) in Sp(2l, r)."""
    out = {}
    for t in range(1, ell + 1):
        rows = [[1 if i == j else 0 for j in range(2 * ell)] for i in range(2 * ell)]
        e, f = 2 * t - 2, 2 * t - 1
        rows[e][e], rows[f][e] = 0, r - 1   # e_t -> -f_t
        rows[e][f], rows[f][f] = 1, 0       # f_t -> e_t
        out[GenToken("C", t)] = SpMatrix(r, rows)

        rows = [[1 if i == j else 0 for j in range(2 * ell)] for i in range(2 * ell)]
        rows[e][f] = 1                      # f_t -> f_t + e_t
        out[GenToken("U", t)] = SpMatrix(r, rows)
    for s in range(1, ell + 1):
        for t in range(s + 1, ell + 1):
            rows = [[1 if i == j else 0 for j in range(2 * ell)] for i in range(2 * ell)]
            rows[2 * s - 2][2 * t - 1] = 1  # f_t -> f_t + e_s
            rows[2 * t - 2][2 * s - 1] = 1  # f_s -> f_s + e_t
            out[GenToken("D", t, s)] = SpMatrix(r, rows)
    return out


def evaluate_word(word, assign, identity):
    """Ordered product assign(token_1) * ... * assign(token_k); empty -> identity."""
    out = identity
    for tok in word:
        out = out * assign(tok)
    return out


def _assignment(images, r, power):
    """The assignment tok -> power(image of tok's base token, kind, t, e),
    e the exponent reduced mod the token's order, each computed once; a
    token with no base image raises UndefinedToken."""

    @functools.lru_cache(maxsize=None)
    def cached(kind, t, s, e):
        base = images.get(GenToken(kind, t, s))
        if base is None:
            raise UndefinedToken(f"no image for {GenToken(kind, t, s, e)}")
        return power(base, kind, t, e)

    def assign(tok):
        return cached(tok.kind, tok.t, tok.s, tok.exp % tok.order(r))

    return assign


@functools.lru_cache(maxsize=32)
def sp_assignment(ell, r):
    """Assignment mapping tokens to their SpMatrix images (with exponent),
    kept per (ell, r)."""
    return _assignment(gen_images(ell, r), r, lambda base, kind, t, e: base ** e)


def weil_assignment(gens):
    """Assignment mapping tokens to Weil operators: C -> lam*C_t, D -> D_st,
    U -> U_t, raised to the token's exponent (a C-token square is the
    monomial (-1)^((r-1)/2) * slot negation).  It rejects the tokens
    sp_assignment rejects.  It is built once per generator set, so each
    token power is computed once per set."""
    if gens._assignment is not None:
        return gens._assignment
    params = gens.params
    ell = params.ell
    images = {GenToken("C", t): gens.lamC[t - 1] for t in range(1, ell + 1)}
    images.update((GenToken("U", t), gens.U[t - 1]) for t in range(1, ell + 1))
    images.update((GenToken("D", t, s), op) for (s, t), op in gens.D.items())

    def power(base, kind, t, e):
        if kind != "C":
            return base ** e
        if e == 0:
            return identity_op(params)
        if e == 1:
            return base
        sq = lam_C_squared(params, t)
        return sq if e == 2 else sq * base

    gens._assignment = _assignment(images, params.r, power)
    return gens._assignment


def group_order(ell, r):
    """|Sp(2l, r)| = r^(l^2) * prod_(i=1..l) (r^(2i) - 1)."""
    order = r ** (ell * ell)
    for i in range(1, ell + 1):
        order *= r ** (2 * i) - 1
    return order


def random_word(ell, r, seed, length=50):
    """Deterministic pseudorandom word of length tokens: C_t^(1..3), U_t^(1..r-1)
    and, for l >= 2, D_st^(1..r-1)."""
    rng = random.Random(seed)
    kinds = ["C", "U"] + (["D"] if ell >= 2 else [])
    word = []
    for _ in range(length):
        kind = rng.choice(kinds)
        if kind == "D":
            s = rng.randrange(1, ell)
            t = rng.randrange(s + 1, ell + 1)
            word.append(GenToken("D", t, s, rng.randrange(1, r)))
        else:
            t = rng.randrange(1, ell + 1)
            exp = rng.randrange(1, 4) if kind == "C" else rng.randrange(1, r)
            word.append(GenToken(kind, t, None, exp))
    return word


def random_element(ell, r, seed, length=50):
    """Deterministic pseudorandom element: random_word evaluated in Sp, by
    left-multiplying the identity by the word with _Engine.apply's row
    operations; the matrix is evaluate_word's over sp_assignment, with no
    dense products."""
    eng = _Engine(SpMatrix.identity(ell, r))
    eng.apply(*random_word(ell, r, seed, length))
    return SpMatrix(r, eng.m)


# ---------------------------------------------------------------------------
# word decomposition


class _Engine:
    """Left-multiplies the working matrix by generator words until it reaches
    the identity, recording each word.  apply is the one method that writes
    rows; reduce only chooses tokens, and each word it applies acts on planes
    >= the plane being standardised, so standardised hyperbolic pairs are
    never disturbed."""

    def __init__(self, g):
        self.r = g.r
        self.ell = g.ell
        self.m = [list(row) for row in g.rows]
        self.applied = []  # token tuples, in application order

    def apply(self, *tokens):
        """Record the word and left-multiply the matrix by it, rightmost
        token first, each token by its kind's row operation on the rows
        e_t = 2t - 2 and f_t = 2t - 1:

            C_t^a, a = 1, 2, 3:  (e_t, f_t) -> (f_t, -e_t), (-e_t, -f_t), (-f_t, e_t)
            U_t^a:               e_t += a * f_t
            D_st^a:              e_s += a * f_t and e_t += a * f_s
        """
        self.applied.append(tokens)
        m, r = self.m, self.r
        for tok in reversed(tokens):
            a, e, f = tok.exp, 2 * tok.t - 2, 2 * tok.t - 1
            if tok.kind != "C":
                pairs = [(e, f)] if tok.kind == "U" else [(2 * tok.s - 2, f), (e, 2 * tok.s - 1)]
                for dst, src in pairs:
                    m[dst] = [(x + a * y) % r for x, y in zip(m[dst], m[src])]
            elif a % 4 == 1:
                m[e], m[f] = m[f], [-x % r for x in m[e]]
            elif a % 4 == 2:
                m[e], m[f] = [-x % r for x in m[e]], [-x % r for x in m[f]]
            else:
                m[e], m[f] = [-x % r for x in m[f]], m[e]

    def conj(self, outer, *inner):
        """The tokens of outer * inner * outer^-1, for a token list outer."""
        return (*outer, *inner, *(tok.inverse(self.r) for tok in reversed(outer)))

    def reduce(self):
        """Standardise the planes in turn: column e_k becomes e_k, then
        column f_k becomes f_k."""
        r, ell, m, apply, conj = self.r, self.ell, self.m, self.apply, self.conj
        for k in range(1, ell + 1):
            e, f = 2 * k - 2, 2 * k - 1
            c = GenToken("C", k)

            def d(t, a):
                return GenToken("D", t, k, a % r)

            def u(a):
                return GenToken("U", k, None, a % r)

            # make the plane-k component of column e_k nonzero
            if not (m[e][e] or m[f][e]):
                t = next(t for t in range(k + 1, ell + 1) if m[2 * t - 2][e] or m[2 * t - 1][e])
                if m[2 * t - 1][e]:
                    apply(d(t, 1))
                else:
                    apply(*conj([GenToken("C", t)], d(t, 1)))
            if m[e][e] == 0:
                apply(c)
            # clear the other planes of column e_k, then plane k itself
            inv_x = pow(m[e][e], r - 2, r)
            for t in range(k + 1, ell + 1):
                if m[2 * t - 2][e]:
                    apply(*conj([c], d(t, -m[2 * t - 2][e] * inv_x)))
                if m[2 * t - 1][e]:
                    apply(*conj([c, GenToken("C", t)], d(t, m[2 * t - 1][e] * inv_x)))
            if m[f][e]:
                apply(*conj([c], u(m[f][e] * inv_x)))
            # the torus element diag(alpha, alpha^-1), alpha = x^-1, on plane k
            x = m[e][e]
            if x != 1:
                alpha = pow(x, r - 2, r)
                apply(u(alpha), *conj([c], u(x)), u(alpha), c.inverse(r))
            # column f_k: pairing with the standardised e_k forces m[f][f] = 1
            for t in range(k + 1, ell + 1):
                if m[2 * t - 2][f]:
                    apply(d(t, -m[2 * t - 2][f]))
                if m[2 * t - 1][f]:
                    apply(*conj([GenToken("C", t)], d(t, m[2 * t - 1][f])))
            if m[e][f]:
                apply(u(-m[e][f]))

    def word(self):
        """g = h_1^-1 h_2^-1 ... in application order, tokens merged."""
        r = self.r
        out = []
        for tokens in self.applied:
            for tok in reversed(tokens):
                out.append(tok.inverse(r))
        return merge_tokens(out, r)


def merge_tokens(tokens, r):
    out = []
    for tok in tokens:
        e = tok.exp % tok.order(r)
        if e == 0:
            continue
        if out and out[-1].kind == tok.kind and out[-1].t == tok.t and out[-1].s == tok.s:
            e = (out[-1].exp + e) % tok.order(r)
            out.pop()
            if e == 0:
                continue
        out.append(GenToken(tok.kind, tok.t, tok.s, e))
    return out


def decompose(g):
    """Write a symplectic matrix as a word in the generator tokens.

    The contract is the roundtrip: evaluate_word(decompose(g), sp images) == g.
    """
    if not isinstance(g, SpMatrix) or not g.is_symplectic():
        raise NotSymplectic("input matrix does not preserve the form")
    eng = _Engine(g)
    eng.reduce()
    ident = SpMatrix.identity(g.ell, g.r)
    if SpMatrix(g.r, eng.m) != ident:
        raise AssertionError("elimination did not reach the identity")
    return eng.word()


def weil_image_op(g, gens, word=None):
    """The image of a symplectic matrix under the Weil representation, as the
    structured product of the word in (lam*C_t, D_st, U_t); word is
    decompose(g), computed here when it is not given."""
    if word is None:
        word = decompose(g)
    return evaluate_word(word, weil_assignment(gens), identity_op(gens.params))


def weil_image(g, gens, word=None):
    """The matrix of weil_image_op(g, gens, word), for every field family
    from l + 1 of its columns: the word is applied to e_0 and each
    e_(delta_t) only, and heisenberg.image_from_columns fills the rest from
    g's action on R.  weil_image_op(...).materialize() is the reference
    route, through all n columns.

    The two agree when gens is a sound generator set.  When it is not, only
    those l + 1 columns are checked: heisenberg.DoesNotNormalize is raised
    when they are not those of a normaliser of R projecting to g, and a
    fault that shows in the word's other columns only goes undetected, the
    result being a normaliser that differs from the reference route."""
    from .heisenberg import image_from_columns

    return image_from_columns(g, weil_image_op(g, gens, word), gens.params)
