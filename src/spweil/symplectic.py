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
import random
from dataclasses import dataclass

from .generators import lam_C_squared
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
        n = 2 * ell
        return cls(r, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def n(self):
        return len(self.rows)

    @property
    def ell(self):
        return self.n // 2

    def __mul__(self, other):
        if not isinstance(other, SpMatrix):
            return NotImplemented
        r = self.r
        cols = list(zip(*other.rows))
        rows = [tuple(sum(a * b for a, b in zip(row, col)) % r for col in cols)
                for row in self.rows]
        return SpMatrix(r, rows)

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
    """The Gram matrix J of the alternating form in the interleaved basis."""
    n = 2 * ell
    rows = [[0] * n for _ in range(n)]
    for i in range(ell):
        rows[2 * i][2 * i + 1] = 1
        rows[2 * i + 1][2 * i] = r - 1
    return SpMatrix(r, rows)


def symplectic_pairing(u, v, r):
    """b(u, v) for coordinate vectors in the interleaved basis."""
    acc = 0
    for i in range(0, len(u), 2):
        acc += u[i] * v[i + 1] - u[i + 1] * v[i]
    return acc % r


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
    sp_assignment rejects."""
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

    return _assignment(images, params.r, power)


def group_order(ell, r):
    """|Sp(2l, r)| = r^(l^2) * prod_(i=1..l) (r^(2i) - 1)."""
    order = r ** (ell * ell)
    for i in range(1, ell + 1):
        order *= r ** (2 * i) - 1
    return order


def random_element(ell, r, seed, length=50):
    """Deterministic pseudorandom element: a random word evaluated in Sp."""
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
    return evaluate_word(word, sp_assignment(ell, r), SpMatrix.identity(ell, r))


# ---------------------------------------------------------------------------
# word decomposition


class _Engine:
    """Left-multiplies the working matrix by generator words until it reaches
    the identity, recording each word.  Every helper acts only on planes
    >= its smallest argument, so previously standardised hyperbolic pairs are
    never disturbed."""

    def __init__(self, g):
        self.r = g.r
        self.ell = g.ell
        self.m = [list(row) for row in g.rows]
        self.applied = []  # list of token lists, in application order

    # row operations; tokens evaluate to the matrix being applied on the left

    def _addmul(self, dst, src, a):
        if a % self.r:
            m, r = self.m, self.r
            m[dst] = [(x + a * y) % r for x, y in zip(m[dst], m[src])]

    def u(self, k, a):
        a %= self.r
        if a:
            self.applied.append([GenToken("U", k + 1, None, a)])
            self._addmul(2 * k, 2 * k + 1, a)

    def x_opp(self, k, a):
        """c_k u_k^a c_k^-1: row f_k -= a * row e_k."""
        a %= self.r
        if a:
            self.applied.append([GenToken("C", k + 1), GenToken("U", k + 1, None, a),
                                 GenToken("C", k + 1, None, 3)])
            self._addmul(2 * k + 1, 2 * k, -a)

    def c(self, k):
        self.applied.append([GenToken("C", k + 1)])
        m, r = self.m, self.r
        e, f = 2 * k, 2 * k + 1
        m[e], m[f] = m[f], [(-x) % r for x in m[e]]

    def d(self, k, t, a):
        a %= self.r
        if a:
            self.applied.append([GenToken("D", t + 1, k + 1, a)])
            self._addmul(2 * k, 2 * t + 1, a)
            self._addmul(2 * t, 2 * k + 1, a)

    def y_mixed(self, k, t, a):
        """c_k d^a c_k^-1: row e_t += a * row e_k; row f_k -= a * row f_t."""
        a %= self.r
        if a:
            self.applied.append([GenToken("C", k + 1), GenToken("D", t + 1, k + 1, a),
                                 GenToken("C", k + 1, None, 3)])
            self._addmul(2 * t, 2 * k, a)
            self._addmul(2 * k + 1, 2 * t + 1, -a)

    def z_mixed(self, k, t, a):
        """c_t d^a c_t^-1: row e_k += a * row e_t; row f_t -= a * row f_k."""
        a %= self.r
        if a:
            self.applied.append([GenToken("C", t + 1), GenToken("D", t + 1, k + 1, a),
                                 GenToken("C", t + 1, None, 3)])
            self._addmul(2 * k, 2 * t, a)
            self._addmul(2 * t + 1, 2 * k + 1, -a)

    def w_mixed(self, k, t, a):
        """c_k c_t d^a c_t^-1 c_k^-1: row f_k -= a * row e_t; row f_t -= a * row e_k."""
        a %= self.r
        if a:
            self.applied.append([GenToken("C", k + 1), GenToken("C", t + 1),
                                 GenToken("D", t + 1, k + 1, a),
                                 GenToken("C", t + 1, None, 3),
                                 GenToken("C", k + 1, None, 3)])
            self._addmul(2 * k + 1, 2 * t, -a)
            self._addmul(2 * t + 1, 2 * k, -a)

    def torus(self, k, alpha):
        """diag(alpha, alpha^-1) on plane k, via three unipotents and c_k^-1."""
        r = self.r
        alpha %= r
        if alpha == 1:
            return
        beta = pow(alpha, r - 2, r)
        self.applied.append([GenToken("U", k + 1, None, alpha), GenToken("C", k + 1),
                             GenToken("U", k + 1, None, beta),
                             GenToken("C", k + 1, None, 3),
                             GenToken("U", k + 1, None, alpha),
                             GenToken("C", k + 1, None, 3)])
        m = self.m
        m[2 * k] = [x * alpha % r for x in m[2 * k]]
        m[2 * k + 1] = [x * beta % r for x in m[2 * k + 1]]

    def column(self, j):
        return [row[j] for row in self.m]

    def reduce(self):
        r, ell = self.r, self.ell
        for k in range(ell):
            v = self.column(2 * k)
            # make the plane-k component of column e_k nonzero
            if v[2 * k] == 0 and v[2 * k + 1] == 0:
                t = next(t for t in range(k + 1, ell)
                         if v[2 * t] or v[2 * t + 1])
                if v[2 * t + 1]:
                    self.d(k, t, 1)
                else:
                    self.z_mixed(k, t, 1)
                v = self.column(2 * k)
            if v[2 * k] == 0:
                self.c(k)
                v = self.column(2 * k)
            # clear the other planes of column e_k, then plane k itself
            inv_x = pow(v[2 * k], r - 2, r)
            for t in range(k + 1, ell):
                if v[2 * t]:
                    self.y_mixed(k, t, -v[2 * t] * inv_x)
                    v = self.column(2 * k)
                if v[2 * t + 1]:
                    self.w_mixed(k, t, v[2 * t + 1] * inv_x)
                    v = self.column(2 * k)
            if v[2 * k + 1]:
                self.x_opp(k, v[2 * k + 1] * inv_x)
                v = self.column(2 * k)
            self.torus(k, pow(v[2 * k], r - 2, r))
            # column f_k: pairing with the standardised e_k forces w[f_k] = 1
            w = self.column(2 * k + 1)
            for t in range(k + 1, ell):
                if w[2 * t]:
                    self.d(k, t, -w[2 * t])
                    w = self.column(2 * k + 1)
                if w[2 * t + 1]:
                    self.z_mixed(k, t, w[2 * t + 1])
                    w = self.column(2 * k + 1)
            if w[2 * k]:
                self.u(k, -w[2 * k])

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
