"""The extraspecial group R inside GL(W) and the projection to Sp(2l, r).

Every element of R has the canonical form theta^c * B^b * A^a (exponent
vectors a, b of length l), acting on basis vectors by

    v_xi -> theta^(c + a.xi) v_(xi + b).

The group commutator descends to the alternating form

    b((a, b), (a', b')) = a.b' - a'.b  (mod r)

on R/Z(R), and conjugation by an element of GL(W) normalising R defines the
projection pi onto Sp(2l, r), written in the interleaved hyperbolic basis
(image of A_1, image of B_1, ...).  Ker pi = R*Z with Z the scalars, so
recognition of conjugates is performed modulo scalars.

W is irreducible under R (it is the Heisenberg, or Schroedinger, module of
Gerardin 1977, "Weil representations associated to finite fields"; the
coefficient characteristic is never r).  So pi needs no matrix inverse: once
x * n = n * g has a solution x for every generator g of R, ker n is an
R-submodule, hence 0 or W, and a matrix without zero rows is invertible.

Nor does pi need a field division.  If n normalises R*Z, each conjugate
x_g = n g n^-1 of g = A_t, B_t is z * h with h in R and z a scalar.  Then
x_g^r = n g^r n^-1 = 1, and h^r = 1 as r is odd, so z^r = 1 and z is a power
of theta.  Every nonzero entry of x_g is therefore a power of theta, and a
conjugate is the MonomialOp of its permutation and theta exponents.
Recognition in R*Z reads those integers; no field value is compared.  A
dense n is read once into one int per row, lane j holding entry j's
(theta class + 1, exponent), 0 for a zero entry, with a carry bit above
the exponent (_theta_codes, _lanes).  A row of n * A_t is then one add of
the slot-t digits masked to the row's nonzero lanes and a lane-wise
subtraction of r where an exponent passed r - 1; a row of n * B_t is two
masks and two shifts, lanes whose slot-t digit is at least 1 moving down
stride = r^(l-t) lanes and digit-0 lanes up (r - 1) * stride lanes.

Irreducibility also runs the other way, and image_from_columns uses it to
build a Weil image rho(g) from l + 1 of its columns.  Conjugation by
N = rho(g) is fixed by g up to an automorphism of R that is trivial on
R/Z(R) and on Z(R), that is, an inner one; by Schur's lemma on the
irreducible W, N is then fixed up to a scalar.  Concretely: with
x_t = N B_t N^-1, the column of g for B_t is the coset vector (a, b) of x_t,
so x_t = theta^(c_t) * realize(0, a, b), and N e_xi = N B^xi e_0 =
(prod_t x_t^(xi_t)) * N e_0.  The column N e_0 and the x_t give all of N.
g does not give c_t: conjugating N by an element of R multiplies each x_t
by a theta power and leaves pi unchanged.  So N e_0 and N e_(delta_t) come
from the word route, applied to those l + 1 basis vectors only, and c_t is
the theta power for which x_t * (N e_0) is the whole column N e_(delta_t).
When no theta power matches, the columns are not those of a normaliser
projecting to g (a corrupted generator set, say), and DoesNotNormalize is
raised, naming the slot.  A zero column N e_0 raises it too.  The word's
other n - l - 1 columns are never computed, so a corrupted generator set
whose fault shows only there is not detected: the fill returns a
normaliser that differs from the word route.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import chain, filterfalse, repeat
from operator import add, itemgetter, mod

from .fields import _every_lane, _pack_signed
from .linalg import DenseMatrix
from .operators import MonomialOp, Operator
from .symplectic import SpMatrix


class RecognitionError(ValueError):
    pass


class NotMonomial(RecognitionError):
    pass


class NotCharacterDiagonal(RecognitionError):
    pass


class NotThetaPower(RecognitionError):
    pass


class DoesNotNormalize(ValueError):
    pass


@dataclass(frozen=True)
class ExtraspecialElement:
    """Canonical form theta^c * B^b * A^a; c in [0, r), a and b length-l
    exponent vectors mod r."""

    c: int
    a: tuple
    b: tuple

    def coset_vector(self):
        """Image in R/Z(R), interleaved as (a_1, b_1, a_2, b_2, ...)."""
        out = []
        for x, y in zip(self.a, self.b):
            out.extend((x, y))
        return tuple(out)


def realize(elem, params):
    """The monomial operator of theta^c B^b A^a: column xi goes to row
    xi + b with entry theta^(c + a.xi).  Both tables are built one slot at a
    time, most significant slot first."""
    r = params.r
    perm, expo = [0], [elem.c % r]
    for am, bm in zip(elem.a, elem.b):
        perm = [p * r + (x + bm) % r for p in perm for x in range(r)]
        expo = [(e + am * x) % r for e in expo for x in range(r)]
    return MonomialOp(params, perm, expo)


def comm_exponent(x, y, r):
    """Exponent of theta in [x, y]: a_x.b_y - a_y.b_x mod r."""
    acc = sum(ax * by for ax, by in zip(x.a, y.b))
    acc -= sum(ay * bx for ay, bx in zip(y.a, x.b))
    return acc % r


def recognize(mat, params, mod_scalars=False):
    """Read theta^c B^b A^a off a matrix.

    With mod_scalars=True the overall scalar need not be a theta power
    (recognition in R*Z modulo scalars; the returned c is 0).
    """
    return _recognize_monomial(monomial_form(mat, params), params, mod_scalars)


def monomial_form(mat, params):
    """The MonomialOp with the entries of the n x n matrix mat: each column
    has one nonzero entry, in distinct rows, and each entry is s * theta^e
    with s the first column's entry.  Raises NotMonomial for another
    support and NotCharacterDiagonal for an entry that is no theta multiple
    of s.  The exponents are looked up in the table of r multiples
    s * theta^e of the monomial with scale s, so no field inverse or
    multiply is made."""
    ctx = params.ctx
    zero = ctx.zero
    n = params.n
    rows = _square_rows(mat, params)
    perm, entries = [], []
    for j, col in enumerate(zip(*rows)):
        support = [i for i, a in enumerate(col) if a != zero]
        if len(support) != 1:
            raise NotMonomial(f"column {j} has {len(support)} nonzero entries")
        perm.append(support[0])
        entries.append(col[support[0]])
    if len(set(perm)) != n:
        raise NotMonomial("two columns share their nonzero row")
    first = MonomialOp(params, perm, (0,) * n, entries[0])
    dlog = {v: e for e, v in enumerate(first.table)}
    expo = [dlog.get(a) for a in entries]
    if None in expo:
        raise NotCharacterDiagonal(
            f"column {expo.index(None)} entry is not a theta power times column 0's")
    return MonomialOp(params, perm, expo, first.scale)


def _recognize_monomial(mono, params, mod_scalars):
    """The canonical form of a MonomialOp in R (in R*Z with mod_scalars),
    read from its integer perm and exponents: b is where column 0 goes, a
    the exponent steps along the unit vectors, and realize() of the result
    must reproduce the perm and every exponent."""
    r, ell = params.r, params.ell
    units = [r ** (ell - 1 - m) for m in range(ell)]
    perm, expo = mono.perm, mono.expo
    b = tuple(perm[0] // u % r for u in units)
    a = tuple((expo[u] - expo[0]) % r for u in units)
    want = realize(ExtraspecialElement(expo[0], a, b), params)
    if want.perm != perm:
        raise NotMonomial("support pattern is not a coordinate translation")
    if want.expo != expo:
        raise NotCharacterDiagonal("theta exponents are not c + a.xi")
    if mod_scalars:
        return ExtraspecialElement(0, a, b)
    c = params.ctx.dlog_theta(mono.scale)
    if c is None:
        raise NotThetaPower("overall scalar is not a power of theta")
    return ExtraspecialElement((c + expo[0]) % r, a, b)


def _square_rows(mat, params):
    n = params.n
    rows = mat.rows
    if len(rows) != n or len(rows[0]) != n:
        raise NotMonomial(f"matrix is {len(rows)}x{len(rows[0])}, expected {n}x{n}")
    return rows


def _theta_codes(rows, params):
    """Each row of the matrix rows as (code, support), two ints of n lanes
    laid out by _lanes.  A nonzero entry rep_o * theta^e, rep_o the first
    value of its theta class met in row order, numbered o from 1, is the
    lane (o, e): e in the low exponent field, o in the class field above it.
    A zero entry is lane 0, and support has a 1 in each nonzero lane.  Each
    class costs the r mul_theta_power calls that register its multiples; no
    other field operation is made.  A normaliser has one class: it lies in
    Z * R * rho(Sp), and each rho(g) is a scalar times theta^(quadratic) on
    a coset (Gerardin 1977; Neuhauser 2002).  A matrix with more than n
    classes is refused before the table passes r * n values, so memory
    stays O(n^2) on any input."""
    ctx, r, n = params.ctx, params.r, params.n
    bits, width, _ = _lanes(r, params.ell)
    code = {ctx.zero: 0}
    for o, a in enumerate(filterfalse(code.__contains__, chain.from_iterable(rows)), 1):
        if o > n:
            raise DoesNotNormalize(f"matrix entries lie in more than {n} theta classes")
        code.update((ctx.mul_theta_power(a, e), o << bits + 1 | e) for e in range(r))
    codes = _pack_signed(map(code.__getitem__, chain.from_iterable(rows)), n, width)
    # a lane is nonzero exactly when adding 2^top - 1 carries into its top bit
    top, one = 8 * width - 1, _every_lane(1, n, width)
    fill = _every_lane((1 << top) - 1, n, width)
    return [(c, (c + fill) >> top & one) for c in codes]


@functools.lru_cache(maxsize=32)
def _lanes(r, ell):
    """(bits, width, steps): the lane layout of _theta_codes at (r, l) and
    how the identity and each g in (A_1, B_1, ..., A_l, B_l) act on a row.
    The exponent field is bits + 1 wide, so that a sum of two exponents, at
    most 2r - 2 < 2^bits, keeps a carry bit; the class field above it holds
    up to n.  Lanes are the least of 2, 4, 8, ... bytes whose signed lanes
    hold both.  A step is (move, adds): adds holds the r ints with digit +
    k mod r in every lane, the digit being 0 but for A_t, whose digit is
    lane j's slot-t digit, read at stride r^(l-t).  B_t moves the lanes:
    column xi + delta_t of n is column xi of n * B_t, so lane j moves down
    stride lanes when its slot-t digit is at least 1 and up (r - 1) *
    stride lanes when it is 0, two masks and two shifts."""
    n = r ** ell
    bits = (2 * r - 2).bit_length()
    width = 2
    while bits + n.bit_length() + 2 > 8 * width:
        width *= 2
    lane, full = 8 * width, (1 << 8 * width) - 1
    same = [k * _every_lane(1, n, width) for k in range(r)]
    steps = [(None, same)]
    for t in range(ell):
        stride = r ** (ell - 1 - t)
        digits = [j // stride % r for j in range(n)]
        adds = _pack_signed(((d + k) % r for k in range(r) for d in digits), n, width)
        high, low = (full * _pack_signed(map(test, digits), n, width)[0]
                     for test in (bool, (0).__eq__))
        steps += [(None, adds), (_lane_move(high, stride * lane, low, (r - 1) * stride * lane), same)]
    return bits, width, steps


def _lane_move(high, down, low, up):
    """x -> its bits under the mask high shifted down, those under low up."""
    return lambda x: (x & high) >> down | (x & low) << up


def _theta_keyed(codes, r, bits, move, adds):
    """For each row of N * g, with codes = _theta_codes(N) and (move, adds)
    the step of g in _lanes: (k, key), key the code of theta^k times the
    row, whose lowest nonzero lane then has exponent 0.  Two rows get the
    same key exactly when one is a theta power times the other.  B_t moves
    the lanes of code and support; then the digits + k are added, masked to
    the support, an exponent that passed r - 1 sets the carry bit when
    2^bits - r is added, and r is subtracted from those lanes."""
    expo, over = (1 << bits) - 1, (1 << bits) - r
    for code, support in codes:
        if move is not None:
            code, support = move(code), move(support)
        low = (support & -support).bit_length() - 1
        if low < 0:
            raise DoesNotNormalize("matrix has a zero row")
        k = -((code >> low) + (adds[0] >> low) & expo) % r
        code += adds[k] & support * expo
        yield k, code - (code + support * over >> bits & support) * r


def _conjugates_of_basis(n, params):
    """For g in (A_1, B_1, ..., A_l, B_l), the conjugate x_g = n g n^-1 as a
    MonomialOp of scale 1 (x_g is recognised modulo scalars).

    A MonomialOp n is conjugated by integer compose and inverse; its scale
    is dropped, as a scalar commutes with g.  Any other n (a product or
    Fourier operator, or a DenseMatrix) is materialised once, as a whole,
    and read once into one int per row (_theta_codes); x_g is read off
    x_g * n = n * g, one route for every field family.  Each n * g is a
    column permute-and-scale of n.  As the module docstring shows, a
    normaliser gives conjugates whose entries are theta powers, so row i of
    n * g must be theta^s times some row c of n, and then x_g has theta^s
    at (i, c).  Rows are matched on integer keys (_theta_keyed): with keys
    theta^k_i * (row i of n * g) = theta^k_c * (row c of n), the entry is
    theta^(k_c - k_i).  A row of n * A_t is its row of n with the slot-t
    digit added to each nonzero lane's exponent, one masked add and a
    lane-wise reduction mod r; a row of n * B_t is its row of n with two
    masks and two shifts (_lanes).  Past the codes no field operation is
    made.

    This is enough: when every match succeeds, x_g * n = n * g makes ker n
    invariant under R, and as W is irreducible under R, ker n is 0 or W.
    n has no zero row, so ker n = 0 and x_g = n g n^-1; recognising every
    x_g in R*Z then shows that n normalises R*Z.  A non-normalising n, a
    singular one or one with a non-theta row ratio included, has too many
    theta classes or fails the match or the recognition, and pi_map raises
    DoesNotNormalize.
    """
    r, ell, size = params.r, params.ell, params.n
    if isinstance(n, MonomialOp):
        units = [tuple(int(m == t) for m in range(ell)) for t in range(ell)]
        zeros = (0,) * ell
        unit = MonomialOp(params, n.perm, n.expo)
        unit_inv = unit.inverse()
        for u in units:
            for elem in (ExtraspecialElement(0, u, zeros), ExtraspecialElement(0, zeros, u)):
                yield unit.compose(realize(elem, params)).compose(unit_inv)
        return
    codes = _theta_codes(_square_rows(n.materialize() if isinstance(n, Operator) else n,
                                      params), params)
    bits, _, (identity, *steps) = _lanes(r, ell)
    match = {key: (c, k) for c, (k, key) in enumerate(_theta_keyed(codes, r, bits, *identity))}
    for step in steps:
        perm, expo = [None] * size, [0] * size
        for i, (k, key) in enumerate(_theta_keyed(codes, r, bits, *step)):
            hit = match.get(key)
            if hit is None:
                raise NotMonomial(f"row {i} of n*g is not a theta multiple of a row of n")
            c, k_c = hit
            if perm[c] is not None:
                raise NotMonomial(f"rows {perm[c]} and {i} of n*g match row {c} of n")
            perm[c] = i
            expo[c] = (k_c - k) % r
        yield MonomialOp(params, perm, expo)


def image_from_columns(g, op, params):
    """The matrix N normalising R with pi_map(N) = g that agrees with the
    Operator op on e_0 and each e_(delta_t), built as the module docstring
    shows: op goes through ctx.product_rows on those l + 1 basis vectors
    only, and column xi is x_t * (column xi - delta_t), filled slot by slot,
    most significant first, as realize fills its tables.  The other n - l - 1
    columns of op are not computed, so op is not checked on them.

    Each column is m * (N e_0) for a monomial m, held as keys e * n + i
    naming the entries (N e_0)_i * theta^e of the table multiples, one key
    per row.  A step by x_t permutes the keys and adds its exponents times
    n, mod r * n, so the fill is integer work in C-level maps, and the r * n
    multiples are its only field operations.  Building each column's
    monomial by MonomialOp.compose and reading it from multiples instead
    raised perfbench's image_stream wall_s from 0.56 to 0.60 s and its
    request p50 from 5.1 to 5.5 ms (medians of four paired 30-s runs,
    2 vCPUs, Python 3.11)."""
    ctx, r, ell, n = params.ctx, params.r, params.ell, params.n
    units = [0] + [r ** (ell - t) for t in range(1, ell + 1)]
    rows = ctx.product_rows((op,), tuple(tuple(ctx.one if i == u else ctx.zero
                                               for u in units) for i in range(n)))
    multiples = [ctx.mul_theta_power(row[0], e) for e in range(r) for row in rows]
    size = r * n

    def mover(x):
        """keys -> the keys of x times that column, for x a MonomialOp of
        scale 1."""
        source, shift = [0] * n, [0] * n
        for q, (p, e) in enumerate(zip(x.perm, x.expo)):
            source[p], shift[p] = q, e * n
        take = itemgetter(*source)
        return lambda keys: tuple(map(mod, map(add, take(keys), shift), repeat(size)))

    def column(keys):
        return itemgetter(*keys)(multiples)

    start = tuple(range(n))
    i0 = next((i for i in start if multiples[i] != ctx.zero), None)
    if i0 is None:
        raise DoesNotNormalize("column e_0 of the image is zero")
    moves = []
    for t in range(1, ell + 1):
        image = [row[2 * t - 1] for row in g.rows]
        a, b = image[0::2], image[1::2]
        want = tuple(row[t] for row in rows)
        x = realize(ExtraspecialElement(0, a, b), params)
        # entry i0 of N e_0 goes to row perm[i0] of theta^c * x * (N e_0),
        # times theta^(c + expo[i0]): that entry proposes c, the column decides
        p, e = x.perm[i0], x.expo[i0]
        c = next((c for c in range(r) if multiples[(c + e) % r * n + i0] == want[p]), 0)
        move = mover(realize(ExtraspecialElement(c, a, b), params))
        if column(move(start)) != want:
            raise DoesNotNormalize(
                f"slot {t}: no theta power c_{t} makes x_{t} * (N e_0) column e_delta_{t}")
        moves.append(move)
    keys = [start]
    for move in moves:
        filled = []
        for k in keys:
            filled.append(k)
            for _ in range(r - 1):
                k = move(k)
                filled.append(k)
        keys = filled
    return DenseMatrix.from_columns(ctx, map(column, keys))


def pi_map(n, params):
    """The symplectic matrix describing conjugation by n on R/Z(R).

    n may be a structured operator or a DenseMatrix; it must normalise R*Z,
    otherwise DoesNotNormalize is raised.
    """
    cols = []
    try:
        for x in _conjugates_of_basis(n, params):
            cols.append(_recognize_monomial(x, params, mod_scalars=True).coset_vector())
    except RecognitionError as exc:
        raise DoesNotNormalize(f"a conjugate left R*Z: {exc}") from None
    result = SpMatrix(params.r, tuple(zip(*cols)))
    if not result.is_symplectic():
        raise DoesNotNormalize("projected action does not preserve the form")
    return result
