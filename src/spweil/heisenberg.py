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
"""

from __future__ import annotations

from dataclasses import dataclass

from .generators import op_A, op_B
from .operators import MonomialOp, Operator, flat_index, index_vectors
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
    """The monomial operator of theta^c B^b A^a."""
    a, b, c = elem.a, elem.b, elem.c
    return MonomialOp.from_affine(
        params, 1, b, lambda xi: c + sum(ai * x for ai, x in zip(a, xi)))


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
    zero = params.ctx.zero
    entries = ((i, j, v) for i, row in enumerate(_square_rows(mat, params))
               for j, v in enumerate(row) if v != zero)
    return _recognize_entries(entries, params, mod_scalars)


def _square_rows(mat, params):
    n = params.n
    rows = mat.rows
    if len(rows) != n or len(rows[0]) != n:
        raise NotMonomial(f"matrix is {len(rows)}x{len(rows[0])}, expected {n}x{n}")
    return rows


def _recognize_entries(entries, params, mod_scalars):
    """recognize() for the matrix whose nonzero entries are the (row, column,
    value) triples of entries."""
    r, ell, ctx = params.r, params.ell, params.ctx
    n = params.n
    support = [None] * n
    values = [None] * n
    for i, j, v in entries:
        if support[j] is not None:
            raise NotMonomial(f"column {j} has more than one nonzero entry")
        support[j] = i
        values[j] = v
    if None in support:
        raise NotMonomial("zero column")
    vecs = index_vectors(r, ell)
    b = vecs[support[0]]
    for j, xi in enumerate(vecs):
        if support[j] != flat_index(tuple((x + s) % r for x, s in zip(xi, b)), r):
            raise NotMonomial("support pattern is not a coordinate translation")

    s0 = values[0]
    s0_inv = ctx.inv(s0)
    a = []
    for m in range(ell):
        unit = r ** (ell - 1 - m)
        e = ctx.dlog_theta(ctx.mul(values[unit], s0_inv))
        if e is None:
            raise NotCharacterDiagonal(
                f"slot {m + 1} ratio is not a power of theta")
        a.append(e)
    for j, xi in enumerate(vecs):
        expo = sum(am * x for am, x in zip(a, xi)) % r
        if values[j] != ctx.mul(s0, ctx.theta_pow[expo]):
            raise NotCharacterDiagonal(
                f"column {j} scalar does not match theta^(a.xi)")

    if mod_scalars:
        c = 0
    else:
        c = ctx.dlog_theta(s0)
        if c is None:
            raise NotThetaPower("overall scalar is not a power of theta")
    return ExtraspecialElement(c, tuple(a), tuple(b))


def _conjugates_of_basis(n, params):
    """For g in (A_1, B_1, ..., A_l, B_l), the nonzero entries (row, column,
    value) of the x_g with x_g * n = n * g, one list per g.

    n is materialised once.  Each n * g is a column permute-and-scale of n.
    When row i of n * g is s times row c of n, row i of x_g is s times the
    unit vector e_c; rows are matched on their quotient by their first
    nonzero entry, so no inverse of n is formed.  This is enough: when
    every match succeeds, x_g * n = n * g makes ker n invariant under R, and
    as W is irreducible under R, ker n is 0 or W.  n has no zero row, so
    ker n = 0 and x_g = n g n^-1; recognising every x_g in R*Z then shows
    that n normalises R*Z.  A non-normalising n, a singular one included,
    fails the match or the recognition, and pi_map raises DoesNotNormalize.
    """
    ctx = params.ctx
    zero, mul, inv, mtp = ctx.zero, ctx.mul, ctx.inv, ctx.mul_theta_power
    rows = _square_rows(n.materialize() if isinstance(n, Operator) else n, params)

    def keyed(row):
        # (first nonzero entry, its inverse, the row divided by it)
        lead = next((a for a in row if a != zero), None)
        if lead is None:
            raise DoesNotNormalize("matrix has a zero row")
        scale = inv(lead)
        return lead, scale, tuple(a if a == zero else mul(scale, a) for a in row)

    match = {}  # row quotient -> (row index, inverse of its first nonzero entry)
    for c, row in enumerate(rows):
        _, scale, key = keyed(row)
        match[key] = (c, scale)
    for t in range(1, params.ell + 1):
        for g in (op_A(params, t), op_B(params, t)):
            entries = []
            for i, row in enumerate(rows):
                moved = [mtp(a, e) if e and a != zero else a
                         for a, e in zip((row[p] for p in g.perm), g.expo)]
                lead, _, key = keyed(moved)
                hit = match.get(key)
                if hit is None:
                    raise NotMonomial(f"row {i} of n*g is not a multiple of a row of n")
                entries.append((i, hit[0], mul(lead, hit[1])))
            yield entries


def pi_map(n, params):
    """The symplectic matrix describing conjugation by n on R/Z(R).

    n may be a structured operator or a DenseMatrix; it must normalise R*Z,
    otherwise DoesNotNormalize is raised.
    """
    cols = []
    try:
        for entries in _conjugates_of_basis(n, params):
            elem = _recognize_entries(entries, params, mod_scalars=True)
            cols.append(elem.coset_vector())
    except RecognitionError as exc:
        raise DoesNotNormalize(f"a conjugate left R*Z: {exc}") from None
    result = SpMatrix(params.r, tuple(zip(*cols)))
    if not result.is_symplectic():
        raise DoesNotNormalize("projected action does not preserve the form")
    return result
