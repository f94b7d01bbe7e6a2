"""Structured invertible operators on the r^ell dimensional space W.

The basis of W is indexed by vectors xi = (xi_1, ..., xi_ell) with entries in
[0, r); the flat position of xi is sum(xi_t * r^(ell-t)), i.e. xi_1 is the
most significant digit.  With that convention the slot-t tensor factor of an
r x r matrix M is literally I_{r^(t-1)} (x) M (x) I_{r^(ell-t)}.

Operator variants:

* MonomialOp   -- permutation times diagonal: out[perm[j]] = table[expo[j]]
                  * v[j], with expo integer theta exponents in [0, r), one
                  scale, and table its r entry values scale * theta^e, built
                  once on first use; compose, inverse, powers, equality and
                  det are integer work plus at most one field operation;
* ScalarOp     -- c * I, the MonomialOp with the identity permutation,
                  zero exponents and scale c;
* FourierOp    -- the discrete Fourier kernel theta^(i*xi) in one tensor
                  slot, times a scalar; apply is ctx.fourier_apply;
* DenseOp      -- arbitrary invertible DenseMatrix, applied by
                  DenseMatrix.apply and materialised as itself;
* ProductOp    -- composition, factors applied right to left; nested
                  products are flattened, so no factor is a ProductOp.

apply() costs O(n) for a monomial and O(n*r) for a Fourier factor; only
apply(), mul_packed() and materialize() make field values.  materialize()
returns the DenseMatrix whose column xi is apply(e_xi): a monomial's r entry
values, or a Fourier factor's r slot_block rows, are each written once into
a zero-padded window, and every row is a tuple sliced from one of them
(linalg.sparse_rows), which shares equal rows through a caller's row pool
(the others ignore it).  det() and trace() are those of materialize() unless
the structure gives them directly (a monomial's do).

Each operator multiplies by two kernels and nothing else: apply on a
column, over every field, and mul_packed on the rows of its context's
row_class, packed GF(p) rows (fields.PackedRows) or Q(theta) planes
(fields.PlaneRows).  Products and closure steps are built from them by
ctx.product_rows and ctx.closure_steps; fields.py describes both routes.

first_difference compares two operators on their materialised matrices,
so a product is compared through ctx.product_rows.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .fields import FieldContext
from .linalg import DenseMatrix, sparse_rows


@dataclass(frozen=True)
class WeilParams:
    """Size parameters: odd prime r, number of tensor slots ell, coefficient field."""

    r: int
    ell: int
    ctx: FieldContext

    @property
    def n(self):
        return self.r ** self.ell

    def __post_init__(self):
        if self.ell < 1:
            raise ValueError("ell must be >= 1")
        if self.ctx.r != self.r:
            raise ValueError("field context was built for a different r")


def index_vectors(r, ell):
    """All index vectors in flat order."""
    return list(itertools.product(range(r), repeat=ell))


def flat_index(xi, r):
    idx = 0
    for x in xi:
        idx = idx * r + x
    return idx


class Operator:
    __slots__ = ("params",)

    def __init__(self, params):
        self.params = params

    @property
    def n(self):
        return self.params.n

    @property
    def ctx(self):
        return self.params.ctx

    def apply(self, vec):
        raise NotImplementedError

    def mul_packed(self, packed):
        """Left-multiply the rows held by a row class (fields.PackedRows,
        fields.PlaneRows) by self's materialised matrix."""
        self.materialize().mul_packed(packed)

    def inverse(self):
        raise NotImplementedError

    def __mul__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        return ProductOp(self.params, (self, other))

    def materialize(self, pool=None):
        raise NotImplementedError

    def det(self):
        return self.materialize().det()

    def trace(self):
        return self.materialize().trace()


class MonomialOp(Operator):
    """out[perm[j]] = scale * theta^expo[j] * v[j]; perm and expo are flat
    tables, expo in [0, r), and scale is one field element."""

    __slots__ = ("perm", "expo", "scale", "_table")

    def __init__(self, params, perm, expo, scale=None):
        super().__init__(params)
        self.perm = tuple(perm)
        self.expo = tuple(expo)
        self.scale = params.ctx.one if scale is None else scale
        self._table = None

    @classmethod
    def from_affine(cls, params, shift, expo_fn=None):
        """Permutation xi -> xi + shift (coordinatewise mod r) with diagonal
        entry theta^expo_fn(xi)."""
        r, ell = params.r, params.ell
        shift = tuple(shift) if shift is not None else (0,) * ell
        # slot m sends x to x + shift_m, worth r^(ell-1-m) in the flat index
        moves = [[(x + s) % r * r ** (ell - 1 - m) for x in range(r)]
                 for m, s in enumerate(shift)]
        perm = [sum(parts) for parts in itertools.product(*moves)]
        if expo_fn is None:
            return cls(params, perm, (0,) * len(perm))
        return cls(params, perm, [expo_fn(xi) % r for xi in index_vectors(r, ell)])

    @property
    def table(self):
        """The r entry values scale * theta^e, e in [0, r): entry j of the
        diagonal is table[expo[j]]."""
        if self._table is None:
            mtp, scale = self.ctx.mul_theta_power, self.scale
            self._table = tuple(mtp(scale, e) for e in range(self.params.r))
        return self._table

    def apply(self, vec):
        ctx = self.ctx
        out = [ctx.zero] * self.n
        if self.scale == ctx.one:
            mtp = ctx.mul_theta_power
            for p, e, v in zip(self.perm, self.expo, vec):
                out[p] = mtp(v, e) if e else v
        else:
            mul, table = ctx.mul, self.table
            for p, e, v in zip(self.perm, self.expo, vec):
                out[p] = mul(table[e], v)
        return out

    def mul_packed(self, packed):
        packed.monomial(self.perm, self.expo, self.table)

    def compose(self, other):
        """self after other (= self * other as matrices), staying monomial."""
        ctx = self.ctx
        r = self.params.r
        p2, e2 = self.perm, self.expo
        perm = [p2[p] for p in other.perm]
        expo = [(e2[p] + e) % r for p, e in zip(other.perm, other.expo)]
        if other.scale == ctx.one:
            scale = self.scale
        elif self.scale == ctx.one:
            scale = other.scale
        else:
            scale = ctx.mul(self.scale, other.scale)
        return MonomialOp(self.params, perm, expo, scale)

    def commutator(self, other):
        """self * other * self^-1 * other^-1."""
        return self.compose(other).compose(self.inverse()).compose(other.inverse())

    def inverse(self):
        ctx = self.ctx
        r = self.params.r
        n = self.n
        perm_inv = [0] * n
        expo_inv = [0] * n
        for j, (p, e) in enumerate(zip(self.perm, self.expo)):
            perm_inv[p] = j
            expo_inv[p] = -e % r
        scale = self.scale if self.scale == ctx.one else ctx.inv(self.scale)
        return MonomialOp(self.params, perm_inv, expo_inv, scale)

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        out = identity_op(self.params)
        for _ in range(e):
            out = out.compose(self)
        return out

    def __eq__(self, other):
        """Equal entries: the perms agree, self.expo - other.expo is a
        constant k mod r, and scale * theta^k is other's scale."""
        if not isinstance(other, MonomialOp):
            return NotImplemented
        if self.perm != other.perm:
            return False
        r = self.params.r
        k = (self.expo[0] - other.expo[0]) % r
        if any((a - b) % r != k for a, b in zip(self.expo, other.expo)):
            return False
        return self.ctx.mul_theta_power(self.scale, k) == other.scale

    def materialize(self, pool=None):
        """Row perm[j] is table[expo[j]] in column j and zero elsewhere."""
        starts = [None] * self.n
        for j, (p, e) in enumerate(zip(self.perm, self.expo)):
            starts[p] = (e, j)
        blocks = [(v,) for v in self.table]
        return DenseMatrix(self.ctx, sparse_rows(self.ctx.zero, self.n, blocks, starts, 1, pool))

    def det(self):
        """Determinant: permutation sign times scale^n times theta^(sum of
        the exponents)."""
        ctx = self.ctx
        acc = ctx.mul_theta_power(ctx.pow(self.scale, self.n), sum(self.expo))
        seen = [False] * self.n
        transpositions = 0
        for start in range(self.n):
            if not seen[start]:
                length = 0
                j = start
                while not seen[j]:
                    seen[j] = True
                    j = self.perm[j]
                    length += 1
                transpositions += length - 1
        return ctx.neg(acc) if transpositions % 2 else acc

    def trace(self):
        """Sum of table[expo[j]] over the fixed points j of perm."""
        add, table = self.ctx.add, self.table
        acc = self.ctx.zero
        for j, (p, e) in enumerate(zip(self.perm, self.expo)):
            if p == j:
                acc = add(acc, table[e])
        return acc


class ScalarOp(MonomialOp):
    """c * I: the identity permutation, zero exponents and scale c."""

    __slots__ = ()

    def __init__(self, params, c):
        super().__init__(params, range(params.n), (0,) * params.n, c)


def identity_op(params):
    return ScalarOp(params, params.ctx.one)


class FourierOp(Operator):
    """scale * C_t, where C_t v_xi = sum_i theta^(i*xi_t) v_(xi with slot t = i):
    I (x) K (x) I with K the r x r kernel scale * theta^(i*x) in slot t."""

    __slots__ = ("t", "scale", "_table", "_stride")

    def __init__(self, params, t, scale=None):
        super().__init__(params)
        if not 1 <= t <= params.ell:
            raise ValueError("slot out of range")
        self.t = t
        ctx = params.ctx
        self.scale = ctx.one if scale is None else scale
        mtp = ctx.mul_theta_power
        r = params.r
        # row i of the scaled kernel: scale * theta^(i*x) for x in [0, r)
        self._table = [[mtp(self.scale, i * x) for x in range(r)] for i in range(r)]
        self._stride = r ** (params.ell - t)

    def apply(self, vec):
        return self.ctx.fourier_apply(vec, self._stride, self._table)

    def mul_packed(self, packed):
        packed.fourier(self._stride, self._table)

    def materialize(self, pool=None):
        """I (x) K (x) I for K = slot_block(self, t): row i is row x = i_t of K
        at columns i - x * stride + k * stride, k in [0, r), sliced from the
        window of K's row x (linalg.sparse_rows)."""
        r, stride = self.params.r, self._stride
        starts = ((i // stride % r, i - i // stride % r * stride) for i in range(self.n))
        kernel = slot_block(self, self.t).rows
        return DenseMatrix(self.ctx, sparse_rows(self.ctx.zero, self.n, kernel, starts, stride,
                                                 pool))

    def inverse(self):
        # C_t^2 = r * N_t with N_t negating slot t, so C_t^-1 = r^-1 * N_t * C_t
        params = self.params
        ctx = self.ctx
        scale = ctx.mul(ctx.inv(self.scale), ctx.inv(ctx.from_int(params.r)))
        neg_slot = negation_monomial(params, self.t)
        return ProductOp(params, (neg_slot, FourierOp(params, self.t, scale)))


def slot_block(op, t):
    """The r x r block of op at rows and columns j * r^(ell-t), j in [0, r):
    K when op = I (x) K (x) I acts on slot t alone.  Built from op applied
    to r basis vectors, so a corrupted operator shows its own block."""
    ctx, r = op.ctx, op.params.r
    stride = r ** (op.params.ell - t)
    units = sparse_rows(ctx.zero, op.n, [(ctx.one,)], ((0, j * stride) for j in range(r)))
    return DenseMatrix.from_columns(ctx, [op.apply(e)[:r * stride:stride] for e in units])


def negation_perm(r, ell, t=None):
    """Flat table of xi -> -xi in slot t (all slots when t is None)."""
    return [flat_index([-x % r if t in (None, m + 1) else x for m, x in enumerate(xi)], r)
            for xi in itertools.product(range(r), repeat=ell)]


def negation_monomial(params, t=None):
    """xi -> -xi in slot t (all slots when t is None), trivial diagonal."""
    return MonomialOp(params, negation_perm(params.r, params.ell, t), (0,) * params.n)


class DenseOp(Operator):
    __slots__ = ("mat",)

    def __init__(self, params, mat):
        super().__init__(params)
        self.mat = mat

    def apply(self, vec):
        return self.mat.apply(vec)

    def inverse(self):
        return DenseOp(self.params, self.mat.inverse())

    def materialize(self, pool=None):
        return self.mat


class ProductOp(Operator):
    __slots__ = ("factors",)

    def __init__(self, params, factors):
        super().__init__(params)
        self.factors = tuple(itertools.chain.from_iterable(
            f.factors if isinstance(f, ProductOp) else (f,) for f in factors))

    def apply(self, vec):
        for f in reversed(self.factors):
            vec = f.apply(vec)
        return list(vec)

    def mul_packed(self, packed):
        for f in reversed(self.factors):
            f.mul_packed(packed)

    def inverse(self):
        return ProductOp(self.params, tuple(f.inverse() for f in reversed(self.factors)))

    def materialize(self, pool=None):
        if not self.factors:
            return DenseMatrix.identity(self.ctx, self.n)
        return DenseMatrix(self.ctx, self.ctx.product_rows(self.factors))


def first_difference(op1, op2):
    """(row, column, value1, value2) of the first disagreement, or None when
    the operators are equal: the first differing column of the materialised
    matrices, then its first differing row, where a walk over the basis
    vectors e_0, e_1, ... would stop."""
    rows1, rows2 = op1.materialize().rows, op2.materialize().rows
    if rows1 == rows2:
        return None
    for j, (a, b) in enumerate(zip(zip(*rows1), zip(*rows2))):
        if a != b:
            i = next(i for i, (x, y) in enumerate(zip(a, b)) if x != y)
            return (i, j, a[i], b[i])


def operators_equal(op1, op2):
    """Exact equality of the materialised matrices."""
    return op1.n == op2.n and first_difference(op1, op2) is None
