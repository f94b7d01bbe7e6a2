"""Exact dense matrices over a FieldContext.

Matrices are immutable: a tuple of rows of plain field values, plus the
owning context.  Every row is in the context's one row form, ctx.row: bytes
over GF(p) with p < 256, one byte per entry and no object the garbage
collector walks, and a tuple over every other field.  Columns are images
of basis vectors (operators act on column coordinate vectors).  All
algorithms are classical O(n^3) elimination; at the dimensions this package
works with, exactness beats asymptotics.
"""

from __future__ import annotations

from itertools import chain


class SingularMatrix(ArithmeticError, ValueError):
    """The columns to eliminate on are linearly dependent."""


class NotInvariant(ValueError):
    """A vector leaves the span it should lie in."""


def _eliminate(ctx, rows, m):
    """Forward elimination on the first m columns of rows (lists, changed in
    place): below each pivot, row -= (entry * pivot^-1) * pivot row, with
    pivot rows left unscaled.  Returns zero when those columns are linearly
    dependent, else the product of the pivots signed by the row swaps: the
    determinant when rows is m x m."""
    zero, sub, mul, inv = ctx.zero, ctx.sub, ctx.mul, ctx.inv
    n = len(rows)
    det = ctx.one
    sign = False
    for j in range(m):
        pivot = next((i for i in range(j, n) if rows[i][j] != zero), None)
        if pivot is None:
            return zero
        if pivot != j:
            rows[j], rows[pivot] = rows[pivot], rows[j]
            sign = not sign
        pv = rows[j][j]
        det = mul(det, pv)
        pv_inv = inv(pv)
        for i in range(j + 1, n):
            f = rows[i][j]
            if f != zero:
                f = mul(f, pv_inv)
                rows[i] = [sub(a, mul(f, b)) for a, b in zip(rows[i], rows[j])]
    return ctx.neg(det) if sign else det


def sparse_rows(zero, n, blocks, starts, stride=1, pool=None, row=tuple):
    """Rows of n entries in the form row (ctx.row for a DenseMatrix), one
    per (b, c) in starts, zero but for blocks[b] at columns c, c + stride,
    ...: slices [n - c, 2n - c) of one 2n-long window per block, zero but
    for the block at n, n + stride, ....  pool, a dict a caller keeps for
    one n, zero and row, maps (block, stride) to {column: row}: a row made
    before is returned as that object, not sliced."""
    pad = [zero] * n
    windows = []
    for block in blocks:
        window = pad + pad
        window[n:n + len(block) * stride:stride] = block
        windows.append(row(window))
    if pool is None:
        return tuple(windows[b][n - c:2 * n - c] for b, c in starts)
    made = [pool.setdefault((block, stride), {}) for block in blocks]
    return tuple(made[b].get(c) or made[b].setdefault(c, windows[b][n - c:2 * n - c])
                 for b, c in starts)


def solve_in_span(ctx, basis_vectors, images):
    """Coordinates of each image in the span of the basis vectors.

    Returns a list of coordinate columns.  [A | B], A with the m basis
    vectors and B with the images as columns, is brought to row echelon
    form by _eliminate; an image leaves the span (NotInvariant) when its
    column is not zero below row m, and back substitution in the first m
    rows gives its coordinates.  Raises SingularMatrix when the basis
    vectors are linearly dependent.
    """
    m = len(basis_vectors)
    zero, sub, mul, inv, dot = ctx.zero, ctx.sub, ctx.mul, ctx.inv, ctx.dot
    rows = [list(row) for row in zip(*basis_vectors, *images)]
    if _eliminate(ctx, rows, m) == zero:
        raise SingularMatrix("basis vectors are linearly dependent (a singular matrix)")
    for i in range(m, len(rows)):
        for j, x in enumerate(rows[i][m:]):
            if x != zero:
                raise NotInvariant(f"image {j} leaves the span (residual in row {i})")
    pivot_invs = [inv(rows[j][j]) for j in range(m)]
    coords = []
    for c in range(m, m + len(images)):
        x = [zero] * m
        for j in reversed(range(m)):
            x[j] = mul(pivot_invs[j], sub(rows[j][c], dot(rows[j][j + 1:m], x[j + 1:])))
        coords.append(x)
    return coords


class DenseMatrix:
    __slots__ = ("ctx", "rows")

    def __init__(self, ctx, rows):
        self.ctx = ctx
        self.rows = tuple(map(ctx.row, rows))

    @classmethod
    def identity(cls, ctx, n):
        return cls(ctx, sparse_rows(ctx.zero, n, [(ctx.one,)], ((0, i) for i in range(n)),
                                    row=ctx.row))

    @classmethod
    def from_columns(cls, ctx, cols):
        return cls(ctx, map(ctx.row, zip(*cols)))

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0]) if self.rows else 0

    def columns(self):
        return [list(col) for col in zip(*self.rows)]

    def __eq__(self, other):
        return isinstance(other, DenseMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"DenseMatrix({self.nrows}x{self.ncols} over {self.ctx.describe()})"

    def __mul__(self, other):
        ctx = self.ctx
        if isinstance(other, DenseMatrix):
            if other.ctx is not ctx:
                raise ValueError("mixed field contexts")
            if self.ncols != other.nrows:
                raise ValueError("dimension mismatch")
            return DenseMatrix(ctx, self.mul_rows(other.rows))
        return NotImplemented

    def mul_rows(self, rows):
        """The rows of self * M in ctx.row form, for M given as a tuple of
        rows."""
        cols = list(zip(*rows))
        dot, form = self.ctx.dot, self.ctx.row
        return tuple(form([dot(row, col) for col in cols]) for row in self.rows)

    def mul_packed(self, packed):
        """Left-multiply the rows held by a row class (fields.PackedRows,
        fields.PlaneRows), or record that for a GF(p^k) closure step
        (fields._StepRecorder), by self."""
        packed.mul_rows(self.mul_rows)

    def apply(self, vec):
        """Matrix-vector product (vec is a sequence of field values)."""
        if len(vec) != self.ncols:
            raise ValueError("dimension mismatch")
        dot = self.ctx.dot
        return [dot(row, vec) for row in self.rows]

    def scale(self, c):
        mul = self.ctx.mul
        return DenseMatrix(self.ctx, [[mul(c, a) for a in row] for row in self.rows])

    def trace(self):
        ctx = self.ctx
        acc = ctx.zero
        for i, row in enumerate(self.rows):
            acc = ctx.add(acc, row[i])
        return acc

    def transpose(self):
        return DenseMatrix.from_columns(self.ctx, self.rows)

    def det(self):
        """Exact determinant by forward elimination with row swaps."""
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        return _eliminate(self.ctx, [list(row) for row in self.rows], self.nrows)

    def inverse(self):
        """The solution X of self * X = I: solve_in_span on self's columns
        against the identity's."""
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        ident = DenseMatrix.identity(self.ctx, self.nrows)
        return DenseMatrix.from_columns(
            self.ctx, solve_in_span(self.ctx, self.columns(), ident.columns()))

    def render_rows(self, spell, render, memo):
        """render(row's entries as spell writes them) for each row, kept in
        memo by id(row) while the caller holds the rows, so a row shared
        with a matrix rendered before is not rendered again.  spell runs
        once per distinct entry of the new rows: a Weil generator has at
        most r + 1, not n^2."""
        new = [row for row in self.rows if id(row) not in memo]
        if new:
            get = {a: spell(a) for a in set(chain.from_iterable(new))}.__getitem__
            for row in new:
                memo[id(row)] = render(map(get, row))
        return list(map(memo.__getitem__, map(id, self.rows)))

    def serialize(self, forms=None):
        """The rows as lists of ctx.serialize_elem forms; equal entries share
        one form object, so the JSON writer encodes each once, and a row
        already in forms (render_rows) shares its list."""
        return self.render_rows(self.ctx.serialize_elem, list, {} if forms is None else forms)
