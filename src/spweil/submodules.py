"""Irreducible constituents of W under the symplectic group copy.

sigma (index negation) is centralised by the group, so its eigenspaces are
invariant.  With y_xi := v_xi + v_(-xi) over the representative indices
(the lexicographically smaller of each pair {xi, -xi}):

* char != 2:  W+ = <v_0, y_xi>  (dim (r^l+1)/2),  W- = <v_xi - v_(-xi)>
  (dim (r^l-1)/2), and W = W+ (+) W-.
* char 2:     A = <y_xi : xi != 0>  (dim (r^l-1)/2),  B = <A, v_0>, and
  0 < A < B < W is the full submodule chain; W/B has basis {v_xi + B}.

Bases list v_0 first for W+ (matching the natural reading of the spanning
set) and last for B (so the B/A coordinate is the final one).
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import DenseMatrix
from .operators import flat_index, index_vectors


class NotInvariant(ValueError):
    pass


class WrongCharacteristic(ValueError):
    pass


@dataclass(frozen=True)
class SubmoduleBasis:
    """label is one of "W+", "W-", "A", "B"; vectors[i] is the coordinate
    vector belonging to reps[i] (the zero index vector stands for v_0)."""

    label: str
    vectors: tuple
    reps: tuple

    @property
    def dim(self):
        return len(self.vectors)


def representative_indices(r, ell):
    """Nonzero index vectors xi with xi lexicographically smaller than -xi."""
    out = []
    for xi in index_vectors(r, ell):
        neg = tuple(-x % r for x in xi)
        if xi < neg:
            out.append(xi)
    return out


def _unit_vector(ctx, n, j):
    v = [ctx.zero] * n
    v[j] = ctx.one
    return v


def _pair_vector(ctx, r, ell, xi, sign):
    n = r ** ell
    v = [ctx.zero] * n
    neg = tuple(-x % r for x in xi)
    v[flat_index(xi, r)] = ctx.one
    v[flat_index(neg, r)] = ctx.one if sign > 0 else ctx.neg(ctx.one)
    return v


def submodule_bases(params):
    """The invariant submodule bases for the parameters' characteristic."""
    ctx = params.ctx
    r, ell = params.r, params.ell
    n = params.n
    zero_idx = (0,) * ell
    reps = representative_indices(r, ell)
    plus_part = [tuple(_pair_vector(ctx, r, ell, xi, +1)) for xi in reps]
    if ctx.char != 2:
        w_plus = SubmoduleBasis(
            "W+",
            (tuple(_unit_vector(ctx, n, 0)),) + tuple(plus_part),
            (zero_idx,) + tuple(reps))
        w_minus = SubmoduleBasis(
            "W-",
            tuple(tuple(_pair_vector(ctx, r, ell, xi, -1)) for xi in reps),
            tuple(reps))
        return [w_plus, w_minus]
    socle = SubmoduleBasis("A", tuple(plus_part), tuple(reps))
    heart = SubmoduleBasis(
        "B",
        tuple(plus_part) + (tuple(_unit_vector(ctx, n, 0)),),
        tuple(reps) + (zero_idx,))
    return [socle, heart]


def quotient_representatives(params):
    """Representative vectors v_xi spanning W/B in char 2."""
    ctx = params.ctx
    r, ell = params.r, params.ell
    reps = representative_indices(r, ell)
    return SubmoduleBasis(
        "W/B",
        tuple(tuple(_unit_vector(ctx, params.n, flat_index(xi, r))) for xi in reps),
        tuple(reps))


def solve_in_span(ctx, basis_vectors, images):
    """Coordinates of each image in the span of the basis vectors.

    Returns a list of coordinate columns; raises NotInvariant when an image
    leaves the span.  Exact RREF over the field.
    """
    m = len(basis_vectors)
    k = len(images)
    n = len(basis_vectors[0])
    zero = ctx.zero
    sub, mul, inv = ctx.sub, ctx.mul, ctx.inv
    rows = [[basis_vectors[j][i] for j in range(m)] + [img[i] for img in images]
            for i in range(n)]
    pivots = []
    row_i = 0
    for col in range(m):
        pivot = next((i for i in range(row_i, n) if rows[i][col] != zero), None)
        if pivot is None:
            raise ValueError("basis vectors are linearly dependent")
        if pivot != row_i:
            rows[row_i], rows[pivot] = rows[pivot], rows[row_i]
        pv_inv = inv(rows[row_i][col])
        rows[row_i] = [mul(pv_inv, x) for x in rows[row_i]]
        for i in range(n):
            if i != row_i and rows[i][col] != zero:
                f = rows[i][col]
                rows[i] = [sub(a, mul(f, b)) for a, b in zip(rows[i], rows[row_i])]
        pivots.append(row_i)
        row_i += 1
    for i in range(m, n):
        for j, img in enumerate(images):
            if rows[i][m + j] != zero:
                raise NotInvariant(
                    f"image {j} leaves the span (residual in row {i})")
    return [[rows[i][m + j] for i in range(m)] for j in range(k)]


def restrict(op, basis, ctx, r=None, ell=None):
    """The matrix of op in the submodule basis (columns = coordinates of the
    images of the basis vectors).

    For the pair-structured bases built by submodule_bases the exact solve
    collapses to coefficient-symmetry conditions, handled in O(n) per image;
    other bases go through the generic RREF solve.
    """
    if basis.label in ("W+", "W-", "A", "B") and r is not None:
        return _restrict_paired(op, basis, ctx, r, ell)
    images = [op.apply(list(v)) for v in basis.vectors]
    coords = solve_in_span(ctx, basis.vectors, images)
    return DenseMatrix.from_columns(ctx, coords)


def _restrict_paired(op, basis, ctx, r, ell):
    reps = representative_indices(r, ell)
    flat_pairs = [(flat_index(xi, r), flat_index(tuple(-x % r for x in xi), r))
                  for xi in reps]
    label = basis.label
    minus = label == "W-"
    cols = []
    for v in basis.vectors:
        img = op.apply(list(v))
        zero_coeff = img[0]
        for fl, fn in flat_pairs:
            want = ctx.neg(img[fl]) if minus else img[fl]
            if img[fn] != want:
                raise NotInvariant(
                    f"{label}: image coefficient at -xi breaks the pair symmetry")
        if label in ("W-", "A") and zero_coeff != ctx.zero:
            raise NotInvariant(f"{label}: image has a v_0 component")
        pair_coords = [img[fl] for fl, _ in flat_pairs]
        if label == "W+":
            cols.append([zero_coeff] + pair_coords)
        elif label == "B":
            cols.append(pair_coords + [zero_coeff])
        else:
            cols.append(pair_coords)
    return DenseMatrix.from_columns(ctx, cols)


def restrict_quotient(op, params):
    """The matrix of op on W/B in char 2, in the basis {v_xi + B}.

    Since v_(-xi) = (v_xi + v_(-xi)) - v_xi = v_xi mod B, the class of an
    image is read off as coefficient(xi) + coefficient(-xi) over the
    representative indices.
    """
    ctx = params.ctx
    if ctx.char != 2:
        raise WrongCharacteristic("quotient restriction needs characteristic 2")
    r, ell = params.r, params.ell
    reps = representative_indices(r, ell)
    flat_pairs = [(flat_index(xi, r), flat_index(tuple(-x % r for x in xi), r))
                  for xi in reps]
    cols = []
    for fl, _ in flat_pairs:
        v = _unit_vector(ctx, params.n, fl)
        img = op.apply(v)
        cols.append([ctx.add(img[a], img[b]) for a, b in flat_pairs])
    return DenseMatrix.from_columns(ctx, cols)


def weil_image_irreducible(g, gens, which):
    """Action of a symplectic matrix on one irreducible constituent.

    which: "plus" | "minus" (char != 2) or "socle" | "quotient" (char 2).
    """
    from .symplectic import weil_image_op

    params = gens.params
    char2 = params.ctx.char == 2
    if which in ("plus", "minus") and char2:
        raise WrongCharacteristic(f"{which!r} requires characteristic != 2")
    if which in ("socle", "quotient") and not char2:
        raise WrongCharacteristic(f"{which!r} requires characteristic 2")
    op = weil_image_op(g, gens)
    if which == "quotient":
        return restrict_quotient(op, params)
    label = {"plus": "W+", "minus": "W-", "socle": "A"}[which]
    basis = next(b for b in submodule_bases(params) if b.label == label)
    return restrict(op, basis, params.ctx, params.r, params.ell)


def spin(seeds, ops, ctx):
    """Dimension of the smallest subspace containing the seeds and closed
    under the given operators (span closure; generators of a finite group,
    so closure under the generators alone suffices)."""
    echelon = {}  # pivot index -> normalised vector

    def reduce(vec):
        vec = list(vec)
        zero = ctx.zero
        for piv, row in sorted(echelon.items()):
            c = vec[piv]
            if c != zero:
                vec = [ctx.sub(a, ctx.mul(c, b)) for a, b in zip(vec, row)]
        for i, x in enumerate(vec):
            if x != zero:
                inv = ctx.inv(x)
                return i, [ctx.mul(inv, a) for a in vec]
        return None, None

    queue = []
    for seed in seeds:
        if all(x == ctx.zero for x in seed):
            raise ValueError("zero seed vector")
        piv, vec = reduce(seed)
        if piv is not None:
            echelon[piv] = vec
            queue.append(vec)
    while queue:
        vec = queue.pop()
        for op in ops:
            piv, new = reduce(op.apply(vec))
            if piv is not None:
                echelon[piv] = new
                queue.append(new)
    return len(echelon)
