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
Restrictions to these bases and to W/B are read off the operator's matrix
by one pair reader, _read_pairs.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .linalg import DenseMatrix, NotInvariant, solve_in_span
from .operators import DenseOp, index_vectors, negation_perm


class WrongCharacteristic(ValueError):
    pass


@dataclass(frozen=True)
class SubmoduleBasis:
    """label is one of "W+", "W-", "A", "B" (or "W/B" for the quotient's
    representatives); vectors are the basis's coordinate vectors in W."""

    label: str
    vectors: tuple

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


@functools.lru_cache(maxsize=32)
def _flat_pairs(r, ell):
    """The flat positions (xi, -xi) of the representative indices xi, in
    their order: xi < -xi lexicographically exactly when flat(xi) < flat(-xi)."""
    return tuple((j, k) for j, k in enumerate(negation_perm(r, ell)) if j < k)


def _vector(ctx, n, entries):
    """The coordinate vector with value c at position j for each (j, c)."""
    v = [ctx.zero] * n
    for j, c in entries:
        v[j] = c
    return tuple(v)


def submodule_bases(params):
    """The invariant submodule bases for the parameters' characteristic."""
    ctx = params.ctx
    n, one = params.n, ctx.one
    pairs = _flat_pairs(params.r, params.ell)
    v_0 = _vector(ctx, n, [(0, one)])
    plus_part = tuple(_vector(ctx, n, [(a, one), (b, one)]) for a, b in pairs)
    if ctx.char != 2:
        minus_one = ctx.neg(one)
        minus_part = tuple(_vector(ctx, n, [(a, one), (b, minus_one)]) for a, b in pairs)
        return [SubmoduleBasis("W+", (v_0,) + plus_part), SubmoduleBasis("W-", minus_part)]
    return [SubmoduleBasis("A", plus_part), SubmoduleBasis("B", plus_part + (v_0,))]


def quotient_representatives(params):
    """Representative vectors v_xi spanning W/B in char 2."""
    ctx = params.ctx
    pairs = _flat_pairs(params.r, params.ell)
    return SubmoduleBasis("W/B", tuple(_vector(ctx, params.n, [(a, ctx.one)]) for a, _ in pairs))


def restrict(op, basis, ctx, r=None, ell=None):
    """The matrix of op in the submodule basis (columns = coordinates of the
    images of the basis vectors).

    Given r (ell defaults to the one with r^ell = n), a basis built by
    submodule_bases is read off op's matrix by _read_pairs.  Without r,
    every basis goes through the exact solve, solve_in_span: an independent
    reference for the reader, which shares none of its code.
    """
    if basis.label in ("W+", "W-", "A", "B") and r is not None:
        n = len(basis.vectors[0])
        ell = ell or next(e for e in itertools.count(1) if r ** e >= n)
        return _read_pairs(op, basis.label, ctx, _flat_pairs(r, ell))
    images = [op.apply(list(v)) for v in basis.vectors]
    coords = solve_in_span(ctx, basis.vectors, images)
    return DenseMatrix.from_columns(ctx, coords)


def restrict_quotient(op, params):
    """The matrix of op on W/B in char 2, in the basis {v_xi + B}: since
    v_(-xi) = v_xi mod B, an image's class is read off (_read_pairs) as
    coefficient(xi) + coefficient(-xi) over the representative indices."""
    ctx = params.ctx
    if ctx.char != 2:
        raise WrongCharacteristic("quotient restriction needs characteristic 2")
    return _read_pairs(op, "W/B", ctx, _flat_pairs(params.r, params.ell))


def _read_pairs(op, label, ctx, pairs):
    """The matrix of op on the basis labelled W+, W-, A or B, or on W/B,
    read off op.materialize(), whose column j is the image of v_j.

    The image of y_xi = v_xi +- v_(-xi) is column xi +- column -xi, by add
    or sub alone, skipping zeros.  Its coordinates are its entries at 0
    (W+, B) and at the representatives; NotInvariant unless the entries at
    -xi repeat them (negated on W-) and, on W- and A, the entry at 0 is 0.
    On W/B the coordinates of column xi are entry xi + entry -xi."""
    zero, neg = ctx.zero, ctx.neg
    minus = label == "W-"
    combine = ctx.sub if minus else ctx.add
    reps, negs = zip(*pairs)

    def pair_sum(xs, ys):
        return [x if y == zero else combine(x, y) for x, y in zip(xs, ys)]

    cols = list(zip(*op.materialize().rows))
    if label == "W/B":
        return DenseMatrix.from_columns(ctx, [
            pair_sum([cols[a][j] for j in reps], [cols[a][j] for j in negs]) for a in reps])
    images, at = [pair_sum(cols[a], cols[b]) for a, b in pairs], reps
    if label in ("W+", "B"):  # v_0 is first in W+ and last in B
        k = 0 if label == "W+" else len(reps)
        images.insert(k, cols[0])
        at = reps[:k] + (0,) + reps[k:]
    for img in images:
        at_xi = [img[j] for j in reps]
        mirror = [x if x == zero else neg(x) for x in at_xi] if minus else at_xi
        if [img[j] for j in negs] != mirror:
            raise NotInvariant(f"{label}: image coefficient at -xi breaks the pair symmetry")
        if label in ("W-", "A") and img[0] != zero:
            raise NotInvariant(f"{label}: image has a v_0 component")
    return DenseMatrix.from_columns(ctx, [[img[j] for j in at] for img in images])


def weil_image_irreducible(g, gens, which, word=None):
    """Action of a symplectic matrix on one irreducible constituent: the
    restriction of weil_image(g, gens, word).

    which: "plus" | "minus" (char != 2) or "socle" | "quotient" (char 2).
    """
    from .symplectic import weil_image

    params = gens.params
    char2 = params.ctx.char == 2
    if which in ("plus", "minus") and char2:
        raise WrongCharacteristic(f"{which!r} requires characteristic != 2")
    if which in ("socle", "quotient") and not char2:
        raise WrongCharacteristic(f"{which!r} requires characteristic 2")
    op = DenseOp(params, weil_image(g, gens, word))
    if which == "quotient":
        return restrict_quotient(op, params)
    label = {"plus": "W+", "minus": "W-", "socle": "A"}[which]
    basis = next(b for b in submodule_bases(params) if b.label == label)
    return restrict(op, basis, params.ctx, params.r, params.ell)


def spin(seeds, ops, ctx):
    """Dimension of the smallest subspace containing the seeds and closed
    under the given operators (span closure; generators of a finite group,
    so closure under the generators alone suffices)."""
    zero, sub, mul = ctx.zero, ctx.sub, ctx.mul
    echelon = {}  # pivot index -> normalised vector

    def reduce(vec):
        # pair-basis vectors are mostly zero: no field work on zero entries
        vec = list(vec)
        for piv, row in sorted(echelon.items()):
            c = vec[piv]
            if c != zero:
                vec = [a if b == zero else sub(a, mul(c, b)) for a, b in zip(vec, row)]
        for i, x in enumerate(vec):
            if x != zero:
                inv = ctx.inv(x)
                return i, [a if a == zero else mul(inv, a) for a in vec]
        return None, None

    queue = []
    for seed in seeds:
        if all(x == zero for x in seed):
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
