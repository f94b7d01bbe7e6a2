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

import functools
import itertools
from dataclasses import dataclass

from .linalg import DenseMatrix, NotInvariant, solve_in_span
from .operators import DenseOp, flat_index, index_vectors


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
    """The flat positions (xi, -xi) of each representative index xi."""
    return tuple((flat_index(xi, r), flat_index(tuple(-x % r for x in xi), r))
                 for xi in representative_indices(r, ell))


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

    Given r (ell defaults to the one with r^ell = n), the pair-structured
    bases built by submodule_bases take coefficient-symmetry conditions, O(n)
    per image, in place of the exact solve; other bases use solve_in_span.
    """
    if basis.label in ("W+", "W-", "A", "B") and r is not None:
        n = len(basis.vectors[0])
        ell = ell or next(e for e in itertools.count(1) if r ** e >= n)
        return _restrict_paired(op, basis, ctx, r, ell)
    images = [op.apply(list(v)) for v in basis.vectors]
    coords = solve_in_span(ctx, basis.vectors, images)
    return DenseMatrix.from_columns(ctx, coords)


def _restrict_paired(op, basis, ctx, r, ell):
    flat_pairs = _flat_pairs(r, ell)
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
    flat_pairs = _flat_pairs(params.r, params.ell)
    cols = []
    for v in quotient_representatives(params).vectors:
        img = op.apply(list(v))
        cols.append([ctx.add(img[a], img[b]) for a, b in flat_pairs])
    return DenseMatrix.from_columns(ctx, cols)


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
