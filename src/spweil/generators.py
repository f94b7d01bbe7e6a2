"""The generator operators on W and the determinant-one normalisation.

Per tensor slot t (and slot pair s < t) the operators act on basis vectors as

    A_t v = theta^(xi_t) v                 B_t v = v with slot t shifted by 1
    C_t v = sum_i theta^(i*xi_t) v|slot=i  D_st v = theta^(xi_s*xi_t) v
    E_t v = theta^(xi_t(xi_t-1)/2) v       U_t v = theta^(xi_t(xi_t+r)/2) v

with exponents reduced mod r.  U_t = A_t^((r+1)/2) E_t.  The scalar

    lam = (-r)^((r-1)/2) / det(C)

makes lam*C_t have determinant one; the symplectic group copy inside GL(W) is
generated by the operators lam*C_t, D_st and U_t.  The involution sigma
negates every index coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .fields import legendre
from .operators import FourierOp, MonomialOp, Operator, WeilParams, negation_monomial


def op_A(params, t):
    return MonomialOp.from_affine(params, None, lambda xi: xi[t - 1])


def op_B(params, t):
    shift = tuple(1 if i == t - 1 else 0 for i in range(params.ell))
    return MonomialOp.from_affine(params, shift)


def op_C(params, t, scale=None):
    return FourierOp(params, t, scale)


def op_D(params, s, t):
    if not 1 <= s < t <= params.ell:
        raise ValueError("need 1 <= s < t <= ell")
    return MonomialOp.from_affine(params, None, lambda xi: xi[s - 1] * xi[t - 1])


def op_E(params, t):
    return MonomialOp.from_affine(
        params, None, lambda xi: xi[t - 1] * (xi[t - 1] - 1) // 2)


def op_U(params, t):
    """U_t; the diagonal exponents xi_t(xi_t+r)/2 are exact integers
    reduced mod r."""
    r = params.r
    return MonomialOp.from_affine(params, None, lambda xi: xi[t - 1] * (xi[t - 1] + r) // 2)


def base_generators(ctx):
    """The ell = 1 slice: operators A, B, C, E, U on the r-dimensional space."""
    params = WeilParams(ctx.r, 1, ctx)
    return {
        "A": op_A(params, 1),
        "B": op_B(params, 1),
        "C": op_C(params, 1),
        "E": op_E(params, 1),
        "U": op_U(params, 1),
    }


def sigma_involution(params):
    """The involution v_xi -> v_(-xi)."""
    return negation_monomial(params)


def det_C(r, ctx):
    """det(C) for the ell = 1 Fourier operator, by exact elimination."""
    params = WeilParams(r, 1, ctx)
    return op_C(params, 1).materialize().det()


def lambda_scalar(r, ctx):
    """lam = (-r)^((r-1)/2) * det(C)^-1, with det(C) in its Gauss-sum form
    (gauss_forms): O(r) field operations, where elimination takes O(r^3).
    The relation suite checks that form against elimination."""
    minus_r = ctx.neg(ctx.from_int(r))
    return ctx.mul(ctx.pow(minus_r, (r - 1) // 2), ctx.inv(gauss_forms(r, ctx)[0]))


def gauss_forms(r, ctx):
    """The two closed forms of det(C): (2|r) * r^((r-1)/2) * sum_i theta^(i^2)
    and r^((r-1)/2) * sum_i theta^(i(i+r)/2)."""
    powers = ctx.theta_pow
    r_pow = ctx.pow(ctx.from_int(r), (r - 1) // 2)
    gauss = trace_sum = ctx.zero
    for i in range(r):
        gauss = ctx.add(gauss, powers[(i * i) % r])
        trace_sum = ctx.add(trace_sum, powers[(i * (i + r) // 2) % r])
    sign = ctx.one if legendre(2, r) == 1 else ctx.neg(ctx.one)
    return ctx.mul(sign, ctx.mul(r_pow, gauss)), ctx.mul(r_pow, trace_sum)


def gauss_sum_identity(r, ctx):
    """Returns (det(C) by elimination, (2|r) * r^((r-1)/2) * sum_i theta^(i^2)).

    Also checks the intermediate form det(C) = r^((r-1)/2) * sum theta^(i(i+r)/2)
    against the elimination value, raising on mismatch.
    """
    d = det_C(r, ctx)
    via_gauss, via_trace = gauss_forms(r, ctx)
    if via_trace != d:
        raise ArithmeticError("det(C) does not match r^((r-1)/2) * sum theta^(i(i+r)/2)")
    return d, via_gauss


def lam_C_squared(params, t):
    """(lam*C_t)^2 as a monomial operator: (-1)^((r-1)/2) times slot-t negation."""
    ctx = params.ctx
    neg = negation_monomial(params, t)
    if (params.r - 1) // 2 % 2 == 0:
        return neg
    return MonomialOp(params, neg.perm, neg.expo, ctx.neg(ctx.one))


@dataclass
class WeilGeneratorSet:
    """All operators for one (r, ell, field) choice.

    lamC[t-1] is lam*C_t; D[(s, t)] is D_st; U[t-1] is U_t.  The normalizer
    extras A, B, rawC, E, plus sigma and the scalar lam, are kept for the
    projection map and for verification work.  symplectic.weil_assignment
    keeps the set's token operators in _assignment, built on first use; a
    set made by dataclasses.replace starts without them.
    """

    params: WeilParams
    lam: object
    lamC: tuple
    D: dict
    U: tuple
    A: tuple
    B: tuple
    rawC: tuple
    E: tuple
    sigma: Operator
    _assignment: object = field(default=None, init=False, repr=False, compare=False)

    @property
    def ctx(self):
        return self.params.ctx

    @property
    def r(self):
        return self.params.r

    @property
    def ell(self):
        return self.params.ell

    def sp_generating_ops(self):
        """The generator list (lam*C_t, D_st, U_t) in a fixed order."""
        out = [("C", t, None, self.lamC[t - 1]) for t in range(1, self.ell + 1)]
        out += [("D", t, s, self.D[(s, t)]) for (s, t) in sorted(self.D)]
        out += [("U", t, None, self.U[t - 1]) for t in range(1, self.ell + 1)]
        return out


def weil_generators(params):
    """Construct the full generator set, with lam attached to each C_t."""
    ctx = params.ctx
    ell = params.ell
    lam = lambda_scalar(params.r, ctx)
    return WeilGeneratorSet(
        params=params,
        lam=lam,
        lamC=tuple(op_C(params, t, lam) for t in range(1, ell + 1)),
        D={(s, t): op_D(params, s, t)
           for s in range(1, ell + 1) for t in range(s + 1, ell + 1)},
        U=tuple(op_U(params, t) for t in range(1, ell + 1)),
        A=tuple(op_A(params, t) for t in range(1, ell + 1)),
        B=tuple(op_B(params, t) for t in range(1, ell + 1)),
        rawC=tuple(op_C(params, t) for t in range(1, ell + 1)),
        E=tuple(op_E(params, t) for t in range(1, ell + 1)),
        sigma=sigma_involution(params),
    )
