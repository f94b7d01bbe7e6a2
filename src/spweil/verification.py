"""Executable verification of every generator identity, plus closure counting.

run_relation_suite evaluates each identity at the given parameters and
returns a report; failures carry a concrete witness (the first offending
matrix entry or value pair) instead of raising.  The three documented
mutations (negated lam, U replaced by E, a corrupted C entry) are provided
as negative controls: a suite that cannot detect them would be vacuous.

closure_order counts a matrix group by breadth-first search, multiplying on
the left by each generator, recognised once as a monomial or Fourier
operator where it is one; ctx.closure_steps (fields.py) holds the element
states and steps.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
from collections import Counter, deque
from dataclasses import dataclass, field, replace

from .generators import gauss_forms, lam_C_squared, op_C, weil_generators
from .heisenberg import (DoesNotNormalize, ExtraspecialElement, RecognitionError,
                         comm_exponent, monomial_form, pi_map, realize)
from .linalg import DenseMatrix
from .operators import (DenseOp, FourierOp, ProductOp, ScalarOp, WeilParams,
                        first_difference as _first_difference, identity_op,
                        negation_monomial, slot_block)
from .submodules import (NotInvariant, restrict, restrict_quotient, spin,
                         submodule_bases)
from .symplectic import GenToken, SpMatrix, gen_images, sp_form


class CapExceeded(RuntimeError):
    pass


@dataclass
class CheckResult:
    id: str
    params: str
    status: str  # "pass" | "fail" | "skip"
    witness: str | None = None


@dataclass
class VerificationReport:
    entries: list = field(default_factory=list)

    @property
    def ok(self):
        return all(e.status != "fail" for e in self.entries)

    def failures(self):
        return [e for e in self.entries if e.status == "fail"]

    def record(self, cid, params, witnesses):
        """Record a failure with the first of witnesses, or a pass when there
        is none; no later witness is drawn.  Returns whether it passed."""
        witness = next(iter(witnesses), None)
        self.entries.append(CheckResult(
            cid, params, "pass" if witness is None else "fail", witness))
        return witness is None

    def skip(self, cid, params, reason):
        self.entries.append(CheckResult(cid, params, "skip", reason))

    def to_json(self):
        return [{"id": e.id, "params": e.params, "status": e.status,
                 "witness": e.witness} for e in self.entries]

    def summary(self):
        lines = []
        for e in self.entries:
            line = f"[{e.status.upper():4s}] {e.id} ({e.params})"
            if e.witness:
                line += f" -- {e.witness}"
            lines.append(line)
        count = Counter(e.status for e in self.entries)
        lines.append(f"{count['pass']} passed, {count['fail']} failed, {count['skip']} skipped")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# operator comparison with witnesses


def params_label(params):
    """The params field of every check of one (r, ell, field) choice."""
    return f"r={params.r}, l={params.ell}, {params.ctx.describe()}"


def _check_ops(report, cid, pstr, lhs, rhs):
    diff = _first_difference(lhs, rhs)
    if diff is None:
        return report.record(cid, pstr, ())
    i, j, a, b = diff
    ser = lhs.ctx.serialize_elem
    return report.record(cid, pstr, [
        f"entry ({i},{j}): {json.dumps(ser(a))} != {json.dumps(ser(b))}"])


def _check_words(report, pstr, params, rows):
    """_check_ops on the products of each row (check id, left word, right
    word); a word is a tuple of operators, () the identity."""
    for cid, left, right in rows:
        _check_ops(report, cid, pstr, ProductOp(params, left), ProductOp(params, right))


def _serialized(ctx, value):
    """A field element through ctx.serialize_elem; a list (no element
    encoding is one) and a DenseMatrix's rows entry by entry."""
    if isinstance(value, DenseMatrix):
        value = [list(row) for row in value.rows]
    if isinstance(value, list):
        return [_serialized(ctx, v) for v in value]
    return ctx.serialize_elem(value)


def _check_value(report, cid, pstr, got, want, what="", ctx=None):
    """Record got == want.  With ctx, got and want are field elements,
    DenseMatrix values or (nested) lists of them, and the witness shows
    them serialised."""
    show = repr if ctx is None else (lambda v: json.dumps(_serialized(ctx, v)))
    report.record(cid, pstr, () if got == want else [f"{what}: {show(got)} != {show(want)}"])


def _named_ops(gens):
    """(name, operator) for each of gens.sp_generating_ops(), in its order."""
    return [(GenToken(kind, t, s).name, op) for kind, t, s, op in gens.sp_generating_ops()]


def _catch_not_normalizing(witnesses, what):
    """The witnesses, ended by one naming what when drawing them raises
    DoesNotNormalize."""
    try:
        yield from witnesses
    except DoesNotNormalize as exc:
        yield f"{what} does not normalize R*Z: {exc}"


# ---------------------------------------------------------------------------
# the relation suite


def run_relation_suite(params, seed=0, gens=None):
    """Every identity from the generator, projection, and submodule layers,
    evaluated at one (r, ell, field) choice."""
    if gens is None:
        gens = weil_generators(params)
    report = VerificationReport()
    _generator_checks(report, params, gens)
    _projection_checks(report, params, gens, seed)
    _submodule_checks(report, params, gens)
    return report


def _sign_exponent(ctx, e):
    return ctx.one if e % 2 == 0 else ctx.neg(ctx.one)


def _generator_checks(report, params, gens):
    ctx = params.ctx
    r, ell = params.r, params.ell
    pstr = params_label(params)
    ident = identity_op(params)
    one = ctx.one
    lam, lamC, rawC, U = gens.lam, gens.lamC, gens.rawC, gens.U
    check_words = functools.partial(_check_words, report, pstr, params)

    # extraspecial relations of the A_t, B_t
    def extraspecial_failures():
        for s, (As, Bs) in enumerate(zip(gens.A, gens.B), 1):
            if As ** r != ident or Bs ** r != ident:
                yield f"A_{s}^r or B_{s}^r != 1"
            for t, (At, Bt) in enumerate(zip(gens.A, gens.B), 1):
                if As.commutator(At) != ident:
                    yield f"[A_{s}, A_{t}] != 1"
                if Bs.commutator(Bt) != ident:
                    yield f"[B_{s}, B_{t}] != 1"
                if As.commutator(Bt) != ScalarOp(params, ctx.theta if s == t else one):
                    yield f"[A_{s}, B_{t}] != theta^delta"

    report.record("extraspecial-relations", pstr, extraspecial_failures())

    # C_t^2 = r * (negation in slot t)
    r_elem = ctx.from_int(r)
    check_words([(f"C{t}-squared-negation", (c, c),
                   (ScalarOp(params, r_elem), negation_monomial(params, t)))
                  for t, c in enumerate(rawC, 1)])

    # determinant identities on the ell = 1 slice
    detc = slot_block(rawC[0], 1).det()
    sign = _sign_exponent(ctx, (r - 1) // 2)
    _check_value(report, "detC-squared", pstr, ctx.mul(detc, detc),
                 ctx.mul(sign, ctx.pow(r_elem, r)), "det(C)^2 vs (-1)^((r-1)/2) r^r", ctx)

    # lam^2 * r = (-1)^((r-1)/2)
    _check_value(report, "lam-squared", pstr,
                 ctx.mul(ctx.mul(lam, lam), r_elem), sign,
                 "lam^2 * r vs (-1)^((r-1)/2)", ctx)

    # det(lam*C_t) = 1 via det(I (x) C (x) I) = det(C)^(r^(l-1))
    det_lamC = ctx.mul(ctx.pow(lam, params.n), ctx.pow(detc, r ** (ell - 1)))
    _check_value(report, "det-lamC", pstr, det_lamC, one, "det(lam*C_t)", ctx)

    # det(U_t): 1 for r > 3, theta^(r^(l-1)) for r = 3; always an r-th root of 1
    det_u = U[0].det()
    want_u = one if r > 3 else ctx.theta_pow[r ** (ell - 1) % r]
    _check_value(report, "det-U", pstr, det_u, want_u, "det(U_t)", ctx)

    # det(D_st) = 1
    for (s, t), dop in sorted(gens.D.items()):
        name = GenToken("D", t, s).name
        _check_value(report, f"det-{name}", pstr, dop.det(), one, f"det(D_{s}{t})", ctx)

    # Lemma 3.2(iii) on the generators: det(g)^r = 1
    _check_value(report, "det-power-r", pstr,
                 [ctx.pow(det_lamC, r), ctx.pow(det_u, r),
                  [ctx.pow(d.det(), r) for d in gens.D.values()]],
                 [one, one, [one] * len(gens.D)],
                 "r-th powers of generator determinants", ctx)

    # (lam C_t)^4 = 1 and (lam C_t U_t)^3 = 1; then (lam C_t)^2 acts as
    # (-1)^((r-1)/2) v_(-xi in slot t)
    rows = []
    for t, (lc, u) in enumerate(zip(lamC, U), 1):
        rows += [(f"lamC{t}-order4", (lc,) * 4, ()), (f"lamC{t}U{t}-order3", (lc, u) * 3, ())]
    check_words(rows + [(f"lamC{t}-squared-form", (lc, lc), (lam_C_squared(params, t),))
                        for t, lc in enumerate(lamC, 1)])

    # Tr(U)^2 = (-1)^((r-1)/2) * r  (ell = 1 slice)
    tr_u = slot_block(U[0], 1).trace()
    _check_value(report, "traceU-squared", pstr, ctx.mul(tr_u, tr_u),
                 ctx.mul(sign, r_elem), "Tr(U)^2", ctx)

    if ell == 1:
        # (C U)^3 = r * Tr(U) * I
        check_words([("CU-cubed-scalar", (rawC[0], U[0]) * 3,
                      (ScalarOp(params, ctx.mul(r_elem, tr_u)),))])

    # Gauss sum forms of det(C)
    via_gauss, via_trace = gauss_forms(r, ctx)
    _check_value(report, "detC-gauss-sum", pstr, detc, via_gauss,
                 "det(C) vs (2|r) r^((r-1)/2) sum theta^(i^2)", ctx)
    _check_value(report, "detC-trace-sum", pstr, detc, via_trace,
                 "det(C) vs r^((r-1)/2) sum theta^(i(i+r)/2)", ctx)

    # ((lam C_t)^2 D_st)^2 = 1 and X U_t X^-1 U_t^-1 = U_s D_st, X = C_t D_st C_t^-1
    # (ell >= 2); then sigma: the product form, inversion on R, centrality in G
    rows = []
    for (s, t), dop in sorted(gens.D.items()):
        name = GenToken("D", t, s).name
        lc, ct, ct_inv, ut = lamC[t - 1], rawC[t - 1], rawC[t - 1].inverse(), U[t - 1]
        rows += [(f"lamC{t}sq-{name}-involution", (lc, lc, dop) * 2, ()),
                 (f"X-commutator-{name}",
                  (ct, dop, ct_inv, ut, ct, dop.inverse(), ct_inv, ut.inverse()),
                  (U[s - 1], dop))]
    sigma = gens.sigma
    sign_l = _sign_exponent(ctx, ell * (r - 1) // 2)
    rows.append(("sigma-product-form", (sigma,),
                 (ScalarOp(params, sign_l),) + tuple(f for lc in lamC for f in (lc, lc))))
    check_words(rows)

    sigma_inv = sigma.inverse()
    report.record("sigma-inversion", pstr, (
        f"sigma {name} sigma^-1 != {name}^-1"
        for t in range(1, ell + 1)
        for g, name in ((gens.A[t - 1], f"A_{t}"), (gens.B[t - 1], f"B_{t}"))
        if sigma.compose(g).compose(sigma_inv) != g.inverse()))

    check_words((
        (f"sigma-commutes-{name}", (sigma, op), (op, sigma)) for name, op in _named_ops(gens)))

    _centralizer_check(report, params, gens, pstr)

    if r == 3 and ell == 1:
        check_words(_sl23_rows(gens))


def _centralizer_check(report, params, gens, pstr, sample=200, seed=1):
    """C_R(sigma) = Z(R): exhaustive over canonical forms when |R| <= 243,
    sampled otherwise."""
    ctx = params.ctx
    r, ell = params.r, params.ell
    sigma = gens.sigma
    sigma_inv = sigma.inverse()
    size = r ** (1 + 2 * ell)

    def centralised(elem):
        x = realize(elem, params)
        return sigma.compose(x).compose(sigma_inv) == x

    if size <= 243:
        space = itertools.product(range(r), *([range(r)] * ell), *([range(r)] * ell))
        cases = ((c, tuple(rest[:ell]), tuple(rest[ell:]))
                 for c, *rest in space)
    else:
        rng = random.Random(seed)
        cases = (((rng.randrange(r),
                   tuple(rng.randrange(r) for _ in range(ell)),
                   tuple(rng.randrange(r) for _ in range(ell))))
                 for _ in range(sample))
    report.record("sigma-centralizer-in-R", pstr, (
        f"(c,a,b)=({c},{a},{b}) breaks C_R(sigma)=Z(R)" for c, a, b in cases
        if centralised(ExtraspecialElement(c, a, b)) == any(a + b)))


def _projection_checks(report, params, gens, seed):
    ctx = params.ctx
    r, ell = params.r, params.ell
    pstr = params_label(params)
    images = gen_images(ell, r)
    ident_sp = SpMatrix.identity(ell, r)

    # kernel: R and the scalars project to the identity
    kernel_samples = [gens.A[0], gens.B[0],
                      ScalarOp(params, ctx.theta),
                      ScalarOp(params, ctx.add(ctx.one, ctx.theta)),
                      gens.A[ell - 1].compose(gens.B[ell - 1])]
    report.record("pi-kernel", pstr, _catch_not_normalizing(
        ("an element of R*Z has nontrivial image" for op in kernel_samples
         if pi_map(op, params) != ident_sp), "an element of R*Z"))

    minus_i = SpMatrix(r, [[(r - 1) if i == j else 0 for j in range(2 * ell)]
                           for i in range(2 * ell)])
    try:
        pi_sigma = pi_map(gens.sigma, params).rows
    except DoesNotNormalize as exc:
        pi_sigma = f"DoesNotNormalize: {exc}"
    _check_value(report, "pi-sigma", pstr, pi_sigma, minus_i.rows, "pi(sigma)")

    def image_failures():
        for kind, t, s, op in gens.sp_generating_ops():
            tok = GenToken(kind, t, s)
            if pi_map(op, params) != images[tok]:
                yield f"pi image of {tok.name} mismatches its table entry"
        for t in range(1, ell + 1):
            if pi_map(gens.E[t - 1], params) != images[GenToken("U", t)]:
                yield f"pi(E_{t}) != pi(U_{t})"

    report.record("pi-generator-images", pstr,
                  _catch_not_normalizing(image_failures(), "a generator"))

    # homomorphism property on random products
    rng = random.Random(seed)
    pool = [op for _, _, _, op in gens.sp_generating_ops()]
    pool += [gens.A[0], gens.B[0], gens.sigma]

    def homomorphism_failures():
        for trial in range(5):
            x = ProductOp(params, tuple(rng.choice(pool) for _ in range(3)))
            y = ProductOp(params, tuple(rng.choice(pool) for _ in range(3)))
            if pi_map(x * y, params) != pi_map(x, params) * pi_map(y, params):
                yield f"pi(xy) != pi(x)pi(y) on trial {trial}"

    report.record("pi-homomorphism", pstr,
                  _catch_not_normalizing(homomorphism_failures(), "a sampled product"))

    # the commutator form: Gram matrix, bilinear, alternating, nondegenerate
    basis_elems = []
    for i in range(ell):
        a = tuple(1 if j == i else 0 for j in range(ell))
        basis_elems.append(ExtraspecialElement(0, a, (0,) * ell))
        basis_elems.append(ExtraspecialElement(0, (0,) * ell, a))
    gram = SpMatrix(r, [[comm_exponent(x, y, r) for y in basis_elems]
                        for x in basis_elems])

    def rand_elem():
        return ExtraspecialElement(0, tuple(rng.randrange(r) for _ in range(ell)),
                                   tuple(rng.randrange(r) for _ in range(ell)))

    def form_failures():
        if gram != sp_form(ell, r):
            yield "Gram matrix of comm_exponent != J"
        for _ in range(10):
            x, y, w = rand_elem(), rand_elem(), rand_elem()
            if comm_exponent(x, x, r) != 0:
                yield "form is not alternating"
            xw = ExtraspecialElement(0, tuple((p + q) % r for p, q in zip(x.a, w.a)),
                                     tuple((p + q) % r for p, q in zip(x.b, w.b)))
            if comm_exponent(xw, y, r) != (comm_exponent(x, y, r)
                                           + comm_exponent(w, y, r)) % r:
                yield "form is not additive in the first slot"
            # matrix commutator realisation
            commutator = realize(x, params).commutator(realize(y, params))
            if commutator != ScalarOp(params, ctx.theta_pow[comm_exponent(x, y, r)]):
                yield "matrix commutator disagrees with comm_exponent"

    report.record("commutator-form", pstr, form_failures())


def _submodule_checks(report, params, gens):
    ctx = params.ctx
    r, ell = params.r, params.ell
    pstr = params_label(params)
    n = params.n
    char2 = ctx.char == 2
    bases = submodule_bases(params)
    named = _named_ops(gens)

    if not char2:
        w_plus, w_minus = bases
        _check_value(report, "submodule-dims", pstr,
                     (w_plus.dim, w_minus.dim),
                     ((n + 1) // 2, (n - 1) // 2), "dims of W+, W-")
        # direct sum: combined vectors span W
        rank = spin(list(w_plus.vectors) + list(w_minus.vectors), [], ctx)
        _check_value(report, "direct-sum", pstr, rank, n, "rank of W+ basis + W- basis")
    else:
        socle, heart = bases
        _check_value(report, "submodule-dims", pstr,
                     (socle.dim, heart.dim),
                     ((n - 1) // 2, (n + 1) // 2), "dims of A, B")
        _check_value(report, "uniserial-chain", pstr,
                     (0 < socle.dim, socle.dim < heart.dim, heart.dim < n,
                      heart.dim - socle.dim),
                     (True, True, True, 1), "0 < A < B < W with dim B/A = 1")

    restricted = {}  # (basis label or "W/B", generator name) -> matrix

    def invariance_failures():
        # every restriction of an operator reads one matrix, dropped after;
        # spin and trace keep the structured operators
        for name, op in named:
            mat = DenseOp(params, op.materialize())
            for basis in bases:
                try:
                    restricted[(basis.label, name)] = restrict(mat, basis, ctx, r, ell)
                except NotInvariant as exc:
                    yield f"{name} on {basis.label}: {exc}"
            if char2:
                restricted[("W/B", name)] = restrict_quotient(mat, params)

    if not report.record("submodule-invariance", pstr, invariance_failures()):
        return
    sigma = DenseOp(params, gens.sigma.materialize())

    if not char2:
        w_plus, w_minus = bases
        sig_plus = restrict(sigma, w_plus, ctx, r, ell)
        sig_minus = restrict(sigma, w_minus, ctx, r, ell)
        eye_p = DenseMatrix.identity(ctx, w_plus.dim)
        eye_m = DenseMatrix.identity(ctx, w_minus.dim)
        _check_value(report, "sigma-eigenspaces", pstr,
                     [sig_plus, sig_minus], [eye_p, eye_m.scale(ctx.neg(ctx.one))],
                     "sigma is +1 on W+ and -1 on W-", ctx)
    else:
        socle, heart = bases
        sig_b = restrict(sigma, heart, ctx, r, ell)
        _check_value(report, "sigma-eigenspaces", pstr, sig_b,
                     DenseMatrix.identity(ctx, heart.dim),
                     "sigma is trivial on B", ctx)
        # B/A: trivial 1-dim action unless (r, l) = (3, 1)
        if (r, ell) != (3, 1):
            ba_actions = ((name, restricted[("B", name)].rows[-1][-1]) for name, _ in named)
            report.record("BA-action-trivial", pstr, (
                f"{name} acts as {json.dumps(ctx.serialize_elem(a))} on B/A"
                for name, a in ba_actions if a != ctx.one))
        # trace additivity across the three composition factors
        def additivity_failures():
            for name, op in named:
                t_a = restricted[("A", name)].trace()
                t_ba = restricted[("B", name)].rows[-1][-1]
                t_q = restricted[("W/B", name)].trace()
                if op.trace() != ctx.add(ctx.add(t_a, t_ba), t_q):
                    yield f"trace additivity fails for {name}"

        report.record("trace-additivity", pstr, additivity_failures())

    # irreducibility evidence by spinning, at the spec's parameter grid
    if (r, ell) in ((3, 1), (5, 1), (3, 2)):
        target = next(b for b in bases if b.label == ("A" if char2 else "W-"))
        ops = [op for _, op in named]
        dims = (spin([list(v)], ops, ctx) for v in target.vectors)
        report.record("spin-irreducibility", pstr, (
            f"spin gave {d}, expected {target.dim}" for d in dims if d != target.dim))


# ---------------------------------------------------------------------------
# SL_2(3) presentation


def _sl23_rows(gens):
    """x = lam*C, y = U satisfy x^4 = y^3 = (xy)^3 = [x^2, y] = 1, and x^2 is
    central against both generators."""
    x, y = gens.lamC[0], gens.U[0]
    return [("sl23-x4", (x,) * 4, ()),
            ("sl23-y3", (y,) * 3, ()),
            ("sl23-xy3", (x, y) * 3, ()),
            ("sl23-x2-central-y", (x, x, y), (y, x, x)),
            ("sl23-x2-central-x", (x, x, x), (x, x, x))]


def check_sl23_presentation(params, gens=None):
    """The report of the SL_2(3) presentation rows (_sl23_rows) at r = 3,
    ell = 1."""
    if params.r != 3 or params.ell != 1:
        raise ValueError("the presentation check needs r = 3, ell = 1")
    report = VerificationReport()
    _check_words(report, params_label(params), params,
                 _sl23_rows(weil_generators(params) if gens is None else gens))
    return report


# ---------------------------------------------------------------------------
# closure counting


def structured_generator(g):
    """g as the MonomialOp or FourierOp that materialises to exactly g, or g
    itself.  Only an n x n matrix with n = r^l, r = ctx.r, is tried: as a
    monomial (heisenberg.monomial_form), else as scale * C_t for t = 1..l with scale
    the (0, 0) entry.  A candidate counts only when its materialisation
    equals g, so a wrong guess costs time, never a result."""
    ctx = g.ctx
    n = g.nrows
    ell, size = 1, ctx.r
    while size < n:
        ell, size = ell + 1, size * ctx.r
    if size != n:
        return g
    params = WeilParams(ctx.r, ell, ctx)
    try:
        candidates = [monomial_form(g, params)]
    except RecognitionError:
        candidates = (FourierOp(params, t, g.rows[0][0]) for t in range(1, ell + 1))
    return next((op for op in candidates if op.materialize() == g), g)


def closure_order(generators, cap):
    """Exact order of the matrix group generated by the given DenseMatrix
    list, by breadth-first closure.  Raises CapExceeded when the closure
    passes cap: when one more element would be recorded with cap elements
    already seen.

    Each generator is recognised once (structured_generator), and the search
    multiplies on the left: g * M for every element M and generator g, one
    step of ctx.closure_steps per generator.  Left and right multiplication
    give the same group, and every route keeps one canonical state per
    matrix, so the count and the cap behaviour do not depend on the route."""
    if not generators:
        return 1
    first = generators[0]
    start, steps = first.ctx.closure_steps(
        first.nrows, [structured_generator(g) for g in generators])
    seen = {start}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        for step in steps:
            prod = step(state)
            if prod not in seen:
                if len(seen) >= cap:
                    raise CapExceeded(f"closure exceeded cap {cap}")
                seen.add(prod)
                queue.append(prod)
    return len(seen)


# ---------------------------------------------------------------------------
# negative controls


def mutate_lambda_sign(gens):
    """lam -> -lam throughout the generator set."""
    params = gens.params
    ctx = params.ctx
    bad = ctx.neg(gens.lam)
    return replace(gens, lam=bad,
                   lamC=tuple(op_C(params, t, bad)
                              for t in range(1, params.ell + 1)))


def mutate_u_to_e(gens):
    """Replace every U_t by E_t (they have the same projection, but E breaks
    the scalar identities)."""
    return replace(gens, U=gens.E)


def corrupt_c_entry(gens):
    """Bump entry (0, 1) of C_1 by theta; lam*C_1 follows suit."""
    params = gens.params
    ctx = params.ctx
    mat = gens.rawC[0].materialize()
    rows = [list(row) for row in mat.rows]
    rows[0][1] = ctx.add(rows[0][1], ctx.theta)
    bad = DenseMatrix(ctx, rows)
    bad_op = DenseOp(params, bad)
    return replace(gens,
                   rawC=(bad_op,) + gens.rawC[1:],
                   lamC=(DenseOp(params, bad.scale(gens.lam)),) + gens.lamC[1:])
