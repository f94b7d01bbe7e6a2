import hashlib
import json
from collections import Counter
from dataclasses import replace

import pytest

from spweil import verification
from spweil.fields import (CyclotomicContext, FieldSpec, PackedRows, PlaneRows,
                           PrimeFieldContext, make_field, parse_field_spec)
from spweil.generators import op_B, weil_generators
from spweil.linalg import DenseMatrix
from spweil.operators import (DenseOp, FourierOp, MonomialOp, ScalarOp, WeilParams,
                              negation_monomial)
from spweil.submodules import restrict, submodule_bases
from spweil.symplectic import group_order
from spweil.verification import (CapExceeded, VerificationReport,
                                 check_sl23_presentation, closure_order,
                                 corrupt_c_entry, mutate_lambda_sign,
                                 mutate_u_to_e, run_relation_suite,
                                 structured_generator)

SMALL_GRID = [
    ("cyclotomic", 3, 1), ("auto-prime", 3, 1), ("auto-char2", 3, 1),
    ("cyclotomic", 3, 2), ("auto-prime", 3, 2), ("auto-char2", 3, 2),
    ("cyclotomic", 5, 1), ("auto-prime", 5, 1), ("auto-char2", 5, 1),
    ("auto-prime", 5, 2), ("auto-prime", 7, 1),
]


@pytest.mark.parametrize("kind,r,ell", SMALL_GRID, ids=str)
def test_relation_suite_passes(kind, r, ell):
    ctx = make_field(FieldSpec(kind, r))
    report = run_relation_suite(WeilParams(r, ell, ctx))
    assert report.ok, report.summary()
    assert not report.failures()


def test_report_shape_and_json():
    ctx = make_field(FieldSpec("auto-prime", 3))
    report = run_relation_suite(WeilParams(3, 1, ctx))
    blob = json.dumps(report.to_json())
    parsed = json.loads(blob)
    assert all(set(e) == {"id", "params", "status", "witness"} for e in parsed)
    assert all(e["status"] in ("pass", "fail", "skip") for e in parsed)
    # determinism: same checks in the same order
    again = run_relation_suite(WeilParams(3, 1, ctx))
    assert [e.id for e in report.entries] == [e.id for e in again.entries]


def test_failing_checks_carry_witnesses():
    ctx = make_field(FieldSpec("auto-prime", 3))
    params = WeilParams(3, 1, ctx)
    gens = mutate_lambda_sign(weil_generators(params))
    report = run_relation_suite(params, gens=gens)
    fails = report.failures()
    assert fails
    assert all(f.witness for f in fails)


@pytest.mark.parametrize("mutation", [mutate_lambda_sign, mutate_u_to_e,
                                      corrupt_c_entry], ids=lambda m: m.__name__)
def test_negative_controls_trip_the_suite(mutation):
    ctx = make_field(FieldSpec("auto-prime", 3))
    params = WeilParams(3, 1, ctx)
    gens = mutation(weil_generators(params))
    report = run_relation_suite(params, gens=gens)
    assert report.failures(), f"{mutation.__name__} was not detected"


@pytest.mark.parametrize("kind", ["cyclotomic", "auto-prime", "auto-char2"])
def test_bumped_A_exponent_trips_extraspecial_relations(kind):
    # one theta exponent of A_1 off by one: the integer-equality checks on
    # monomials must see it, and the suite reports instead of raising
    ctx = make_field(FieldSpec(kind, 3))
    params = WeilParams(3, 2, ctx)
    gens = weil_generators(params)
    a1 = gens.A[0]
    expo = list(a1.expo)
    expo[1] = (expo[1] + 1) % 3
    bad = replace(gens, A=(MonomialOp(params, a1.perm, expo),) + gens.A[1:])
    failures = {f.id: f.witness for f in run_relation_suite(params, gens=bad).failures()}
    assert failures.get("extraspecial-relations") == "[A_1, B_1] != theta^delta"


@pytest.mark.parametrize("kind", ["cyclotomic", "auto-prime", "auto-char2"])
def test_scaled_C_square_trips_negation_check(kind):
    # theta * C_1 squares to theta^2 * r times the slot-1 negation monomial:
    # the monomial's scale is theta^2 * r instead of r.  theta^3 = 1 hides the
    # change from every determinant and cube identity, so C1-squared-negation
    # is the one check that must fail.
    ctx = make_field(FieldSpec(kind, 3))
    params = WeilParams(3, 1, ctx)
    gens = weil_generators(params)
    bad = replace(gens, rawC=(FourierOp(params, 1, ctx.theta),) + gens.rawC[1:])
    fail_ids = [f.id for f in run_relation_suite(params, gens=bad).failures()]
    assert fail_ids == ["C1-squared-negation"]


# (kind, r, ell) of the golden relation-suite reports, each plain and under
# the three negative controls; the hash was recorded before the suite's
# products became (id, left word, right word) rows and before pi_map
# matched rows on integer theta codes
GOLDEN_SUITE_CELLS = [(kind, r, ell) for kind in ("cyclotomic", "auto-prime")
                      for r, ell in ((3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (3, 3))]
GOLDEN_SUITE_CELLS += [("auto-char2", r, ell) for r, ell in ((3, 1), (3, 2), (5, 1), (7, 1))]
GOLDEN_SUITE_SHA256 = "9b7ebb2b9459d0756a324a06818f6692b3aa72d63b92042592cdb411645c5003"


def test_relation_suite_golden_reports():
    # pins every check id, its order, its status and its witness, the
    # DoesNotNormalize texts under corrupt_c_entry included
    h = hashlib.sha256()
    for kind, r, ell in GOLDEN_SUITE_CELLS:
        params = WeilParams(r, ell, make_field(FieldSpec(kind, r)))
        gens = weil_generators(params)
        for control in (None, mutate_lambda_sign, mutate_u_to_e, corrupt_c_entry):
            report = run_relation_suite(params, gens=gens if control is None else control(gens))
            h.update(json.dumps(report.to_json()).encode() + b"\n"
                     + report.summary().encode() + b"\n")
    assert h.hexdigest() == GOLDEN_SUITE_SHA256


def _bumped(op, params):
    """op as a DenseOp with entry (0, 1) bumped by theta."""
    ctx = params.ctx
    rows = [list(row) for row in op.materialize().rows]
    rows[0][1] = ctx.add(rows[0][1], ctx.theta)
    return DenseOp(params, DenseMatrix(ctx, rows))


def _bump(gens, which):
    """gens with entry (0, 1) of C_l (and lam*C_l with it), U_1 or D_12
    bumped by theta."""
    params = gens.params
    if which == "C":
        raw = _bumped(gens.rawC[-1], params)
        lam_c = DenseOp(params, raw.materialize().scale(gens.lam))
        return replace(gens, rawC=gens.rawC[:-1] + (raw,), lamC=gens.lamC[:-1] + (lam_c,))
    if which == "U":
        return replace(gens, U=(_bumped(gens.U[0], params),) + gens.U[1:])
    return replace(gens, D={**gens.D, (1, 2): _bumped(gens.D[(1, 2)], params)})


BUMP_TRIPS = {
    "C": {"C2-squared-negation", "lamC2-order4", "lamC2-squared-form",
          "lamC2sq-D12-involution", "sigma-commutes-C2"},
    "U": {"lamC1U1-order3", "X-commutator-D12", "sigma-commutes-U1"},
    "D": {"X-commutator-D12", "lamC2sq-D12-involution", "sigma-commutes-D12"},
}


@pytest.mark.parametrize("which", BUMP_TRIPS)
@pytest.mark.parametrize("kind,r", [("cyclotomic", 3), ("auto-prime", 3), ("auto-char2", 3),
                                    ("cyclotomic", 5), ("auto-prime", 5)])
def test_bumped_generator_trips_its_relations(kind, r, which):
    # corrupt_c_entry bumps C_1 only; a bumped C_l, U_1 or D_12 must fail the
    # word relations it enters
    params = WeilParams(r, 2, make_field(FieldSpec(kind, r)))
    report = run_relation_suite(params, gens=_bump(weil_generators(params), which))
    assert BUMP_TRIPS[which] <= {f.id for f in report.failures()}


def test_mutated_lambda_cube_witness():
    # lam -> -lam flips the sign of (lam C U)^3: the witness is -1 at (0,0)
    ctx = make_field(FieldSpec("cyclotomic", 3))
    params = WeilParams(3, 1, ctx)
    gens = mutate_lambda_sign(weil_generators(params))
    report = run_relation_suite(params, gens=gens)
    fail_ids = {f.id for f in report.failures()}
    assert "lamC1U1-order3" in fail_ids


def test_closure_order_values(gf7, gf11):
    p31 = WeilParams(3, 1, gf7)
    mats = [op.materialize()
            for _, _, _, op in weil_generators(p31).sp_generating_ops()]
    assert closure_order(mats, 10 ** 6) == 24
    p51 = WeilParams(5, 1, gf11)
    mats = [op.materialize()
            for _, _, _, op in weil_generators(p51).sp_generating_ops()]
    assert closure_order(mats, 10 ** 6) == 120


def test_closure_order_generator_order_invariance(gf7):
    params = WeilParams(3, 1, gf7)
    mats = [op.materialize()
            for _, _, _, op in weil_generators(params).sp_generating_ops()]
    assert closure_order(list(reversed(mats)), 10 ** 6) == 24


def test_closure_order_cyclotomic_path(cyc3):
    # the generic (non-prime) closure loop
    params = WeilParams(3, 1, cyc3)
    mats = [op.materialize()
            for _, _, _, op in weil_generators(params).sp_generating_ops()]
    assert closure_order(mats, 10 ** 6) == 24


def test_closure_cap(gf7):
    params = WeilParams(3, 1, gf7)
    mats = [op.materialize()
            for _, _, _, op in weil_generators(params).sp_generating_ops()]
    with pytest.raises(CapExceeded):
        closure_order(mats, 10)


@pytest.mark.parametrize("kind", ["cyclotomic", "auto-prime", "auto-char2"])
def test_sl23_presentation(kind):
    ctx = make_field(FieldSpec(kind, 3))
    report = check_sl23_presentation(WeilParams(3, 1, ctx))
    assert report.ok, report.summary()
    assert {e.id for e in report.entries} == {
        "sl23-x4", "sl23-y3", "sl23-xy3", "sl23-x2-central-y", "sl23-x2-central-x"}


def test_sl23_presentation_requires_r3_l1(gf11):
    with pytest.raises(ValueError):
        check_sl23_presentation(WeilParams(5, 1, gf11))


def test_suite_includes_sl23_at_r3_l1():
    ctx = make_field(FieldSpec("auto-prime", 3))
    report = run_relation_suite(WeilParams(3, 1, ctx))
    assert "sl23-x4" in {e.id for e in report.entries}
    report2 = run_relation_suite(WeilParams(3, 2, ctx))
    assert "sl23-x4" not in {e.id for e in report2.entries}


def test_group_order_cross_check():
    assert group_order(1, 3) == 24
    assert group_order(1, 5) == 120
    assert group_order(1, 7) == 336
    assert group_order(2, 3) == 51840


def test_grid_script_jsonl_rows(monkeypatch, capsys):
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "scripts" / "run_verification_grid.py"
    spec = importlib.util.spec_from_file_location("run_verification_grid", path)
    grid = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(grid)
    monkeypatch.setattr(grid, "GRID", [(3, 1)])
    monkeypatch.setattr(grid, "CHAR2", [(3, 1)])
    monkeypatch.setattr(grid, "CLOSURE_SETS", [(3, 1)])
    monkeypatch.setattr("sys.argv", ["run_verification_grid.py", "--jsonl", "--closure"])
    assert grid.main() == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [row["field"] for row in rows] == ["Q(theta_3)", "GF(7)", "GF(2^2)", "GF(7)"]
    for row in rows[:3]:
        assert set(row) == {"r", "l", "field", "checks", "failures", "duration_s"}
        assert (row["r"], row["l"], row["failures"]) == (3, 1, [])
        assert row["checks"] > 0 and row["duration_s"] >= 0
    assert (rows[3]["closure"], rows[3]["group_order"]) == (24, 24)


# ---------------------------------------------------------------------------
# the structured closure: recognition, dense fallback, counts


def _closure_mats(gens):
    return [op.materialize() for _, _, _, op in gens.sp_generating_ops()]


@pytest.mark.parametrize("kind", ["cyclotomic", "auto-prime", "auto-char2"])
def test_structured_generator_recognises_weil_generators(kind):
    ctx = make_field(FieldSpec(kind, 3))
    params = WeilParams(3, 2, ctx)
    gens = weil_generators(params)
    for label, t, s, op in gens.sp_generating_ops():
        mat = op.materialize()
        found = structured_generator(mat)
        if label == "C":
            assert isinstance(found, FourierOp) and found.t == t
            assert found.scale == gens.lam
        else:
            assert isinstance(found, MonomialOp) and found == op
        assert found.materialize() == mat


def test_structured_generator_keeps_a_non_unit_scale(gf11):
    params = WeilParams(5, 1, gf11)
    u = weil_generators(params).U[0]
    for c in (2, 3):
        found = structured_generator(u.materialize().scale(c))
        assert isinstance(found, MonomialOp)
        assert found.scale == c and found.expo == u.expo and found.perm == u.perm


def test_structured_generator_falls_back_to_dense(gf7):
    # the corrupted C_1 is neither monomial nor a scaled Fourier kernel
    gens = corrupt_c_entry(weil_generators(WeilParams(3, 1, gf7)))
    bad = gens.lamC[0].materialize()
    assert structured_generator(bad) is bad
    assert closure_order(_closure_mats(gens), 10 ** 5) == 21168


def test_structured_generator_needs_distinct_rows(gf7):
    # one nonzero theta power per column, but two in row 0: singular, and
    # no permutation, so it stays dense
    one, zero, theta = gf7.one, gf7.zero, gf7.theta
    mat = DenseMatrix(gf7, [[one, theta, zero], [zero, zero, one], [zero, zero, zero]])
    assert structured_generator(mat) is mat


@pytest.mark.parametrize("r", [5, 7])
def test_structured_generator_leaves_constituents_dense(r):
    # (r^l +- 1)/2 is never a power of r, so restricted generators stay dense
    params = WeilParams(r, 1, make_field(FieldSpec("auto-prime", r)))
    gens = weil_generators(params)
    for basis in submodule_bases(params):
        for _, _, _, op in gens.sp_generating_ops():
            mat = restrict(op, basis, params.ctx)
            assert structured_generator(mat) is mat


@pytest.mark.parametrize("kind", ["cyclotomic", "auto-char2"])
def test_closure_order_sp25_other_families(kind):
    ctx = make_field(FieldSpec(kind, 5))  # Q(theta_5), GF(16)
    assert closure_order(_closure_mats(weil_generators(WeilParams(5, 1, ctx))),
                         10 ** 6) == 120


@pytest.mark.parametrize("r,orders", [(5, {"W+": 60, "W-": 120}),
                                      (7, {"W+": 336, "W-": 168})])
def test_closure_order_constituents(r, orders):
    params = WeilParams(r, 1, make_field(FieldSpec("auto-prime", r)))  # GF(11), GF(29)
    gens = weil_generators(params)
    for basis in submodule_bases(params):
        mats = [restrict(op, basis, params.ctx) for _, _, _, op in gens.sp_generating_ops()]
        assert closure_order(mats, 10 ** 6) == orders[basis.label]
        assert closure_order(mats[::-1], 10 ** 6) == orders[basis.label]


@pytest.mark.parametrize("c,order", [(2, 1200), (3, 600)])
def test_closure_order_scaled_monomial_generator(gf11, c, order):
    # c * U_1 with c of multiplicative order 10 resp. 5 in GF(11): the group
    # grows by the scalars, so a recognised monomial must keep its scale
    gens = weil_generators(WeilParams(5, 1, gf11))
    lam_c, u = gens.lamC[0].materialize(), gens.U[0].materialize()
    assert closure_order([lam_c, u.scale(c)], 10 ** 6) == order
    assert closure_order([u.scale(c), lam_c], 10 ** 6) == order


@pytest.mark.parametrize("kind,r,order", [("cyclotomic", 7, 336), ("auto-char2", 5, 120),
                                          ("auto-prime", 11, 1320),
                                          ("cyclotomic", 3, 24)])
def test_closure_order_reversed_and_shuffled(kind, r, order):
    import random

    mats = _closure_mats(weil_generators(WeilParams(r, 1, make_field(FieldSpec(kind, r)))))
    assert closure_order(mats[::-1], 10 ** 6) == order
    shuffled = mats + mats[:1]  # a repeated generator changes nothing
    random.Random(r).shuffle(shuffled)
    assert closure_order(shuffled, 10 ** 6) == order


def test_closure_order_shuffled_sp43_cap(gf7):
    import random

    mats = _closure_mats(weil_generators(WeilParams(3, 2, gf7)))
    random.Random(4).shuffle(mats)
    with pytest.raises(CapExceeded):
        closure_order(mats, 5000)


def test_check_ops_witness_is_serialised(cyc3):
    # entries are rendered through serialize_elem: "num/den" strings, not
    # the internal (nums, den) tuples
    params = WeilParams(3, 1, cyc3)
    report = run_relation_suite(params, gens=corrupt_c_entry(weil_generators(params)))
    witnesses = [f.witness for f in report.failures() if f.witness.startswith("entry (")]
    assert witnesses
    for witness in witnesses:
        assert "/" in witness and "((" not in witness
        left, right = witness.split(": ", 1)[1].split(" != ")
        assert all(isinstance(json.loads(side), list) for side in (left, right))


@pytest.mark.parametrize("ell", [1, 2])
def test_check_value_witness_is_serialised(cyc3, ell):
    # scalar checks render field elements, nested lists included, through
    # serialize_elem as the operator checks do
    params = WeilParams(3, ell, cyc3)
    report = run_relation_suite(params, gens=mutate_lambda_sign(weil_generators(params)))
    witnesses = {f.id: f.witness for f in report.failures()}
    minus, one = json.dumps(["-1/1", "0/1"]), json.dumps(["1/1", "0/1"])
    assert witnesses["det-lamC"] == f"det(lam*C_t): {minus} != {one}"
    left, right = witnesses["det-power-r"].split(": ", 1)[1].split(" != ")
    d_powers = [["1/1", "0/1"]] * (ell - 1)
    assert json.loads(left) == [["-1/1", "0/1"], ["1/1", "0/1"], d_powers]
    assert json.loads(right) == [["1/1", "0/1"], ["1/1", "0/1"], d_powers]


def test_grid_script_closure_rows_cover_every_family(monkeypatch, capsys):
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "scripts" / "run_verification_grid.py"
    spec = importlib.util.spec_from_file_location("run_verification_grid", path)
    grid = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(grid)
    assert {(r, kind[0]) for r, _, *kind in grid.CLOSURE_SETS if kind} == {
        (r, kind) for r in (3, 5, 7) for kind in ("cyclotomic", "auto-char2")}
    monkeypatch.setattr(grid, "GRID", [])
    monkeypatch.setattr(grid, "CHAR2", [])
    monkeypatch.setattr(grid, "CLOSURE_SETS",
                        [(3, 1), (5, 1, "cyclotomic"), (5, 1, "auto-char2")])
    monkeypatch.setattr("sys.argv", ["run_verification_grid.py", "--jsonl", "--closure"])
    assert grid.main() == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(row["field"], row["closure"], row["group_order"]) for row in rows] == [
        ("GF(7)", 24, 24), ("Q(theta_5)", 120, 120), ("GF(2^4)", 120, 120)]
    for row in rows:
        assert set(row) == {"r", "l", "field", "closure", "group_order", "duration_s"}


def test_record_draws_only_the_first_witness():
    def witnesses():
        yield "first"
        raise AssertionError("a second witness was drawn")

    report = VerificationReport()
    assert report.record("fails", "p", witnesses()) is False
    assert report.record("passes", "p", iter(())) is True
    assert [(e.id, e.status, e.witness) for e in report.entries] == [
        ("fails", "fail", "first"), ("passes", "pass", None)]


def test_pi_generator_images_witness_names_the_generator(gf7):
    # at l = 3, D13 and D23 share t = 3: the witness must say which one
    params = WeilParams(3, 3, gf7)
    gens = weil_generators(params)
    swapped = replace(gens, D={**gens.D, (1, 3): gens.D[(2, 3)]})
    report = run_relation_suite(params, gens=swapped)
    witnesses = {e.id: e.witness for e in report.entries}
    assert witnesses["pi-generator-images"] == "pi image of D13 mismatches its table entry"


# ---------------------------------------------------------------------------
# the packed GF(p) and Q(theta) closure routes against the tuple route


def _tuple_route(monkeypatch):
    """Make every GF(p) and Q(theta) closure take the base class's tuple
    rows."""
    for cls in (PrimeFieldContext, CyclotomicContext):
        monkeypatch.setattr(cls, "row_class", None)


def _sp_mats(spec, r, ell):
    ctx = make_field(parse_field_spec(spec, r))
    return _closure_mats(weil_generators(WeilParams(r, ell, ctx)))


@pytest.mark.parametrize("spec,r", [("auto-prime", 3), ("auto-prime", 5), ("auto-prime", 7),
                                    ("auto-prime", 11), ("cyclotomic", 3), ("cyclotomic", 5),
                                    ("cyclotomic", 7)])
def test_closure_packed_route_matches_tuple_route(spec, r, monkeypatch):
    # GF(7), GF(11), GF(29), GF(23) and Q(theta_r); lam*C_1 * U_1,
    # materialised, is neither monomial nor Fourier and takes the unpacked
    # mul_rows inside a step
    mats = _sp_mats(spec, r, 1)
    mixed = mats + [mats[0] * mats[-1]]
    assert structured_generator(mixed[-1]) is mixed[-1]
    start, _ = mats[0].ctx.closure_steps(r, mats)
    planes = start[2] if spec == "cyclotomic" else (start,)
    assert all(isinstance(x, int) for row in planes for x in row)
    packed = [closure_order(mats, 10 ** 6), closure_order(mixed, 10 ** 6)]
    _tuple_route(monkeypatch)
    assert isinstance(mats[0].ctx.closure_steps(r, mats)[0][0], tuple)
    assert packed == [closure_order(mats, 10 ** 6), closure_order(mixed, 10 ** 6)]
    assert packed == [group_order(1, r)] * 2


@pytest.mark.parametrize("kind,packed", [("cyclotomic", True), ("cyclotomic", False),
                                         ("auto-char2", False), ("auto-prime", True),
                                         ("auto-prime", False)])
def test_closure_step_multiplies_on_the_left(kind, packed, monkeypatch):
    # a count cannot tell g from its transpose (<g^T> has the order of
    # <g>), so one step from the identity must give g's own state, and a
    # step by h after one by g that of h * g: M's column tuples on the tuple
    # route, its packed rows over GF(p), its canonical planes over Q(theta)
    ctx = make_field(FieldSpec(kind, 3))
    if not packed:
        _tuple_route(monkeypatch)
    params = WeilParams(3, 2, ctx)
    gens = weil_generators(params)
    lam_c, u = gens.lamC[0].materialize(), gens.U[0].materialize()
    mats = [u * op_B(params, 1).materialize(), lam_c * u, lam_c]
    ops = [structured_generator(m) for m in mats]
    assert isinstance(ops[0], MonomialOp) and ops[1] is mats[1]
    assert isinstance(ops[2], FourierOp)
    assert all(m.rows != tuple(zip(*m.rows)) for m in mats[:2])

    def state(m):
        if not packed:
            return tuple(zip(*m.rows))
        if kind == "cyclotomic":
            return PlaneRows.load(ctx, m.rows).state()
        return tuple(map(PackedRows.pack, m.rows))
    start, steps = ctx.closure_steps(params.n, ops)
    assert start == state(DenseMatrix.identity(ctx, params.n))
    for step, m in zip(steps, mats):
        assert step(start) == state(m)
    g, h = mats[:2]
    assert h * g != g * h
    assert steps[1](steps[0](start)) == state(h * g)
    assert steps[0](steps[1](start)) == state(g * h)


@pytest.mark.parametrize("r", [3, 5, 7, 13])
def test_plane_closure_states_are_canonical(r):
    # a Q(theta) state is (den, width, rows): the planes reduced mod the
    # cyclotomic polynomial and gcd(den, every lane) = 1, so equal matrices
    # reached by different products give equal states.  lam = +-G/r with
    # G^2 = (-1|r) * r, so (lam*C_1)^2 = (-1|r) * N_1 (den r^2 divided out)
    # and (lam*C_1)^4 = I.  C_1 * C_1 = r * N_1: off its support each entry
    # is a plane of ones, 1 + theta + ... + theta^(r-1), which reduces to 0
    ctx = CyclotomicContext(r)
    params = WeilParams(r, 1, ctx)
    neg = negation_monomial(params, 1)
    ops = [weil_generators(params).lamC[0], FourierOp(params, 1),
           MonomialOp(params, neg.perm, neg.expo, ctx.from_int(r)),
           MonomialOp(params, neg.perm, neg.expo, ctx.from_int(1 if r % 4 == 1 else -1))]
    start, (lam_c, c, r_neg, signed_neg) = ctx.closure_steps(r, ops)
    assert start == (1, 8, tuple((PackedRows.pack([int(i == j) for j in range(r)]),)
                                 + (0,) * (r - 1) for i in range(r)))
    states = [start]
    for _ in range(4):
        states.append(lam_c(states[-1]))
    assert [den for den, _, _ in states] == [1, r, 1, r, 1]
    assert states[4] == start
    assert states[2] == signed_neg(start)
    assert c(c(start)) == r_neg(start) != c(start)
    assert all(row[1:] == (0,) * (r - 1) for row in r_neg(start)[2])


def test_plane_closure_steps_past_half_a_lane():
    # a state with lanes of 2^62 is loaded again before the next step, so
    # C_1 * 2^62 * C_1 = 2^62 * 3 * N_1 is computed, and kept, in 128-bit
    # lanes, as 2^62 * C_1 * C_1 is; a step that took the state's lanes to
    # be small would keep 64-bit lanes and overflow them
    ctx = CyclotomicContext(3)
    params = WeilParams(3, 1, ctx)
    big = ScalarOp(params, ctx.from_int(2 ** 62))
    start, (scale, c) = ctx.closure_steps(3, [big, FourierOp(params, 1)])
    want = PlaneRows.load(ctx, big.compose(negation_monomial(params, 1))
                          .materialize().scale(ctx.from_int(3)).rows).state()
    assert want[:2] == (1, 16)
    assert c(scale(c(start))) == scale(c(c(start))) == want


def test_closure_cap_sp43_on_both_routes(monkeypatch):
    # the capped Sp(4,3) search with D_12 * C_1 mixed in as a dense generator
    mats = _sp_mats("auto-prime", 3, 2)
    mats.append(mats[-1] * mats[0])
    assert structured_generator(mats[-1]) is mats[-1]
    with pytest.raises(CapExceeded):
        closure_order(mats, 12_000)
    _tuple_route(monkeypatch)
    with pytest.raises(CapExceeded):
        closure_order(mats, 12_000)


def test_closure_cap_sp43_over_q_theta_on_both_routes(monkeypatch):
    # the capped Sp(4,3) search over Q(theta_3): canonical planes on the
    # packed route, column tuples on the tuple route, the same cap
    mats = _sp_mats("cyclotomic", 3, 2)
    with pytest.raises(CapExceeded):
        closure_order(mats, 12_000)
    _tuple_route(monkeypatch)
    with pytest.raises(CapExceeded):
        closure_order(mats, 12_000)


@pytest.mark.parametrize("spec,lane_by_lane", [("gf:4093", False), ("gf:6007", True),
                                               ("gf:2147483647", True)])
def test_closure_at_and_past_the_lane_budget(spec, lane_by_lane, monkeypatch):
    # over GF(4093) the lam*C_1 step bounds its lanes by 4092 * 8186, just
    # below lane_division's budget 2^25, so every step multiplies and shifts
    # near the top of the budget; over GF(6007) (budget 2^24) and
    # GF(2^31 - 1) the Fourier steps are past it and reduce lane by lane
    mats = _sp_mats(spec, 3, 1)
    calls = []
    lanes = PackedRows._lanes
    monkeypatch.setattr(PackedRows, "_lanes", lambda self, row: calls.append(1) or lanes(self, row))
    assert closure_order(mats, 10 ** 6) == 24
    assert bool(calls) == lane_by_lane


@pytest.mark.parametrize("kind,r,ell", [("cyclotomic", 3, 2), ("auto-prime", 5, 2),
                                        ("auto-char2", 3, 2)], ids=str)
def test_submodule_checks_materialise_each_operator_once(kind, r, ell, monkeypatch):
    # the restrictions read one matrix per generator and sigma; in char 2,
    # trace additivity also takes the trace of each lam*C_t, which a
    # FourierOp reads off its matrix
    params = WeilParams(r, ell, make_field(FieldSpec(kind, r)))
    gens = weil_generators(params)
    calls = Counter()
    for cls in (MonomialOp, FourierOp):
        def counted(self, pool=None, materialize=cls.materialize):
            calls[id(self)] += 1
            return materialize(self, pool)
        monkeypatch.setattr(cls, "materialize", counted)
    report = VerificationReport()
    verification._submodule_checks(report, params, gens)
    assert report.ok, report.summary()
    ops = [op for *_, op in gens.sp_generating_ops()] + [gens.sigma]
    char2 = kind == "auto-char2"
    assert calls == Counter({id(op): 1 + (char2 and isinstance(op, FourierOp)) for op in ops})
