import json
from dataclasses import replace

import pytest

from spweil.fields import FieldSpec, make_field
from spweil.generators import weil_generators
from spweil.operators import FourierOp, MonomialOp, WeilParams
from spweil.symplectic import group_order
from spweil.verification import (CapExceeded, VerificationReport,
                                 check_sl23_presentation, closure_order,
                                 corrupt_c_entry, mutate_lambda_sign,
                                 mutate_u_to_e, run_relation_suite)

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
