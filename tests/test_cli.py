import json
import os
import subprocess
import sys
from pathlib import Path

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spweil
from spweil.cli import main

GOLDEN_MAGMA_31_CYC = """\
K := CyclotomicField(3);
theta := K.1;
lambda := -1/3 - 2/3*theta;
C1 := Matrix(K, 3, 3, [
  -1/3 - 2/3*theta, -1/3 - 2/3*theta, -1/3 - 2/3*theta,
  -1/3 - 2/3*theta, 2/3 + 1/3*theta, -1/3 + 1/3*theta,
  -1/3 - 2/3*theta, -1/3 + 1/3*theta, 2/3 + 1/3*theta
]);
U1 := Matrix(K, 3, 3, [
  1, 0, 0,
  0, -1 - theta, 0,
  0, 0, -1 - theta
]);
"""

GOLDEN_GAP_31_GF7 = """\
K := GF(7);;
theta := Z(7)^2;;
lambda_ := 3*Z(7)^0;;
C1 := [
  [ 3*Z(7)^0, 3*Z(7)^0, 3*Z(7)^0 ],
  [ 3*Z(7)^0, 6*Z(7)^0, 5*Z(7)^0 ],
  [ 3*Z(7)^0, 5*Z(7)^0, 6*Z(7)^0 ]
];;
U1 := [
  [ 1*Z(7)^0, 0*Z(7)^0, 0*Z(7)^0 ],
  [ 0*Z(7)^0, 4*Z(7)^0, 0*Z(7)^0 ],
  [ 0*Z(7)^0, 0*Z(7)^0, 4*Z(7)^0 ]
];;
"""

GOLDEN_MAGMA_31_GF7 = """\
K := GF(7);
theta := K!2;
lambda := 3;
C1 := Matrix(K, 3, 3, [
  3, 3, 3,
  3, 6, 5,
  3, 5, 6
]);
U1 := Matrix(K, 3, 3, [
  1, 0, 0,
  0, 4, 0,
  0, 0, 4
]);
"""

GOLDEN_MAGMA_31_GF4 = """\
P<X> := PolynomialRing(GF(2));
K<x> := ext<GF(2) | X^2 + X + 1>;
theta := x;
lambda := 1;
C1 := Matrix(K, 3, 3, [
  1, 1, 1,
  1, x, 1 + x,
  1, 1 + x, x
]);
U1 := Matrix(K, 3, 3, [
  1, 0, 0,
  0, 1 + x, 0,
  0, 0, 1 + x
]);
"""

GOLDEN_GAP_31_CYC = """\
K := CyclotomicField(3);;
theta := E(3);;
lambda_ := -1/3 - 2/3*E(3);;
C1 := [
  [ -1/3 - 2/3*E(3), -1/3 - 2/3*E(3), -1/3 - 2/3*E(3) ],
  [ -1/3 - 2/3*E(3), 2/3 + 1/3*E(3), -1/3 + 1/3*E(3) ],
  [ -1/3 - 2/3*E(3), -1/3 + 1/3*E(3), 2/3 + 1/3*E(3) ]
];;
U1 := [
  [ 1, 0, 0 ],
  [ 0, -1 - E(3), 0 ],
  [ 0, 0, -1 - E(3) ]
];;
"""

GOLDEN_GAP_31_GF4 = """\
x_ := Indeterminate(GF(2), "x_");;
K := AlgebraicExtension(GF(2), x_^2 + x_ + 1);;
a := RootOfDefiningPolynomial(K);;
theta := a;;
lambda_ := One(K);;
C1 := [
  [ One(K), One(K), One(K) ],
  [ One(K), a, One(K) + a ],
  [ One(K), One(K) + a, a ]
];;
U1 := [
  [ One(K), Zero(K), Zero(K) ],
  [ Zero(K), One(K) + a, Zero(K) ],
  [ Zero(K), Zero(K), One(K) + a ]
];;
"""


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gens_json_gf7(capsys):
    code, out, _ = run_cli(["gens", "--r", "3", "--l", "1",
                            "--field", "auto-prime"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["r"] == 3 and doc["l"] == 1
    assert doc["field"] == {"kind": "prime", "r": 3, "p": 7}
    assert doc["theta"] == "2"
    assert doc["lambda"] == "3"
    assert set(doc["matrices"]) == {"C1", "U1"}
    assert doc["matrices"]["C1"][0] == ["3", "3", "3"]


def test_gens_json_roundtrip_bytes(capsys, tmp_path):
    from spweil.serialize import dumps_document
    for field in ("cyclotomic", "auto-prime", "gf2-auto"):
        code, out, _ = run_cli(["gens", "--r", "3", "--l", "2",
                                "--field", field, "--full"], capsys)
        assert code == 0
        assert dumps_document(json.loads(out)) == out


def test_gens_out_file(capsys, tmp_path):
    path = tmp_path / "out.json"
    code, out, _ = run_cli(["gens", "--r", "3", "--l", "1", "--out", str(path)],
                           capsys)
    assert code == 0 and out == ""
    doc = json.loads(path.read_text())
    assert doc["lambda"] == "3"


def test_gens_full_includes_extras(capsys):
    code, out, _ = run_cli(["gens", "--r", "3", "--l", "1", "--full"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert set(doc["matrices"]) == {"C1", "U1", "rawC1", "A1", "B1", "E1", "sigma"}


def test_gens_magma_golden(capsys):
    code, out, _ = run_cli(["gens", "--r", "3", "--l", "1",
                            "--field", "cyclotomic", "--format", "magma"], capsys)
    assert code == 0
    assert out == GOLDEN_MAGMA_31_CYC


def test_gens_gap_golden(capsys):
    code, out, _ = run_cli(["gens", "--r", "3", "--l", "1",
                            "--field", "auto-prime", "--format", "gap"], capsys)
    assert code == 0
    assert out == GOLDEN_GAP_31_GF7


@pytest.mark.parametrize("field, fmt, golden", [
    ("auto-prime", "magma", GOLDEN_MAGMA_31_GF7),
    ("gf2-auto", "magma", GOLDEN_MAGMA_31_GF4),
    ("cyclotomic", "gap", GOLDEN_GAP_31_CYC),
    ("gf2-auto", "gap", GOLDEN_GAP_31_GF4),
])
def test_gens_text_golden(capsys, field, fmt, golden):
    code, out, _ = run_cli(["gens", "--r", "3", "--l", "1",
                            "--field", field, "--format", fmt], capsys)
    assert code == 0
    assert out == golden


def test_gens_gap_extension_parses_shape(capsys):
    code, out, _ = run_cli(["gens", "--r", "3", "--l", "1",
                            "--field", "gf2-auto", "--format", "gap"], capsys)
    assert code == 0
    assert "AlgebraicExtension(GF(2), x_^2 + x_ + 1)" in out
    assert out.rstrip().endswith(";;")


def test_invalid_r_exits_2(capsys):
    code, _, err = run_cli(["gens", "--r", "2", "--l", "1"], capsys)
    assert code == 2
    assert "odd prime" in err
    code, _, _ = run_cli(["gens", "--r", "9", "--l", "1"], capsys)
    assert code == 2


def test_invalid_field_exits_2(capsys):
    code, _, err = run_cli(["gens", "--r", "3", "--l", "1",
                            "--field", "gf:5"], capsys)
    assert code == 2  # 3 does not divide 5 - 1
    code, _, _ = run_cli(["gens", "--r", "3", "--l", "1",
                          "--field", "bogus"], capsys)
    assert code == 2


@pytest.mark.parametrize("field", ["gf:abc", "gf:7^x", "gf:", "gf:7^2^3"])
def test_malformed_field_exits_2_without_traceback(capsys, field):
    code, _, err = run_cli(["gens", "--r", "3", "--l", "1", "--field", field], capsys)
    assert code == 2
    assert "Traceback" not in err and "unrecognised field spec" in err


@pytest.mark.parametrize("field", ["gf:7^0", "gf:7^-1"])
def test_extension_degree_below_one_exits_2(capsys, field):
    code, _, err = run_cli(["gens", "--r", "3", "--l", "1", "--field", field], capsys)
    assert code == 2
    assert "must be >= 1" in err and "does not divide" not in err


def test_out_in_missing_directory_exits_2(tmp_path):
    # a fresh interpreter, so an uncaught exception would show as a traceback
    src = Path(spweil.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    out = tmp_path / "missing" / "x.json"
    proc = subprocess.run([sys.executable, "-m", "spweil", "gens", "--r", "3", "--l", "1",
                           "--out", str(out)], capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    assert not out.exists()


def test_image_identity(capsys):
    code, out, _ = run_cli(["image", "--r", "3", "--l", "1",
                            "--g", "1 0 0 1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["word"] == []
    assert doc["matrices"]["g_weil"] == [["1", "0", "0"],
                                         ["0", "1", "0"],
                                         ["0", "0", "1"]]


def test_image_transvection_diag(capsys):
    # [[1,1],[0,1]] pulls back to diag(1, theta^2, theta^2) = diag(1, 4, 4) in GF(7)
    code, out, _ = run_cli(["image", "--r", "3", "--l", "1",
                            "--g", "1 1 0 1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["matrices"]["g_weil"] == [["1", "0", "0"],
                                         ["0", "4", "0"],
                                         ["0", "0", "4"]]
    assert doc["word"] == [{"gen": "U", "t": 1, "exp": 1}]


def test_image_lower_unipotent_pi_certified(capsys, gf7):
    from spweil.heisenberg import pi_map
    from spweil.linalg import DenseMatrix
    from spweil.operators import WeilParams
    code, out, _ = run_cli(["image", "--r", "3", "--l", "1",
                            "--g", "1 0 1 1"], capsys)
    assert code == 0
    doc = json.loads(out)
    params = WeilParams(3, 1, gf7)
    rows = [[gf7.parse_elem(v) for v in row] for row in doc["matrices"]["g_weil"]]
    img = pi_map(DenseMatrix(gf7, rows), params)
    assert img.rows == ((1, 0), (1, 1))


def test_image_from_file(capsys, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("1, 1\n0, 1\n")
    code, out, _ = run_cli(["image", "--r", "3", "--l", "1",
                            "--g", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["word"] == [{"gen": "U", "t": 1, "exp": 1}]


def test_image_file_longer_than_the_bound_exits_2(capsys, tmp_path):
    # a file is read up to cli.MAX_MATRIX_TEXT characters: one more is refused
    # before the rest is read, and a file at the bound is still read whole
    bound = spweil.cli.MAX_MATRIX_TEXT
    path = tmp_path / "g.txt"
    path.write_text("1 1 0 1".ljust(bound + 1))
    code, out, err = run_cli(["image", "--r", "3", "--l", "1", "--g", str(path)], capsys)
    assert (code, out) == (2, "")
    assert f"is longer than {bound} characters" in err
    path.write_text("1 1 0 1".ljust(bound))
    code, out, _ = run_cli(["image", "--r", "3", "--l", "1", "--g", str(path)], capsys)
    assert code == 0 and json.loads(out)["word"] == [{"gen": "U", "t": 1, "exp": 1}]


@pytest.mark.parametrize("extra", [[], ["--irreducible", "plus"]])
def test_image_decomposes_its_input_once(extra, capsys, monkeypatch):
    # cli holds the word it writes into the document; the image reuses it
    from spweil import cli, symplectic
    calls = []
    original = symplectic.decompose

    def counting(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(symplectic, "decompose", counting)
    monkeypatch.setattr(cli, "decompose", counting)
    g = " ".join(str(x) for row in symplectic.random_element(2, 3, 5).rows for x in row)
    code, out, _ = run_cli(["image", "--r", "3", "--l", "2", "--g", g, *extra], capsys)
    assert code == 0 and json.loads(out)["word"]
    assert len(calls) == 1


def test_image_non_symplectic_exits_3(capsys):
    code, _, err = run_cli(["image", "--r", "3", "--l", "1",
                            "--g", "1 1 1 1"], capsys)
    assert code == 3
    assert "form" in err


def test_image_wrong_size_exits_2(capsys):
    code, _, _ = run_cli(["image", "--r", "3", "--l", "1",
                          "--g", "1 0 0"], capsys)
    assert code == 2


def test_image_irreducible_minus(capsys):
    code, out, _ = run_cli(["image", "--r", "3", "--l", "1",
                            "--field", "cyclotomic",
                            "--g", "1 1 0 1", "--irreducible", "minus"], capsys)
    assert code == 0
    doc = json.loads(out)
    # theta^2 = -1 - theta: coefficients (-1, -1)
    assert doc["matrices"]["g_weil_minus"] == [[["-1/1", "-1/1"]]]


@pytest.mark.parametrize("r", [3, 5])
@pytest.mark.parametrize("field,mode", [("cyclotomic", "plus"), ("cyclotomic", "minus"),
                                        ("gf2-auto", "socle"), ("gf2-auto", "quotient")])
def test_image_irreducible_magma_takes_the_constituent_shape(capsys, r, field, mode):
    # a constituent is (n +- 1)/2 square, not n = r^l: the Magma header and
    # the row commas follow the matrix, as in the JSON document
    args = ["image", "--r", str(r), "--l", "1", "--field", field,
            "--g", "1 1 0 1", "--irreducible", mode]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    mat = json.loads(out)["matrices"][f"g_weil_{mode}"]
    code, out, _ = run_cli(args + ["--format", "magma"], capsys)
    assert code == 0
    lines = out.splitlines()
    start = lines.index(f"g_weil_{mode} := Matrix(K, {len(mat)}, {len(mat[0])}, [")
    rows = lines[start + 1:start + 1 + len(mat)]
    assert lines[start + 1 + len(mat)] == "]);"
    assert [row.endswith(",") for row in rows] == [True] * (len(mat) - 1) + [False]


def test_image_irreducible_wrong_char_exits_3(capsys):
    code, _, _ = run_cli(["image", "--r", "3", "--l", "1",
                          "--field", "cyclotomic",
                          "--g", "1 1 0 1", "--irreducible", "socle"], capsys)
    assert code == 3


def test_verify_ok(capsys):
    code, out, _ = run_cli(["verify", "--r", "3", "--l", "1"], capsys)
    assert code == 0
    assert "0 failed" in out


def test_verify_json_report(capsys):
    code, out, _ = run_cli(["verify", "--r", "3", "--l", "1", "--json"], capsys)
    assert code == 0
    entries = json.loads(out)
    assert all(e["status"] == "pass" for e in entries)


def test_verify_closure(capsys):
    code, out, _ = run_cli(["verify", "--r", "5", "--l", "1", "--closure"], capsys)
    assert code == 0
    assert "closure-order" in out


def test_verify_closure_cap_skips(capsys):
    code, out, _ = run_cli(["verify", "--r", "5", "--l", "1", "--closure",
                            "--cap", "50"], capsys)
    assert code == 0  # skipped, not failed
    assert "SKIP" in out


def _no_closure(mats, cap):
    raise AssertionError("closure_order entered")


def test_verify_closure_memory_limit_skips(capsys, monkeypatch):
    # |Sp(2,97)| = 912,576 passes the default cap, but its states would
    # take far more than cli.MAX_CLOSURE_BYTES: skipped before the search
    import spweil.cli

    monkeypatch.setattr(spweil.cli, "closure_order", _no_closure)
    code, out, _ = run_cli(["verify", "--r", "97", "--l", "1", "--closure"], capsys)
    assert code == 0
    line = next(x for x in out.splitlines() if "closure-order" in x)
    assert line.startswith("[SKIP] closure-order (r=97, l=1, GF(389)) -- closure of "
                           "912576 elements needs about ")
    assert line.endswith(f"bytes, above the limit of {2 ** 31}")
    assert out.endswith("1 skipped\n")


@pytest.mark.parametrize("budget", [100, 10 ** 6])
def test_verify_closure_memory_limit_is_the_estimate(capsys, monkeypatch, budget):
    # Sp(2,5) has 120 elements and a 5 x 5 generator over GF(11) takes some
    # hundreds of bytes: skipped under a 100-byte budget, counted under 10^6
    import spweil.cli

    monkeypatch.setattr(spweil.cli, "MAX_CLOSURE_BYTES", budget)
    if budget == 100:
        monkeypatch.setattr(spweil.cli, "closure_order", _no_closure)
    code, out, _ = run_cli(["verify", "--r", "5", "--l", "1", "--closure", "--json"], capsys)
    assert code == 0
    entry = next(e for e in json.loads(out) if e["id"] == "closure-order")
    if budget == 100:
        assert entry["status"] == "skip"
        need = int(entry["witness"].split("needs about ")[1].split()[0])
        assert need >= 120 * 5 * 5 * 8  # at least one pointer per entry
        assert entry["witness"] == (f"closure of 120 elements needs about {need} "
                                    "bytes, above the limit of 100")
    else:
        assert entry == {"id": "closure-order", "params": "r=5, l=1, GF(11)",
                         "status": "pass", "witness": None}


def test_matrix_bytes_counts_rows_and_each_distinct_entry():
    from spweil.cli import _matrix_bytes
    from spweil.fields import CyclotomicContext
    from spweil.linalg import DenseMatrix

    ctx = CyclotomicContext(3)
    a, b = ((10 ** 30, 7), 3), ((5, 6), 1)
    mat = DenseMatrix(ctx, [(a, b), (b, a)])   # a and b each appear twice
    size = sys.getsizeof
    parts = [mat.rows, *mat.rows, a, a[0], 10 ** 30, 7, 3, b, b[0], 5, 6, 1]
    assert _matrix_bytes(mat) == sum(map(size, parts))


def test_matrix_bytes_counts_a_bytes_row_as_its_tuple():
    # a GF(7) row is bytes, but it is counted as the tuple of its entries,
    # so the estimate does not depend on the row form
    from spweil.cli import _matrix_bytes
    from spweil.fields import PrimeFieldContext
    from spweil.linalg import DenseMatrix

    ctx = PrimeFieldContext(3, 7)
    row = bytes([3, 0, 5])
    mat = DenseMatrix(ctx, [row, row, bytes([0, 0, 1])])
    assert all(type(x) is bytes for x in mat.rows) and mat.rows[0] is mat.rows[1]
    size = sys.getsizeof
    parts = [mat.rows, tuple(row), (0, 0, 1), 3, 0, 5, 1]
    assert _matrix_bytes(mat) == sum(map(size, parts))


def test_verify_closure_over_gf107_skips_on_the_tuple_estimate(capsys, monkeypatch):
    # |Sp(2,53)| = 148,824 elements of 53 x 53 matrices over GF(107): each
    # bytes row is counted as its tuple, 3,949,788,960 bytes, past the
    # limit, so the request skips before any search; counting the bytes
    # rows themselves would put it under the limit and start a search of
    # more than the 2 GiB it would estimate
    import spweil.cli

    monkeypatch.setattr(spweil.cli, "closure_order", _no_closure)
    code, out, _ = run_cli(["verify", "--r", "53", "--l", "1", "--field", "auto-prime",
                            "--closure", "--json"], capsys)
    assert code == 0
    entry = next(e for e in json.loads(out) if e["id"] == "closure-order")
    assert entry == {"id": "closure-order", "params": "r=53, l=1, GF(107)", "status": "skip",
                     "witness": "closure of 148824 elements needs about 3949788960 bytes, "
                                "above the limit of 2147483648"}


def test_verify_closure_over_gf173_is_counted_under_the_limit(capsys, monkeypatch):
    # |Sp(2,43)| = 79,464 elements of 43 x 43 matrices over GF(173) stay
    # under the limit on the same estimate, so the search is started; a
    # stand-in returns the order, the estimate alone decides
    import spweil.cli
    from spweil.cli import _matrix_bytes
    from spweil.fields import FieldSpec, make_field
    from spweil.generators import weil_generators
    from spweil.operators import WeilParams

    gens = weil_generators(WeilParams(43, 1, make_field(FieldSpec("auto-prime", 43))))
    need = 79464 * max(_matrix_bytes(op.materialize()) for *_, op in gens.sp_generating_ops())
    assert 2 ** 30 < need < spweil.cli.MAX_CLOSURE_BYTES
    calls = []
    monkeypatch.setattr(spweil.cli, "closure_order",
                        lambda mats, cap: calls.append(len(mats)) or 79464)
    code, out, _ = run_cli(["verify", "--r", "43", "--l", "1", "--field", "auto-prime",
                            "--closure"], capsys)
    assert code == 0 and len(calls) == 1
    assert "[PASS] closure-order (r=43, l=1, GF(173))" in out


@pytest.mark.parametrize("field", ["auto-prime", "cyclotomic"])
def test_verify_closure_sp43_is_under_the_memory_limit(capsys, monkeypatch, field):
    # the Sp(4,3) closure is still started over GF(7) and Q(theta_3); the
    # count itself is acceptance 2's, so a stand-in returns the order here
    import spweil.cli

    calls = []
    monkeypatch.setattr(spweil.cli, "closure_order",
                        lambda mats, cap: calls.append(len(mats)) or 51840)
    code, out, _ = run_cli(["verify", "--r", "3", "--l", "2", "--closure",
                            "--field", field], capsys)
    assert code == 0 and len(calls) == 1
    assert "[PASS] closure-order (r=3, l=2, " in out


def test_verify_char2_field(capsys):
    code, out, _ = run_cli(["verify", "--r", "3", "--l", "1",
                            "--field", "gf:4"], capsys)
    assert code == 0
    assert "0 failed" in out


def test_verify_deterministic_output(capsys):
    code1, out1, _ = run_cli(["verify", "--r", "3", "--l", "1", "--seed", "5"], capsys)
    code2, out2, _ = run_cli(["verify", "--r", "3", "--l", "1", "--seed", "5"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_verify_rejects_nonpositive_cap(capsys, monkeypatch, cap):
    import spweil.cli

    def no_generators(params):
        raise AssertionError("generators built before the cap was checked")

    monkeypatch.setattr(spweil.cli, "weil_generators", no_generators)
    code, out, err = run_cli(["verify", "--r", "3", "--l", "1", "--closure",
                              "--cap", cap], capsys)
    assert code == 2
    assert out == "" and "--cap" in err


@pytest.mark.parametrize("r,ell", [("99999999977", "1"), ("3", "1000000")])
def test_oversized_dimension_exits_2_before_field_setup(capsys, monkeypatch, r, ell):
    # r^l above cli.MAX_DIM is refused before the primality test, the
    # auto-prime search or any r^l is formed
    import spweil.cli

    def poisoned(*args):
        raise AssertionError("field set-up reached for an oversized dimension")

    monkeypatch.setattr(spweil.cli, "is_prime", poisoned)
    monkeypatch.setattr(spweil.cli, "make_field", poisoned)
    for command in ("gens", "image", "verify"):
        extra = ["--g", "1 0 0 1"] if command == "image" else []
        code, out, err = run_cli([command, "--r", r, "--l", ell] + extra, capsys)
        assert code == 2
        assert out == "" and err.startswith("error: ")
        assert f"exceeds the limit {spweil.cli.MAX_DIM}" in err


@pytest.mark.parametrize("r,ell", [("99999999977", "1"), ("3", "1000000")])
def test_oversized_dimension_exits_2_without_traceback(r, ell):
    # a fresh interpreter, so an uncaught exception would show as a traceback
    src = Path(spweil.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "spweil", "gens", "--r", r, "--l", ell],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stdout == ""


@pytest.mark.parametrize("r,field", [("3", "gf:2^80"), ("5", "gf:3^2000")])
def test_oversized_field_exits_2_without_traceback(r, field):
    # q = p^k above fields.MAX_FIELD_ORDER is refused before the irreducible
    # polynomial search, in a fresh interpreter so a traceback would show
    src = Path(spweil.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "spweil", "gens", "--r", r, "--l", "1",
                           "--field", field],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and "exceeds the limit" in proc.stderr
    assert proc.stdout == ""


def test_dimension_limit_admits_acceptance_sizes():
    import spweil.cli

    assert 5 ** 4 <= spweil.cli.MAX_DIM  # acceptance 8 runs at (r, l) = (5, 4)


# Arguments that fail fast, or that are valid and small, for argv fuzzing:
# the one run that gets past every check works at n = 3 or 5.
BAD_R = ["-5", "0", "1", "2", "4", "9", "x", "3.5", "", "2003", "99999999977"]
BAD_L = ["-1", "0", "8", "1000000", "10" * 12, "a", ""]
BAD_FIELD = ["", "gf:", "gf:4", "gf:7^0", "gf:7^-2", "gf:2^80", "gf:-3", "gf:1", "gf:x",
             "gf:7^", "gf:^2", "gf:1099511627791", "gf:3^2000", "gf:49^2", "cyclo", "gf2"]
BAD_G = ["", "1 2", "1 0 0", "a b c d", "1 1 1 1", "0 0 0 0", "1 0 0 1 0", ".", "-x"]
BAD_CAP = ["0", "-3", "x", "1"]


def _argv_strategy():
    def pick(bad, good):
        return st.one_of(st.sampled_from(bad), st.sampled_from(good))

    flags = st.fixed_dictionaries({
        "--r": pick(BAD_R, ["3", "5"]),
        "--l": pick(BAD_L, ["1"]),
        "--field": pick(BAD_FIELD, ["auto-prime", "cyclotomic", "gf2-auto", "gf:7"]),
    })
    extra = {"gens": st.just([]),
             "image": st.lists(st.sampled_from(
                 [["--g", g] for g in BAD_G] + [["--g", "1 1 0 1"], ["--irreducible", "socle"]]),
                 max_size=2),
             "verify": st.lists(st.sampled_from(
                 [["--cap", c] for c in BAD_CAP] + [["--closure"], ["--json"]]), max_size=2)}
    command = st.sampled_from(sorted(extra))
    drop = st.one_of(st.just(set()), st.sets(st.sampled_from(["--r", "--l", "--field"]),
                                             min_size=1, max_size=1))

    @st.composite
    def argv(draw):
        cmd = draw(command)
        chosen = draw(flags)
        out = [cmd]
        for name in sorted(set(chosen) - draw(drop)):
            out += [name, chosen[name]]
        for part in draw(extra[cmd]):
            out += part
        return out
    return argv()


@given(argv=_argv_strategy())
@settings(max_examples=150, deadline=None)
def test_argv_fuzz_exits_with_documented_codes(argv):
    # every argv ends in exit 0, 2, 3 or 4 with no traceback: an exception
    # escaping main fails this test, as it would print one from the CLI
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse's usage errors
            code = exc.code
    assert code in (0, 2, 3, 4), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert "error:" in err.getvalue()


@pytest.mark.parametrize("args", [["--r", "4"], ["--r", "2"], ["--l", "0"],
                                  ["--r", "3", "--l", "9"], ["--field", "gf:4"]])
def test_demo_script_rejects_bad_parameters(args):
    # the demo checks its parameters as the CLI does; r^l = 3^9 is refused
    # before any work, in a fresh interpreter so a traceback would show
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(Path(spweil.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, str(root / "scripts" / "weil_image_demo.py"), *args],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stdout == ""


def test_demo_script_roundtrip():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(Path(spweil.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, str(root / "scripts" / "weil_image_demo.py"),
                           "--r", "3", "--l", "1"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.rstrip().endswith("word-route check: ok\nprojection roundtrip: ok")
