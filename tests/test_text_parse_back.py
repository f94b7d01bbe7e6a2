"""Read the emitted Magma and GAP matrices back and compare them with the
JSON document of the same command: every header against its rows, every
entry against the document's entry."""

import json
import re
from fractions import Fraction

import pytest

from spweil.cli import main

MAGMA_BLOCK = re.compile(r"^(\w+) := Matrix\(K, (\d+), (\d+), \[\n(.*?)\n\]\);$", re.M | re.S)
GAP_BLOCK = re.compile(r"^(\w+) := \[\n(.*?)\n\];;$", re.M | re.S)
MAGMA_ROW = re.compile(r"  (.*?)(,?)")
GAP_ROW = re.compile(r"  \[ (.*?) \](,?)")
LAMBDA = re.compile(r"^lambda_? := (.*?);;?$", re.M)
# an optional sign and coefficient, then a power of theta, E(r), x or a, or
# a unit: One(K) or Z(p)^0
TERM = re.compile(r"(-?)(\d+(?:/\d+)?)?\*?(theta|E\(\d+\)|x|a|One\(K\)|Z\(\d+\))?(?:\^(\d+))?")


def read_matrices(text, fmt):
    """{name: (header shape or None, rows of entry texts)} in text order.
    Raises ValueError on a row line out of the emitters' layout: two
    spaces, for GAP a bracketed row, and a comma after every row but the
    last."""
    if fmt == "magma":
        blocks = [(m[1], (int(m[2]), int(m[3])), m[4]) for m in MAGMA_BLOCK.finditer(text)]
        row_line = MAGMA_ROW
    else:
        blocks = [(m[1], None, m[2]) for m in GAP_BLOCK.finditer(text)]
        row_line = GAP_ROW
    out = {}
    for name, shape, body in blocks:
        lines = body.split("\n")
        rows = []
        for i, line in enumerate(lines):
            m = row_line.fullmatch(line)
            if m is None or bool(m[2]) != (i < len(lines) - 1):
                raise ValueError(f"{name}: row line {i} is {line!r}")
            rows.append(m[1].split(", "))
        out[name] = (shape, rows)
    return out


def read_entry(text):
    """An emitted entry as {exponent: nonzero coefficient}."""
    if text == "Zero(K)":
        return {}
    coeffs = {}
    for term in text.replace(" - ", " + -").split(" + "):
        m = TERM.fullmatch(term)
        if m is None or not (m[2] or m[3]):
            raise ValueError(f"term {term!r} of {text!r}")
        sign, coeff, symbol, power = m.groups()
        e = int(power) if power else 0 if symbol in (None, "One(K)") else 1
        coeffs[e] = coeffs.get(e, 0) + Fraction(coeff or 1) * (-1 if sign else 1)
    return {e: c for e, c in coeffs.items() if c}


def json_entry(entry):
    """A document entry (one string, or one string per coefficient) as
    {exponent: nonzero coefficient}."""
    values = [entry] if isinstance(entry, str) else entry
    return {e: Fraction(v) for e, v in enumerate(values) if Fraction(v)}


def test_reader_spells_out_each_form():
    assert read_entry("-1/3 - 2/3*theta") == {0: Fraction(-1, 3), 1: Fraction(-2, 3)}
    assert read_entry("-1 - E(3)") == {0: -1, 1: -1}
    assert read_entry("3*Z(7)^0") == {0: 3} and read_entry("0*Z(7)^0") == {}
    assert read_entry("One(K) + a^2") == {0: 1, 2: 1} and read_entry("Zero(K)") == {}
    assert read_entry("5 + 12*x") == {0: 5, 1: 12} and read_entry("-theta^3") == {3: -1}
    assert json_entry(["-1/3", "0/1"]) == {0: Fraction(-1, 3)} and json_entry("0") == {}
    with pytest.raises(ValueError):
        read_entry("theta theta")
    text = "M := Matrix(K, 2, 2, [\n  1, 0,\n  0, 1,\n]);\n"
    with pytest.raises(ValueError):
        read_matrices(text, "magma")     # a comma after the last row
    assert read_matrices(text.replace("1,\n]", "1\n]"), "magma") == {
        "M": ((2, 2), [["1", "0"], ["0", "1"]])}


IMAGE = ["image", "--l", "1", "--g", "1 1 0 1"]
CASES = [
    ["gens", "--r", "3", "--l", "1", "--field", "cyclotomic"],
    ["gens", "--r", "3", "--l", "1", "--field", "auto-prime"],
    ["gens", "--r", "3", "--l", "1", "--field", "gf2-auto"],
    ["gens", "--r", "5", "--l", "1", "--field", "cyclotomic", "--full"],
    ["gens", "--r", "3", "--l", "2", "--field", "auto-prime", "--full"],
    ["gens", "--r", "3", "--l", "2", "--field", "gf2-auto", "--full"],
    ["gens", "--r", "3", "--l", "1", "--field", "gf:13^2", "--full"],
    IMAGE + ["--r", "3", "--field", "cyclotomic"],
    IMAGE + ["--r", "5", "--field", "auto-prime"],
    IMAGE + ["--r", "5", "--field", "gf2-auto"],
] + [IMAGE + ["--r", r, "--field", field, "--irreducible", mode]
     for r in ("3", "5")
     for field, mode in (("cyclotomic", "plus"), ("cyclotomic", "minus"),
                         ("auto-prime", "plus"), ("auto-prime", "minus"),
                         ("gf2-auto", "socle"), ("gf2-auto", "quotient"))]


def _run(argv, capsys):
    assert main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("fmt", ["magma", "gap"])
@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_emitted_text_reads_back_as_the_json_document(argv, fmt, capsys):
    doc = json.loads(_run(argv, capsys))
    text = _run(argv + ["--format", fmt], capsys)
    blocks = read_matrices(text, fmt)
    assert list(blocks) == list(doc["matrices"])
    for name, (shape, rows) in blocks.items():
        want = doc["matrices"][name]
        if shape is not None:
            assert shape == (len(rows), len(rows[0]))
        assert [[read_entry(e) for e in row] for row in rows] == \
            [[json_entry(e) for e in row] for row in want]
    (lam,) = LAMBDA.findall(text)
    assert read_entry(lam) == json_entry(doc["lambda"])
