"""serialize.dumps_document writes json.dumps(doc, indent=2) + "\\n" itself;
these tests keep the standard library's writer as the reference.  The last
ones check generator_matrices' row pool and the writers' per-row memos
against each operator's own matrix and against unshared rows."""

import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spweil import cli, serialize
from spweil.fields import FieldSpec, make_field
from spweil.generators import weil_generators
from spweil.linalg import DenseMatrix
from spweil.operators import WeilParams
from spweil.symplectic import GenToken


def reference_dumps(doc):
    return json.dumps(doc, indent=2) + "\n"


def _cli_document(argv, monkeypatch, capsys):
    """The document the CLI writes for argv, and the text it wrote."""
    seen = []

    def capture(doc):
        seen.append(doc)
        return serialize.dumps_document(doc)

    monkeypatch.setattr(cli, "dumps_document", capture)
    assert cli.main(argv) == 0
    (doc,) = seen
    return doc, capsys.readouterr().out


IMAGE = ["image", "--r", "5", "--l", "1", "--g", "1 1 0 1"]


@pytest.mark.parametrize("argv", [
    ["gens", "--r", "3", "--l", "2", "--field", "cyclotomic", "--full"],
    ["gens", "--r", "5", "--l", "2", "--field", "auto-prime", "--full"],
    ["gens", "--r", "3", "--l", "2", "--field", "gf2-auto", "--full"],
    ["gens", "--r", "3", "--l", "1", "--field", "gf:13^2", "--full"],
    IMAGE + ["--field", "cyclotomic"],
    IMAGE + ["--field", "auto-prime"],
    IMAGE + ["--field", "gf2-auto"],
    IMAGE + ["--field", "cyclotomic", "--irreducible", "plus"],
    IMAGE + ["--field", "auto-prime", "--irreducible", "minus"],
    IMAGE + ["--field", "gf2-auto", "--irreducible", "socle"],
    IMAGE + ["--field", "gf2-auto", "--irreducible", "quotient"],
    ["verify", "--r", "3", "--l", "1", "--json"],
    ["verify", "--r", "3", "--l", "1", "--field", "gf2-auto", "--closure", "--json"],
], ids=" ".join)
def test_cli_documents_match_the_reference_writer(argv, monkeypatch, capsys):
    doc, out = _cli_document(argv, monkeypatch, capsys)
    assert out == reference_dumps(doc)
    if argv[0] == "image":
        assert doc["word"] and doc["input"]


def test_serialize_shares_one_form_per_distinct_entry(cyc3):
    mat = DenseMatrix(cyc3, [[cyc3.one, cyc3.theta], [cyc3.theta, cyc3.one]])
    rows = mat.serialize()
    assert rows == [[cyc3.serialize_elem(a) for a in row] for row in mat.rows]
    assert rows[0][0] is rows[1][1] and rows[0][1] is rows[1][0]


def test_writer_encodes_a_shared_entry_by_its_indent():
    # the same objects at several depths, and one list twice in one row
    entry = ["1/1", "0/1"]
    row = [entry, entry, []]
    doc = {"a": [row, row], "b": entry, "c": [[row]], "d": ()}
    assert serialize.dumps_document(doc) == reference_dumps(doc)


TEXT = st.text(st.characters() | st.sampled_from('"\\/\x00\x1f\x7f\n\t é\U0001f600'))
SCALARS = TEXT | st.integers() | st.booleans() | st.none() | st.floats()


def _containers(children):
    lists = st.lists(children, max_size=4)
    shared = lists.flatmap(lambda pool: st.lists(st.sampled_from(pool), max_size=5)
                           if pool else st.just([]))
    return lists | lists.map(tuple) | shared | st.dictionaries(TEXT, children, max_size=4)


DOCUMENTS = st.recursive(SCALARS, _containers, max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(DOCUMENTS)
def test_writer_matches_the_reference_on_nested_values(doc):
    assert serialize.dumps_document(doc) == reference_dumps(doc)


FAMILIES = ["cyclotomic", "auto-prime", "auto-char2"]


def _generator_set(kind, r, ell):
    return weil_generators(WeilParams(r, ell, make_field(FieldSpec(kind, r))))


def _named_operators(gens, full):
    """The operator behind each name of generator_matrices(gens, full)."""
    ops = {GenToken(kind, t, s).name: op for kind, t, s, op in gens.sp_generating_ops()}
    if full:
        for name, group in (("rawC", gens.rawC), ("A", gens.A), ("B", gens.B), ("E", gens.E)):
            ops.update((f"{name}{t}", op) for t, op in enumerate(group, 1))
        ops["sigma"] = gens.sigma
    return ops


@pytest.mark.parametrize("full", [False, True])
@pytest.mark.parametrize("ell", [1, 2, 3])
@pytest.mark.parametrize("kind", FAMILIES)
def test_pooled_matrices_are_each_operators_own(kind, ell, full):
    gens = _generator_set(kind, 3, ell)
    mats = serialize.generator_matrices(gens, full)
    ops = _named_operators(gens, full)
    assert list(mats) == list(ops)
    for name, op in ops.items():
        assert mats[name] == op.materialize(), name


def _rows(mats):
    return [row for mat in mats.values() for row in mat.rows]


@pytest.mark.parametrize("kind,r,ell", [(kind, 3, 2) for kind in FAMILIES]
                         + [("auto-prime", 5, 2), ("cyclotomic", 3, 3)], ids=str)
def test_equal_rows_of_a_generator_set_are_one_object(kind, r, ell):
    rows = _rows(serialize.generator_matrices(_generator_set(kind, r, ell), full=True))
    assert len({id(row) for row in rows}) == len(set(rows)) < len(rows)


def test_two_calls_share_no_row():
    gens = _generator_set("auto-prime", 3, 2)
    first = serialize.generator_matrices(gens, full=True)
    second = serialize.generator_matrices(gens, full=True)
    assert first == second
    assert not {id(row) for row in _rows(first)} & {id(row) for row in _rows(second)}


def _texts(gens, mats):
    """The JSON, Magma and GAP text of mats."""
    out = [serialize.dumps_document(serialize.build_document(gens, mats))]
    for emit in (serialize.emit_magma, serialize.emit_gap):
        text = io.StringIO()
        emit(gens, mats, text)
        out.append(text.getvalue())
    return out


@pytest.mark.parametrize("kind,r,ell", [(kind, 3, 2) for kind in FAMILIES]
                         + [("auto-char2", 5, 2), ("cyclotomic", 5, 1)], ids=str)
def test_shared_rows_write_the_text_of_unshared_rows(kind, r, ell):
    gens = _generator_set(kind, r, ell)
    pooled = serialize.generator_matrices(gens, full=True)
    unshared = {name: DenseMatrix(mat.ctx, [tuple(list(row)) for row in mat.rows])
                for name, mat in pooled.items()}
    assert len({id(row) for row in _rows(unshared)}) == len(_rows(unshared))
    assert _texts(gens, pooled) == _texts(gens, unshared)
