"""serialize.dumps_document writes json.dumps(doc, indent=2) + "\\n" itself;
these tests keep the standard library's writer as the reference."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spweil import cli, serialize
from spweil.linalg import DenseMatrix


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
