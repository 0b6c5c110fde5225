"""Serialization round-trips and document validation."""

import io
import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetcat import check_nat_trans, hom_bifunctor, identity_functor, identity_nat_trans
from hetcat.documents import (DocumentError, bifunctor_from_payload,
                              bifunctor_to_payload, bundle_from_payload,
                              bundle_to_payload, category_from_payload,
                              category_to_payload, dumps_document,
                              functor_from_payload, functor_to_payload,
                              loads_document, make_document,
                              nat_trans_from_payload, nat_trans_to_payload,
                              parse_document)
from hetcat.instances import colimits_adjunction, finset_skeleton, product_exponential


def test_category_roundtrip(chain2, skeleton2, powerset2):
    for cat in (chain2, skeleton2, powerset2):
        assert category_from_payload(category_to_payload(cat)) == cat


def test_functor_roundtrip(skeleton2):
    fun = identity_functor(skeleton2)
    assert functor_from_payload(functor_to_payload(fun)) == fun


def test_nat_trans_roundtrip(skeleton2):
    nt = identity_nat_trans(identity_functor(skeleton2))
    back = nat_trans_from_payload(nat_trans_to_payload(nt))
    assert back == nt
    assert check_nat_trans(back).ok


def test_bifunctor_roundtrip(galois):
    payload = bifunctor_to_payload(galois.lower_het)
    back = bifunctor_from_payload(payload)
    assert back.cells == galois.lower_het.cells
    assert back.act_left == galois.lower_het.act_left
    assert back.act_right == galois.lower_het.act_right


def test_bundle_roundtrip(galois):
    payload = bundle_to_payload(galois.lower_het, galois.direct_image,
                                galois.preimage)
    het, expected = bundle_from_payload(payload)
    assert het.cells == galois.lower_het.cells
    assert expected["left_object_map"] == galois.direct_image
    assert expected["right_object_map"] == galois.preimage


def test_envelope_roundtrip(chain2):
    doc = make_document("category", category_to_payload(chain2), name="chain")
    text = dumps_document(doc)
    kind, value = parse_document(loads_document(text))
    assert kind == "category" and value == chain2


def test_dumps_is_deterministic(chain2):
    doc = make_document("category", category_to_payload(chain2))
    assert dumps_document(doc) == dumps_document(doc)


def test_malformed_documents_rejected():
    with pytest.raises(DocumentError):
        loads_document("not json at all")
    with pytest.raises(DocumentError):
        loads_document('{"format": "other/9", "kind": "category", "payload": {}}')
    with pytest.raises(DocumentError):
        loads_document('{"format": "hetcat/1", "kind": "nope", "payload": {}}')
    with pytest.raises(DocumentError):
        category_from_payload({"objects": "wrong shape"})
    with pytest.raises(DocumentError):
        make_document("nonsense", {})


def test_hom_bifunctor_document_roundtrip(chain2):
    het = hom_bifunctor(chain2)
    doc = make_document("bifunctor", bifunctor_to_payload(het))
    kind, back = parse_document(loads_document(dumps_document(doc)))
    assert kind == "bifunctor"
    assert back.cells == het.cells


def _reference_dumps(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def _streamed(value) -> str:
    """What `dumps_document` writes into a text file."""
    f = io.StringIO()
    assert dumps_document(value, f) is None
    return f.getvalue()


# quotes, backslashes, control characters, non-ASCII and astral text
_TEXT = st.text(st.sampled_from('ab"\\/\n\t\x00\x1f\x7fé€\U0001d11e'), max_size=4)
_SCALARS = st.one_of(_TEXT, st.integers(), st.booleans(), st.none())
_STRING_ROWS = st.lists(st.lists(_TEXT, max_size=3), max_size=3)   # empty rows too
_JSON = st.recursive(
    st.one_of(_SCALARS, _STRING_ROWS, st.dictionaries(_TEXT, _TEXT, max_size=3)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=20)


@settings(deadline=None, derandomize=True, max_examples=200)
@given(_JSON)
def test_dumps_document_matches_json_dumps(value):
    assert dumps_document(value) == _reference_dumps(value)


@settings(deadline=None, derandomize=True, max_examples=200)
@given(_JSON)
def test_streamed_document_matches_json_dumps(value):
    assert _streamed(value) == _reference_dumps(value)


def _bundle_documents():
    colimits = colimits_adjunction("discrete-2", 1)
    prodexp = product_exponential(1, 2)
    payloads = [bundle_to_payload(colimits.het, colimits.colim.obj_map),
                bundle_to_payload(prodexp.coreflective_het,
                                  prodexp.product_functor.obj_map),
                bundle_to_payload(prodexp.reflective_het)]
    return [make_document("adjunction-bundle", payload, name="bundle")
            for payload in payloads]


def test_dumps_document_matches_json_dumps_on_bundles():
    for doc in _bundle_documents():
        assert dumps_document(doc) == _reference_dumps(doc)


def test_streamed_document_matches_json_dumps_on_bundles():
    for doc in _bundle_documents():
        assert _streamed(doc) == _reference_dumps(doc)


# a composition table is written one run of rows with the same first string
# at a time; these tables cut it into runs of every length
@pytest.mark.parametrize("table", [
    [["g", "f", "h"], ["f", "g", "h"], ["g", "g", "g"], ["f", "f", "f"]],
    [["f", "a", "b"], ["f", "c", "d"], ["f", "e", "g"]],
    [["f", "g", "h"]],
    [("f", "g", "h"), ("f", "h", "h"), ("g", "g", "g")],
    [["f"], ["f", "g"], ["g"], ["f", "g", "h", "\u00e9\n"]],
], ids=["unsorted-runs-of-one", "one-run", "one-row", "tuple-rows", "ragged-rows"])
def test_composition_tables_are_written_byte_for_byte(table):
    doc = {"payload": {"composition": table, "name": "c"}}
    assert dumps_document(doc) == _streamed(doc) == _reference_dumps(doc)


class _CountingSink:
    """A text file that keeps only how many characters it was given."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)

    def writelines(self, pieces):
        for piece in pieces:
            self.write(piece)


def test_streamed_document_is_never_held_whole():
    """The FinSet<=3 document is 135,942 characters; written to a file, no
    more than a small part of it is ever held (joining it whole peaks at
    about twice its length)."""
    doc = make_document("category", category_to_payload(finset_skeleton(3)))
    sink = _CountingSink()
    tracemalloc.start()
    try:
        dumps_document(doc, sink)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.chars == len(dumps_document(doc)) == 135_942
    assert peak < sink.chars / 4


@pytest.mark.parametrize("value", [1.5, [0.0], {"a": [1, 2.5]}, {1: "a"}, {"a": {2: []}},
                                   {("a",): "b"}, object()])
def test_dumps_document_rejects_what_hetcat_never_writes(value):
    with pytest.raises(TypeError):
        dumps_document(value)
