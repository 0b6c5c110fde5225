"""Serialization round-trips and document validation."""

import io
import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetcat import (FinCategory, HetBifunctor, Morphism, check_nat_trans, functor_category,
                    hom_bifunctor, identity_functor, identity_nat_trans)
from hetcat.documents import (DocumentError, bifunctor_from_payload,
                              bifunctor_to_payload, bundle_from_payload,
                              bundle_to_payload, bundle_view, category_from_payload,
                              category_to_payload, dumps_document,
                              functor_from_payload, functor_to_payload,
                              loads_document, make_document,
                              nat_trans_from_payload, nat_trans_to_payload,
                              parse_document)
from hetcat.instances import (colimits_adjunction, finset_skeleton, galois_connections,
                              limits_adjunction, pointed_free_forgetful,
                              preorder_adjunction_chain, product_exponential)


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
_STRING_DICTS = st.dictionaries(_TEXT, _TEXT, max_size=3)
_LEAVES = st.one_of(_TEXT, st.lists(_TEXT, max_size=3), _STRING_DICTS)


def _records(values):
    """Non-empty lists of objects that share one key set (none, too), each
    value drawn from `values`: the lists that are written a list at a time."""
    return st.lists(_TEXT, max_size=3, unique=True).flatmap(lambda keys: st.lists(
        st.fixed_dictionaries(dict.fromkeys(keys, values)), min_size=1, max_size=4))


_JSON = st.recursive(
    st.one_of(_SCALARS, _STRING_ROWS, _STRING_DICTS, _records(_TEXT), _records(_LEAVES)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(_TEXT, inner, max_size=4),
                            _records(st.one_of(_LEAVES, _SCALARS, inner))),
    max_leaves=20)


@settings(deadline=None, derandomize=True, max_examples=200)
@given(_JSON)
def test_dumps_document_matches_json_dumps(value):
    assert dumps_document(value) == _reference_dumps(value)


@settings(deadline=None, derandomize=True, max_examples=200)
@given(_JSON)
def test_streamed_document_matches_json_dumps(value):
    assert _streamed(value) == _reference_dumps(value)


# the records of one key set that the writer joins a list at a time: its
# string-only and per-record paths, a value that ends the string-only join or
# sends one record (or one item) to the general path, and key sets that a
# cache could confuse
@pytest.mark.parametrize("value", [
    [{"id": "f", "dom": "x", "cod": "y"}],
    [{"elements": ["c0", "c1"], "x": "0"}],
    [{"mapping": {"c1": "c0"}, "morphism": "f"}],
    [{}, {}],
    {"a": [{}], "b": {}},
    [{"a": "x"}, {"a": 1}, {"a": "z"}],
    [{"a": "x", "b": ["y"]}, {"a": None, "b": ["y"]}, {"a": "z", "b": []}],
    [{"a": {"k": "v"}}, {"a": True}, {"a": {}}],
    [{"a": "x", "b": ["y"]}, {"a": "x", "b": [["y"]]}, {"a": "z", "b": {"k": {}}}],
    ["a", None, "b", True, 3],
    {"p": [{"a": "1", "b": "2"}], "q": [{"a": "1", "c": "2"}]},
    {"p": {"a": "1", "b": "2"}, "q": {"a": "1", "c": "2"}},
    [{"a": "1", "b": "2"}, {"a": "1", "c": "2"}],
    {"p": [{"a": "1", "b": "2"}], "q": {"r": [{"b": "3", "a": "4"}], "s": {"a": "5", "b": "6"}}},
], ids=["one-string-record", "one-record-with-a-list", "one-record-with-a-dict",
        "empty-records", "empty-record-and-dict", "int-partway", "none-partway",
        "true-partway", "nested-partway", "scalars-among-strings", "shared-first-key-lists",
        "shared-first-key-dicts", "two-key-sets-in-one-list", "one-key-set-at-two-indents"])
def test_record_lists_are_written_byte_for_byte(value):
    assert dumps_document(value) == _streamed(value) == _reference_dumps(value)


def _bundle_documents():
    """The payload forms the workloads under bench/ write in their set-up, and
    three demo bundles."""
    gi = galois_connections({"0": "a", "1": "a", "2": "b"}, ("0", "1", "2"), ("a", "b"))
    limits = limits_adjunction("parallel-pair", 1)
    colimits = colimits_adjunction("discrete-2", 1)
    prodexp = product_exponential(1, 2)
    bundles = [(gi.lower_het, gi.direct_image, gi.preimage),
               (gi.upper_het, gi.preimage, gi.f_star),
               (limits.het, dict(limits.delta.obj_map), dict(limits.lim.obj_map)),
               (colimits.het, colimits.colim.obj_map, None),
               (prodexp.coreflective_het, prodexp.product_functor.obj_map, None),
               (prodexp.reflective_het, None, None)]
    diagrams = functor_category(limits.shape, limits.skeleton)
    return [make_document("adjunction-bundle", bundle_to_payload(*bundle), name="bundle")
            for bundle in bundles] + [
        make_document("category", category_to_payload(diagrams), name="diagrams")]


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


def _arrow_het(comp):
    """A het over X = {0 -f-> 1}, with composition table `comp`, and A terminal."""
    x_cat = FinCategory(
        "arrow", ("0", "1"),
        (Morphism("i0", "0", "0"), Morphism("i1", "1", "1"), Morphism("f", "0", "1")),
        {"0": "i0", "1": "i1"}, comp)
    a_cat = FinCategory("1", ("t",), (Morphism("id_t", "t", "t"),),
                        {"t": "id_t"}, {("id_t", "id_t"): "id_t"})
    return HetBifunctor("arrow-het", x_cat, a_cat,
                        {("0", "t"): ("c0",), ("1", "t"): ("c1",)},
                        {"i0": {"c0": "c0"}, "i1": {"c1": "c1"}, "f": {"c1": "c0"}},
                        {"id_t": {"c0": "c0", "c1": "c1"}})


_ARROW = {("i0", "i0"): "i0", ("i1", "i1"): "i1", ("i0", "f"): "f", ("f", "i1"): "f"}
_MISSING = {pair: h for pair, h in _ARROW.items() if pair != ("i0", "f")}


def _galois_bundle():
    gi = galois_connections({"0": "a", "1": "a", "2": "b"}, ("0", "1", "2"), ("a", "b"))
    return gi.lower_het, gi.direct_image, gi.preimage


def _diagram_bundle(inst):
    left, right = (inst.colim, inst.delta) if hasattr(inst, "colim") else (inst.delta, inst.lim)
    return inst.het, left.obj_map, right.obj_map if right else None


def _prodexp_bundle(reflective):
    inst = product_exponential(1, 2)
    if reflective:
        return inst.reflective_het, None, inst.inclusion_functor.obj_map
    return inst.coreflective_het, inst.product_functor.obj_map, inst.exponential_partial


def _pointed_bundle():
    inst = pointed_free_forgetful(1)
    return inst.het, inst.free.obj_map, None


def _preorder_bundle():
    inst = preorder_adjunction_chain(2)
    return inst.lower_het, inst.discrete.obj_map, inst.forgetful.obj_map


# the hets `demo` exports, and X categories whose composition table is not
# exactly their composable pairs, which the writer sorts instead of walking
@pytest.mark.parametrize("bundle", [
    _galois_bundle,
    _pointed_bundle,
    _preorder_bundle,
    lambda: _diagram_bundle(colimits_adjunction("discrete-2", 1)),
    lambda: _prodexp_bundle(False),
    lambda: _prodexp_bundle(True),
    lambda: _diagram_bundle(limits_adjunction("span", 1)),
    lambda: (_arrow_het(_ARROW), None, None),
    lambda: (_arrow_het(_MISSING), None, None),
    lambda: (_arrow_het({**_ARROW, ("f", "i0"): "f"}), None, None),
    lambda: (_arrow_het({**_MISSING, ("f", "i0"): "f"}), None, None),
], ids=["galois", "pointed-1", "preorder-2", "colimits-discrete-2-1", "prodexp-coreflective",
        "prodexp-reflective", "limits-span-1", "arrow", "arrow-missing-composite",
        "arrow-non-composable-entry", "arrow-missing-and-non-composable"])
def test_streamed_export_matches_the_payload_document(bundle):
    het, left, right = bundle()
    expected = _reference_dumps(make_document(
        "adjunction-bundle", bundle_to_payload(het, left, right), name="demo-x"))
    doc = make_document("adjunction-bundle", bundle_view(het, left, right), name="demo-x")
    assert _streamed(doc) == dumps_document(doc) == expected


def test_export_views_hold_no_copy_and_payloads_are_fresh():
    het = _arrow_het(_ARROW)
    view = bundle_view(het, {"0": "t"})["bifunctor"]
    assert view["x_category"]["composition"] is het.x_cat
    assert view["act_left"][0]["mapping"] is het.act_left["f"]
    payload = bundle_to_payload(het, {"0": "t"})
    assert payload["bifunctor"]["x_category"]["composition"] == \
        [["f", "i1", "f"], ["i0", "f", "f"], ["i0", "i0", "i0"], ["i1", "i1", "i1"]]
    payload["bifunctor"]["act_left"][0]["mapping"]["c1"] = "c1"
    payload["expected"]["left_object_map"]["0"] = "x"
    assert het.act_left["f"] == {"c1": "c0"} and bundle_to_payload(het, {"0": "t"}) != payload


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


def test_export_from_the_live_het_is_never_held_whole():
    """From the het's own tables to the file: the export of the pointed n=3
    het (1,909,114 characters) copies no table, so it never holds more than
    a small part of its text (about 0.12 of it; with the payload copy, 0.77)."""
    het = pointed_free_forgetful(3).het
    sink = _CountingSink()
    tracemalloc.start()
    try:
        dumps_document(make_document("adjunction-bundle", bundle_view(het)), sink)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.chars == 1_909_114
    assert peak < sink.chars / 4


@pytest.mark.parametrize("value", [1.5, [0.0], {"a": [1, 2.5]}, {1: "a"}, {"a": {2: []}},
                                   {("a",): "b"}, object()])
def test_dumps_document_rejects_what_hetcat_never_writes(value):
    with pytest.raises(TypeError):
        dumps_document(value)
