"""CLI contract: exit codes, export/recheck, JSON stability, factorize."""

import contextlib
import functools
import io
import itertools
import json
import operator
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hetcat.cli
from hetcat.adjunction import build_adjunction, representation_roundtrip
from hetcat.cli import main
from hetcat.documents import (bifunctor_to_payload, bundle_to_payload,
                              category_to_payload, dumps_document, functor_to_payload,
                              loads_document, make_document, nat_trans_to_payload)
from hetcat.fincat import FinCategory, Morphism, identity_functor, identity_nat_trans
from hetcat.instances import finset_skeleton
from hetcat.het import HetBifunctor, KernelInvariantError, build_het, hom_bifunctor


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


@pytest.fixture()
def category_doc(tmp_path, chain2):
    path = tmp_path / "chain.json"
    path.write_text(dumps_document(
        make_document("category", category_to_payload(chain2), name="chain")))
    return str(path)


@pytest.fixture()
def galois_bundle(tmp_path, capsys):
    path = tmp_path / "galois.json"
    code, _ = run(capsys, "demo", "galois", "--map", "0:a,1:a,2:b",
                  "--export", str(path))
    assert code == 0
    return str(path)


def test_check_valid_category(capsys, category_doc):
    code, out = run(capsys, "check", category_doc)
    assert code == 0
    assert "[pass] category laws" in out


def test_check_broken_category_exits_one(capsys, tmp_path, category_doc):
    doc = loads_document(open(category_doc).read())
    comp = doc["payload"]["composition"]
    entry = next(e for e in comp if e[0] == "i0" and e[1] == "le")
    entry[2] = "i0"                # composite with the wrong codomain
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out = run(capsys, "check", str(bad))
    assert code == 1
    assert "composition-shape" in out


def test_check_malformed_exits_two(capsys, tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{]")
    code, out = run(capsys, "check", str(path))
    assert code == 2


def test_check_missing_file_exits_two(capsys):
    code, _ = run(capsys, "check", "/no/such/file.json")
    assert code == 2


def test_check_non_utf8_file_exits_two(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{")
    code, out = run(capsys, "check", str(path))
    assert code == 2
    assert out.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode")


def test_check_document_without_meta_exits_two(capsys, tmp_path, category_doc):
    doc = loads_document(open(category_doc).read())
    del doc["meta"]
    path = tmp_path / "no-meta.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "check", str(path))
    assert code == 2
    assert "meta" in out


def test_check_short_composition_triple_exits_two(capsys, tmp_path, category_doc):
    doc = loads_document(open(category_doc).read())
    doc["payload"]["composition"][0] = doc["payload"]["composition"][0][:2]
    path = tmp_path / "short.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "check", str(path))
    assert code == 2
    assert "malformed category payload" in out


@pytest.mark.parametrize("morphisms, identity, composition", [
    # number ids, and (2, 2) missing, so a witness would hold numbers
    ([1, 2], {"x": 1}, [[1, 1, 1], [1, 2, 2], [2, 1, 2]]),
    # a string of three ids unpacks to the entry (i, i) -> i
    (["i"], {"x": "i"}, ["iii"]),
    # an unhashable composite fails the construction's lookups
    (["i"], {"x": "i"}, [["i", "i", ["i"]]]),
    (["i"], {"x": "i"}, [["i", "i", {"x": 1}]]),
])
def test_check_non_string_category_ids_exit_two(capsys, tmp_path, morphisms,
                                                identity, composition):
    payload = {"name": "odd", "objects": [{"id": "x", "label": "x"}],
               "morphisms": [{"id": m, "dom": "x", "cod": "x"} for m in morphisms],
               "identity": identity, "composition": composition}
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(make_document("category", payload)))
    for argv in (("check", str(path)), ("check", str(path), "--json")):
        code, out = run(capsys, *argv)
        assert code == 2
        assert "malformed category payload" in out


def _identity_functor_and_nattrans():
    """The identity functor of FinSet<=2 and its identity transformation, as
    payloads."""
    one = identity_functor(finset_skeleton(2))
    return functor_to_payload(one), nat_trans_to_payload(identity_nat_trans(one))


def _check_both(capsys, tmp_path, kind, payload):
    """`check` on the document, as (exit code, output) in text and in --json."""
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(make_document(kind, payload)))
    return run(capsys, "check", str(path)), run(capsys, "check", str(path), "--json")


def test_check_functor_and_nattrans_documents(capsys, tmp_path):
    functor, nattrans = _identity_functor_and_nattrans()
    for kind, payload, names in (
            ("functor", functor, ["source category", "target category", "functor laws"]),
            ("nattrans", nattrans, ["source category", "target category",
                                    "source functor", "target functor", "naturality"])):
        (code, _), (json_code, out) = _check_both(capsys, tmp_path, kind, payload)
        assert code == json_code == 0
        assert [(c["name"], c["ok"]) for c in json.loads(out)["checks"]] == \
            [(name, True) for name in names]
    # one function of the identity functor sent to another
    functor["morphism_map"]["1>2:0"] = "1>2:1"
    # components of 1_{FinSet<=2} that are not natural
    nattrans["components"] = {"0": "0>0:", "1": "1>1:0", "2": "2>2:0,0"}
    for kind, payload, entry, law in (
            ("functor", functor, "functor laws", "composition-preservation"),
            ("nattrans", nattrans, "naturality", "naturality")):
        (code, text), (json_code, out) = _check_both(capsys, tmp_path, kind, payload)
        assert code == json_code == 1
        assert law in text
        failed = [c for c in json.loads(out)["checks"] if not c["ok"]]
        assert [c["name"] for c in failed] == [entry]
        assert {v["law"] for v in failed[0]["violations"]} == {law}


@pytest.mark.parametrize("kind", ["functor", "nattrans"])
def test_check_array_functor_payload_exits_two(capsys, tmp_path, kind):
    functor, nattrans = _identity_functor_and_nattrans()
    payload = (list(functor.values()) if kind == "functor" else
               dict(nattrans, source_functor=list(nattrans["source_functor"].values())))
    for code, out in _check_both(capsys, tmp_path, kind, payload):
        assert code == 2
        assert f"malformed {kind} payload" in out


@pytest.mark.parametrize("kind, path, message", [
    ("category", ("identity",), "malformed category payload: identity"),
    ("functor", ("object_map",), "malformed functor payload: object_map"),
    ("functor", ("morphism_map",), "malformed functor payload: morphism_map"),
    ("functor", ("source", "identity"), "malformed category payload: identity"),
    ("nattrans", ("source_functor", "object_map"), "malformed nattrans payload: object_map"),
    ("nattrans", ("target_functor", "morphism_map"),
     "malformed nattrans payload: morphism_map"),
    ("nattrans", ("components",), "malformed nattrans payload: components"),
], ids=["category-identity", "functor-object-map", "functor-morphism-map",
        "functor-source-identity", "nattrans-object-map", "nattrans-morphism-map",
        "nattrans-components"])
def test_check_map_written_as_pairs_exits_two(capsys, tmp_path, kind, path, message):
    functor, nattrans = _identity_functor_and_nattrans()
    payload = {"category": functor["source"], "functor": functor, "nattrans": nattrans}[kind]
    *outer, field = path
    holder = payload
    for key in outer:
        holder = holder[key]
    # the same map as a JSON array of [key, value] pairs
    holder[field] = [list(pair) for pair in holder[field].items()]
    for code, out in _check_both(capsys, tmp_path, kind, payload):
        assert code == 2
        assert f"{message} must be a JSON object of strings" in out


_LABELS = "malformed category payload: object and morphism labels must be strings"


@pytest.mark.parametrize("kind, edit, message", [
    ("functor", lambda d: d["payload"].update(name=3),
     "malformed functor payload: name must be a string, got int"),
    ("nattrans", lambda d: d["payload"].update(name=[]),
     "malformed nattrans payload: name must be a string, got list"),
    ("nattrans", lambda d: d["payload"]["source_functor"].update(name={"x": [1]}),
     "malformed nattrans payload: name must be a string, got dict"),
    ("nattrans", lambda d: d["payload"]["target_functor"].update(name=None),
     "malformed nattrans payload: name must be a string, got NoneType"),
    ("category", lambda d: d["payload"]["objects"][0].update(label=0), _LABELS),
    ("category", lambda d: d["payload"]["morphisms"][0].update(label=["x"]), _LABELS),
    ("functor", lambda d: d["payload"]["target"]["objects"][1].update(label=True), _LABELS),
    ("category", lambda d: d["meta"].update(name={"x": [1]}),
     "malformed document meta: name must be a string, got dict"),
], ids=["functor-name", "nattrans-name", "source-functor-name", "target-functor-name",
        "object-label", "morphism-label", "functor-target-label", "meta-name"])
def test_check_non_string_name_or_label_exits_two(capsys, tmp_path, kind, edit, message):
    functor, nattrans = _identity_functor_and_nattrans()
    doc = make_document(kind, {"category": functor["source"], "functor": functor,
                               "nattrans": nattrans}[kind])
    edit(doc)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    for json_flag in ((), ("--json",)):
        code, out = run(capsys, "check", str(path), *json_flag)
        assert code == 2
        assert message in out


def test_check_deeply_nested_document_exits_two(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text('{"format": "hetcat/1", "kind": "category", "meta": {}, "payload": '
                    + "[" * 100_000 + "]" * 100_000 + "}")
    code, out = run(capsys, "check", str(path))
    assert code == 2
    assert "nested too deeply" in out


def _edit_bundle(tmp_path, bundle, edit):
    doc = loads_document(open(bundle).read())
    edit(doc["payload"]["bifunctor"])
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("side", ["left", "right"])
def test_action_table_for_unknown_morphism_exits_two(capsys, tmp_path, galois_bundle,
                                                     side):
    path = _edit_bundle(tmp_path, galois_bundle, lambda p: p[f"act_{side}"].append(
        {"morphism": "bogus", "mapping": {}}))
    code, out = run(capsys, "check", path)
    assert code == 2
    assert f"{side} action table for unknown morphism 'bogus'" in out


def test_string_cell_elements_exit_two(capsys, tmp_path, terminal_cat):
    het = build_het("one", terminal_cat, terminal_cat, lambda x, a: ("u",),
                    lambda h, c: c, lambda k, c: c)
    payload = bifunctor_to_payload(het)
    path = tmp_path / "one.json"
    path.write_text(dumps_document(make_document("bifunctor", payload)))
    assert run(capsys, "check", str(path))[0] == 0
    # a one-character string would split into the same single element
    payload["cells"][0]["elements"] = "u"
    path.write_text(dumps_document(make_document("bifunctor", payload)))
    code, out = run(capsys, "check", str(path))
    assert code == 2
    assert "cell elements must be a JSON array of strings, got str" in out


def test_factorize_checks_bifunctor_laws_first(capsys, tmp_path, skeleton2):
    het = hom_bifunctor(skeleton2)
    payload = bifunctor_to_payload(het)
    entry = next(e for e in payload["act_left"] if e["morphism"] == "2>2:1,0")
    entry["mapping"]["2>2:0,1"] = "2>2:0,0"     # rerouted inside its cell
    path = tmp_path / "rerouted.json"
    path.write_text(dumps_document(make_document("bifunctor", payload)))
    for argv in (("adjoint", str(path)), ("factorize", str(path), "2>2:0,1")):
        code, out = run(capsys, *argv, "--json")
        assert code == 1, argv
        (check,) = json.loads(out)["checks"]
        assert check["name"] == "bifunctor laws" and not check["ok"]
        laws = {v["law"] for v in check["violations"]}
        assert {"bimodule-associativity", "left-functoriality"} <= laws


def _permutation_group(perms):
    """The group of the permutations `perms` (id -> tuple of images) as a
    one-object category, its morphisms listed in the order of perms."""
    by_images = {p: m for m, p in perms.items()}
    identity = by_images[tuple(sorted(next(iter(perms.values()))))]
    return FinCategory("G", ("*",), tuple(Morphism(m, "*", "*") for m in perms),
                       {"*": identity},
                       {(f, g): by_images[tuple(perms[g][i] for i in perms[f])]
                        for f in perms for g in perms})


_Z2 = {"z": (0, 1), "s": (1, 0)}
_S3 = {"e" if p == (0, 1, 2) else "".join(map(str, p)): p
       for p in itertools.permutations(range(3))}


@pytest.mark.parametrize("perms", [_Z2, dict(reversed(_Z2.items())),
                                   _S3, dict(reversed(_S3.items()))],
                         ids=["Z2-z-first", "Z2-s-first", "S3-e-first", "S3-e-last"])
def test_adjoint_passes_groups_listed_in_any_order(capsys, tmp_path, perms):
    # the search keeps the first universal in listing order, which may be a
    # non-identity automorphism; the round trip compares up to that iso
    het = hom_bifunctor(_permutation_group(perms))
    assert representation_roundtrip(build_adjunction(het)).ok
    path = tmp_path / "hom.json"
    path.write_text(dumps_document(make_document("bifunctor", bifunctor_to_payload(het))))
    assert run(capsys, "adjoint", str(path))[0] == 0
    code, out = run(capsys, "adjoint", str(path), "--json")
    assert code == 0 and json.loads(out)["exit"] == 0


@pytest.fixture()
def non_category_bundle(tmp_path, terminal_cat):
    """X = {0 -f-> 1} with (i0, f) missing from its composition, A terminal,
    and f acting c1 |-> c0."""
    x_cat = FinCategory(
        "arrow-missing-i0-f", ("0", "1"),
        (Morphism("i0", "0", "0"), Morphism("i1", "1", "1"), Morphism("f", "0", "1")),
        {"0": "i0", "1": "i1"},
        {("i0", "i0"): "i0", ("i1", "i1"): "i1", ("f", "i1"): "f"})
    het = HetBifunctor("non-category", x_cat, terminal_cat,
                       {("0", "t"): ("c0",), ("1", "t"): ("c1",)},
                       {"i0": {"c0": "c0"}, "i1": {"c1": "c1"}, "f": {"c1": "c0"}},
                       {"id_t": {"c0": "c0", "c1": "c1"}})
    path = tmp_path / "non-category.json"
    path.write_text(dumps_document(make_document("adjunction-bundle",
                                                 bundle_to_payload(het))))
    return str(path)


@pytest.mark.parametrize("argv", [("adjoint",), ("factorize", "c0")])
def test_het_commands_gate_on_the_category_laws(capsys, non_category_bundle, argv):
    code, out = run(capsys, argv[0], non_category_bundle, *argv[1:], "--json")
    assert code == 1
    sending, receiving, laws = json.loads(out)["checks"]
    assert sending["name"] == "sending category" and not sending["ok"]
    assert [(v["law"], v["witness"]) for v in sending["violations"]] == \
        [("composition-totality", ["i0", "f"])]
    assert receiving["name"] == "receiving category" and receiving["ok"]
    assert laws["name"] == "bifunctor laws"
    code, out = run(capsys, argv[0], non_category_bundle, *argv[1:])
    assert code == 1
    assert "[FAIL] sending category" in out
    assert "composition-totality at (i0, f)" in out


@pytest.fixture()
def identity_missing_bundle(tmp_path, terminal_cat):
    """X = {0, 1, i0, f: 0 -> 1} with no identity at 1, A terminal."""
    x_cat = FinCategory(
        "arrow-without-i1", ("0", "1"), (Morphism("i0", "0", "0"), Morphism("f", "0", "1")),
        {"0": "i0"}, {("i0", "i0"): "i0", ("i0", "f"): "f"})
    het = HetBifunctor("identity-missing", x_cat, terminal_cat,
                       {("0", "t"): ("c0",), ("1", "t"): ("c1",)},
                       {"i0": {"c0": "c0"}, "f": {"c1": "c0"}},
                       {"id_t": {"c0": "c0", "c1": "c1"}})
    path = tmp_path / "identity-missing.json"
    path.write_text(dumps_document(make_document("adjunction-bundle",
                                                 bundle_to_payload(het))))
    return str(path)


@pytest.mark.parametrize("argv", [("check",), ("adjoint",), ("factorize", "c0")],
                         ids=["check", "adjoint", "factorize"])
def test_het_commands_report_a_missing_identity(capsys, identity_missing_bundle, argv):
    code, out = run(capsys, argv[0], identity_missing_bundle, *argv[1:], "--json")
    assert code == 1
    sending, receiving, laws = json.loads(out)["checks"]
    assert sending["name"] == "sending category" and not sending["ok"]
    assert [(v["law"], v["witness"]) for v in sending["violations"]] == \
        [("identity-totality", ["1"])]
    assert receiving["ok"] and laws["name"] == "bifunctor laws" and laws["ok"]
    code, out = run(capsys, argv[0], identity_missing_bundle, *argv[1:])
    assert code == 1
    assert "identity-totality at (1)" in out


def _set_mapping_value(payload):
    mapping = payload["bifunctor"]["act_right"][0]["mapping"]
    mapping[next(iter(mapping))] = ["a"]


@pytest.mark.parametrize("edit,message", [
    (_set_mapping_value, "an action mapping must be a JSON object of strings"),
    (lambda p: p["bifunctor"]["x_category"].update(name=[]),
     "malformed category payload: name must be a string, got list"),
    (lambda p: p["bifunctor"].update(name=0),
     "malformed bifunctor payload: name must be a string, got int"),
    (lambda p: p.update(expected=2.5),
     "malformed adjunction bundle: expected must be a JSON object, got float"),
    (lambda p: p["expected"].update(left_object_map=[["0", "a"]]),
     "malformed adjunction bundle: expected.left_object_map must be a JSON object of strings"),
    (lambda p: p["expected"].update(right_object_map="0"),
     "malformed adjunction bundle: expected.right_object_map must be a JSON object of strings"),
    (lambda p: p["expected"]["left_object_map"].update({"0": 1}),
     "malformed adjunction bundle: expected.left_object_map must be a JSON object of strings"),
    (lambda p: p["expected"].update(left_objet_map={"0": "zz"}),
     "malformed adjunction bundle: unknown key expected.left_objet_map"),
], ids=["mapping-value", "category-name", "bifunctor-name", "expected", "expected-left-array",
        "expected-right-string", "expected-left-value", "expected-misspelt-key"])
@pytest.mark.parametrize("argv", [("check",), ("adjoint",), ("factorize", "c:{0}=>{a}")],
                         ids=["check", "adjoint", "factorize"])
def test_malformed_bundle_fields_exit_two(capsys, tmp_path, galois_bundle, edit, message,
                                          argv):
    doc = loads_document(open(galois_bundle).read())
    edit(doc["payload"])
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, argv[0], str(path), *argv[1:])
    assert code == 2
    assert message in out


@pytest.mark.parametrize("side", ["left", "right"])
def test_empty_expected_object_map_is_compared(capsys, tmp_path, galois_bundle, side):
    doc = loads_document(open(galois_bundle).read())
    doc["payload"]["expected"][f"{side}_object_map"] = {}
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "adjoint", str(path), "--json")
    assert code == 1
    failing = [c for c in json.loads(out)["checks"] if not c["ok"]]
    assert failing == [{"name": f"expected {side} adjoint", "ok": False, "violations": [],
                        "notes": ["object map differs from expectation"]}]


def test_kernel_invariant_failure_exits_two(capsys, monkeypatch, galois_bundle):
    def broken(het):
        raise KernelInvariantError("morphism fill-in for f is not unique (2 candidates)")

    monkeypatch.setattr(hetcat.cli, "build_adjunction", broken)
    code, out = run(capsys, "adjoint", galois_bundle, "--json")
    assert code == 2
    assert json.loads(out) == {
        "command": "adjoint", "exit": 2,
        "error": "morphism fill-in for f is not unique (2 candidates)"}


def test_demo_unknown_name_exits_two(capsys):
    code, _ = run(capsys, "demo", "mystery")
    assert code == 2


def test_demo_guard_exceeded_exits_two(capsys):
    code, out = run(capsys, "demo", "limits", "--shape", "span", "--n", "2",
                    "--guard", "50")
    assert code == 2
    assert "guard" in out


@pytest.mark.parametrize("argv,flag", [
    (("prodexp", "--n", "1", "--a", "-1"), "--a"),
    (("limits", "--n", "-2"), "--n"),
    (("ur", "--n", "-1"), "--n"),
])
def test_demo_negative_size_exits_two(capsys, argv, flag):
    code, out = run(capsys, "demo", *argv)
    assert code == 2
    assert f"error: {flag} must be non-negative" in out


@pytest.mark.parametrize("target", ["no/such/dir/x.json", "."],
                         ids=["missing-directory", "a-directory"])
def test_demo_export_to_unwritable_path_exits_two(capsys, tmp_path, target):
    path = str(tmp_path / target)
    code, out = run(capsys, "demo", "pointed", "--n", "1", "--export", path)
    assert code == 2
    assert out.startswith(f"error: cannot write {path}: [Errno ")
    assert out.endswith("exit 2\n")
    code, out = run(capsys, "demo", "pointed", "--n", "1", "--export", path, "--json")
    assert code == 2
    report = json.loads(out)
    assert report["exit"] == 2 and report["command"] == "demo"
    assert report["error"].startswith(f"cannot write {path}: [Errno ")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_demo_export_that_fails_mid_write_exits_two(capsys):
    """/dev/full opens, then refuses the streamed pieces or the final flush."""
    code, out = run(capsys, "demo", "pointed", "--n", "1", "--export", "/dev/full")
    assert code == 2
    assert out.startswith("error: cannot write /dev/full: [Errno 28]")
    code, out = run(capsys, "demo", "pointed", "--n", "1", "--export", "/dev/full", "--json")
    assert code == 2
    report = json.loads(out)
    assert report["exit"] == 2 and report["command"] == "demo"
    assert report["error"].startswith("cannot write /dev/full: [Errno 28]")


_DOCUMENTS = {"ARRAY": "[1, 2]",
              "NO_PAYLOAD": '{"format": "hetcat/1", "kind": "category", "meta": {}}'}


@pytest.mark.parametrize("argv, message", [
    (("adjoint", "category_doc"), "adjoint expects a bifunctor or bundle, got 'category'"),
    (("factorize", "category_doc", "le"),
     "factorize expects a bifunctor or bundle, got 'category'"),
    (("factorize", "galois_bundle", "{}<={0}"),
     "'{}<={0}' does not end at a right-adjoint image; cannot seed an adjunctive square"),
    (("demo", "galois", "--map", "0:a,,1:b"), "bad --map entry ''; use 'x:y,...' form"),
    (("check", "ARRAY"), "document is not a JSON object"),
    (("check", "NO_PAYLOAD"), "document has no payload"),
    (("demo", "pointed", "--n", "4"), "pointed instance bound 4 exceeds guard 3"),
    (("demo", "preorder", "--n", "3"), "preorder carrier bound 3 exceeds guard 2"),
    (("demo", "prodexp", "--n", "3"),
     "product-exponential bounds n=3, |A|=1 exceed guards (2, 2)"),
    (("demo", "colimits", "--shape", "bogus"), "unknown diagram shape 'bogus'; "
     "choose one of terminal, discrete-2, parallel-pair, span"),
    (("demo", "limits", "--n", "9"), "finset skeleton bound 9 exceeds guard 8"),
    (("demo", "galois", "--map", "x}:a,y:b"),
     "set elements must be non-empty and free of '{', '}' and ',': 'x}'"),
    (("demo", "galois", "--map", "0:a,1:{b}"),
     "set elements must be non-empty and free of '{', '}' and ',': '{b}'"),
    (("demo", "galois", "--map", "0:a, :b"),
     "set elements must be non-empty and free of '{', '}' and ',': ''"),
], ids=["adjoint-category", "factorize-category", "factorize-no-G-image", "map-empty-entry",
        "array-document", "no-payload", "pointed-guard", "preorder-guard", "prodexp-guard",
        "unknown-shape", "skeleton-guard", "map-brace-in-source", "map-brace-in-target",
        "map-blank-source"])
def test_error_paths_exit_two(capsys, request, tmp_path, argv, message):
    """Each exits 2 with its message, in text and in --json. Arguments that
    name a fixture or a _DOCUMENTS entry stand for that document's path."""
    def path(arg):
        if arg in _DOCUMENTS:
            (tmp_path / arg).write_text(_DOCUMENTS[arg])
            return str(tmp_path / arg)
        return request.getfixturevalue(arg) if arg.endswith(("_doc", "_bundle")) else arg

    argv = [path(arg) for arg in argv]
    assert run(capsys, *argv) == (2, f"error: {message}\nexit 2\n")
    code, out = run(capsys, *argv, "--json")
    assert code == 2
    assert json.loads(out) == {"command": argv[0], "error": message, "exit": 2}


@pytest.mark.parametrize("spec", ["0:a,0:b", "0:a,1:b,0:a", "0:a, 0 :b"])
def test_demo_repeated_map_source_exits_two(capsys, spec):
    code, out = run(capsys, "demo", "galois", "--map", spec)
    assert code == 2
    assert "error: --map sends '0' more than once" in out


def test_export_then_recheck_is_green(capsys, galois_bundle):
    code, _ = run(capsys, "check", galois_bundle)
    assert code == 0
    code, _ = run(capsys, "adjoint", galois_bundle)
    assert code == 0


def test_export_is_idempotent(capsys, tmp_path, galois_bundle):
    again = tmp_path / "again.json"
    code, _ = run(capsys, "demo", "galois", "--map", "0:a,1:a,2:b",
                  "--export", str(again))
    assert code == 0
    assert open(galois_bundle).read() == open(again).read()


def test_json_reports_byte_stable(capsys, galois_bundle):
    _, first = run(capsys, "adjoint", galois_bundle, "--json")
    _, second = run(capsys, "adjoint", galois_bundle, "--json")
    assert first == second
    payload = json.loads(first)
    assert payload["exit"] == 0
    assert all(c["ok"] for c in payload["checks"])


def test_adjoint_reports_witness_on_failure(capsys, tmp_path):
    code, out = run(capsys, "demo", "pointed", "--n", "1",
                    "--export", str(tmp_path / "pt.json"))
    assert code == 0
    code, out = run(capsys, "adjoint", str(tmp_path / "pt.json"))
    assert code == 1
    assert "no universal element" in out
    assert "failed sides: right" in out


def test_factorize_het_element(capsys, galois_bundle):
    code, out = run(capsys, "factorize", galois_bundle, "c:{0}=>{a,b}", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["zig_zag"]["factor_count"] == 1
    assert data["factorizations"]["equations-hold"] is True
    assert data["adjunctive_square"]["commutes"] is True
    assert data["image_square"]["commutes"] is True


def test_factorize_chimera_unit_collapses(capsys, galois_bundle):
    # h_{0} lives in cell ({0}, image({0})) = ({0}, {a}); its zig-zag
    # collapses to the over-and-back factorization of the unit
    code, out = run(capsys, "factorize", galois_bundle, "c:{0}=>{a}", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["zig_zag"]["factor_count"] == 1
    assert data["zig_zag"]["anti_diagonal"][0] == "{0,1}<={0,1}"


def test_factorize_morphism_seed(capsys, galois_bundle):
    code, out = run(capsys, "factorize", galois_bundle, "{0}<={0,1}", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["squares"]
    assert all(s["adjunctive_square"]["commutes"] for s in data["squares"])


def test_factorize_cone_prints_chain(capsys, tmp_path):
    path = tmp_path / "limits.json"
    code, _ = run(capsys, "demo", "limits", "--shape", "parallel-pair",
                  "--n", "1", "--export", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    cells = doc["payload"]["bifunctor"]["cells"]
    cone = next(e for c in cells for e in c["elements"])
    code, out = run(capsys, "factorize", str(path), cone, "--json")
    assert code == 0
    data = json.loads(out)
    # the zig-zag chain passes over to the diagram side and back
    assert "=h_x=>" in data["zig_zag"]["chain"]
    assert "=e_a=>" in data["zig_zag"]["chain"]
    assert data["zig_zag"]["factor_count"] == 1


def test_factorize_unknown_id_exits_two(capsys, galois_bundle):
    code, _ = run(capsys, "factorize", galois_bundle, "no-such-id")
    assert code == 2


def test_factorize_on_a_het_with_no_right_representation_exits_one(capsys, tmp_path):
    # the pointed-set het of n = 2 is only left representable: factorize
    # reports why and stops before the element is looked at
    path = tmp_path / "pointed.json"
    code, _ = run(capsys, "demo", "pointed", "--n", "2", "--export", str(path))
    assert code == 0
    code, out = run(capsys, "factorize", str(path), "sp:0>1:", "--json")
    assert code == 1
    data = json.loads(out)
    assert (data["command"], data["exit"]) == ("factorize", 1)
    assert [(c["name"], c["ok"]) for c in data["checks"]] == [
        ("bifunctor laws", True), ("birepresentability", False)]
    assert data["checks"][1]["notes"][0] == "failed sides: right"
    assert "zig_zag" not in data


@pytest.mark.parametrize("argv", [
    ("demo", "ur", "--n", "1"),
    ("demo", "limits", "--shape", "parallel-pair", "--n", "1"),
    ("demo", "colimits", "--shape", "parallel-pair", "--n", "1"),
    ("demo", "colimits", "--shape", "discrete-2", "--n", "1"),
    ("demo", "prodexp", "--n", "1", "--a", "1"),
    ("demo", "prodexp", "--n", "1", "--a", "2"),
    ("demo", "preorder", "--n", "1"),
    ("demo", "pointed", "--n", "1"),
    # |A| = 0 and the grid {0}: every cell holds one map, so both sides represent
    ("demo", "prodexp", "--n", "0", "--a", "0"),
    ("demo", "prodexp", "--n", "1", "--a", "0"),
    ("demo", "prodexp", "--n", "2", "--a", "0"),
    ("demo", "pointed", "--n", "0"),
])
def test_demos_run_green(capsys, argv):
    code, _ = run(capsys, *argv)
    assert code == 0


def test_every_demo_export_rechecks(capsys, tmp_path):
    demos = [
        ("ur", "--n", "1"),
        ("galois",),
        ("limits", "--shape", "parallel-pair", "--n", "1"),
        ("colimits", "--shape", "parallel-pair", "--n", "1"),
        ("prodexp", "--n", "1", "--a", "1"),
        ("preorder", "--n", "1"),
        ("pointed", "--n", "1"),
    ]
    for spec in demos:
        path = tmp_path / f"{spec[0]}.json"
        code, _ = run(capsys, "demo", *spec, "--export", str(path))
        assert code == 0, spec
        code, _ = run(capsys, "check", str(path))
        assert code == 0, spec


_FULL_SUITE = [("four-bifunctor isomorphism", True),
               ("triangular and over-and-back identities", True),
               ("comma-category equivalence", True),
               ("representation round-trip", True)]
_LIMITS_FULL = [("recovers the diagonal and limit functors", True),
                ("universal cones are the identity and projection cones", True)] + _FULL_SUITE
_HALF = [("half-representable exactly as the cardinalities force", True)]


@pytest.mark.parametrize("argv,checks,notes", [
    (("limits", "--shape", "parallel-pair", "--n", "1"), _LIMITS_FULL, []),
    (("colimits", "--shape", "parallel-pair", "--n", "1"),
     [("recovers the colimit and diagonal functors", True),
      ("universal cocones are the injection and identity cocones", True)] + _FULL_SUITE, []),
    (("limits", "--shape", "discrete-2", "--n", "1"), _LIMITS_FULL, []),
    (("colimits", "--shape", "discrete-2", "--n", "1"), _HALF,
     ["sets too large to be diagram values: 2", "failed sides: right"]),
    (("limits", "--shape", "discrete-2", "--n", "2"), _HALF,
     ["limits escaping the skeleton: D8", "failed sides: right"]),
])
def test_cone_and_cocone_demo_checks(capsys, argv, checks, notes):
    code, out = run(capsys, "demo", *argv, "--json")
    data = json.loads(out)
    assert code == data["exit"] == 0
    assert [(c["name"], c["ok"]) for c in data["checks"]] == checks
    assert data["checks"][0].get("notes", [])[:2] == notes


# -- the document boundary under single-field mutations ----------------------

_SMALL_DEMOS = [("ur", "--n", "1"), ("galois",),
                ("limits", "--shape", "parallel-pair", "--n", "1"),
                ("colimits", "--shape", "parallel-pair", "--n", "1"),
                ("prodexp", "--n", "1", "--a", "1"), ("preorder", "--n", "1"),
                ("pointed", "--n", "1")]


def _fields(node, path=()):
    """Every field of a JSON value, as (path to its container, key or index)."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path, key
        yield from _fields(value, path + (key,))


def _strings(node):
    if isinstance(node, dict):
        return [s for k, v in node.items() for s in [k, *_strings(v)]]
    if isinstance(node, list):
        return [s for v in node for s in _strings(v)]
    return [node] if isinstance(node, str) else []


@pytest.fixture(scope="module")
def small_documents(tmp_path_factory):
    """Per small demo export, and per category, functor and nattrans document
    of FinSet<=1: its text, fields and strings, and the first heteromorphism
    to factorize ("x" where there are no cells)."""
    root = tmp_path_factory.mktemp("exports")
    texts = {}
    for spec in _SMALL_DEMOS:
        path = root / f"{spec[0]}.json"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["demo", *spec, "--export", str(path)]) == 0
        texts[spec[0]] = path.read_text()
    one = identity_functor(finset_skeleton(1))
    for kind, payload in (("category", category_to_payload(one.source)),
                          ("functor", functor_to_payload(one)),
                          ("nattrans", nat_trans_to_payload(identity_nat_trans(one)))):
        texts[kind] = dumps_document(make_document(kind, payload))
    out = {}
    for name, text in texts.items():
        doc = json.loads(text)
        cells = doc["payload"].get("bifunctor", {}).get("cells", [])
        first = next((e for c in cells for e in c["elements"]), "x")
        out[name] = (text, list(_fields(doc)), sorted(set(_strings(doc))), first)
    return root, out


_DELETE = object()
_VALUES = st.one_of(st.just(_DELETE), st.none(), st.booleans(), st.integers(-1, 2),
                    st.text(max_size=2), st.lists(st.text(max_size=1), max_size=2),
                    st.dictionaries(st.text(max_size=1), st.text(max_size=1), max_size=1))


# 140 examples: about 14 for each of the 10 documents, as 100 gave the 7
# demo exports before the category, functor and nattrans documents joined
@settings(derandomize=True, max_examples=140, deadline=None)
@given(data=st.data())
def test_mutated_demo_exports_exit_cleanly(small_documents, data):
    """One field of a demo export, or of a category, functor or nattrans
    document, deleted or replaced (by another string of the document or a
    small JSON value): check, adjoint and factorize each end in exit 0, 1 or
    2, never a traceback."""
    root, exports = small_documents
    text, fields, strings, first = exports[data.draw(st.sampled_from(sorted(exports)))]
    doc = json.loads(text)
    where, key = data.draw(st.sampled_from(fields))
    value = data.draw(st.one_of(st.sampled_from(strings), _VALUES))
    container = functools.reduce(operator.getitem, where, doc)
    if value is _DELETE:
        del container[key]
    else:
        container[key] = value
    path = root / "mutated.json"
    path.write_text(json.dumps(doc))
    for argv in (["check"], ["adjoint"], ["factorize", first]):
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([argv[0], str(path), *argv[1:]])
        assert code in (0, 1, 2), argv
