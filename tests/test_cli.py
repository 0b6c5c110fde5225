"""CLI contract: exit codes, export/recheck, JSON stability, factorize."""

import json

import pytest

import hetcat.cli
from hetcat.cli import main
from hetcat.documents import (bifunctor_to_payload, category_to_payload,
                              dumps_document, loads_document, make_document)
from hetcat.het import KernelInvariantError, build_het, hom_bifunctor


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


@pytest.mark.parametrize("argv", [
    ("demo", "ur", "--n", "1"),
    ("demo", "limits", "--shape", "parallel-pair", "--n", "1"),
    ("demo", "colimits", "--shape", "parallel-pair", "--n", "1"),
    ("demo", "colimits", "--shape", "discrete-2", "--n", "1"),
    ("demo", "prodexp", "--n", "1", "--a", "1"),
    ("demo", "prodexp", "--n", "1", "--a", "2"),
    ("demo", "preorder", "--n", "1"),
    ("demo", "pointed", "--n", "1"),
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
