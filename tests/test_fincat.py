"""Category, functor, and natural-transformation law checking, plus the
derived constructions (opposite, functor category), with the functor
category checked against its pair-by-pair reference construction."""

import contextlib
import itertools
import os
import random
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hetcat
from hetcat import fincat
from hetcat import (FinCategory, FinFunctor, GuardExceeded, Morphism, NatTrans,
                    StructuralError, check_category, check_functor,
                    check_nat_trans, compose_functors, constant_functor,
                    find_left_representation, functor_category, identity_functor,
                    identity_nat_trans, opposite)
from hetcat.fincat import _enumerate_functors
from hetcat.instances import diagram_shape, finset_skeleton, galois_connections
from hetcat.instances.finset import SHAPE_NAMES
from hetcat.instances.galois import powerset_poset
from hetcat.report import LawReport


def test_terminal_category_passes(terminal_cat):
    assert check_category(terminal_cat).ok


def test_powerset_poset_passes(powerset2):
    # associativity brute-forced over all inclusion triples
    assert powerset2.n_objects == 4
    assert powerset2.n_morphisms == 9
    assert check_category(powerset2).ok


# -- associativity witnesses against the triple-by-triple reference ---------

def _reference_check_category(cat: FinCategory) -> LawReport:
    """The category laws checked one composable triple at a time."""
    rep = LawReport(f"category {cat.name}")
    for x in cat.objects:
        i = cat.identity.get(x)
        if i is None:
            rep.add("identity-totality", (x,), "object has no identity morphism")
            continue
        m = cat.morphism(i)
        if m.dom != x or m.cod != x:
            rep.add("identity-shape", (x, i), f"identity has type {m.dom} -> {m.cod}")
    mor_ids = [m.id for m in cat.morphisms]
    for (f, g), h in cat.comp.items():
        mf, mg, mh = cat.morphism(f), cat.morphism(g), cat.morphism(h)
        if mf.cod != mg.dom:
            rep.add("composition-domain", (f, g), "entry for a non-composable pair")
            continue
        if mh.dom != mf.dom or mh.cod != mg.cod:
            rep.add("composition-shape", (f, g, h),
                    f"composite has type {mh.dom} -> {mh.cod}, expected {mf.dom} -> {mg.cod}")
    out: dict[str, list[str]] = {}
    for m in cat.morphisms:
        out.setdefault(m.dom, []).append(m.id)
    for f in mor_ids:
        for g in out.get(cat.cod(f), ()):
            if (f, g) not in cat.comp:
                rep.add("composition-totality", (f, g), "composable pair missing from the table")
    for m in cat.morphisms:
        li = cat.identity.get(m.dom)
        ri = cat.identity.get(m.cod)
        if li is not None and (li, m.id) in cat.comp and cat.comp[(li, m.id)] != m.id:
            rep.add("left-identity", (m.id,), f"id then {m.id} = {cat.comp[(li, m.id)]}")
        if ri is not None and (m.id, ri) in cat.comp and cat.comp[(m.id, ri)] != m.id:
            rep.add("right-identity", (m.id,), f"{m.id} then id = {cat.comp[(m.id, ri)]}")
    for f in mor_ids:
        for g in out.get(cat.cod(f), ()):
            fg = cat.comp.get((f, g))
            for h in out.get(cat.cod(g), ()):
                gh = cat.comp.get((g, h))
                if fg is None or gh is None:
                    continue
                left = cat.comp.get((fg, h))
                right = cat.comp.get((f, gh))
                if left != right or left is None:
                    rep.add("associativity", (f, g, h),
                            f"(f.g).h = {left}, f.(g.h) = {right}")
    return rep.normalize()


MUTATION_BASES = {
    "skeleton2": finset_skeleton(2),
    "skeleton3": finset_skeleton(3),
    "P2": powerset_poset("P2", ("0", "1")),
    "span-over-1": functor_category(diagram_shape("span"), finset_skeleton(1)),
}
STRAY_PAIRS = {base: sorted((f.id, g.id) for f in cat.morphisms for g in cat.morphisms
                            if f.cod != g.dom)
               for base, cat in MUTATION_BASES.items()}


def _mutant(base: str, data) -> FinCategory:
    """The base category with one or two composition or identity entries changed."""
    cat = MUTATION_BASES[base]
    ids = [m.id for m in cat.morphisms]
    comp, identity = dict(cat.comp), dict(cat.identity)
    for _ in range(data.draw(st.integers(1, 2))):
        kind = data.draw(st.sampled_from(("rewire", "drop", "add", "swap", "identity")))
        if kind == "identity":
            identity[data.draw(st.sampled_from(cat.objects))] = data.draw(st.sampled_from(ids))
        elif kind == "rewire":
            comp[data.draw(st.sampled_from(sorted(comp)))] = data.draw(st.sampled_from(ids))
        elif kind == "drop":
            del comp[data.draw(st.sampled_from(sorted(comp)))]
        elif kind == "add":
            comp[data.draw(st.sampled_from(STRAY_PAIRS[base]))] = data.draw(st.sampled_from(ids))
        else:
            # another composite of the same type: every row stays total and
            # well typed, so only the per-morphism comparison can see it
            pair = data.draw(st.sampled_from(sorted(comp)))
            h = cat.morphism(comp[pair])
            same_type = [k for k in cat.hom(h.dom, h.cod) if k != h.id]
            comp[pair] = data.draw(st.sampled_from(same_type or [h.id]))
    return FinCategory("mutant", cat.objects, cat.morphisms, identity, comp)


@settings(deadline=None, derandomize=True)
@given(st.sampled_from(sorted(MUTATION_BASES)), st.data())
def test_associativity_witnesses_match_triple_reference(base, data):
    mutant = _mutant(base, data)
    assert check_category(mutant).violations == _reference_check_category(mutant).violations


@contextlib.contextmanager
def _gathered():
    """Yields the list of every key `fincat._suspects` returns, call after call."""
    found, real = [], fincat._suspects

    def spy(*args):
        keys = list(real(*args))
        found.extend(keys)
        return keys

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fincat, "_suspects", spy)
        yield found


@settings(deadline=None, derandomize=True)
@given(st.sampled_from(sorted(MUTATION_BASES)), st.data())
def test_gathers_suspect_exactly_the_f_of_associativity_witnesses(base, data):
    """One composite of a typed table rerouted to a parallel morphism keeps
    every row total and well typed, so the gathers decide every f: the f
    they return are those of the reference's associativity witnesses, each
    once."""
    cat = MUTATION_BASES[base]
    pair = data.draw(st.sampled_from(sorted(cat.comp)))
    h = cat.morphism(cat.comp[pair])
    comp = {**cat.comp, pair: data.draw(st.sampled_from(cat.hom(h.dom, h.cod)))}
    rerouted = FinCategory("rerouted", cat.objects, cat.morphisms, dict(cat.identity), comp)
    want = _reference_check_category(rerouted).violations
    with _gathered() as found:
        assert check_category(rerouted).violations == want
    assert sorted(found) == sorted({v.witness[0] for v in want if v.law == "associativity"})


# -- id relabelling: a verdict may not depend on id text or table order -----

def _relabelled(cat: FinCategory, seed: int) -> tuple[FinCategory, dict[str, str]]:
    """`cat` with every id renamed and every table reordered by a seeded
    shuffle, and the map from each new id back to the old one."""
    rng = random.Random(seed)
    objects, morphisms = list(cat.objects), list(cat.morphisms)
    entries = list(cat.comp.items())
    names = {}
    for prefix, old in (("o", objects), ("m", [m.id for m in morphisms])):
        new = [f"{prefix}{i}" for i in range(len(old))]
        rng.shuffle(new)
        names[prefix] = dict(zip(old, new))
    for table in (objects, morphisms, entries):
        rng.shuffle(table)
    ob, mo = names["o"], names["m"]
    relabelled = FinCategory(
        "relabelled", tuple(map(ob.get, objects)),
        tuple(Morphism(mo[m.id], ob[m.dom], ob[m.cod]) for m in morphisms),
        {ob[x]: mo[i] for x, i in cat.identity.items()},
        {(mo[f], mo[g]): mo[h] for (f, g), h in entries})
    back = {new: old for rename in (ob, mo) for old, new in rename.items()}
    return relabelled, back


def _assert_relabelling_invariant(cat: FinCategory, seed: int) -> None:
    relabelled, back = _relabelled(cat, seed)
    found = Counter((v.law, tuple(map(back.get, v.witness)))
                    for v in check_category(relabelled).violations)
    assert found == Counter((v.law, v.witness) for v in check_category(cat).violations)


@pytest.mark.parametrize("base", sorted(MUTATION_BASES))
def test_relabelling_ids_keeps_the_verdict(base):
    for seed in range(3):
        _assert_relabelling_invariant(MUTATION_BASES[base], seed)


@settings(deadline=None, derandomize=True)
@given(st.sampled_from(sorted(MUTATION_BASES)), st.data(), st.integers(0, 2**16))
def test_relabelling_ids_keeps_the_violations_of_mutants(base, data, seed):
    _assert_relabelling_invariant(_mutant(base, data), seed)


# -- the numpy block decider: the same witnesses as the triple walk ---------

def _rows_total_and_typed(cat: FinCategory) -> bool:
    """Every composable pair has a composite, of the type the pair gives."""
    comp = cat.comp
    return all((f.id, g.id) in comp
               and cat.dom(comp[(f.id, g.id)]) == f.dom
               and cat.cod(comp[(f.id, g.id)]) == g.cod
               for f in cat.morphisms for g in cat.morphisms if f.cod == g.dom)


@contextlib.contextmanager
def _blocks(block: int):
    """check_category with the cut-off at 0, so numpy blocks of about `block`
    entries decide every table whose rows are total and well typed. Yields
    the list of the suspect sets the blocks return."""
    pytest.importorskip("numpy", exc_type=ImportError)
    found, real = [], fincat._block_suspects

    def spy(*args):
        found.append(real(*args))
        return found[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fincat, "BLOCK_CUTOFF", 0)
        mp.setattr(fincat, "_BLOCK", block)
        mp.setattr(fincat, "_block_suspects", spy)
        yield found


# one f per chunk, a few f's per chunk, and every f of a block in one chunk
BLOCK_SIZES = (1, 40, fincat._BLOCK)


@settings(deadline=None, derandomize=True)
@given(st.sampled_from(sorted(MUTATION_BASES)), st.data(), st.sampled_from(BLOCK_SIZES))
def test_block_decider_matches_triple_reference(base, data, block):
    mutant = _mutant(base, data)
    with _blocks(block) as found:
        report = check_category(mutant)
    assert bool(found) == _rows_total_and_typed(mutant)
    assert report.violations == _reference_check_category(mutant).violations


@settings(deadline=None, derandomize=True)
@given(st.sampled_from(sorted(MUTATION_BASES)), st.data(), st.integers(0, 2**16),
       st.sampled_from(BLOCK_SIZES))
def test_block_decider_keeps_relabelled_violations(base, data, seed, block):
    mutant = _mutant(base, data)
    relabelled, back = _relabelled(mutant, seed)
    with _blocks(block):
        found = Counter((v.law, tuple(map(back.get, v.witness)))
                        for v in check_category(relabelled).violations)
    assert found == Counter((v.law, v.witness)
                            for v in _reference_check_category(mutant).violations)


def _swapped(cat: FinCategory) -> FinCategory:
    """`cat` with its first composite, in sorted pair order, that shares its
    type with another morphism swapped for that morphism."""
    comp = dict(cat.comp)
    for pair in sorted(comp):
        h = cat.morphism(comp[pair])
        other = [k for k in cat.hom(h.dom, h.cod) if k != h.id]
        if other:
            comp[pair] = other[0]
            return FinCategory("swapped", cat.objects, cat.morphisms, dict(cat.identity), comp)
    raise AssertionError(f"{cat.name} is thin")


@pytest.mark.parametrize("base", ["skeleton2", "skeleton3"])
def test_swapped_composite_reaches_the_blocks(base):
    """A swap keeps every row total and typed, so the blocks decide: they flag
    the f's of the broken triples, and the walk names every witness."""
    swapped = _swapped(MUTATION_BASES[base])
    expected = _reference_check_category(swapped).violations
    assert any(v.law == "associativity" for v in expected)
    for block in BLOCK_SIZES:
        with _blocks(block) as found:
            assert check_category(swapped).violations == expected
        assert found and found[0] >= {v.witness[0] for v in expected
                                      if v.law == "associativity"}


def test_blocks_pass_over_arrows_into_an_object_with_none_out():
    """f: 0 -> 1 ends where no morphism leaves, not even an identity, so the
    block of g = f has out-degree 0: nothing to compose, and no suspect."""
    cat = FinCategory("arrow-without-i1", ("0", "1"),
                      (Morphism("i0", "0", "0"), Morphism("f", "0", "1")),
                      {"0": "i0"}, {("i0", "i0"): "i0", ("i0", "f"): "f"})
    with _blocks(fincat._BLOCK) as found:
        report = check_category(cat)
    assert found == [set()]
    assert [(v.law, v.witness) for v in report.violations] == [("identity-totality", ("1",))]
    assert report.violations == _reference_check_category(cat).violations


def test_without_numpy_the_gathers_decide(monkeypatch):
    """numpy that cannot be imported leaves a table above the cut-off to the
    gathers, with the same report."""
    monkeypatch.setitem(sys.modules, "numpy", None)
    monkeypatch.setattr(fincat, "BLOCK_CUTOFF", 0)
    monkeypatch.setattr(fincat, "_block_suspects", None)    # a call would raise
    for cat in (MUTATION_BASES["skeleton3"], _swapped(MUTATION_BASES["skeleton3"])):
        assert check_category(cat).violations == _reference_check_category(cat).violations


def test_small_tables_never_import_numpy(tmp_path):
    """P(6), the largest table of the small bench workloads, and the bench's
    four tail commands run in a fresh interpreter without importing numpy."""
    script = textwrap.dedent(f"""
        import contextlib, io, sys
        from pathlib import Path
        from hetcat import check_category, instances
        from hetcat.cli import main
        from hetcat.documents import (bundle_to_payload, category_to_payload,
                                      dumps_document, make_document)
        from hetcat.instances.galois import powerset_poset

        work = Path({str(tmp_path)!r})
        assert check_category(powerset_poset("P6", tuple("012345"))).ok
        cat, bundle = work / "cat.json", work / "bundle.json"
        cat.write_text(dumps_document(make_document(
            "category", category_to_payload(instances.finset_skeleton(2)))))
        inst = instances.limits_adjunction("parallel-pair", 1)
        bundle.write_text(dumps_document(make_document("adjunction-bundle", bundle_to_payload(
            inst.het, dict(inst.delta.obj_map), dict(inst.lim.obj_map)))))
        for argv in (["check", str(cat), "--json"], ["adjoint", str(bundle), "--json"],
                     ["demo", "colimits", "--shape", "discrete-2", "--n", "1", "--json",
                      "--export", str(work / "export.json")],
                     ["demo", "pointed", "--n", "1", "--json"]):
            with contextlib.redirect_stdout(io.StringIO()):
                main(argv)
        sys.exit("numpy" in sys.modules)
    """)
    src = str(Path(hetcat.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr or "numpy was imported"


def test_wrong_codomain_composite_is_detected(skeleton2):
    comp = dict(skeleton2.comp)
    # overwrite one entry with a morphism of the wrong codomain
    pair = ("1>2:0", "2>1:0,0")         # composite should be 1 -> 1
    assert skeleton2.comp[pair] == "1>1:0"
    comp[pair] = "1>2:1"
    broken = FinCategory("broken", skeleton2.objects, skeleton2.morphisms,
                         dict(skeleton2.identity), comp)
    report = check_category(broken)
    assert not report.ok
    assert any(v.law == "composition-shape" and v.witness[:2] == pair
               for v in report.violations)
    # fg and g end in different objects, so the (f, g) row is rebuilt from fg
    assert any(v.law == "associativity" and v.witness[:2] == pair
               for v in report.violations)
    assert report.violations == _reference_check_category(broken).violations


def test_missing_identity_and_missing_composite_detected(chain2):
    no_id = FinCategory("no-id", chain2.objects, chain2.morphisms,
                        {"0": "i0"}, dict(chain2.comp))
    report = check_category(no_id)
    assert any(v.law == "identity-totality" for v in report.violations)
    comp = dict(chain2.comp)
    del comp[("i0", "le")]
    gap = FinCategory("gap", chain2.objects, chain2.morphisms,
                      dict(chain2.identity), comp)
    report = check_category(gap)
    assert any(v.law == "composition-totality" for v in report.violations)


def test_unresolved_id_is_structural_error():
    with pytest.raises(StructuralError):
        FinCategory("bad", ("x",), (Morphism("f", "x", "nowhere"),),
                    {"x": "f"}, {})


def test_duplicate_ids_are_structural_errors():
    with pytest.raises(StructuralError, match="twice: duplicate object ids"):
        FinCategory("twice", ("x", "x"), (Morphism("f", "x", "x"),), {"x": "f"}, {})
    with pytest.raises(StructuralError, match="twice: duplicate morphism ids"):
        FinCategory("twice", ("x",), (Morphism("f", "x", "x"), Morphism("f", "x", "x")),
                    {"x": "f"}, {})


@pytest.mark.parametrize("call, message", [
    (lambda s1, s2: s2.morphism("bogus"), "FinSet<=2: unknown morphism id 'bogus'"),
    (lambda s1, s2: s2.id_of("9"), "FinSet<=2: no identity recorded for object '9'"),
    (lambda s1, s2: identity_functor(s2).on_obj("9"),
     "1_FinSet<=2: object map not total at '9'"),
    (lambda s1, s2: compose_functors(identity_functor(s2), identity_functor(s1)),
     "cannot compose 1_FinSet<=2 with 1_FinSet<=1: target/source mismatch"),
    (lambda s1, s2: NatTrans("t", constant_functor(diagram_shape("terminal"), s2, "0"),
                             constant_functor(diagram_shape("discrete-2"), s2, "0"), {}),
     "t: component functors have different source categories"),
    (lambda s1, s2: NatTrans("t", constant_functor(diagram_shape("terminal"), s1, "0"),
                             constant_functor(diagram_shape("terminal"), s2, "0"), {}),
     "t: component functors have different target categories"),
], ids=["morphism", "identity", "object-image", "compose", "nattrans-sources",
        "nattrans-targets"])
def test_lookups_and_constructions_name_what_does_not_fit(skeleton1, skeleton2, call,
                                                          message):
    with pytest.raises(StructuralError) as info:
        call(skeleton1, skeleton2)
    assert str(info.value) == message


def test_strings_and_comparisons_with_other_types(skeleton2):
    assert str(Morphism("f", "0", "1")) == "f: 0 -> 1"
    assert LawReport("category C").summary() == "category C: all laws hold"
    one = identity_functor(skeleton2)
    for value in (skeleton2, one, identity_nat_trans(one)):
        assert value.__eq__("x") is NotImplemented
        assert value != "x"


def test_identity_functor_passes(skeleton2):
    assert check_functor(identity_functor(skeleton2)).ok


def test_constant_functor_passes(skeleton2):
    shape = diagram_shape("parallel-pair")
    assert check_functor(constant_functor(shape, skeleton2, "2")).ok


def test_redirected_morphism_image_fails(skeleton2):
    fun = identity_functor(skeleton2)
    mor_map = dict(fun.mor_map)
    mor_map["2>2:0,1"] = "2>2:1,0"       # objects intact, one image rerouted
    broken = FinFunctor("broken", skeleton2, skeleton2, dict(fun.obj_map), mor_map)
    report = check_functor(broken)
    assert not report.ok
    assert any(v.law in ("composition-preservation", "identity-preservation")
               for v in report.violations)


# -- check_functor against the entry-by-entry original -------------------------

def _reference_check_functor(fun: FinFunctor) -> LawReport:
    """Empty report iff the functor preserves dom/cod, identities, and composition."""
    rep = LawReport(f"functor {fun.name}")
    src, tgt = fun.source, fun.target
    for x in src.objects:
        if x not in fun.obj_map:
            rep.add("object-totality", (x,), "object map not total")
    for m in src.morphisms:
        if m.id not in fun.mor_map:
            rep.add("morphism-totality", (m.id,), "morphism map not total")
            continue
        image = tgt.morphism(fun.on_mor(m.id))
        ex_dom, ex_cod = fun.obj_map.get(m.dom), fun.obj_map.get(m.cod)
        if ex_dom is not None and ex_cod is not None and (image.dom != ex_dom or image.cod != ex_cod):
            rep.add("dom-cod-preservation", (m.id,),
                    f"image has type {image.dom} -> {image.cod}, expected {ex_dom} -> {ex_cod}")
    for x in src.objects:
        if x in fun.obj_map and x in src.identity:
            ix = src.id_of(x)
            if ix in fun.mor_map and fun.on_mor(ix) != tgt.identity.get(fun.on_obj(x)):
                rep.add("identity-preservation", (x,),
                        f"image of {ix} is {fun.on_mor(ix)}")
    mor_map = fun.mor_map
    tcomp = tgt.comp
    for (f, g), h in src.comp.items():
        ff = mor_map.get(f)
        gg = mor_map.get(g)
        hh = mor_map.get(h)
        if ff is None or gg is None or hh is None:
            continue            # totality violations already recorded
        if tcomp.get((ff, gg)) != hh:
            rep.add("composition-preservation", (f, g),
                    f"F(f then g) = {hh} but Ff then Fg = {tcomp.get((ff, gg))}")
    return rep.normalize()


def _functor_bases() -> dict[str, FinFunctor]:
    skel = finset_skeleton(2)
    galois = galois_connections({"0": "a", "1": "a", "2": "b"}, ("0", "1", "2"), ("a", "b"))
    return {
        "identity-skeleton2": identity_functor(skel),
        "identity-skeleton2-op": identity_functor(opposite(skel)),
        "constant-parallel-pair": constant_functor(diagram_shape("parallel-pair"), skel, "2"),
        "direct-image": find_left_representation(galois.lower_het).functor,
    }


FUNCTOR_BASES = _functor_bases()


def _mutant_functor(base: str, data) -> FinFunctor:
    """The base functor with one or two morphism-map entries rewired or dropped,
    or one image sent where the image of a composable successor cannot follow."""
    fun = FUNCTOR_BASES[base]
    src, tgt, mor_map = fun.source, fun.target, dict(fun.mor_map)
    tgt_ids = [m.id for m in tgt.morphisms]
    for _ in range(data.draw(st.integers(1, 2))):
        kind = data.draw(st.sampled_from(("rewire", "drop", "uncomposable")))
        if kind == "rewire" and mor_map:
            mor_map[data.draw(st.sampled_from(sorted(mor_map)))] = \
                data.draw(st.sampled_from(tgt_ids))
        elif kind == "drop" and mor_map:
            del mor_map[data.draw(st.sampled_from(sorted(mor_map)))]
        elif kind == "uncomposable":
            pairs = sorted((f, g) for f, g in src.comp
                           if f != g and f in mor_map and g in mor_map)
            f, g = data.draw(st.sampled_from(pairs))
            start = tgt.dom(mor_map[g])
            off = [k for k in tgt_ids if tgt.cod(k) != start]
            if off:
                mor_map[f] = data.draw(st.sampled_from(off))
                assert (mor_map[f], mor_map[g]) not in tgt.comp
    return FinFunctor("mutant", src, tgt, dict(fun.obj_map), mor_map)


@settings(deadline=None, derandomize=True)
@given(st.sampled_from(sorted(FUNCTOR_BASES)), st.data())
def test_check_functor_matches_entry_reference(base, data):
    mutant = _mutant_functor(base, data)
    assert check_functor(mutant).violations == _reference_check_functor(mutant).violations


def test_check_functor_bases_pass():
    for fun in FUNCTOR_BASES.values():
        assert check_functor(fun).ok and _reference_check_functor(fun).ok


def test_identity_nat_trans_passes(skeleton2):
    assert check_nat_trans(identity_nat_trans(identity_functor(skeleton2))).ok


def test_galois_unit_components_are_natural(galois, galois_lower_adj):
    # components are the inclusions x <= preimage(image(x))
    report = check_nat_trans(galois_lower_adj.unit)
    assert report.ok
    for x in galois.dom_poset.objects:
        comp = galois_lower_adj.unit.at(x)
        assert comp == f"{x}<={galois.preimage[galois.direct_image[x]]}"


def test_broken_nat_trans_component_fails(skeleton2):
    ident = identity_functor(skeleton2)
    components = {x: skeleton2.id_of(x) for x in skeleton2.objects}
    components["2"] = "2>2:1,0"          # swap instead of the identity
    nt = NatTrans("broken", ident, ident, components)
    report = check_nat_trans(nt)
    assert not report.ok
    assert all(v.law == "naturality" for v in report.violations)


def test_nat_trans_wrong_shape_component_is_structural(skeleton2):
    # the domain alone, then the codomain alone, is wrong
    ident = identity_functor(skeleton2)
    for component, found in (("1>2:0", "1 -> 2"), ("2>1:0,0", "2 -> 1")):
        with pytest.raises(StructuralError,
                           match=f"component at 2 has type {found}, expected 2 -> 2"):
            check_nat_trans(NatTrans("bad", ident, ident,
                                     {**skeleton2.identity, "2": component}))


# -- opposite ---------------------------------------------------------------

def test_opposite_is_involution(chain2, skeleton2, powerset2):
    for cat in (chain2, skeleton2, powerset2):
        op = opposite(cat)
        assert check_category(op).ok
        assert opposite(op) == cat


def test_opposite_is_built_once(chain2, skeleton2):
    for cat in (chain2, skeleton2):
        op = opposite(cat)
        assert opposite(cat) is op and opposite(op) is cat
        assert op.hom("1", "0") == cat.hom("0", "1")


def test_opposite_reverses_chain(chain2):
    op = opposite(chain2)
    assert op.hom("1", "0") == ("le",)
    assert op.hom("0", "1") == ()


def test_opposite_hom_counts_on_skeleton(skeleton1):
    op = opposite(skeleton1)
    assert len(skeleton1.hom("0", "1")) == 1 and len(skeleton1.hom("1", "0")) == 0
    assert len(op.hom("1", "0")) == 1 and len(op.hom("0", "1")) == 0


# -- functor category -------------------------------------------------------

def test_functor_category_over_terminal_shape(chain2):
    fcat = functor_category(diagram_shape("terminal"), chain2)
    assert fcat.n_objects == chain2.n_objects
    assert fcat.n_morphisms == chain2.n_morphisms
    assert check_category(fcat).ok


def test_discrete_two_functor_count(skeleton1):
    fcat = functor_category(diagram_shape("discrete-2"), skeleton1)
    assert fcat.n_objects == 4      # 2^2 object assignments
    assert check_category(fcat).ok


def test_parallel_pair_functor_category_laws(skeleton1):
    shape = diagram_shape("parallel-pair")
    fcat = functor_category(shape, skeleton1)
    assert check_category(fcat).ok
    for t in fcat.morphisms:
        nt = NatTrans(t.id, fcat.functors[t.dom], fcat.functors[t.cod],
                      dict(zip(shape.objects, fcat.components[t.id])))
        assert check_nat_trans(nt).ok


def test_nat_trans_count_matches_brute_force(skeleton2):
    """Hom sizes in the functor category match an independent enumeration of
    commuting component families."""
    shape = diagram_shape("parallel-pair")
    fcat = functor_category(shape, skeleton2)
    for did in ("D3", "D12"):
        for did2 in ("D3", "D12", "D24"):
            ff, hh = fcat.functors[did], fcat.functors[did2]
            brute = 0
            pools = [skeleton2.hom(ff.on_obj(o), hh.on_obj(o)) for o in shape.objects]
            for combo in itertools.product(*pools):
                comps = dict(zip(shape.objects, combo))
                if all(skeleton2.compose(comps[m.dom], hh.on_mor(m.id))
                       == skeleton2.compose(ff.on_mor(m.id), comps[m.cod])
                       for m in shape.morphisms):
                    brute += 1
            assert len(fcat.hom(did, did2)) == brute


def _reference_functor_category(shape: FinCategory, target: FinCategory,
                                guard: int = 10_000):
    """The functor category as built pair by pair, one validated NatTrans per
    transformation, and each composite looked up in Python."""
    # cheap refusal on the functor count before any enumeration
    estimate = 0
    for assignment in itertools.product(target.objects, repeat=len(shape.objects)):
        omap = dict(zip(shape.objects, assignment))
        prod = 1
        for m in shape.morphisms:
            if not shape.is_identity(m.id):
                prod *= len(target.hom(omap[m.dom], omap[m.cod]))
                if prod == 0:
                    break
        estimate += prod
        if estimate > guard:
            raise GuardExceeded(
                f"functor category over {target.name} would have >= {estimate} "
                f"objects (guard {guard})", estimate)
    funs = [FinFunctor(f"D{i}", shape, target, omap, mmap)
            for i, (omap, mmap) in enumerate(_enumerate_functors(shape, target, guard))]
    objects = tuple(f.name for f in funs)
    fun_by_id = {f.name: f for f in funs}
    trans: dict[str, NatTrans] = {}
    morphisms: list[Morphism] = []
    identity: dict[str, str] = {}
    comps_of: dict[str, tuple[str, ...]] = {}     # components in shape-object order
    for ff in funs:
        for hh in funs:
            pools = [target.hom(ff.on_obj(x), hh.on_obj(x)) for x in shape.objects]
            for combo in itertools.product(*pools):
                comps = dict(zip(shape.objects, combo))
                natural = True
                for j in shape.morphisms:
                    lhs = target.comp.get((comps[j.dom], hh.on_mor(j.id)))
                    rhs = target.comp.get((ff.on_mor(j.id), comps[j.cod]))
                    if lhs != rhs or lhs is None:
                        natural = False
                        break
                if not natural:
                    continue
                if len(morphisms) >= guard:
                    raise GuardExceeded(
                        f"functor category over {target.name} has more than "
                        f"{guard} morphisms (guard {guard})", len(morphisms) + 1)
                tid = f"t{len(morphisms)}"
                trans[tid] = NatTrans(tid, ff, hh, comps)
                comps_of[tid] = combo
                morphisms.append(Morphism(tid, ff.name, hh.name,
                                          label="(" + ",".join(combo) + ")"))
                if ff.name == hh.name and all(
                        comps[x] == target.id_of(ff.on_obj(x)) for x in shape.objects):
                    identity[ff.name] = tid
    comp: dict[tuple[str, str], str] = {}
    # index transformations by (source functor, component tuple) for composite lookup
    lookup = {(m.dom, m.cod, comps_of[m.id]): m.id for m in morphisms}
    by_dom: dict[str, list[Morphism]] = {}
    for m in morphisms:
        by_dom.setdefault(m.dom, []).append(m)
    tcomp = target.comp
    for m1 in morphisms:
        c1 = comps_of[m1.id]
        for m2 in by_dom.get(m1.cod, ()):
            c2 = comps_of[m2.id]
            combo = tuple(tcomp[(a, b)] for a, b in zip(c1, c2))
            comp[(m1.id, m2.id)] = lookup[(m1.dom, m2.cod, combo)]
    return SimpleNamespace(
        name=f"{target.name}^{shape.name}",
        objects=objects,
        morphisms=tuple(morphisms),
        identity=identity,
        comp=comp,
        obj_labels={f.name: "[" + ",".join(f.on_obj(x) for x in shape.objects) + "]"
                    for f in funs},
        functors=fun_by_id,
        transformations=trans,
    )


# the two-element group as a one-object shape whose arrows compose: s then s
# is the identity, so of the four functions 2 -> 2 only the two involutions
# are images of s, and `_enumerate_functors` rejects the other two
Z2 = FinCategory("Z2", ("*",), (Morphism("e", "*", "*"), Morphism("s", "*", "*")),
                 {"*": "e"}, {("e", "e"): "e", ("e", "s"): "s", ("s", "e"): "s",
                              ("s", "s"): "e"})


# span over FinSet<=2 is left out: the reference alone takes about 2 s
@pytest.mark.parametrize("shape_name, n", [
    *[(name, n) for name in SHAPE_NAMES for n in (0, 1)],
    ("terminal", 2), ("discrete-2", 2), ("parallel-pair", 2), ("Z2", 2)])
def test_functor_category_matches_reference(shape_name, n):
    shape = Z2 if shape_name == "Z2" else diagram_shape(shape_name)
    target = finset_skeleton(n)
    got = functor_category(shape, target)
    want = _reference_functor_category(shape, target)
    # the reference enumerates through `_enumerate_functors` too: only the
    # functor laws tell whether it yields exactly the functors
    assert all(check_functor(f).ok for f in got.functors.values())
    assert got.name == want.name
    assert got.objects == want.objects
    assert ([(m.id, m.dom, m.cod, m.label) for m in got.morphisms]
            == [(m.id, m.dom, m.cod, m.label) for m in want.morphisms])
    assert list(got.identity.items()) == list(want.identity.items())
    assert list(got.comp.items()) == list(want.comp.items())
    assert got.obj_labels == want.obj_labels
    assert got.functors == want.functors
    assert got.components == {t: tuple(nt.components[x] for x in shape.objects)
                              for t, nt in want.transformations.items()}


def test_functor_category_over_a_non_category_is_flagged():
    # a composite missing from the target leaves the pairs that need it out of
    # the table, for check_category to name, instead of raising; over the
    # terminal shape the report is the target's, read through the components
    skel = finset_skeleton(2)
    comp = dict(skel.comp)
    del comp[("0>1:", "1>2:0")]
    broken = FinCategory("broken", skel.objects, skel.morphisms, dict(skel.identity), comp)
    fcat = functor_category(diagram_shape("terminal"), broken)
    found = [(v.law, tuple(fcat.components[t][0] for t in v.witness))
             for v in check_category(fcat).violations]
    assert ("composition-totality", ("0>1:", "1>2:0")) in found
    assert found == [(v.law, v.witness) for v in check_category(broken).violations]


def test_functor_category_guard():
    with pytest.raises(GuardExceeded) as err:
        functor_category(diagram_shape("parallel-pair"), finset_skeleton(2), guard=10)
    assert err.value.estimate > 10


# the functor estimate trips in all but the last case, where the 3 functors
# fit and the 6 morphisms do not
@pytest.mark.parametrize("shape_name, n, guard", [
    ("terminal", 3, 3), ("discrete-2", 2, 5), ("parallel-pair", 2, 10),
    ("span", 2, 30), ("parallel-pair", 1, 4)])
def test_functor_category_guard_matches_reference(shape_name, n, guard):
    shape, target = diagram_shape(shape_name), finset_skeleton(n)
    with pytest.raises(GuardExceeded) as new:
        functor_category(shape, target, guard=guard)
    with pytest.raises(GuardExceeded) as ref:
        _reference_functor_category(shape, target, guard=guard)
    assert (str(new.value), new.value.estimate) == (str(ref.value), ref.value.estimate)


def test_functor_category_repr_is_one_line(skeleton1):
    fcat = functor_category(diagram_shape("parallel-pair"), skeleton1)
    assert repr(fcat) == "FinCategory('FinSet<=1^parallel-pair', 3 objects, 6 morphisms)"
