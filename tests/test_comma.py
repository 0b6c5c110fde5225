"""Comma categories from functors and bifunctors, and the comma-category
formulation of an adjunction."""

import dataclasses
import functools
import re
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hetcat.comma as comma_mod
from hetcat import (FinCategory, FinFunctor, GuardExceeded, LawReport, Morphism,
                    StructuralError, build_adjunction, build_het, check_category,
                    check_functor, comma_of_bifunctor, comma_of_functors,
                    constant_functor, half_lawvere_iso_check, hom_bifunctor,
                    hom_comma_equivalence, identity_functor, lawvere_iso_check)
from hetcat.comma import _comma_iso
from hetcat.het import LeftRepresentation, find_left_representation
from hetcat.instances import (finset_skeleton, galois_connections,
                              pointed_free_forgetful)
from test_census import _corrupted, _other


def test_identity_comma_on_terminal(terminal_cat):
    cc = _as_category(comma_of_functors(identity_functor(terminal_cat),
                                        identity_functor(terminal_cat)))
    assert cc.base.n_objects == 1
    assert cc.base.n_morphisms == 1
    assert check_category(cc.base).ok


def test_comma_repr_counts_objects_and_morphisms(terminal_cat):
    comma = comma_of_functors(identity_functor(terminal_cat), identity_functor(terminal_cat))
    assert repr(comma) == f"CommaCategory({comma.name!r}, 1 objects, 1 morphisms)"


def test_galois_comma_object_count(galois, galois_lower_adj):
    # objects of (F, 1_A) are triples (x, a, g: Fx -> a)
    adj = galois_lower_adj
    cc = _as_category(comma_of_functors(adj.F, identity_functor(galois.cod_poset)))
    expected = sum(
        len(galois.cod_poset.hom(adj.F.on_obj(x), a))
        for x in galois.dom_poset.objects for a in galois.cod_poset.objects)
    assert cc.base.n_objects == expected
    assert check_category(cc.base).ok
    assert check_functor(cc.pi0).ok and check_functor(cc.pi1).ok


def test_slice_construction_matches_enumeration(skeleton2, terminal_cat):
    # (1_C, constant at c) has the morphisms into c as objects
    const = constant_functor(terminal_cat, skeleton2, "2")
    cc = comma_of_functors(identity_functor(skeleton2), const)
    expected = sorted(
        m.id for m in skeleton2.morphisms if m.cod == "2")
    got = sorted(datum for (_, _, datum) in cc.triples)
    assert got == expected
    assert check_category(_as_category(cc).base).ok


def test_comma_of_hom_bifunctor_matches_identity_comma(chain2, skeleton1, powerset2):
    for cat in (chain2, skeleton1, powerset2):
        assert hom_comma_equivalence(cat).ok


def test_comma_of_cone_bifunctor_objects_are_cones(limits_pp1):
    cc = _as_category(comma_of_bifunctor(limits_pp1.het))
    assert check_category(cc.base).ok
    total = sum(len(v) for v in limits_pp1.het.cells.values())
    assert cc.base.n_objects == total


def test_comma_of_empty_het(chain2, terminal_cat):
    empty = build_het("all-empty", chain2, terminal_cat,
                      cell_fn=lambda x, a: (),
                      act_left_fn=lambda h, c: c,
                      act_right_fn=lambda k, c: c)
    cc = _as_category(comma_of_bifunctor(empty))
    assert cc.base.n_objects == 0
    assert cc.base.n_morphisms == 0
    assert check_category(cc.base).ok


def test_lawvere_iso_ur(ur_chain2):
    assert lawvere_iso_check(ur_chain2).ok


def test_lawvere_iso_galois(galois_lower_adj, galois_upper_adj):
    assert lawvere_iso_check(galois_lower_adj).ok
    assert lawvere_iso_check(galois_upper_adj).ok


def test_half_lawvere_on_pointed(pointed2):
    rep = find_left_representation(pointed2.het)
    assert isinstance(rep, LeftRepresentation)
    assert half_lawvere_iso_check(pointed2.het, rep).ok


def test_iso_along_a_datum_with_no_object_is_structural(galois_lower_adj):
    adj = galois_lower_adj
    het_comma = comma_of_bifunctor(adj.het)
    left_comma = comma_of_functors(adj.F, identity_functor(adj.a_cat))
    x, a, _ = het_comma.triples[0]
    with pytest.raises(StructuralError,
                       match=re.escape(f"comma category has no object ({x}, {a}, nowhere)")):
        comma_mod._iso_along(het_comma, left_comma, lambda x, a, c: "nowhere", "datum")


def test_comma_guard(galois_lower_adj):
    with pytest.raises(GuardExceeded):
        comma_of_bifunctor(galois_lower_adj.het, guard=3)


# -- the int tabulation against the string-keyed nested loop ---------------------

def _reference_build_comma(name, left_cat, right_cat, triples, commutes, guard):
    """The comma construction over every pair of objects: its sorted triples
    and its morphism keys (dom, cod, k, h) in enumeration order."""
    triples = sorted(triples)
    if len(triples) > guard:
        raise GuardExceeded(
            f"{name}: {len(triples)} objects exceeds guard {guard}", len(triples))
    keys = []
    for i, src in enumerate(triples):
        for j, dst in enumerate(triples):
            for k in left_cat.hom(src[0], dst[0]):
                for h in right_cat.hom(src[1], dst[1]):
                    if not commutes(src, dst, k, h):
                        continue
                    keys.append((i, j, k, h))
                    if len(keys) > guard:
                        raise GuardExceeded(
                            f"{name}: morphism count exceeds guard {guard}", len(keys))
    return triples, keys


@functools.lru_cache(maxsize=None)
def _as_category(cc):
    """The comma as a FinCategory with its two projections, from its int
    tables: object i is `o{i}`, morphism n is `m{n}`, composition is
    componentwise through the keys, and identities are the keys (i, i, 1, 1).
    A composite whose key is no morphism has no entry."""
    left, right = cc.left_cat, cc.right_cat
    oids = [f"o{i}" for i in range(len(cc.triples))]
    mids = [f"m{n}" for n in range(len(cc.dom))]
    keys = list(zip(cc.dom, cc.cod, cc.ks, cc.hs))
    at = {key: n for n, key in enumerate(keys)}
    identity = {}
    for i, (x, a, _) in enumerate(cc.triples):
        n = at.get((i, i, left.id_of(x), right.id_of(a)))
        if n is not None:
            identity[oids[i]] = mids[n]
    comp = {}
    for n, (i, j, k, h) in enumerate(keys):
        for g in range(cc.start[j], cc.start[j + 1]):
            _, l, k2, h2 = keys[g]
            m = at.get((i, l, left.comp.get((k, k2)), right.comp.get((h, h2))))
            if m is not None:
                comp[mids[n], mids[g]] = mids[m]
    base = FinCategory(
        name=cc.name,
        objects=tuple(oids),
        morphisms=tuple(Morphism(mid, oids[i], oids[j], label=f"({k},{h})")
                        for mid, (i, j, k, h) in zip(mids, keys)),
        identity=identity,
        comp=comp,
        obj_labels={oid: f"({t[0]},{t[1]},{t[2]})" for oid, t in zip(oids, cc.triples)},
    )
    pi0, pi1 = (FinFunctor(f"{cc.name}.pi{s}", base, cat,
                           {oid: t[s] for oid, t in zip(oids, cc.triples)},
                           dict(zip(mids, comps)))
                for s, cat, comps in ((0, left, cc.ks), (1, right, cc.hs)))
    return SimpleNamespace(base=base, pi0=pi0, pi1=pi1,
                           morphisms_data=dict(zip(mids, zip(cc.ks, cc.hs))))


_TABULATE = comma_mod._tabulate


def _build_with_reference(monkeypatch, build, *args):
    """Build a comma and, from the same arguments, its reference."""
    calls = []

    def recording(*targs):
        calls.append(targs)
        return _TABULATE(*targs)

    monkeypatch.setattr(comma_mod, "_tabulate", recording)
    cc = build(*args)
    (targs,) = calls
    return cc, targs, _reference_build_comma(*targs)


def test_tabulation_matches_reference(monkeypatch, galois_lower_adj, galois_upper_adj,
                                      limits_pp1, pointed2, skeleton2, chain2,
                                      terminal_cat):
    empty = build_het("all-empty", chain2, terminal_cat,
                      cell_fn=lambda x, a: (),
                      act_left_fn=lambda h, c: c,
                      act_right_fn=lambda k, c: c)
    builds = [(comma_of_bifunctor, hom_bifunctor(skeleton2)),
              (comma_of_bifunctor, limits_pp1.het),
              (comma_of_bifunctor, pointed2.het),
              (comma_of_bifunctor, empty)]
    for adj in (galois_lower_adj, galois_upper_adj):
        builds += [(comma_of_functors, adj.F, identity_functor(adj.a_cat)),
                   (comma_of_functors, identity_functor(adj.x_cat), adj.G),
                   (comma_of_bifunctor, adj.het)]
    # each comma twice: the second build reads its target's cached row getters
    built = [_build_with_reference(monkeypatch, build, *args)
             for build, *args in builds for _ in range(2)]
    for cc, _, (triples, keys) in built:
        assert cc.triples == triples
        assert list(zip(cc.dom, cc.cod, cc.ks, cc.hs)) == keys
        assert cc.start == [sum(key[0] < i for key in keys) for i in range(len(triples) + 1)]
        assert "index" not in vars(cc)
        assert cc.index == {key: n for n, key in enumerate(keys)}
        assert check_category(_as_category(cc).base).ok
    # the hom comma of finset_skeleton(2) is not thin: it has parallel morphisms
    hom_comma = built[0][0]
    assert len(set(zip(hom_comma.dom, hom_comma.cod))) < len(hom_comma.dom)


@pytest.mark.parametrize("extra", [-1, 0, 5])
def test_guard_matches_reference(monkeypatch, galois_lower_adj, extra):
    het = galois_lower_adj.het
    _, targs, _ = _build_with_reference(monkeypatch, comma_of_bifunctor, het)
    # at -1 the objects exceed the guard; at 0 and 5 the morphism count does
    guard = len(targs[3]) + extra
    with pytest.raises(GuardExceeded) as new:
        _TABULATE(*targs[:5], guard)
    with pytest.raises(GuardExceeded) as ref:
        _reference_build_comma(*targs[:5], guard)
    assert str(new.value) == str(ref.value)
    assert new.value.estimate == ref.value.estimate


def test_functor_comma_raises_on_missing_images_and_composites(skeleton1):
    # squares are decided from composition rows; a miss falls back to the
    # checked calls, which name the missing entry
    ident = identity_functor(skeleton1)
    partial = FinFunctor("partial", skeleton1, skeleton1, ident.obj_map,
                         {m: g for m, g in ident.mor_map.items() if m != "1>1:0"})
    with pytest.raises(StructuralError, match="partial: morphism map not total at '1>1:0'"):
        comma_of_functors(ident, partial)
    comp = {pair: h for pair, h in skeleton1.comp.items() if pair != ("0>1:", "1>1:0")}
    broken = FinCategory("broken", skeleton1.objects, skeleton1.morphisms,
                         skeleton1.identity, comp)
    with pytest.raises(StructuralError,
                       match=r"broken: composition table missing \(0>1:, 1>1:0\)"):
        comma_of_functors(identity_functor(broken), identity_functor(broken))
    # an entry for a non-composable pair is not a composite either
    stray = FinCategory("stray", skeleton1.objects, skeleton1.morphisms, skeleton1.identity,
                        {**skeleton1.comp, ("0>1:", "0>1:"): "0>1:",
                         ("1>1:0", "0>1:"): "0>1:"})
    ident = identity_functor(stray)
    bent = FinFunctor("bent", stray, stray, ident.obj_map, {**ident.mor_map, "1>1:0": "0>1:"})
    with pytest.raises(StructuralError, match="stray: 0>1: and 0>1: are not composable"):
        comma_of_functors(ident, bent)


def test_functor_comma_needs_one_target(skeleton1, skeleton2):
    with pytest.raises(StructuralError,
                       match="comma_of_functors: functors have different targets"):
        comma_of_functors(identity_functor(skeleton1), identity_functor(skeleton2))


def test_het_comma_raises_on_missing_actions(skeleton1):
    # squares are decided from the action rows; a miss falls back to the
    # checked actions, which name the missing entry
    het = hom_bifunctor(skeleton1)
    right = {k: dict(row) for k, row in het.act_right.items()}
    del right["0>1:"]["0>0:"]
    with pytest.raises(StructuralError, match="right action of '0>1:' undefined at '0>0:'"):
        comma_of_bifunctor(dataclasses.replace(het, act_right=right))
    left = {h: dict(row) for h, row in het.act_left.items()}
    del left["0>1:"]["1>1:0"]
    with pytest.raises(StructuralError, match="left action of '0>1:' undefined at '1>1:0'"):
        comma_of_bifunctor(dataclasses.replace(het, act_left=left))


# -- the int iso check against the string check, witness for witness ------------

def _reference_comma_iso(first, second, omap, subject):
    """The string form of `_comma_iso` on the commas as categories: every
    violation, with its witness, identity and composition preservation
    included. Object i goes to object `omap[i]`, named `o{i}` and
    `o{omap[i]}`."""
    first, second = _as_category(first), _as_category(second)
    object_map = {f"o{i}": f"o{j}" for i, j in enumerate(omap)}
    rep = LawReport(subject)
    if sorted(object_map) != sorted(first.base.objects) or \
            sorted(object_map.values()) != sorted(second.base.objects):
        rep.add("object-bijection", (), "object correspondence is not a bijection")
        return rep.normalize()
    # morphism correspondence: (k, h) valid between corresponding objects
    second_index = {
        (m.dom, m.cod, *second.morphisms_data[m.id]): m.id
        for m in second.base.morphisms
    }
    mor_map = {}
    for m in first.base.morphisms:
        key = (object_map[m.dom], object_map[m.cod], *first.morphisms_data[m.id])
        mid = second_index.get(key)
        if mid is None:
            rep.add("morphism-correspondence", (m.id,) + first.morphisms_data[m.id],
                    "component pair is not a morphism of the second comma category")
            continue
        mor_map[m.id] = mid
    if len(set(mor_map.values())) != len(mor_map) or \
            len(mor_map) != len(second.base.morphisms):
        rep.add("morphism-bijection", (),
                f"{len(mor_map)} of {len(first.base.morphisms)} morphisms matched, "
                f"target has {len(second.base.morphisms)}")
    if not rep.ok:
        return rep.normalize()
    iso = FinFunctor(f"iso[{subject}]", first.base, second.base, object_map, mor_map)
    rep.extend(check_functor(iso))
    # commutes with both projection pairs
    for oid, target in object_map.items():
        if first.pi0.on_obj(oid) != second.pi0.on_obj(target) or \
                first.pi1.on_obj(oid) != second.pi1.on_obj(target):
            rep.add("projection-compatibility", (oid,),
                    "iso does not commute with the projections")
    for mid, target in mor_map.items():
        if first.pi0.on_mor(mid) != second.pi0.on_mor(target) or \
                first.pi1.on_mor(mid) != second.pi1.on_mor(target):
            rep.add("projection-compatibility", (mid,),
                    "iso does not commute with the projections on morphisms")
    return rep.normalize()


def _twisted_het():
    """Hom of FinSet<=2 with its cells listed in reverse, so the search picks
    the twist 2 -> 2 as a universal element and the transposes permute
    objects out of order."""
    skeleton2 = finset_skeleton(2)
    return build_het("twisted", skeleton2, skeleton2,
                     cell_fn=lambda x, a: tuple(reversed(skeleton2.hom(x, a))),
                     act_left_fn=skeleton2.compose,
                     act_right_fn=lambda k, c: skeleton2.compose(c, k))


@functools.lru_cache(maxsize=None)
def _recorded_isos():
    """Every (first, second, object map, subject) the comma checks compare."""
    calls = []
    check = comma_mod._comma_iso

    def recording(*args):
        calls.append(args)
        return check(*args)

    skeleton2 = finset_skeleton(2)
    comma_mod._comma_iso = recording
    try:
        gi = galois_connections({"0": "a", "1": "a", "2": "b"}, ("0", "1", "2"), ("a", "b"))
        assert lawvere_iso_check(build_adjunction(gi.lower_het)).ok
        assert lawvere_iso_check(build_adjunction(_twisted_het())).ok
        pointed = pointed_free_forgetful(1)
        assert half_lawvere_iso_check(pointed.het,
                                      find_left_representation(pointed.het)).ok
        assert hom_comma_equivalence(skeleton2).ok
    finally:
        comma_mod._comma_iso = check
    return tuple(calls)


def _mutate_table(cc, kind, data):
    """The comma with one morphism dropped, or with two morphisms trading one
    component where the keys stay distinct, as they do in any tabulation."""
    if not cc.dom:
        return cc
    n = data.draw(st.integers(0, len(cc.dom) - 1))
    if kind == "drop":
        def keep(table):
            return table[:n] + table[n + 1:]
        return dataclasses.replace(cc, dom=keep(cc.dom), cod=keep(cc.cod), ks=keep(cc.ks),
                                   hs=keep(cc.hs), start=[s - (s > n) for s in cc.start])
    field = data.draw(st.sampled_from(("ks", "hs")))
    m = data.draw(st.integers(0, len(cc.dom) - 1))
    comps = list(getattr(cc, field))
    comps[n], comps[m] = comps[m], comps[n]
    bent = dataclasses.replace(cc, **{field: comps})
    return bent if len(set(zip(bent.dom, bent.cod, bent.ks, bent.hs))) == len(bent.dom) else cc


@settings(deadline=None, derandomize=True)
@given(st.data())
def test_int_iso_report_matches_string_check(data):
    first, second, omap, subject = data.draw(st.sampled_from(_recorded_isos()))
    omap = list(omap)
    keys = range(len(omap))
    # -1 is no object of the second comma; a redirect at len(omap) adds a key
    # that is no object of the first
    targets = list(range(len(second.triples))) + [-1]
    for _ in range(data.draw(st.integers(1, 2))):
        kind = data.draw(st.sampled_from(("swap", "redirect", "drop", "trade")))
        if kind == "swap":
            a, b = data.draw(st.sampled_from(keys)), data.draw(st.sampled_from(keys))
            omap[a], omap[b] = omap[b], omap[a]
        elif kind == "redirect":
            key = data.draw(st.integers(0, len(omap)))
            omap[key:key + 1] = [data.draw(st.sampled_from(targets))]
        elif data.draw(st.booleans()):
            first = _mutate_table(first, kind, data)
        else:
            second = _mutate_table(second, kind, data)
    report = _comma_iso(first, second, omap, subject)
    assert report.violations == _reference_comma_iso(first, second, omap, subject).violations


def test_int_iso_sees_isolated_objects(monkeypatch, skeleton2):
    het_comma, het_args, _ = _build_with_reference(
        monkeypatch, comma_of_bifunctor, hom_bifunctor(skeleton2))
    fun_comma, fun_args, _ = _build_with_reference(
        monkeypatch, comma_of_functors, identity_functor(skeleton2),
        identity_functor(skeleton2))
    # two objects over the same (1, 2) and one over (0, 0)
    ends = [("1", "2", c) for c in skeleton2.hom("1", "2")] + \
        [("0", "0", skeleton2.id_of("0"))]

    def isolated(args, drop=()):
        """The comma rebuilt without any morphism into or out of `ends`,
        and without the objects in `drop`."""
        name, left, right, triples, commutes, guard = args
        return _TABULATE(
            name, left, right, [t for t in triples if t not in drop],
            lambda s, d, k, h: s not in ends and d not in ends and commutes(s, d, k, h),
            guard)

    fun_at = {t: i for i, t in enumerate(fun_comma.triples)}
    omap = [fun_at[t] for t in het_comma.triples]
    a, b, c = map(het_comma.triples.index, ends)
    swapped = list(omap)
    swapped[a], swapped[c] = omap[c], omap[a]
    merged = list(omap)
    merged[a] = omap[b]
    # one-to-one but not onto: the first side lacks the isolated (0, 0) object
    short = isolated(het_args, drop=ends[2:])
    into = [fun_at[t] for t in short.triples]
    for first, second, object_map, law in [
            (short, isolated(fun_args), into, "object-bijection"),
            (isolated(het_args), isolated(fun_args), swapped, "projection-compatibility"),
            (isolated(het_args), isolated(fun_args), merged, "object-bijection"),
            (isolated(het_args), fun_comma, omap, "morphism-bijection")]:
        report = _comma_iso(first, second, object_map, "isolated")
        assert law in {v.law for v in report.violations}
        assert report.violations == _reference_comma_iso(
            first, second, object_map, "isolated").violations


def test_numbered_alike_isos_need_no_index():
    # with the second comma's index emptied, only an iso that relabels looks
    # a morphism up: the numbered-alike ones still pass, the twisted ones
    # (objects out of order) find no counterparts
    alike, relabelled = 0, 0
    for first, second, omap, subject in _recorded_isos():
        emptied = dataclasses.replace(second)
        vars(emptied)["index"] = {}
        report = _comma_iso(first, emptied, omap, subject)
        if "twisted" in first.name:
            relabelled += 1
            assert "morphism-correspondence" in {v.law for v in report.violations}
        else:
            alike += 1
            assert report.ok
    assert alike and relabelled


@pytest.mark.parametrize("het, built", [("galois", 0), ("twisted", 2)])
def test_lawvere_iso_check_builds_an_index_only_to_relabel(monkeypatch, galois_lower_adj,
                                                           het, built):
    # numbered-alike commas are compared with no lookup; the twisted het
    # comma's objects are out of the other two's order, so each of those
    # two builds its index
    adj = galois_lower_adj if het == "galois" else build_adjunction(_twisted_het())
    commas = []

    def recording(*args):
        commas.append(_TABULATE(*args))
        return commas[-1]

    monkeypatch.setattr(comma_mod, "_tabulate", recording)
    assert lawvere_iso_check(adj).ok
    assert len(commas) == 3
    assert sum("index" in vars(cc) for cc in commas) == built


def test_lawvere_iso_check_builds_each_row_getter_once(monkeypatch):
    # fresh categories, so no earlier test has built their getters
    gi = galois_connections({"0": "a", "1": "a", "2": "b"}, ("0", "1", "2"), ("a", "b"))
    adj = build_adjunction(gi.lower_het)
    calls = []
    getters = comma_mod._row_getters

    def recording(cat):
        calls.append((cat, getters(cat)))
        return calls[-1][1]

    monkeypatch.setattr(comma_mod, "_row_getters", recording)
    assert lawvere_iso_check(adj).ok
    # each functor comma decides its squares on its target's rows: A for
    # (F, 1_A), X for (1_X, G); the het comma reads the actions
    assert [cat for cat, _ in calls] == [adj.a_cat, adj.x_cat]
    assert calls[0][1] is getters(adj.a_cat) and calls[1][1] is getters(adj.x_cat)


def test_swapped_components_leave_the_numbered_alike_path():
    # two parallel morphisms of the first comma that differ in one component
    # only trade it: the same comma numbered apart, so the tables no longer
    # agree, the check looks each morphism up by key, and the iso still holds
    swapped = 0
    for first, second, omap, subject in _recorded_isos():
        for field, other in (("ks", first.hs), ("hs", first.ks)):
            comps = getattr(first, field)
            pair = next(((a, b) for a in range(len(comps)) for b in range(a)
                         if (first.dom[a], first.cod[a], other[a]) ==
                         (first.dom[b], first.cod[b], other[b])
                         and comps[a] != comps[b]), None)
            if pair is None:
                continue
            comps = list(comps)
            comps[pair[0]], comps[pair[1]] = comps[pair[1]], comps[pair[0]]
            bent = dataclasses.replace(first, **{field: comps})
            fresh = dataclasses.replace(second)
            report = _comma_iso(bent, fresh, omap, subject)
            assert report.ok and "index" in vars(fresh)
            assert report.violations == _reference_comma_iso(
                bent, second, omap, subject).violations
            swapped += 1
    assert swapped


# -- the suites against their parent form, on corrupted input ----------------------

# implied by the morphism correspondence: the proof is in _comma_iso's docstring
IMPLIED = {"identity-preservation", "composition-preservation"}


@functools.lru_cache(maxsize=None)
def _het_bases():
    """Hets with their left representations, to be corrupted."""
    gi = galois_connections({"0": "a", "1": "a", "2": "b"}, ("0", "1", "2"), ("a", "b"))
    hets = [pointed_free_forgetful(1).het, gi.lower_het, hom_bifunctor(finset_skeleton(2)),
            _twisted_het()]
    return tuple((het, find_left_representation(het)) for het in hets)


@st.composite
def _corrupted_het(draw):
    """A het and its left representation with one to three entries changed:
    an action entry of the het moved to another element of its cell, a
    universal element to another element of its row, or an image of the
    representing functor. psi is read off the representation's own het,
    which an action change leaves as it was."""
    het, rep = draw(st.sampled_from(_het_bases()))
    for kind in draw(st.lists(st.sampled_from(
            ["act_left", "act_right", "universal", "mor_map", "obj_map"]),
            min_size=1, max_size=3)):
        if kind.startswith("act"):
            tables = getattr(het, kind)
            m = draw(st.sampled_from(sorted(m for m, t in tables.items() if t)))
            c, image = draw(st.sampled_from(sorted(tables[m].items())))
            het = dataclasses.replace(het, **{kind: {**tables, m: {
                **tables[m], c: _other(draw, het.cell(*het.cell_of(image)), image)}}})
        elif kind == "universal":
            x, u = draw(st.sampled_from(sorted(rep.universal.items())))
            row = [c for a in het.a_cat.objects for c in rep.het.cell(x, a)]
            rep = dataclasses.replace(rep, universal={**rep.universal, x: _other(draw, row, u)})
        else:
            fun = rep.functor
            key, image = draw(st.sampled_from(sorted(getattr(fun, kind).items())))
            values = fun.target.objects if kind == "obj_map" else \
                fun.target.hom(fun.target.dom(image), fun.target.cod(image))
            fun = dataclasses.replace(fun, **{kind: {**getattr(fun, kind),
                                                     key: _other(draw, values, image)}})
            rep = dataclasses.replace(rep, functor=fun)
    return het, rep


def _violations(check, *args):
    try:
        return check(*args).violations
    except StructuralError as exc:
        return str(exc)


@settings(deadline=None, derandomize=True, max_examples=150)
@given(st.data())
def test_iso_checks_match_the_parent_form_less_the_implied_laws(data):
    if data.draw(st.booleans()):
        check, args = lawvere_iso_check, (data.draw(_corrupted()),)
    else:
        check, args = half_lawvere_iso_check, data.draw(_corrupted_het())
    new = _violations(check, *args)
    # the parent form: the same commas, compared by the string check
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(comma_mod, "_comma_iso", _reference_comma_iso)
        old = _violations(check, *args)
    if isinstance(old, list):
        old = [v for v in old if v.law not in IMPLIED]
    assert new == old
