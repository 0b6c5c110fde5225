"""Comma categories from functors and bifunctors, and the comma-category
formulation of an adjunction."""

import dataclasses
import functools
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


def test_identity_comma_on_terminal(terminal_cat):
    cc = comma_of_functors(identity_functor(terminal_cat),
                           identity_functor(terminal_cat))
    assert cc.base.n_objects == 1
    assert cc.base.n_morphisms == 1
    assert check_category(cc.base).ok


def test_galois_comma_object_count(galois, galois_lower_adj):
    # objects of (F, 1_A) are triples (x, a, g: Fx -> a)
    adj = galois_lower_adj
    cc = comma_of_functors(adj.F, identity_functor(galois.cod_poset))
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
    got = sorted(datum for (_, _, datum) in cc.objects_data.values())
    assert got == expected
    assert check_category(cc.base).ok


def test_comma_of_hom_bifunctor_matches_identity_comma(chain2, skeleton1, powerset2):
    for cat in (chain2, skeleton1, powerset2):
        assert hom_comma_equivalence(cat).ok


def test_comma_of_cone_bifunctor_objects_are_cones(limits_pp1):
    cc = comma_of_bifunctor(limits_pp1.het)
    assert check_category(cc.base).ok
    total = sum(len(v) for v in limits_pp1.het.cells.values())
    assert cc.base.n_objects == total


def test_comma_of_empty_het(chain2, terminal_cat):
    empty = build_het("all-empty", chain2, terminal_cat,
                      cell_fn=lambda x, a: (),
                      act_left_fn=lambda h, c: c,
                      act_right_fn=lambda k, c: c)
    cc = comma_of_bifunctor(empty)
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


def test_comma_guard(galois_lower_adj):
    with pytest.raises(GuardExceeded):
        comma_of_bifunctor(galois_lower_adj.het, guard=3)


# -- the int tabulation against the string-keyed nested loop ---------------------

def _reference_build_comma(name, left_cat, right_cat, triples, commutes, guard):
    """The comma construction over every pair of objects, string-keyed."""
    triples = sorted(triples)
    if len(triples) > guard:
        raise GuardExceeded(
            f"{name}: {len(triples)} objects exceeds guard {guard}", len(triples))
    oid_of = {t: f"o{i}" for i, t in enumerate(triples)}
    objects_data = {oid_of[t]: t for t in triples}
    morphisms = []
    morphisms_data = {}
    pair_to_mid = {}
    count = 0
    for src in triples:
        for dst in triples:
            for k in left_cat.hom(src[0], dst[0]):
                for h in right_cat.hom(src[1], dst[1]):
                    if not commutes(src, dst, k, h):
                        continue
                    mid = f"m{count}"
                    count += 1
                    if count > guard:
                        raise GuardExceeded(
                            f"{name}: morphism count exceeds guard {guard}", count)
                    morphisms.append(Morphism(mid, oid_of[src], oid_of[dst],
                                              label=f"({k},{h})"))
                    morphisms_data[mid] = (k, h)
                    pair_to_mid[(oid_of[src], oid_of[dst], k, h)] = mid
    identity = {}
    for t, oid in oid_of.items():
        key = (oid, oid, left_cat.id_of(t[0]), right_cat.id_of(t[1]))
        if key in pair_to_mid:
            identity[oid] = pair_to_mid[key]
    comp = {}
    by_dom = {}
    for m in morphisms:
        by_dom.setdefault(m.dom, []).append(m)
    for m1 in morphisms:
        k1, h1 = morphisms_data[m1.id]
        for m2 in by_dom.get(m1.cod, ()):
            k2, h2 = morphisms_data[m2.id]
            key = (m1.dom, m2.cod, left_cat.comp[(k1, k2)], right_cat.comp[(h1, h2)])
            if key in pair_to_mid:
                comp[(m1.id, m2.id)] = pair_to_mid[key]
    base = FinCategory(
        name=name,
        objects=tuple(oid_of[t] for t in triples),
        morphisms=tuple(morphisms),
        identity=identity,
        comp=comp,
        obj_labels={oid: f"({t[0]},{t[1]},{t[2]})" for oid, t in objects_data.items()},
    )
    pi0 = FinFunctor(f"{name}.pi0", base, left_cat,
                     {oid: t[0] for oid, t in objects_data.items()},
                     {mid: kh[0] for mid, kh in morphisms_data.items()})
    pi1 = FinFunctor(f"{name}.pi1", base, right_cat,
                     {oid: t[1] for oid, t in objects_data.items()},
                     {mid: kh[1] for mid, kh in morphisms_data.items()})
    return SimpleNamespace(base=base, pi0=pi0, pi1=pi1, objects_data=objects_data,
                           morphisms_data=morphisms_data)


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


def _string_view(cc):
    base = cc.base
    return (list(cc.objects_data.items()),
            [(m.id, m.dom, m.cod, m.label) for m in base.morphisms],
            list(cc.morphisms_data.items()),
            list(base.identity.items()),
            list(base.comp.items()),
            list(base.obj_labels.items()),
            base.name,
            [(f.name, list(f.obj_map.items()), list(f.mor_map.items()))
             for f in (cc.pi0, cc.pi1)])


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
    built = [_build_with_reference(monkeypatch, build, *args) for build, *args in builds]
    for cc, _, ref in built:
        assert _string_view(cc) == _string_view(ref)
        assert cc.base == ref.base
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


# -- the int iso check against the string check, witness for witness ------------

def _reference_comma_iso(first, second, object_map, subject):
    """The string form of `_comma_iso` on the materialised commas: every
    violation, with its witness."""
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


@functools.lru_cache(maxsize=None)
def _recorded_isos():
    """Every (first, second, object map, subject) the comma checks compare."""
    calls = []
    check = comma_mod._comma_iso

    def recording(*args):
        calls.append(args)
        return check(*args)

    skeleton2 = finset_skeleton(2)
    # cells listed in reverse, so the search picks the twist 2 -> 2 as a
    # universal element and the transposes permute objects out of order
    twisted = build_het("twisted", skeleton2, skeleton2,
                        cell_fn=lambda x, a: tuple(reversed(skeleton2.hom(x, a))),
                        act_left_fn=skeleton2.compose,
                        act_right_fn=lambda k, c: skeleton2.compose(c, k))
    comma_mod._comma_iso = recording
    try:
        gi = galois_connections({"0": "a", "1": "a", "2": "b"}, ("0", "1", "2"), ("a", "b"))
        assert lawvere_iso_check(build_adjunction(gi.lower_het)).ok
        assert lawvere_iso_check(build_adjunction(twisted)).ok
        pointed = pointed_free_forgetful(1)
        assert half_lawvere_iso_check(pointed.het,
                                      find_left_representation(pointed.het)).ok
        assert hom_comma_equivalence(skeleton2).ok
    finally:
        comma_mod._comma_iso = check
    return tuple(calls)


def _mutate_table(cc, kind, data):
    """The comma with one composite dropped or rewired, or one identity dropped."""
    if kind == "drop-identity":
        ident = list(cc.ident)
        ident[data.draw(st.integers(0, len(ident) - 1))] = None
        return dataclasses.replace(cc, ident=ident)
    n = data.draw(st.sampled_from([n for n, row in enumerate(cc.rows) if row]))
    j = data.draw(st.integers(0, len(cc.rows[n]) - 1))
    new = None if kind == "drop" else data.draw(st.integers(0, len(cc.dom) - 1))
    rows = list(cc.rows)
    rows[n] = rows[n][:j] + (new,) + rows[n][j + 1:]
    return dataclasses.replace(cc, rows=rows)


@settings(deadline=None, derandomize=True)
@given(st.data())
def test_int_iso_report_matches_string_check(data):
    first, second, omap, subject = data.draw(st.sampled_from(_recorded_isos()))
    omap = dict(omap)
    keys = list(omap)
    targets = list(second.objects_data) + ["o-1"]
    for _ in range(data.draw(st.integers(1, 2))):
        kind = data.draw(st.sampled_from(
            ("swap", "redirect", "drop", "rewire", "drop-identity")))
        if kind == "swap":
            a, b = data.draw(st.sampled_from(keys)), data.draw(st.sampled_from(keys))
            omap[a], omap[b] = omap[b], omap[a]
        elif kind == "redirect":
            key = data.draw(st.sampled_from(keys + ["o-1"]))
            omap[key] = data.draw(st.sampled_from(targets))
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

    omap = {oid: fun_comma.object_id(*t) for oid, t in het_comma.objects_data.items()}
    a, b, c = (het_comma.object_id(*t) for t in ends)
    swapped = dict(omap)
    swapped[a], swapped[c] = omap[c], omap[a]
    merged = dict(omap)
    merged[a] = omap[b]
    # one-to-one but not onto: the first side lacks the isolated (0, 0) object
    short = isolated(het_args, drop=ends[2:])
    into = {oid: fun_comma.object_id(*t) for oid, t in short.objects_data.items()}
    for first, second, object_map, law in [
            (short, isolated(fun_args), into, "object-bijection"),
            (isolated(het_args), isolated(fun_args), swapped, "projection-compatibility"),
            (isolated(het_args), isolated(fun_args), merged, "object-bijection"),
            (isolated(het_args), fun_comma, omap, "morphism-bijection")]:
        report = _comma_iso(first, second, object_map, "isolated")
        assert law in {v.law for v in report.violations}
        assert report.violations == _reference_comma_iso(
            first, second, object_map, "isolated").violations


def test_iso_check_never_builds_the_string_view():
    # fresh commas: the cached recordings have been through the reference
    isos = list(_recorded_isos.__wrapped__())
    first, second, omap, subject = isos[0]
    n = next(n for n, row in enumerate(second.rows) if row)
    rows = list(second.rows)
    rows[n] = (None,) + rows[n][1:]
    failing = (first, dataclasses.replace(second, rows=rows), omap, subject)
    reports = [_comma_iso(*args) for args in isos + [failing]]
    assert all(report.ok for report in reports[:-1])
    assert "composition-preservation" in {v.law for v in reports[-1].violations}
    for first, second, _, _ in isos + [failing]:
        for cc in (first, second):
            assert not {"base", "pi0", "pi1", "morphisms_data"} & set(vars(cc))
    assert reports[-1].violations == _reference_comma_iso(*failing).violations
