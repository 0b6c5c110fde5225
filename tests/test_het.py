"""Het-bifunctor laws and the representability machinery, checked against
independent brute-force oracles."""

import contextlib
import functools
import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hetcat import (Adjunction, CandidateFailure, FinCategory, FinFunctor, HetBifunctor,
                    KernelInvariantError, LeftRepresentation, Morphism, NonRepresentabilityWitness,
                    RightRepresentation, StructuralError, build_adjunction, build_het,
                    check_bifunctor, check_functor, check_left_representation,
                    check_right_representation, co_universal_element_check,
                    compare_left_representation, compare_right_representation,
                    dual, find_left_representation, find_right_representation,
                    hom_bifunctor, universal_element_check)
from hetcat import het as het_module
from hetcat.cli import _full_suite
from hetcat.fincat import _rows
from hetcat.instances import (colimits_adjunction, finset_skeleton,
                              galois_connections, limits_adjunction,
                              pointed_free_forgetful, preorder_adjunction_chain,
                              product_exponential)
from hetcat.report import LawReport
from test_adjunction import _extremum, _poset_category, _posets
from test_fincat import _relabelled, _swapped


# -- hom bifunctor ------------------------------------------------------------

def test_hom_bifunctor_terminal(terminal_cat):
    het = hom_bifunctor(terminal_cat)
    assert het.cell("t", "t") == ("id_t",)
    assert check_bifunctor(het).ok


def test_hom_bifunctor_chain(chain2):
    het = hom_bifunctor(chain2)
    assert len(het.cell("0", "1")) == 1
    assert len(het.cell("1", "0")) == 0
    assert check_bifunctor(het).ok


def test_hom_bifunctor_skeleton_cell_sizes(skeleton2):
    het = hom_bifunctor(skeleton2)
    assert len(het.cell("2", "2")) == 4
    assert check_bifunctor(het).ok


def test_cone_bifunctor_passes_laws(limits_pp1):
    assert check_bifunctor(limits_pp1.het).ok


def test_rerouted_left_action_fails(skeleton2):
    het = hom_bifunctor(skeleton2)
    act_left = {h: dict(t) for h, t in het.act_left.items()}
    # reroute within the same cell so the mutation is a law violation,
    # not a structural error
    act_left["2>2:1,0"]["2>2:0,1"] = "2>2:0,0"
    broken = HetBifunctor("broken", het.x_cat, het.a_cat, dict(het.cells),
                          act_left, dict(het.act_right))
    report = check_bifunctor(broken)
    assert not report.ok


def test_action_outside_cell_is_structural(skeleton2):
    het = hom_bifunctor(skeleton2)
    act_left = {h: dict(t) for h, t in het.act_left.items()}
    act_left["2>2:1,0"]["2>2:0,1"] = "1>2:0"   # lands in the wrong cell
    broken = HetBifunctor("broken", het.x_cat, het.a_cat, dict(het.cells),
                          act_left, dict(het.act_right))
    with pytest.raises(StructuralError):
        check_bifunctor(broken)


def test_unknown_element_is_structural(skeleton2):
    with pytest.raises(StructuralError) as info:
        hom_bifunctor(skeleton2).cell_of("bogus")
    assert str(info.value) == "Hom_FinSet<=2: unknown heteromorphism id 'bogus'"


# -- universal elements -------------------------------------------------------

def test_identity_is_universal_in_hom(skeleton2):
    het = hom_bifunctor(skeleton2)
    ok, witness = universal_element_check(het, "2", "2", skeleton2.id_of("2"))
    assert ok and witness is None


def test_identity_cone_is_universal(limits_pp1):
    inst = limits_pp1
    for w in inst.skeleton.objects:
        hw = inst.identity_cones[w]
        _, did = inst.het.cell_of(hw)
        ok, _ = universal_element_check(inst.het, w, did, hw)
        assert ok


def test_non_universal_cone_reports_factor_count(limits_pp1):
    # a failing candidate must be refuted by a concrete cone with its count
    inst = limits_pp1
    found = 0
    for w in inst.skeleton.objects:
        for did in inst.diagrams.objects:
            for u in inst.het.cell(w, did):
                ok, info = universal_element_check(inst.het, w, did, u)
                if not ok:
                    a, c, count = info
                    assert c in inst.het.cell(w, a)
                    assert count != 1
                    found += 1
    assert found > 0


def test_universal_check_wrong_cell_is_structural(skeleton2):
    het = hom_bifunctor(skeleton2)
    with pytest.raises(StructuralError):
        universal_element_check(het, "1", "2", skeleton2.id_of("2"))


# -- representation searches vs a brute-force oracle --------------------------

def brute_universal_pairs_left(het, x):
    """Independent oracle: every (b, u) that is a universal element for
    Het(x, -), tested from the definition with no shortcuts."""
    winners = []
    for b in het.a_cat.objects:
        for u in het.cell(x, b):
            universal = True
            for a in het.a_cat.objects:
                for c in het.cell(x, a):
                    count = 0
                    for g in het.a_cat.hom(b, a):
                        if het.act_r(g, u) == c:
                            count += 1
                    if count != 1:
                        universal = False
            if universal:
                winners.append((b, u))
    return winners


def test_left_search_agrees_with_oracle_on_hom(chain2):
    het = hom_bifunctor(chain2)
    rep = find_left_representation(het)
    assert isinstance(rep, LeftRepresentation)
    for x in chain2.objects:
        oracle = brute_universal_pairs_left(het, x)
        assert rep.equivalent_universals[x] == tuple(oracle)
        assert rep.equivalent_universals[x][0] == (rep.functor.on_obj(x),
                                                   rep.universal[x])


def test_left_search_agrees_with_oracle_on_galois(galois):
    rep = find_left_representation(galois.lower_het)
    assert isinstance(rep, LeftRepresentation)
    for x in galois.dom_poset.objects:
        assert rep.equivalent_universals[x] == tuple(
            brute_universal_pairs_left(galois.lower_het, x))


def test_left_search_agrees_with_oracle_on_pointed(pointed2):
    rep = find_left_representation(pointed2.het)
    assert isinstance(rep, LeftRepresentation)
    assert rep.functor == pointed2.free
    for x in pointed2.sets.objects:
        oracle = brute_universal_pairs_left(pointed2.het, x)
        assert rep.equivalent_universals[x] == tuple(oracle)
        # insertion-like universals: one per injection avoiding the basepoint
        k = int(x)
        expected = 1
        for i in range(k):
            expected *= k - i
        assert len(oracle) == expected


def test_right_search_identity_on_hom(chain2):
    het = hom_bifunctor(chain2)
    rep = find_right_representation(het)
    assert isinstance(rep, RightRepresentation)
    assert all(rep.functor.on_obj(a) == a for a in chain2.objects)
    assert all(rep.universal[a] == chain2.id_of(a) for a in chain2.objects)


def test_right_search_finds_limit_and_projection_cones(limits_pp1):
    inst = limits_pp1
    rep = find_right_representation(inst.het)
    assert isinstance(rep, RightRepresentation)
    assert rep.functor == inst.lim
    for did in inst.diagrams.objects:
        assert rep.universal[did] == inst.projection_cones[did]


def test_right_search_matches_sup_formula(galois):
    rep = find_right_representation(galois.lower_het)
    assert isinstance(rep, RightRepresentation)
    for a in galois.cod_poset.objects:
        assert rep.functor.on_obj(a) == galois.sup_formula_right_adjoint("lower", a)


def test_poset_fragment_right_representation_fails(preorder2):
    witness = find_right_representation(preorder2.poset_het)
    assert isinstance(witness, NonRepresentabilityWitness)
    assert witness.side == "right"
    assert witness.index_object == "2"
    assert not witness.degenerate
    # every candidate is refuted by a concrete element with a bad factor count
    assert witness.failures
    for failure in witness.failures:
        assert failure.factor_count != 1


def test_degenerate_all_empty_row_is_reported(chain2, terminal_cat):
    empty = build_het("all-empty", chain2, terminal_cat,
                      cell_fn=lambda x, a: (),
                      act_left_fn=lambda h, c: c,
                      act_right_fn=lambda k, c: c)
    assert check_bifunctor(empty).ok
    witness = find_left_representation(empty)
    assert isinstance(witness, NonRepresentabilityWitness)
    assert witness.degenerate
    assert witness.failures == ()
    assert witness.describe() == (
        "left representation fails at 0: no universal element for Het(0, -)\n"
        "  (degenerate: every cell at this index is empty)")


def test_multiple_universals_are_checked_for_isomorphism(skeleton2):
    """The discrete-2 cone bifunctor has several universal cones per set
    (automorphism reindexings); the search must keep the first and verify the
    rest are isomorphic carriers."""
    from hetcat.instances import limits_adjunction
    inst = limits_adjunction("discrete-2", 2)
    rep = find_left_representation(inst.het)
    assert isinstance(rep, LeftRepresentation)
    # at the two-element set the universal cones are the four automorphism pairs
    assert len(rep.equivalent_universals["2"]) == 4


def test_co_universal_check_dual(galois):
    het = galois.upper_het
    rep = find_right_representation(het)
    assert isinstance(rep, RightRepresentation)
    for a in het.a_cat.objects:
        ok, _ = co_universal_element_check(het, a, rep.functor.on_obj(a),
                                           rep.universal[a])
        assert ok


# -- duality ------------------------------------------------------------------

def _tables(het):
    return het.x_cat, het.a_cat, het.cells, het.act_left, het.act_right


def test_dual_is_an_involution(limits_pp1, galois, skeleton2):
    for het in (limits_pp1.het, galois.lower_het, hom_bifunctor(skeleton2)):
        assert _tables(dual(dual(het))) == _tables(het)


def test_dual_swaps_and_shares_the_actions(galois):
    het = galois.lower_het
    d = dual(het)
    assert d.name == het.name + "^op"
    assert d.act_left is het.act_right and d.act_right is het.act_left
    assert all(d.cell(a, x) == het.cell(x, a)
               for x in het.x_cat.objects for a in het.a_cat.objects)
    assert check_bifunctor(d).ok


# -- the right-hand routines against their hand-written references -----------

def _reference_co_universal_element_check(het, a, b, u):
    if het.cell_of(u) != (b, a):
        raise StructuralError(f"{het.name}: {u!r} is not in cell ({b}, {a})")
    for x in het.x_cat.objects:
        for c in het.cell(x, a):
            n = sum(1 for f in het.x_cat.hom(x, b) if het.act_l(f, u) == c)
            if n != 1:
                return False, (x, c, n)
    return True, None


def _reference_verify_universal_pair_iso(het, a, first, other):
    (b0, u0), (b1, u1) = first, other
    homs01 = [f for f in het.x_cat.hom(b1, b0) if het.act_l(f, u0) == u1]
    homs10 = [f for f in het.x_cat.hom(b0, b1) if het.act_l(f, u1) == u0]
    if len(homs01) != 1 or len(homs10) != 1:
        raise KernelInvariantError(
            f"universal elements at {a} lack unique mutual factor maps")
    g01, g10 = homs01[0], homs10[0]
    back = het.x_cat.compose(g10, g01)
    forth = het.x_cat.compose(g01, g10)
    if back != het.x_cat.id_of(b0) or forth != het.x_cat.id_of(b1):
        raise KernelInvariantError(
            f"factor maps between universal carriers {b0}, {b1} at {a} "
            f"do not compose to identities")


def _reference_check_right_representation(rep):
    het = rep.het
    out = LawReport(f"right representation of {het.name}")
    out.extend(check_functor(rep.functor))
    fun = rep.functor
    for a in het.a_cat.objects:
        ea = rep.universal[a]
        if het.cell_of(ea) != (fun.on_obj(a), a):
            out.add("universal-placement", (a, ea), "e_a not in cell (Ga, a)")
    for x in het.x_cat.objects:
        for a in het.a_cat.objects:
            table = rep.phi[(x, a)]
            if set(table) != set(het.cell(x, a)):
                out.add("phi-domain", (x, a), "phi not defined on exactly the cell")
                continue
            images = list(table.values())
            if sorted(images) != sorted(het.x_cat.hom(x, fun.on_obj(a))):
                out.add("phi-bijective", (x, a),
                        f"phi image {sorted(images)} != Hom(x, Ga)")
            for c, f in table.items():
                if het.act_l(f, rep.universal[a]) != c:
                    out.add("phi-formula", (x, a, c), "phi^-1(f) != e.f")
    for h in het.x_cat.morphisms:
        x2, x = h.dom, h.cod
        for a in het.a_cat.objects:
            for c, f in rep.phi[(x, a)].items():
                lhs = rep.phi[(x2, a)].get(het.act_l(h.id, c))
                rhs = het.x_cat.compose(h.id, f)
                if lhs != rhs:
                    out.add("phi-naturality-left", (h.id, a, c),
                            f"phi(c.h) = {lhs}, h;phi(c) = {rhs}")
    for k in het.a_cat.morphisms:
        a, a2 = k.dom, k.cod
        for x in het.x_cat.objects:
            for c, f in rep.phi[(x, a)].items():
                lhs = rep.phi[(x, a2)].get(het.act_r(k.id, c))
                rhs = het.x_cat.compose(f, fun.on_mor(k.id))
                if lhs != rhs:
                    out.add("phi-naturality-right", (k.id, x, c),
                            f"phi(k.c) = {lhs}, phi(c);Gk = {rhs}")
    return out.normalize()


def _reference_compare_right_representation(rep, functor, universals):
    het = rep.het
    out = LawReport(f"right representation of {het.name} vs {functor.name}")
    mediators = {}
    for a in het.a_cat.objects:
        b_rec, u_rec = rep.functor.on_obj(a), rep.universal[a]
        b_exp, u_exp = functor.on_obj(a), universals[a]
        if het.cell_of(u_exp) != (b_exp, a):
            out.add("expected-universal-placement", (a, u_exp),
                    "expected universal not in cell (Ga, a)")
            continue
        forward = [f for f in het.x_cat.hom(b_exp, b_rec)
                   if het.act_l(f, u_rec) == u_exp]
        backward = [f for f in het.x_cat.hom(b_rec, b_exp)
                    if het.act_l(f, u_exp) == u_rec]
        if len(forward) != 1 or len(backward) != 1:
            out.add("comparison-mediator", (a,),
                    f"{len(forward)} forward and {len(backward)} backward mediators")
            continue
        if het.x_cat.compose(forward[0], backward[0]) != het.x_cat.id_of(b_exp) or \
                het.x_cat.compose(backward[0], forward[0]) != het.x_cat.id_of(b_rec):
            out.add("comparison-iso", (a,), "mediators do not compose to identities")
            continue
        mediators[a] = forward[0]
    if not out.ok:
        return out.normalize()
    for k in het.a_cat.morphisms:
        lhs = het.x_cat.compose(mediators[k.dom], rep.functor.on_mor(k.id))
        rhs = het.x_cat.compose(functor.on_mor(k.id), mediators[k.cod])
        if lhs != rhs:
            out.add("comparison-naturality", (k.id,),
                    f"mediator;recovered = {lhs}, expected;mediator = {rhs}")
    return out.normalize()


def _reference_find_right_representation(het):
    chosen, equivalents = {}, {}
    for a in het.a_cat.objects:
        winners, failures = [], []
        for b in het.x_cat.objects:
            for u in het.cell(b, a):
                ok, info = _reference_co_universal_element_check(het, a, b, u)
                if ok:
                    winners.append((b, u))
                else:
                    failures.append(CandidateFailure(b, u, *info))
        if not winners:
            degenerate = all(not het.cell(x, a) for x in het.x_cat.objects)
            return NonRepresentabilityWitness("right", a, degenerate, tuple(failures))
        for other in winners[1:]:
            _reference_verify_universal_pair_iso(het, a, winners[0], other)
        chosen[a] = winners[0]
        equivalents[a] = tuple(winners)
    obj_map = {a: chosen[a][0] for a in het.a_cat.objects}
    mor_map = {}
    for k in het.a_cat.morphisms:
        a2, a = k.dom, k.cod
        target = het.act_r(k.id, chosen[a2][1])
        fs = [f for f in het.x_cat.hom(obj_map[a2], obj_map[a])
              if het.act_l(f, chosen[a][1]) == target]
        if len(fs) != 1:
            raise KernelInvariantError(
                f"morphism fill-in for {k.id} is not unique ({len(fs)} candidates)")
        mor_map[k.id] = fs[0]
    d = dual(het)
    rep = RightRepresentation(het, LeftRepresentation(
        d, FinFunctor(f"F[{d.name}]", d.x_cat, d.a_cat, obj_map, mor_map),
        {a: u for a, (_, u) in chosen.items()}, equivalents))
    problems = _reference_check_right_representation(rep)
    if not problems.ok:
        raise KernelInvariantError(
            f"constructed right representation fails its own laws:\n{problems.summary()}")
    return rep


def _reference_phi(rep):
    """phi of a right representation, inverting f -> e_a.f over Hom(x, Ga)."""
    het, fun = rep.het, rep.functor
    phi = {}
    for x in het.x_cat.objects:
        for a in het.a_cat.objects:
            inverse = {f: het.act_l(f, rep.universal[a])
                       for f in het.x_cat.hom(x, fun.on_obj(a))}
            phi[(x, a)] = {c: f for f, c in inverse.items()}
    return phi


def _pool():
    galois = galois_connections({"0": "a", "1": "a", "2": "b"}, ("0", "1", "2"), ("a", "b"))
    prodexp = product_exponential(1, 2)
    skel1 = finset_skeleton(1)
    return {
        "hom-skeleton2": hom_bifunctor(finset_skeleton(2)),
        "galois-lower": galois.lower_het,
        "galois-upper": galois.upper_het,
        "limits-pp1": limits_adjunction("parallel-pair", 1).het,
        "colimits-discrete2-1": colimits_adjunction("discrete-2", 1).het,
        "preorder2-poset": preorder_adjunction_chain(2).poset_het,
        "pointed1": pointed_free_forgetful(1).het,
        "prodexp-coreflective": prodexp.coreflective_het,
        "prodexp-reflective": prodexp.reflective_het,
        "all-empty": build_het("all-empty", skel1, skel1, lambda x, a: (),
                               lambda h, c: c, lambda k, c: c),
    }


POOL = _pool()
RIGHT_REPS = {name: rep for name, het in POOL.items()
              if isinstance(rep := _reference_find_right_representation(het),
                            RightRepresentation)}


def _reroute_action(het, data):
    """One action entry sent to another element of the same cell: a law
    violation, not a structural error."""
    tables = {"act_left": {m: dict(t) for m, t in het.act_left.items()},
              "act_right": {m: dict(t) for m, t in het.act_right.items()}}
    side = data.draw(st.sampled_from(sorted(tables)))
    entries = sorted((m, c) for m, t in tables[side].items() for c in t)
    if entries:
        m, c = data.draw(st.sampled_from(entries))
        image = tables[side][m][c]
        tables[side][m][c] = data.draw(st.sampled_from(het.cell(*het.cell_of(image))))
    return HetBifunctor(het.name, het.x_cat, het.a_cat, dict(het.cells), **tables)


def _outcome(search, het):
    try:
        return search(het)
    except (KernelInvariantError, StructuralError) as exc:
        return exc


@settings(deadline=None, derandomize=True)
@given(st.sampled_from(sorted(POOL)), st.integers(0, 2), st.data())
def test_right_search_matches_reference(name, n_mutations, data):
    het = POOL[name]
    for _ in range(n_mutations):
        het = _reroute_action(het, data)
    got = _outcome(find_right_representation, het)
    want = _outcome(_reference_find_right_representation, het)
    assert type(got) is type(want)
    if isinstance(want, Exception):
        prefix = "constructed right representation fails its own laws"
        if str(want).startswith(prefix):
            assert str(got).startswith("constructed left representation fails its "
                                       f"own laws:\nleft representation of {het.name}^op")
        else:
            assert str(got) == str(want)
    elif isinstance(want, NonRepresentabilityWitness):
        assert got == want
    else:
        assert got.het is het
        assert got.functor.name == want.functor.name
        assert (got.functor.source, got.functor.target) == (het.a_cat, het.x_cat)
        for attr in ("obj_map", "mor_map"):
            assert list(getattr(got.functor, attr).items()) == \
                list(getattr(want.functor, attr).items())
        assert got.universal == want.universal
        assert got.phi == _reference_phi(want)
        assert got.equivalent_universals == want.equivalent_universals


def _draw_other(data, current, preferred, fallback):
    """A value other than current, from preferred if it has one."""
    options = [v for v in preferred if v != current] or \
        [v for v in fallback if v != current]
    return data.draw(st.sampled_from(options))


def _right_rep(het, fun, universal, equivalents):
    """The right representation of het with G's tables and universals."""
    d = dual(het)
    return RightRepresentation(het, LeftRepresentation(
        d, FinFunctor(fun.name, d.x_cat, d.a_cat, fun.obj_map, fun.mor_map),
        universal, equivalents))


def _corrupt_right(rep, data):
    """One corruption that changes the rep; rewired entries keep their types
    where they can, so that most corruptions are law violations rather than
    undefined lookups. phi is read off the het, so an action entry moved
    within its cell ("het") changes it."""
    het, fun = rep.het, rep.functor
    xc, mids = het.x_cat, [m.id for m in het.x_cat.morphisms]
    kind = data.draw(st.sampled_from(("het", "universal", "functor-mor", "functor-obj")))
    universal, obj_map, mor_map = dict(rep.universal), dict(fun.obj_map), dict(fun.mor_map)
    if kind == "het":
        het = _reroute_action(het, data)
    elif kind == "universal":
        a = data.draw(st.sampled_from(sorted(universal)))
        universal[a] = _draw_other(
            data, universal[a],
            [c for b in het.a_cat.objects for c in het.cell(fun.on_obj(a), b)],
            sorted(het.elements))
    elif kind == "functor-mor":
        k = het.a_cat.morphism(data.draw(st.sampled_from(sorted(mor_map))))
        mor_map[k.id] = _draw_other(
            data, mor_map[k.id], xc.hom(fun.on_obj(k.dom), fun.on_obj(k.cod)), mids)
    else:
        a = data.draw(st.sampled_from(sorted(obj_map)))
        obj_map[a] = _draw_other(data, obj_map[a], xc.objects, ())
    corrupted = FinFunctor(fun.name, fun.source, fun.target, obj_map, mor_map)
    return _right_rep(het, corrupted, universal, rep.equivalent_universals)


def _verdict(check, rep):
    """(ok, report); a StructuralError is a rejection with no report, since
    which undefined lookup a corrupted rep hits first depends on loop order."""
    try:
        report = check(rep)
    except StructuralError:
        return False, None
    return report.ok, report


@settings(deadline=None, derandomize=True)
@given(st.sampled_from(sorted(RIGHT_REPS)), st.integers(1, 2), st.data())
def test_right_checks_match_reference_on_corrupted_reps(name, n_corruptions, data):
    rep = found = RIGHT_REPS[name]
    for _ in range(n_corruptions):
        rep = _corrupt_right(rep, data)
    got_ok, got = _verdict(check_right_representation, rep)
    want_ok, want = _verdict(_reference_check_right_representation, rep)
    assert got_ok == want_ok
    if got and want:
        # phi-domain, which the kernel no longer checks: phi inverts
        # f -> e_a.f, so it misses an element of cell (x, a) only where e_a
        # is misplaced or that map is not onto the cell, which is the dual's
        # psi-bijective at (a, x)
        misplaced = {v.witness[0] for v in got.violations if v.law == "universal-placement"}
        not_onto = {v.witness[::-1] for v in got.violations if v.law == "psi-bijective"}
        assert all(v.witness[1] in misplaced or v.witness in not_onto
                   for v in want.violations if v.law == "phi-domain")
    got_ok, got = _verdict(lambda r: compare_right_representation(
        r, found.functor, found.universal), rep)
    want_ok, want = _verdict(lambda r: _reference_compare_right_representation(
        r, found.functor, found.universal), rep)
    assert got_ok == want_ok
    if got and want:
        assert [(v.law, v.witness) for v in got.violations] == \
            [(v.law, v.witness) for v in want.violations]


# -- the left self-check against the all-pairs original ------------------------

def _reference_check_left_representation(rep):
    """Verify psi bijectivity, naturality in both variables, and functor laws."""
    het, fun = rep.het, rep.functor
    out = LawReport(f"left representation of {het.name}")
    out.extend(check_functor(fun))
    a_cat, comp, act_right = het.a_cat, het.a_cat.comp, het.act_right
    misplaced = set()
    for x in het.x_cat.objects:
        hx = rep.universal[x]
        if het.cell_of(hx) != (x, fun.on_obj(x)):
            out.add("universal-placement", (x, hx), "h_x not in cell (x, Fx)")
            misplaced.add(x)
    # cells whose psi is defined on exactly Hom(Fx, a): there every g runs
    # Fx -> a, so the naturality loops read the composition table directly for
    # pairs that compose; elsewhere, and on a miss, `compose` raises its error
    hom_keyed = set()
    for x in het.x_cat.objects:
        if x in misplaced:
            continue            # psi is empty there; the placement names the fault
        for a in a_cat.objects:
            table = rep.psi[(x, a)]
            homs = a_cat.hom(fun.on_obj(x), a)
            if set(table) != set(homs):
                out.add("psi-domain", (x, a), "psi not defined on exactly Hom(Fx, a)")
                continue
            hom_keyed.add((x, a))
            images = list(table.values())
            if sorted(images) != sorted(het.cell(x, a)):
                out.add("psi-bijective", (x, a),
                        f"psi image {sorted(images)} != cell {sorted(het.cell(x, a))}")
            u = rep.universal[x]
            for g, c in table.items():
                if (act_right.get(g, {}).get(u) or het.act_r(g, u)) != c:
                    out.add("psi-formula", (x, a, g), "psi(g) != u.g")
    # naturality of psi in a: psi(g then k) = k.psi(g)
    for x in het.x_cat.objects:
        for k in a_cat.morphisms:
            a, a2, row = k.dom, k.cod, act_right.get(k.id, {})
            direct = (x, a) in hom_keyed
            target = rep.psi[(x, a2)]
            for g, c in rep.psi[(x, a)].items():
                gk = comp.get((g, k.id)) if direct else None
                lhs = target.get(gk or a_cat.compose(g, k.id))
                rhs = row.get(c) or het.act_r(k.id, c)
                if lhs != rhs:
                    out.add("psi-naturality-right", (x, k.id, g),
                            f"psi(g;k) = {lhs}, k.psi(g) = {rhs}")
    # naturality of psi in x: psi_{x'}(Fh then g) = psi_x(g).h for h: x' -> x
    for h in het.x_cat.morphisms:
        x2, x, row = h.dom, h.cod, het.act_left.get(h.id, {})
        for a in a_cat.objects:
            table = rep.psi[(x, a)]
            if not table or x2 in misplaced:
                continue
            fh = fun.on_mor(h.id)
            direct = (x, a) in hom_keyed and a_cat.cod(fh) == fun.on_obj(x)
            target = rep.psi[(x2, a)]
            for g, c in table.items():
                fhg = comp.get((fh, g)) if direct else None
                lhs = target.get(fhg or a_cat.compose(fh, g))
                rhs = row.get(c) or het.act_l(h.id, c)
                if lhs != rhs:
                    out.add("psi-naturality-left", (h.id, a, g),
                            f"psi(Fh;g) = {lhs}, psi(g).h = {rhs}")
    return out.normalize()


LEFT_REPS = {name: rep for name, het in POOL.items()
             if isinstance(rep := find_left_representation(het), LeftRepresentation)}


def _corrupt_left(rep, data):
    """One corruption that changes the rep, as _corrupt_right does: rewired
    entries keep their types where they can. "cell-extra" puts a new
    element, with no actions, in an empty cell of the het."""
    het, fun = rep.het, rep.functor
    ac, mids = het.a_cat, [m.id for m in het.a_cat.morphisms]
    kind = data.draw(st.sampled_from(("het", "universal", "functor-mor", "functor-obj",
                                      "cell-extra")))
    universal, obj_map, mor_map = dict(rep.universal), dict(fun.obj_map), dict(fun.mor_map)
    if kind == "het":
        het = _reroute_action(het, data)
    elif kind == "universal":
        x = data.draw(st.sampled_from(sorted(universal)))
        universal[x] = _draw_other(
            data, universal[x], [c for b in ac.objects for c in het.cell(x, b)],
            sorted(het.elements))
    elif kind == "functor-mor":
        j = het.x_cat.morphism(data.draw(st.sampled_from(sorted(mor_map))))
        mor_map[j.id] = _draw_other(
            data, mor_map[j.id], ac.hom(fun.on_obj(j.dom), fun.on_obj(j.cod)), mids)
    elif kind == "functor-obj":
        x = data.draw(st.sampled_from(sorted(obj_map)))
        obj_map[x] = _draw_other(data, obj_map[x], ac.objects, ())
    elif empty := sorted(cell for cell, elems in het.cells.items() if not elems):
        cells = dict(het.cells)
        cells[data.draw(st.sampled_from(empty))] = (f"extra{len(het.elements)}",)
        het = HetBifunctor(het.name, het.x_cat, ac, cells, het.act_left, het.act_right)
    corrupted = FinFunctor(fun.name, fun.source, fun.target, obj_map, mor_map)
    return LeftRepresentation(het, corrupted, universal, rep.equivalent_universals)


def _left_report(check, rep):
    """Every (law, witness, detail), or StructuralError if the check raises."""
    try:
        return [(v.law, v.witness, v.detail) for v in check(rep).violations]
    except StructuralError:
        return StructuralError


@settings(deadline=None, derandomize=True)
@given(st.sampled_from(sorted(LEFT_REPS)), st.integers(0, 2), st.data())
def test_left_check_matches_reference_on_corrupted_reps(name, n_corruptions, data):
    """The reference still checks psi-domain and psi-formula, which the
    kernel dropped: equal reports show that psi, read off the universals,
    never breaks them."""
    rep = LEFT_REPS[name]
    for _ in range(n_corruptions):
        rep = _corrupt_left(rep, data)
    assert _left_report(check_left_representation, rep) == \
        _left_report(_reference_check_left_representation, rep)


def _reference_universal_element_check(het, x, b, u):
    """One count over hom(b, a) per element c: O(|cell| * |hom|) per a."""
    if het.cell_of(u) != (x, b):
        raise StructuralError(f"{het.name}: {u!r} is not in cell ({x}, {b})")
    for a in het.a_cat.objects:
        for c in het.cell(x, a):
            n = sum(1 for g in het.a_cat.hom(b, a) if het.act_r(g, u) == c)
            if n != 1:
                return False, (a, c, n)
    return True, None


def _call(check, *args):
    try:
        return check(*args)
    except StructuralError as exc:
        return type(exc), str(exc)


def _universal_checks_agree(het):
    for (x, b), cell in het.cells.items():
        for u in cell:
            assert _call(universal_element_check, het, x, b, u) == \
                _call(_reference_universal_element_check, het, x, b, u)


@settings(deadline=None, derandomize=True)
@given(st.sampled_from(sorted(POOL)), st.integers(0, 2), st.data())
def test_universal_check_matches_reference(name, n_mutations, data):
    het = POOL[name]
    for _ in range(n_mutations):
        het = _reroute_action(het, data)
    _universal_checks_agree(het)


def test_universal_check_raises_like_reference(skeleton2):
    het = hom_bifunctor(skeleton2)
    act_right = {k: dict(t) for k, t in het.act_right.items()}
    del act_right["2>2:1,0"]["1>2:0"]
    broken = HetBifunctor("broken", het.x_cat, het.a_cat, dict(het.cells),
                          dict(het.act_left), act_right)
    with pytest.raises(StructuralError, match="right action of '2>2:1,0' undefined"):
        universal_element_check(broken, "1", "2", "1>2:0")
    _universal_checks_agree(broken)


def test_co_universal_check_matches_reference():
    for het in POOL.values():
        for a in het.a_cat.objects:
            for b in het.x_cat.objects:
                for u in het.cell(b, a):
                    assert co_universal_element_check(het, a, b, u) == \
                        _reference_co_universal_element_check(het, a, b, u)


# -- check_bifunctor against the two-loop original ---------------------------

def _reference_check_bifunctor(het):
    """Check identity actions, two-sided functoriality, and the bimodule law,
    with each side's loops written out.

    Action entries that are missing or land in the wrong cell are structural
    errors and raise; only genuine law violations are reported.
    """
    rep = LawReport(f"bifunctor {het.name}")
    xc, ac = het.x_cat, het.a_cat
    # structural: totality and cell placement of every action entry
    for h in xc.morphisms:
        table = het.act_left.get(h.id)
        if table is None:
            raise StructuralError(f"{het.name}: no left action table for {h.id}")
        for a in ac.objects:
            for c in het.cell(h.cod, a):
                if c not in table:
                    raise StructuralError(
                        f"{het.name}: left action of {h.id} undefined at {c}")
                if het.cell_of(table[c]) != (h.dom, a):
                    raise StructuralError(
                        f"{het.name}: left action of {h.id} sends {c} outside cell ({h.dom}, {a})")
    for k in ac.morphisms:
        table = het.act_right.get(k.id)
        if table is None:
            raise StructuralError(f"{het.name}: no right action table for {k.id}")
        for x in xc.objects:
            for c in het.cell(x, k.dom):
                if c not in table:
                    raise StructuralError(
                        f"{het.name}: right action of {k.id} undefined at {c}")
                if het.cell_of(table[c]) != (x, k.cod):
                    raise StructuralError(
                        f"{het.name}: right action of {k.id} sends {c} outside cell ({x}, {k.cod})")
    # identity actions are identities
    for x in xc.objects:
        ix = xc.id_of(x)
        for c, image in het.act_left[ix].items():
            if image != c:
                rep.add("identity-left-action", (x, c), f"1.{c} = {image}")
    for a in ac.objects:
        ia = ac.id_of(a)
        for c, image in het.act_right[ia].items():
            if image != c:
                rep.add("identity-right-action", (a, c), f"{c}.1 = {image}")
    # contravariant functoriality on the left: act(h' then h) = act(h') after act(h)
    for (h2, h1), h21 in xc.comp.items():
        for c in het.act_left[h21]:
            step = het.act_left[h1].get(c)
            two = het.act_left[h2].get(step) if step is not None else None
            if het.act_left[h21][c] != two:
                rep.add("left-functoriality", (h2, h1, c),
                        f"act({h21})({c}) = {het.act_left[h21][c]}, stepwise = {two}")
    # covariant functoriality on the right
    for (k1, k2), k12 in ac.comp.items():
        for c in het.act_right[k12]:
            step = het.act_right[k1].get(c)
            two = het.act_right[k2].get(step) if step is not None else None
            if het.act_right[k12][c] != two:
                rep.add("right-functoriality", (k1, k2, c),
                        f"act({k12})({c}) = {het.act_right[k12][c]}, stepwise = {two}")
    # bimodule associativity (k.c).h = k.(c.h)
    for h in xc.morphisms:
        for k in ac.morphisms:
            for c in het.cell(h.cod, k.dom):
                lhs = het.act_left[h.id].get(het.act_right[k.id].get(c))
                rhs = het.act_right[k.id].get(het.act_left[h.id].get(c))
                if lhs != rhs or lhs is None:
                    rep.add("bimodule-associativity", (h.id, k.id, c),
                            f"(k.c).h = {lhs}, k.(c.h) = {rhs}")
    return rep.normalize()


def _mutate_composite(het, data):
    """One composition entry of X or A rerouted to a parallel morphism,
    dropped, or added for a pair that does not compose."""
    side = data.draw(st.sampled_from(("x_cat", "a_cat")))
    cat = getattr(het, side)
    comp = dict(cat.comp)
    how = data.draw(st.sampled_from(("reroute", "drop", "add")))
    if how == "add":
        pairs = sorted((f.id, g.id) for f in cat.morphisms for g in cat.morphisms
                       if f.cod != g.dom)
        if pairs:
            comp[data.draw(st.sampled_from(pairs))] = data.draw(
                st.sampled_from(sorted(m.id for m in cat.morphisms)))
    else:
        pair = data.draw(st.sampled_from(sorted(comp)))
        if how == "drop":
            del comp[pair]
        else:
            h = cat.morphism(comp[pair])
            comp[pair] = data.draw(st.sampled_from(
                [k for k in cat.hom(h.dom, h.cod) if k != h.id] or [h.id]))
    return replace(het, **{side: replace(cat, comp=comp)})


def _mutate_actions(het, data):
    """A rerouted, misplaced, dropped or extra action entry, a dropped action
    table, or a changed composition entry of either category."""
    kind = data.draw(st.sampled_from(
        ("reroute", "misplace", "drop-entry", "drop-table", "extra-key", "composite")))
    if kind == "reroute":
        return _reroute_action(het, data)
    if kind == "composite":
        return _mutate_composite(het, data)
    tables = {"act_left": {m: dict(t) for m, t in het.act_left.items()},
              "act_right": {m: dict(t) for m, t in het.act_right.items()}}
    acts = tables[data.draw(st.sampled_from(sorted(tables)))]
    entries = sorted((m, c) for m, t in acts.items() for c in t)
    elements = sorted(het.elements)
    if kind == "drop-table":
        del acts[data.draw(st.sampled_from(sorted(acts)))]
    elif kind == "misplace" and entries:
        m, c = data.draw(st.sampled_from(entries))
        acts[m][c] = data.draw(st.sampled_from(elements))
    elif kind == "drop-entry" and entries:
        m, c = data.draw(st.sampled_from(entries))
        del acts[m][c]
    elif kind == "extra-key" and elements:
        m = data.draw(st.sampled_from(sorted(acts)))
        # an element outside the table's fiber, or an id that is no element
        key = data.draw(st.sampled_from(elements + ["zzz"]))
        acts[m][key] = data.draw(st.sampled_from(elements))
    return HetBifunctor(het.name, het.x_cat, het.a_cat, dict(het.cells), **tables)


@contextlib.contextmanager
def _certified():
    """Yields the list of what the collage-row decider returned, one entry
    per check_bifunctor call that reached it: None where a category's rows
    cannot decide, else the suspect X morphisms and elements, so that no
    law loop runs where both are empty."""
    found, real = [], het_module._collage_suspects

    def spy(*args):
        found.append(real(*args))
        return found[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(het_module, "_collage_suspects", spy)
        yield found


def _witness_keys(report):
    """The suspects a decider must return for `report`: the f of its
    left-functoriality witnesses with the h of its bimodule-associativity
    ones, and the c of its right-functoriality witnesses."""
    return ({v.witness[0] for v in report.violations
             if v.law in ("left-functoriality", "bimodule-associativity")},
            {v.witness[2] for v in report.violations if v.law == "right-functoriality"})


@settings(deadline=None, derandomize=True, max_examples=200)
@given(st.sampled_from(sorted(POOL)), st.integers(0, 2), st.data())
def test_check_bifunctor_matches_reference(name, n_mutations, data):
    het = POOL[name]
    for _ in range(n_mutations):
        het = _mutate_actions(het, data)
    # a report equals down to law, witness and detail; a raise down to its message
    with _certified() as found:
        got = _call(check_bifunctor, het)
    want = _call(_reference_check_bifunctor, het)
    assert got == want
    # the suspects are exactly the keys of the witnesses, so no loop walks
    # more than they cover and none misses one
    for suspects in found:
        assert suspects is None or suspects == _witness_keys(want)


@pytest.mark.parametrize("name", sorted(POOL))
def test_valid_hets_are_certified_by_their_rows(name):
    """Every valid POOL het, limits_adjunction("parallel-pair", 1).het among
    them, passes on the rows alone: the decider runs and suspects nothing."""
    het = POOL[name]
    assert _reference_check_bifunctor(het).ok
    with _certified() as found:
        assert check_bifunctor(het).ok
    assert found == [(set(), set())]


def _single_reroutes(het):
    """Every het that differs from `het` in one entry: an action entry sent
    to another element of its cell, or a composite of X or A sent to a
    parallel morphism."""
    for side in ("act_left", "act_right"):
        tables = getattr(het, side)
        for m, table in tables.items():
            for c, image in table.items():
                for other in sorted(set(het.cell(*het.cell_of(image))) - {image}):
                    yield replace(het, **{side: {**tables, m: {**table, c: other}}})
    for side in ("x_cat", "a_cat"):
        cat = getattr(het, side)
        for pair, h in cat.comp.items():
            for k in cat.hom(cat.dom(h), cat.cod(h)):
                if k != h:
                    yield replace(het, **{side: replace(cat, comp={**cat.comp, pair: k})})


# preorder2-poset alone has about 1,500 single reroutes (2.6 s); the
# hypothesis test above samples it
@pytest.mark.parametrize("name", sorted(set(POOL) - {"preorder2-poset"}))
def test_rows_certify_exactly_the_lawful_single_reroutes(name):
    """The rows decide every het with one entry changed, their suspects are
    exactly the keys of its collage-law witnesses, and every report equals
    the reference's."""
    for mutant in _single_reroutes(POOL[name]):
        with _certified() as found:
            report = check_bifunctor(mutant)
        want = _reference_check_bifunctor(mutant)
        assert report == want
        assert found == [_witness_keys(want)]


def test_replaced_category_gets_fresh_rows(skeleton2):
    """Rows are kept with the category they were built from: a category made
    by dataclasses.replace builds its own, so a swapped composite of A makes
    elements suspect."""
    het = hom_bifunctor(skeleton2)
    with _certified() as found:
        assert check_bifunctor(het).ok
    assert found == [(set(), set())]
    swapped = replace(skeleton2, comp=_swapped(skeleton2).comp)
    assert _rows(swapped) is not _rows(skeleton2)
    assert _rows(swapped).then != _rows(skeleton2).then
    broken = replace(het, a_cat=swapped)
    with _certified() as found:
        report = check_bifunctor(broken)
    assert "right-functoriality" in {v.law for v in report.violations}
    assert report == _reference_check_bifunctor(broken)
    assert found == [_witness_keys(report)] and found[0][1]


@pytest.mark.parametrize("side", ["act_right", "act_left"])
def test_one_moved_entry_walks_only_its_suspects(side):
    """colimits discrete-2 n=1 with the first entry of one action, in sorted
    order, whose cell holds another element moved to that element: the
    report is the reference's, and the suspects are its witness keys, not
    empty and not the whole het."""
    het = colimits_adjunction("discrete-2", 1).het
    tables = getattr(het, side)
    m, c, other = next((m, c, other) for m in sorted(tables) for c in sorted(tables[m])
                       for other in het.cell(*het.cell_of(tables[m][c]))
                       if other != tables[m][c])
    moved = replace(het, **{side: {**tables, m: {**tables[m], c: other}}})
    with _certified() as found:
        report = check_bifunctor(moved)
    assert report == _reference_check_bifunctor(moved) and not report.ok
    [(xs, cs)] = found
    assert (xs, cs) == _witness_keys(report) and (xs or cs)
    assert xs < {f.id for f in het.x_cat.morphisms} and cs < set(het.elements)


@pytest.mark.parametrize("side", ["act_right", "act_left"])
def test_a_key_that_is_no_element_is_walked(side):
    """An action table of a non-identity morphism given one more key, an id
    that is no element: the rows cannot decide, and the walk still reads
    every key of the table, so the report is the reference's functoriality
    violation."""
    het = colimits_adjunction("discrete-2", 1).het
    cat, tables = (het.a_cat, het.act_right) if side == "act_right" else (het.x_cat, het.act_left)
    m = next(m.id for m in cat.morphisms if m.id not in cat.identity.values())
    extra = replace(het, **{side: {**tables, m: {**tables[m], "zzz": sorted(het.elements)[0]}}})
    with _certified() as found:
        report = check_bifunctor(extra)
    assert report == _reference_check_bifunctor(extra) and found == []
    assert {v.law for v in report.violations} == {side[4:] + "-functoriality"}


# -- id relabelling: the search may not depend on id text or table order ------

def _relabelled_het(het, seed):
    """`het` over `_relabelled` copies of its categories, with every element
    renamed and every cell and action table shuffled by a seeded shuffle;
    and the maps from each new id back to the old one, for X, A and the
    elements."""
    x_cat, back_x = _relabelled(het.x_cat, 3 * seed)
    a_cat, back_a = _relabelled(het.a_cat, 3 * seed + 1)
    rng = random.Random(3 * seed + 2)
    new = [f"c{i}" for i in range(len(het.elements))]
    rng.shuffle(new)
    el = dict(zip(het.elements, new))
    to_x, to_a = ({old: new for new, old in back.items()} for back in (back_x, back_a))

    def shuffled(pairs):
        pairs = list(pairs)
        rng.shuffle(pairs)
        return pairs

    cells = {(to_x[x], to_a[a]): tuple(shuffled(map(el.get, elems)))
             for (x, a), elems in shuffled(het.cells.items())}
    left, right = ({to[m]: dict(shuffled((el[c], el[d]) for c, d in row.items()))
                    for m, row in shuffled(table.items())}
                   for table, to in ((het.act_left, to_x), (het.act_right, to_a)))
    back_c = {new: old for old, new in el.items()}
    return HetBifunctor("relabelled", x_cat, a_cat, cells, left, right), back_x, back_a, back_c


def _failed_sides(result):
    return [side for side in ("left", "right")
            if isinstance(getattr(result, side), NonRepresentabilityWitness)]


# seed 0 keeps the bare het name as its test id
@pytest.mark.parametrize("name, seed", [
    pytest.param(name, seed, id=f"{name}-{seed}" if seed else name)
    for name in sorted(POOL) for seed in range(6)])
def test_relabelling_ids_keeps_the_search_verdict(name, seed):
    _assert_relabelling_keeps_the_verdict(POOL[name], seed)


def _assert_relabelling_keeps_the_verdict(het, seed):
    # a represented side maps back to the original's adjoint up to the
    # canonical isomorphism; a failed side's index, mapped back, has no
    # universal element in the original, whichever index the scan met first;
    # and an adjunction passes every suite the CLI runs on it, whichever
    # automorphism the scan picked as its universal
    found = build_adjunction(het)
    relabelled, back_x, back_a, back_c = _relabelled_het(het, seed)
    result = build_adjunction(relabelled)
    assert _failed_sides(result) == _failed_sides(found)
    for side, source, target, back_s, back_t, compare in (
            ("left", het.x_cat, het.a_cat, back_x, back_a, compare_left_representation),
            ("right", het.a_cat, het.x_cat, back_a, back_x, compare_right_representation)):
        got = getattr(result, side)
        if isinstance(got, NonRepresentabilityWitness):
            index, scanned = back_s[got.index_object], het if side == "left" else dual(het)
            assert not any(universal_element_check(scanned, index, b, u)[0]
                           for b in scanned.a_cat.objects for u in scanned.cell(index, b))
            continue
        fun = got.functor
        mapped = FinFunctor("mapped", source, target,
                            {back_s[x]: back_t[y] for x, y in fun.obj_map.items()},
                            {back_s[f]: back_t[g] for f, g in fun.mor_map.items()})
        universals = {back_s[x]: back_c[u] for x, u in got.universal.items()}
        assert compare(getattr(found, side), mapped, universals).ok
    if isinstance(result, Adjunction):
        got, want = ([(c["name"], {v["law"] for v in c["violations"]})
                      for c in _full_suite(adj, 20_000)] for adj in (result, found))
        assert got == want


# -- a non-thin generator: groups as one-object categories ---------------------

def _cyclic(n):
    return [str(i) for i in range(n)], lambda f, g: str((int(f) + int(g)) % n), ["1"][:n - 1]


def _s3():
    # permutations of 0, 1, 2 as image strings; "f then g" is g after f
    perms = ["".join(map(str, p)) for p in itertools.permutations(range(3))]
    return perms, lambda f, g: "".join(g[int(i)] for i in f), ["102", "120"]


GROUPS = {**{f"Z/{n}": _cyclic(n) for n in range(1, 7)}, "S3": _s3()}


def _group_category(name):
    elements, then, _ = GROUPS[name]
    return FinCategory(name, ("*",), tuple(Morphism(g, "*", "*") for g in elements),
                       {"*": elements[0]}, {(f, g): then(f, g) for f in elements for g in elements})


@functools.cache
def _homomorphisms(m, n):
    """Every homomorphism from group m to group n, as an element map: each
    assignment of the generators, extended along products and kept if it
    respects every product."""
    (ms, m_then, gens), (ns, n_then, _) = GROUPS[m], GROUPS[n]
    found = []
    for images in itertools.product(ns, repeat=len(gens)):
        phi, frontier = {ms[0]: ns[0]}, [ms[0]]
        while frontier:
            x = frontier.pop()
            for g, image in zip(gens, images):
                if m_then(x, g) not in phi:
                    phi[m_then(x, g)] = n_then(phi[x], image)
                    frontier.append(m_then(x, g))
        if all(phi[m_then(f, g)] == n_then(phi[f], phi[g]) for f in ms for g in ms):
            found.append(phi)
    return found


def _group_het(m, n, phi):
    """Hom_N(phi-, -) over the groups m and n, for a homomorphism phi."""
    source, target = _group_category(m), _group_category(n)
    return build_het(f"Hom_{n}(phi-,-)", source, target, lambda x, a: target.hom("*", "*"),
                     lambda h, c: target.compose(phi[h], c), lambda k, c: target.compose(c, k))


@st.composite
def _group_hets(draw):
    """(m, n, phi): N is M half the time, so that automorphisms come up."""
    m = draw(st.sampled_from(sorted(GROUPS)))
    n = draw(st.just(m) | st.sampled_from(sorted(GROUPS)))
    return m, n, draw(st.sampled_from(_homomorphisms(m, n)))


@settings(deadline=None, derandomize=True, max_examples=60)
@given(_group_hets(), st.data())
def test_group_hom_along_a_homomorphism_is_left_represented_by_it(group_het, data):
    # Hom_N(phi-, -) is left represented by phi with universal 1_N (Yoneda);
    # it is right represented at * exactly when m -> phi(m) then e is a
    # bijection M -> N for some e, that is, when phi is bijective
    m, n, phi = group_het
    het = _group_het(m, n, phi)
    source, target = het.x_cat, het.a_cat
    fun = FinFunctor("phi", source, target, {"*": "*"}, dict(phi))
    assert check_functor(fun).ok and check_bifunctor(het).ok
    result = build_adjunction(het)
    assert compare_left_representation(result.left, fun, {"*": target.id_of("*")}).ok
    bijective = len(set(phi.values())) == len(phi) == len(target.morphisms)
    assert isinstance(result.right, RightRepresentation) == bijective
    _assert_relabelling_keeps_the_verdict(het, data.draw(st.integers(0, 5)))


# -- duality: the right side is the left side of the dual ----------------------

def _assert_duality(het):
    """build_adjunction(dual(het)) is G^op -| F^op on the tables: each side
    is the other side of het, with the same object and morphism maps and
    universal elements, or the same witness, and the unit and counit swap.
    The right search's representation is a left one of the dual."""
    found, dualised = build_adjunction(het), build_adjunction(dual(het))
    for side, other in (("left", "right"), ("right", "left")):
        got, want = getattr(dualised, side), getattr(found, other)
        if isinstance(want, NonRepresentabilityWitness):
            assert got == replace(want, side=side)
            continue
        assert isinstance(got, LeftRepresentation if side == "left" else RightRepresentation)
        assert (got.functor.obj_map, got.functor.mor_map, got.universal) == \
            (want.functor.obj_map, want.functor.mor_map, want.universal)
    if isinstance(found, Adjunction):
        assert dualised.unit.components == found.counit.components
        assert dualised.counit.components == found.unit.components
        # read off the universals, the unit and counit are the ones built
        # from phi and psi at the cells the functors name
        F, G, left, right = found.F, found.G, found.left, found.right
        assert found.unit.components == {x: right.phi[(x, F.on_obj(x))][left.universal[x]]
                                         for x in het.x_cat.objects}
        assert found.counit.components == {a: left.psi_inv(G.on_obj(a), a, right.universal[a])
                                           for a in het.a_cat.objects}
    right = find_right_representation(het)
    if isinstance(right, RightRepresentation):
        assert right.dual_left.het.name == f"{het.name}^op"
        assert check_left_representation(right.dual_left).ok


@pytest.mark.parametrize("name", sorted(POOL))
def test_dual_het_has_the_opposite_adjunction(name):
    _assert_duality(POOL[name])


@settings(deadline=None, derandomize=True, max_examples=20)
@given(_group_hets())
def test_dual_group_het_has_the_opposite_adjunction(group_het):
    _assert_duality(_group_het(*group_het))


# -- neither thin nor a group: submonoids of the transformation monoid T_n ----

def _then(f, g):
    # maps of {0, .., n-1} as image strings; "f then g" is g after f
    return "".join(g[int(i)] for i in f)


@st.composite
def _transformation_monoids(draw):
    """A submonoid of T_n, n = 2 or 3, as a one-object category: the
    closure of the identity under one to three maps, the first of them not
    a bijection, so that it is neither thin nor a group. Those of more than
    12 elements are left out: their comma checks exceed the suites' guard."""
    n = draw(st.sampled_from([2, 3]))
    maps = ["".join(p) for p in itertools.product("012"[:n], repeat=n)]
    gens = [draw(st.sampled_from([f for f in maps if len(set(f)) < n])),
            *draw(st.lists(st.sampled_from(maps), max_size=2))]
    elements = ["012"[:n]]
    for f in elements:      # grows as it is walked
        elements += [g for g in dict.fromkeys(_then(f, g) for g in gens) if g not in elements]
    assume(len(elements) <= 12)
    return FinCategory(f"T{n}<{','.join(gens)}>", ("*",),
                       tuple(Morphism(f, "*", "*") for f in elements), {"*": elements[0]},
                       {(f, g): _then(f, g) for f in elements for g in elements})


@settings(deadline=None, derandomize=True, max_examples=60)
@given(_transformation_monoids(), st.integers(0, 5))
def test_transformation_monoid_hom_keeps_its_adjunction_relabelled_and_dualised(cat, seed):
    # Hom of a monoid is birepresented by the identity functor, its
    # universals the invertible elements; Adjunction's check of the two
    # representations passes on the found, the relabelled and the dual one
    one, elements = cat.id_of("*"), [m.id for m in cat.morphisms]
    assert len(elements) > 1 and any(all(cat.compose(f, g) != one for g in elements)
                                     for f in elements)
    het = hom_bifunctor(cat)
    assert isinstance(build_adjunction(het), Adjunction)
    _assert_relabelling_keeps_the_verdict(het, seed)
    _assert_duality(het)


# -- a second poset generator: Hom_Q(f-, -) along a monotone f ---------------

@st.composite
def _monotone_maps(draw):
    """(P, Q, f): Q a random poset, f a random map from at most 5 points
    into it, and P's order drawn among the pairs f keeps in order, closed
    transitively, so that f is monotone."""
    qs, q_leq = draw(_posets("q"))
    n = draw(st.integers(1, 5))
    names = draw(st.permutations([f"p{i}" for i in range(n)]))
    f = dict(zip(names, draw(st.lists(st.sampled_from(qs), min_size=n, max_size=n))))
    below = {(i, i) for i in range(n)}
    below |= {(i, j) for i in range(n) for j in range(i + 1, n)
              if (f[names[i]], f[names[j]]) in q_leq and draw(st.booleans())}
    for k in range(n):      # Warshall: add every path through k
        below |= {(i, j) for i in range(n) for j in range(n)
                  if (i, k) in below and (k, j) in below}
    p_leq = {(names[i], names[j]) for i, j in below}
    return (names, p_leq), (qs, q_leq), f


@settings(deadline=None, derandomize=True, max_examples=150)
@given(_monotone_maps(), st.integers(0, 5))
def test_hom_along_a_monotone_map_is_left_represented_by_it(maps, seed):
    # Hom_Q(f-, -) is left represented by f with universal p R f(p) (Yoneda);
    # it is right represented exactly when each {p : f(p) <= a} has a
    # greatest element, G(a), the column oracle
    (ps, p_leq), (qs, q_leq), f = maps
    source, target = _poset_category("P", ps, p_leq), _poset_category("Q", qs, q_leq)
    rel = {(p, a) for p in ps for a in qs if (f[p], a) in q_leq}
    pair = {f"{p}R{a}": (p, a) for p, a in rel}
    het = build_het("Hom_Q(f-,-)", source, target,
                    lambda p, a: (f"{p}R{a}",) if (p, a) in rel else (),
                    lambda h, c: f"{source.dom(h)}R{pair[c][1]}",
                    lambda k, c: f"{pair[c][0]}R{target.cod(k)}")
    fun = FinFunctor("f", source, target, f,
                     {h.id: f"{f[h.dom]}<={f[h.cod]}" for h in source.morphisms})
    assert check_functor(fun).ok and check_bifunctor(het).ok
    result = build_adjunction(het)
    assert compare_left_representation(result.left, fun, {p: f"{p}R{f[p]}" for p in ps}).ok
    right = {a: _extremum([p for p in ps if (p, a) in rel], p_leq, False) for a in qs}
    assert isinstance(result.right, RightRepresentation) == (None not in right.values())
    if isinstance(result.right, RightRepresentation):
        assert result.right.functor.obj_map == right
    _assert_relabelling_keeps_the_verdict(het, seed)
    _assert_duality(het)


# -- negative controls for the representation checkers ------------------------

def _laws(report):
    return {v.law for v in report.violations}


@pytest.fixture(scope="module")
def hom_reps(skeleton2):
    het = hom_bifunctor(skeleton2)
    left, right = find_left_representation(het), find_right_representation(het)
    assert check_left_representation(left).ok and check_right_representation(right).ok
    return het, left, right


def _replace_right(rep, **changes):
    """rep with fields of its dual left representation changed."""
    return replace(rep, dual_left=replace(rep.dual_left, **changes))


def test_rewired_transpose_entry_is_reported(hom_reps):
    # the action of 1_2 on the universal 1_2 made the constant at 0: psi
    # (phi) sends 1_2 to it
    het, left, right = hom_reps
    for side, check, rep in (("act_right", check_left_representation, left),
                             ("act_left", check_right_representation, right)):
        tables = {s: {m: dict(t) for m, t in getattr(het, s).items()}
                  for s in ("act_left", "act_right")}
        tables[side]["2>2:0,1"]["2>2:0,1"] = "2>2:0,0"
        moved = HetBifunctor(het.name, het.x_cat, het.a_cat, dict(het.cells), **tables)
        bad = replace(left, het=moved) if rep is left else \
            RightRepresentation(moved, replace(right.dual_left, het=dual(moved)))
        assert "psi-bijective" in _laws(check(bad))


def test_right_representation_is_over_the_dual_of_its_het(hom_reps):
    # an action entry moved on either side, or a cell reordered, leaves
    # dual_left over another het than dual(het)
    het, _, right = hom_reps
    tables = {s: {m: dict(t) for m, t in getattr(het, s).items()}
              for s in ("act_left", "act_right")}
    tables["act_left"]["2>2:0,1"]["2>2:0,1"] = "2>2:0,0"
    moved = HetBifunctor(het.name, het.x_cat, het.a_cat, dict(het.cells), **tables)
    reordered = HetBifunctor(het.name, het.x_cat, het.a_cat,
                             {**het.cells, ("2", "2"): het.cells[("2", "2")][::-1]},
                             het.act_left, het.act_right)
    for bad in (lambda: replace(right, het=moved),
                lambda: _replace_right(right, het=dual(moved)),
                lambda: replace(right, het=reordered)):
        with pytest.raises(StructuralError, match=r"dual_left is not over dual\(Hom_"):
            bad()


def test_universal_in_another_cell_is_reported(hom_reps):
    het, left, right = hom_reps
    # same a (left) or same x (right), so every action on it is still defined
    moved = {**left.universal, "1": "2>1:0,0"}
    assert "universal-placement" in _laws(
        check_left_representation(replace(left, universal=moved)))
    moved = {**right.universal, "2": "2>1:0,0"}
    assert "universal-placement" in _laws(
        check_right_representation(_replace_right(right, universal=moved)))


def test_left_universal_off_its_column_is_reported(hom_reps):
    het, left, right = hom_reps
    # h_1 moved from cell (1, 1) to (1, 2): u.g is undefined for g out of 1
    moved = {**left.universal, "1": "1>2:0"}
    report = check_left_representation(replace(left, universal=moved))
    assert [(v.law, v.witness) for v in report.violations] == [
        ("universal-placement", ("1", "1>2:0"))]


def test_right_universal_off_its_row_is_reported(hom_reps):
    het, left, right = hom_reps
    # e_1 moved from cell (1, 1) to (2, 1): e.f is undefined for f into 1
    moved = {**right.universal, "1": "2>1:0,0"}
    report = check_right_representation(_replace_right(right, universal=moved))
    assert [(v.law, v.witness) for v in report.violations] == [
        ("universal-placement", ("1", "2>1:0,0"))]


def test_rewired_functor_image_is_reported(hom_reps):
    het, left, right = hom_reps
    for rep, check in ((left, check_left_representation),
                       (right.dual_left, check_right_representation)):
        fun = rep.functor
        bad = FinFunctor(fun.name, fun.source, fun.target, fun.obj_map,
                         {**fun.mor_map, "2>2:0,1": "2>2:1,0"})
        bad = replace(rep, functor=bad)
        report = check(bad if rep is left else replace(right, dual_left=bad))
        assert "composition-preservation" in _laws(report)
        assert {"psi-naturality-left", "psi-naturality-right"} & _laws(report)


def test_stray_composition_entry_does_not_hide_an_uncomposable_pair(chain2):
    """The naturality check in x reads A's composition table directly only
    where Fh ends at Fx; an entry recorded for a pair that does not compose
    still ends in compose's error, and so does a composite the table lacks."""
    stray = FinCategory("chain2+", chain2.objects, chain2.morphisms, chain2.identity,
                        {**chain2.comp, ("i0", "i1"): "i0"})
    hom = hom_bifunctor(chain2)
    het = HetBifunctor(hom.name, chain2, stray, hom.cells, hom.act_left, hom.act_right)
    left = replace(find_left_representation(hom), het=het)
    fun = left.functor
    bad = FinFunctor(fun.name, fun.source, fun.target, fun.obj_map,
                     {**fun.mor_map, "le": "i0"})
    with pytest.raises(StructuralError, match="i0 and i1 are not composable"):
        check_left_representation(replace(left, functor=bad))
    # nor does a composite missing from the table pass unseen: over Hom(0, -)
    # on the one-object X, only naturality in a reads the pair (le, i1)
    point = FinCategory("point", ("0",), (Morphism("e", "0", "0"),), {"0": "e"},
                        {("e", "e"): "e"})
    het = build_het("Hom(0,-)", point, chain2, lambda x, a: chain2.hom("0", a),
                    lambda h, c: c, lambda k, c: chain2.compose(c, k))
    missing = FinCategory("chain2-", chain2.objects, chain2.morphisms, chain2.identity,
                          {fg: h for fg, h in chain2.comp.items() if fg != ("le", "i1")})
    rep = find_left_representation(het)
    with pytest.raises(StructuralError, match=r"composition table missing \(le, i1\)"):
        check_left_representation(replace(rep, het=replace(het, a_cat=missing)))


@pytest.mark.parametrize("side", ["act_left", "act_right"])
def test_missing_action_entry_in_a_naturality_square_is_structural(hom_reps, side):
    """psi is read off the right action at each h_x only; an entry that only
    a naturality square reads, here the swap of 2 acting on itself, ends in
    the action's error when it is missing, not in a law violation."""
    het, left, right = hom_reps
    tables = {s: dict(getattr(het, s)) for s in ("act_left", "act_right")}
    tables[side]["2>2:1,0"] = {c: d for c, d in tables[side]["2>2:1,0"].items()
                               if c != "2>2:1,0"}
    bad = HetBifunctor(het.name, het.x_cat, het.a_cat, het.cells, **tables)
    with pytest.raises(StructuralError, match=f"{side[4:]} action of '2>2:1,0' undefined "
                                              "at '2>2:1,0'"):
        check_left_representation(replace(left, het=bad))


def test_expected_functor_without_inverse_mediator_is_reported(hom_reps):
    het, left, right = hom_reps
    # the constant map 2 -> 2 factors the identity one way only
    expected = {**left.universal, "2": "2>2:0,0"}
    report = compare_left_representation(left, left.functor, expected)
    assert [(v.law, v.witness) for v in report.violations] == [
        ("comparison-mediator", ("2",))]
    expected = {**right.universal, "2": "2>2:0,0"}
    report = compare_right_representation(right, right.functor, expected)
    assert [(v.law, v.witness) for v in report.violations] == [
        ("comparison-mediator", ("2",))]
