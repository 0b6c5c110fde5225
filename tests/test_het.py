"""Het-bifunctor laws and the representability machinery, checked against
independent brute-force oracles."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetcat import (CandidateFailure, FinFunctor, HetBifunctor, KernelInvariantError,
                    LeftRepresentation, NonRepresentabilityWitness,
                    RightRepresentation, StructuralError, build_het,
                    check_bifunctor, check_functor, check_left_representation,
                    check_right_representation, co_universal_element_check,
                    compare_left_representation, compare_right_representation,
                    dual, find_left_representation, find_right_representation,
                    hom_bifunctor, universal_element_check)
from hetcat.instances import (colimits_adjunction, finset_skeleton,
                              galois_connections, limits_adjunction,
                              pointed_free_forgetful, preorder_adjunction_chain,
                              product_exponential)
from hetcat.report import LawReport


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
    fun = FinFunctor(f"G[{het.name}]", het.a_cat, het.x_cat, obj_map, mor_map)
    phi = {}
    for x in het.x_cat.objects:
        for a in het.a_cat.objects:
            inverse = {f: het.act_l(f, chosen[a][1])
                       for f in het.x_cat.hom(x, obj_map[a])}
            phi[(x, a)] = {c: f for f, c in inverse.items()}
    rep = RightRepresentation(het, fun, {a: u for a, (_, u) in chosen.items()},
                              phi, equivalents)
    problems = _reference_check_right_representation(rep)
    if not problems.ok:
        raise KernelInvariantError(
            f"constructed right representation fails its own laws:\n{problems.summary()}")
    return rep


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
        assert [(k, list(t.items())) for k, t in got.phi.items()] == \
            [(k, list(t.items())) for k, t in want.phi.items()]
        assert got.equivalent_universals == want.equivalent_universals


def _draw_other(data, current, preferred, fallback):
    """A value other than current, from preferred if it has one."""
    options = [v for v in preferred if v != current] or \
        [v for v in fallback if v != current]
    return data.draw(st.sampled_from(options))


def _corrupt_right(rep, data):
    """One corruption that changes the rep; rewired entries keep their types
    where they can, so that most corruptions are law violations rather than
    undefined lookups."""
    het, fun = rep.het, rep.functor
    xc, mids = het.x_cat, [m.id for m in het.x_cat.morphisms]
    kind = data.draw(st.sampled_from(
        ("phi-rewire", "phi-drop", "phi-extra", "universal", "functor-mor", "functor-obj")))
    phi = {cell: dict(t) for cell, t in rep.phi.items()}
    universal, obj_map, mor_map = dict(rep.universal), dict(fun.obj_map), dict(fun.mor_map)
    entries = sorted((cell, c) for cell, t in phi.items() for c in t)
    if kind == "phi-rewire" and entries:
        (x, a), c = data.draw(st.sampled_from(entries))
        phi[(x, a)][c] = _draw_other(data, phi[(x, a)][c], xc.hom(x, fun.on_obj(a)), mids)
    elif kind == "phi-drop" and entries:
        cell, c = data.draw(st.sampled_from(entries))
        del phi[cell][c]
    elif kind == "phi-extra" and het.elements:
        cell = data.draw(st.sampled_from(sorted(phi)))
        phi[cell][data.draw(st.sampled_from(sorted(het.elements)))] = \
            data.draw(st.sampled_from(mids))
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
    return RightRepresentation(het, corrupted, universal, phi, rep.equivalent_universals)


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
        assert [v for v in got.violations if v.law == "phi-domain"] == \
            [v for v in want.violations if v.law == "phi-domain"]
    got_ok, got = _verdict(lambda r: compare_right_representation(
        r, found.functor, found.universal), rep)
    want_ok, want = _verdict(lambda r: _reference_compare_right_representation(
        r, found.functor, found.universal), rep)
    assert got_ok == want_ok
    if got and want:
        assert [(v.law, v.witness) for v in got.violations] == \
            [(v.law, v.witness) for v in want.violations]


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


# -- negative controls for the representation checkers ------------------------

def _laws(report):
    return {v.law for v in report.violations}


@pytest.fixture(scope="module")
def hom_reps(skeleton2):
    het = hom_bifunctor(skeleton2)
    left, right = find_left_representation(het), find_right_representation(het)
    assert check_left_representation(left).ok and check_right_representation(right).ok
    return het, left, right


def test_rewired_transpose_entry_is_reported(hom_reps):
    het, left, right = hom_reps
    psi = {cell: dict(t) for cell, t in left.psi.items()}
    psi[("2", "2")]["2>2:0,1"] = "2>2:0,0"
    assert {"psi-bijective", "psi-formula"} <= _laws(
        check_left_representation(replace(left, psi=psi)))
    phi = {cell: dict(t) for cell, t in right.phi.items()}
    phi[("2", "2")]["2>2:0,1"] = "2>2:0,0"
    report = check_right_representation(replace(right, phi=phi))
    assert not report.ok
    assert "phi-domain" not in _laws(report)


def test_universal_in_another_cell_is_reported(hom_reps):
    het, left, right = hom_reps
    # same a (left) or same x (right), so every action on it is still defined
    moved = {**left.universal, "1": "2>1:0,0"}
    assert "universal-placement" in _laws(
        check_left_representation(replace(left, universal=moved)))
    moved = {**right.universal, "2": "2>1:0,0"}
    assert "universal-placement" in _laws(
        check_right_representation(replace(right, universal=moved)))


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
    report = check_right_representation(replace(right, universal=moved))
    assert [(v.law, v.witness) for v in report.violations] == [
        ("universal-placement", ("1", "2>1:0,0"))]


def test_rewired_functor_image_is_reported(hom_reps):
    het, left, right = hom_reps
    for rep, check in ((left, check_left_representation),
                       (right, check_right_representation)):
        fun = rep.functor
        bad = FinFunctor(fun.name, fun.source, fun.target, fun.obj_map,
                         {**fun.mor_map, "2>2:0,1": "2>2:1,0"})
        report = check(replace(rep, functor=bad))
        assert "composition-preservation" in _laws(report)
        assert {"psi-naturality-left", "psi-naturality-right"} & _laws(report)


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
