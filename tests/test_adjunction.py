"""Adjunction assembly and every derived structure: transposes, squares,
zig-zags, the four-bifunctor isomorphism, identities, and the round-trip."""

import dataclasses
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetcat import (Adjunction, HalfAdjunction, StructuralError, abstract_het,
                    adjunctive_image_square, adjunctive_square,
                    adjunctive_square_from_transpose, build_adjunction, build_het,
                    check_bifunctor, check_chimera_nat_trans, chimera_counit, dual,
                    chimera_unit, four_bifunctor_iso, lawvere_iso_check,
                    over_and_back_and_triangles, representation_roundtrip,
                    transpose, transpose_inv, z_bifunctor, zig_zag_factorize)
from hetcat.adjunction import AbstractHet, ChimeraNatTrans
from hetcat.fincat import (FinCategory, FinFunctor, Morphism, identity_functor,
                           pair_id)
from hetcat.het import (HetBifunctor, LeftRepresentation, RightRepresentation,
                        check_right_representation, compare_left_representation,
                        compare_right_representation, hom_bifunctor)
from hetcat.instances import ur_adjunction
from hetcat.instances.finset import fn_images


# -- build ---------------------------------------------------------------------

def test_ur_adjunction_is_identity(terminal_cat, chain2, skeleton2):
    for cat in (terminal_cat, chain2, skeleton2):
        adj = ur_adjunction(cat)
        assert adj.F == identity_functor(cat) == adj.G
        assert all(adj.eta(x) == cat.id_of(x) for x in cat.objects)
        assert all(adj.eps(a) == cat.id_of(a) for a in cat.objects)


def test_a_right_representation_over_another_het_is_refused(skeleton2):
    # an adjunction is its two representations over one het object; an equal
    # copy of the het is another
    adj = ur_adjunction(skeleton2)
    assert [f.name for f in dataclasses.fields(Adjunction)] == ["left", "right"]
    assert adj.het is adj.left.het is adj.right.het
    copy = dataclasses.replace(adj.het)
    for left, right in ((adj.left, RightRepresentation(copy, adj.right.dual_left)),
                        (dataclasses.replace(adj.left, het=copy), adj.right)):
        with pytest.raises(StructuralError, match="right representation over another het"):
            Adjunction(left, right)


def test_galois_build_recovers_image_functors(galois, galois_lower_adj):
    adj = galois_lower_adj
    assert adj.F.obj_map == galois.direct_image
    assert adj.G.obj_map == galois.preimage


def test_one_sided_result_is_first_class(pointed2):
    result = build_adjunction(pointed2.het)
    assert isinstance(result, HalfAdjunction)
    assert result.left_ok and not result.right_ok
    assert result.failed_sides() == ("right",)
    assert "no universal element" in result.describe()


# -- transposes ------------------------------------------------------------------

def test_transpose_of_identity_is_unit(galois_lower_adj):
    adj = galois_lower_adj
    for x in adj.x_cat.objects:
        fx = adj.F.on_obj(x)
        assert transpose(adj, x, adj.a_cat.id_of(fx)) == adj.eta(x)


def test_transpose_inv_of_identity_is_counit(galois_lower_adj):
    adj = galois_lower_adj
    for a in adj.a_cat.objects:
        ga = adj.G.on_obj(a)
        assert transpose_inv(adj, a, adj.x_cat.id_of(ga)) == adj.eps(a)


def test_galois_transpose_example(galois, galois_lower_adj):
    # the transpose of the inclusion image({0}) <= {a} is {0} <= preimage({a})
    adj = galois_lower_adj
    g = "{a}<={a}"              # image({0}) = {a} included in {a}
    f = transpose(adj, "{0}", g)
    assert f == "{0}<={0,1}"
    assert galois.preimage["{a}"] == "{0,1}"


def test_transposes_are_mutually_inverse(galois_lower_adj, ur_chain2):
    for adj in (galois_lower_adj, ur_chain2):
        for x in adj.x_cat.objects:
            for a in adj.a_cat.objects:
                for g in adj.a_cat.hom(adj.F.on_obj(x), a):
                    assert transpose_inv(adj, a, transpose(adj, x, g)) == g
                for f in adj.x_cat.hom(x, adj.G.on_obj(a)):
                    assert transpose(adj, x, transpose_inv(adj, a, f)) == f


def test_transpose_shape_mismatch_is_structural(galois_lower_adj):
    adj = galois_lower_adj
    with pytest.raises(StructuralError):
        transpose(adj, "{0}", "{}<={}")
    with pytest.raises(StructuralError):
        transpose_inv(adj, "{a}", "{}<={}")


# -- squares ---------------------------------------------------------------------

def test_square_seeded_by_unit_has_identity_bottom(galois_lower_adj):
    adj = galois_lower_adj
    for x in adj.x_cat.objects:
        fx = adj.F.on_obj(x)
        sq = adjunctive_square(adj, fx, adj.eta(x))
        assert sq.commutes
        assert sq.bottom[1] == adj.a_cat.id_of(fx)


def test_square_seeded_by_identity_has_counit_bottom(galois_lower_adj):
    adj = galois_lower_adj
    for a in adj.a_cat.objects:
        ga = adj.G.on_obj(a)
        sq = adjunctive_square(adj, a, adj.x_cat.id_of(ga))
        assert sq.commutes
        assert sq.bottom[1] == adj.eps(a)


def test_galois_square_commutes_everywhere(galois_lower_adj):
    adj = galois_lower_adj
    for x in adj.x_cat.objects:
        for a in adj.a_cat.objects:
            for f in adj.x_cat.hom(x, adj.G.on_obj(a)):
                sq = adjunctive_square(adj, a, f)
                assert sq.commutes
                assert sq.main_diagonal == (f, transpose_inv(adj, a, f))
                assert sq.anti_diagonal == (adj.G.on_mor(sq.main_diagonal[1]),
                                            adj.F.on_mor(f))


def test_square_from_transpose_matches(galois_lower_adj):
    adj = galois_lower_adj
    for x in adj.x_cat.objects:
        for a in adj.a_cat.objects:
            for g in adj.a_cat.hom(adj.F.on_obj(x), a):
                sq = adjunctive_square_from_transpose(adj, x, g)
                assert sq.commutes and sq.bottom[1] == g


def test_image_square_for_identity_seed(galois_lower_adj):
    adj = galois_lower_adj
    a = "{a}"
    ga = adj.G.on_obj(a)
    sq = adjunctive_image_square(adj, a, adj.x_cat.id_of(ga))
    assert sq.commutes
    # the bottom main-diagonal data degenerate to the counit composites
    assert sq.main_diagonal == (adj.G.on_mor(adj.eps(a)), adj.F.on_mor(adj.x_cat.id_of(ga)))


def test_ur_image_square_equals_original(ur_chain2):
    adj = ur_chain2
    sq = adjunctive_square(adj, "1", "le")
    isq = adjunctive_image_square(adj, "1", "le")
    # the twist is the identity, so corners and edges coincide
    assert (sq.nw, sq.ne, sq.sw, sq.se) == (isq.nw, isq.ne, isq.sw, isq.se)
    assert sq.top == isq.top and sq.bottom == isq.bottom
    assert sq.main_diagonal == isq.main_diagonal


def test_galois_image_squares_commute(galois_lower_adj):
    adj = galois_lower_adj
    for a in adj.a_cat.objects:
        for f in adj.x_cat.hom("{0}", adj.G.on_obj(a)):
            assert adjunctive_image_square(adj, a, f).commutes


# -- zig-zag ---------------------------------------------------------------------

def test_zigzag_of_chimera_unit_collapses(galois_lower_adj):
    adj = galois_lower_adj
    for x in adj.x_cat.objects:
        zz = zig_zag_factorize(adj, adj.h(x))
        assert zz.ok
        # z(h_x) is the second half of the unit: (identity, F eta_x)
        fx = adj.F.on_obj(x)
        assert zz.anti_diagonal == (adj.x_cat.id_of(adj.G.on_obj(fx)),
                                    adj.F.on_mor(adj.eta(x)))


def test_zigzag_of_chimera_counit_collapses(galois_lower_adj):
    adj = galois_lower_adj
    for a in adj.a_cat.objects:
        zz = zig_zag_factorize(adj, adj.e(a))
        assert zz.ok
        ga = adj.G.on_obj(a)
        assert zz.anti_diagonal == (adj.G.on_mor(adj.eps(a)),
                                    adj.a_cat.id_of(adj.F.on_obj(ga)))


def test_zigzag_unique_for_every_heteromorphism(galois_lower_adj, ur_chain2):
    for adj in (galois_lower_adj, ur_chain2):
        for c in adj.het.elements:
            zz = zig_zag_factorize(adj, c)
            assert zz.ok and zz.factor_count == 1


def test_limits_zigzag_recovers_chain(limits_pp2, limits_pp2_adj):
    # a cone w => D factors as w => Delta w => Lim D => D
    adj = limits_pp2_adj
    inst = limits_pp2
    count = 0
    for w in inst.skeleton.objects:
        for did in inst.diagrams.objects:
            for c in inst.het.cell(w, did):
                zz = zig_zag_factorize(adj, c)
                assert zz.ok
                assert zz.sending_universal == inst.identity_cones[w]
                assert zz.receiving_universal == inst.projection_cones[did]
                count += 1
    assert count > 0


# -- four-bifunctor isomorphism and identities -------------------------------------

def test_four_bifunctor_iso_ur_cells_coincide(ur_chain2):
    assert four_bifunctor_iso(ur_chain2).ok
    zb = z_bifunctor(ur_chain2)
    het = ur_chain2.het
    for x in het.x_cat.objects:
        for a in het.a_cat.objects:
            assert len(zb.cell(x, a)) == len(het.cell(x, a)) \
                == len(het.x_cat.hom(x, a))


def test_four_bifunctor_iso_galois_truth_table(galois, galois_lower_adj):
    assert four_bifunctor_iso(galois_lower_adj).ok
    adj = galois_lower_adj
    zb = z_bifunctor(adj)
    for x in adj.x_cat.objects:
        for a in adj.a_cat.objects:
            relation = galois.direct_image[x] == a or \
                f"{galois.direct_image[x]}<={a}" in adj.a_cat.hom(galois.direct_image[x], a)
            het_nonempty = bool(adj.het.cell(x, a))
            z_nonempty = bool(zb.cell(x, a))
            hom_nonempty = bool(adj.x_cat.hom(x, galois.preimage[a]))
            assert relation == het_nonempty == z_nonempty == hom_nonempty


def test_identity_suite_ur_and_galois(ur_chain2, galois_lower_adj, galois_upper_adj):
    for adj in (ur_chain2, galois_lower_adj, galois_upper_adj):
        assert over_and_back_and_triangles(adj).ok


def test_galois_over_and_back_equals_image_identities(galois):
    # the suite's over-and-back identities specialize to the set identities
    f_map = galois.f_map
    def image(sub):
        return frozenset(f_map[e] for e in sub)
    def pre(sub):
        return frozenset(e for e in galois.s_universe if f_map[e] in sub)
    for x in map(lambda o: frozenset(o.strip("{}").split(",")) - {""},
                 galois.dom_poset.objects):
        assert image(pre(image(x))) == image(x)
    for a in map(lambda o: frozenset(o.strip("{}").split(",")) - {""},
                 galois.cod_poset.objects):
        assert pre(image(pre(a))) == pre(a)


def test_identity_suite_limits(limits_pp2_adj):
    assert over_and_back_and_triangles(limits_pp2_adj).ok


# -- chimera natural transformations -----------------------------------------------

def test_chimera_unit_and_counit_of_limits(limits_pp1):
    adj = build_adjunction(limits_pp1.het)
    assert isinstance(adj, Adjunction)
    h = chimera_unit(adj)      # 1_Set => Delta with identity-cone components
    e = chimera_counit(adj)    # Lim => 1 with projection-cone components
    assert check_chimera_nat_trans(h).ok
    assert check_chimera_nat_trans(e).ok
    assert h.components == limits_pp1.identity_cones
    assert e.components == limits_pp1.projection_cones


def test_broken_chimera_component_fails(limits_pp2, limits_pp2_adj):
    adj = limits_pp2_adj
    e = chimera_counit(adj)
    components = dict(e.components)
    # replace one projection cone by a different cone in the same cell
    for did in limits_pp2.diagrams.objects:
        cell = limits_pp2.het.cell(adj.G.on_obj(did), did)
        others = [c for c in cell if c != components[did]]
        if others:
            components[did] = others[0]
            break
    else:
        pytest.fail("no alternative cone available at n=2")
    broken = ChimeraNatTrans("broken", e.left_functor, e.right_functor,
                             e.het, components)
    assert not check_chimera_nat_trans(broken).ok


def test_chimera_component_outside_cell_is_structural(limits_pp1):
    adj = build_adjunction(limits_pp1.het)
    e = chimera_counit(adj)
    components = dict(e.components)
    moved = None
    for did in limits_pp1.diagrams.objects:
        for w in limits_pp1.skeleton.objects:
            if w != adj.G.on_obj(did) and limits_pp1.het.cell(w, did):
                components[did] = limits_pp1.het.cell(w, did)[0]
                moved = did
                break
        if moved:
            break
    assert moved is not None
    broken = ChimeraNatTrans("bad", e.left_functor, e.right_functor,
                             e.het, components)
    with pytest.raises(StructuralError):
        check_chimera_nat_trans(broken)


@pytest.mark.parametrize("edit, message", [
    (lambda h, adj: dataclasses.replace(h, right_functor=identity_functor(adj.a_cat)),
     "h: functors have different sources"),
    (lambda h, adj: dataclasses.replace(h, het=hom_bifunctor(adj.x_cat)),
     "h: het-bifunctor does not match functor targets"),
    (lambda h, adj: dataclasses.replace(h, components={}), "h: no component at '{}'"),
], ids=["sources", "targets", "component"])
def test_chimera_that_does_not_fit_its_het_is_structural(galois_lower_adj, edit, message):
    # h: 1_X => F, over the het of X = P(S) and A = P(T)
    h = dataclasses.replace(chimera_unit(galois_lower_adj), name="h")
    with pytest.raises(StructuralError) as info:
        check_chimera_nat_trans(edit(h, galois_lower_adj))
    assert str(info.value) == message


# -- abstract het and the round-trip -------------------------------------------------

def test_abstract_het_cell_sizes(galois_lower_adj):
    adj = galois_lower_adj
    ah = abstract_het(adj)
    for x in adj.x_cat.objects:
        for a in adj.a_cat.objects:
            xh = ah.embed_x.on_obj(x)
            ah_obj = ah.embed_a.on_obj(a)
            assert len(ah.het.cell(xh, ah_obj)) == \
                len(adj.x_cat.hom(x, adj.G.on_obj(a)))


def test_abstract_het_passes_bifunctor_laws(ur_chain2, galois_lower_adj):
    for adj in (ur_chain2, galois_lower_adj):
        ah = abstract_het(adj)
        assert check_bifunctor(ah.het).ok


def test_ur_abstract_het_is_diagonal_hom(ur_chain2):
    ah = abstract_het(ur_chain2)
    het = ur_chain2.het
    for x in het.x_cat.objects:
        for a in het.a_cat.objects:
            assert len(ah.het.cell(ah.embed_x.on_obj(x), ah.embed_a.on_obj(a))) \
                == len(het.x_cat.hom(x, a))


def _reference_abstract_het(adj):
    """Build Het(x-hat, a-hat) = { (f, f*) : (x, Fx) -> (Ga, a) }, with each
    embedded copy and functor written out.

    The cells are the main-diagonal pairs of commutative adjunctive squares;
    the actions are componentwise pre/postcomposition with the embedded
    morphisms, hence closed by the naturality of the transpose.
    """
    xc, ac = adj.x_cat, adj.a_cat
    F, G = adj.F, adj.G

    def hat_x_obj(x: str) -> str:
        return pair_id(x, F.on_obj(x))

    def hat_a_obj(a: str) -> str:
        return pair_id(G.on_obj(a), a)

    x_hat = FinCategory(
        name=f"{xc.name}-hat",
        objects=tuple(hat_x_obj(x) for x in xc.objects),
        morphisms=tuple(
            Morphism(pair_id(j.id, F.on_mor(j.id)), hat_x_obj(j.dom), hat_x_obj(j.cod))
            for j in xc.morphisms),
        identity={hat_x_obj(x): pair_id(xc.id_of(x), F.on_mor(xc.id_of(x)))
                  for x in xc.objects},
        comp={(pair_id(j1, F.on_mor(j1)), pair_id(j2, F.on_mor(j2))):
              pair_id(j12, F.on_mor(j12))
              for (j1, j2), j12 in xc.comp.items()},
    )
    a_hat = FinCategory(
        name=f"{ac.name}-hat",
        objects=tuple(hat_a_obj(a) for a in ac.objects),
        morphisms=tuple(
            Morphism(pair_id(G.on_mor(k.id), k.id), hat_a_obj(k.dom), hat_a_obj(k.cod))
            for k in ac.morphisms),
        identity={hat_a_obj(a): pair_id(G.on_mor(ac.id_of(a)), ac.id_of(a))
                  for a in ac.objects},
        comp={(pair_id(G.on_mor(k1), k1), pair_id(G.on_mor(k2), k2)):
              pair_id(G.on_mor(k12), k12)
              for (k1, k2), k12 in ac.comp.items()},
    )
    # index the hat objects back to their sources; the embeddings are bijective
    x_of_hat = {hat_x_obj(x): x for x in xc.objects}
    a_of_hat = {hat_a_obj(a): a for a in ac.objects}

    def cell_fn(xh: str, ah: str) -> tuple[str, ...]:
        x, a = x_of_hat[xh], a_of_hat[ah]
        return tuple(pair_id(f, transpose_inv(adj, a, f))
                     for f in xc.hom(x, G.on_obj(a)))

    cells = {(xh, ah): cell_fn(xh, ah) for xh in x_hat.objects for ah in a_hat.objects}
    pair_of = {}
    for (xh, ah), elems in cells.items():
        x, a = x_of_hat[xh], a_of_hat[ah]
        for cid, f in zip(elems, xc.hom(x, G.on_obj(a))):
            pair_of[cid] = (x, a, f, transpose_inv(adj, a, f))

    act_left = {}
    for j in xc.morphisms:
        jid = pair_id(j.id, F.on_mor(j.id))
        table = {}
        for ah in a_hat.objects:
            for cid in cells[(hat_x_obj(j.cod), ah)]:
                x, a, f, g = pair_of[cid]
                nf = xc.compose(j.id, f)
                table[cid] = pair_id(nf, transpose_inv(adj, a, nf))
        act_left[jid] = table
    act_right = {}
    for k in ac.morphisms:
        kid = pair_id(G.on_mor(k.id), k.id)
        table = {}
        for xh in x_hat.objects:
            for cid in cells[(xh, hat_a_obj(k.dom))]:
                x, a, f, g = pair_of[cid]
                nf = xc.compose(f, G.on_mor(k.id))
                table[cid] = pair_id(nf, transpose_inv(adj, k.cod, nf))
        act_right[kid] = table
    het = HetBifunctor(f"abstract[{adj.het.name}]", x_hat, a_hat,
                       cells, act_left, act_right)
    f_hat = FinFunctor(
        name="F-hat", source=x_hat, target=a_hat,
        obj_map={hat_x_obj(x): hat_a_obj(F.on_obj(x)) for x in xc.objects},
        mor_map={pair_id(j.id, F.on_mor(j.id)):
                 pair_id(G.on_mor(F.on_mor(j.id)), F.on_mor(j.id))
                 for j in xc.morphisms},
    )
    g_hat = FinFunctor(
        name="G-hat", source=a_hat, target=x_hat,
        obj_map={hat_a_obj(a): hat_x_obj(G.on_obj(a)) for a in ac.objects},
        mor_map={pair_id(G.on_mor(k.id), k.id):
                 pair_id(G.on_mor(k.id), F.on_mor(G.on_mor(k.id)))
                 for k in ac.morphisms},
    )
    embed_x = FinFunctor(
        name="embed-X", source=xc, target=x_hat,
        obj_map={x: hat_x_obj(x) for x in xc.objects},
        mor_map={j.id: pair_id(j.id, F.on_mor(j.id)) for j in xc.morphisms},
    )
    embed_a = FinFunctor(
        name="embed-A", source=ac, target=a_hat,
        obj_map={a: hat_a_obj(a) for a in ac.objects},
        mor_map={k.id: pair_id(G.on_mor(k.id), k.id) for k in ac.morphisms},
    )
    return AbstractHet(het, x_hat, a_hat, f_hat, g_hat, embed_x, embed_a)


def _category_tables(cat):
    return (cat.name, cat.objects, [(m.id, m.dom, m.cod, m.label) for m in cat.morphisms],
            list(cat.identity.items()), list(cat.comp.items()))


def _functor_tables(fun):
    return (fun.name, _category_tables(fun.source), _category_tables(fun.target),
            list(fun.obj_map.items()), list(fun.mor_map.items()))


def _abstract_tables(ah):
    het = ah.het
    return (het.name, _category_tables(het.x_cat), _category_tables(het.a_cat),
            list(het.cells.items()),
            [(m, list(t.items())) for m, t in het.act_left.items()],
            [(m, list(t.items())) for m, t in het.act_right.items()],
            _category_tables(ah.x_hat), _category_tables(ah.a_hat),
            *map(_functor_tables, (ah.f_hat, ah.g_hat, ah.embed_x, ah.embed_a)))


@pytest.fixture(scope="module")
def limits_pp1_adj(limits_pp1):
    adj = build_adjunction(limits_pp1.het)
    assert isinstance(adj, Adjunction)
    return adj


@pytest.mark.parametrize("adj_name", ["ur_skeleton2", "galois_lower_adj", "limits_pp1_adj"])
def test_abstract_het_matches_reference(request, skeleton2, adj_name):
    adj = ur_adjunction(skeleton2) if adj_name == "ur_skeleton2" \
        else request.getfixturevalue(adj_name)
    assert _abstract_tables(abstract_het(adj)) == _abstract_tables(_reference_abstract_het(adj))


def test_roundtrip_ur_and_galois(ur_chain2, galois_lower_adj, galois_upper_adj):
    for adj in (ur_chain2, galois_lower_adj, galois_upper_adj):
        assert representation_roundtrip(adj).ok


# -- negative controls: corrupted copies of a valid adjunction ------------------

def _laws(report):
    return {v.law for v in report.violations}


def _square_laws(square, adj, seeds):
    return set().union(*(_laws(square(adj, a, f).report) for a, f in seeds))


def _suite_laws(adj):
    """The laws each suite reports, by suite; squares, image squares and
    zig-zags over every f: x -> Ga and every heteromorphism."""
    seeds = [(a, f) for x in adj.x_cat.objects for a in adj.a_cat.objects
             for f in adj.x_cat.hom(x, adj.G.on_obj(a))]
    return {
        "four": _laws(four_bifunctor_iso(adj)),
        "identities": _laws(over_and_back_and_triangles(adj)),
        "squares": _square_laws(adjunctive_square, adj, seeds),
        "image squares": _square_laws(adjunctive_image_square, adj, seeds),
        "roundtrip": _laws(representation_roundtrip(adj)),
        "lawvere": _laws(lawvere_iso_check(adj)),
        "zigzag": set().union(*(_laws(zig_zag_factorize(adj, c).report)
                                for c in adj.het.elements)),
    }


def _swapped_at(het, side, m, c, image):
    """het with the actions of m and image on c swapped."""
    table = getattr(het, side)
    return dataclasses.replace(het, **{side: {
        **table, m: {**table[m], c: table[image][c]}, image: {**table[image], c: table[m][c]}}})


def _reps_over(left, right, het):
    """The representations left and right with their one het replaced by
    `het`, on both sides."""
    return dataclasses.replace(left, het=het), RightRepresentation(
        het, dataclasses.replace(right.dual_left, het=dual(het)))


def _over(adj, het):
    """adj with its one het replaced by `het`, on both sides."""
    return Adjunction(*_reps_over(adj.left, adj.right, het))


# what every suite reports where the unit or the counit is made constant at 2
_CONSTANT_AT_2 = {
    "four": {"z-naturality-left", "z-naturality-right"},
    "squares": {"square-first-component", "square-second-component"},
    "image squares": {"image-square-second-component"},
    "roundtrip": {"sending-expected-universal-placement"},
    "lawvere": {"morphism-correspondence", "morphism-bijection"},
    "zigzag": {"upper-triangle", "lower-triangle", "zig-zag-action-top",
               "zig-zag-action-bottom"},
}


def test_law_suites_report_a_corrupted_counit(skeleton2):
    # eps_2 = psi^-1(e_2) is read from the right action at h_2 = 1_2: with
    # the right actions of 1_2 and of the constant 0,0 on it swapped, eps_2
    # is that constant, and psi^-1(h_2) too, which h2-form reports
    adj = ur_adjunction(skeleton2)
    bad = _over(adj, _swapped_at(adj.het, "act_right", "2>2:0,0", "2>2:0,1", "2>2:0,1"))
    assert bad.counit.components == {**adj.counit.components, "2": "2>2:0,0"}
    assert bad.unit.components == adj.unit.components
    assert _suite_laws(bad) == {
        **_CONSTANT_AT_2,
        "identities": {"factorization-unit", "factorization-over-across-f",
                       "factorization-counit", "triangular-identity-F",
                       "triangular-identity-G", "h2-form"},
    }


def test_law_suites_report_a_corrupted_psi(skeleton2):
    # psi is read off the right action at h_1 = 1_1, which swaps the two
    # maps 1 -> 2 in the one het
    adj = ur_adjunction(skeleton2)
    bad = _over(adj, _swapped_at(adj.het, "act_right", "1>2:0", "1>1:0", "1>2:1"))
    assert adj.left.psi[("1", "2")] == {"1>2:0": "1>2:0", "1>2:1": "1>2:1"}
    assert bad.left.psi[("1", "2")] == {"1>2:0": "1>2:1", "1>2:1": "1>2:0"}
    assert _suite_laws(bad) == {
        "four": {"z-naturality-left", "z-naturality-right"},
        "identities": {"factorization-counit"},
        "squares": {"square-second-component"},
        "image squares": set(),
        "roundtrip": set(),
        "lawvere": {"morphism-correspondence", "morphism-bijection"},
        "zigzag": {"upper-triangle", "lower-triangle", "zig-zag-action-top",
                   "zig-zag-action-bottom"},
    }


def _with(value, path, entries):
    """value with the dict at the dotted attribute path updated by entries."""
    head, _, rest = path.partition(".")
    inner = getattr(value, head)
    return dataclasses.replace(
        value, **{head: _with(inner, rest, entries) if rest else {**inner, **entries}})


def test_law_suites_report_a_corrupted_unit(skeleton2):
    # eta_2 = phi(h_2) is read from the left action at e_2 = 1_2: with the
    # left actions of 1_2 and of the constant 0,0 on it swapped, eta_2 is
    # that constant, and phi(e_2) too, which e1-form reports
    adj = ur_adjunction(skeleton2)
    bad = _over(adj, _swapped_at(adj.het, "act_left", "2>2:0,0", "2>2:0,1", "2>2:0,1"))
    assert bad.unit.components == {**adj.unit.components, "2": "2>2:0,0"}
    assert bad.counit.components == adj.counit.components
    assert _suite_laws(bad) == {
        **_CONSTANT_AT_2,
        "identities": {"factorization-unit", "factorization-over-across-f",
                       "factorization-over-across-g", "factorization-counit",
                       "triangular-identity-F", "triangular-identity-G", "e1-form"},
    }


def test_law_suites_report_a_corrupted_phi(skeleton2):
    # phi is read off the left action at e_2 = 1_2, which swaps the two maps
    # 1 -> 2 in the one het
    adj = ur_adjunction(skeleton2)
    bad = _over(adj, _swapped_at(adj.het, "act_left", "1>2:0", "2>2:0,1", "1>2:1"))
    assert bad.right.phi[("1", "2")] == {"1>2:0": "1>2:1", "1>2:1": "1>2:0"}
    assert _suite_laws(bad) == {
        "four": {"z-naturality-left", "z-naturality-right"},
        "identities": {"factorization-counit"},
        "squares": {"square-second-component"},
        "image squares": set(),
        "roundtrip": set(),
        "lawvere": {"morphism-correspondence", "morphism-bijection"},
        "zigzag": {"upper-triangle", "lower-triangle", "zig-zag-action-top",
                   "zig-zag-action-bottom"},
    }


def test_law_suites_report_a_left_adjoint_that_moves_an_identity(skeleton2):
    # F sends 1_2 to the swap of 2: neither embedded universal at 2 is a
    # transpose pair of the abstract het, and z(e_2) is (G eps_2, swap)
    bad = _with(ur_adjunction(skeleton2), "left.functor.mor_map", {"2>2:0,1": "2>2:1,0"})
    assert _suite_laws(bad) == {
        "four": {"z-naturality-left", "z-naturality-right"},
        "identities": {"factorization-unit", "factorization-over-across-f",
                       "factorization-over-across-g", "factorization-counit",
                       "triangular-identity-F", "e1-form"},
        "squares": {"square-first-component", "square-second-component"},
        "image squares": {"image-square-second-component"},
        "roundtrip": {"sending-expected-universal-placement",
                      "receiving-expected-universal-placement"},
        "lawvere": {"morphism-correspondence", "morphism-bijection"},
        "zigzag": {"lower-triangle", "zig-zag-action-top"},
    }
    assert [v.detail for v in over_and_back_and_triangles(bad).violations
            if v.law == "e1-form"] == ["z(e_a) second component is 2>2:1,0, expected identity"]


def test_roundtrip_names_the_cell_of_each_misplaced_universal(skeleton2):
    # the same F: (eta_2, 1_F2) misses cell (x, Fx) and (1_G2, eps_2) misses
    # cell (Ga, a) of the abstract het, each at the embedded object of 2
    bad = _with(ur_adjunction(skeleton2), "left.functor.mor_map", {"2>2:0,1": "2>2:1,0"})
    assert [(v.law, v.detail) for v in representation_roundtrip(bad).violations] == [
        ("receiving-expected-universal-placement", "expected universal not in cell (Ga, a)"),
        ("sending-expected-universal-placement", "expected universal not in cell (x, Fx)")]


def test_an_adjunction_over_a_het_without_its_universals_is_refused(skeleton2):
    # the functions of rank at most 1 form a sub-bifunctor of Hom, without
    # h_2 = e_2 = 1_2; X's objects are walked first, so h_2 is named
    adj = ur_adjunction(skeleton2)
    rank_one = build_het(
        "rank<=1", skeleton2, skeleton2,
        lambda x, a: tuple(f for f in skeleton2.hom(x, a) if len(set(fn_images(f))) <= 1),
        skeleton2.compose, lambda k, c: skeleton2.compose(c, k))
    with pytest.raises(StructuralError,
                       match=re.escape("rank<=1: h_2 = '2>2:0,1' is not in cell (2, 2)")):
        _over(adj, rank_one)


def test_four_bifunctor_iso_reports_a_twist_that_is_not_injective(skeleton2):
    # F and G both send 1>2:1 to 1>2:0, so both elements of cell (1, 2) twist
    # to (1>2:0, 1>2:0)
    adj = ur_adjunction(skeleton2)
    for side in ("left", "right.dual_left"):
        adj = _with(adj, f"{side}.functor.mor_map", {"1>2:1": "1>2:0"})
    report = four_bifunctor_iso(adj)
    assert _laws(report) == {"z-bijective", "z-naturality-left", "z-naturality-right"}
    assert [v.witness for v in report.violations if v.law == "z-bijective"] == [("1", "2")]


def test_adjunction_refuses_a_missing_transpose(skeleton2):
    # F moved at 0 leaves h_0 outside cell (0, F0), and G moved at 1 leaves
    # e_1 outside cell (G1, 1); each names its object and the cell it misses
    adj = ur_adjunction(skeleton2)
    for path, obj_map, message in (
            ("left", {"0": "1"}, "h_0 = '0>0:' is not in cell (0, 1)"),
            ("right.dual_left", {"1": "2"}, "e_1 = '1>1:0' is not in cell (2, 1)")):
        with pytest.raises(StructuralError, match=re.escape(f"Hom_FinSet<=2: {message}")):
            _with(adj, f"{path}.functor.obj_map", obj_map)
    # a constant universal kept in its cell is no universal: h_2 then g, or
    # f then e_2, is constant, so psi misses cell (2, 2) and phi cell (1, 2)
    for path, entries, message in (
            ("left.universal", {"2": "2>2:0,0"}, "psi is not a bijection at cell (2, 2)"),
            ("right.dual_left.universal", {"2": "2>2:1,1"},
             "phi is not a bijection at cell (1, 2)")):
        with pytest.raises(StructuralError, match=re.escape(f"Hom_FinSet<=2: {message}")):
            _with(adj, path, entries)


def test_zigzag_counts_only_anti_diagonals_that_meet_both_triangles(skeleton2):
    # e_2 made the swap s: eta_2 = phi(1_2) and eps_2 = psi^-1(s) are s, and
    # F and G are identities, so each o in cell (2, 2) twists to (o, o then
    # s); for c the constant 0, f(c) = c then s is the constant 1, which
    # meets the upper triangle (s then o) alone, and c the lower one alone
    bad = _with(ur_adjunction(skeleton2), "right.dual_left.universal", {"2": "2>2:1,0"})
    assert bad.eta("2") == bad.eps("2") == "2>2:1,0"
    zz = zig_zag_factorize(bad, "2>2:0,0")
    assert (zz.f, zz.g, zz.factor_count) == ("2>2:1,1", "2>2:0,0", 0)
    assert _laws(zz.report) == {"upper-triangle", "zig-zag-action-bottom"}


def test_image_squares_report_a_right_adjoint_that_moves_an_identity(skeleton2):
    # a G that is not a functor breaks both components; in the round trip,
    # u.1_2 = u.swap at the embedded universal u at 2, and the abstract het's
    # right action is not functorial, which psi-naturality-right reports
    bad = _with(ur_adjunction(skeleton2), "right.dual_left.functor.mor_map", {"2>2:0,1": "2>2:1,0"})
    seeds = [(a, f) for a in bad.a_cat.objects for x in bad.x_cat.objects
             for f in bad.x_cat.hom(x, bad.G.on_obj(a))]
    assert _square_laws(adjunctive_image_square, bad, seeds) == {
        "image-square-first-component", "image-square-second-component"}
    assert _laws(representation_roundtrip(bad)) == {
        "psi-bijective", "psi-naturality-left", "psi-naturality-right"}


def _g_constant_at_zero(cat):
    """The representations of ur_adjunction(cat), with G constant at 0 and
    e_a the map 0 -> a."""
    adj = ur_adjunction(cat)
    right = _with(adj.right, "dual_left.universal", {a: f"0>{a}:" for a in cat.objects})
    right = _with(right, "dual_left.functor.obj_map", {a: "0" for a in cat.objects})
    return adj.left, _with(right, "dual_left.functor.mor_map",
                           {m.id: "0>0:" for m in cat.morphisms})


def test_a_right_adjoint_with_no_unit_is_refused(skeleton2):
    # G constant at 0: each e_a = 0 -> a lies in cell (Ga, a), but Hom(x, G-)
    # is empty for x = 1, 2, so phi misses cell (1, 1) first, and h_1 = 1_1
    # would have no transpose eta_1; the right side's own check reports it
    # as its dual's psi-bijective
    left, right = _g_constant_at_zero(skeleton2)
    with pytest.raises(StructuralError, match=re.escape(
            "Hom_FinSet<=2: phi is not a bijection at cell (1, 1)")):
        Adjunction(left, right)
    assert [(v.law, v.witness) for v in check_right_representation(right).violations] == [
        ("psi-bijective", (a, x)) for a in "12" for x in "12"]


def test_compare_left_representation_reports_a_misplaced_or_non_universal_element(skeleton2):
    adj = ur_adjunction(skeleton2)
    # 0>1: lies in cell (0, 1), not (1, F1)
    misplaced = compare_left_representation(adj.left, adj.F, {**adj.left.universal, "1": "0>1:"})
    assert [(v.law, v.witness) for v in misplaced.violations] == [
        ("expected-universal-placement", ("1", "0>1:"))]
    # 1>2:0 in cell (1, 2) factors through 1_1 and back by 1>2:0 and 2>1:0,0,
    # whose composite on 2 is the constant 2>2:0,0, not an identity
    expected = dataclasses.replace(adj.F, obj_map={**adj.F.obj_map, "1": "2"})
    report = compare_left_representation(adj.left, expected,
                                         {**adj.left.universal, "1": "1>2:0"})
    assert [(v.law, v.witness) for v in report.violations] == [("comparison-iso", ("1",))]


def test_compare_representation_reports_an_expected_universal_outside_the_het(skeleton2):
    # an id in no cell of the het is misplaced too, on either side
    adj = ur_adjunction(skeleton2)
    for compare, rep, fun in ((compare_left_representation, adj.left, adj.F),
                              (compare_right_representation, adj.right, adj.G)):
        report = compare(rep, fun, {**rep.universal, "1": "nowhere"})
        assert [(v.law, v.witness) for v in report.violations] == [
            ("expected-universal-placement", ("1", "nowhere"))]


# -- generated posets against a closed-form oracle ------------------------------

@st.composite
def _posets(draw, prefix):
    """A random poset of at most 5 points, as its order relation (a seeded
    DAG, transitively closed) over ids whose sort order is not the DAG's."""
    n = draw(st.integers(1, 5))
    names = draw(st.permutations([f"{prefix}{i}" for i in range(n)]))
    below = {(i, i) for i in range(n)}
    below |= {(i, j) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())}
    for k in range(n):      # Warshall: add every path through k
        below |= {(i, j) for i in range(n) for j in range(n)
                  if (i, k) in below and (k, j) in below}
    return names, {(names[i], names[j]) for i, j in below}


def _poset_category(name, points, leq):
    mor = {(p, q): f"{p}<={q}" for p, q in leq}
    return FinCategory(
        name, tuple(points), tuple(Morphism(m, p, q) for (p, q), m in mor.items()),
        {p: mor[(p, p)] for p in points},
        {(f, mor[(q, r)]): mor[(p, r)] for (p, q), f in mor.items()
         for (q2, r) in leq if q2 == q})


def _extremum(points, leq, least):
    """The least (or greatest) of `points` under `leq`, or None."""
    for p in points:
        if all(((p, q) if least else (q, p)) in leq for q in points):
            return p
    return None


@st.composite
def _relations(draw):
    """Two random posets, each as its points and order, and a relation
    between them, down-closed in X and up-closed in A: the closure of a
    drawn seed set of pairs."""
    xs, x_leq = draw(_posets("x"))
    as_, a_leq = draw(_posets("a"))
    seed = draw(st.sets(st.tuples(st.sampled_from(xs), st.sampled_from(as_))))
    rel = {(x, a) for x in xs for a in as_
           if any((x, x2) in x_leq and (a2, a) in a_leq for x2, a2 in seed)}
    return (xs, x_leq), (as_, a_leq), rel


def _relation_het(xs, as_, rel):
    """The het of a relation of `_relations`: cell (x, a) holds xRa where x
    is related to a, and is empty elsewhere."""
    x_cat, a_cat = _poset_category("X", *xs), _poset_category("A", *as_)
    pair = {f"{x}R{a}": (x, a) for x, a in rel}
    return build_het("R", x_cat, a_cat,
                     lambda x, a: (f"{x}R{a}",) if (x, a) in rel else (),
                     lambda h, c: f"{x_cat.dom(h)}R{pair[c][1]}",
                     lambda k, c: f"{pair[c][0]}R{a_cat.cod(k)}")


@settings(deadline=None, derandomize=True, max_examples=300)
@given(st.data())
def test_poset_relation_hets_match_the_closed_form_oracle(data):
    (xs, x_leq), (as_, a_leq), rel = relation = data.draw(_relations())
    het = _relation_het(*relation)
    # F(x) is the least a with x R a; G(a) the greatest x with x R a
    left = {x: _extremum([a for a in as_ if (x, a) in rel], a_leq, True) for x in xs}
    right = {a: _extremum([x for x in xs if (x, a) in rel], x_leq, False) for a in as_}
    left_ok, right_ok = None not in left.values(), None not in right.values()
    result = build_adjunction(het)
    assert isinstance(result.left, LeftRepresentation) == left_ok
    assert isinstance(result.right, RightRepresentation) == right_ok
    if left_ok:
        assert result.left.functor.obj_map == left
    if right_ok:
        assert result.right.functor.obj_map == right
    assert isinstance(result, Adjunction) == (left_ok and right_ok)
    if isinstance(result, Adjunction):
        for suite in (four_bifunctor_iso, over_and_back_and_triangles,
                      lawvere_iso_check, representation_roundtrip):
            assert suite(result).ok
