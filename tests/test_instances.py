"""Instance-level checks: direct limit/colimit computation against an
independent universal-property oracle, and each built-in adjunction against
its formula expectations."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetcat import (Adjunction, GuardExceeded, HalfAdjunction, StructuralError,
                    build_adjunction, check_bifunctor, check_category,
                    check_functor)
from hetcat.instances import (Cocone, Cone, FinSetObject, SetDiagram,
                              colimit_of, colimits_adjunction,
                              compose_cone_cocone, diagram_shape,
                              finset_skeleton, galois_connections,
                              limit_of, limits_adjunction,
                              skeleton_functor_to_diagram, ur_adjunction,
                              verify_elementwise)
from hetcat.instances.finset import SHAPE_NAMES, fn_id, fn_images
from hetcat.instances.limits import _cocone_id, _cone_id


# -- skeleton -----------------------------------------------------------------

def test_skeleton_counts():
    s0 = finset_skeleton(0)
    assert s0.n_objects == 1 and s0.n_morphisms == 1
    s1 = finset_skeleton(1)
    # 2 objects; morphism count computed from the function count m^k
    assert s1.n_objects == 2 and s1.n_morphisms == 3
    s2 = finset_skeleton(2)
    assert len(s2.hom("2", "2")) == 4
    assert check_category(s2).ok


def test_skeleton_guard():
    with pytest.raises(GuardExceeded):
        finset_skeleton(9)


def _reference_finset_skeleton(n):
    """The quadratic tabulation: every morphism pair, g's images re-parsed."""
    objects = tuple(str(k) for k in range(n + 1))
    morphisms, by_sig = [], {}
    for k in range(n + 1):
        for m in range(n + 1):
            for images in itertools.product(range(m), repeat=k):
                mid = fn_id(k, m, images)
                morphisms.append((mid, str(k), str(m)))
                by_sig[(k, m, images)] = mid
    identity = {str(k): fn_id(k, k, tuple(range(k))) for k in range(n + 1)}
    comp = {}
    for fid, fdom, fcod in morphisms:
        fi = fn_images(fid)
        for gid, gdom, gcod in morphisms:
            if gdom != fcod:
                continue
            gi = fn_images(gid)
            comp[(fid, gid)] = by_sig[(int(fdom), int(gcod), tuple(gi[i] for i in fi))]
    return objects, morphisms, identity, comp


@pytest.mark.parametrize("n", range(5))
def test_skeleton_matches_reference(n):
    skel = finset_skeleton(n)
    objects, morphisms, identity, comp = _reference_finset_skeleton(n)
    assert skel.objects == objects
    assert [(m.id, m.dom, m.cod, m.label) for m in skel.morphisms] == \
        [(mid, dom, cod, "") for mid, dom, cod in morphisms]
    assert list(skel.identity.items()) == list(identity.items())
    assert list(skel.comp.items()) == list(comp.items())


# -- limits and colimits of explicit diagrams ----------------------------------

def _diagram(shape_name, values, arrows):
    return SetDiagram(diagram_shape(shape_name), values, arrows)


@pytest.fixture(scope="module")
def parallel_diagram():
    return _diagram(
        "parallel-pair",
        {"s": FinSetObject(("p", "q")), "t": FinSetObject(("u", "v"))},
        {"1s": {"p": "p", "q": "q"}, "1t": {"u": "u", "v": "v"},
         "alpha": {"p": "u", "q": "v"}, "beta": {"p": "u", "q": "u"}})


def test_limit_of_discrete_pair_is_product():
    diag = _diagram("discrete-2",
                    {"i": FinSetObject(("a", "b")), "j": FinSetObject(("c",))},
                    {"1i": {"a": "a", "b": "b"}, "1j": {"c": "c"}})
    assert limit_of(diag).apex.size == 2


def test_limit_of_parallel_pair(parallel_diagram):
    res = limit_of(parallel_diagram)
    assert res.tuples == (("p", "u"),)


def test_limit_of_terminal_shape():
    diag = _diagram("terminal", {"t": FinSetObject(("x", "y"))},
                    {"1t": {"x": "x", "y": "y"}})
    assert limit_of(diag).apex.size == 2


def test_colimit_of_discrete_pair_is_sum():
    diag = _diagram("discrete-2",
                    {"i": FinSetObject(("a", "b")), "j": FinSetObject(("c",))},
                    {"1i": {"a": "a", "b": "b"}, "1j": {"c": "c"}})
    assert colimit_of(diag).apex.size == 3


def test_colimit_of_parallel_pair_single_block(parallel_diagram):
    res = colimit_of(parallel_diagram)
    assert res.apex.size == 1
    members = res.blocks[res.apex.elements[0]]
    assert sorted(members) == [("s", "p"), ("s", "q"), ("t", "u"), ("t", "v")]


def test_colimit_of_terminal_shape():
    diag = _diagram("terminal", {"t": FinSetObject(("x", "y"))},
                    {"1t": {"x": "x", "y": "y"}})
    assert colimit_of(diag).apex.size == 2


# -- the universal-property oracle ----------------------------------------------

def _all_cones(diagram, w):
    shape = diagram.shape
    order = shape.objects
    pools = [list(itertools.product(diagram.values[o].elements, repeat=w))
             for o in order]
    idx = {o: i for i, o in enumerate(order)}
    for combo in itertools.product(*pools):
        if all(diagram.arrows[m.id][combo[idx[m.dom]][i]] == combo[idx[m.cod]][i]
               for m in shape.morphisms for i in range(w)):
            yield combo


def _cone_is_universal(diagram, candidate, w_bound):
    """Test the universal property directly: every cone from every small apex
    factors through the candidate by exactly one mediating map."""
    shape = diagram.shape
    order = shape.objects
    idx = {o: i for i, o in enumerate(order)}
    c = len(candidate[0]) if order else 0
    for w in range(w_bound + 1):
        for cone in _all_cones(diagram, w):
            count = 0
            for mediator in itertools.product(range(c), repeat=w):
                if all(candidate[idx[o]][mediator[i]] == cone[idx[o]][i]
                       for o in order for i in range(w)):
                    count += 1
            if count != 1:
                return False
    return True


def limit_oracle(diagram, bound):
    """Search every candidate apex cardinality for a universal cone."""
    winners = set()
    for c in range(bound + 1):
        for candidate in _all_cones(diagram, c):
            if _cone_is_universal(diagram, candidate, bound):
                winners.add(c)
                break
    return winners


def _all_cocones(diagram, z):
    shape = diagram.shape
    order = shape.objects
    pools = [list(itertools.product(range(z), repeat=diagram.values[o].size))
             for o in order]
    idx = {o: i for i, o in enumerate(order)}
    elem_index = {o: {e: i for i, e in enumerate(diagram.values[o].elements)}
                  for o in order}
    for combo in itertools.product(*pools):
        if all(combo[idx[m.cod]][elem_index[m.cod][diagram.arrows[m.id][e]]]
               == combo[idx[m.dom]][elem_index[m.dom][e]]
               for m in shape.morphisms for e in diagram.values[m.dom].elements):
            yield combo


def _cocone_is_universal(diagram, candidate, z_bound):
    shape = diagram.shape
    order = shape.objects
    idx = {o: i for i, o in enumerate(order)}
    blocks = max([0] + [v + 1 for leg in candidate for v in leg])
    for z in range(z_bound + 1):
        for cocone in _all_cocones(diagram, z):
            count = 0
            for mediator in itertools.product(range(z), repeat=blocks):
                if all(mediator[candidate[idx[o]][i]] == cocone[idx[o]][i]
                       for o in order
                       for i in range(diagram.values[o].size)):
                    count += 1
            if count != 1:
                return False
    return True


def colimit_oracle(diagram, bound):
    winners = set()
    for z in range(bound + 1):
        for candidate in _all_cocones(diagram, z):
            if max([0] + [v + 1 for leg in candidate for v in leg]) != z:
                continue     # not jointly surjective, so never universal
            if _cocone_is_universal(diagram, candidate, bound):
                winners.add(z)
                break
    return winners


@pytest.mark.parametrize("shape_name", ["terminal", "discrete-2",
                                        "parallel-pair", "span"])
def test_limits_and_colimits_agree_with_oracle(shape_name):
    """limit_of and colimit_of agree with the direct universal-property
    search on every diagram over the two-element skeleton."""
    from hetcat.fincat import functor_category
    skel = finset_skeleton(2)
    shape = diagram_shape(shape_name)
    fcat = functor_category(shape, skel)
    for did, fun in fcat.functors.items():
        diag = skeleton_functor_to_diagram(shape, skel, fun.obj_map, fun.mor_map)
        lim = limit_of(diag).apex.size
        colim = colimit_of(diag).apex.size
        assert limit_oracle(diag, max(lim + 1, 3)) == {lim}
        assert colimit_oracle(diag, max(colim + 1, 3)) == {colim}


def test_discrete_cardinality_laws():
    from hetcat.fincat import functor_category
    skel = finset_skeleton(2)
    shape = diagram_shape("discrete-2")
    fcat = functor_category(shape, skel)
    for did, fun in fcat.functors.items():
        diag = skeleton_functor_to_diagram(shape, skel, fun.obj_map, fun.mor_map)
        sizes = [diag.values[o].size for o in shape.objects]
        assert limit_of(diag).apex.size == sizes[0] * sizes[1]
        assert colimit_of(diag).apex.size == sizes[0] + sizes[1]


# -- the limit/colimit adjunctions ------------------------------------------------

def _legs_of_cells(pairs):
    """Cells, id -> legs and (cell, legs) -> id, from each cell's id maker
    and legs."""
    cells, legs_of, id_of = {}, {}, {}
    for pair, make_id, found in pairs:
        ids = []
        for legs in found:
            cid = make_id(legs)
            ids.append(cid)
            legs_of[cid] = legs
            id_of[pair + (legs,)] = cid
        cells[pair] = tuple(ids)
    return cells, legs_of, id_of


def _reference_cone_tables(inst):
    """Cells and action tables of the cone bifunctor, one generator per entry."""
    shape, skel, fcat = inst.shape, inst.skeleton, inst.diagrams
    order = shape.objects
    non_id = [m for m in shape.morphisms if not shape.is_identity(m.id)]
    idx = {o: i for i, o in enumerate(order)}

    def cones_of(w, did):
        fun = fcat.functors[did]
        arrows = {m.id: fn_images(fun.on_mor(m.id)) for m in non_id}
        pools = [itertools.product(range(int(fun.on_obj(o))), repeat=w) for o in order]
        for combo in itertools.product(*pools):
            if all(arrows[m.id][combo[idx[m.dom]][i]] == combo[idx[m.cod]][i]
                   for m in non_id for i in range(w)):
                yield tuple(combo)

    cells, legs_of, id_of = _legs_of_cells((
        ((w, did), lambda legs, w=w, did=did: _cone_id(w, did, legs), cones_of(int(w), did))
        for w in skel.objects for did in fcat.objects))
    act_left = {}
    for h in skel.morphisms:
        hi = fn_images(h.id)
        act_left[h.id] = {
            cid: id_of[(h.dom, did, tuple(tuple(leg[i] for i in hi) for leg in legs_of[cid]))]
            for did in fcat.objects for cid in cells[(h.cod, did)]}
    act_right = {}
    for t in fcat.morphisms:
        comps = [fn_images(fcat.transformations[t.id].components[o]) for o in order]
        act_right[t.id] = {
            cid: id_of[(w, t.cod, tuple(tuple(comps[i][v] for v in leg)
                                        for i, leg in enumerate(legs_of[cid])))]
            for w in skel.objects for cid in cells[(w, t.dom)]}
    return cells, act_left, act_right


def _reference_cocone_tables(inst):
    """Cells and action tables of the cocone bifunctor, one generator per entry."""
    shape, skel, fcat = inst.shape, inst.skeleton, inst.diagrams
    order = shape.objects
    non_id = [m for m in shape.morphisms if not shape.is_identity(m.id)]
    idx = {o: i for i, o in enumerate(order)}

    def cocones_of(did, z):
        fun = fcat.functors[did]
        cards = [int(fun.on_obj(o)) for o in order]
        arrows = {m.id: fn_images(fun.on_mor(m.id)) for m in non_id}
        pools = [itertools.product(range(z), repeat=c) for c in cards]
        for combo in itertools.product(*pools):
            if all(combo[idx[m.cod]][arrows[m.id][e]] == combo[idx[m.dom]][e]
                   for m in non_id for e in range(cards[idx[m.dom]])):
                yield tuple(combo)

    cells, legs_of, id_of = _legs_of_cells((
        ((did, z), lambda legs, did=did, z=z: _cocone_id(did, z, legs), cocones_of(did, int(z)))
        for did in fcat.objects for z in skel.objects))
    act_left = {}
    for t in fcat.morphisms:
        comps = [fn_images(fcat.transformations[t.id].components[o]) for o in order]
        act_left[t.id] = {
            cid: id_of[(t.dom, z, tuple(tuple(legs_of[cid][i][e] for e in comps[i])
                                        for i in range(len(order))))]
            for z in skel.objects for cid in cells[(t.cod, z)]}
    act_right = {}
    for h in skel.morphisms:
        hi = fn_images(h.id)
        act_right[h.id] = {
            cid: id_of[(did, h.cod, tuple(tuple(hi[v] for v in leg) for leg in legs_of[cid]))]
            for did in fcat.objects for cid in cells[(did, h.dom)]}
    return cells, act_left, act_right


def _ordered(tables):
    cells, act_left, act_right = tables
    return (list(cells.items()),
            [(m, list(t.items())) for m, t in act_left.items()],
            [(m, list(t.items())) for m, t in act_right.items()])


@pytest.mark.parametrize("shape_name,n", [(name, 1) for name in SHAPE_NAMES] + [
    ("terminal", 2), ("discrete-2", 2), ("parallel-pair", 2)])
def test_cone_and_cocone_tables_match_reference(shape_name, n):
    for build, reference in ((limits_adjunction, _reference_cone_tables),
                             (colimits_adjunction, _reference_cocone_tables)):
        inst = build(shape_name, n)
        het = inst.het
        assert _ordered((het.cells, het.act_left, het.act_right)) == \
            _ordered(reference(inst))


def test_limits_pp2_bifunctor_laws_and_recovery(limits_pp2, limits_pp2_adj):
    assert check_bifunctor(limits_pp2.het).ok
    adj = limits_pp2_adj
    assert adj.F == limits_pp2.delta
    assert adj.G == limits_pp2.lim
    assert all(adj.h(w) == limits_pp2.identity_cones[w]
               for w in limits_pp2.skeleton.objects)
    assert all(adj.e(d) == limits_pp2.projection_cones[d]
               for d in limits_pp2.diagrams.objects)


def test_limits_discrete2_half_with_witness():
    inst = limits_adjunction("discrete-2", 2)
    assert inst.lim_escape == ("D8",)
    assert inst.lim_cards["D8"] == 4          # the (2,2) diagram: the product escapes
    result = build_adjunction(inst.het)
    assert isinstance(result, HalfAdjunction)
    assert result.failed_sides() == ("right",)
    assert result.left.functor == inst.delta
    assert result.right.index_object == "D8"


def test_limits_span_full():
    inst = limits_adjunction("span", 2)
    assert not inst.lim_escape
    result = build_adjunction(inst.het)
    assert isinstance(result, Adjunction)
    assert result.F == inst.delta and result.G == inst.lim


def test_colimits_pp2_recovery(colimits_pp2, colimits_pp2_adj):
    adj = colimits_pp2_adj
    assert adj.F == colimits_pp2.colim
    assert adj.G == colimits_pp2.delta
    assert all(adj.h(d) == colimits_pp2.injection_cocones[d]
               for d in colimits_pp2.diagrams.objects)
    assert all(adj.e(z) == colimits_pp2.identity_cocones[z]
               for z in colimits_pp2.skeleton.objects)


def test_colimit_counit_is_the_folding_map():
    """Over the two-object discrete shape the counit at z folds z+z onto z."""
    inst = colimits_adjunction("discrete-2", 2)
    result = build_adjunction(inst.het)
    assert isinstance(result, HalfAdjunction) and result.left_ok
    left = result.left
    for z in ("1", "2"):
        k = int(z)
        e_z = inst.identity_cocones[z]
        did, zobj = inst.het.cell_of(e_z)
        folding = left.psi_inv(did, zobj, e_z)
        assert folding == fn_id(2 * k, k, tuple(i % k for i in range(2 * k)))


def test_colimits_span_half_with_witness():
    from hetcat import compare_left_representation
    inst = colimits_adjunction("span", 2)
    assert inst.delta_escape == ("3", "4")
    result = build_adjunction(inst.het)
    assert isinstance(result, HalfAdjunction)
    assert result.failed_sides() == ("right",)
    # the found universal cocones may renumber blocks; agreement is up to the
    # canonical isomorphism between the two families of universals
    assert compare_left_representation(result.left, inst.colim,
                                       inst.injection_cocones).ok


def test_ur_adjunction_on_skeleton(skeleton2):
    adj = ur_adjunction(skeleton2)
    assert adj.F.obj_map == {o: o for o in skeleton2.objects}


# -- galois --------------------------------------------------------------------

def test_galois_f_star_example(galois):
    assert galois.f_star["{0,2}"] == "{b}"


def test_galois_image_identity_example(galois):
    # image(preimage(image({0}))) = image({0}) = {a}
    x = "{0}"
    fx = galois.direct_image[x]
    assert fx == "{a}"
    assert galois.direct_image[galois.preimage[fx]] == fx


def test_galois_empty_subset_full_row(galois):
    # image of the empty set is empty, below everything: a full het row
    for a in galois.cod_poset.objects:
        assert galois.lower_het.cell("{}", a)


def test_galois_four_way_equivalence(galois, galois_lower_adj):
    from hetcat import z_bifunctor
    zb = z_bifunctor(galois_lower_adj)
    for x in galois.dom_poset.objects:
        for a in galois.cod_poset.objects:
            relation = set(galois.direct_image[x].strip("{}").split(",")) - {""} <= \
                set(a.strip("{}").split(",")) - {""}
            het = bool(galois.lower_het.cell(x, a))
            z = bool(zb.cell(x, a))
            hom = bool(galois.dom_poset.hom(x, galois.preimage[a]))
            assert relation == het == z == hom


def test_galois_bifunctor_laws(galois):
    assert check_bifunctor(galois.lower_het).ok
    assert check_bifunctor(galois.lower_het_via_preimage).ok
    assert check_bifunctor(galois.upper_het).ok


def test_galois_two_relation_readings_agree(galois):
    assert galois.lower_het.cells == galois.lower_het_via_preimage.cells


@settings(deadline=None, max_examples=25)
@given(st.integers(1, 3), st.integers(1, 2), st.data())
def test_galois_random_function_properties(s_size, t_size, data):
    s = tuple(str(i) for i in range(s_size))
    t = tuple(chr(ord("a") + i) for i in range(t_size))
    f_map = {e: data.draw(st.sampled_from(t)) for e in s}
    gi = galois_connections(f_map, s, t)
    lower = build_adjunction(gi.lower_het)
    upper = build_adjunction(gi.upper_het)
    assert isinstance(lower, Adjunction) and isinstance(upper, Adjunction)
    assert lower.F.obj_map == gi.direct_image
    assert lower.G.obj_map == gi.preimage
    assert upper.G.obj_map == gi.f_star
    for a in gi.cod_poset.objects:
        assert lower.G.obj_map[a] == gi.sup_formula_right_adjoint("lower", a)
    for x in gi.dom_poset.objects:
        assert lower.F.obj_map[x] == gi.inf_formula_left_adjoint("lower", x)


def test_galois_guard():
    with pytest.raises(GuardExceeded):
        galois_connections({str(i): "a" for i in range(5)},
                           tuple(str(i) for i in range(5)), ("a",))


# -- preorders -------------------------------------------------------------------

def test_preorder_categories_lawful(preorder2):
    assert check_category(preorder2.preorders).ok
    assert check_category(preorder2.posets).ok
    for fun in (preorder2.discrete, preorder2.forgetful, preorder2.indiscrete,
                preorder2.poset_forgetful):
        assert check_functor(fun).ok


def test_underlying_of_discrete_is_identity(preorder2):
    for k in preorder2.sets.objects:
        assert preorder2.forgetful.on_obj(preorder2.discrete.on_obj(k)) == k


def test_hom_into_indiscrete_is_all_functions(preorder2):
    i2 = preorder2.indiscrete.on_obj("2")
    for p in preorder2.preorders.objects:
        carrier = int(preorder2.forgetful.on_obj(p))
        assert len(preorder2.preorders.hom(p, i2)) == 2 ** carrier


def test_preorder_chain_recovers_both_adjunctions(preorder2):
    lower = build_adjunction(preorder2.lower_het)
    assert isinstance(lower, Adjunction)
    assert lower.F == preorder2.discrete and lower.G == preorder2.forgetful
    upper = build_adjunction(preorder2.upper_het)
    assert isinstance(upper, Adjunction)
    assert upper.F == preorder2.forgetful and upper.G == preorder2.indiscrete


def test_poset_restriction_fails_right(preorder2):
    result = build_adjunction(preorder2.poset_het)
    assert isinstance(result, HalfAdjunction)
    assert result.failed_sides() == ("right",)
    assert result.left.functor == preorder2.poset_forgetful


# -- pointed sets -----------------------------------------------------------------

def test_pointed_free_of_empty_set(pointed2):
    assert pointed2.free.on_obj("0") == "pt1"


def test_pointed_counting_law(pointed2):
    for k in pointed2.sets.objects:
        for a in pointed2.pointed.objects:
            assert len(pointed2.het.cell(k, a)) == \
                pointed2.carrier_card[a] ** int(k)


def test_pointed_bifunctor_laws(pointed2):
    assert check_bifunctor(pointed2.het).ok


def test_pointed_left_representation(pointed2):
    result = build_adjunction(pointed2.het)
    assert isinstance(result, HalfAdjunction)
    assert result.left.functor == pointed2.free
    assert all(result.left.universal[k] == pointed2.insertions[k]
               for k in pointed2.sets.objects)
    assert result.right.index_object == "pt3"


# -- product-exponential ------------------------------------------------------------

def test_prodexp_elementwise_laws():
    for (x, y, a) in [(2, 2, 2), (2, 3, 2), (3, 2, 2), (1, 2, 1), (2, 2, 1)]:
        assert all(verify_elementwise(x, y, a).values())


def test_prodexp_singleton_exponent_is_identityish(prodexp21):
    # |A| = 1: both functors preserve cardinality and both hets birepresent
    core = build_adjunction(prodexp21.coreflective_het)
    refl = build_adjunction(prodexp21.reflective_het)
    assert isinstance(core, Adjunction) and isinstance(refl, Adjunction)
    assert all(core.F.on_obj(k) == k for k in prodexp21.x_skel.objects)
    assert all(refl.G.on_obj(p) == p[2:] for p in prodexp21.powers.objects)


def test_prodexp_two_halves(prodexp22):
    core = build_adjunction(prodexp22.coreflective_het)
    assert isinstance(core, HalfAdjunction)
    assert core.failed_sides() == ("right",)
    assert core.left.functor == prodexp22.product_functor
    refl = build_adjunction(prodexp22.reflective_het)
    assert isinstance(refl, HalfAdjunction)
    assert refl.failed_sides() == ("left",)
    assert refl.right.functor == prodexp22.inclusion_functor


def test_prodexp_cell_counting(prodexp22):
    # |Hom(X x A, Y)| == |Hom(X, Y^A)| cellwise, by raw counting
    a = prodexp22.a_size
    for k in range(3):
        for m in range(3):
            assert len(prodexp22.coreflective_het.cell(str(k), str(m))) \
                == m ** (k * a) == (m ** a) ** k


# -- cone/cocone open-end composition ------------------------------------------------

def test_compose_cone_cocone_identity_roundtrip(parallel_diagram):
    # a cone into the diagram joined with the colimit cocone gives a function
    w = FinSetObject(("p", "q"))
    res = colimit_of(parallel_diagram)
    cone = Cone(w, parallel_diagram,
                {"s": {"p": "p", "q": "p"},
                 "t": {"p": "u", "q": "u"}})
    cone.check()
    composite = compose_cone_cocone(cone, res.cocone)
    assert set(composite) == {"p", "q"}
    # both routes land in the single block
    assert len(set(composite.values())) == 1


def test_compose_cone_cocone_rejects_disconnected():
    diag = _diagram("discrete-2",
                    {"i": FinSetObject(("a",)), "j": FinSetObject(("b",))},
                    {"1i": {"a": "a"}, "1j": {"b": "b"}})
    apex = FinSetObject(("w",))
    cone = Cone(apex, diag, {"i": {"w": "a"}, "j": {"w": "b"}})
    cone.check()
    target = FinSetObject(("z1", "z2"))
    cocone = Cocone(diag, target, {"i": {"a": "z1"}, "j": {"b": "z2"}})
    cocone.check()
    with pytest.raises(StructuralError):
        compose_cone_cocone(cone, cocone)


def test_diagram_validation():
    with pytest.raises(StructuralError):
        _diagram("terminal", {"t": FinSetObject(("x",))}, {"1t": {"x": "y"}})
