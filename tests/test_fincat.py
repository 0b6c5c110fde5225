"""Category, functor, and natural-transformation law checking, plus the
derived constructions (opposite, product, functor category)."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetcat import (FinCategory, FinFunctor, GuardExceeded, Morphism, NatTrans,
                    StructuralError, check_category, check_functor,
                    check_nat_trans, constant_functor, functor_category,
                    identity_functor, identity_nat_trans, opposite,
                    product_category, product_projections)
from hetcat.instances import diagram_shape, finset_skeleton
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
    "P2": powerset_poset("P2", ("0", "1")),
    "span-over-1": functor_category(diagram_shape("span"), finset_skeleton(1)),
}


@settings(deadline=None, derandomize=True)
@given(st.sampled_from(sorted(MUTATION_BASES)), st.data())
def test_associativity_witnesses_match_triple_reference(base, data):
    cat = MUTATION_BASES[base]
    ids = [m.id for m in cat.morphisms]
    comp = dict(cat.comp)
    for _ in range(data.draw(st.integers(1, 2))):
        kind = data.draw(st.sampled_from(("rewire", "drop", "add")))
        if kind == "rewire":
            comp[data.draw(st.sampled_from(sorted(comp)))] = data.draw(st.sampled_from(ids))
        elif kind == "drop":
            del comp[data.draw(st.sampled_from(sorted(comp)))]
        else:
            stray = sorted((f, g) for f in ids for g in ids
                           if cat.cod(f) != cat.dom(g))
            comp[data.draw(st.sampled_from(stray))] = data.draw(st.sampled_from(ids))
    mutant = FinCategory("mutant", cat.objects, cat.morphisms, dict(cat.identity), comp)
    assert check_category(mutant).violations == _reference_check_category(mutant).violations


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
    ident = identity_functor(skeleton2)
    components = {x: skeleton2.id_of(x) for x in skeleton2.objects}
    components["2"] = "2>1:0,0"
    with pytest.raises(StructuralError):
        check_nat_trans(NatTrans("bad", ident, ident, components))


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


# -- product ----------------------------------------------------------------

def test_product_with_terminal_is_isomorphic(chain2, terminal_cat):
    prod = product_category(chain2, terminal_cat)
    assert check_category(prod).ok
    assert prod.n_objects == chain2.n_objects
    assert prod.n_morphisms == chain2.n_morphisms
    p0, p1 = product_projections(prod, chain2, terminal_cat)
    assert check_functor(p0).ok and check_functor(p1).ok
    # the projection to the first factor is bijective on morphisms
    assert sorted(p0.mor_map.values()) == sorted(m.id for m in chain2.morphisms)


def test_product_morphism_count(chain2, skeleton1):
    prod = product_category(chain2, skeleton1)
    assert prod.n_morphisms == chain2.n_morphisms * skeleton1.n_morphisms
    assert check_category(prod).ok


def test_graph_embedding_recovers_identity(galois, galois_lower_adj):
    # x -> (x, Fx) into the product category, then the first projection
    adj = galois_lower_adj
    prod = product_category(galois.dom_poset, galois.cod_poset)
    embed = FinFunctor(
        "graph", galois.dom_poset, prod,
        obj_map={x: prod.obj_id(x, adj.F.on_obj(x)) for x in galois.dom_poset.objects},
        mor_map={m.id: prod.mor_id(m.id, adj.F.on_mor(m.id))
                 for m in galois.dom_poset.morphisms},
    )
    assert check_functor(embed).ok
    p0, _ = product_projections(prod, galois.dom_poset, galois.cod_poset)
    assert all(p0.on_obj(embed.on_obj(x)) == x for x in galois.dom_poset.objects)
    assert all(p0.on_mor(embed.on_mor(m.id)) == m.id
               for m in galois.dom_poset.morphisms)


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
    fcat = functor_category(diagram_shape("parallel-pair"), skeleton1)
    assert check_category(fcat).ok
    for t in fcat.morphisms:
        nt = fcat.transformations[t.id]
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


def test_functor_category_guard():
    with pytest.raises(GuardExceeded) as err:
        functor_category(diagram_shape("parallel-pair"), finset_skeleton(2), guard=10)
    assert err.value.estimate > 10


def test_product_and_functor_category_reprs_are_one_line(skeleton1):
    fcat = functor_category(diagram_shape("parallel-pair"), skeleton1)
    assert repr(fcat) == "FinCategory('FinSet<=1^parallel-pair', 3 objects, 6 morphisms)"
    prod = product_category(skeleton1, skeleton1)
    assert repr(prod) == "FinCategory('FinSet<=1xFinSet<=1', 4 objects, 9 morphisms)"
