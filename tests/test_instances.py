"""Instance-level checks: direct limit/colimit computation against an
independent universal-property oracle, and each built-in adjunction against
its formula expectations."""

import dataclasses
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetcat import (Adjunction, GuardExceeded, HalfAdjunction, HetBifunctor, StructuralError,
                    build_adjunction, check_bifunctor, check_category,
                    check_functor)
from hetcat.instances import (Cocone, Cone, FinSetObject, SetDiagram,
                              colimit_of, colimits_adjunction,
                              compose_cone_cocone, diagram_shape,
                              all_functions, finset_skeleton, galois_connections,
                              limit_of, limits_adjunction,
                              pointed_free_forgetful, powerset_poset,
                              preorder_adjunction_chain, product_exponential,
                              skeleton_functor_to_diagram, ur_adjunction,
                              verify_elementwise)
from hetcat.fincat import FinCategory, Morphism
from hetcat.instances.finset import SHAPE_NAMES, fn_id, fn_images, shape_is_connected
from hetcat.instances.galois import subset_id
from hetcat.instances.limits import _leg_id
from hetcat.instances.preorder import _is_poset, _preorder_id, _preorders_on


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
        ((w, did), lambda legs, w=w, did=did: _leg_id("cn", w, did, legs), cones_of(int(w), did))
        for w in skel.objects for did in fcat.objects))
    act_left = {}
    for h in skel.morphisms:
        hi = fn_images(h.id)
        act_left[h.id] = {
            cid: id_of[(h.dom, did, tuple(tuple(leg[i] for i in hi) for leg in legs_of[cid]))]
            for did in fcat.objects for cid in cells[(h.cod, did)]}
    act_right = {}
    for t in fcat.morphisms:
        comps = list(map(fn_images, fcat.components[t.id]))
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
        ((did, z), lambda legs, did=did, z=z: _leg_id("cc", did, z, legs), cocones_of(did, int(z)))
        for did in fcat.objects for z in skel.objects))
    act_left = {}
    for t in fcat.morphisms:
        comps = list(map(fn_images, fcat.components[t.id]))
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


# -- categories of finite functions and their function hets --------------------
# The builders below are the quadratic tabulators that function_category and
# function_het replaced, kept to pin the new tables, orders included.

def _reference_images(mid):
    _, _, imgs = mid.rpartition(":")
    return tuple(int(s) for s in imgs.split(",")) if imgs else ()


def _reference_pointed_category(max_size):
    """Pointed sets on carriers 1..max_size, basepoint 0, point-fixing maps."""
    objects = tuple(f"pt{m}" for m in range(1, max_size + 1))
    morphisms = []
    by_sig = {}
    for m in range(1, max_size + 1):
        for p in range(1, max_size + 1):
            for rest in itertools.product(range(p), repeat=m - 1):
                images = (0,) + rest
                mid = f"p:{m}>{p}:" + ",".join(map(str, images))
                morphisms.append(Morphism(mid, f"pt{m}", f"pt{p}"))
                by_sig[(m, p, images)] = mid
    identity = {f"pt{m}": by_sig[(m, m, tuple(range(m)))]
                for m in range(1, max_size + 1)}
    comp = {}
    for f in morphisms:
        fi = _reference_images(f.id)
        for g in morphisms:
            if g.dom != f.cod:
                continue
            gi = _reference_images(g.id)
            comp[(f.id, g.id)] = by_sig[(len(fi), int(g.cod[2:]),
                                         tuple(gi[i] for i in fi))]
    return FinCategory("FinSet*", objects, tuple(morphisms), identity, comp)


def _reference_ordered_category(name, n, posets_only):
    """Preorders (or posets) on carriers 0..n with monotone maps."""
    objs = []
    data = {}
    for k in range(n + 1):
        for rel in _preorders_on(k):
            if posets_only and not _is_poset(rel):
                continue
            oid = _preorder_id(k, rel)
            objs.append(oid)
            data[oid] = (k, rel)
    morphisms = []
    by_sig = {}
    for p in objs:
        kp, rp = data[p]
        for q in objs:
            kq, rq = data[q]
            for images in itertools.product(range(kq), repeat=kp):
                if all((images[i], images[j]) in rq for (i, j) in rp):
                    mid = f"{p}>{q}:" + ",".join(map(str, images))
                    morphisms.append(Morphism(mid, p, q))
                    by_sig[(p, q, images)] = mid
    identity = {p: by_sig[(p, p, tuple(range(data[p][0])))] for p in objs}
    comp = {}
    for f in morphisms:
        fi = _reference_images(f.id)
        for g in morphisms:
            if g.dom != f.cod:
                continue
            gi = _reference_images(g.id)
            comp[(f.id, g.id)] = by_sig[(f.dom, g.cod, tuple(gi[i] for i in fi))]
    return FinCategory(name, tuple(objs), tuple(morphisms), identity, comp), data


def _reference_power_category(y_max, a_size):
    """Full subcategory on the function-set carriers: objects pw_m of size m^|A|."""
    objects = tuple(f"pw{m}" for m in range(y_max + 1))
    card = {f"pw{m}": m ** a_size for m in range(y_max + 1)}
    morphisms = []
    by_sig = {}
    for p in objects:
        for q in objects:
            for images in itertools.product(range(card[q]), repeat=card[p]):
                mid = f"pm:{p}>{q}:" + ",".join(map(str, images))
                morphisms.append(Morphism(mid, p, q))
                by_sig[(p, q, images)] = mid
    identity = {p: by_sig[(p, p, tuple(range(card[p])))] for p in objects}
    comp = {}
    for f in morphisms:
        fi = _reference_images(f.id)
        for g in morphisms:
            if g.dom != f.cod:
                continue
            gi = _reference_images(g.id)
            comp[(f.id, g.id)] = by_sig[(f.dom, g.cod, tuple(gi[i] for i in fi))]
    return FinCategory(f"Powers^{a_size}", objects, tuple(morphisms), identity, comp)


def _reference_pointed_het(n, sets, pointed):
    """Cells and actions of the set-to-pointed het, one string per entry."""
    cells = {}
    for k in range(n + 1):
        for m in range(1, n + 2):
            cells[(str(k), f"pt{m}")] = tuple(
                f"sp:{k}>{m}:" + ",".join(map(str, imgs))
                for imgs in itertools.product(range(m), repeat=k))
    act_left = {}
    for h in sets.morphisms:
        hi = fn_images(h.id)
        table = {}
        for m in range(1, n + 2):
            for c in cells[(h.cod, f"pt{m}")]:
                imgs = _reference_images(c)
                table[c] = f"sp:{h.dom}>{m}:" + ",".join(str(imgs[i]) for i in hi)
        act_left[h.id] = table
    act_right = {}
    for q in pointed.morphisms:
        qi = _reference_images(q.id)
        m2 = q.cod[2:]
        table = {}
        for k in range(n + 1):
            for c in cells[(str(k), q.dom)]:
                imgs = _reference_images(c)
                table[c] = f"sp:{k}>{m2}:" + ",".join(str(qi[v]) for v in imgs)
        act_right[q.id] = table
    return cells, act_left, act_right


def _reference_functions_het(x_cat, a_cat, x_card, a_card, tag):
    """Cells and actions of a preorder instance's function het."""
    cells = {}
    for x in x_cat.objects:
        for a in a_cat.objects:
            kx, ka = x_card(x), a_card(a)
            cells[(x, a)] = tuple(
                f"{tag}:{x}>{a}:" + ",".join(map(str, imgs))
                for imgs in itertools.product(range(ka), repeat=kx))
    act_left = {}
    for h in x_cat.morphisms:
        hi = _reference_images(h.id)
        table = {}
        for a in a_cat.objects:
            for c in cells[(h.cod, a)]:
                imgs = _reference_images(c)
                table[c] = f"{tag}:{h.dom}>{a}:" + ",".join(
                    str(imgs[i]) for i in hi)
        act_left[h.id] = table
    act_right = {}
    for k in a_cat.morphisms:
        ki = _reference_images(k.id)
        table = {}
        for x in x_cat.objects:
            for c in cells[(x, k.dom)]:
                imgs = _reference_images(c)
                table[c] = f"{tag}:{x}>{k.cod}:" + ",".join(
                    str(ki[v]) for v in imgs)
        act_right[k.id] = table
    return cells, act_left, act_right


def _reference_xa_het(n, a_size, x_skel, y_skel):
    """Cells and actions of the coreflective product-maps het."""
    cells = {}
    for k in range(n + 1):
        for m in range(max(n, n * a_size) + 1):
            cells[(str(k), str(m))] = tuple(
                f"xa:{k}>{m}:" + ",".join(map(str, imgs))
                for imgs in itertools.product(range(m), repeat=k * a_size))
    act_left = {}
    for h in x_skel.morphisms:
        hi = fn_images(h.id)
        k2 = int(h.dom)
        table = {}
        for m in y_skel.objects:
            for c in cells[(h.cod, m)]:
                imgs = _reference_images(c)
                new = tuple(imgs[hi[i] * a_size + t]
                            for i in range(k2) for t in range(a_size))
                table[c] = f"xa:{k2}>{m}:" + ",".join(map(str, new))
        act_left[h.id] = table
    act_right = {}
    for g in y_skel.morphisms:
        gi = fn_images(g.id)
        table = {}
        for k in x_skel.objects:
            for c in cells[(k, g.dom)]:
                imgs = _reference_images(c)
                table[c] = f"xa:{k}>{g.cod}:" + ",".join(str(gi[v]) for v in imgs)
        act_right[g.id] = table
    return cells, act_left, act_right


def _reference_re_het(ambient, powers, pcard):
    """Cells and actions of the reflective power-maps het."""
    rcells = {}
    for b in ambient.objects:
        for p in powers.objects:
            rcells[(b, p)] = tuple(
                f"re:{b}>{p}:" + ",".join(map(str, imgs))
                for imgs in itertools.product(range(pcard[p]), repeat=int(b)))
    ract_left = {}
    for h in ambient.morphisms:
        hi = fn_images(h.id)
        table = {}
        for p in powers.objects:
            for c in rcells[(h.cod, p)]:
                imgs = _reference_images(c)
                table[c] = f"re:{h.dom}>{p}:" + ",".join(str(imgs[i]) for i in hi)
        ract_left[h.id] = table
    ract_right = {}
    for q in powers.morphisms:
        qi = _reference_images(q.id)
        table = {}
        for b in ambient.objects:
            for c in rcells[(b, q.dom)]:
                imgs = _reference_images(c)
                table[c] = f"re:{b}>{q.cod}:" + ",".join(str(qi[v]) for v in imgs)
        ract_right[q.id] = table
    return rcells, ract_left, ract_right


def _category_rows(cat):
    return (cat.name, cat.objects,
            [(m.id, m.dom, m.cod, m.label) for m in cat.morphisms],
            list(cat.identity.items()), list(cat.comp.items()))


def _het_tables(het):
    return _ordered((het.cells, het.act_left, het.act_right))


@pytest.mark.parametrize("n", range(4))
def test_pointed_tables_match_reference(n):
    inst = pointed_free_forgetful(n)
    assert _category_rows(inst.pointed) == \
        _category_rows(_reference_pointed_category(n + 1))
    assert _het_tables(inst.het) == \
        _ordered(_reference_pointed_het(n, inst.sets, inst.pointed))


@pytest.mark.parametrize("n", range(3))
def test_preorder_tables_match_reference(n):
    inst = preorder_adjunction_chain(n)
    preorders, pdata = _reference_ordered_category("Ord", n, posets_only=False)
    posets, qdata = _reference_ordered_category("Pos", n, posets_only=True)
    assert _category_rows(inst.preorders) == _category_rows(preorders)
    assert _category_rows(inst.posets) == _category_rows(posets)
    for het, x_card, a_card, tag in (
            (inst.lower_het, lambda x: int(x), lambda a: pdata[a][0], "du"),
            (inst.upper_het, lambda p: pdata[p][0], lambda z: int(z), "ui"),
            (inst.poset_het, lambda p: qdata[p][0], lambda z: int(z), "pu")):
        assert _het_tables(het) == _ordered(_reference_functions_het(
            het.x_cat, het.a_cat, x_card, a_card, tag))
    discrete_of = {str(k): _preorder_id(k, frozenset((i, i) for i in range(k)))
                   for k in range(n + 1)}
    indiscrete_of = {str(k): _preorder_id(k, frozenset(
        (i, j) for i in range(k) for j in range(k))) for k in range(n + 1)}
    for fun, name, source, target, obj_map, mor_id in (
            (inst.discrete, "Discrete", inst.sets, inst.preorders, discrete_of,
             lambda m: f"{discrete_of[m.dom]}>{discrete_of[m.cod]}:" + m.id.split(":")[1]),
            (inst.indiscrete, "Indiscrete", inst.sets, inst.preorders, indiscrete_of,
             lambda m: f"{indiscrete_of[m.dom]}>{indiscrete_of[m.cod]}:" + m.id.split(":")[1]),
            (inst.forgetful, "Underlying", inst.preorders, inst.sets,
             {p: str(pdata[p][0]) for p in preorders.objects},
             lambda m: f"{pdata[m.dom][0]}>{pdata[m.cod][0]}:" + ",".join(
                 map(str, _reference_images(m.id)))),
            (inst.poset_forgetful, "Underlying|Pos", inst.posets, inst.sets,
             {p: str(qdata[p][0]) for p in posets.objects},
             lambda m: f"{qdata[m.dom][0]}>{qdata[m.cod][0]}:" + ",".join(
                 map(str, _reference_images(m.id))))):
        assert _functor_rows(fun) == (name, source, target, list(obj_map.items()),
                                      [(m.id, mor_id(m)) for m in source.morphisms])


def _functor_rows(fun):
    return (fun.name, fun.source, fun.target, list(fun.obj_map.items()),
            list(fun.mor_map.items()))


@pytest.mark.parametrize("n,a_size", [(n, a) for n in range(3) for a in range(3)])
def test_prodexp_tables_match_reference(request, n, a_size):
    inst = (request.getfixturevalue("prodexp22") if (n, a_size) == (2, 2)
            else product_exponential(n, a_size))
    assert _category_rows(inst.powers) == \
        _category_rows(_reference_power_category(n, a_size))
    assert _het_tables(inst.coreflective_het) == \
        _ordered(_reference_xa_het(n, a_size, inst.x_skel, inst.y_skel))
    pcard = {f"pw{m}": m ** a_size for m in range(n + 1)}
    assert _het_tables(inst.reflective_het) == \
        _ordered(_reference_re_het(inst.ambient, inst.powers, pcard))
    assert list(inst.product_functor.mor_map.items()) == [
        (h.id, fn_id(int(h.dom) * a_size, int(h.cod) * a_size, tuple(
            fn_images(h.id)[i] * a_size + t
            for i in range(int(h.dom)) for t in range(a_size))))
        for h in inst.x_skel.morphisms]
    assert _functor_rows(inst.inclusion_functor) == (
        "IncludePowers", inst.powers, inst.ambient,
        [(p, str(c)) for p, c in pcard.items()],
        [(q.id, f"{pcard[q.dom]}>{pcard[q.cod]}:" + ",".join(
            map(str, _reference_images(q.id)))) for q in inst.powers.morphisms])


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


def _reference_relation_het(dom_poset, cod_poset, holds):
    """The relation het's cells and action tables, written out one
    morphism at a time."""
    cells = {(x, a): (f"c:{x}=>{a}",) if holds(x, a) else ()
             for x in dom_poset.objects for a in cod_poset.objects}
    act_left = {}
    for h in dom_poset.morphisms:
        table = {}
        for a in cod_poset.objects:
            for c in cells[(h.cod, a)]:
                table[c] = f"c:{h.dom}=>{a}"
        act_left[h.id] = table
    act_right = {}
    for k in cod_poset.morphisms:
        table = {}
        for x in dom_poset.objects:
            for c in cells[(x, k.dom)]:
                table[c] = f"c:{x}=>{k.cod}"
        act_right[k.id] = table
    return cells, act_left, act_right


def _members(oid):
    inner = oid.strip("{}")
    return frozenset(inner.split(",")) if inner else frozenset()


_RELATION_MAPS = [(s, t, images) for s in range(4) for t in ("", "a", "ab")
                  for images in itertools.product(t, repeat=s)] + [(6, "abc", "abcabc")]


@pytest.mark.parametrize("s_size,t_univ,images", _RELATION_MAPS,
                         ids=[f"{s}>{t or '-'}:{''.join(i)}" for s, t, i in _RELATION_MAPS])
def test_relation_hets_match_reference(s_size, t_univ, images):
    s_univ = tuple(str(i) for i in range(s_size))
    f_map = dict(zip(s_univ, images))
    gi = galois_connections(f_map, s_univ, tuple(t_univ), s_guard=6)

    def image(x):
        return frozenset(f_map[e] for e in _members(x))

    def pre(a):
        return frozenset(e for e in s_univ if f_map[e] in _members(a))

    for het, holds in (
            (gi.lower_het, lambda x, a: image(x) <= _members(a)),
            (gi.lower_het_via_preimage, lambda x, a: _members(x) <= pre(a)),
            (gi.upper_het, lambda a, x: pre(a) <= _members(x))):
        assert _het_tables(het) == _ordered(_reference_relation_het(het.x_cat, het.a_cat, holds))


def test_galois_guard():
    with pytest.raises(GuardExceeded):
        galois_connections({str(i): "a" for i in range(5)},
                           tuple(str(i) for i in range(5)), ("a",))


@pytest.mark.parametrize("f_map", [{"0": "a"}, {"0": "a", "1": "c"}],
                         ids=["misses-an-element-of-S", "value-outside-T"])
def test_galois_rejects_a_map_that_is_not_a_function(f_map):
    with pytest.raises(StructuralError, match="f is not a function from S to T"):
        galois_connections(f_map, ("0", "1"), ("a", "b"))


def test_galois_oracles_match_the_formula_maps():
    # the sup and inf formulas of both connections, for every map S -> T with
    # |S| <= 3 and |T| <= 3
    for s_size, t_size in itertools.product(range(4), repeat=2):
        s, t = tuple(str(i) for i in range(s_size)), tuple("abc"[:t_size])
        for f_map in all_functions(s, t):
            gi = galois_connections(f_map, s, t)
            for x in gi.dom_poset.objects:
                assert gi.inf_formula_left_adjoint("lower", x) == gi.direct_image[x]
                assert gi.sup_formula_right_adjoint("upper", x) == gi.f_star[x]
            for a in gi.cod_poset.objects:
                assert gi.sup_formula_right_adjoint("lower", a) == gi.preimage[a]
                assert gi.inf_formula_left_adjoint("upper", a) == gi.preimage[a]


def _reference_powerset_poset(name, universe):
    """The quadratic tabulation: every pair of inclusions."""
    subs = [frozenset(c) for r in range(len(universe) + 1)
            for c in itertools.combinations(sorted(universe), r)]
    subs.sort(key=lambda s: (len(s), tuple(sorted(s))))
    ids = {s: subset_id(s) for s in subs}
    objects = tuple(ids[s] for s in subs)
    morphisms = []
    mor_of = {}
    for lo in subs:
        for hi in subs:
            if lo <= hi:
                mid = f"{ids[lo]}<={ids[hi]}"
                morphisms.append(Morphism(mid, ids[lo], ids[hi]))
                mor_of[(lo, hi)] = mid
    identity = {ids[s]: mor_of[(s, s)] for s in subs}
    comp = {}
    for (lo, mid_), f in mor_of.items():
        for (mid2, hi), g in mor_of.items():
            if mid_ == mid2:
                comp[(f, g)] = mor_of[(lo, hi)]
    return FinCategory(name, objects, tuple(morphisms), identity, comp)


@pytest.mark.parametrize("k", range(6))
def test_powerset_poset_matches_reference(k):
    universe = tuple("abcdef"[:k])
    assert _category_rows(powerset_poset("P", universe)) == \
        _category_rows(_reference_powerset_poset("P", universe))


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

def test_prodexp_elementwise_laws(prodexp22):
    for n, a in itertools.product(range(3), repeat=2):
        inst = prodexp22 if (n, a) == (2, 2) else product_exponential(n, a)
        assert list(verify_elementwise(inst).items()) == [
            ("unit-is-pairing", True), ("triangle-product-side", True),
            ("triangle-power-side", True), ("hom-count-cellwise", True)]


def _rerouted(het, side, m, c, image):
    tables = {"act_left": dict(het.act_left), "act_right": dict(het.act_right)}
    tables[side][m] = {**tables[side][m], c: image}
    return HetBifunctor(het.name, het.x_cat, het.a_cat, het.cells, **tables)


def test_prodexp_elementwise_laws_fail_on_corrupted_tables(prodexp22):
    inst, replace = prodexp22, dataclasses.replace
    core, refl = inst.coreflective_het, inst.reflective_het
    # the pairing at 1 swapped for the twist of its two codes
    swapped = {**inst.product_universals, "1": "xa:1>2:1,0"}
    # "u_1 then the twist of 2" sent to u_1 itself
    twisted = _rerouted(core, "act_right", "2>2:1,0", "xa:1>2:0,1", "xa:1>2:0,1")
    # "the point 0 of 4 then e_pw2" sent to the point 1
    unswapped = _rerouted(refl, "act_left", "1>4:0", "re:4>pw2:0,1,2,3", "re:1>pw2:1")
    short = HetBifunctor(refl.name, refl.x_cat, refl.a_cat,
                         {**refl.cells, ("2", "pw2"): refl.cells[("2", "pw2")][1:]},
                         refl.act_left, refl.act_right)
    for key, bad in (("unit-is-pairing", replace(inst, product_universals=swapped)),
                     ("triangle-product-side", replace(inst, coreflective_het=twisted)),
                     ("triangle-power-side", replace(inst, reflective_het=unswapped)),
                     ("hom-count-cellwise", replace(inst, reflective_het=short))):
        assert not verify_elementwise(bad)[key], key


def test_prodexp_singleton_exponent_is_identityish(prodexp21):
    # |A| = 1: both functors preserve cardinality and both hets birepresent
    core = build_adjunction(prodexp21.coreflective_het)
    refl = build_adjunction(prodexp21.reflective_het)
    assert isinstance(core, Adjunction) and isinstance(refl, Adjunction)
    assert all(core.F.on_obj(k) == k for k in prodexp21.x_skel.objects)
    assert all(refl.G.on_obj(p) == p[2:] for p in prodexp21.powers.objects)
    assert core.left.universal == prodexp21.product_universals
    assert refl.right.universal == prodexp21.inclusion_universals


def test_prodexp_two_halves(prodexp22):
    core = build_adjunction(prodexp22.coreflective_het)
    assert isinstance(core, HalfAdjunction)
    assert core.failed_sides() == ("right",)
    assert core.left.functor == prodexp22.product_functor
    assert core.left.universal == prodexp22.product_universals
    refl = build_adjunction(prodexp22.reflective_het)
    assert isinstance(refl, HalfAdjunction)
    assert refl.failed_sides() == ("left",)
    assert refl.right.functor == prodexp22.inclusion_functor
    assert refl.right.universal == prodexp22.inclusion_universals


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


@pytest.mark.parametrize("shape_name", SHAPE_NAMES + ("empty",))
def test_shape_is_connected(shape_name):
    shape = FinCategory("empty", (), (), {}, {}) if shape_name == "empty" \
        else diagram_shape(shape_name)
    assert shape_is_connected(shape) == (shape_name != "discrete-2")


def test_diagram_validation():
    with pytest.raises(StructuralError):
        _diagram("terminal", {"t": FinSetObject(("x",))}, {"1t": {"x": "y"}})
