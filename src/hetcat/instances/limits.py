"""The diagonal/limit and colimit/diagonal adjunctions at finite scale.

Heteromorphisms from a set to a diagram are cones; from a diagram to a set,
cocones. Cells are tabulated exhaustively over a finite-set skeleton and the
functor category of diagrams, and the adjoints are recovered by the generic
representability search, then compared against the direct limit and colimit
computations.

Finiteness caveat: a representing object for Het(-, D) is a set of the same
cardinality as the limit of D, and limits of discrete diagrams multiply
cardinalities. Whenever a limit (or colimit) escapes the skeleton bound, the
corresponding side of the adjunction is honestly non-representable and the
instance records which diagrams (or sets) escape; the expected functor is
then built only when total.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..fincat import FinCategory, FinFunctor, FunctorCategory, functor_category
from ..het import HetBifunctor
from .finset import (diagram_shape, finset_skeleton, fn_id, fn_images,
                     limit_of, colimit_of, skeleton_card,
                     skeleton_functor_to_diagram)

Legs = tuple[tuple[int, ...], ...]


def _cone_id(w: str, did: str, legs: Legs) -> str:
    body = "|".join(",".join(str(v) for v in leg) for leg in legs)
    return f"cn:{w}>{did}:{body}"


def _cocone_id(did: str, z: str, legs: Legs) -> str:
    body = "|".join(",".join(str(v) for v in leg) for leg in legs)
    return f"cc:{did}>{z}:{body}"


def _diagram_cards(shape: FinCategory, fun: FinFunctor) -> tuple[int, ...]:
    return tuple(skeleton_card(fun.on_obj(o)) for o in shape.objects)


def _nat_lookup(fcat: FunctorCategory, shape: FinCategory):
    return {
        (m.dom, m.cod, tuple(fcat.transformations[m.id].components[o]
                             for o in shape.objects)): m.id
        for m in fcat.morphisms
    }


@dataclass(frozen=True, eq=False)
class LimitsInstance:
    shape: FinCategory
    skeleton: FinCategory
    diagrams: FunctorCategory
    het: HetBifunctor
    delta: FinFunctor                     # expected left adjoint, always total
    lim: FinFunctor | None                # expected right adjoint when total
    lim_cards: dict[str, int]             # diagram id -> |limit|
    lim_escape: tuple[str, ...]           # diagrams whose limit exceeds the skeleton
    identity_cones: dict[str, str]        # w -> expected h_w
    projection_cones: dict[str, str]      # diagram id -> expected e_D (when lim fits)


def limits_adjunction(shape_name: str, n: int, guard: int = 10_000) -> LimitsInstance:
    """Cells are cones w => D over the skeleton 0..n; expected adjoints are the
    constant-diagram functor and the limit functor."""
    shape = diagram_shape(shape_name)
    skel = finset_skeleton(n)
    fcat = functor_category(shape, skel, guard=guard)
    order = shape.objects
    non_id = [m for m in shape.morphisms if not shape.is_identity(m.id)]

    def cones_of(w: int, did: str) -> list[Legs]:
        fun = fcat.functors[did]
        cards = _diagram_cards(shape, fun)
        arrows = {m.id: fn_images(fun.on_mor(m.id)) for m in non_id}
        pools = [itertools.product(range(c), repeat=w) for c in cards]
        out = []
        idx = {o: i for i, o in enumerate(order)}
        for combo in itertools.product(*pools):
            if all(arrows[m.id][combo[idx[m.dom]][i]] == combo[idx[m.cod]][i]
                   for m in non_id for i in range(w)):
                out.append(tuple(combo))
        return out

    cells: dict[tuple[str, str], tuple[str, ...]] = {}
    legs_of: dict[str, tuple[str, str, Legs]] = {}
    id_of: dict[tuple[str, str, Legs], str] = {}
    for wobj in skel.objects:
        w = skeleton_card(wobj)
        for did in fcat.objects:
            ids = []
            for legs in cones_of(w, did):
                cid = _cone_id(wobj, did, legs)
                ids.append(cid)
                legs_of[cid] = (wobj, did, legs)
                id_of[(wobj, did, legs)] = cid
            cells[(wobj, did)] = tuple(ids)

    act_left: dict[str, dict[str, str]] = {}
    for h in skel.morphisms:
        hi = fn_images(h.id)
        table = {}
        for did in fcat.objects:
            for cid in cells[(h.cod, did)]:
                _, _, legs = legs_of[cid]
                new = tuple(tuple(leg[i] for i in hi) for leg in legs)
                table[cid] = id_of[(h.dom, did, new)]
        act_left[h.id] = table
    act_right: dict[str, dict[str, str]] = {}
    for t in fcat.morphisms:
        comps = [fn_images(fcat.transformations[t.id].components[o]) for o in order]
        table = {}
        for wobj in skel.objects:
            for cid in cells[(wobj, t.dom)]:
                _, _, legs = legs_of[cid]
                new = tuple(tuple(comps[i][v] for v in leg)
                            for i, leg in enumerate(legs))
                table[cid] = id_of[(wobj, t.cod, new)]
        act_right[t.id] = table
    het = HetBifunctor(f"cones[{shape_name},n={n}]", skel, fcat,
                       cells, act_left, act_right)

    # expected left adjoint: the constant-diagram functor
    lookup = _nat_lookup(fcat, shape)
    const_id = {}
    for wobj in skel.objects:
        target = {o: wobj for o in order}
        for did, fun in fcat.functors.items():
            if fun.obj_map == target and all(fcat.functors[did].on_mor(m.id) ==
                                             skel.id_of(wobj) for m in non_id):
                const_id[wobj] = did
                break
    delta = FinFunctor(
        "Delta", skel, fcat,
        obj_map=const_id,
        mor_map={h.id: lookup[(const_id[h.dom], const_id[h.cod],
                               tuple(h.id for _ in order))]
                 for h in skel.morphisms},
    )

    # expected right adjoint via the direct limit computation
    lim_cards = {}
    lim_tuples = {}
    for did, fun in fcat.functors.items():
        res = limit_of(skeleton_functor_to_diagram(shape, skel, fun.obj_map, fun.mor_map))
        lim_cards[did] = res.apex.size
        lim_tuples[did] = res.tuples
    escape = tuple(did for did, card in lim_cards.items() if card > n)
    lim = None
    if not escape:
        obj_map = {did: str(card) for did, card in lim_cards.items()}
        mor_map = {}
        for t in fcat.morphisms:
            comps = [fn_images(fcat.transformations[t.id].components[o]) for o in order]
            src, dst = lim_tuples[t.dom], lim_tuples[t.cod]
            index = {tup: i for i, tup in enumerate(dst)}
            images = tuple(
                index[tuple(str(comps[i][int(tup[i])]) for i in range(len(order)))]
                for tup in src)
            mor_map[t.id] = fn_id(len(src), len(dst), images)
        lim = FinFunctor("Lim", fcat, skel, obj_map, mor_map)

    identity_cones = {}
    for wobj in skel.objects:
        w = skeleton_card(wobj)
        ident: Legs = tuple(tuple(range(w)) for _ in order)
        identity_cones[wobj] = _cone_id(wobj, const_id[wobj], ident)
    projection_cones = {}
    for did in fcat.objects:
        card = lim_cards[did]
        if card <= n:
            legs = tuple(tuple(int(tup[i]) for tup in lim_tuples[did])
                         for i in range(len(order)))
            projection_cones[did] = _cone_id(str(card), did, legs)
    return LimitsInstance(shape, skel, fcat, het, delta, lim,
                          lim_cards, escape, identity_cones, projection_cones)


@dataclass(frozen=True, eq=False)
class ColimitsInstance:
    shape: FinCategory
    diagrams: FunctorCategory             # the sending category
    skeleton: FinCategory                 # the receiving category, bound >= n
    het: HetBifunctor
    colim: FinFunctor                     # expected left adjoint, always total
    delta: FinFunctor | None              # expected right adjoint when total
    colim_cards: dict[str, int]
    delta_escape: tuple[str, ...]         # sets too large to be diagram values
    injection_cocones: dict[str, str]     # diagram id -> expected h_D
    identity_cocones: dict[str, str]      # z -> expected e_z (when Delta z exists)


def colimits_adjunction(shape_name: str, n: int, guard: int = 10_000) -> ColimitsInstance:
    """Cells are cocones D => z. The receiving skeleton is enlarged to the
    largest colimit so the colimit functor is total; the diagonal side is
    total only when no colimit exceeds n."""
    shape = diagram_shape(shape_name)
    diag_skel = finset_skeleton(n)
    fcat = functor_category(shape, diag_skel, guard=guard)
    order = shape.objects
    non_id = [m for m in shape.morphisms if not shape.is_identity(m.id)]

    colim_results = {}
    for did, fun in fcat.functors.items():
        colim_results[did] = colimit_of(
            skeleton_functor_to_diagram(shape, diag_skel, fun.obj_map, fun.mor_map))
    colim_cards = {did: r.apex.size for did, r in colim_results.items()}
    bound = max([n] + list(colim_cards.values()))
    skel = finset_skeleton(bound)

    def cocones_of(did: str, z: int) -> list[Legs]:
        fun = fcat.functors[did]
        cards = _diagram_cards(shape, fun)
        arrows = {m.id: fn_images(fun.on_mor(m.id)) for m in non_id}
        pools = [itertools.product(range(z), repeat=c) for c in cards]
        idx = {o: i for i, o in enumerate(order)}
        out = []
        for combo in itertools.product(*pools):
            if all(combo[idx[m.cod]][arrows[m.id][e]] == combo[idx[m.dom]][e]
                   for m in non_id for e in range(cards[idx[m.dom]])):
                out.append(tuple(combo))
        return out

    cells: dict[tuple[str, str], tuple[str, ...]] = {}
    legs_of: dict[str, tuple[str, str, Legs]] = {}
    id_of: dict[tuple[str, str, Legs], str] = {}
    for did in fcat.objects:
        for zobj in skel.objects:
            ids = []
            for legs in cocones_of(did, skeleton_card(zobj)):
                cid = _cocone_id(did, zobj, legs)
                ids.append(cid)
                legs_of[cid] = (did, zobj, legs)
                id_of[(did, zobj, legs)] = cid
            cells[(did, zobj)] = tuple(ids)

    act_left: dict[str, dict[str, str]] = {}
    for t in fcat.morphisms:
        comps = [fn_images(fcat.transformations[t.id].components[o]) for o in order]
        cards = _diagram_cards(shape, fcat.functors[t.dom])
        table = {}
        for zobj in skel.objects:
            for cid in cells[(t.cod, zobj)]:
                _, _, legs = legs_of[cid]
                new = tuple(tuple(legs[i][comps[i][e]] for e in range(cards[i]))
                            for i in range(len(order)))
                table[cid] = id_of[(t.dom, zobj, new)]
        act_left[t.id] = table
    act_right: dict[str, dict[str, str]] = {}
    for h in skel.morphisms:
        hi = fn_images(h.id)
        table = {}
        for did in fcat.objects:
            for cid in cells[(did, h.dom)]:
                _, _, legs = legs_of[cid]
                new = tuple(tuple(hi[v] for v in leg) for leg in legs)
                table[cid] = id_of[(did, h.cod, new)]
        act_right[h.id] = table
    het = HetBifunctor(f"cocones[{shape_name},n={n}]", fcat, skel,
                       cells, act_left, act_right)

    # expected left adjoint: the colimit functor (total by choice of bound)
    obj_map = {did: str(card) for did, card in colim_cards.items()}
    mor_map = {}
    for t in fcat.morphisms:
        comps = {o: fn_images(fcat.transformations[t.id].components[o]) for o in order}
        src, dst = colim_results[t.dom], colim_results[t.cod]
        dst_index = {name: i for i, name in enumerate(dst.apex.elements)}
        images = []
        for block_name in src.apex.elements:
            o, e = src.blocks[block_name][0]
            target = dst.cocone.legs[o][str(comps[o][int(e)])]
            images.append(dst_index[target])
        mor_map[t.id] = fn_id(len(src.apex.elements), len(dst.apex.elements),
                              tuple(images))
    colim = FinFunctor("Colim", fcat, skel, obj_map, mor_map)

    # expected right adjoint: the constant-diagram functor, total iff bound == n
    lookup = _nat_lookup(fcat, shape)
    escape = tuple(z for z in skel.objects if skeleton_card(z) > n)
    delta = None
    const_id = {}
    for zobj in diag_skel.objects:
        target = {o: zobj for o in order}
        for did, fun in fcat.functors.items():
            if fun.obj_map == target and all(fun.on_mor(m.id) == diag_skel.id_of(zobj)
                                             for m in non_id):
                const_id[zobj] = did
                break
    if not escape:
        delta = FinFunctor(
            "Delta", skel, fcat,
            obj_map=dict(const_id),
            mor_map={h.id: lookup[(const_id[h.dom], const_id[h.cod],
                                   tuple(h.id for _ in order))]
                     for h in skel.morphisms},
        )

    injection_cocones = {}
    for did in fcat.objects:
        res = colim_results[did]
        index = {name: i for i, name in enumerate(res.apex.elements)}
        cards = _diagram_cards(shape, fcat.functors[did])
        legs = tuple(
            tuple(index[res.cocone.legs[o][str(e)]] for e in range(cards[i]))
            for i, o in enumerate(order))
        injection_cocones[did] = _cocone_id(did, str(res.apex.size), legs)
    identity_cocones = {}
    for zobj in diag_skel.objects:
        z = skeleton_card(zobj)
        legs: Legs = tuple(tuple(range(z)) for _ in order)
        identity_cocones[zobj] = _cocone_id(const_id[zobj], zobj, legs)
    return ColimitsInstance(shape, fcat, skel, het, colim, delta,
                            colim_cards, escape, injection_cocones, identity_cocones)
