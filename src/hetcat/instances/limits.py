"""The diagonal/limit and colimit/diagonal adjunctions at finite scale.

Heteromorphisms from a set to a diagram are cones; from a diagram to a set,
cocones. Cells are tabulated exhaustively over a finite-set skeleton and the
functor category of diagrams, and the adjoints are recovered by the generic
representability search, then compared against the direct limit and colimit
computations. Cells keep each element's legs; an action table sends every
leg through a per-morphism dict of leg images and looks the result up in the
target cell's index, so it is filled in time linear in its entries.

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
from .finset import (_actions, _functions, _postcompose, _precompose,
                     diagram_shape, finset_skeleton, fn_id, fn_images,
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


def _components(leg_maps, fcat: FunctorCategory, t: str, order) -> tuple[dict, ...]:
    """The leg maps of t's components, in shape-object order."""
    components = fcat.transformations[t].components
    return tuple(leg_maps[components[o]] for o in order)


def _diagonal(shape: FinCategory, skel: FinCategory,
              fcat: FunctorCategory) -> tuple[dict[str, str], FinFunctor | None]:
    """The constant diagram at each object of skel that has one in fcat, and
    the constant-diagram functor skel -> fcat when every object has one."""
    non_id = [m for m in shape.morphisms if not shape.is_identity(m.id)]
    const_id = {}
    for wobj in skel.objects:
        target = {o: wobj for o in shape.objects}
        for did, fun in fcat.functors.items():
            if fun.obj_map == target and all(fun.on_mor(m.id) == skel.id_of(wobj)
                                             for m in non_id):
                const_id[wobj] = did
                break
    if len(const_id) < len(skel.objects):
        return const_id, None
    lookup = {
        (m.dom, m.cod, tuple(fcat.transformations[m.id].components[o]
                             for o in shape.objects)): m.id
        for m in fcat.morphisms
    }
    return const_id, FinFunctor(
        "Delta", skel, fcat,
        obj_map=dict(const_id),
        mor_map={h.id: lookup[(const_id[h.dom], const_id[h.cod],
                               tuple(h.id for _ in shape.objects))]
                 for h in skel.morphisms},
    )


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
    legs: dict[tuple[str, str], list[Legs]] = {}
    for wobj in skel.objects:
        for did in fcat.objects:
            legs[(wobj, did)] = found = cones_of(skeleton_card(wobj), did)
            cells[(wobj, did)] = tuple(_cone_id(wobj, did, cone) for cone in found)

    # a leg w -> c is a function of the skeleton: h: w' -> w acts by "h then
    # leg", a transformation by "leg then its component"
    before = {h.id: _precompose(fn_images(h.id), _functions((skeleton_card(h.cod),), n))
              for h in skel.morphisms}
    after = {g.id: _postcompose(fn_images(g.id), _functions(range(n + 1), skeleton_card(g.dom)))
             for g in skel.morphisms}
    action = _actions(cells, legs)
    act_left = {h.id: action((before[h.id],) * len(order),
                             [((h.cod, did), (h.dom, did)) for did in fcat.objects])
                for h in skel.morphisms}
    act_right = {t.id: action(_components(after, fcat, t.id, order),
                              [((wobj, t.dom), (wobj, t.cod)) for wobj in skel.objects])
                 for t in fcat.morphisms}
    het = HetBifunctor(f"cones[{shape_name},n={n}]", skel, fcat,
                       cells, act_left, act_right)

    # expected left adjoint: the constant-diagram functor
    const_id, delta = _diagonal(shape, skel, fcat)

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
    legs: dict[tuple[str, str], list[Legs]] = {}
    for did in fcat.objects:
        for zobj in skel.objects:
            legs[(did, zobj)] = found = cocones_of(did, skeleton_card(zobj))
            cells[(did, zobj)] = tuple(_cocone_id(did, zobj, cocone) for cocone in found)

    # a leg c -> z is a function of the skeleton: a transformation acts by
    # "its component then leg", h: z -> z' by "leg then h"
    before = {g.id: _precompose(fn_images(g.id), _functions((skeleton_card(g.cod),), bound))
              for g in diag_skel.morphisms}
    after = {h.id: _postcompose(fn_images(h.id), _functions(range(n + 1), skeleton_card(h.dom)))
             for h in skel.morphisms}
    action = _actions(cells, legs)
    act_left = {t.id: action(_components(before, fcat, t.id, order),
                             [((t.cod, zobj), (t.dom, zobj)) for zobj in skel.objects])
                for t in fcat.morphisms}
    act_right = {h.id: action((after[h.id],) * len(order),
                              [((did, h.dom), (did, h.cod)) for did in fcat.objects])
                 for h in skel.morphisms}
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
    escape = tuple(z for z in skel.objects if skeleton_card(z) > n)
    const_id, delta = _diagonal(shape, skel, fcat)

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
