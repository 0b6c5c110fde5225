"""The diagonal/limit and colimit/diagonal adjunctions at finite scale.

Heteromorphisms from a set to a diagram are cones; from a diagram to a set,
cocones. A cone w => D is a natural transformation from the constant diagram
at w to D, a cocone D => z one from D to the constant diagram at z (CWM
III.3-4), so the cells are listed by `natural_transformations`, which also
lists the morphisms of the functor category of diagrams. The adjoints are
recovered by the generic representability search, then compared against the
direct limit and colimit computations. Cells keep each element's legs, and
`leg_het` fills the action tables by sending every leg through a
per-morphism dict of leg images.

Finiteness caveat: a representing object for Het(-, D) is a set of the same
cardinality as the limit of D, and limits of discrete diagrams multiply
cardinalities. Whenever a limit (or colimit) escapes the skeleton bound, the
corresponding side of the adjunction is honestly non-representable and the
instance records which diagrams (or sets) escape; the expected functor is
then built only when total.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..fincat import (FinCategory, FinFunctor, FunctorCategory, constant_functor,
                      functor_category, natural_transformations)
from ..het import HetBifunctor
from .finset import (_functions, _postcompose, _precompose, diagram_shape,
                     finset_skeleton, fn_id, fn_images, leg_het, limit_of,
                     colimit_of, skeleton_functor_to_diagram)

Legs = tuple[tuple[int, ...], ...]


def _leg_id(tag: str, src: str, dst: str, legs: Legs) -> str:
    """The id of the cone (tag "cn") or cocone (tag "cc") src => dst with these legs."""
    body = "|".join(",".join(str(v) for v in leg) for leg in legs)
    return f"{tag}:{src}>{dst}:{body}"


def _legs(shape: FinCategory, skel: FinCategory, F: FinFunctor, H: FinFunctor) -> list[Legs]:
    """Each transformation F => H into skel as its components' image tuples."""
    return [tuple(map(fn_images, t)) for t in natural_transformations(shape, skel, F, H)]


def _diagonal(shape: FinCategory, skel: FinCategory, fcat: FunctorCategory,
              deltas: dict[str, FinFunctor]) -> tuple[dict[str, str], FinFunctor | None]:
    """The diagram in fcat equal to each constant functor deltas[w], where
    one is, and the constant-diagram functor skel -> fcat when all are."""
    const_id = {}
    for wobj, delta in deltas.items():
        for did, fun in fcat.functors.items():
            if fun.obj_map == delta.obj_map and fun.mor_map == delta.mor_map:
                const_id[wobj] = did
                break
    if len(const_id) < len(skel.objects):
        return const_id, None
    lookup = {(m.dom, m.cod, fcat.components[m.id]): m.id for m in fcat.morphisms}
    return const_id, FinFunctor(
        "Delta", skel, fcat,
        obj_map=dict(const_id),
        mor_map={h.id: lookup[(const_id[h.dom], const_id[h.cod], (h.id,) * len(shape.objects))]
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
    deltas = {w: constant_functor(shape, skel, w) for w in skel.objects}

    # a cone w => D is a transformation from the constant diagram at w to D
    cells: dict[tuple[str, str], tuple[str, ...]] = {}
    legs: dict[tuple[str, str], list[Legs]] = {}
    for wobj in skel.objects:
        for did, fun in fcat.functors.items():
            legs[(wobj, did)] = found = _legs(shape, skel, deltas[wobj], fun)
            cells[(wobj, did)] = tuple(_leg_id("cn", wobj, did, cone) for cone in found)

    # a leg w -> c is a function of the skeleton: h: w' -> w acts by "h then
    # leg", a transformation by "leg then its component"
    before = {h.id: _precompose(fn_images(h.id), _functions((int(h.cod),), n))
              for h in skel.morphisms}
    after = {g.id: _postcompose(fn_images(g.id), _functions(range(n + 1), int(g.dom)))
             for g in skel.morphisms}
    het = leg_het(f"cones[{shape_name},n={n}]", skel, fcat, cells, legs,
                  lambda h: (before[h.id],) * len(order),
                  lambda t: tuple(map(after.__getitem__, fcat.components[t.id])))

    # expected left adjoint: the constant-diagram functor
    const_id, delta = _diagonal(shape, skel, fcat, deltas)

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
            comps = list(map(fn_images, fcat.components[t.id]))
            src, dst = lim_tuples[t.dom], lim_tuples[t.cod]
            index = {tup: i for i, tup in enumerate(dst)}
            images = tuple(
                index[tuple(str(comps[i][int(tup[i])]) for i in range(len(order)))]
                for tup in src)
            mor_map[t.id] = fn_id(len(src), len(dst), images)
        lim = FinFunctor("Lim", fcat, skel, obj_map, mor_map)

    identity_cones = {
        w: _leg_id("cn", w, const_id[w], (tuple(range(int(w))),) * len(order))
        for w in skel.objects}
    projection_cones = {}
    for did in fcat.objects:
        card = lim_cards[did]
        if card <= n:
            legs = tuple(tuple(int(tup[i]) for tup in lim_tuples[did])
                         for i in range(len(order)))
            projection_cones[did] = _leg_id("cn", str(card), did, legs)
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

    colim_results = {}
    for did, fun in fcat.functors.items():
        colim_results[did] = colimit_of(
            skeleton_functor_to_diagram(shape, diag_skel, fun.obj_map, fun.mor_map))
    colim_cards = {did: r.apex.size for did, r in colim_results.items()}
    bound = max([n] + list(colim_cards.values()))
    skel = finset_skeleton(bound)
    deltas = {z: constant_functor(shape, skel, z) for z in skel.objects}

    # a cocone D => z is a transformation from D to the constant diagram at
    # z; D's morphism ids are ids of the larger skeleton too
    cells: dict[tuple[str, str], tuple[str, ...]] = {}
    legs: dict[tuple[str, str], list[Legs]] = {}
    for did, fun in fcat.functors.items():
        for zobj in skel.objects:
            legs[(did, zobj)] = found = _legs(shape, skel, fun, deltas[zobj])
            cells[(did, zobj)] = tuple(_leg_id("cc", did, zobj, cocone) for cocone in found)

    # a leg c -> z is a function of the skeleton: a transformation acts by
    # "its component then leg", h: z -> z' by "leg then h"
    before = {g.id: _precompose(fn_images(g.id), _functions((int(g.cod),), bound))
              for g in diag_skel.morphisms}
    after = {h.id: _postcompose(fn_images(h.id), _functions(range(n + 1), int(h.dom)))
             for h in skel.morphisms}
    het = leg_het(f"cocones[{shape_name},n={n}]", fcat, skel, cells, legs,
                  lambda t: tuple(map(before.__getitem__, fcat.components[t.id])),
                  lambda h: (after[h.id],) * len(order))

    # expected left adjoint: the colimit functor (total by choice of bound)
    obj_map = {did: str(card) for did, card in colim_cards.items()}
    mor_map = {}
    for t in fcat.morphisms:
        comps = dict(zip(order, map(fn_images, fcat.components[t.id])))
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
    escape = tuple(z for z in skel.objects if int(z) > n)
    const_id, delta = _diagonal(shape, skel, fcat, deltas)

    injection_cocones = {}
    for did in fcat.objects:
        res = colim_results[did]
        index = {name: i for i, name in enumerate(res.apex.elements)}
        legs = tuple(tuple(map(index.__getitem__, res.cocone.legs[o].values()))
                     for o in order)
        injection_cocones[did] = _leg_id("cc", did, str(res.apex.size), legs)
    identity_cocones = {
        z: _leg_id("cc", const_id[z], z, (tuple(range(int(z))),) * len(order))
        for z in diag_skel.objects}
    return ColimitsInstance(shape, fcat, skel, het, colim, delta,
                            colim_cards, escape, injection_cocones, identity_cocones)
