"""Comma categories from functor pairs and from bifunctors, and the
executable form of the comma-category definition of an adjunction.

Objects are canonically ordered (lexicographic in source ids) so isomorphism
checks can normalize before comparing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .adjunction import Adjunction
from .errors import GuardExceeded, StructuralError
from .fincat import FinCategory, FinFunctor, Morphism, check_functor, identity_functor
from .het import HetBifunctor, hom_bifunctor
from .report import LawReport


@dataclass(frozen=True, eq=False)
class CommaCategory:
    """A comma category with its two projection functors.

    `objects_data` maps object ids to (left source object, right source
    object, connecting datum); the connecting datum is a morphism id for the
    functor form and a het element id for the bifunctor form.
    """

    base: FinCategory
    pi0: FinFunctor
    pi1: FinFunctor
    objects_data: dict[str, tuple[str, str, str]]
    morphisms_data: dict[str, tuple[str, str]]

    def __post_init__(self):
        oid_of: dict[tuple[str, str, str], str] = {}
        for oid, triple in self.objects_data.items():
            oid_of.setdefault(triple, oid)
        object.__setattr__(self, "_oid_of", oid_of)

    def object_id(self, left: str, right: str, datum: str) -> str:
        try:
            return self._oid_of[(left, right, datum)]
        except KeyError:
            raise StructuralError(
                f"comma category has no object ({left}, {right}, {datum})") from None


def _build_comma(name: str, left_cat: FinCategory, right_cat: FinCategory,
                 triples: list[tuple[str, str, str]],
                 commutes, guard: int) -> CommaCategory:
    """Shared construction: enumerate morphism pairs over the given objects.

    `commutes(src_triple, dst_triple, k, h)` decides whether the pair (k, h)
    is a morphism from the first object to the second.
    """
    triples = sorted(triples)
    if len(triples) > guard:
        raise GuardExceeded(
            f"{name}: {len(triples)} objects exceeds guard {guard}", len(triples))
    oid_of = {t: f"o{i}" for i, t in enumerate(triples)}
    objects_data = {oid_of[t]: t for t in triples}
    morphisms: list[Morphism] = []
    morphisms_data: dict[str, tuple[str, str]] = {}
    pair_to_mid: dict[tuple[str, str, str, str], str] = {}
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
    by_dom: dict[str, list[Morphism]] = {}
    for m in morphisms:
        by_dom.setdefault(m.dom, []).append(m)
    lcomp, rcomp = left_cat.comp, right_cat.comp
    for m1 in morphisms:
        k1, h1 = morphisms_data[m1.id]
        for m2 in by_dom.get(m1.cod, ()):
            k2, h2 = morphisms_data[m2.id]
            key = (m1.dom, m2.cod, lcomp[(k1, k2)], rcomp[(h1, h2)])
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
    return CommaCategory(base, pi0, pi1, objects_data, morphisms_data)


def comma_of_functors(left: FinFunctor, right: FinFunctor,
                      guard: int = 10_000) -> CommaCategory:
    """The comma category of two functors into a shared target.

    Objects are triples (a, b, m) with m: left(a) -> right(b); a morphism
    (k, h) requires "m then right(h)" to equal "left(k) then m'".
    """
    if left.target != right.target:
        raise StructuralError("comma_of_functors: functors have different targets")
    target = left.target
    triples = [
        (a, b, m)
        for a in left.source.objects
        for b in right.source.objects
        for m in target.hom(left.on_obj(a), right.on_obj(b))
    ]

    def commutes(src, dst, k, h):
        return target.compose(src[2], right.on_mor(h)) == \
            target.compose(left.on_mor(k), dst[2])

    return _build_comma(f"({left.name},{right.name})",
                        left.source, right.source, triples, commutes, guard)


def comma_of_bifunctor(het: HetBifunctor, guard: int = 10_000) -> CommaCategory:
    """The comma category of a het-bifunctor: objects are its elements.

    A morphism from c to c' is a pair (j, k) with k.c = c'.j, the commuting
    square condition stated in the actions.
    """
    triples = [
        (x, a, c)
        for (x, a) in ((x, a) for x in het.x_cat.objects for a in het.a_cat.objects)
        for c in het.cell(x, a)
    ]

    def commutes(src, dst, j, k):
        return het.act_r(k, src[2]) == het.act_l(j, dst[2])

    return _build_comma(f"comma[{het.name}]", het.x_cat, het.a_cat,
                        triples, commutes, guard)


def _comma_iso(first: CommaCategory, second: CommaCategory,
               object_map: dict[str, str], subject: str) -> LawReport:
    """Verify that mapping objects by `object_map` and morphisms by their
    (k, h) component pairs is a functorial isomorphism over the projections."""
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


def lawvere_iso_check(adj: Adjunction, guard: int = 10_000) -> LawReport:
    """The comma categories (F, 1_A) and (1_X, G) are isomorphic over the
    projections, and both are isomorphic to the comma category of the het.

    The object correspondence comes from the transpose bijections: a triple
    (x, a, g) matches (x, a, g*) and both match the heteromorphism with those
    transposes.
    """
    rep = LawReport(f"comma-category equivalence of {adj.het.name}")
    left_comma = comma_of_functors(adj.F, identity_functor(adj.a_cat), guard)
    right_comma = comma_of_functors(identity_functor(adj.x_cat), adj.G, guard)
    het_comma = comma_of_bifunctor(adj.het, guard)
    # (F, 1_A) -> (1_X, G) by transposing the connecting morphism
    omap = {}
    for oid, (x, a, g) in left_comma.objects_data.items():
        f = adj.right.phi[(x, a)][adj.left.psi[(x, a)][g]]
        omap[oid] = right_comma.object_id(x, a, f)
    rep.extend(_comma_iso(left_comma, right_comma, omap,
                          "(F,1) ~ (1,G) over the projections"))
    # het comma -> (F, 1_A) by the receiving-side transpose g(c)
    omap = {}
    for oid, (x, a, c) in het_comma.objects_data.items():
        omap[oid] = left_comma.object_id(x, a, adj.g_of(c))
    rep.extend(_comma_iso(het_comma, left_comma, omap,
                          "het comma ~ (F,1) over the projections"))
    # het comma -> (1_X, G) by the sending-side transpose f(c)
    omap = {}
    for oid, (x, a, c) in het_comma.objects_data.items():
        omap[oid] = right_comma.object_id(x, a, adj.f_of(c))
    rep.extend(_comma_iso(het_comma, right_comma, omap,
                          "het comma ~ (1,G) over the projections"))
    return rep.normalize()


def half_lawvere_iso_check(het: HetBifunctor, left_rep, guard: int = 10_000) -> LawReport:
    """One-sided form: a left representation alone makes the het comma
    isomorphic to (F, 1_A) over the projections."""
    left_comma = comma_of_functors(left_rep.functor, identity_functor(het.a_cat), guard)
    het_comma = comma_of_bifunctor(het, guard)
    omap = {}
    for oid, (x, a, c) in het_comma.objects_data.items():
        omap[oid] = left_comma.object_id(x, a, left_rep.psi_inv(x, a, c))
    return _comma_iso(het_comma, left_comma, omap,
                      f"het comma ~ (F,1) for {het.name}")


def hom_comma_equivalence(cat: FinCategory, guard: int = 10_000) -> LawReport:
    """comma_of_bifunctor(hom) is isomorphic to comma_of_functors(1, 1)."""
    het_comma = comma_of_bifunctor(hom_bifunctor(cat), guard)
    fun_comma = comma_of_functors(identity_functor(cat), identity_functor(cat), guard)
    omap = {}
    for oid, (x, a, c) in het_comma.objects_data.items():
        omap[oid] = fun_comma.object_id(x, a, c)
    return _comma_iso(het_comma, fun_comma, omap,
                      f"hom comma ~ identity comma for {cat.name}")
