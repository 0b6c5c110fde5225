"""Comma categories from functor pairs and from bifunctors, and the
executable form of the comma-category definition of an adjunction.

A comma category is tabulated once, over dense ints. Object i is the i-th
source triple in sorted order; morphism n is the n-th commuting pair in
enumeration order; composition is one int row per morphism. The string view
(`base`, the projections, `objects_data`, `morphisms_data`) is built from
the table on first access. The comma isomorphisms are decided on the int
tables; only an isomorphism that fails materialises both string views and
runs the string check, which names the witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable
from itertools import repeat
from operator import sub

from .adjunction import Adjunction
from .errors import GuardExceeded, StructuralError
from .fincat import FinCategory, FinFunctor, Morphism, check_functor, identity_functor
from .het import HetBifunctor, hom_bifunctor
from .report import LawReport


@dataclass(frozen=True, eq=False, repr=False)
class CommaCategory:
    """A comma category, stored as int tables, with a lazy string view.

    `triples[i]` is object i: (left source object, right source object,
    connecting datum); the datum is a morphism id for the functor form and a
    het element id for the bifunctor form. Morphism n runs from `dom[n]` to
    `cod[n]` with components `ks[n]` (left) and `hs[n]` (right); `index`
    maps (dom, cod, k, h) back to n. The morphisms leaving object i are
    `range(start[i], start[i + 1])`. `ident[i]` is the identity of object i
    (None if none commutes), and `rows[n]` holds the composite of n with each
    morphism leaving `cod[n]`, in order (None where there is none).

    `base`, `pi0`, `pi1`, `objects_data` and `morphisms_data` are the string
    view, with objects `o{i}` and morphisms `m{n}`, built on first access.
    """

    name: str
    left_cat: FinCategory
    right_cat: FinCategory
    triples: list[tuple[str, str, str]]
    dom: list[int]
    cod: list[int]
    ks: list[str]
    hs: list[str]
    index: dict[tuple[int, int, str, str], int]
    start: list[int]
    ident: list[int | None]
    rows: list[tuple[int | None, ...]]
    complete: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "complete", all(None not in row for row in self.rows))
        oid_of: dict[tuple[str, str, str], int] = {}
        for i, triple in enumerate(self.triples):
            oid_of.setdefault(triple, i)
        object.__setattr__(self, "_oid_of", oid_of)

    def __repr__(self) -> str:
        return (f"CommaCategory({self.name!r}, {len(self.triples)} objects, "
                f"{len(self.dom)} morphisms)")

    def object_id(self, left: str, right: str, datum: str) -> str:
        try:
            return f"o{self._oid_of[(left, right, datum)]}"
        except KeyError:
            raise StructuralError(
                f"comma category has no object ({left}, {right}, {datum})") from None

    @cached_property
    def _oids(self) -> list[str]:
        return [f"o{i}" for i in range(len(self.triples))]

    @cached_property
    def _mids(self) -> list[str]:
        return [f"m{n}" for n in range(len(self.dom))]

    @cached_property
    def objects_data(self) -> dict[str, tuple[str, str, str]]:
        return dict(zip(self._oids, self.triples))

    @cached_property
    def morphisms_data(self) -> dict[str, tuple[str, str]]:
        return dict(zip(self._mids, zip(self.ks, self.hs)))

    @cached_property
    def base(self) -> FinCategory:
        oids, mids, start = self._oids, self._mids, self.start
        comp = {}
        for m1, d, row in zip(mids, self.cod, self.rows):
            for m2, m3 in zip(range(start[d], start[d + 1]), row):
                if m3 is not None:
                    comp[(m1, mids[m2])] = mids[m3]
        return FinCategory(
            name=self.name,
            objects=tuple(oids),
            morphisms=tuple(Morphism(mid, oids[s], oids[d], label=f"({k},{h})")
                            for mid, s, d, k, h in zip(mids, self.dom, self.cod,
                                                       self.ks, self.hs)),
            identity={oids[i]: mids[n] for i, n in enumerate(self.ident) if n is not None},
            comp=comp,
            obj_labels={oid: f"({t[0]},{t[1]},{t[2]})" for oid, t in zip(oids, self.triples)},
        )

    @cached_property
    def pi0(self) -> FinFunctor:
        return FinFunctor(f"{self.name}.pi0", self.base, self.left_cat,
                          {oid: t[0] for oid, t in zip(self._oids, self.triples)},
                          dict(zip(self._mids, self.ks)))

    @cached_property
    def pi1(self) -> FinFunctor:
        return FinFunctor(f"{self.name}.pi1", self.base, self.right_cat,
                          {oid: t[1] for oid, t in zip(self._oids, self.triples)},
                          dict(zip(self._mids, self.hs)))


def _out_homs(cat: FinCategory) -> dict[str, dict[str, list[str]]]:
    """x -> y -> hom(x, y), in morphism order, for every non-empty hom."""
    out: dict[str, dict[str, list[str]]] = {}
    for m in cat.morphisms:
        out.setdefault(m.dom, {}).setdefault(m.cod, []).append(m.id)
    return out


def _row_getters(cat: FinCategory) -> dict[str, Callable[[str], str | None]]:
    """f -> the `get` of {g: f then g}, over the composition table."""
    rows: dict[str, dict[str, str]] = {m.id: {} for m in cat.morphisms}
    for (f, g), h in cat.comp.items():
        rows[f][g] = h
    return {f: row.get for f, row in rows.items()}


def _tabulate(name: str, left_cat: FinCategory, right_cat: FinCategory,
              triples: list[tuple[str, str, str]],
              commutes, guard: int) -> CommaCategory:
    """Shared construction: enumerate morphism pairs over the given objects.

    `commutes(src_triple, dst_triple, k, h)` decides whether the pair (k, h)
    is a morphism from the first object to the second. It is called source
    by source, destination by destination in object order, k then h in hom
    order, and only where both homs are non-empty: destinations are reached
    through the out-homs of the two source categories, not by scanning all
    pairs of objects.
    """
    triples = sorted(triples)
    if len(triples) > guard:
        raise GuardExceeded(
            f"{name}: {len(triples)} objects exceeds guard {guard}", len(triples))
    left_out, right_out = _out_homs(left_cat), _out_homs(right_cat)
    by_pair: dict[tuple[str, str], list[int]] = {}
    for i, t in enumerate(triples):
        by_pair.setdefault(t[:2], []).append(i)
    dom: list[int] = []
    cod: list[int] = []
    ks: list[str] = []
    hs: list[str] = []
    start = [0]
    for i, src in enumerate(triples):
        reach: dict[int, tuple[list[str], list[str]]] = {}
        right_homs = right_out.get(src[1], {}).items()
        for l2, k_hom in left_out.get(src[0], {}).items():
            for r2, h_hom in right_homs:
                for j in by_pair.get((l2, r2), ()):
                    reach[j] = (k_hom, h_hom)
        for j in sorted(reach):
            dst = triples[j]
            k_hom, h_hom = reach[j]
            for k in k_hom:
                for h in h_hom:
                    if not commutes(src, dst, k, h):
                        continue
                    dom.append(i)
                    cod.append(j)
                    ks.append(k)
                    hs.append(h)
                    if len(dom) > guard:
                        raise GuardExceeded(
                            f"{name}: morphism count exceeds guard {guard}", len(dom))
        start.append(len(dom))
    index = {key: n for n, key in enumerate(zip(dom, cod, ks, hs))}
    ident = [index.get((i, i, left_cat.id_of(t[0]), right_cat.id_of(t[1])))
             for i, t in enumerate(triples)]
    # rows[n]: n then m for each m leaving cod n, looked up by (dom, cod, k, h)
    outs = [(cod[a:b], ks[a:b], hs[a:b]) for a, b in zip(start, start[1:])]
    left_get, right_get = _row_getters(left_cat), _row_getters(right_cat)
    get = index.get
    rows = []
    for s, d, k, h in zip(dom, cod, ks, hs):
        out_cod, out_k, out_h = outs[d]
        rows.append(tuple(map(get, zip(repeat(s), out_cod, map(left_get[k], out_k),
                                       map(right_get[h], out_h)))))
    return CommaCategory(name, left_cat, right_cat, triples, dom, cod, ks, hs,
                         index, start, ident, rows)


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

    return _tabulate(f"({left.name},{right.name})",
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

    return _tabulate(f"comma[{het.name}]", het.x_cat, het.a_cat,
                     triples, commutes, guard)


def _comma_iso(first: CommaCategory, second: CommaCategory,
               object_map: dict[str, str], subject: str) -> LawReport:
    """Verify that mapping objects by `object_map` and morphisms by their
    (k, h) component pairs is a functorial isomorphism over the projections.

    Decided on the int tables; the string check runs only when this fails,
    to name the witnesses, so a failing report is the string check's own.
    """
    if _int_comma_iso(first, second, object_map):
        return LawReport(subject)
    return _comma_iso_witnesses(first, second, object_map, subject)


def _int_comma_iso(first: CommaCategory, second: CommaCategory,
                   object_map: dict[str, str]) -> bool:
    """True only if `_comma_iso_witnesses` would report nothing."""
    # the object map is a permutation
    n_obj = len(first.triples)
    to_int = dict(zip(second._oids, range(len(second.triples))))
    omap = list(map(to_int.get, map(object_map.get, first._oids)))
    if len(object_map) != n_obj or len(second.triples) != n_obj or \
            None in omap or len(set(omap)) != n_obj:
        return False
    # morphisms map through their (omap dom, omap cod, k, h) key, bijectively;
    # this also preserves dom/cod and agrees with the projections on (k, h)
    at = omap.__getitem__
    mor = list(map(second.index.get, zip(map(at, first.dom), map(at, first.cod),
                                         first.ks, first.hs)))
    if None in mor or len(mor) != len(second.dom) or len(set(mor)) != len(mor):
        return False
    # identities are preserved
    ident2 = second.ident
    if any(n is not None and mor[n] != ident2[j]
           for n, j in zip(first.ident, omap)):
        return False
    # the projections agree on objects
    triples2 = second.triples
    if any(t[:2] != triples2[j][:2] for t, j in zip(first.triples, omap)):
        return False
    # composition is preserved, one row at a time: n's row mapped through mor
    # equals mor[n]'s row, re-indexed by position in the target's out-lists
    # (a None in a target row never equals a mapped int)
    if not first.complete:
        return False
    start1, start2 = first.start, second.start
    perm = [tuple(map(sub, mor[a:b], repeat(start2[j])))
            for a, b, j in zip(start1, start1[1:], omap)]
    rows2 = second.rows
    mor_at = mor.__getitem__
    for n, (d, row) in enumerate(zip(first.cod, first.rows)):
        if tuple(map(mor_at, row)) != tuple(map(rows2[mor[n]].__getitem__, perm[d])):
            return False
    return True


def _comma_iso_witnesses(first: CommaCategory, second: CommaCategory,
                         object_map: dict[str, str], subject: str) -> LawReport:
    """The string form of `_comma_iso` on the materialised commas: every
    violation, with its witness."""
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
