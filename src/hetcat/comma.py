"""Comma categories from functor pairs and from bifunctors, and the
executable form of the comma-category definition of an adjunction.

A comma category is tabulated once, over dense ints. Object i is the i-th
source triple in sorted order; morphism n is the n-th commuting pair in
enumeration order; composition is one int row per morphism. The string view
(`base`, the projections, `objects_data`, `morphisms_data`) is built from
the table on first access, for callers that want a `FinCategory`. The comma
isomorphisms are checked on the int tables alone, in one pass that decides
and names each witness in the string view's ids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable
from itertools import count, repeat
from operator import sub

from .adjunction import Adjunction
from .errors import GuardExceeded, StructuralError
# check_functor stays importable: bench/tracing.py rebinds hetcat.comma.check_functor
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
    """f -> the `get` of {g: f then g}, over the composable entries of the
    composition table."""
    rows: dict[str, dict[str, str]] = {m.id: {} for m in cat.morphisms}
    mor = cat._mor
    for (f, g), h in cat.comp.items():
        if mor[f].cod == mor[g].dom:
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

    then = _row_getters(target)
    left_mor, right_mor = left.mor_map.get, right.mor_map.get

    def commutes(src, dst, k, h):
        lk = left_mor(k)
        lhs = then[src[2]](right_mor(h))
        rhs = then[lk](dst[2]) if lk is not None else None
        if lhs is None or rhs is None:
            # a missing image or composite: the checked calls raise
            return target.compose(src[2], right.on_mor(h)) == \
                target.compose(left.on_mor(k), dst[2])
        return lhs == rhs

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
    """Check that mapping objects by `object_map` and morphisms by their
    (k, h) component pairs is a functorial isomorphism over the projections.

    One pass over the int tables, naming each violation in the string
    view's ids `o{i}`/`m{n}`. An object map that is not a bijection, or a
    morphism with no counterpart, ends the check; identities, composition
    and the projections on objects are then checked in full. A morphism's
    image is found by its (dom, cod, k, h) key, so the map keeps dom, cod
    and both components by construction.
    """
    rep = LawReport(subject)
    n_obj = len(first.triples)
    to_int = dict(zip(second._oids, range(len(second.triples))))
    omap = list(map(to_int.get, map(object_map.get, first._oids)))
    if len(object_map) != n_obj or len(second.triples) != n_obj or \
            None in omap or len(set(omap)) != n_obj:
        rep.add("object-bijection", (), "object correspondence is not a bijection")
        return rep
    at = omap.__getitem__
    mor = list(map(second.index.get, zip(map(at, first.dom), map(at, first.cod),
                                         first.ks, first.hs)))
    if None in mor:
        for n, (m, k, h) in enumerate(zip(mor, first.ks, first.hs)):
            if m is None:
                rep.add("morphism-correspondence", (f"m{n}", k, h),
                        "component pair is not a morphism of the second comma category")
    # the first comma's keys are distinct and omap is injective, so the
    # matched images are distinct: counting them decides the bijection
    matched = len(mor) - mor.count(None)
    if matched != len(second.dom):
        rep.add("morphism-bijection", (),
                f"{matched} of {len(mor)} morphisms matched, target has {len(second.dom)}")
    if not rep.ok:
        return rep.normalize()
    ident2, triples2 = second.ident, second.triples
    for i, (n, t, j) in enumerate(zip(first.ident, first.triples, omap)):
        if n is not None and mor[n] != ident2[j]:
            rep.add("identity-preservation", (f"o{i}",), f"image of m{n} is m{mor[n]}")
        if t[:2] != triples2[j][:2]:
            rep.add("projection-compatibility", (f"o{i}",),
                    "iso does not commute with the projections")
    # composition, one row at a time: n's row mapped through mor equals
    # mor[n]'s row, re-indexed by position in the target's out-lists (a None
    # in a target row never equals a mapped int); a row that differs, or any
    # row of an incomplete first comma, is walked entry by entry
    start1, start2, rows1, rows2 = first.start, second.start, first.rows, second.rows
    perm = [tuple(map(sub, mor[a:b], repeat(start2[j])))
            for a, b, j in zip(start1, start1[1:], omap)]
    mor_at = mor.__getitem__
    differ = range(len(rows1))
    if first.complete:
        differ = [n for n, d, row in zip(count(), first.cod, rows1)
                  if tuple(map(mor_at, row)) != tuple(map(rows2[mor[n]].__getitem__, perm[d]))]
    for n in differ:
        d, image = first.cod[n], rows2[mor[n]]
        for g, h, p in zip(count(start1[d]), rows1[n], perm[d]):
            if h is not None and mor[h] != image[p]:
                got = "None" if image[p] is None else f"m{image[p]}"
                rep.add("composition-preservation", (f"m{n}", f"m{g}"),
                        f"F(f then g) = m{mor[h]} but Ff then Fg = {got}")
    return rep.normalize()


def _iso_along(first: CommaCategory, second: CommaCategory,
               datum: Callable[[str, str, str], str], subject: str) -> LawReport:
    """`_comma_iso` for the object map sending (x, a, d) of `first` to
    (x, a, datum(x, a, d)) of `second`."""
    omap = {oid: second.object_id(x, a, datum(x, a, d))
            for oid, (x, a, d) in first.objects_data.items()}
    return _comma_iso(first, second, omap, subject)


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
    rep.extend(_iso_along(left_comma, right_comma,
                          lambda x, a, g: adj.right.phi[(x, a)][adj.left.psi[(x, a)][g]],
                          "(F,1) ~ (1,G) over the projections"))
    # het comma -> (F, 1_A) by the receiving-side transpose g(c)
    rep.extend(_iso_along(het_comma, left_comma, lambda x, a, c: adj.g_of(c),
                          "het comma ~ (F,1) over the projections"))
    # het comma -> (1_X, G) by the sending-side transpose f(c)
    rep.extend(_iso_along(het_comma, right_comma, lambda x, a, c: adj.f_of(c),
                          "het comma ~ (1,G) over the projections"))
    return rep.normalize()


def half_lawvere_iso_check(het: HetBifunctor, left_rep, guard: int = 10_000) -> LawReport:
    """One-sided form: a left representation alone makes the het comma
    isomorphic to (F, 1_A) over the projections."""
    left_comma = comma_of_functors(left_rep.functor, identity_functor(het.a_cat), guard)
    return _iso_along(comma_of_bifunctor(het, guard), left_comma, left_rep.psi_inv,
                      f"het comma ~ (F,1) for {het.name}")


def hom_comma_equivalence(cat: FinCategory, guard: int = 10_000) -> LawReport:
    """comma_of_bifunctor(hom) is isomorphic to comma_of_functors(1, 1)."""
    het_comma = comma_of_bifunctor(hom_bifunctor(cat), guard)
    fun_comma = comma_of_functors(identity_functor(cat), identity_functor(cat), guard)
    return _iso_along(het_comma, fun_comma, lambda x, a, c: c,
                      f"hom comma ~ identity comma for {cat.name}")
