"""Comma categories from functor pairs and from bifunctors, and the
executable form of the comma-category definition of an adjunction.

A comma category is tabulated once, over dense ints. Object i is the i-th
source triple in sorted order; morphism n is the n-th commuting pair in
enumeration order, kept as its key (dom, cod, k, h). A comma composes
componentwise, so its keys are its whole structure: no composition table is
stored. The comma isomorphisms map objects by int and morphisms by key, and
are checked on the int tables alone, naming each witness `o{i}`/`m{n}`; two
commas numbered alike are compared with no lookup. `lawvere_iso_check`
checks the two isomorphisms out of the het comma (the third is their
composite) on counts of the het comma's candidate squares, tabulating no
comma; it builds the three commas only for a report the counts cannot make.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from operator import attrgetter, getitem, itemgetter, mul
from typing import Callable

from .adjunction import Adjunction
from .errors import GuardExceeded, StructuralError
# check_functor stays importable: bench/tracing.py rebinds hetcat.comma.check_functor
from .fincat import (FinCategory, FinFunctor, _row_getters, check_functor, identity_functor,
                     opposite)
from .het import HetBifunctor, hom_bifunctor
from .report import LawReport


@dataclass(frozen=True, eq=False, repr=False)
class CommaCategory:
    """A comma category, stored as int tables.

    `triples[i]` is object i: (left source object, right source object,
    connecting datum); the datum is a morphism id for the functor form and a
    het element id for the bifunctor form. Morphism n runs from `dom[n]` to
    `cod[n]` with components `ks[n]` (left) and `hs[n]` (right); `index`
    maps (dom, cod, k, h) back to n and is built on first access. The
    morphisms leaving object i are `range(start[i], start[i + 1])`.
    Composition is componentwise and identities are the keys (i, i, 1, 1).
    """

    name: str
    left_cat: FinCategory
    right_cat: FinCategory
    triples: list[tuple[str, str, str]]
    dom: list[int]
    cod: list[int]
    ks: list[str]
    hs: list[str]
    start: list[int]

    def __repr__(self) -> str:
        return (f"CommaCategory({self.name!r}, {len(self.triples)} objects, "
                f"{len(self.dom)} morphisms)")

    @cached_property
    def index(self) -> dict[tuple[int, int, str, str], int]:
        return {key: n for n, key in enumerate(zip(self.dom, self.cod, self.ks, self.hs))}


_TABLES = attrgetter("dom", "cod", "ks", "hs", "start")


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
    left_out, right_out = left_cat._hom, right_cat._hom
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
    return CommaCategory(name, left_cat, right_cat, triples, dom, cod, ks, hs, start)


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
            # a missing image or composite raises in the checked calls; a
            # square whose sides cannot be composed is no morphism
            lk, rh = left.on_mor(k), right.on_mor(h)
            return target.cod(src[2]) == target.dom(rh) and target.cod(lk) == target.dom(dst[2]) \
                and target.compose(src[2], rh) == target.compose(lk, dst[2])
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

    act_left, act_right = het.act_left, het.act_right
    def commutes(src, dst, j, k):
        try:
            return act_right[k][src[2]] == act_left[j][dst[2]]
        except KeyError:        # a missing action: the checked calls raise
            return het.act_r(k, src[2]) == het.act_l(j, dst[2])

    return _tabulate(f"comma[{het.name}]", het.x_cat, het.a_cat, triples, commutes, guard)


def _comma_iso(first: CommaCategory, second: CommaCategory,
               omap: list[int], subject: str) -> LawReport:
    """Check that mapping object i of `first` to object `omap[i]` of `second`
    and morphisms by their (k, h) component pairs is a functorial isomorphism
    over the projections.

    One pass over the int tables, naming each violation `o{i}`/`m{n}`. An
    object map that is not a bijection onto `range(len(second.triples))`, or
    a morphism with no counterpart, ends the check; the projections on
    objects are then checked in full. A morphism's image is the morphism
    with its (dom, cod, k, h) key, so the map keeps both components.
    Numbered alike (the identity object map and equal dom, cod, ks, hs and
    start lists), that is the morphism itself, taken with no lookup.

    Identities and composition are preserved once every morphism has its
    image (`morphism-correspondence`, `morphism-bijection`), so they are not
    checked. Every caller compares two commas over the same component
    categories (X and A; each representation's functor is built over the
    het's own), a comma composes componentwise in them, and the morphism
    map keeps components and maps dom and cod by omap:
    - the composite of n and g, where it exists, has the key (dom n, cod g,
      k_n;k_g, h_n;h_g), so its image has the key (omap dom n, omap cod g,
      k_n;k_g, h_n;h_g), which is the key of mor[n];mor[g];
    - the identity of object i is the key (i, i, 1, 1), so its image has the
      key (omap i, omap i, 1, 1), the identity of omap[i].
    """
    rep = LawReport(subject)
    n_obj = len(first.triples)
    if len(omap) != n_obj or len(second.triples) != n_obj or set(omap) != set(range(n_obj)):
        rep.add("object-bijection", (), "object correspondence is not a bijection")
        return rep
    if omap != list(range(n_obj)) or _TABLES(first) != _TABLES(second):
        at = omap.__getitem__
        mor = list(map(second.index.get,
                       zip(map(at, first.dom), map(at, first.cod), first.ks, first.hs)))
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
    triples2 = second.triples
    for i, (t, j) in enumerate(zip(first.triples, omap)):
        if t[:2] != triples2[j][:2]:
            rep.add("projection-compatibility", (f"o{i}",),
                    "iso does not commute with the projections")
    return rep.normalize()


def _iso_along(first: CommaCategory, second: CommaCategory,
               datum: Callable[[str, str, str], str | None], subject: str) -> LawReport:
    """`_comma_iso` for the object map sending (x, a, d) of `first` to
    (x, a, datum(x, a, d)) of `second`. An object whose datum is None, or
    names no object of `second`, has no image, and `_comma_iso` reports
    object-bijection."""
    index = {t: i for i, t in enumerate(second.triples)}.get
    return _comma_iso(first, second, [index((x, a, datum(x, a, d))) for x, a, d in first.triples],
                      subject)


def lawvere_iso_check(adj: Adjunction, guard: int = 10_000) -> LawReport:
    """The comma categories (F, 1_A) and (1_X, G) are each isomorphic to the
    comma category of the het over the projections, hence to each other.

    Decided on the het comma's candidate squares, with no comma tabulated.
    A candidate is a source element c in cell (x, a), a destination c' in
    cell (x', a'), j: x -> x' and k: a -> a', as `_tabulate` reaches them.
    It carries three squares:
    - P, the het square: k.c = c'.j;
    - L, the (F, 1_A) square at the mapped objects: g(c);k = Fj;g(c');
    - R, the (1_X, G) square at the mapped objects: f(c);Gk = j;f(c').
    These are exactly the instances that `_comma_iso` checks along
    c -> (x, a, g(c)) and c -> (x, a, f(c)):
    - Adjunction refuses a psi or phi that is not a bijection on some cell;
      psi is defined on exactly Hom(Fx, a), and phi on exactly Hom(x, Ga)
      when its dual representation is over the kept X^op. So both object
      maps are bijections onto the commas' objects that keep (x, a), and
      neither object-bijection nor projection-compatibility can fire.
    - Between mapped objects every comma has the same candidates
      hom(x, x') x hom(a, a'), and the morphism map keeps (j, k). So the
      het comma's morphisms are the candidates with P, those of (F, 1_A)
      and (1_X, G) are the candidates with L and with R, and a het comma
      morphism has an image exactly where L (R) holds.
    The report is therefore empty exactly when P, L and R hold on the same
    candidates: when count(P), count(L), count(R) and the count with all
    three are one number. The destination side of a square, (c'.j,
    Fj;g(c'), j;f(c')), depends on c' and j alone, and the source side,
    (k.c, g(c);k, f(c);Gk), on c and k alone; a candidate is one entry of
    each side with the same (x, a'). So each count is a sum of products
    over equal keys, read off entries as many as the action tables have.

    The direct iso (F, 1_A) -> (1_X, G), g -> phi(psi(g)), is not checked: it
    is c -> f(c) after the inverse of c -> g(c), and composites of
    isomorphisms over the projections are such.

    Every exit is that of `_lawvere_on_commas`, the three commas compared.
    Their object counts are equal, so too many objects raise the guard of
    (F, 1_A); too many squares with L, R or P raise that of (F, 1_A),
    (1_X, G) or the het comma, the order the commas are built in. The
    three commas make the report where the counts cannot: a failing
    report, whose witnesses they name; a functor over other categories
    than the het's, or a right side over another dual; and a lookup that
    misses (an action entry, a functor image or a composite), as the
    entries read more of the tables than the commas do.
    """
    het, F, G = adj.het, adj.F, adj.G
    X, A = het.x_cat, het.a_cat
    if F.source is not X or F.target is not A or \
            adj.right.dual_left.het.a_cat is not opposite(X):
        return _lawvere_on_commas(adj, guard)
    left_name = f"({F.name},1_{A.name})"
    n_objects = sum(map(len, het.cells.values()))
    if n_objects > guard:
        raise GuardExceeded(f"{left_name}: {n_objects} objects exceeds guard {guard}", n_objects)
    sides = _square_sides(adj)
    if sides is None:
        return _lawvere_on_commas(adj, guard)
    n_p, n_l, n_r, n_all = (_agreeing(*sides, at) for at in ((2,), (3,), (4,), (2, 3, 4)))
    for name, n in ((left_name, n_l), (f"(1_{X.name},{G.name})", n_r),
                    (f"comma[{het.name}]", n_p)):
        if n > guard:
            raise GuardExceeded(f"{name}: morphism count exceeds guard {guard}", guard + 1)
    if n_p == n_l == n_r == n_all:
        return LawReport(f"comma-category equivalence of {het.name}")
    return _lawvere_on_commas(adj, guard)


def _square_sides(adj: Adjunction) -> tuple[list[tuple], list[tuple]] | None:
    """The two sides of every candidate square of `lawvere_iso_check`: for
    each j: x -> x' and destination c' in cell (x', a'), the entry
    (x, a', c'.j, Fj;g(c'), j;f(c')); for each source c in cell (x, a) and
    k: a -> a', the entry (x, a', k.c, g(c);k, f(c);Gk). None where a lookup
    misses."""
    het, F, G = adj.het, adj.F, adj.G
    X, A = het.x_cat, het.a_cat
    act_left, act_right, f_mor, g_mor = het.act_left, het.act_right, F.mor_map, G.mor_map
    then_a, then_x = _row_getters(A), _row_getters(X)
    # the elements over each x, as columns a, c, g(c), f(c)
    over: dict[str, tuple[list, list, list, list]] = {x: ([], [], [], []) for x in X.objects}
    for (x, a), cell in het.cells.items():
        a_s, c_s, g_s, f_s = over[x]
        a_s += repeat(a, len(cell))
        c_s += cell
        g_s += map(adj.left.psi_inv, repeat(x), repeat(a), cell)
        f_s += map(adj.right.phi[(x, a)].__getitem__, cell)
    # each a's out-homs as the columns k, cod k
    outs = {a: (list(chain.from_iterable(hom.values())),
                [a2 for a2, ks in hom.items() for _ in ks]) for a, hom in A._hom.items()}
    ends: list[tuple] = []
    starts: list[tuple] = []
    try:
        for j in X.morphisms:
            a_s, c_s, g_s, f_s = over[j.cod]
            ends += zip(repeat(j.dom), a_s, map(act_left[j.id].__getitem__, c_s),
                        _found(map(then_a[f_mor[j.id]], g_s)), _found(map(then_x[j.id], f_s)))
        for x, columns in over.items():
            for a, c, g, f in zip(*columns):
                ks, cods = outs.get(a, ((), ()))
                starts += zip(repeat(x), cods, map(getitem, map(act_right.__getitem__, ks),
                                                   repeat(c)),
                              _found(map(then_a[g], ks)),
                              _found(map(then_x[f], map(g_mor.__getitem__, ks))))
    except KeyError:
        return None
    return ends, starts


def _found(composites) -> list[str]:
    """Composites read by row getters, as a list; KeyError where one misses."""
    out = list(composites)
    if None in out:
        raise KeyError(None)
    return out


def _agreeing(ends: list[tuple], starts: list[tuple], at: tuple[int, ...]) -> int:
    """How many candidates agree on the components `at` of their two sides:
    a destination-side and a source-side entry are one candidate where their
    (x, a') agree."""
    pick = itemgetter(0, 1, *at)
    by_end, by_start = Counter(map(pick, ends)), Counter(map(pick, starts))
    common = by_end.keys() & by_start.keys()
    return sum(map(mul, map(by_end.__getitem__, common), map(by_start.__getitem__, common)))


def _lawvere_on_commas(adj: Adjunction, guard: int) -> LawReport:
    """`lawvere_iso_check` on the three tabulated commas, compared along the
    transposes by `_iso_along`."""
    rep = LawReport(f"comma-category equivalence of {adj.het.name}")
    left_comma = comma_of_functors(adj.F, identity_functor(adj.a_cat), guard)
    right_comma = comma_of_functors(identity_functor(adj.x_cat), adj.G, guard)
    het_comma = comma_of_bifunctor(adj.het, guard)
    # het comma -> (F, 1_A) by the receiving-side transpose g(c)
    rep.extend(_iso_along(het_comma, left_comma, lambda x, a, c: adj.g_of(c),
                          "het comma ~ (F,1) over the projections"))
    # het comma -> (1_X, G) by the sending-side transpose f(c)
    rep.extend(_iso_along(het_comma, right_comma, lambda x, a, c: adj.f_of(c),
                          "het comma ~ (1,G) over the projections"))
    return rep.normalize()


def half_lawvere_iso_check(het: HetBifunctor, left_rep, guard: int = 10_000) -> LawReport:
    """One-sided form: a left representation alone makes the het comma
    isomorphic to (F, 1_A) over the projections. An element that psi misses
    has no image, which object-bijection reports, as where psi doubles one."""
    left_comma = comma_of_functors(left_rep.functor, identity_functor(het.a_cat), guard)
    return _iso_along(comma_of_bifunctor(het, guard), left_comma,
                      left_rep.psi_inv, f"het comma ~ (F,1) for {het.name}")


def hom_comma_equivalence(cat: FinCategory, guard: int = 10_000) -> LawReport:
    """comma_of_bifunctor(hom) is isomorphic to comma_of_functors(1, 1)."""
    het_comma = comma_of_bifunctor(hom_bifunctor(cat), guard)
    fun_comma = comma_of_functors(identity_functor(cat), identity_functor(cat), guard)
    return _iso_along(het_comma, fun_comma, lambda x, a, c: c,
                      f"hom comma ~ identity comma for {cat.name}")
