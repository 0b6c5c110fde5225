"""Finite presentations of categories, functors, and natural transformations.

Everything is an explicit table: objects, morphisms with dom/cod, an identity
assignment, and a dense composition table over exactly the composable pairs.
Composition is written in diagrammatic order throughout: ``comp[(f, g)]`` is
"f then g" for f: x -> y and g: y -> z.

Law checking is exhaustive, which is affordable and trustworthy at desk
scale. Associativity still covers every composable triple, but compares one
composable pair (f, g) at a time: a row over all h, at C speed. Morphism
identity is by id, never by label; labels are display-only and excluded from
equality.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

from .errors import GuardExceeded, StructuralError
from .report import LawReport


@dataclass(frozen=True)
class Morphism:
    id: str
    dom: str
    cod: str
    label: str = field(default="", compare=False)

    def __str__(self) -> str:
        return f"{self.id}: {self.dom} -> {self.cod}"


@dataclass(frozen=True, eq=False)
class FinCategory:
    """A finite category presentation.

    Construction resolves all ids and raises StructuralError if any reference
    is dangling; whether the tables satisfy the category laws is the business
    of check_category, so deliberately broken tables can still be built.
    """

    name: str
    objects: tuple[str, ...]
    morphisms: tuple[Morphism, ...]
    identity: dict[str, str]
    comp: dict[tuple[str, str], str]
    obj_labels: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if len(set(self.objects)) != len(self.objects):
            raise StructuralError(f"{self.name}: duplicate object ids")
        self._index()
        mor = self._mor
        if len(mor) != len(self.morphisms):
            raise StructuralError(f"{self.name}: duplicate morphism ids")
        objset = set(self.objects)
        for m in self.morphisms:
            if m.dom not in objset or m.cod not in objset:
                raise StructuralError(f"{self.name}: morphism {m.id} has unresolved dom/cod")
        for x, i in self.identity.items():
            if x not in objset or i not in mor:
                raise StructuralError(f"{self.name}: identity entry {x} -> {i} unresolved")
        for (f, g), h in self.comp.items():
            if f not in mor or g not in mor or h not in mor:
                raise StructuralError(f"{self.name}: composition entry ({f}, {g}) -> {h} unresolved")

    def _index(self) -> None:
        """The id and hom-set indexes; the construction checks rely on them."""
        mor = {m.id: m for m in self.morphisms}
        hom: dict[tuple[str, str], list[str]] = {}
        for m in self.morphisms:
            hom.setdefault((m.dom, m.cod), []).append(m.id)
        object.__setattr__(self, "_mor", mor)
        object.__setattr__(self, "_hom", hom)

    # -- equality is table equality; name and labels do not participate --
    def __eq__(self, other):
        if not isinstance(other, FinCategory):
            return NotImplemented
        return (
            self.objects == other.objects
            and self.morphisms == other.morphisms
            and self.identity == other.identity
            and self.comp == other.comp
        )

    def morphism(self, mid: str) -> Morphism:
        try:
            return self._mor[mid]
        except KeyError:
            raise StructuralError(f"{self.name}: unknown morphism id {mid!r}") from None

    def has_morphism(self, mid: str) -> bool:
        return mid in self._mor

    def dom(self, mid: str) -> str:
        return self.morphism(mid).dom

    def cod(self, mid: str) -> str:
        return self.morphism(mid).cod

    def id_of(self, x: str) -> str:
        try:
            return self.identity[x]
        except KeyError:
            raise StructuralError(f"{self.name}: no identity recorded for object {x!r}") from None

    def is_identity(self, mid: str) -> bool:
        m = self.morphism(mid)
        return self.identity.get(m.dom) == mid

    def hom(self, x: str, y: str) -> tuple[str, ...]:
        return tuple(self._hom.get((x, y), ()))

    def compose(self, f: str, g: str) -> str:
        """Diagrammatic composite "f then g"."""
        if self.cod(f) != self.dom(g):
            raise StructuralError(f"{self.name}: {f} and {g} are not composable")
        try:
            return self.comp[(f, g)]
        except KeyError:
            raise StructuralError(f"{self.name}: composition table missing ({f}, {g})") from None

    def compose_many(self, *mids: str) -> str:
        out = mids[0]
        for m in mids[1:]:
            out = self.compose(out, m)
        return out

    @property
    def n_objects(self) -> int:
        return len(self.objects)

    @property
    def n_morphisms(self) -> int:
        return len(self.morphisms)

    def __repr__(self) -> str:
        return f"FinCategory({self.name!r}, {self.n_objects} objects, {self.n_morphisms} morphisms)"


@dataclass(frozen=True, eq=False)
class FinFunctor:
    name: str
    source: FinCategory
    target: FinCategory
    obj_map: dict[str, str]
    mor_map: dict[str, str]

    def __post_init__(self):
        src_objs, tgt_objs = set(self.source.objects), set(self.target.objects)
        for x, y in self.obj_map.items():
            if x not in src_objs or y not in tgt_objs:
                raise StructuralError(f"{self.name}: object map entry {x} -> {y} unresolved")
        for f, g in self.mor_map.items():
            if not self.source.has_morphism(f) or not self.target.has_morphism(g):
                raise StructuralError(f"{self.name}: morphism map entry {f} -> {g} unresolved")

    def __eq__(self, other):
        if not isinstance(other, FinFunctor):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.obj_map == other.obj_map
            and self.mor_map == other.mor_map
        )

    def on_obj(self, x: str) -> str:
        try:
            return self.obj_map[x]
        except KeyError:
            raise StructuralError(f"{self.name}: object map not total at {x!r}") from None

    def on_mor(self, f: str) -> str:
        try:
            return self.mor_map[f]
        except KeyError:
            raise StructuralError(f"{self.name}: morphism map not total at {f!r}") from None

    def __repr__(self) -> str:
        return f"FinFunctor({self.name!r}: {self.source.name} -> {self.target.name})"


@dataclass(frozen=True, eq=False)
class NatTrans:
    name: str
    source: FinFunctor
    target: FinFunctor
    components: dict[str, str]

    def __post_init__(self):
        if self.source.source is not self.target.source and self.source.source != self.target.source:
            raise StructuralError(f"{self.name}: component functors have different source categories")
        if self.source.target is not self.target.target and self.source.target != self.target.target:
            raise StructuralError(f"{self.name}: component functors have different target categories")
        cat = self.source.target
        objs = set(self.source.source.objects)
        for x, c in self.components.items():
            if x not in objs:
                raise StructuralError(f"{self.name}: component indexed by unknown object {x!r}")
            if not cat.has_morphism(c):
                raise StructuralError(f"{self.name}: component {c!r} unresolved")

    def __eq__(self, other):
        if not isinstance(other, NatTrans):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.components == other.components
        )

    def at(self, x: str) -> str:
        try:
            return self.components[x]
        except KeyError:
            raise StructuralError(f"{self.name}: no component at {x!r}") from None


# ---------------------------------------------------------------------------
# law checkers
# ---------------------------------------------------------------------------

def check_category(cat: FinCategory) -> LawReport:
    """Exhaustively check the category laws; empty report iff cat is a category.

    Associativity still covers every composable triple (f, g, h), but compares
    one composable pair (f, g) at a time: the row "fg then h" over all h
    leaving cod g against the row "f then (g then h)". Only a row that
    differs is walked triple by triple to name its witnesses.
    """
    rep = LawReport(f"category {cat.name}")
    mor = cat._mor
    for x in cat.objects:
        i = cat.identity.get(x)
        if i is None:
            rep.add("identity-totality", (x,), "object has no identity morphism")
            continue
        m = mor[i]
        if m.dom != x or m.cod != x:
            rep.add("identity-shape", (x, i), f"identity has type {m.dom} -> {m.cod}")
    # composition table defined on exactly the composable pairs, with the right shape
    rows: dict[str, dict[str, str]] = {m.id: {} for m in cat.morphisms}
    for (f, g), h in cat.comp.items():
        rows[f][g] = h
        mf, mg, mh = mor[f], mor[g], mor[h]
        if mf.cod != mg.dom:
            rep.add("composition-domain", (f, g), "entry for a non-composable pair")
            continue
        if mh.dom != mf.dom or mh.cod != mg.cod:
            rep.add("composition-shape", (f, g, h),
                    f"composite has type {mh.dom} -> {mh.cod}, expected {mf.dom} -> {mg.cod}")
    out: dict[str, list[str]] = {}
    for m in cat.morphisms:
        out.setdefault(m.dom, []).append(m.id)
    # identity laws
    for m in cat.morphisms:
        li = cat.identity.get(m.dom)
        ri = cat.identity.get(m.cod)
        if li is not None and (li, m.id) in cat.comp and cat.comp[(li, m.id)] != m.id:
            rep.add("left-identity", (m.id,), f"id then {m.id} = {cat.comp[(li, m.id)]}")
        if ri is not None and (m.id, ri) in cat.comp and cat.comp[(m.id, ri)] != m.id:
            rep.add("right-identity", (m.id,), f"{m.id} then id = {cat.comp[(m.id, ri)]}")
    # then[x][i] is "x then h" for the i-th h leaving cod x (None where missing)
    then = {x: tuple(map(rows[x].get, out.get(m.cod, ()))) for x, m in mor.items()}
    # totality and associativity, one composable pair (f, g) at a time
    for f, mf in mor.items():
        get_f = rows[f].get
        for g in out.get(mf.cod, ()):
            fg = get_f(g)
            if fg is None:
                rep.add("composition-totality", (f, g), "composable pair missing from the table")
                continue
            cod_g = mor[g].cod
            right = tuple(map(get_f, then[g]))
            if mor[fg].cod == cod_g:
                left = then[fg]
                if left == right and None not in left:
                    continue
            else:
                left = tuple(map(rows[fg].get, out.get(cod_g, ())))
            for h, gh, lh, rh in zip(out.get(cod_g, ()), then[g], left, right):
                if gh is not None and (lh != rh or lh is None):
                    rep.add("associativity", (f, g, h), f"(f.g).h = {lh}, f.(g.h) = {rh}")
    return rep.normalize()


def check_functor(fun: FinFunctor) -> LawReport:
    """Empty report iff the functor preserves dom/cod, identities, and composition."""
    rep = LawReport(f"functor {fun.name}")
    src, tgt = fun.source, fun.target
    for x in src.objects:
        if x not in fun.obj_map:
            rep.add("object-totality", (x,), "object map not total")
    for m in src.morphisms:
        if m.id not in fun.mor_map:
            rep.add("morphism-totality", (m.id,), "morphism map not total")
            continue
        image = tgt.morphism(fun.on_mor(m.id))
        ex_dom, ex_cod = fun.obj_map.get(m.dom), fun.obj_map.get(m.cod)
        if ex_dom is not None and ex_cod is not None and (image.dom != ex_dom or image.cod != ex_cod):
            rep.add("dom-cod-preservation", (m.id,),
                    f"image has type {image.dom} -> {image.cod}, expected {ex_dom} -> {ex_cod}")
    for x in src.objects:
        if x in fun.obj_map and x in src.identity:
            ix = src.id_of(x)
            if ix in fun.mor_map and fun.on_mor(ix) != tgt.identity.get(fun.on_obj(x)):
                rep.add("identity-preservation", (x,),
                        f"image of {ix} is {fun.on_mor(ix)}")
    mor_map = fun.mor_map
    tcomp = tgt.comp
    for (f, g), h in src.comp.items():
        ff = mor_map.get(f)
        gg = mor_map.get(g)
        hh = mor_map.get(h)
        if ff is None or gg is None or hh is None:
            continue            # totality violations already recorded
        if tcomp.get((ff, gg)) != hh:
            rep.add("composition-preservation", (f, g),
                    f"F(f then g) = {hh} but Ff then Fg = {tcomp.get((ff, gg))}")
    return rep.normalize()


def check_nat_trans(nt: NatTrans) -> LawReport:
    """Empty report iff every naturality square commutes.

    Components with the wrong dom/cod are a structural error, not a violation.
    """
    fun_f, fun_h = nt.source, nt.target
    src, tgt = fun_f.source, fun_f.target
    rep = LawReport(f"natural transformation {nt.name}")
    for x in src.objects:
        c = nt.at(x)
        m = tgt.morphism(c)
        if m.dom != fun_f.on_obj(x) or m.cod != fun_h.on_obj(x):
            raise StructuralError(
                f"{nt.name}: component at {x} has type {m.dom} -> {m.cod}, "
                f"expected {fun_f.on_obj(x)} -> {fun_h.on_obj(x)}")
    for j in src.morphisms:
        x, x2 = j.dom, j.cod
        lhs = tgt.compose(nt.at(x), fun_h.on_mor(j.id))
        rhs = tgt.compose(fun_f.on_mor(j.id), nt.at(x2))
        if lhs != rhs:
            rep.add("naturality", (j.id, x, x2), f"c_x then Hj = {lhs}, Fj then c_x' = {rhs}")
    return rep.normalize()


# ---------------------------------------------------------------------------
# derived constructions
# ---------------------------------------------------------------------------

def identity_functor(cat: FinCategory) -> FinFunctor:
    return FinFunctor(
        name=f"1_{cat.name}",
        source=cat,
        target=cat,
        obj_map={x: x for x in cat.objects},
        mor_map={m.id: m.id for m in cat.morphisms},
    )


def compose_functors(first: FinFunctor, second: FinFunctor) -> FinFunctor:
    """Diagrammatic composite: apply `first`, then `second`."""
    if first.target != second.source:
        raise StructuralError(
            f"cannot compose {first.name} with {second.name}: target/source mismatch")
    return FinFunctor(
        name=f"{first.name};{second.name}",
        source=first.source,
        target=second.target,
        obj_map={x: second.on_obj(first.on_obj(x)) for x in first.source.objects},
        mor_map={m.id: second.on_mor(first.on_mor(m.id)) for m in first.source.morphisms},
    )


def constant_functor(source: FinCategory, target: FinCategory, at: str) -> FinFunctor:
    """The constant functor sending everything to `at` and its identity."""
    i = target.id_of(at)
    return FinFunctor(
        name=f"const_{at}",
        source=source,
        target=target,
        obj_map={x: at for x in source.objects},
        mor_map={m.id: i for m in source.morphisms},
    )


def identity_nat_trans(fun: FinFunctor) -> NatTrans:
    return NatTrans(
        name=f"1_{fun.name}",
        source=fun,
        target=fun,
        components={x: fun.target.id_of(fun.on_obj(x)) for x in fun.source.objects},
    )


class _Opposite(FinCategory):
    """The opposite of a built category, as made by `opposite`.

    Its tables derive from that category, so they are indexed but not
    checked again, and the composition table is reversed on first use: a
    search that only reads objects and hom-sets never builds it.
    """

    @cached_property
    def comp(self) -> dict[tuple[str, str], str]:
        return {(g, f): h for (f, g), h in self._opposite.comp.items()}


def opposite(cat: FinCategory) -> FinCategory:
    """Reverse all arrows: comp_op[(f, g)] = comp[(g, f)]. An involution.

    The opposite is built once per category and kept with it; its own
    opposite is `cat`.
    """
    op = cat.__dict__.get("_opposite")
    if op is None:
        op = object.__new__(_Opposite)
        fields = {
            "name": cat.name[:-3] if cat.name.endswith("^op") else cat.name + "^op",
            "objects": cat.objects,
            "morphisms": tuple(Morphism(m.id, m.cod, m.dom, m.label) for m in cat.morphisms),
            "identity": dict(cat.identity),
            "obj_labels": dict(cat.obj_labels),
            "_opposite": cat,
        }
        for name, value in fields.items():
            object.__setattr__(op, name, value)
        op._index()
        object.__setattr__(cat, "_opposite", op)
    return op


def pair_id(a: str, b: str) -> str:
    return f"({a},{b})"


@dataclass(frozen=True, eq=False, repr=False)
class ProductCategory(FinCategory):
    """Product category with componentwise structure and pair-id lookup."""

    obj_pairs: dict[str, tuple[str, str]] = field(default_factory=dict)
    mor_pairs: dict[str, tuple[str, str]] = field(default_factory=dict)

    def obj_id(self, a: str, b: str) -> str:
        return pair_id(a, b)

    def mor_id(self, f: str, g: str) -> str:
        return pair_id(f, g)


def product_category(left: FinCategory, right: FinCategory) -> ProductCategory:
    """Product category: pairs of objects and morphisms, componentwise laws."""
    objects = tuple(pair_id(a, b) for a in left.objects for b in right.objects)
    morphisms = tuple(
        Morphism(pair_id(f.id, g.id), pair_id(f.dom, g.dom), pair_id(f.cod, g.cod),
                 label=f"({f.label or f.id},{g.label or g.id})")
        for f in left.morphisms for g in right.morphisms
    )
    identity = {
        pair_id(a, b): pair_id(left.id_of(a), right.id_of(b))
        for a in left.objects for b in right.objects
    }
    comp = {}
    for (f1, g1), h1 in left.comp.items():
        for (f2, g2), h2 in right.comp.items():
            comp[(pair_id(f1, f2), pair_id(g1, g2))] = pair_id(h1, h2)
    cat = ProductCategory(
        name=f"{left.name}x{right.name}",
        objects=objects,
        morphisms=morphisms,
        identity=identity,
        comp=comp,
        obj_pairs={pair_id(a, b): (a, b) for a in left.objects for b in right.objects},
        mor_pairs={pair_id(f.id, g.id): (f.id, g.id)
                   for f in left.morphisms for g in right.morphisms},
    )
    return cat


def product_projections(prod: ProductCategory, left: FinCategory,
                        right: FinCategory) -> tuple[FinFunctor, FinFunctor]:
    p0 = FinFunctor(
        name="proj0", source=prod, target=left,
        obj_map={o: prod.obj_pairs[o][0] for o in prod.objects},
        mor_map={m.id: prod.mor_pairs[m.id][0] for m in prod.morphisms},
    )
    p1 = FinFunctor(
        name="proj1", source=prod, target=right,
        obj_map={o: prod.obj_pairs[o][1] for o in prod.objects},
        mor_map={m.id: prod.mor_pairs[m.id][1] for m in prod.morphisms},
    )
    return p0, p1


@dataclass(frozen=True, eq=False, repr=False)
class FunctorCategory(FinCategory):
    """Functor category whose objects carry their FinFunctor values."""

    functors: dict[str, FinFunctor] = field(default_factory=dict)
    transformations: dict[str, NatTrans] = field(default_factory=dict)

    def functor_id_of(self, fun: FinFunctor) -> str:
        for fid, g in self.functors.items():
            if g == fun:
                return fid
        raise StructuralError(f"{self.name}: functor not an object of this category")


def _enumerate_functors(shape: FinCategory, target: FinCategory):
    non_id = [m for m in shape.morphisms if not shape.is_identity(m.id)]
    for assignment in itertools.product(target.objects, repeat=len(shape.objects)):
        omap = dict(zip(shape.objects, assignment))
        pools = [target.hom(omap[m.dom], omap[m.cod]) for m in non_id]
        for choice in itertools.product(*pools):
            mmap = {shape.id_of(x): target.id_of(omap[x]) for x in shape.objects}
            mmap.update({m.id: c for m, c in zip(non_id, choice)})
            ok = True
            for (f, g), h in shape.comp.items():
                if target.comp.get((mmap[f], mmap[g])) != mmap[h]:
                    ok = False
                    break
            if ok:
                yield omap, mmap


def functor_category(shape: FinCategory, target: FinCategory,
                     guard: int = 10_000) -> FunctorCategory:
    """The category of all functors shape -> target and all natural transformations.

    Refuses (GuardExceeded, with the estimate) when the raw component-count
    bound on natural transformations exceeds `guard`; the category of diagrams
    explodes quickly and the guard keeps constructions at desk scale.
    """
    # cheap refusal on the functor count before any enumeration
    estimate = 0
    for assignment in itertools.product(target.objects, repeat=len(shape.objects)):
        omap = dict(zip(shape.objects, assignment))
        prod = 1
        for m in shape.morphisms:
            if not shape.is_identity(m.id):
                prod *= len(target.hom(omap[m.dom], omap[m.cod]))
                if prod == 0:
                    break
        estimate += prod
        if estimate > guard:
            raise GuardExceeded(
                f"functor category over {target.name} would have >= {estimate} "
                f"objects (guard {guard})", estimate)
    funs: list[FinFunctor] = []
    for i, (omap, mmap) in enumerate(_enumerate_functors(shape, target)):
        funs.append(FinFunctor(f"D{i}", shape, target, omap, mmap))
    objects = tuple(f.name for f in funs)
    fun_by_id = {f.name: f for f in funs}
    trans: dict[str, NatTrans] = {}
    morphisms: list[Morphism] = []
    identity: dict[str, str] = {}
    comp_index: dict[str, dict[str, str]] = {}
    for ff in funs:
        for hh in funs:
            pools = [target.hom(ff.on_obj(x), hh.on_obj(x)) for x in shape.objects]
            for combo in itertools.product(*pools):
                comps = dict(zip(shape.objects, combo))
                natural = True
                for j in shape.morphisms:
                    lhs = target.comp.get((comps[j.dom], hh.on_mor(j.id)))
                    rhs = target.comp.get((ff.on_mor(j.id), comps[j.cod]))
                    if lhs != rhs or lhs is None:
                        natural = False
                        break
                if not natural:
                    continue
                if len(morphisms) >= guard:
                    raise GuardExceeded(
                        f"functor category over {target.name} has more than "
                        f"{guard} morphisms (guard {guard})", len(morphisms) + 1)
                tid = f"t{len(morphisms)}"
                nt = NatTrans(tid, ff, hh, comps)
                trans[tid] = nt
                morphisms.append(Morphism(tid, ff.name, hh.name,
                                          label="(" + ",".join(combo) + ")"))
                if ff.name == hh.name and all(
                        comps[x] == target.id_of(ff.on_obj(x)) for x in shape.objects):
                    identity[ff.name] = tid
    comp: dict[tuple[str, str], str] = {}
    # index transformations by (source functor, component tuple) for composite lookup
    lookup = {
        (m.dom, m.cod, tuple(trans[m.id].components[x] for x in shape.objects)): m.id
        for m in morphisms
    }
    by_dom: dict[str, list[Morphism]] = {}
    for m in morphisms:
        by_dom.setdefault(m.dom, []).append(m)
    tcomp = target.comp
    obj_list = list(shape.objects)
    comps_of = {m.id: tuple(trans[m.id].components[x] for x in obj_list)
                for m in morphisms}
    for m1 in morphisms:
        c1 = comps_of[m1.id]
        for m2 in by_dom.get(m1.cod, ()):
            c2 = comps_of[m2.id]
            combo = tuple(tcomp[(a, b)] for a, b in zip(c1, c2))
            comp[(m1.id, m2.id)] = lookup[(m1.dom, m2.cod, combo)]
    return FunctorCategory(
        name=f"{target.name}^{shape.name}",
        objects=objects,
        morphisms=tuple(morphisms),
        identity=identity,
        comp=comp,
        obj_labels={f.name: "[" + ",".join(f.on_obj(x) for x in shape.objects) + "]"
                    for f in funs},
        functors=fun_by_id,
        transformations=trans,
    )
