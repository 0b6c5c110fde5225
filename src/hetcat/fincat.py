"""Finite presentations of categories, functors, and natural transformations.

Everything is an explicit table: objects, morphisms with dom/cod, an identity
assignment, and a dense composition table over exactly the composable pairs.
Composition is written in diagrammatic order throughout: ``comp[(f, g)]`` is
"f then g" for f: x -> y and g: y -> z.

Law checking is exhaustive, which is affordable and trustworthy at desk
scale, and decides before it walks. Each category keeps its rows (`_rows`):
"f then g" for each g, per f. A decider returns the suspects, the keys
whose row, picked, differs from the rows of its entries, joined
(`_suspects`, at C speed); only their instances are walked, which names the
witnesses. Associativity suspects f, and check_bifunctor decides the het
laws by the same rule over the same rows. On a table with more than
`BLOCK_CUTOFF` composable triples, numpy decides associativity in blocks of
f's instead: the g leaving an object y are grouped by the out-degree of
cod g, so every block is an unpadded int array. numpy is optional (the
`fast` extra) and imported only by such a table; without it the gathers
decide.
Morphism identity is by id, never by label; labels are display-only and
excluded from equality.

Comma and functor categories are subcategories of a product: a morphism is a
tuple of component morphisms, composed componentwise (CWM II.4, II.6). A
functor category fills its composition table through `composition_rows`; a
comma keeps no table (`comma.CommaCategory`). One generator,
`natural_transformations`, lists the functor category's morphisms and the
cones and cocones of `instances.limits`: transformations from and to a
constant diagram.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress, count, repeat
from operator import eq, itemgetter, ne
from typing import Callable, NamedTuple

from .errors import GuardExceeded, StructuralError
from .report import LawReport

# composable triples above which check_category decides associativity in
# numpy blocks. Per call, with numpy loaded, the blocks break even near 5,000
# triples on tables with many arrows per hom-set, but only near 1.5 million
# on posets, where every block is one arrow wide. Above 400,000 no table
# measured ran more than about 10% slower on the blocks (CHANGES.md).
BLOCK_CUTOFF = 400_000
# entries per temporary array of a block, about 1 MB at int32
_BLOCK = 1 << 18


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
        # one C-level set test; the entry-by-entry walk only to name a dangling id
        if not mor.keys() >= {*chain.from_iterable(self.comp), *self.comp.values()}:
            for (f, g), h in self.comp.items():
                if f not in mor or g not in mor or h not in mor:
                    raise StructuralError(
                        f"{self.name}: composition entry ({f}, {g}) -> {h} unresolved")

    def _index(self) -> None:
        """The id index, which the construction checks read, and the hom-sets
        by domain, then codomain: `_hom[x][y]` is hom(x, y) in morphism order,
        with no entry for an empty hom."""
        mor = {m.id: m for m in self.morphisms}
        hom: dict[str, dict[str, list[str]]] = {}
        for m in self.morphisms:
            hom.setdefault(m.dom, {}).setdefault(m.cod, []).append(m.id)
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
        return tuple(self._hom.get(x, {}).get(y, ()))

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

class Rows(NamedTuple):
    """The composition table of a category as one row per morphism."""

    out: dict[str, list[str]]           # the morphisms leaving each object, in order
    into: dict[str, list[str]]          # the morphisms ending at each object, in order
    then: dict[str, tuple]              # m -> "m then n" for each n in out[cod m], or None
    cod: dict[str, str]
    typed: bool                         # every row total, each "m then n" ending at cod n
    # gather[y] picks "f then (g then h)" for every g leaving y and h leaving
    # cod g from the row of f: y needs each such "g then h" recorded, leaving y
    gather: dict[str, Callable[[tuple], tuple]]
    exact: bool                         # typed, every gather, no entry beyond the rows


def _rows(cat: FinCategory) -> Rows:
    """The rows of `cat`, built once per category and kept with it, for
    check_category, check_bifunctor and `_row_getters`."""
    if "_rows" not in cat.__dict__:
        mor, comp = cat._mor, cat.comp
        out: dict[str, list[str]] = {}
        into: dict[str, list[str]] = {}
        for m in cat.morphisms:
            out.setdefault(m.dom, []).append(m.id)
            into.setdefault(m.cod, []).append(m.id)
        ids = {m: m for m in mor}
        cod = {m: mm.cod for m, mm in mor.items()}
        nexts = {m: out.get(y, ()) for m, y in cod.items()}     # every n with "m then n"
        # each entry is the morphism's own id object, so rows share their strings
        then = {m: tuple(map(ids.get, map(comp.get, zip(repeat(m), ns))))
                for m, ns in nexts.items()}
        typed = all(map(eq, map(cod.get, chain.from_iterable(then.values())),
                        map(cod.get, chain.from_iterable(nexts.values()))))
        gather = {}
        for y, gs in out.items():
            place = dict(zip(gs, count()))
            at = tuple(map(place.get, chain.from_iterable(map(then.__getitem__, gs))))
            if None not in at:
                gather[y] = _picker(at)
        exact = (typed and len(gather) == len(out)
                 and sum(map(len, then.values())) == len(comp))
        object.__setattr__(cat, "_rows", Rows(out, into, then, cod, typed, gather, exact))
    return cat._rows


def _suspects(keys, pick, rows, parts):
    """The keys whose row, picked, differs from their parts joined, at C speed:
    the one rule of check_category and check_bifunctor. `rows` and `parts`
    (each an iterable of rows) run alongside `keys`."""
    return compress(keys, map(ne, map(pick, rows), map(tuple, map(chain.from_iterable, parts))))


def _picker(at: tuple[int, ...]) -> Callable[[tuple], tuple]:
    """The tuple of a row's entries at positions `at`, in one C call."""
    if len(at) > 1:
        return itemgetter(*at)
    return lambda row: tuple(map(row.__getitem__, at))


def check_category(cat: FinCategory) -> LawReport:
    """Exhaustively check the category laws; empty report iff cat is a category.

    Associativity covers every composable triple (f, g, h), walked triple by
    triple only for the suspect f, to name the witnesses. For the f ending
    at y, an itemgetter for y gathers every "f then (g then h)" out of the
    row of f, and `_suspects` returns the f where that differs from the rows
    of "f then g" over g, joined. Above `BLOCK_CUTOFF` composable triples,
    once every row is total and well typed, numpy decides instead, in int
    blocks grouped by y and by the out-degree of cod g (`_block_suspects`);
    numpy is imported only then, and where it cannot be, the gathers
    decide. A row that is not total and well typed is always a suspect.
    """
    rep = LawReport(f"category {cat.name}")
    mor, comp = cat._mor, cat.comp
    for x in cat.objects:
        m = mor.get(cat.identity.get(x))
        if m is None:
            rep.add("identity-totality", (x,), "object has no identity morphism")
        elif m.dom != x or m.cod != x:
            rep.add("identity-shape", (x, m.id), f"identity has type {m.dom} -> {m.cod}")
    out, into, then, cod, typed, gather, exact = _rows(cat)
    # composition table defined on exactly the composable pairs, with the right shape
    if not exact:
        for (f, g), h in comp.items():
            mf, mg, mh = mor[f], mor[g], mor[h]
            if mf.cod != mg.dom:
                rep.add("composition-domain", (f, g), "entry for a non-composable pair")
            elif mh.dom != mf.dom or mh.cod != mg.cod:
                rep.add("composition-shape", (f, g, h),
                        f"composite has type {mh.dom} -> {mh.cod}, expected {mf.dom} -> {mg.cod}")
    # identity laws, where the identity and the composite are recorded
    for m in cat.morphisms:
        left = comp.get((cat.identity.get(m.dom), m.id), m.id)
        right = comp.get((m.id, cat.identity.get(m.cod)), m.id)
        if left != m.id:
            rep.add("left-identity", (m.id,), f"id then {m.id} = {left}")
        if right != m.id:
            rep.add("right-identity", (m.id,), f"{m.id} then id = {right}")
    # above the cut-off, numpy blocks decide, if numpy can be imported
    suspects = None
    if typed and len(gather) == len(out):
        # a composable triple is an f ending where g starts and an h leaving cod g
        triples = sum(len(into.get(m.dom, ())) * len(out.get(m.cod, ())) for m in cat.morphisms)
        if triples > BLOCK_CUTOFF:
            try:
                import numpy
            except ImportError:
                pass
            else:
                suspects = _block_suspects(numpy, out, into, then, cod)
    if suspects is None:
        suspects, get = set(), then.__getitem__
        for y, fs in into.items():
            if not typed:       # a row not total and well typed is walked
                ys = tuple(map(cod.get, out.get(y, ())))
                suspects.update(f for f in fs if tuple(map(cod.get, then[f])) != ys)
                fs = [f for f in fs if f not in suspects]
            # with no gather for y, nothing is picked, so an f with a triple differs
            pick, rows = gather.get(y, _picker(())), list(map(get, fs))
            suspects.update(_suspects(fs, pick, rows, map(map, repeat(get), rows)))
    for f in suspects:
        for g, fg in zip(out.get(cod[f], ()), then[f]):
            if fg is None:
                rep.add("composition-totality", (f, g), "composable pair missing from the table")
                continue
            for h, gh in zip(out.get(cod[g], ()), then[g]):
                lh, rh = comp.get((fg, h)), comp.get((f, gh))
                if gh is not None and (lh != rh or lh is None):
                    rep.add("associativity", (f, g, h), f"(f.g).h = {lh}, f.(g.h) = {rh}")
    return rep.normalize()


def _block_suspects(np, out, into, then, cod) -> set[str]:
    """The f with some "(f then g) then h" unequal to "f then (g then h)",
    decided in numpy blocks; every row must be total and well typed.

    Morphisms are numbered in table order. T[w] stacks, as int32, the rows of
    the morphisms ending at an object of out-degree w, grouped by that
    object: row `rowpos[m]` holds "m then h" for each h leaving cod m, and h
    is column `local[h]`. For each y, F is the slice of T holding the f that
    end at y; for each group J of the g leaving y whose codomains have
    out-degree w, "(f.g).h" is T[w][rowpos[F[:, J]]] and "f.(g.h)" is
    F[:, local[T[w][rowpos[g_J]]]]. The blocks are unpadded, and compared a
    chunk of f's at a time so each temporary stays near `_BLOCK` entries.
    """
    num = dict(zip(then, count()))
    width = {z: len(out.get(z, ())) for z in into}
    stacks: dict[int, list[str]] = {}
    first = {}
    for z, ms in into.items():
        stack = stacks.setdefault(width[z], [])
        first[z] = len(stack)
        stack.extend(ms)
    T = {w: np.fromiter(map(num.__getitem__, chain.from_iterable(map(then.__getitem__, ms))),
                        np.int32, len(ms) * w).reshape(len(ms), w)
         for w, ms in stacks.items()}
    rowpos, local = np.empty(len(num), np.intp), np.empty(len(num), np.intp)
    for ms, at in chain(((ms, rowpos) for ms in stacks.values()),
                        ((gs, local) for gs in out.values())):
        at[np.fromiter(map(num.__getitem__, ms), np.intp, len(ms))] = np.arange(len(ms))
    suspects: set[str] = set()
    for y, fs in into.items():
        gs = out.get(y, ())
        F = T[width[y]][first[y]:first[y] + len(fs)]
        g_rows = rowpos[np.fromiter(map(num.__getitem__, gs), np.intp, len(gs))]
        groups: dict[int, list[int]] = {}
        for j, g in enumerate(gs):
            groups.setdefault(width[cod[g]], []).append(j)
        for w, J in groups.items():
            if not w:
                continue
            Tw, J = T[w], np.array(J)
            gh = local[Tw[g_rows[J]]]
            step = max(1, _BLOCK // gh.size)
            for a in range(0, len(fs), step):
                Fc = F[a:a + step]
                differ = Tw[rowpos[Fc[:, J]]] != Fc[:, gh]
                if differ.any():
                    bad = differ.reshape(len(Fc), -1).any(axis=1)
                    suspects.update(map(fs.__getitem__, (np.flatnonzero(bad) + a).tolist()))
    return suspects


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


def _row_getters(cat: FinCategory) -> dict[str, Callable[[str], str | None]]:
    """f -> the `get` of {g: f then g} over the composable pairs, read from
    the kept rows (`_rows`). Built once per category and kept with it."""
    if "_row_getters" not in cat.__dict__:
        rows = _rows(cat)
        object.__setattr__(cat, "_row_getters", {
            f: dict(zip(rows.out.get(rows.cod[f], ()), row)).get for f, row in rows.then.items()})
    return cat._row_getters


def composition_rows(dom, cod, slots, start, then, index) -> list[tuple[int | None, ...]]:
    """The composition rows of a category of component tuples.

    Morphism n runs from object `dom[n]` to `cod[n]` with component
    `slots[s][n]` in slot s, every slot composed by the row getters `then`
    (`_row_getters`); those leaving object i are `range(start[i],
    start[i + 1])`. Row n holds "n then m" for each m leaving `cod[n]`,
    looked up in `index` by (dom[n], cod[m], *slotwise composites), None
    where absent: one map/zip chain, with no Python loop per morphism.
    """
    spans = list(zip(start, start[1:]))
    out_cod = [cod[a:b] for a, b in spans]
    composites = []
    for slot in slots:
        outs = [slot[a:b] for a, b in spans]
        composites.append(map(map, map(then.__getitem__, slot), map(outs.__getitem__, cod)))
    keys = map(zip, map(repeat, dom), map(out_cod.__getitem__, cod), *composites)
    return list(map(tuple, map(map, repeat(index.get), keys)))


def composition_table(ids, cod, start, rows) -> dict[tuple[str, str], str]:
    """The string composition table of `composition_rows`' rows, morphism n
    named `ids[n]`; a pair with no composite has no entry."""
    outs = [ids[a:b] for a, b in zip(start, start[1:])]
    pairs = chain.from_iterable(map(zip, map(repeat, ids), map(outs.__getitem__, cod)))
    return {pair: ids[h] for pair, h in zip(pairs, chain.from_iterable(rows))
            if h is not None}


@dataclass(frozen=True, eq=False, repr=False)
class FunctorCategory(FinCategory):
    """Functor category whose objects carry their FinFunctor values and whose
    morphisms carry their components, in shape-object order."""

    functors: dict[str, FinFunctor] = field(default_factory=dict)
    components: dict[str, tuple[str, ...]] = field(default_factory=dict)


def _enumerate_functors(shape: FinCategory, target: FinCategory, guard: int):
    """Each functor shape -> target as its object and morphism maps. Refuses
    (GuardExceeded, with the estimate) once the candidate morphism maps of the
    object assignments walked so far number more than `guard`."""
    non_id = [m for m in shape.morphisms if not shape.is_identity(m.id)]
    estimate = 0
    for assignment in itertools.product(target.objects, repeat=len(shape.objects)):
        omap = dict(zip(shape.objects, assignment))
        pools = [target.hom(omap[m.dom], omap[m.cod]) for m in non_id]
        estimate += math.prod(map(len, pools))
        if estimate > guard:
            raise GuardExceeded(
                f"functor category over {target.name} would have >= {estimate} "
                f"objects (guard {guard})", estimate)
        for choice in itertools.product(*pools):
            mmap = {shape.id_of(x): target.id_of(omap[x]) for x in shape.objects}
            mmap.update({m.id: c for m, c in zip(non_id, choice)})
            for (f, g), h in shape.comp.items():
                if target.comp.get((mmap[f], mmap[g])) != mmap[h]:
                    break
            else:
                yield omap, mmap


def natural_transformations(shape: FinCategory, target: FinCategory,
                            F: FinFunctor, H: FinFunctor):
    """Each natural transformation F => H as its components in shape-object
    order: of the product of the hom-sets target.hom(Fx, Hx), in hom order,
    the tuples whose every square, identities included, has both composites
    recorded and equal. F and H are read only through their object and
    morphism maps, so their own target need only share its ids with target."""
    comp = target.comp
    place = {x: i for i, x in enumerate(shape.objects)}
    squares = [(place[j.dom], H.mor_map[j.id], F.mor_map[j.id], place[j.cod])
               for j in shape.morphisms]
    pools = [target.hom(F.obj_map[x], H.obj_map[x]) for x in shape.objects]
    for combo in itertools.product(*pools):
        for x, hj, fj, x2 in squares:
            lhs = comp.get((combo[x], hj))
            if lhs is None or lhs != comp.get((fj, combo[x2])):
                break
        else:
            yield combo


def functor_category(shape: FinCategory, target: FinCategory,
                     guard: int = 10_000) -> FunctorCategory:
    """The category of all functors shape -> target and all natural transformations.

    Refuses (GuardExceeded, with the estimate) when the raw component-count
    bound on natural transformations exceeds `guard`; the category of diagrams
    explodes quickly and the guard keeps constructions at desk scale.
    """
    funs = [FinFunctor(f"D{i}", shape, target, omap, mmap)
            for i, (omap, mmap) in enumerate(_enumerate_functors(shape, target, guard))]
    morphisms: list[Morphism] = []
    identity: dict[str, str] = {}
    # morphism n: functor dom[n] to functor cod[n] with components combos[n]
    dom, cod, combos, start = [], [], [], [0]
    for i, ff in enumerate(funs):
        unit = tuple(target.id_of(ff.on_obj(x)) for x in shape.objects)
        for k, hh in enumerate(funs):
            for combo in natural_transformations(shape, target, ff, hh):
                if len(morphisms) >= guard:
                    raise GuardExceeded(
                        f"functor category over {target.name} has more than "
                        f"{guard} morphisms (guard {guard})", len(morphisms) + 1)
                tid = f"t{len(morphisms)}"
                dom.append(i)
                cod.append(k)
                combos.append(combo)
                morphisms.append(Morphism(tid, ff.name, hh.name,
                                          label="(" + ",".join(combo) + ")"))
                if i == k and combo == unit:
                    identity[ff.name] = tid
        start.append(len(morphisms))
    ids = [m.id for m in morphisms]
    # a composite is looked up by (source functor, target functor, components)
    index = {(d, c, *combo): n for n, (d, c, combo) in enumerate(zip(dom, cod, combos))}
    slots = list(zip(*combos))
    rows = composition_rows(dom, cod, slots, start, _row_getters(target), index)
    return FunctorCategory(
        name=f"{target.name}^{shape.name}",
        objects=tuple(f.name for f in funs),
        morphisms=tuple(morphisms),
        identity=identity,
        comp=composition_table(ids, cod, start, rows),
        obj_labels={f.name: "[" + ",".join(f.on_obj(x) for x in shape.objects) + "]"
                    for f in funs},
        functors={f.name: f for f in funs},
        components=dict(zip(ids, combos)),
    )
