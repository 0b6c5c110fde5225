"""Finite-set scaffolding: categories of finite functions and their function
hets, the skeleton category of small finite sets, diagram shapes, explicit
set-valued diagrams, and direct limit/colimit computation.

One tabulator pair serves every instance whose morphisms and heteromorphisms
are plain functions between finite carriers. `function_category` lists every
function (or every one a predicate admits) between the carriers of its
objects, with each morphism's image tuple made once; the composites of
f: d -> c with all of hom(c, e) come from one C-level pass that reads each
g's images at f's and looks the result up in an index of hom(d, e), so it
runs in time linear in its composition table. The skeleton, whose objects
are cardinalities named "0", "1", ..., is `function_category` over every
function; for n = 4 that is 499 morphisms and 133,799 composites.

A het is tabulated either by `build_het` (in `hetcat.het`), from per-element
callables, or by `leg_het`, for elements that are tuples of functions (legs)
acted on leg by leg: `function_het` (each function its own single leg) and
the cone and cocone hets of `limits` are `leg_het` calls. `image_functor`
is the functor that keeps each function's images and renames its endpoints.

Limits are the compatible tuples (global sections) of a diagram; colimits are
the blocks of the finest equivalence generated by relating each element to
its images, computed by union-find with the minimal member as the canonical
representative.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from itertools import repeat

from ..errors import GuardExceeded, StructuralError
from ..fincat import FinCategory, FinFunctor, Morphism
from ..het import HetBifunctor


def fn_id(k: int, m: int, images: tuple[int, ...]) -> str:
    return f"{k}>{m}:" + ",".join(str(i) for i in images)


def fn_images(mid: str) -> tuple[int, ...]:
    """Recover the image tuple from a function id: the part after its last colon."""
    imgs = mid.rpartition(":")[2]
    return tuple(int(s) for s in imgs.split(",")) if imgs else ()


def function_category(name: str, cards: dict[str, int], prefix, keep=None) -> FinCategory:
    """Objects with finite carriers, morphisms the functions between them.

    `cards` maps each object, in order, to the size of its carrier. A
    morphism d -> c is a function that `keep(d, c, images)` admits (every
    function when keep is None), with id f"{prefix(d, c)}:{images}"; keep
    must admit identities and be closed under composition. Morphisms are
    listed by domain, then codomain, then image tuple; the composition table
    follows that order in f and then in g.
    """
    objects = tuple(cards)
    morphisms = []
    # per (d, c): the functions d -> c as ids and image tuples, in id order,
    # the image-tuple -> id index, and each image tuple's __getitem__
    ids, images, index, getters = {}, {}, {}, {}
    for d in objects:
        for c in objects:
            fns = itertools.product(range(cards[c]), repeat=cards[d])
            images[d, c] = list(fns) if keep is None else [i for i in fns if keep(d, c, i)]
            head = prefix(d, c) + ":"
            ids[d, c] = [head + ",".join(map(str, i)) for i in images[d, c]]
            morphisms.extend(Morphism(mid, d, c) for mid in ids[d, c])
            index[d, c] = dict(zip(images[d, c], ids[d, c]))
            getters[d, c] = [i.__getitem__ for i in images[d, c]]
    identity = {d: index[d, d][tuple(range(cards[d]))] for d in objects}
    comp = {}
    for (d, c), f_ids in ids.items():
        for fid, fi in zip(f_ids, images[d, c]):
            for e in objects:
                # g's images read at f's images are the images of "f then g"
                composites = map(tuple, map(map, getters[c, e], repeat(fi)))
                comp.update(zip(zip(repeat(fid), ids[c, e]),
                                map(index[d, e].__getitem__, composites)))
    return FinCategory(name, objects, tuple(morphisms), identity, comp)


def finset_skeleton(n: int, guard: int = 8) -> FinCategory:
    """Objects 0..n as cardinalities, morphisms all functions between them."""
    if n > guard:
        raise GuardExceeded(f"finset skeleton bound {n} exceeds guard {guard}", n)
    return function_category(f"FinSet<={n}", {str(k): k for k in range(n + 1)},
                             lambda d, c: f"{d}>{c}")


def _functions(lengths, values: int) -> list[tuple[int, ...]]:
    """Every function w -> values, for w in lengths, as its image tuple."""
    return [f for w in lengths for f in itertools.product(range(values), repeat=w)]


def _precompose(fi: tuple[int, ...], legs) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Each leg g sent to "f then g", for the function f with images fi."""
    getters = [leg.__getitem__ for leg in legs]
    return dict(zip(legs, map(tuple, map(map, getters, repeat(fi)))))


def _postcompose(gi: tuple[int, ...], legs) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Each leg f sent to "f then g", for the function g with images gi."""
    return dict(zip(legs, map(tuple, map(map, repeat(gi.__getitem__), legs))))


def leg_het(name: str, X: FinCategory, A: FinCategory, cells, legs,
            left_maps, right_maps) -> HetBifunctor:
    """The het over these cells whose elements are known by their legs:
    legs[cell] lists each element's tuple of legs, in the cell's order.
    h: x' -> x sends each element of (x, a), its i-th leg through the dict
    left_maps(h)[i], to the element of (x', a) with those legs; k: a -> a'
    acts from (x, a) to (x, a') by right_maps(k). Each image is looked up in
    an index of its cell, so the tables fill in time linear in their size."""
    index = {cell: dict(zip(legs[cell], ids)) for cell, ids in cells.items()}

    def action(maps, moves) -> dict[str, str]:
        table: dict[str, str] = {}
        for src, dst in moves:
            images = map(tuple, map(map, repeat(dict.__getitem__), repeat(maps), legs[src]))
            table.update(zip(cells[src], map(index[dst].__getitem__, images)))
        return table

    act_left = {h.id: action(left_maps(h), [((h.cod, a), (h.dom, a)) for a in A.objects])
                for h in X.morphisms}
    act_right = {k.id: action(right_maps(k), [((x, k.dom), (x, k.cod)) for x in X.objects])
                 for k in A.morphisms}
    return HetBifunctor(name, X, A, cells, act_left, act_right)


def function_het(name: str, X: FinCategory, A: FinCategory, x_card, a_card, prefix,
                 x_images=fn_images) -> HetBifunctor:
    """The het-bifunctor whose cell (x, a) holds every function from x's
    carrier (size x_card(x)) to a's (size a_card(a)), in image-tuple order,
    with id f"{prefix(x, a)}:{images}".

    h: x' -> x acts by "h then c", with h's map on carriers read by
    `x_images(h.id)`; k: a -> a' acts by "c then k", with k's map read by
    `fn_images`. Each function is its own single leg.
    """
    cells, legs = {}, {}
    for x in X.objects:
        for a in A.objects:
            fns = list(itertools.product(range(a_card(a)), repeat=x_card(x)))
            head = prefix(x, a) + ":"
            cells[x, a] = tuple(head + ",".join(map(str, i)) for i in fns)
            legs[x, a] = list(zip(fns))
    # the legs an action may meet: by the size of an x carrier, every
    # function out of it into the largest a carrier; by the size of an a
    # carrier, every function into it out of any x carrier
    x_cards = sorted(set(map(x_card, X.objects)))
    a_max = max(map(a_card, A.objects), default=0)
    out_of = {w: _functions((w,), a_max) for w in x_cards}
    into = {v: _functions(x_cards, v) for v in set(map(a_card, A.objects))}
    return leg_het(
        name, X, A, cells, legs,
        lambda h: (_precompose(x_images(h.id), out_of[x_card(h.cod)]),),
        lambda k: (_postcompose(fn_images(k.id), into[a_card(k.dom)]),))


def image_functor(name: str, source: FinCategory, target: FinCategory,
                  obj_map: dict[str, str]) -> FinFunctor:
    """The functor that sends each object through obj_map and each function
    to the one with the same images between the renamed endpoints, named
    f"{d}>{c}:{images}" as in the skeleton and the categories of orders."""
    return FinFunctor(name, source, target, dict(obj_map), {
        m.id: f"{obj_map[m.dom]}>{obj_map[m.cod]}:{m.id.rpartition(':')[2]}"
        for m in source.morphisms})


def skeleton_card(obj: str) -> int:
    return int(obj)


# ---------------------------------------------------------------------------
# diagram shapes
# ---------------------------------------------------------------------------

SHAPE_NAMES = ("terminal", "discrete-2", "parallel-pair", "span")


def diagram_shape(name: str) -> FinCategory:
    """The built-in diagram categories."""
    if name == "terminal":
        return FinCategory("terminal", ("t",), (Morphism("1t", "t", "t"),),
                           {"t": "1t"}, {("1t", "1t"): "1t"})
    if name == "discrete-2":
        return FinCategory(
            "discrete-2", ("i", "j"),
            (Morphism("1i", "i", "i"), Morphism("1j", "j", "j")),
            {"i": "1i", "j": "1j"},
            {("1i", "1i"): "1i", ("1j", "1j"): "1j"})
    if name == "parallel-pair":
        mors = (Morphism("1s", "s", "s"), Morphism("1t", "t", "t"),
                Morphism("alpha", "s", "t"), Morphism("beta", "s", "t"))
        comp = {("1s", "1s"): "1s", ("1t", "1t"): "1t",
                ("1s", "alpha"): "alpha", ("alpha", "1t"): "alpha",
                ("1s", "beta"): "beta", ("beta", "1t"): "beta"}
        return FinCategory("parallel-pair", ("s", "t"), mors, {"s": "1s", "t": "1t"}, comp)
    if name == "span":
        mors = (Morphism("1m", "m", "m"), Morphism("1l", "l", "l"),
                Morphism("1r", "r", "r"), Morphism("f", "m", "l"),
                Morphism("g", "m", "r"))
        comp = {("1m", "1m"): "1m", ("1l", "1l"): "1l", ("1r", "1r"): "1r",
                ("1m", "f"): "f", ("f", "1l"): "f",
                ("1m", "g"): "g", ("g", "1r"): "g"}
        return FinCategory("span", ("m", "l", "r"), mors,
                           {"m": "1m", "l": "1l", "r": "1r"}, comp)
    raise StructuralError(f"unknown diagram shape {name!r}; "
                          f"choose one of {', '.join(SHAPE_NAMES)}")


def shape_is_connected(shape: FinCategory) -> bool:
    """Connectivity of the underlying undirected graph of the shape."""
    uf = _UnionFind(shape.objects)
    for m in shape.morphisms:
        uf.union(m.dom, m.cod)
    return len({uf.find(o) for o in shape.objects}) <= 1


# ---------------------------------------------------------------------------
# explicit set-valued diagrams
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FinSetObject:
    elements: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.elements)) != len(self.elements):
            raise StructuralError("finite set has repeated element symbols")

    @property
    def size(self) -> int:
        return len(self.elements)


@dataclass(frozen=True, eq=False)
class SetDiagram:
    """A functor from a diagram shape into explicit finite sets.

    `values` assigns a FinSetObject to each shape object; `arrows` assigns to
    each shape morphism a mapping dict between the corresponding element sets.
    Functor laws are validated at construction.
    """

    shape: FinCategory
    values: dict[str, FinSetObject]
    arrows: dict[str, dict[str, str]]

    def __post_init__(self):
        for o in self.shape.objects:
            if o not in self.values:
                raise StructuralError(f"diagram missing value at {o!r}")
        for m in self.shape.morphisms:
            table = self.arrows.get(m.id)
            if table is None:
                raise StructuralError(f"diagram missing arrow at {m.id!r}")
            dom, cod = self.values[m.dom], self.values[m.cod]
            if set(table) != set(dom.elements) or not set(table.values()) <= set(cod.elements):
                raise StructuralError(f"diagram arrow {m.id!r} is not a function "
                                      f"between its endpoint sets")
        for o in self.shape.objects:
            i = self.shape.id_of(o)
            if any(self.arrows[i][e] != e for e in self.values[o].elements):
                raise StructuralError(f"diagram does not send the identity at {o!r} "
                                      f"to an identity function")
        for (f, g), h in self.shape.comp.items():
            for e in self.values[self.shape.dom(f)].elements:
                if self.arrows[g][self.arrows[f][e]] != self.arrows[h][e]:
                    raise StructuralError(f"diagram breaks composition at ({f}, {g})")


def skeleton_functor_to_diagram(shape: FinCategory, skel: FinCategory,
                                obj_map: dict[str, str],
                                mor_map: dict[str, str]) -> SetDiagram:
    """View a functor shape -> skeleton as a diagram over canonical element sets."""
    values = {
        o: FinSetObject(tuple(str(i) for i in range(skeleton_card(obj_map[o]))))
        for o in shape.objects
    }
    arrows = {}
    for m in shape.morphisms:
        images = fn_images(mor_map[m.id])
        arrows[m.id] = {str(i): str(images[i]) for i in range(len(images))}
    return SetDiagram(shape, values, arrows)


@dataclass(frozen=True)
class Cone:
    """A compatible family of functions from an apex set into a diagram."""

    apex: FinSetObject
    diagram: SetDiagram
    legs: dict[str, dict[str, str]]      # shape object -> apex element -> value element

    def check(self) -> None:
        for o in self.diagram.shape.objects:
            table = self.legs.get(o)
            if table is None or set(table) != set(self.apex.elements):
                raise StructuralError(f"cone leg at {o!r} is not total on the apex")
        for m in self.diagram.shape.morphisms:
            for e in self.apex.elements:
                if self.diagram.arrows[m.id][self.legs[m.dom][e]] != self.legs[m.cod][e]:
                    raise StructuralError(f"cone legs do not commute with {m.id!r}")


@dataclass(frozen=True)
class Cocone:
    """A compatible family of functions from a diagram to a target set."""

    diagram: SetDiagram
    target: FinSetObject
    legs: dict[str, dict[str, str]]      # shape object -> value element -> target element

    def check(self) -> None:
        for o in self.diagram.shape.objects:
            table = self.legs.get(o)
            if table is None or set(table) != set(self.diagram.values[o].elements):
                raise StructuralError(f"cocone leg at {o!r} is not total")
        for m in self.diagram.shape.morphisms:
            for e in self.diagram.values[m.dom].elements:
                if self.legs[m.cod][self.diagram.arrows[m.id][e]] != self.legs[m.dom][e]:
                    raise StructuralError(f"cocone legs do not commute with {m.id!r}")


@dataclass(frozen=True)
class LimitResult:
    apex: FinSetObject
    cone: Cone                            # the universal cone of projections
    tuples: tuple[tuple[str, ...], ...]   # one entry per apex element, in object order


@dataclass(frozen=True)
class ColimitResult:
    apex: FinSetObject                    # block representatives
    cocone: Cocone                        # the universal cocone of injections-into-blocks
    blocks: dict[str, tuple[tuple[str, str], ...]]   # block -> (object, element) members


def limit_of(diagram: SetDiagram) -> LimitResult:
    """Compatible tuples, one member per diagram value, stable under all arrows."""
    shape = diagram.shape
    order = shape.objects
    pools = [diagram.values[o].elements for o in order]
    good: list[tuple[str, ...]] = []
    for combo in itertools.product(*pools):
        pick = dict(zip(order, combo))
        if all(diagram.arrows[m.id][pick[m.dom]] == pick[m.cod]
               for m in shape.morphisms):
            good.append(combo)
    names = tuple("(" + ";".join(combo) + ")" for combo in good)
    apex = FinSetObject(names)
    legs = {
        o: {name: combo[i] for name, combo in zip(names, good)}
        for i, o in enumerate(order)
    }
    cone = Cone(apex, diagram, legs)
    cone.check()
    return LimitResult(apex, cone, tuple(good))


class _UnionFind:
    def __init__(self, items):
        self.parent = {i: i for i in items}

    def find(self, i):
        root = i
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[i] != root:
            self.parent[i], i = root, self.parent[i]
        return root

    def union(self, i, j):
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            # keep the lexicographically smallest member as the root
            lo, hi = sorted((ri, rj))
            self.parent[hi] = lo


def colimit_of(diagram: SetDiagram) -> ColimitResult:
    """Blocks of the finest equivalence on the disjoint union generated by
    relating each element to its image under every arrow."""
    shape = diagram.shape
    points = [(o, e) for o in shape.objects for e in diagram.values[o].elements]
    uf = _UnionFind(points)
    for m in shape.morphisms:
        for e in diagram.values[m.dom].elements:
            uf.union((m.dom, e), (m.cod, diagram.arrows[m.id][e]))
    blocks: dict[tuple[str, str], list[tuple[str, str]]] = {}
    for p in points:
        blocks.setdefault(uf.find(p), []).append(p)
    reps = sorted(blocks)
    names = {rep: f"[{rep[0]}:{rep[1]}]" for rep in reps}
    apex = FinSetObject(tuple(names[rep] for rep in reps))
    legs = {
        o: {e: names[uf.find((o, e))] for e in diagram.values[o].elements}
        for o in shape.objects
    }
    cocone = Cocone(diagram, apex, legs)
    cocone.check()
    return ColimitResult(apex, cocone,
                         {names[rep]: tuple(sorted(blocks[rep])) for rep in reps})


def compose_cone_cocone(cone: Cone, cocone: Cocone) -> dict[str, str]:
    """Join a cone and a cocone over the same diagram at the open end.

    Licensed only when the shape is connected, or when both leg families are
    constant; in either case the per-object composites provably agree and the
    result is a single function apex -> target. Other cases are rejected
    because the composites can disagree between components.
    """
    if cone.diagram is not cocone.diagram and cone.diagram != cocone.diagram:
        raise StructuralError("cone and cocone are over different diagrams")
    shape = cone.diagram.shape
    cone_tables = list(cone.legs.values())
    cocone_tables = list(cocone.legs.values())
    constant = all(t == cone_tables[0] for t in cone_tables[1:]) and \
        all(t == cocone_tables[0] for t in cocone_tables[1:])
    if not shape_is_connected(shape) and not constant:
        raise StructuralError(
            "open-end composition rejected: it is only well defined over a "
            "connected shape or for constant leg families")
    composites = [
        {e: cocone.legs[o][cone.legs[o][e]] for e in cone.apex.elements}
        for o in shape.objects
    ]
    assert all(t == composites[0] for t in composites[1:])
    return composites[0] if composites else {}
