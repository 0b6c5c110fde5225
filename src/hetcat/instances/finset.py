"""Finite-set scaffolding: categories of finite functions and their function
hets, the skeleton category of small finite sets, diagram shapes, and direct
limit/colimit computation.

One tabulator pair serves every instance whose morphisms and heteromorphisms
are plain functions between finite carriers. `function_category` lists every
function (or every one a predicate admits) between the carriers of its
objects, with each morphism's image tuple made once; the composites of
f: d -> c with all of hom(c, e) come from one itemgetter over f's images,
mapped over hom(c, e)'s image tuples into an index of hom(d, e), so it
runs in time linear in its composition table. The skeleton, whose objects
are cardinalities named "0", "1", ..., is `function_category` over every
function; for n = 4 that is 499 morphisms and 133,799 composites.

A het is tabulated either by `build_het` (in `hetcat.het`), from per-element
callables, or by `leg_het`, for elements that are tuples of functions (legs)
acted on leg by leg, a cell's legs at one position at a time, coded as
ints: `function_het` (each function its own single leg) and the cone and
cocone hets of `limits` are `leg_het` calls. `image_functor`
is the functor that keeps each function's images and renames its endpoints.

A diagram is a functor shape -> FinSet<=n, read as it stands: the carrier
of a shape object o is range(int(obj_map[o])), and an arrow m acts by
fn_images(mor_map[m]). Its functor laws are `check_functor`'s business, and
`functor_category` lists only functors. Limits are the compatible tuples
(global sections) of a diagram; colimits are the blocks of the finest
equivalence generated by relating each element to its images, computed by
union-find with the least member as the canonical representative.
"""

from __future__ import annotations

import itertools
from itertools import chain, count, repeat

from ..errors import GuardExceeded, StructuralError
from ..fincat import FinCategory, FinFunctor, Morphism, _picker
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
    follows that order in f and then in g, each f's row read off g's image
    tuples by one picker over f's images.
    """
    objects = tuple(cards)
    morphisms = []
    # per (d, c): the functions d -> c as ids and image tuples, in id order,
    # and the image-tuple -> id index
    ids, images, index = {}, {}, {}
    for d in objects:
        for c in objects:
            fns = itertools.product(range(cards[c]), repeat=cards[d])
            images[d, c] = list(fns) if keep is None else [i for i in fns if keep(d, c, i)]
            head = prefix(d, c) + ":"
            ids[d, c] = [head + ",".join(map(str, i)) for i in images[d, c]]
            morphisms.extend(Morphism(mid, d, c) for mid in ids[d, c])
            index[d, c] = dict(zip(images[d, c], ids[d, c]))
    identity = {d: index[d, d][tuple(range(cards[d]))] for d in objects}
    comp = {}
    for (d, c), f_ids in ids.items():
        for fid, fi in zip(f_ids, images[d, c]):
            # g's images read at f's images are the images of "f then g"
            pick = _picker(fi)
            for e in objects:
                comp.update(zip(zip(repeat(fid), ids[c, e]),
                                map(index[d, e].__getitem__, map(pick, images[c, e]))))
    return FinCategory(name, objects, tuple(morphisms), identity, comp)


def finset_skeleton(n: int, guard: int = 4) -> FinCategory:
    """Objects 0..n as cardinalities, morphisms all functions between them.
    The guard stops at FinSet<=4: FinSet<=5 has 18,705,846 composites."""
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
    acts from (x, a) to (x, a') by right_maps(k). A leg outside its map, and
    an image that is no element, raise KeyError. Legs are coded as ints, and
    a cell is read a column at a time: the i-th legs of its elements go
    through the i-th map in one C-level pass and are zipped back into image
    tuples, each looked up in an index of its cell, so the tables fill in
    time linear in their size. Every element needs at least one leg, as
    `function_het`'s single legs and every diagram shape's (co)cones have."""
    code = dict(zip(dict.fromkeys(chain.from_iterable(chain.from_iterable(legs.values()))),
                    count()))
    coded = {cell: list(map(tuple, map(map, repeat(code.__getitem__), found)))
             for cell, found in legs.items()}
    index = {cell: dict(zip(coded[cell], ids)) for cell, ids in cells.items()}

    def action(maps, moves) -> dict[str, str]:
        table: dict[str, str] = {}
        # each map on codes; a leg no element has codes to None, which no cell holds
        getters = [dict(zip(map(code.get, m), map(code.get, m.values()))).__getitem__
                   for m in maps]
        for src, dst in moves:
            images = zip(*map(map, getters, zip(*coded[src])))
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


# ---------------------------------------------------------------------------
# diagram shapes
# ---------------------------------------------------------------------------

# each shape's objects and non-identity arrows (id, dom, cod); no two arrows
# compose, so the identities and their composites complete each table
_SHAPES = {
    "terminal": (("t",), ()),
    "discrete-2": (("i", "j"), ()),
    "parallel-pair": (("s", "t"), (("alpha", "s", "t"), ("beta", "s", "t"))),
    "span": (("m", "l", "r"), (("f", "m", "l"), ("g", "m", "r"))),
}
SHAPE_NAMES = tuple(_SHAPES)


def diagram_shape(name: str) -> FinCategory:
    """The built-in diagram categories: the identity 1o at each object o,
    then the arrows; the composites of the identities, then of each arrow."""
    if name not in _SHAPES:
        raise StructuralError(f"unknown diagram shape {name!r}; "
                              f"choose one of {', '.join(SHAPE_NAMES)}")
    objects, arrows = _SHAPES[name]
    identity = {o: "1" + o for o in objects}
    comp = {(i, i): i for i in identity.values()}
    for f, d, c in arrows:
        comp[identity[d], f] = comp[f, identity[c]] = f
    morphisms = [Morphism(i, o, o) for o, i in identity.items()]
    morphisms += [Morphism(*arrow) for arrow in arrows]
    return FinCategory(name, objects, tuple(morphisms), identity, comp)


def limit_of(diagram: FinFunctor) -> list[tuple[int, ...]]:
    """The limit of a diagram shape -> FinSet<=n: its compatible tuples, one
    element of each value in shape-object order, that every arrow's function
    sends onto one another, in product order."""
    order = diagram.source.objects
    place = {o: i for i, o in enumerate(order)}
    arrows = [(place[m.dom], place[m.cod], fn_images(diagram.mor_map[m.id]))
              for m in diagram.source.morphisms]
    carriers = (range(int(diagram.obj_map[o])) for o in order)
    return [tup for tup in itertools.product(*carriers)
            if all(images[tup[d]] == tup[c] for d, c, images in arrows)]


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
            # keep the least member as the root
            lo, hi = sorted((ri, rj))
            self.parent[hi] = lo


def colimit_of(diagram: FinFunctor) -> tuple[list[tuple[str, int]], dict[str, tuple[int, ...]]]:
    """The colimit of a diagram shape -> FinSet<=n: the blocks of the finest
    equivalence on the disjoint union of its values that relates each element
    (o, e) to its image under every arrow out of o.

    Returns each block's least member (object, element), sorted, and for
    each shape object the block, by position in that list, of each element.
    Values have at most 4 elements (the `finset_skeleton` guard), so this
    int order is the order of the elements' one-digit names too."""
    shape = diagram.source
    carriers = {o: range(int(diagram.obj_map[o])) for o in shape.objects}
    uf = _UnionFind([(o, e) for o in shape.objects for e in carriers[o]])
    for m in shape.morphisms:
        for e, image in enumerate(fn_images(diagram.mor_map[m.id])):
            uf.union((m.dom, e), (m.cod, image))
    least = sorted({uf.find(p) for p in uf.parent})
    block = {rep: i for i, rep in enumerate(least)}
    return least, {o: tuple(block[uf.find((o, e))] for e in es) for o, es in carriers.items()}
