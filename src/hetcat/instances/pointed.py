"""A finite free-forgetful analog: adjoining a basepoint to a finite set.

This stands in for the free-group/underlying-set adjunction, whose free side
is infinite. Heteromorphisms are arbitrary functions from a set into the
carrier of a pointed set; the free functor adjoins a fresh basepoint and the
insertion of generators is the sending universal.

Finiteness caveat: the free functor strictly grows cardinality, so on any
bounded grid the underlying-set side cannot be total; the largest pointed
sets have no representing plain set inside the grid. The left representation
is genuine and complete; the right search returns an honest witness there.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import GuardExceeded
from ..fincat import FinCategory, FinFunctor
from ..het import HetBifunctor
from .finset import finset_skeleton, fn_images, function_category, function_het


def pointed_category(max_size: int) -> FinCategory:
    """Pointed sets on carriers 1..max_size, basepoint 0, point-fixing maps."""
    return function_category(
        "FinSet*", {f"pt{m}": m for m in range(1, max_size + 1)},
        lambda d, c: f"p:{d[2:]}>{c[2:]}", keep=lambda d, c, images: images[0] == 0)


@dataclass(frozen=True, eq=False)
class PointedInstance:
    sets: FinCategory
    pointed: FinCategory
    het: HetBifunctor                 # cell(k, pt_m) = all functions k -> m
    free: FinFunctor                  # expected left adjoint k -> pt_{k+1}
    insertions: dict[str, str]         # k -> expected h_k (insertion of generators)
    carrier_card: dict[str, int]       # pt_m -> m, the partial underlying-set data


def pointed_free_forgetful(n: int, guard: int = 3) -> PointedInstance:
    if n > guard:
        raise GuardExceeded(f"pointed instance bound {n} exceeds guard {guard}", n)
    sets = finset_skeleton(n)
    pointed = pointed_category(n + 1)

    het = function_het(f"set-to-pointed<= {n}", sets, pointed,
                       int, lambda a: int(a[2:]), lambda x, a: f"sp:{x}>{a[2:]}")

    free = FinFunctor(
        "Free", sets, pointed,
        obj_map={str(k): f"pt{k + 1}" for k in range(n + 1)},
        mor_map={
            h.id: f"p:{int(h.dom) + 1}>{int(h.cod) + 1}:" + ",".join(
                map(str, (0,) + tuple(v + 1 for v in fn_images(h.id))))
            for h in sets.morphisms},
    )
    insertions = {
        str(k): f"sp:{k}>{k + 1}:" + ",".join(str(i + 1) for i in range(k))
        for k in range(n + 1)
    }
    carrier_card = {f"pt{m}": m for m in range(1, n + 2)}
    return PointedInstance(sets, pointed, het, free, insertions, carrier_card)
