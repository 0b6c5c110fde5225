"""Discrete and indiscrete orderings as adjoints to the forgetful functor.

The category of preorders on small carriers supports both adjunctions: the
discrete ordering is left adjoint to the underlying-set functor, and the
indiscrete ordering is right adjoint to it. Restricting to partial orders
(antisymmetry) kills the indiscrete ordering on two or more points, so the
right representation search on the poset fragment must fail with a witness;
that contrast is the point of this instance.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..errors import GuardExceeded
from ..fincat import FinCategory, FinFunctor
from ..het import HetBifunctor
from .finset import finset_skeleton, fn_id, fn_images, function_category, function_het


def _preorders_on(k: int) -> list[frozenset[tuple[int, int]]]:
    """All reflexive transitive relations on 0..k-1, deterministically ordered."""
    base = [(i, i) for i in range(k)]
    extra = [(i, j) for i in range(k) for j in range(k) if i != j]
    out = []
    for r in range(len(extra) + 1):
        for combo in itertools.combinations(extra, r):
            rel = frozenset(base) | frozenset(combo)
            if all((a, d) in rel
                   for (a, b) in rel for (c, d) in rel if b == c):
                out.append(rel)
    return sorted(out, key=lambda rel: tuple(sorted(rel)))


def _preorder_id(k: int, rel: frozenset[tuple[int, int]]) -> str:
    strict = sorted((i, j) for (i, j) in rel if i != j)
    return f"P{k}[" + ",".join(f"{i}<{j}" for i, j in strict) + "]"


def _is_poset(rel: frozenset[tuple[int, int]]) -> bool:
    return all(not ((i, j) in rel and (j, i) in rel) for (i, j) in rel if i != j)


def _ordered_category(name: str, n: int, posets_only: bool) -> tuple[FinCategory, dict]:
    """Preorders (or posets) on carriers 0..n with monotone maps."""
    data = {_preorder_id(k, rel): (k, rel) for k in range(n + 1) for rel in _preorders_on(k)
            if not posets_only or _is_poset(rel)}

    def monotone(p, q, images):
        rq = data[q][1]
        return all((images[i], images[j]) in rq for (i, j) in data[p][1])

    cards = {p: k for p, (k, _) in data.items()}
    return function_category(name, cards, lambda p, q: f"{p}>{q}", keep=monotone), data


@dataclass(frozen=True, eq=False)
class PreorderInstance:
    sets: FinCategory
    preorders: FinCategory
    posets: FinCategory
    lower_het: HetBifunctor          # set-to-preorder functions: discrete -| forgetful
    upper_het: HetBifunctor          # preorder-to-set functions: forgetful -| indiscrete
    poset_het: HetBifunctor          # poset-to-set functions: right side must fail
    discrete: FinFunctor             # D: sets -> preorders
    forgetful: FinFunctor            # U: preorders -> sets
    indiscrete: FinFunctor           # I: sets -> preorders
    poset_forgetful: FinFunctor      # U restricted to posets


def preorder_adjunction_chain(n: int, guard: int = 2) -> PreorderInstance:
    if n > guard:
        raise GuardExceeded(f"preorder carrier bound {n} exceeds guard {guard}", n)
    sets = finset_skeleton(n)
    preorders, pdata = _ordered_category("Ord", n, posets_only=False)
    posets, qdata = _ordered_category("Pos", n, posets_only=True)

    discrete_of = {str(k): _preorder_id(k, frozenset((i, i) for i in range(k)))
                   for k in range(n + 1)}
    indiscrete_of = {str(k): _preorder_id(k, frozenset(
        (i, j) for i in range(k) for j in range(k))) for k in range(n + 1)}
    discrete = FinFunctor(
        "Discrete", sets, preorders,
        obj_map=dict(discrete_of),
        mor_map={m.id: f"{discrete_of[m.dom]}>{discrete_of[m.cod]}:" +
                 ",".join(map(str, fn_images(m.id)))
                 for m in sets.morphisms},
    )
    indiscrete = FinFunctor(
        "Indiscrete", sets, preorders,
        obj_map=dict(indiscrete_of),
        mor_map={m.id: f"{indiscrete_of[m.dom]}>{indiscrete_of[m.cod]}:" +
                 ",".join(map(str, fn_images(m.id)))
                 for m in sets.morphisms},
    )
    forgetful = FinFunctor(
        "Underlying", preorders, sets,
        obj_map={p: str(pdata[p][0]) for p in preorders.objects},
        mor_map={m.id: fn_id(pdata[m.dom][0], pdata[m.cod][0], fn_images(m.id))
                 for m in preorders.morphisms},
    )
    poset_forgetful = FinFunctor(
        "Underlying|Pos", posets, sets,
        obj_map={p: str(qdata[p][0]) for p in posets.objects},
        mor_map={m.id: fn_id(qdata[m.dom][0], qdata[m.cod][0], fn_images(m.id))
                 for m in posets.morphisms},
    )

    lower = function_het("set-to-preorder", sets, preorders,
                         int, lambda a: pdata[a][0], lambda x, a: f"du:{x}>{a}")
    upper = function_het("preorder-to-set", preorders, sets,
                         lambda p: pdata[p][0], int, lambda p, z: f"ui:{p}>{z}")
    poset_het = function_het("poset-to-set", posets, sets,
                             lambda p: qdata[p][0], int, lambda p, z: f"pu:{p}>{z}")
    return PreorderInstance(sets, preorders, posets, lower, upper, poset_het,
                            discrete, forgetful, indiscrete, poset_forgetful)
