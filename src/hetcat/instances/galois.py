"""Galois connections induced by a function between finite sets.

Powersets under inclusion are categories; a function f: S -> T induces the
direct-image/inverse-image connection (f(x) is below a iff x is below the
preimage of a) and the further connection between the inverse image and the
universally-quantified image f_*(x) = { t : preimage of {t} is inside x }.

Three het-bifunctors are emitted: the lower connection described by the
direct-image formula, the same connection described by the preimage formula
(their cellwise equality is the adjunction statement computed from raw set
data), and the upper connection. Expected adjoints come with independent
supremum/infimum oracles.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..errors import GuardExceeded
from ..fincat import FinCategory, Morphism
from ..het import HetBifunctor


def subset_id(sub: frozenset[str]) -> str:
    return "{" + ",".join(sorted(sub)) + "}"


def powerset_poset(name: str, universe: tuple[str, ...]) -> FinCategory:
    """The powerset of a finite set as a category: one morphism per inclusion."""
    subs = [frozenset(c) for r in range(len(universe) + 1)
            for c in itertools.combinations(sorted(universe), r)]
    subs.sort(key=lambda s: (len(s), tuple(sorted(s))))
    ids = {s: subset_id(s) for s in subs}
    objects = tuple(ids[s] for s in subs)
    morphisms = []
    mor_of = {}
    for lo in subs:
        for hi in subs:
            if lo <= hi:
                mid = f"{ids[lo]}<={ids[hi]}"
                morphisms.append(Morphism(mid, ids[lo], ids[hi]))
                mor_of[(lo, hi)] = mid
    identity = {ids[s]: mor_of[(s, s)] for s in subs}
    # the inclusions out of each subset, in morphism order
    out_of = {s: [] for s in subs}
    for (lo, hi), mid in mor_of.items():
        out_of[lo].append((hi, mid))
    comp = {(f, g): mor_of[(lo, hi)]
            for (lo, mid_), f in mor_of.items() for hi, g in out_of[mid_]}
    return FinCategory(name, objects, tuple(morphisms), identity, comp)


def _relation_het(name: str, dom_poset: FinCategory, cod_poset: FinCategory,
                  holds) -> HetBifunctor:
    """A het-bifunctor with at most one element per cell: the witness that the
    relation holds. Actions are the unique maps, total by monotonicity."""
    def cell_fn(x: str, a: str) -> tuple[str, ...]:
        return (f"c:{x}=>{a}",) if holds(x, a) else ()

    cells = {(x, a): cell_fn(x, a)
             for x in dom_poset.objects for a in cod_poset.objects}
    act_left = {}
    for h in dom_poset.morphisms:
        table = {}
        for a in cod_poset.objects:
            for c in cells[(h.cod, a)]:
                table[c] = f"c:{h.dom}=>{a}"
        act_left[h.id] = table
    act_right = {}
    for k in cod_poset.morphisms:
        table = {}
        for x in dom_poset.objects:
            for c in cells[(x, k.dom)]:
                table[c] = f"c:{x}=>{k.cod}"
        act_right[k.id] = table
    return HetBifunctor(name, dom_poset, cod_poset, cells, act_left, act_right)


@dataclass(frozen=True, eq=False)
class GaloisInstance:
    f_map: dict[str, str]
    s_universe: tuple[str, ...]
    t_universe: tuple[str, ...]
    dom_poset: FinCategory                  # powerset of S
    cod_poset: FinCategory                  # powerset of T
    lower_het: HetBifunctor                 # cell nonempty iff f(x) is inside a
    lower_het_via_preimage: HetBifunctor    # cell nonempty iff x is inside preimage(a)
    upper_het: HetBifunctor                 # cell nonempty iff preimage(a) is inside x
    direct_image: dict[str, str]            # expected F of the lower connection
    preimage: dict[str, str]                # expected G of the lower / F of the upper
    f_star: dict[str, str]                  # expected G of the upper connection

    def sup_formula_right_adjoint(self, het: str, a: str) -> str:
        """Independent oracle: Ga = sup{ x : Fx <= a }, computed as a union."""
        if het == "lower":
            members = [x for x in self.dom_poset.objects
                       if _subset(self.direct_image[x], a)]
            return _union_id(members)
        members = [a2 for a2 in self.cod_poset.objects
                   if _subset(self.preimage[a2], a)]
        return _union_id(members)

    def inf_formula_left_adjoint(self, het: str, x: str) -> str:
        """Independent oracle: Fx = inf{ a : x <= Ga }, computed as an intersection."""
        if het == "lower":
            members = [a for a in self.cod_poset.objects
                       if _subset(x, self.preimage[a])]
            universe = self.t_universe
        else:
            members = [x2 for x2 in self.dom_poset.objects
                       if _subset(x, self.f_star[x2])]
            universe = self.s_universe
        out = frozenset(universe)
        for m in members:
            out &= _parse(m)
        return subset_id(out)


def _parse(oid: str) -> frozenset[str]:
    inner = oid.strip("{}")
    return frozenset(inner.split(",")) if inner else frozenset()


def _subset(lo: str, hi: str) -> bool:
    return _parse(lo) <= _parse(hi)


def _union_id(members: list[str]) -> str:
    out: frozenset[str] = frozenset()
    for m in members:
        out |= _parse(m)
    return subset_id(out)


def galois_connections(f_map: dict[str, str], s_universe: tuple[str, ...],
                       t_universe: tuple[str, ...],
                       s_guard: int = 4, t_guard: int = 3) -> GaloisInstance:
    """Build both connections induced by f, with their formula oracles."""
    if len(s_universe) > s_guard or len(t_universe) > t_guard:
        raise GuardExceeded(
            f"powerset carriers |S|={len(s_universe)}, |T|={len(t_universe)} exceed "
            f"guards ({s_guard}, {t_guard})", 2 ** max(len(s_universe), len(t_universe)))
    if set(f_map) != set(s_universe) or not set(f_map.values()) <= set(t_universe):
        raise GuardExceeded("f is not a function from S to T", 0)
    ps = powerset_poset("P(S)", s_universe)
    pt = powerset_poset("P(T)", t_universe)

    def image(x: frozenset[str]) -> frozenset[str]:
        return frozenset(f_map[e] for e in x)

    def pre(a: frozenset[str]) -> frozenset[str]:
        return frozenset(e for e in s_universe if f_map[e] in a)

    direct_image = {subset_id(frozenset(x)): subset_id(image(frozenset(x)))
                    for x in map(_parse, ps.objects)}
    preimage = {subset_id(frozenset(a)): subset_id(pre(frozenset(a)))
                for a in map(_parse, pt.objects)}
    f_star = {
        subset_id(x): subset_id(frozenset(
            t for t in t_universe if pre(frozenset([t])) <= x))
        for x in map(_parse, ps.objects)
    }
    lower = _relation_het(
        "galois-lower", ps, pt,
        lambda x, a: image(_parse(x)) <= _parse(a))
    lower_via_pre = _relation_het(
        "galois-lower-via-preimage", ps, pt,
        lambda x, a: _parse(x) <= pre(_parse(a)))
    upper = _relation_het(
        "galois-upper", pt, ps,
        lambda a, x: pre(_parse(a)) <= _parse(x))
    return GaloisInstance(dict(f_map), s_universe, t_universe, ps, pt,
                          lower, lower_via_pre, upper,
                          direct_image, preimage, f_star)


def all_functions(s_universe: tuple[str, ...],
                  t_universe: tuple[str, ...]) -> list[dict[str, str]]:
    """Every function S -> T, in deterministic order."""
    return [dict(zip(s_universe, combo))
            for combo in itertools.product(t_universe, repeat=len(s_universe))]
