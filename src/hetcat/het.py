"""Set-valued bifunctors of heteromorphisms and their representability machinery.

A HetBifunctor stores, for every pair (x-object, a-object), a finite cell of
heteromorphism ids, together with a left action (precomposition by morphisms
of the sending category, contravariant) and a right action (postcomposition by
morphisms of the receiving category, covariant). The two actions commute: the
bimodule law (k.c).h = k.(c.h).

Representability on the left means each Het(x, -) has a universal element
(Fx, h_x); the assignment x -> Fx then extends to a functor by a unique
fill-in and the cells become naturally isomorphic to hom-sets out of Fx.
Representability on the right is the left one of dual(het), the same cells
over (A^op, X^op) with the two actions swapped (the duality principle, Mac
Lane CWM II.1), so every right-hand routine is its left twin run on the dual
and relabelled. The searches decide representability exhaustively and either
return the representation, fully verified, or a concrete witness that no
candidate works.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from itertools import repeat
from typing import Callable, Union

from .errors import StructuralError
from .fincat import FinCategory, FinFunctor, check_functor, opposite
from .report import LawReport


@dataclass(frozen=True, eq=False)
class HetBifunctor:
    name: str
    x_cat: FinCategory
    a_cat: FinCategory
    cells: dict[tuple[str, str], tuple[str, ...]]
    act_left: dict[str, dict[str, str]]
    act_right: dict[str, dict[str, str]]

    def __post_init__(self):
        cell_of: dict[str, tuple[str, str]] = {}
        x_objs, a_objs = set(self.x_cat.objects), set(self.a_cat.objects)
        for (x, a), elems in self.cells.items():
            if x not in x_objs or a not in a_objs:
                raise StructuralError(f"{self.name}: cell indexed by unknown objects ({x}, {a})")
            for c in elems:
                if c in cell_of:
                    raise StructuralError(f"{self.name}: element id {c!r} appears in two cells")
                cell_of[c] = (x, a)
        for pair in ((x, a) for x in self.x_cat.objects for a in self.a_cat.objects):
            if pair not in self.cells:
                raise StructuralError(f"{self.name}: missing cell {pair}")
        for side, table, cat in (("left", self.act_left, self.x_cat),
                                 ("right", self.act_right, self.a_cat)):
            for m in table:
                if not cat.has_morphism(m):
                    raise StructuralError(
                        f"{self.name}: {side} action table for unknown morphism {m!r}")
        object.__setattr__(self, "_cell_of", cell_of)

    def cell(self, x: str, a: str) -> tuple[str, ...]:
        return self.cells[(x, a)]

    def cell_of(self, c: str) -> tuple[str, str]:
        try:
            return self._cell_of[c]
        except KeyError:
            raise StructuralError(f"{self.name}: unknown heteromorphism id {c!r}") from None

    def act_l(self, h: str, c: str) -> str:
        """Precompose c: x => a with h: x' -> x, landing in cell (x', a)."""
        try:
            return self.act_left[h][c]
        except KeyError:
            raise StructuralError(
                f"{self.name}: left action of {h!r} undefined at {c!r}") from None

    def act_r(self, k: str, c: str) -> str:
        """Postcompose c: x => a with k: a -> a', landing in cell (x, a')."""
        try:
            return self.act_right[k][c]
        except KeyError:
            raise StructuralError(
                f"{self.name}: right action of {k!r} undefined at {c!r}") from None

    @property
    def elements(self) -> tuple[str, ...]:
        return tuple(self._cell_of)

    def __repr__(self) -> str:
        total = sum(len(v) for v in self.cells.values())
        return f"HetBifunctor({self.name!r}, {total} heteromorphisms)"


def build_het(name: str, x_cat: FinCategory, a_cat: FinCategory,
              cell_fn: Callable[[str, str], tuple[str, ...]],
              act_left_fn: Callable[[str, str], str],
              act_right_fn: Callable[[str, str], str]) -> HetBifunctor:
    """Tabulate a het-bifunctor from callables.

    act_left_fn(h, c) receives h: x' -> x and c in a cell (x, a); dually for
    act_right_fn. Both are tabulated over exactly the composable pairs.
    """
    cells = {(x, a): tuple(cell_fn(x, a)) for x in x_cat.objects for a in a_cat.objects}
    by_x: dict[str, list[str]] = {x: [] for x in x_cat.objects}
    by_a: dict[str, list[str]] = {a: [] for a in a_cat.objects}
    for (x, a), elems in cells.items():
        by_x[x].extend(elems)
        by_a[a].extend(elems)
    act_left = {
        h.id: {c: act_left_fn(h.id, c) for c in by_x[h.cod]}
        for h in x_cat.morphisms
    }
    act_right = {
        k.id: {c: act_right_fn(k.id, c) for c in by_a[k.dom]}
        for k in a_cat.morphisms
    }
    return HetBifunctor(name, x_cat, a_cat, cells, act_left, act_right)


def dual(het: HetBifunctor) -> HetBifunctor:
    """The same heteromorphisms over (A^op, X^op): cell (a, x) is het's (x, a).

    Postcomposition in het is precomposition in the dual and vice versa, so
    the two action tables swap places; they are shared, not copied. A left
    representation of the dual is a right representation of het.
    """
    return HetBifunctor(het.name + "^op", opposite(het.a_cat), opposite(het.x_cat),
                        {(a, x): elems for (x, a), elems in het.cells.items()},
                        het.act_right, het.act_left)


def hom_bifunctor(cat: FinCategory) -> HetBifunctor:
    """The hom-bifunctor of a category, as a het-bifunctor from it to itself."""
    return build_het(
        f"Hom_{cat.name}", cat, cat,
        cell_fn=cat.hom,
        act_left_fn=cat.compose,
        act_right_fn=lambda k, c: cat.compose(c, k),
    )


def check_bifunctor(het: HetBifunctor) -> LawReport:
    """Check identity actions, two-sided functoriality, and the bimodule law.

    Action entries that are missing or land in the wrong cell are structural
    errors and raise; only genuine law violations are reported.
    """
    rep = LawReport(f"bifunctor {het.name}")
    xc, ac = het.x_cat, het.a_cat
    # structural: totality and cell placement of every action entry
    for h in xc.morphisms:
        table = het.act_left.get(h.id)
        if table is None:
            raise StructuralError(f"{het.name}: no left action table for {h.id}")
        for a in ac.objects:
            for c in het.cell(h.cod, a):
                if c not in table:
                    raise StructuralError(
                        f"{het.name}: left action of {h.id} undefined at {c}")
                if het.cell_of(table[c]) != (h.dom, a):
                    raise StructuralError(
                        f"{het.name}: left action of {h.id} sends {c} outside cell ({h.dom}, {a})")
    for k in ac.morphisms:
        table = het.act_right.get(k.id)
        if table is None:
            raise StructuralError(f"{het.name}: no right action table for {k.id}")
        for x in xc.objects:
            for c in het.cell(x, k.dom):
                if c not in table:
                    raise StructuralError(
                        f"{het.name}: right action of {k.id} undefined at {c}")
                if het.cell_of(table[c]) != (x, k.cod):
                    raise StructuralError(
                        f"{het.name}: right action of {k.id} sends {c} outside cell ({x}, {k.cod})")
    # identity actions are identities
    for x in xc.objects:
        ix = xc.id_of(x)
        for c, image in het.act_left[ix].items():
            if image != c:
                rep.add("identity-left-action", (x, c), f"1.{c} = {image}")
    for a in ac.objects:
        ia = ac.id_of(a)
        for c, image in het.act_right[ia].items():
            if image != c:
                rep.add("identity-right-action", (a, c), f"{c}.1 = {image}")
    # contravariant functoriality on the left: act(h' then h) = act(h') after act(h)
    for (h2, h1), h21 in xc.comp.items():
        for c in het.act_left[h21]:
            step = het.act_left[h1].get(c)
            two = het.act_left[h2].get(step) if step is not None else None
            if het.act_left[h21][c] != two:
                rep.add("left-functoriality", (h2, h1, c),
                        f"act({h21})({c}) = {het.act_left[h21][c]}, stepwise = {two}")
    # covariant functoriality on the right
    for (k1, k2), k12 in ac.comp.items():
        for c in het.act_right[k12]:
            step = het.act_right[k1].get(c)
            two = het.act_right[k2].get(step) if step is not None else None
            if het.act_right[k12][c] != two:
                rep.add("right-functoriality", (k1, k2, c),
                        f"act({k12})({c}) = {het.act_right[k12][c]}, stepwise = {two}")
    # bimodule associativity (k.c).h = k.(c.h)
    for h in xc.morphisms:
        for k in ac.morphisms:
            for c in het.cell(h.cod, k.dom):
                lhs = het.act_left[h.id].get(het.act_right[k.id].get(c))
                rhs = het.act_right[k.id].get(het.act_left[h.id].get(c))
                if lhs != rhs or lhs is None:
                    rep.add("bimodule-associativity", (h.id, k.id, c),
                            f"(k.c).h = {lhs}, k.(c.h) = {rhs}")
    return rep.normalize()


# ---------------------------------------------------------------------------
# universal elements and representations
# ---------------------------------------------------------------------------

def universal_element_check(het: HetBifunctor, x: str, b: str,
                            u: str) -> tuple[bool, tuple[str, str, int] | None]:
    """Is (b, u) a universal element for Het(x, -)?

    True iff every c in every cell (x, a) factors as c = u.g for exactly one
    g: b -> a. On failure returns (a, c, factor_count) for the first
    offending c. For each a with a non-empty cell the images u.g over
    hom(b, a) are computed once, in hom order, and each c's count is read
    off them, so the check costs O(|cell(x, a)| + |hom(b, a)|) per a.
    """
    if het.cell_of(u) != (x, b):
        raise StructuralError(f"{het.name}: {u!r} is not in cell ({x}, {b})")
    act_r, hom, cells = het.act_r, het.a_cat.hom, het.cells
    for a in het.a_cat.objects:
        cell = cells[(x, a)]
        if not cell:
            continue
        images = list(map(act_r, hom(b, a), repeat(u)))
        distinct = set(images)
        if len(distinct) == len(images):
            # every count is 0 or 1
            if distinct.issuperset(cell):
                continue
            for c in cell:
                if c not in distinct:
                    return False, (a, c, 0)
        counts = Counter(images)
        for c, n in zip(cell, map(counts.__getitem__, cell)):
            if n != 1:
                return False, (a, c, n)
    return True, None


def co_universal_element_check(het: HetBifunctor, a: str, b: str,
                               u: str) -> tuple[bool, tuple[str, str, int] | None]:
    """Dual check: is (b, u) universal for Het(-, a)?

    True iff every c in every cell (x, a) factors as c = u.f for exactly one
    f: x -> b in the sending category; this is universal_element_check on
    dual(het).
    """
    return universal_element_check(dual(het), a, b, u)


@dataclass(frozen=True)
class CandidateFailure:
    candidate_object: str
    candidate_element: str
    offending_index: str
    offending_element: str
    factor_count: int


@dataclass(frozen=True)
class NonRepresentabilityWitness:
    """Proof that some Het(x, -) (or Het(-, a)) has no universal element."""

    side: str                       # "left" or "right"
    index_object: str               # the x (left) or a (right) that fails
    degenerate: bool                # every cell at this index is empty
    failures: tuple[CandidateFailure, ...]

    def describe(self) -> str:
        kind = "Het(%s, -)" % self.index_object if self.side == "left" \
            else "Het(-, %s)" % self.index_object
        lines = [f"{self.side} representation fails at {self.index_object}: "
                 f"no universal element for {kind}"]
        if self.degenerate:
            lines.append("  (degenerate: every cell at this index is empty)")
        for f in self.failures:
            lines.append(
                f"  candidate ({f.candidate_object}, {f.candidate_element}): element "
                f"{f.offending_element} of cell at {f.offending_index} has "
                f"{f.factor_count} factorizations")
        return "\n".join(lines)


def _first_preimages(tables: dict[tuple[str, str], dict[str, str]]
                     ) -> dict[tuple[str, str], dict[str, str]]:
    """Invert each cell's table; where two keys share an image, the first wins."""
    inverse = {}
    for cell, table in tables.items():
        inv: dict[str, str] = {}
        for key, image in table.items():
            inv.setdefault(image, key)
        inverse[cell] = inv
    return inverse


@dataclass(frozen=True, eq=False)
class LeftRepresentation:
    """F: X -> A with universal elements h_x and bijections psi: Hom(Fx, a) ~ Het(x, a)."""

    het: HetBifunctor
    functor: FinFunctor
    universal: dict[str, str]                       # x -> h_x in cell (x, Fx)
    psi: dict[tuple[str, str], dict[str, str]]      # (x, a) -> {g: Fx -> a  ->  het}
    equivalent_universals: dict[str, tuple[tuple[str, str], ...]]

    def __post_init__(self):
        object.__setattr__(self, "_psi_inv", _first_preimages(self.psi))

    def psi_inv(self, x: str, a: str, c: str) -> str:
        g = self._psi_inv[(x, a)].get(c)
        if g is None:
            raise StructuralError(f"psi not surjective at ({x}, {a}): {c!r} has no preimage")
        return g


@dataclass(frozen=True, eq=False)
class RightRepresentation:
    """G: A -> X with universal elements e_a and bijections phi: Het(x, a) ~ Hom(x, Ga)."""

    het: HetBifunctor
    functor: FinFunctor
    universal: dict[str, str]                       # a -> e_a in cell (Ga, a)
    phi: dict[tuple[str, str], dict[str, str]]      # (x, a) -> {het  ->  f: x -> Ga}
    equivalent_universals: dict[str, tuple[tuple[str, str], ...]]


class KernelInvariantError(AssertionError):
    """An internal consistency check failed; indicates a bug or bad input."""


def _verify_universal_pair_iso(het: HetBifunctor, x: str, first: tuple[str, str],
                               other: tuple[str, str]) -> None:
    """Two universal elements for the same index must have isomorphic carriers."""
    (b0, u0), (b1, u1) = first, other
    cat = het.a_cat
    homs01 = [g for g in cat.hom(b0, b1) if het.act_r(g, u0) == u1]
    homs10 = [g for g in cat.hom(b1, b0) if het.act_r(g, u1) == u0]
    if len(homs01) != 1 or len(homs10) != 1:
        raise KernelInvariantError(
            f"universal elements at {x} lack unique mutual factor maps")
    back, forth = cat.compose(homs01[0], homs10[0]), cat.compose(homs10[0], homs01[0])
    if back != cat.id_of(b0) or forth != cat.id_of(b1):
        raise KernelInvariantError(
            f"factor maps between universal carriers {b0}, {b1} at {x} "
            f"do not compose to identities")


def _as_dual_left(rep: RightRepresentation) -> LeftRepresentation:
    """A right representation read as a left representation of dual(rep.het)."""
    d, fun = dual(rep.het), rep.functor
    return LeftRepresentation(
        d, FinFunctor(fun.name, d.x_cat, d.a_cat, fun.obj_map, fun.mor_map),
        rep.universal,
        {(a, x): {f: c for c, f in table.items()} for (x, a), table in rep.phi.items()},
        rep.equivalent_universals)


def check_left_representation(rep: LeftRepresentation) -> LawReport:
    """Verify psi bijectivity, naturality in both variables, and functor laws."""
    het = rep.het
    out = LawReport(f"left representation of {het.name}")
    out.extend(check_functor(rep.functor))
    fun = rep.functor
    misplaced = set()
    for x in het.x_cat.objects:
        hx = rep.universal[x]
        if het.cell_of(hx) != (x, fun.on_obj(x)):
            out.add("universal-placement", (x, hx), "h_x not in cell (x, Fx)")
            misplaced.add(x)
    for x in het.x_cat.objects:
        for a in het.a_cat.objects:
            table = rep.psi[(x, a)]
            homs = het.a_cat.hom(fun.on_obj(x), a)
            if set(table) != set(homs):
                out.add("psi-domain", (x, a), "psi not defined on exactly Hom(Fx, a)")
                continue
            images = list(table.values())
            if sorted(images) != sorted(het.cell(x, a)):
                out.add("psi-bijective", (x, a),
                        f"psi image {sorted(images)} != cell {sorted(het.cell(x, a))}")
            if x in misplaced:
                continue        # u.g may be undefined; the placement names the fault
            for g, c in table.items():
                if het.act_r(g, rep.universal[x]) != c:
                    out.add("psi-formula", (x, a, g), "psi(g) != u.g")
    # naturality of psi in a: psi(g then k) = k.psi(g)
    for x in het.x_cat.objects:
        for k in het.a_cat.morphisms:
            a, a2 = k.dom, k.cod
            for g, c in rep.psi[(x, a)].items():
                lhs = rep.psi[(x, a2)].get(het.a_cat.compose(g, k.id))
                rhs = het.act_r(k.id, c)
                if lhs != rhs:
                    out.add("psi-naturality-right", (x, k.id, g),
                            f"psi(g;k) = {lhs}, k.psi(g) = {rhs}")
    # naturality of psi in x: psi_{x'}(Fh then g) = psi_x(g).h for h: x' -> x
    for h in het.x_cat.morphisms:
        x2, x = h.dom, h.cod
        for a in het.a_cat.objects:
            for g, c in rep.psi[(x, a)].items():
                lhs = rep.psi[(x2, a)].get(het.a_cat.compose(fun.on_mor(h.id), g))
                rhs = het.act_l(h.id, c)
                if lhs != rhs:
                    out.add("psi-naturality-left", (h.id, a, g),
                            f"psi(Fh;g) = {lhs}, psi(g).h = {rhs}")
    return out.normalize()


def check_right_representation(rep: RightRepresentation) -> LawReport:
    """The left check of the dual representation, after phi-domain.

    phi-domain is tested here because inverting a phi defined off its cell
    can drop entries, so the dual check alone could miss it.
    """
    het = rep.het
    out = LawReport(f"right representation of {het.name}")
    for x in het.x_cat.objects:
        for a in het.a_cat.objects:
            if set(rep.phi[(x, a)]) != set(het.cell(x, a)):
                out.add("phi-domain", (x, a), "phi not defined on exactly the cell")
    out.extend(check_left_representation(_as_dual_left(rep)))
    return out.normalize()


def compare_left_representation(rep: LeftRepresentation, functor: FinFunctor,
                                universals: dict[str, str]) -> LawReport:
    """Does the found representation agree with an expected one up to the
    canonical isomorphism?

    For each index object the two universal elements factor through each other
    by unique mediating morphisms; those must be mutually inverse and natural
    against the two functors. Equality on the nose is the special case where
    every mediator is an identity.
    """
    het = rep.het
    out = LawReport(f"left representation of {het.name} vs {functor.name}")
    mediators: dict[str, str] = {}
    for x in het.x_cat.objects:
        b_rec, u_rec = rep.functor.on_obj(x), rep.universal[x]
        b_exp, u_exp = functor.on_obj(x), universals[x]
        if het.cell_of(u_exp) != (x, b_exp):
            out.add("expected-universal-placement", (x, u_exp),
                    "expected universal not in cell (x, Fx)")
            continue
        forward = [g for g in het.a_cat.hom(b_rec, b_exp)
                   if het.act_r(g, u_rec) == u_exp]
        backward = [g for g in het.a_cat.hom(b_exp, b_rec)
                    if het.act_r(g, u_exp) == u_rec]
        if len(forward) != 1 or len(backward) != 1:
            out.add("comparison-mediator", (x,),
                    f"{len(forward)} forward and {len(backward)} backward mediators")
            continue
        if het.a_cat.compose(forward[0], backward[0]) != het.a_cat.id_of(b_rec) or \
                het.a_cat.compose(backward[0], forward[0]) != het.a_cat.id_of(b_exp):
            out.add("comparison-iso", (x,), "mediators do not compose to identities")
            continue
        mediators[x] = forward[0]
    if not out.ok:
        return out.normalize()
    for j in het.x_cat.morphisms:
        lhs = het.a_cat.compose(rep.functor.on_mor(j.id), mediators[j.cod])
        rhs = het.a_cat.compose(mediators[j.dom], functor.on_mor(j.id))
        if lhs != rhs:
            out.add("comparison-naturality", (j.id,),
                    f"recovered;mediator = {lhs}, mediator;expected = {rhs}")
    return out.normalize()


def compare_right_representation(rep: RightRepresentation, functor: FinFunctor,
                                 universals: dict[str, str]) -> LawReport:
    """Dual comparison: compare_left_representation on dual(rep.het).

    The expected functor stands for its opposite, whose tables are its own.
    """
    out = compare_left_representation(_as_dual_left(rep), functor, universals)
    out.subject = f"right representation of {rep.het.name} vs {functor.name}"
    return out


def find_left_representation(
        het: HetBifunctor) -> Union[LeftRepresentation, NonRepresentabilityWitness]:
    """Search every (object, element) candidate for universal elements.

    Objects and elements are scanned in id order; the first universal element
    found is taken, but the scan continues so that representation uniqueness
    up to isomorphism can be checked against every other winner. On failure
    the witness lists, for every candidate, a concrete element that factors
    non-uniquely or not at all.
    """
    chosen: dict[str, tuple[str, str]] = {}
    equivalents: dict[str, tuple[tuple[str, str], ...]] = {}
    for x in het.x_cat.objects:
        winners: list[tuple[str, str]] = []
        failures: list[CandidateFailure] = []
        for b in het.a_cat.objects:
            for u in het.cell(x, b):
                ok, info = universal_element_check(het, x, b, u)
                if ok:
                    winners.append((b, u))
                else:
                    failures.append(CandidateFailure(b, u, *info))
        if not winners:
            degenerate = all(not het.cell(x, a) for a in het.a_cat.objects)
            return NonRepresentabilityWitness("left", x, degenerate, tuple(failures))
        for other in winners[1:]:
            _verify_universal_pair_iso(het, x, winners[0], other)
        chosen[x] = winners[0]
        equivalents[x] = tuple(winners)
    # unique fill-in for the morphism part: Fj is the unique g with h_x . g = j . h_x'
    obj_map = {x: chosen[x][0] for x in het.x_cat.objects}
    mor_map: dict[str, str] = {}
    for j in het.x_cat.morphisms:
        x, x2 = j.dom, j.cod
        target = het.act_l(j.id, chosen[x2][1])
        gs = [g for g in het.a_cat.hom(obj_map[x], obj_map[x2])
              if het.act_r(g, chosen[x][1]) == target]
        if len(gs) != 1:
            raise KernelInvariantError(
                f"morphism fill-in for {j.id} is not unique ({len(gs)} candidates)")
        mor_map[j.id] = gs[0]
    fun = FinFunctor(f"F[{het.name}]", het.x_cat, het.a_cat, obj_map, mor_map)
    psi = {
        (x, a): {g: het.act_r(g, chosen[x][1]) for g in het.a_cat.hom(obj_map[x], a)}
        for x in het.x_cat.objects for a in het.a_cat.objects
    }
    rep = LeftRepresentation(het, fun, {x: u for x, (_, u) in chosen.items()},
                             psi, equivalents)
    problems = check_left_representation(rep)
    if not problems.ok:
        raise KernelInvariantError(
            f"constructed left representation fails its own laws:\n{problems.summary()}")
    return rep


def find_right_representation(
        het: HetBifunctor) -> Union[RightRepresentation, NonRepresentabilityWitness]:
    """The left search on dual(het), relabelled.

    e_a is universal for Het(-, a) exactly when it is universal for the
    dual's Het(a, -); G is the dual's F, and phi is the inverse of its psi.
    """
    found = find_left_representation(dual(het))
    if isinstance(found, NonRepresentabilityWitness):
        return replace(found, side="right")
    fun = found.functor
    G = FinFunctor(f"G[{het.name}]", het.a_cat, het.x_cat, fun.obj_map, fun.mor_map)
    phi = {(x, a): {c: f for f, c in found.psi[(a, x)].items()}
           for x in het.x_cat.objects for a in het.a_cat.objects}
    return RightRepresentation(het, G, found.universal, phi, found.equivalent_universals)
