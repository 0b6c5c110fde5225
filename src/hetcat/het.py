"""Set-valued bifunctors of heteromorphisms and their representability machinery.

A HetBifunctor stores, for every pair (x-object, a-object), a finite cell of
heteromorphism ids, together with a left action (precomposition by morphisms
of the sending category, contravariant) and a right action (postcomposition by
morphisms of the receiving category, covariant). The two actions commute: the
bimodule law (k.c).h = k.(c.h).

Read as arrows x => a, the heteromorphisms make the collage of X and A
(Benabou, Distributors at work): one category holding X's arrows, A's arrows
and the het's, composed by the two actions. The bifunctor laws are then the
collage's associativity on the triples that hold one het arrow, and
check_bifunctor decides them as check_category decides associativity: each
action table becomes rows over its fiber, and `fincat._suspects` returns
the X morphisms and elements whose row differs from the rows of its
entries, joined, over the rows each category keeps (`fincat._rows`). Only
their instances are walked, to name the witnesses; a het the rows cannot
decide is walked whole, which raises the structural errors.

Representability on the left means each Het(x, -) has a universal element
(Fx, h_x); the assignment x -> Fx then extends to a functor by a unique
fill-in and the cells become naturally isomorphic to hom-sets out of Fx by
psi(g) = h_x.g, which is read off the universal elements (Yoneda, CWM III.2).
Representability on the right is the left one of dual(het), the same cells
over (A^op, X^op) with the two actions swapped (the duality principle, Mac
Lane CWM II.1): a right representation holds the dual's left one, and every
right-hand routine is its left twin run on the dual and relabelled. The
searches decide representability exhaustively and either return the
representation, fully verified, or a concrete witness that no candidate
works. bench/tracing.py rebinds `universal_element_check`,
`co_universal_element_check` and the two searches by name; the search calls
the check through this module's global, so that every candidate is counted.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain, count, islice, repeat
from operator import attrgetter, eq
from typing import Callable, Union

from .errors import StructuralError
from .fincat import FinCategory, FinFunctor, _picker, _rows, _suspects, check_functor, opposite
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
        return f"HetBifunctor({self.name!r}, {len(self._cell_of)} heteromorphisms)"


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

    The three laws are the collage's associativity on the triples that hold
    one het arrow (module docstring): (X, X, het) is left functoriality,
    (het, A, A) right functoriality and (X, het, A) the bimodule law.
    `_action_rows` reads every action table as rows over its fiber, which is
    the whole structural pass when each table is exactly its fiber and in
    place, and `_collage_suspects` decides the three laws on those rows and
    the categories' own (`fincat._rows`). The loops below walk only the
    instances its suspects cover, which names every witness: (f, g, .) and
    (f, ., .) for a suspect f of X, on the left and in the bimodule law, and
    (., ., c) for a suspect element c on the right. Where the rows cannot
    decide, every instance and every key of each table is walked, and the
    structural errors raise: a table missing, not exactly its fiber (a key
    that is no element among them) or sending an element outside its cell,
    or a category whose rows are not exactly its composable pairs.
    The left action is contravariant (h: x' -> x sends cell (x, a) to
    (x', a)), the right one covariant; the bimodule loop walks the non-empty
    cells only. The identity laws always take their loop.
    """
    rep = LawReport(f"bifunctor {het.name}")
    xc, ac = het.x_cat, het.a_cat
    sides = (("left", xc, ac.objects, het.act_left, True),
             ("right", ac, xc.objects, het.act_right, False))
    rows = _action_rows(het)
    # structural: totality and cell placement of every action entry
    for side, cat, others, acts, contra in (sides if rows is None else ()):
        for m in cat.morphisms:
            table = acts.get(m.id)
            if table is None:
                raise StructuralError(f"{het.name}: no {side} action table for {m.id}")
            for p in others:
                src, dst = ((m.cod, p), (m.dom, p)) if contra else ((p, m.dom), (p, m.cod))
                for c in het.cells[src]:
                    if c not in table:
                        raise StructuralError(
                            f"{het.name}: {side} action of {m.id} undefined at {c}")
                    if het.cell_of(table[c]) != dst:
                        raise StructuralError(f"{het.name}: {side} action of {m.id} sends "
                                              f"{c} outside cell ({dst[0]}, {dst[1]})")
    suspects = None if rows is None else _collage_suspects(het, *rows)
    if suspects is None:    # walk every X morphism, and every key of every right table
        suspects = set(xc._mor), set(chain.from_iterable(het.act_right.values()))
    xs, cs = suspects
    for side, cat, _, acts, contra in sides:
        # identity actions are identities; an object without an identity is
        # check_category's identity-totality violation, not a het law
        for o in cat.objects:
            for c, image in acts.get(cat.identity.get(o), {}).items():
                if image != c:
                    rep.add(f"identity-{side}-action", (o, c),
                            (f"1.{c}" if contra else f"{c}.1") + f" = {image}")
        # functoriality: act(f then g) is act(g) after act(f) on the right,
        # act(f) after act(g) on the left
        for (f, g), fg in (cat.comp.items() if (xs if contra else cs) else ()):
            if contra and f not in xs:
                continue
            first, then = (acts[g], acts[f]) if contra else (acts[f], acts[g])
            table = acts[fg]
            for c in (table if contra else table.keys() & cs):
                two = then.get(first.get(c))
                if table[c] != two:
                    rep.add(f"{side}-functoriality", (f, g, c),
                            f"act({fg})({c}) = {table[c]}, stepwise = {two}")
    # bimodule associativity (k.c).h = k.(c.h), over the non-empty cells at cod h
    nonempty = {x: [(a, cell) for a in ac.objects if (cell := het.cells[(x, a)])]
                for x in xc.objects}
    for h in xs:
        left = het.act_left[h]
        for a, cell in nonempty[xc._mor[h].cod]:
            for k in chain.from_iterable(ac._hom.get(a, {}).values()):
                right = het.act_right[k]
                for c in cell:
                    lhs, rhs = left.get(right.get(c)), right.get(left.get(c))
                    if lhs != rhs or lhs is None:
                        rep.add("bimodule-associativity", (h, k, c),
                                f"(k.c).h = {lhs}, k.(c.h) = {rhs}")
    return rep.normalize()


def _action_rows(het: HetBifunctor):
    """Both action tables as rows over their fibers, or None where an action
    table is missing, is not defined on exactly its fiber, or sends an
    element outside its cell.

    The fiber of x on the left is row x, every element of every cell (x, a),
    and that of a on the right is column a. Returns (row, column, H, R): H[h]
    is (c.h for c in row cod h) and R[c] is (k.c for k leaving the column of
    c, in the order of A's rows). Each side's tables are read over their
    fibers by one chain of `map`s, and the cells their images land in by one
    more over `_cell_of`.
    """
    xc, ac, cell_of = het.x_cat, het.a_cat, het._cell_of
    row: dict[str, list[str]] = {x: [] for x in xc.objects}
    column: dict[str, list[str]] = {a: [] for a in ac.objects}
    row_cells: dict[str, list[str]] = {x: [] for x in xc.objects}     # the a of each
    column_cells: dict[str, list[str]] = {a: [] for a in ac.objects}  # the x of each
    for c, (x, a) in cell_of.items():
        row[x].append(c)
        column[a].append(c)
        row_cells[x].append(a)
        column_cells[a].append(x)

    # the tables of `ids`, each over its fiber, whose images must land in `cells`
    def read(acts, ids, fibers, cells):
        tables = list(map(acts.get, ids))
        if None in tables or list(map(len, tables)) != list(map(len, fibers)):
            return None
        images = list(map(tuple, map(map, map(attrgetter("get"), tables), fibers)))
        if not all(map(eq, map(cell_of.get, chain.from_iterable(images)),
                       chain.from_iterable(cells))):
            return None
        return images

    hs, ar = xc.morphisms, _rows(ac)
    left = read(het.act_left, [h.id for h in hs], [row[h.cod] for h in hs],
                map(zip, map(repeat, [h.dom for h in hs]), [row_cells[h.cod] for h in hs]))
    # A's morphisms grouped by domain, in the order of its rows
    ks = list(chain.from_iterable(ar.out.values()))
    doms = [a for a, out in ar.out.items() for _ in out]
    right = None if left is None else read(
        het.act_right, ks, list(map(column.__getitem__, doms)),
        map(zip, map(column_cells.__getitem__, doms), map(repeat, map(ar.cod.__getitem__, ks))))
    if right is None:
        return None
    R = dict.fromkeys(cell_of, ())          # an element of a column no morphism leaves
    right = iter(right)
    for a, out in ar.out.items():
        R.update(zip(column[a], zip(*islice(right, len(out)))))
    return row, column, dict(zip([h.id for h in hs], left)), R


def _collage_suspects(het: HetBifunctor, row, column, H, R):
    """The X morphisms and the elements whose collage rows differ, by
    `fincat._suspects` over the rows of `_action_rows`; None where a
    category's rows are not exactly its composable pairs, which the walk
    covers instead.

    - Right functoriality, per element c of column a: R[c] picked by A's own
      gather[a] is ((k then l).c), and the R rows of its entries joined are
      (l.(k.c)).
    - Left functoriality and the bimodule law, in one row per f ending at x:
      H[f] picked at the places in row x of each e.g, for g leaving x and e
      in row cod g, is ((e.g).f), against the H rows of "f then g" over g,
      (e.(f then g)); picked at the places of each k.c, for c in row x and k
      leaving its column, it is ((k.c).f), against the R rows of H[f]'s
      entries, (k.(c.f)).
    """
    xr, ar = _rows(het.x_cat), _rows(het.a_cat)
    if not (xr.exact and ar.exact):
        return None
    Hget, Rget, then = H.__getitem__, R.__getitem__, xr.then.__getitem__
    fs_suspect, cs_suspect = set(), set()
    for a, pick in ar.gather.items():
        rows = list(map(Rget, column[a]))
        cs_suspect.update(_suspects(column[a], pick, rows, map(map, repeat(Rget), rows)))
    for x, fs in xr.into.items():
        place = dict(zip(row[x], count())).__getitem__
        hs = list(map(Hget, fs))
        # both laws in one row: the places of each e.g, then of each k.c
        pick = _picker(tuple(map(place, chain(
            chain.from_iterable(map(Hget, xr.out.get(x, ()))),
            chain.from_iterable(map(Rget, row[x]))))))
        fs_suspect.update(_suspects(fs, pick, hs, map(
            chain, map(map, repeat(Hget), map(then, fs)), map(map, repeat(Rget), hs))))
    return fs_suspect, cs_suspect


# ---------------------------------------------------------------------------
# universal elements and representations
# ---------------------------------------------------------------------------

def _right_row(het: HetBifunctor, gs, u: str) -> dict[str, str]:
    """g -> u.g over gs, read from the action rows; a miss reruns the checked act_r."""
    try:
        return {g: het.act_right[g][u] for g in gs}
    except KeyError:
        return dict(zip(gs, map(het.act_r, gs, repeat(u))))


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
    hom, cells = het.a_cat.hom, het.cells
    for a in het.a_cat.objects:
        cell = cells[(x, a)]
        if not cell:
            continue
        images = _right_row(het, hom(b, a), u).values()
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


@dataclass(frozen=True, eq=False)
class LeftRepresentation:
    """F: X -> A with universal elements h_x; psi: Hom(Fx, a) ~ Het(x, a) and
    its inverse are views read off them on first use."""

    het: HetBifunctor
    functor: FinFunctor
    universal: dict[str, str]                       # x -> h_x in cell (x, Fx)
    equivalent_universals: dict[str, tuple[tuple[str, str], ...]]

    @cached_property
    def psi(self) -> dict[tuple[str, str], dict[str, str]]:
        """(x, a) -> {g: Fx -> a  ->  h_x.g}; empty at an x whose h_x is not in
        cell (x, Fx)."""
        het, fun, hom = self.het, self.functor, self.het.a_cat.hom
        out = {}
        for x in het.x_cat.objects:
            b, u = fun.on_obj(x), self.universal[x]
            placed = het._cell_of.get(u) == (x, b)
            for a in het.a_cat.objects:
                out[(x, a)] = _right_row(het, hom(b, a), u) if placed else {}
        return out

    @cached_property
    def _psi_inv(self) -> dict[tuple[str, str], dict[str, str]]:
        """Each cell's psi inverted; where two g share an image, the first wins,
        being written last."""
        return {cell: {c: g for g, c in reversed(table.items())}
                for cell, table in self.psi.items()}

    def psi_inv(self, x: str, a: str, c: str) -> str | None:
        """The g with psi(g) = c, or None where psi misses c."""
        return self._psi_inv[(x, a)].get(c)


@dataclass(frozen=True, eq=False)
class RightRepresentation:
    """G: A -> X with universal elements e_a: the left representation of
    dual(het) (checked on its cells and actions), whose F is G on the same
    tables and whose psi inverted is phi: Het(x, a) ~ Hom(x, Ga), c -> f."""

    het: HetBifunctor
    dual_left: LeftRepresentation                   # over dual(het)

    def __post_init__(self):
        het, d = self.het, self.dual_left.het
        if (d.cells, d.act_left, d.act_right) != (dual(het).cells, het.act_right, het.act_left):
            raise StructuralError(f"{het.name}: dual_left is not over dual({het.name})")

    @cached_property
    def functor(self) -> FinFunctor:
        fun, het = self.dual_left.functor, self.het
        return FinFunctor(f"G[{het.name}]", het.a_cat, het.x_cat, fun.obj_map, fun.mor_map)

    @property
    def universal(self) -> dict[str, str]:          # a -> e_a in cell (Ga, a)
        return self.dual_left.universal

    @property
    def equivalent_universals(self) -> dict[str, tuple[tuple[str, str], ...]]:
        return self.dual_left.equivalent_universals

    @cached_property
    def phi(self) -> dict[tuple[str, str], dict[str, str]]:
        """(x, a) -> {c  ->  f: x -> Ga}."""
        return {(x, a): table for (a, x), table in self.dual_left._psi_inv.items()}


class KernelInvariantError(AssertionError):
    """An internal consistency check failed; indicates a bug or bad input."""


def _mediators(het: HetBifunctor, first: tuple[str, str],
               other: tuple[str, str]) -> tuple[list[str], list[str], bool]:
    """The maps through which two elements (b0, u0) and (b1, u1) factor into
    each other: every g: b0 -> b1 with u0.g = u1, every g: b1 -> b0 with
    u1.g = u0, and whether there is one each way and they are mutually
    inverse. Two universal elements for one index always are."""
    (b0, u0), (b1, u1) = first, other
    cat = het.a_cat
    forward = [g for g, c in _right_row(het, cat.hom(b0, b1), u0).items() if c == u1]
    backward = [g for g, c in _right_row(het, cat.hom(b1, b0), u1).items() if c == u0]
    if len(forward) != 1 or len(backward) != 1:
        return forward, backward, False
    back, forth = cat.compose(forward[0], backward[0]), cat.compose(backward[0], forward[0])
    return forward, backward, back == cat.id_of(b0) and forth == cat.id_of(b1)


def check_left_representation(rep: LeftRepresentation) -> LawReport:
    """Verify psi bijectivity, naturality in both variables, and functor laws.

    `LeftRepresentation.psi` reads psi off the universal elements as
    g -> h_x.g over Hom(Fx, a), so two laws of a stored table hold by
    construction and are not checked: psi-domain (psi is defined on exactly
    Hom(Fx, a)) and psi-formula (psi(g) = h_x.g). At an x whose h_x is not
    in cell (x, Fx), psi is empty and universal-placement names the fault;
    nothing that reads psi at x is reported. Every g runs Fx -> a, so
    naturality in a reads A's composition table directly; naturality in x
    does so where Fh ends at Fx, and on a miss `compose` raises its error.
    Both walk the non-empty psi tables only, indexed once per x.
    """
    het, fun = rep.het, rep.functor
    out = LawReport(f"left representation of {het.name}")
    out.extend(check_functor(fun))
    a_cat, comp, act_right, psi = het.a_cat, het.a_cat.comp, het.act_right, rep.psi
    tables: dict[str, list[tuple[str, dict[str, str]]]] = {}   # x -> non-empty (a, psi)
    misplaced = set()
    for x in het.x_cat.objects:
        hx = rep.universal[x]
        tables[x] = []
        if het.cell_of(hx) != (x, fun.on_obj(x)):
            out.add("universal-placement", (x, hx), "h_x not in cell (x, Fx)")
            misplaced.add(x)
            continue
        for a in a_cat.objects:
            table, cell = psi[(x, a)], het.cells[(x, a)]
            if table:
                tables[x].append((a, table))
            images = list(table.values())
            if sorted(images) != sorted(cell):
                out.add("psi-bijective", (x, a),
                        f"psi image {sorted(images)} != cell {sorted(cell)}")
    # naturality of psi in a: psi(g then k) = k.psi(g), for each k leaving a
    for x, nonempty in tables.items():
        for a, table in nonempty:
            for a2, ks in a_cat._hom.get(a, {}).items():
                target = psi[(x, a2)]
                for k in ks:
                    row = act_right.get(k, {})
                    for g, c in table.items():
                        lhs = target.get(comp.get((g, k)) or a_cat.compose(g, k))
                        rhs = row.get(c) or het.act_r(k, c)
                        if lhs != rhs:
                            out.add("psi-naturality-right", (x, k, g),
                                    f"psi(g;k) = {lhs}, k.psi(g) = {rhs}")
    # naturality of psi in x: psi_{x'}(Fh then g) = psi_x(g).h for h: x' -> x
    for h in het.x_cat.morphisms:
        x2, x, row = h.dom, h.cod, het.act_left.get(h.id, {})
        if not tables[x] or x2 in misplaced:
            continue
        fh = fun.on_mor(h.id)
        direct = a_cat.cod(fh) == fun.on_obj(x)
        for a, table in tables[x]:
            target = psi[(x2, a)]
            for g, c in table.items():
                fhg = comp.get((fh, g)) if direct else None
                lhs = target.get(fhg or a_cat.compose(fh, g))
                rhs = row.get(c) or het.act_l(h.id, c)
                if lhs != rhs:
                    out.add("psi-naturality-left", (h.id, a, g),
                            f"psi(Fh;g) = {lhs}, psi(g).h = {rhs}")
    return out.normalize()


def check_right_representation(rep: RightRepresentation) -> LawReport:
    """The left check of the dual representation, `rep.dual_left`. phi is its
    psi inverted, so phi is defined on exactly the cell where the dual's
    psi-bijective holds, and phi-domain is not checked apart."""
    out = check_left_representation(rep.dual_left)
    out.subject = f"right representation of {rep.het.name}"
    return out


def compare_left_representation(rep: LeftRepresentation, functor: FinFunctor,
                                universals: dict[str, str]) -> LawReport:
    """Does the found representation agree with an expected one up to the
    canonical isomorphism?

    For each index object the two universal elements factor through each other
    by unique mediating morphisms; those must be mutually inverse and natural
    against the two functors. Equality on the nose is the special case where
    every mediator is an identity. An expected universal outside cell
    (x, Fx), or in no cell of the het at all, is an
    expected-universal-placement violation.
    """
    het = rep.het
    out = LawReport(f"left representation of {het.name} vs {functor.name}")
    mediators: dict[str, str] = {}
    for x in het.x_cat.objects:
        b_rec, u_rec = rep.functor.on_obj(x), rep.universal[x]
        b_exp, u_exp = functor.on_obj(x), universals[x]
        if het._cell_of.get(u_exp) != (x, b_exp):
            out.add("expected-universal-placement", (x, u_exp),
                    "expected universal not in cell (x, Fx)")
            continue
        forward, backward, inverse = _mediators(het, (b_rec, u_rec), (b_exp, u_exp))
        if len(forward) != 1 or len(backward) != 1:
            out.add("comparison-mediator", (x,),
                    f"{len(forward)} forward and {len(backward)} backward mediators")
            continue
        if not inverse:
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
    out = compare_left_representation(rep.dual_left, functor, universals)
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
        for b1, u1 in winners[1:]:
            forward, backward, inverse = _mediators(het, winners[0], (b1, u1))
            if len(forward) != 1 or len(backward) != 1:
                raise KernelInvariantError(
                    f"universal elements at {x} lack unique mutual factor maps")
            if not inverse:
                raise KernelInvariantError(
                    f"factor maps between universal carriers {winners[0][0]}, {b1} at {x} "
                    f"do not compose to identities")
        chosen[x] = winners[0]
        equivalents[x] = tuple(winners)
    # unique fill-in for the morphism part: Fj is the unique g with h_x . g = j . h_x'
    obj_map = {x: chosen[x][0] for x in het.x_cat.objects}
    mor_map: dict[str, str] = {}
    for j in het.x_cat.morphisms:
        x, x2 = j.dom, j.cod
        target = het.act_l(j.id, chosen[x2][1])
        gs = [g for g, c in _right_row(het, het.a_cat.hom(obj_map[x], obj_map[x2]),
                                       chosen[x][1]).items() if c == target]
        if len(gs) != 1:
            raise KernelInvariantError(
                f"morphism fill-in for {j.id} is not unique ({len(gs)} candidates)")
        mor_map[j.id] = gs[0]
    rep = LeftRepresentation(
        het, FinFunctor(f"F[{het.name}]", het.x_cat, het.a_cat, obj_map, mor_map),
        {x: u for x, (_, u) in chosen.items()}, equivalents)
    problems = check_left_representation(rep)
    if not problems.ok:
        raise KernelInvariantError(
            f"constructed left representation fails its own laws:\n{problems.summary()}")
    return rep


def find_right_representation(
        het: HetBifunctor) -> Union[RightRepresentation, NonRepresentabilityWitness]:
    """The left search on dual(het), relabelled.

    e_a is universal for Het(-, a) exactly when it is universal for the
    dual's Het(a, -); the dual search's representation is the right one's
    `dual_left`, and G and phi are read off it.
    """
    found = find_left_representation(dual(het))
    if isinstance(found, NonRepresentabilityWitness):
        return replace(found, side="right")
    return RightRepresentation(het, found)
