"""Adjunctions as birepresentations, with every derived structure:

transposes, ordinary and chimera units and counits, adjunctive and
adjunctive-image squares, zig-zag and over-and-back factorizations, the
bifunctor of anti-diagonal maps, the four-bifunctor isomorphism, chimera
natural transformations, and the round-trip through the abstract embedding
into the product of the two categories, whose het of transpose pairs the
embedded universal elements represent.

Anti-diagonal cells are stored as twist-image pairs (G g(c), F f(c)) indexed
by their originating cell; they are defined only on functor images, never on
arbitrary object pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Union

from .errors import StructuralError
from .fincat import (FinCategory, FinFunctor, Morphism, NatTrans, check_nat_trans,
                     compose_functors, identity_functor, pair_id)
from .het import (HetBifunctor, KernelInvariantError, LeftRepresentation,
                  NonRepresentabilityWitness, RightRepresentation, build_het,
                  check_left_representation, find_left_representation,
                  find_right_representation)
from .report import LawReport


@dataclass(frozen=True, eq=False)
class Adjunction:
    """A birepresented het-bifunctor: F -| G with all universal data attached."""

    het: HetBifunctor
    left: LeftRepresentation
    right: RightRepresentation
    unit: NatTrans       # 1_X -> GF, components eta_x = phi(h_x)
    counit: NatTrans     # FG -> 1_A, components eps_a = psi^-1(e_a)

    @property
    def F(self) -> FinFunctor:
        return self.left.functor

    @property
    def G(self) -> FinFunctor:
        return self.right.functor

    @property
    def x_cat(self) -> FinCategory:
        return self.het.x_cat

    @property
    def a_cat(self) -> FinCategory:
        return self.het.a_cat

    def eta(self, x: str) -> str:
        return self.unit.at(x)

    def eps(self, a: str) -> str:
        return self.counit.at(a)

    def h(self, x: str) -> str:
        """Chimera unit h_x in cell (x, Fx), the correlate of 1_Fx."""
        return self.left.universal[x]

    def e(self, a: str) -> str:
        """Chimera counit e_a in cell (Ga, a), the correlate of 1_Ga."""
        return self.right.universal[a]

    def f_of(self, c: str) -> str:
        """The sending-side transpose f(c): x -> Ga of a heteromorphism."""
        x, a = self.het.cell_of(c)
        try:
            return self.right.phi[(x, a)][c]
        except KeyError:
            raise StructuralError(f"phi at ({x}, {a}) has no entry for {c!r}") from None

    def g_of(self, c: str) -> str:
        """The receiving-side transpose g(c): Fx -> a of a heteromorphism."""
        x, a = self.het.cell_of(c)
        return self.left.psi_inv(x, a, c)

    def z_of(self, c: str) -> tuple[str, str]:
        """Anti-diagonal pair (G g(c), F f(c)), the twist image of (f, g)."""
        return (self.G.on_mor(self.g_of(c)), self.F.on_mor(self.f_of(c)))


@dataclass(frozen=True)
class HalfAdjunction:
    """One-sided representability: success data for one side, witness for the other."""

    het: HetBifunctor
    left: Union[LeftRepresentation, NonRepresentabilityWitness]
    right: Union[RightRepresentation, NonRepresentabilityWitness]

    @property
    def left_ok(self) -> bool:
        return isinstance(self.left, LeftRepresentation)

    @property
    def right_ok(self) -> bool:
        return isinstance(self.right, RightRepresentation)

    def failed_sides(self) -> tuple[str, ...]:
        out = []
        if not self.left_ok:
            out.append("left")
        if not self.right_ok:
            out.append("right")
        return tuple(out)

    def describe(self) -> str:
        lines = [f"het-bifunctor {self.het.name} is not birepresentable"]
        for side, value in (("left", self.left), ("right", self.right)):
            if isinstance(value, NonRepresentabilityWitness):
                lines.append(value.describe())
            else:
                lines.append(f"{side} representation exists "
                             f"(functor {value.functor.name})")
        return "\n".join(lines)


def build_adjunction(het: HetBifunctor) -> Union[Adjunction, HalfAdjunction]:
    """Run both representation searches and assemble the adjunction.

    Requires a het-bifunctor that passes check_bifunctor; the searches verify
    every representation law they rely on. One-sided representability is
    returned as a HalfAdjunction carrying the surviving side and the witness.
    """
    left = find_left_representation(het)
    right = find_right_representation(het)
    if isinstance(left, NonRepresentabilityWitness) or \
            isinstance(right, NonRepresentabilityWitness):
        return HalfAdjunction(het, left, right)
    xc, ac = het.x_cat, het.a_cat
    F, G = left.functor, right.functor
    eta = {x: right.phi[(x, F.on_obj(x))][left.universal[x]] for x in xc.objects}
    eps = {a: left.psi_inv(G.on_obj(a), a, right.universal[a]) for a in ac.objects}
    unit = NatTrans(f"eta[{het.name}]", identity_functor(xc),
                    compose_functors(F, G), eta)
    counit = NatTrans(f"eps[{het.name}]", compose_functors(G, F),
                      identity_functor(ac), eps)
    for nt in (unit, counit):
        problems = check_nat_trans(nt)
        if not problems.ok:
            raise KernelInvariantError(
                f"derived unit/counit not natural:\n{problems.summary()}")
    adj = Adjunction(het, left, right, unit, counit)
    _verify_adjunction(adj)
    return adj


def _verify_adjunction(adj: Adjunction) -> None:
    """Transpose bijections agree with the unit/counit formulas; triangles hold."""
    xc, ac = adj.x_cat, adj.a_cat
    for x in xc.objects:
        for a in ac.objects:
            fx, ga = adj.F.on_obj(x), adj.G.on_obj(a)
            for g in ac.hom(fx, a):
                via_universals = xc.compose(adj.eta(x), adj.G.on_mor(g))
                via_cells = adj.right.phi[(x, a)][adj.left.psi[(x, a)][g]]
                if via_universals != via_cells:
                    raise KernelInvariantError(
                        f"transpose mismatch at ({x}, {a}, {g}): "
                        f"unit route {via_universals}, cell route {via_cells}")
            for f in xc.hom(x, ga):
                back = ac.compose(adj.F.on_mor(f), adj.eps(a))
                round_trip = xc.compose(adj.eta(x), adj.G.on_mor(back))
                if round_trip != f:
                    raise KernelInvariantError(
                        f"transposes not mutually inverse at ({x}, {a}, {f})")
    for a in ac.objects:
        ga = adj.G.on_obj(a)
        if xc.compose(adj.eta(ga), adj.G.on_mor(adj.eps(a))) != xc.id_of(ga):
            raise KernelInvariantError(f"triangular identity fails at {a}")
    for x in xc.objects:
        fx = adj.F.on_obj(x)
        if ac.compose(adj.F.on_mor(adj.eta(x)), adj.eps(fx)) != ac.id_of(fx):
            raise KernelInvariantError(f"triangular identity fails at {x}")


def transpose(adj: Adjunction, x: str, g: str) -> str:
    """Adjoint transpose of g: Fx -> a, namely (eta_x then Gg): x -> Ga.

    The indexing object x is explicit because F need not be injective on
    objects, so g alone does not determine the cell.
    """
    if adj.a_cat.dom(g) != adj.F.on_obj(x):
        raise StructuralError(f"transpose: {g} does not start at F({x})")
    return adj.x_cat.compose(adj.eta(x), adj.G.on_mor(g))


def transpose_inv(adj: Adjunction, a: str, f: str) -> str:
    """Adjoint transpose of f: x -> Ga, namely (Ff then eps_a): Fx -> a."""
    if adj.x_cat.cod(f) != adj.G.on_obj(a):
        raise StructuralError(f"transpose_inv: {f} does not end at G({a})")
    return adj.a_cat.compose(adj.F.on_mor(f), adj.eps(a))


# ---------------------------------------------------------------------------
# adjunctive squares
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdjunctiveSquare:
    """A commutative square in the product of the two categories.

    Corners are (x-object, a-object) pairs; edges and diagonals are
    (x-morphism, a-morphism) pairs. The main diagonal pairs adjoint
    transposes; the anti-diagonal is its twist image.
    """

    kind: str                      # "adjunctive" or "image"
    x: str
    a: str
    nw: tuple[str, str]
    ne: tuple[str, str]
    sw: tuple[str, str]
    se: tuple[str, str]
    top: tuple[str, str]
    bottom: tuple[str, str]
    left_edge: tuple[str, str]
    right_edge: tuple[str, str]
    main_diagonal: tuple[str, str]
    anti_diagonal: tuple[str, str]
    report: LawReport

    @property
    def commutes(self) -> bool:
        return self.report.ok


def adjunctive_square(adj: Adjunction, a: str, f: str) -> AdjunctiveSquare:
    """Complete the adjunctive square determined by f: x -> Ga.

    The bottom is forced to be the transpose g = f*, "Ff then eps_a";
    commutativity is checked componentwise, the second component against the
    het's own transpose of e_a . f, and the anti-diagonal (Gg, Ff) must make
    both triangles commute.
    """
    xc, ac = adj.x_cat, adj.a_cat
    x = xc.dom(f)
    g = transpose_inv(adj, a, f)
    fx, ga = adj.F.on_obj(x), adj.G.on_obj(a)
    Ff, Gg = adj.F.on_mor(f), adj.G.on_mor(g)
    rep = LawReport(f"adjunctive square of {f}")
    if xc.compose(adj.eta(x), Gg) != f:
        rep.add("square-first-component", (f, g),
                "eta_x then Gg differs from f")
    if ac.compose(Ff, adj.eps(a)) != adj.g_of(adj.het.act_l(f, adj.e(a))):
        rep.add("square-second-component", (f, g),
                "Ff then eps_a differs from g")
    return AdjunctiveSquare(
        kind="adjunctive", x=x, a=a,
        nw=(x, fx), ne=(ga, adj.F.on_obj(ga)), sw=(adj.G.on_obj(fx), fx), se=(ga, a),
        top=(f, Ff), bottom=(Gg, g),
        left_edge=(adj.eta(x), ac.id_of(fx)),
        right_edge=(xc.id_of(ga), adj.eps(a)),
        main_diagonal=(f, g), anti_diagonal=(Gg, Ff),
        report=rep.normalize(),
    )


def adjunctive_square_from_transpose(adj: Adjunction, x: str, g: str) -> AdjunctiveSquare:
    """Dual entry point: complete the square from g: Fx -> a."""
    a = adj.a_cat.cod(g)
    return adjunctive_square(adj, a, transpose(adj, x, g))


def adjunctive_image_square(adj: Adjunction, a: str, f: str) -> AdjunctiveSquare:
    """Twist image of the adjunctive square of f: x -> Ga.

    The original anti-diagonal becomes the main diagonal; a new unique
    anti-diagonal (GFf, FGg) makes both triangles commute. Only this first
    image square is constructed; iterating the twist is out of scope.
    """
    xc, ac = adj.x_cat, adj.a_cat
    x = xc.dom(f)
    g = transpose_inv(adj, a, f)
    fx, ga = adj.F.on_obj(x), adj.G.on_obj(a)
    Ff, Gg = adj.F.on_mor(f), adj.G.on_mor(g)
    GFf, FGg = adj.G.on_mor(Ff), adj.F.on_mor(Gg)
    rep = LawReport(f"adjunctive image square of {f}")
    if xc.compose(GFf, adj.G.on_mor(adj.eps(a))) != Gg:
        rep.add("image-square-first-component", (f, g),
                "GFf then G(eps_a) differs from Gg")
    if ac.compose(adj.F.on_mor(adj.eta(x)), FGg) != Ff:
        rep.add("image-square-second-component", (f, g),
                "F(eta_x) then FGg differs from Ff")
    return AdjunctiveSquare(
        kind="image", x=x, a=a,
        nw=(adj.G.on_obj(fx), fx), ne=(adj.G.on_obj(adj.F.on_obj(ga)), adj.F.on_obj(ga)),
        sw=(adj.G.on_obj(fx), adj.F.on_obj(adj.G.on_obj(fx))), se=(ga, adj.F.on_obj(ga)),
        top=(GFf, Ff), bottom=(Gg, FGg),
        left_edge=(xc.id_of(adj.G.on_obj(fx)), adj.F.on_mor(adj.eta(x))),
        right_edge=(adj.G.on_mor(adj.eps(a)), ac.id_of(adj.F.on_obj(ga))),
        main_diagonal=(Gg, Ff), anti_diagonal=(GFf, FGg),
        report=rep.normalize(),
    )


# ---------------------------------------------------------------------------
# the bifunctor of anti-diagonal maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ZBifunctor:
    """Anti-diagonal pairs z(c) = (G g(c), F f(c)), indexed by originating cell.

    Defined only as the twist image of the het cells, never on arbitrary
    object pairs. The index is part of the datum; two entries of one cell are
    equal iff their pair data are equal.
    """

    adjunction: Adjunction
    cells: dict[tuple[str, str], tuple[tuple[str, str], ...]]
    of_het: dict[str, tuple[str, str]]

    def cell(self, x: str, a: str) -> tuple[tuple[str, str], ...]:
        return self.cells[(x, a)]

    def act_l(self, h: str, pair: tuple[str, str]) -> tuple[str, str]:
        """Action of h: x' -> x, the twist image of the het left action."""
        adj = self.adjunction
        u, v = pair
        Fh = adj.F.on_mor(h)
        return (adj.x_cat.compose(adj.G.on_mor(Fh), u), adj.a_cat.compose(Fh, v))

    def act_r(self, k: str, pair: tuple[str, str]) -> tuple[str, str]:
        """Action of k: a -> a', the twist image of the het right action."""
        adj = self.adjunction
        u, v = pair
        Gk = adj.G.on_mor(k)
        return (adj.x_cat.compose(u, Gk), adj.a_cat.compose(v, adj.F.on_mor(Gk)))


def z_bifunctor(adj: Adjunction) -> ZBifunctor:
    cells = {}
    of_het = {}
    for x in adj.x_cat.objects:
        for a in adj.a_cat.objects:
            pairs = []
            for c in adj.het.cell(x, a):
                pair = adj.z_of(c)
                pairs.append(pair)
                of_het[c] = pair
            cells[(x, a)] = tuple(pairs)
    return ZBifunctor(adj, cells, of_het)


@dataclass(frozen=True)
class ZigZagFactorization:
    """c = e_a after z(c) after h_x, with the uniqueness certificate."""

    het_elem: str
    x: str
    a: str
    sending_universal: str          # h_x
    anti_diagonal: tuple[str, str]  # z(c)
    receiving_universal: str        # e_a
    f: str                          # transpose x -> Ga
    g: str                          # transpose Fx -> a
    factor_count: int               # anti-diagonals satisfying both triangles
    report: LawReport

    @property
    def unique(self) -> bool:
        return self.factor_count == 1

    @property
    def ok(self) -> bool:
        return self.report.ok and self.unique


def zig_zag_factorize(adj: Adjunction, c: str) -> ZigZagFactorization:
    """Factor a heteromorphism through both universals by the anti-diagonal.

    Certifies, in the het actions, that c is recovered by composing h_x with
    the anti-diagonal pair and the receiving universal (and dually), and that
    z(c) is the unique anti-diagonal with that property.
    """
    het = adj.het
    x, a = het.cell_of(c)
    f, g = adj.f_of(c), adj.g_of(c)
    u, v = adj.z_of(c)
    hx, ea = adj.h(x), adj.e(a)
    xc, ac = adj.x_cat, adj.a_cat
    rep = LawReport(f"zig-zag factorization of {c}")
    if het.act_r(g, hx) != c:
        rep.add("left-factorization", (c, g), "g(c) . h_x differs from c")
    if het.act_l(f, ea) != c:
        rep.add("right-factorization", (c, f), "e_a . f(c) differs from c")
    # composite through the anti-diagonal, evaluated in the actions:
    # over the top: h_x, then the A-part of z(c), then the counit
    over = het.act_r(adj.eps(a), het.act_r(v, hx))
    if over != c:
        rep.add("zig-zag-action-top", (c,), f"eps_a.((Ff).h_x) = {over}")
    # under the bottom: e_a pulled back along the X-part of z(c) and the unit
    under = het.act_l(adj.eta(x), het.act_l(u, ea))
    if under != c:
        rep.add("zig-zag-action-bottom", (c,), f"(e_a.(Gg)).eta_x = {under}")
    if xc.compose(adj.eta(x), u) != f:
        rep.add("upper-triangle", (c,), "h_x then z(c) differs from f(c)")
    if ac.compose(v, adj.eps(a)) != g:
        rep.add("lower-triangle", (c,), "z(c) then e_a differs from g(c)")
    count = 0
    for other in het.cell(x, a):
        u2, v2 = adj.z_of(other)
        if xc.compose(adj.eta(x), u2) == f and ac.compose(v2, adj.eps(a)) == g:
            count += 1
    return ZigZagFactorization(
        het_elem=c, x=x, a=a, sending_universal=hx, anti_diagonal=(u, v),
        receiving_universal=ea, f=f, g=g, factor_count=count,
        report=rep.normalize(),
    )


# ---------------------------------------------------------------------------
# law suites
# ---------------------------------------------------------------------------

def four_bifunctor_iso(adj: Adjunction) -> LawReport:
    """Cellwise Hom(Fx, a) ~ Het(x, a) ~ Z(Fx, Ga) ~ Hom(x, Ga), naturally.

    Verifies bijectivity of psi, phi, and the twist map z on every cell, and
    naturality of all three against the actions in both variables. Equal cell
    sizes are not checked apart: psi-bijective and phi-bijective compare
    sorted lists of those sizes, so a size that differs fails them there.
    phi-bijective compares the image of the dual's psi, g -> e_a.g, with the
    cell. Where psi or phi misses an element of a cell (a misplaced or not
    universal h_x or e_a), it has no twist, and the report stops there.
    """
    rep = LawReport(f"four-bifunctor isomorphism of {adj.het.name}")
    het = adj.het
    xc, ac = adj.x_cat, adj.a_cat
    psi, dual_psi = adj.left.psi, adj.right.dual_left.psi
    onto = True
    for x in xc.objects:
        for a in ac.objects:
            cell = het.cell(x, a)
            psi_image, phi_image = psi[(x, a)].values(), dual_psi[(a, x)].values()
            if sorted(psi_image) != sorted(cell):
                rep.add("psi-bijective", (x, a), "psi is not onto the cell")
            if sorted(phi_image) != sorted(cell):
                rep.add("phi-bijective", (x, a), "phi is not onto Hom(x, Ga)")
            onto = onto and set(cell) <= set(psi_image) & set(phi_image)
    if not onto:
        return rep.normalize()
    zb = z_bifunctor(adj)
    for (x, a), pairs in zb.cells.items():
        if len(set(pairs)) != len(pairs):
            rep.add("z-bijective", (x, a), "twist map is not injective on the cell")
    # naturality of the twist map against both actions
    for h in xc.morphisms:
        for a in ac.objects:
            for c in het.cell(h.cod, a):
                lhs = zb.of_het[het.act_l(h.id, c)]
                rhs = zb.act_l(h.id, zb.of_het[c])
                if lhs != rhs:
                    rep.add("z-naturality-left", (h.id, a, c),
                            f"z(c.h) = {lhs}, twist(h) acting on z(c) = {rhs}")
    for k in ac.morphisms:
        for x in xc.objects:
            for c in het.cell(x, k.dom):
                lhs = zb.of_het[het.act_r(k.id, c)]
                rhs = zb.act_r(k.id, zb.of_het[c])
                if lhs != rhs:
                    rep.add("z-naturality-right", (k.id, x, c),
                            f"z(k.c) = {lhs}, twist(k) acting on z(c) = {rhs}")
    return rep.normalize()


def over_and_back_and_triangles(adj: Adjunction) -> LawReport:
    """Triangular identities, over-and-back identities, and the four
    over-across-and-back factorization equations, exhaustively.

    The over-and-back identities are not checked apart: where h2-form holds,
    h_x2 = F(eta_x) and e_Fx after h_x2 = 1_Fx is triangular-identity-F at x;
    where e1-form holds, e_a1 = G(eps_a) and e_a1 after h_Ga is
    triangular-identity-G at a.
    """
    rep = LawReport(f"identity suite of {adj.het.name}")
    het = adj.het
    xc, ac = adj.x_cat, adj.a_cat
    for a in ac.objects:
        ga = adj.G.on_obj(a)
        if xc.compose(adj.eta(ga), adj.G.on_mor(adj.eps(a))) != xc.id_of(ga):
            rep.add("triangular-identity-G", (a,), "G(eps_a) after eta_Ga is not 1_Ga")
    for x in xc.objects:
        fx = adj.F.on_obj(x)
        if ac.compose(adj.F.on_mor(adj.eta(x)), adj.eps(fx)) != ac.id_of(fx):
            rep.add("triangular-identity-F", (x,), "eps_Fx after F(eta_x) is not 1_Fx")
    # the forms of the chimera universals' twists, whose over-and-back
    # identities are then the triangles: h_{x2} = z(h_x) = (1_GFx, F eta_x)
    # and e_{a1} = z(e_a) = (G eps_a, 1_FGa)
    for x in xc.objects:
        fx = adj.F.on_obj(x)
        u, v = adj.z_of(adj.h(x))
        if u != xc.id_of(adj.G.on_obj(fx)):
            rep.add("h2-form", (x,), f"z(h_x) first component is {u}, expected identity")
        if v != adj.F.on_mor(adj.eta(x)):
            rep.add("h2-form", (x,), f"z(h_x) second component is {v}, expected F(eta_x)")
    for a in ac.objects:
        ga = adj.G.on_obj(a)
        u, v = adj.z_of(adj.e(a))
        if v != ac.id_of(adj.F.on_obj(ga)):
            rep.add("e1-form", (a,), f"z(e_a) second component is {v}, expected identity")
        if u != adj.G.on_mor(adj.eps(a)):
            rep.add("e1-form", (a,), f"z(e_a) first component is {u}, expected G(eps_a)")
    # composite chimera identities evaluated in the het actions: the unit and
    # counit factorizations pin the chimera universals against each other
    for x in xc.objects:
        fx = adj.F.on_obj(x)
        if het.act_l(adj.eta(x), adj.e(fx)) != adj.h(x):
            rep.add("chimera-unit-composite", (x,), "e_Fx . eta_x differs from h_x")
    for a in ac.objects:
        ga = adj.G.on_obj(a)
        if het.act_r(adj.eps(a), adj.h(ga)) != adj.e(a):
            rep.add("chimera-counit-composite", (a,), "eps_a . h_Ga differs from e_a")
    # the four over-across-and-back factorizations, for every f: x -> Ga
    for x in xc.objects:
        for a in ac.objects:
            for f in xc.hom(x, adj.G.on_obj(a)):
                for law, detail in factorization_failures(adj, x, a, f,
                                                          transpose_inv(adj, a, f)):
                    rep.add(law, (x, a, f), detail)
    return rep.normalize()


def factorization_failures(adj: Adjunction, x: str, a: str, f: str,
                           g: str) -> list[tuple[str, str]]:
    """The over-across-and-back equations, for f: x -> Ga and g: Fx -> a its
    transpose, that fail, as (law, detail). Callers compute g as "Ff then
    eps_a", so that law is checked against the het's transpose of e_a . f."""
    xc, ac, F, G = adj.x_cat, adj.a_cat, adj.F, adj.G
    eta, eps = adj.eta(x), adj.eps(a)
    equations = (
        (xc.compose(eta, G.on_mor(g)) == f, "factorization-unit",
         "eta_x then G(f*) differs from f"),
        (xc.compose_many(eta, G.on_mor(F.on_mor(f)), G.on_mor(eps)) == f,
         "factorization-over-across-f", "eta_x then GFf then G(eps_a) differs from f"),
        (ac.compose(F.on_mor(f), eps) == adj.g_of(adj.het.act_l(f, adj.e(a))),
         "factorization-counit", "Ff then eps_a differs from f*"),
        (ac.compose_many(F.on_mor(eta), F.on_mor(G.on_mor(g)), eps) == g,
         "factorization-over-across-g", "F(eta_x) then FG(f*) then eps_a differs from f*"),
    )
    return [(law, detail) for holds, law, detail in equations if not holds]


# ---------------------------------------------------------------------------
# chimera natural transformations
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ChimeraNatTrans:
    """Components are heteromorphisms between the images of two functors
    that share a source but land in different categories."""

    name: str
    left_functor: FinFunctor     # F: X -> A
    right_functor: FinFunctor    # H: X -> B
    het: HetBifunctor            # over (A, B)
    components: dict[str, str]   # x -> element of cell (Fx, Hx)


def check_chimera_nat_trans(t: ChimeraNatTrans) -> LawReport:
    """Empty report iff every het-naturality square commutes."""
    F, H = t.left_functor, t.right_functor
    if F.source != H.source:
        raise StructuralError(f"{t.name}: functors have different sources")
    if t.het.x_cat != F.target or t.het.a_cat != H.target:
        raise StructuralError(f"{t.name}: het-bifunctor does not match functor targets")
    rep = LawReport(f"chimera natural transformation {t.name}")
    for x in F.source.objects:
        c = t.components.get(x)
        if c is None:
            raise StructuralError(f"{t.name}: no component at {x!r}")
        if t.het.cell_of(c) != (F.on_obj(x), H.on_obj(x)):
            raise StructuralError(
                f"{t.name}: component at {x} lies in cell {t.het.cell_of(c)}, "
                f"expected ({F.on_obj(x)}, {H.on_obj(x)})")
    for j in F.source.morphisms:
        x, x2 = j.dom, j.cod
        lhs = t.het.act_r(H.on_mor(j.id), t.components[x])
        rhs = t.het.act_l(F.on_mor(j.id), t.components[x2])
        if lhs != rhs:
            rep.add("het-naturality", (j.id, x, x2),
                    f"Hj . c_x = {lhs}, c_x' . Fj = {rhs}")
    return rep.normalize()


def chimera_unit(adj: Adjunction) -> ChimeraNatTrans:
    """h: 1_X => F relative to the adjunction's het, components h_x."""
    return ChimeraNatTrans(
        name=f"h[{adj.het.name}]",
        left_functor=identity_functor(adj.x_cat),
        right_functor=adj.F,
        het=adj.het,
        components={x: adj.h(x) for x in adj.x_cat.objects},
    )


def chimera_counit(adj: Adjunction) -> ChimeraNatTrans:
    """e: G => 1_A relative to the adjunction's het, components e_a."""
    return ChimeraNatTrans(
        name=f"e[{adj.het.name}]",
        left_functor=adj.G,
        right_functor=identity_functor(adj.a_cat),
        het=adj.het,
        components={a: adj.e(a) for a in adj.a_cat.objects},
    )


# ---------------------------------------------------------------------------
# the abstract embedding and the round-trip
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class AbstractHet:
    """The het-bifunctor of transpose pairs inside the product category,
    between the embedded isomorphic copies of the two categories."""

    het: HetBifunctor            # over (X-hat, A-hat)
    x_hat: FinCategory
    a_hat: FinCategory
    f_hat: FinFunctor            # twist restricted to X-hat
    g_hat: FinFunctor            # twist restricted to A-hat
    embed_x: FinFunctor          # X -> X-hat, x -> (x, Fx)
    embed_a: FinFunctor          # A -> A-hat, a -> (Ga, a)


def _embedded_copy(cat: FinCategory, name: str, obj, mor) -> tuple[FinCategory, FinFunctor]:
    """The copy of cat whose object and morphism ids are renamed by obj and
    mor, with the embedding of cat onto it. Each id is renamed once."""
    obj_map = {x: obj(x) for x in cat.objects}
    mor_map = {m.id: mor(m.id) for m in cat.morphisms}
    hat = FinCategory(
        name=f"{cat.name}-hat",
        objects=tuple(obj_map.values()),
        morphisms=tuple(Morphism(mor_map[m.id], obj_map[m.dom], obj_map[m.cod])
                        for m in cat.morphisms),
        identity={obj_map[x]: mor_map[cat.id_of(x)] for x in cat.objects},
        comp={(mor_map[f], mor_map[g]): mor_map[h] for (f, g), h in cat.comp.items()},
    )
    return hat, FinFunctor(name=name, source=cat, target=hat,
                           obj_map=obj_map, mor_map=mor_map)


def abstract_het(adj: Adjunction) -> AbstractHet:
    """Build Het(x-hat, a-hat) = { (f, f*) : (x, Fx) -> (Ga, a) }.

    The cells are the main-diagonal pairs of commutative adjunctive squares;
    the actions are componentwise pre/postcomposition with the embedded
    morphisms, hence closed by the naturality of the transpose.
    """
    xc, ac = adj.x_cat, adj.a_cat
    F, G = adj.F, adj.G
    x_hat, embed_x = _embedded_copy(xc, "embed-X", lambda x: pair_id(x, F.on_obj(x)),
                                    lambda j: pair_id(j, F.on_mor(j)))
    a_hat, embed_a = _embedded_copy(ac, "embed-A", lambda a: pair_id(G.on_obj(a), a),
                                    lambda k: pair_id(G.on_mor(k), k))
    # index the hat objects and morphisms back to their sources; the
    # embeddings are bijective
    x_of, j_of = ({v: k for k, v in m.items()} for m in (embed_x.obj_map, embed_x.mor_map))
    a_of, k_of = ({v: k for k, v in m.items()} for m in (embed_a.obj_map, embed_a.mor_map))
    pair_of: dict[str, tuple[str, str]] = {}      # element (f, f*) -> (f, a)

    @cache
    def transposed(f: str, a: str) -> str:
        return pair_id(f, transpose_inv(adj, a, f))

    def cell_fn(xh: str, ah: str) -> tuple[str, ...]:
        a = a_of[ah]
        fs = xc.hom(x_of[xh], G.on_obj(a))
        cids = tuple(transposed(f, a) for f in fs)
        pair_of.update(zip(cids, ((f, a) for f in fs)))
        return cids

    def act_left(jh: str, cid: str) -> str:
        f, a = pair_of[cid]
        return transposed(xc.compose(j_of[jh], f), a)

    def act_right(kh: str, cid: str) -> str:
        k = k_of[kh]
        return transposed(xc.compose(pair_of[cid][0], G.on_mor(k)), ac.cod(k))

    het = build_het(f"abstract[{adj.het.name}]", x_hat, a_hat, cell_fn, act_left, act_right)
    # the twist functors, conjugated by the embeddings
    f_hat, g_hat = (
        FinFunctor(name=name, source=e.target, target=e2.target,
                   obj_map={e.obj_map[o]: e2.obj_map[fun.on_obj(o)] for o in e.source.objects},
                   mor_map={e.mor_map[m.id]: e2.mor_map[fun.on_mor(m.id)]
                            for m in e.source.morphisms})
        for name, fun, e, e2 in (("F-hat", F, embed_x, embed_a), ("G-hat", G, embed_a, embed_x)))
    return AbstractHet(het, x_hat, a_hat, f_hat, g_hat, embed_x, embed_a)


def representation_roundtrip(adj: Adjunction) -> LawReport:
    """Check the representation of the abstract het that the embedding predicts.

    Each embedded (eta_x, 1_Fx) must lie in cell (x-hat, F-hat x-hat); where
    all do, check_left_representation decides the LeftRepresentation of F-hat
    with those universals (psi(g) = u.g). A universal element is unique up to
    a unique isomorphism (Mac Lane, CWM III.1), so a rebuild finds universals
    canonically isomorphic to these exactly when this check passes:
    psi-bijective at x-hat says (eta_x, 1_Fx) is universal, and
    psi-naturality-left that F-hat j is the fill-in. As every element is some
    u.g, psi-naturality-right gives the right functoriality of the whole het,
    which a G that is not a functor fails; left functoriality and the bimodule
    law hold by X's composition. A placed (1_Ga, eps_a) is the pair of 1_Ga,
    and each (f, f*) is it acted on by f-hat alone, so it is universal
    (Yoneda) and only its place, cell (G-hat a-hat, a-hat), is checked.
    """
    rep = LawReport(f"representation round-trip of {adj.het.name}")
    ah = abstract_het(adj)
    xc, ac, cell_of = adj.x_cat, adj.a_cat, ah.het._cell_of
    universal = {}
    for x in xc.objects:
        x_hat, u = ah.embed_x.on_obj(x), pair_id(adj.eta(x), ac.id_of(adj.F.on_obj(x)))
        if cell_of.get(u) != (x_hat, ah.f_hat.on_obj(x_hat)):
            rep.add("sending-expected-universal-placement", (x_hat, u),
                    "expected universal not in cell (x, Fx)")
        universal[x_hat] = u
    if rep.ok:
        rep.extend(check_left_representation(LeftRepresentation(
            ah.het, ah.f_hat, universal, {})))
    for a in ac.objects:
        a_hat, u = ah.embed_a.on_obj(a), pair_id(xc.id_of(adj.G.on_obj(a)), adj.eps(a))
        if cell_of.get(u) != (ah.g_hat.on_obj(a_hat), a_hat):
            rep.add("receiving-expected-universal-placement", (a_hat, u),
                    "expected universal not in cell (Ga, a)")
    return rep.normalize()
