"""The law census: every law name the kernel can report is fired, by name,
by an entry of a table of corruptions; and the suites whose implied laws were
deleted report what their fuller reference forms report, less those laws.

A new law needs a corruption here that fires it. A law check may be deleted
only with a proof, in its docstring, that other laws of the same report
imply it, and a reference form below that still checks it.
"""

import ast
import dataclasses
import functools
import pathlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hetcat
import hetcat.adjunction as adjunction_mod
from hetcat import (Adjunction, FinCategory, FinFunctor, HetBifunctor, LawReport, Morphism,
                    NatTrans, StructuralError, build_adjunction, build_het, check_bifunctor,
                    check_category, check_chimera_nat_trans, check_functor,
                    check_left_representation, check_nat_trans,
                    check_right_representation,
                    chimera_unit,
                    compare_left_representation, compare_right_representation,
                    comma_of_bifunctor,
                    comma_of_functors, constant_functor, four_bifunctor_iso,
                    half_lawvere_iso_check, hom_bifunctor, identity_functor, lawvere_iso_check,
                    over_and_back_and_triangles, representation_roundtrip,
                    z_bifunctor, zig_zag_factorize)
from hetcat.adjunction import (abstract_het, adjunctive_image_square, adjunctive_square,
                               factorization_failures, transpose_inv)
from hetcat.comma import _comma_iso, _iso_along
from hetcat.fincat import pair_id
from hetcat.het import KernelInvariantError, LeftRepresentation, RightRepresentation, dual
from hetcat.instances import (finset_skeleton, galois_connections, product_exponential,
                              ur_adjunction)
from hetcat.instances.finset import fn_images, function_category
from test_adjunction import (_g_constant_at_zero, _over, _relation_het, _relations, _reps_over,
                             _suite_laws, _swapped_at, _with)
from test_het import POOL, _transformation_monoids

# -- the census: every law name in the kernel's source ---------------------------


def _law_args(fn: ast.FunctionDef) -> list[ast.expr]:
    """The law argument of each LawReport.add in fn. A report's add takes a
    witness too, so a set's one-argument add is no law."""
    return [node.args[0] for node in ast.walk(fn)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add" and len(node.args) >= 2]


def _functions() -> dict[str, ast.FunctionDef]:
    return {fn.name: fn for path in pathlib.Path(hetcat.__file__).parent.rglob("*.py")
            for fn in ast.walk(ast.parse(path.read_text()))
            if isinstance(fn, ast.FunctionDef)}


def census() -> set[str]:
    """Every law name `src/` can report: a literal; an f-string over `side`
    (check_bifunctor); or a law that factorization_failures yields. Any other
    name form fails the census, so that it is added here."""
    funcs = _functions()
    names = set()
    for fn in funcs.values():
        for law in _law_args(fn):
            if isinstance(law, ast.Constant):
                names.add(law.value)
            elif isinstance(law, ast.JoinedStr) and \
                    {ast.unparse(v.value) for v in law.values
                     if isinstance(v, ast.FormattedValue)} == {"side"}:
                names |= {eval(ast.unparse(law), {"side": side}) for side in ("left", "right")}
            elif (fn.name, ast.unparse(law)) == ("over_and_back_and_triangles", "law"):
                names |= {e.elts[1].value for e in ast.walk(funcs["factorization_failures"])
                          if isinstance(e, ast.Tuple) and len(e.elts) == 3
                          and isinstance(e.elts[1], ast.Constant)}
            else:
                raise AssertionError(f"law name {ast.unparse(law)} in {fn.name} is not "
                                     "in a form the census reads")
    return names


# -- the table of corruptions ----------------------------------------------------

SKEL = finset_skeleton(2)
HOM = hom_bifunctor(SKEL)
UR = ur_adjunction(SKEL)
LEFT = UR.left


def _laws(report: LawReport) -> set[str]:
    return {v.law for v in report.violations}


def _category(identity=None, comp=None, drop=None):
    comp = {**SKEL.comp, **(comp or {})}
    comp.pop(drop, None)
    return check_category(FinCategory("mutant", SKEL.objects, SKEL.morphisms,
                                      identity or SKEL.identity, comp))


def _functor(obj_map=None, mor_map=None, drop=None):
    base = identity_functor(SKEL)
    mor_map = {**base.mor_map, **(mor_map or {})}
    mor_map.pop(drop, None)
    return check_functor(FinFunctor("mutant", SKEL, SKEL, obj_map or base.obj_map, mor_map))


def _mutant(side, m, c, image):
    """HOM with one action entry rerouted."""
    tables = {"act_left": dict(HOM.act_left), "act_right": dict(HOM.act_right)}
    tables[side][m] = {**tables[side][m], c: image}
    return HetBifunctor("mutant", SKEL, SKEL, HOM.cells, **tables)


def _het(side, m, c, image):
    return check_bifunctor(_mutant(side, m, c, image))


def _suites(adj) -> set[str]:
    return set().union(*_suite_laws(adj).values())


def _assert_refused(left, right, message):
    with pytest.raises(StructuralError, match=re.escape(message)):
        Adjunction(left, right)


def _refused(left, right, message):
    """The laws that the checks of both sides report on a pair that
    Adjunction refuses with `message`."""
    _assert_refused(left, right, message)
    return _laws(check_left_representation(left)) | _laws(check_right_representation(right))


def _not_universal_units():
    """F constant at 2 on the full subcategory {1, 2} of finite sets, with
    G the identity and h_1 moved along to 1>2:0 in cell (1, 2): h_1 is not
    universal, as over the four g: 2 -> 2, h_1 then g hits each of the two
    maps 1 -> 2 twice, so psi is no bijection there and the pair is
    refused."""
    cat = function_category("FinSet{1,2}", {"1": 1, "2": 2}, lambda d, c: f"{d}>{c}")
    adj = ur_adjunction(cat)
    left = dataclasses.replace(adj.left, functor=constant_functor(cat, cat, "2"),
                               universal={**adj.left.universal, "1": "1>2:0"})
    return _refused(left, adj.right, "psi is not a bijection at cell (1, 2)")


def _chimera_unit_moved():
    h = chimera_unit(UR)
    return _laws(check_chimera_nat_trans(dataclasses.replace(
        h, components={**h.components, "2": "2>2:1,0"})))


def _relabelled_comma_object():
    # the second comma's object 0 relabelled over another pair of objects
    first = comma_of_bifunctor(HOM)
    second = dataclasses.replace(first, triples=[("2", "2", first.triples[0][2]),
                                                 *first.triples[1:]])
    return _laws(_comma_iso(first, second, list(range(len(first.triples))), "relabelled"))


def _twist_not_injective():
    adj = UR
    for side in ("left", "right.dual_left"):
        adj = _with(adj, f"{side}.functor.mor_map", {"1>2:1": "1>2:0"})
    return _laws(four_bifunctor_iso(adj))


def _expected(functor=None, universals=None):
    return _laws(compare_left_representation(LEFT, functor or LEFT.functor,
                                             {**LEFT.universal, **(universals or {})}))


def _smaller_het():
    """UR's representations over the functions of rank at most 1, a
    sub-bifunctor of Hom without h_2 = e_2 = 1_2: the pair is refused, and
    psi, empty on row 2, leaves the het comma's objects there with no image
    in (F, 1)."""
    rank_one = build_het(
        "rank<=1", SKEL, SKEL,
        lambda x, a: tuple(f for f in SKEL.hom(x, a) if len(set(fn_images(f))) <= 1),
        SKEL.compose, lambda k, c: SKEL.compose(c, k))
    left, right = _reps_over(LEFT, UR.right, rank_one)
    _assert_refused(left, right, "h_2 = '2>2:0,1' is not in cell (2, 2)")
    return _laws(half_lawvere_iso_check(rank_one, left))


def _object_moved_with_its_universal():
    """F1 moved to 2 and h_1 along into cell (1, 2): psi at 1 is onto each
    cell but not one-to-one, so the pair is refused, and (F, 1) has more
    objects than the het comma."""
    left = _with(_with(LEFT, "functor.obj_map", {"1": "2"}), "universal", {"1": "1>2:0"})
    _assert_refused(left, UR.right, "psi is not a bijection at cell (1, 2)")
    return _laws(half_lawvere_iso_check(HOM, left))


def _moved_f(**images):
    return FinFunctor("moved", SKEL, SKEL, LEFT.functor.obj_map,
                      {**LEFT.functor.mor_map, **images})


# each entry: a corruption, and the laws it must fire by name
CORRUPTIONS = {
    "category-identity-dropped": (
        lambda: _laws(_category(identity={"0": "0>0:", "1": "1>1:0"})),
        {"identity-totality"}),
    "category-identity-off-its-object": (
        lambda: _laws(_category(identity={**SKEL.identity, "1": "1>2:0"})),
        {"identity-shape"}),
    "category-identity-is-the-swap": (
        lambda: _laws(_category(identity={**SKEL.identity, "2": "2>2:1,0"})),
        {"left-identity", "right-identity"}),
    "category-entry-for-an-uncomposable-pair": (
        lambda: _laws(_category(comp={("1>2:0", "1>2:1"): "1>2:0"})),
        {"composition-domain"}),
    "category-composite-of-the-wrong-type": (
        lambda: _laws(_category(comp={("1>2:0", "2>1:0,0"): "1>2:1"})),
        {"composition-shape"}),
    "category-composite-dropped": (
        lambda: _laws(_category(drop=("1>2:0", "2>2:1,0"))),
        {"composition-totality"}),
    "category-composite-rewired": (
        lambda: _laws(_category(comp={("2>2:1,0", "2>2:1,0"): "2>2:0,0"})),
        {"associativity"}),
    "functor-object-dropped": (
        lambda: _laws(_functor(obj_map={"0": "0", "1": "1"})), {"object-totality"}),
    "functor-morphism-dropped": (
        lambda: _laws(_functor(drop="2>2:1,0")), {"morphism-totality"}),
    "functor-image-of-the-wrong-type": (
        lambda: _laws(_functor(mor_map={"1>2:0": "2>1:0,0"})), {"dom-cod-preservation"}),
    "functor-identity-sent-to-the-swap": (
        lambda: _laws(_functor(mor_map={"2>2:0,1": "2>2:1,0"})),
        {"identity-preservation", "composition-preservation"}),
    "nat-trans-component-is-the-swap": (
        lambda: _laws(check_nat_trans(NatTrans(
            "mutant", identity_functor(SKEL), identity_functor(SKEL),
            {**SKEL.identity, "2": "2>2:1,0"}))),
        {"naturality"}),
    "het-identity-acts-by-the-swap-on-the-left": (
        lambda: _laws(_het("act_left", "2>2:0,1", "2>2:0,1", "2>2:1,0")),
        {"identity-left-action"}),
    "het-identity-acts-by-the-swap-on-the-right": (
        lambda: _laws(_het("act_right", "2>2:0,1", "2>2:0,1", "2>2:1,0")),
        {"identity-right-action"}),
    "het-left-action-rerouted": (
        lambda: _laws(_het("act_left", "2>2:1,0", "2>2:0,1", "2>2:0,0")),
        {"left-functoriality", "bimodule-associativity"}),
    "het-right-action-rerouted": (
        lambda: _laws(_het("act_right", "2>2:1,0", "2>2:0,1", "2>2:0,0")),
        {"right-functoriality"}),
    "left-universal-off-its-column": (
        lambda: _laws(check_left_representation(dataclasses.replace(
            LEFT, universal={**LEFT.universal, "1": "1>2:0"}))),
        {"universal-placement"}),
    # psi is read off the right action at h_x, so an entry is rewired there
    "psi-entry-rewired": (
        lambda: _laws(check_left_representation(dataclasses.replace(
            LEFT, het=_mutant("act_right", "2>2:0,1", "2>2:0,1", "2>2:0,0")))),
        {"psi-bijective"}),
    "left-universal-made-constant": (
        lambda: _laws(check_left_representation(dataclasses.replace(
            LEFT, universal={**LEFT.universal, "2": "2>2:0,0"}))),
        {"psi-bijective"}),
    "left-representation-over-a-rerouted-right-action": (
        lambda: _laws(check_left_representation(dataclasses.replace(
            LEFT, het=_mutant("act_right", "2>2:1,0", "2>2:0,1", "2>2:0,0")))),
        {"psi-naturality-right"}),
    "left-adjoint-image-rewired": (
        lambda: _laws(check_left_representation(dataclasses.replace(
            LEFT, functor=_moved_f(**{"1>2:0": "1>2:1"})))),
        {"psi-naturality-left"}),
    "expected-universal-in-another-cell": (
        lambda: _expected(universals={"1": "0>1:"}), {"expected-universal-placement"}),
    "expected-universal-factors-one-way": (
        lambda: _expected(universals={"2": "2>2:0,0"}), {"comparison-mediator"}),
    "expected-universal-not-iso": (
        lambda: _expected(dataclasses.replace(LEFT.functor, obj_map={
            **LEFT.functor.obj_map, "1": "2"}), {"1": "1>2:0"}),
        {"comparison-iso"}),
    "expected-functor-moves-an-identity": (
        lambda: _expected(_moved_f(**{"2>2:0,1": "2>2:1,0"})), {"comparison-naturality"}),
    # eta_2 = phi(h_2) and eps_2 = psi^-1(e_2) are read from the left and
    # right actions at 1_2: swapping those of 1_2 and the constant 0,0 there
    # makes the unit or the counit constant at 2
    "unit-made-constant": (
        lambda: _suites(_over(UR, _swapped_at(HOM, "act_left", "2>2:0,0", "2>2:0,1",
                                              "2>2:0,1"))),
        {"factorization-unit", "factorization-over-across-f",
         "factorization-over-across-g", "triangular-identity-F", "triangular-identity-G",
         "e1-form", "square-first-component", "image-square-second-component",
         "sending-expected-universal-placement", "upper-triangle", "zig-zag-action-bottom"}),
    "counit-made-constant": (
        lambda: _suites(_over(UR, _swapped_at(HOM, "act_right", "2>2:0,0", "2>2:0,1",
                                              "2>2:0,1"))),
        {"factorization-counit", "h2-form", "square-second-component", "lower-triangle",
         "zig-zag-action-top"}),
    "right-adjoint-moves-an-identity": (
        lambda: _suites(_with(UR, "right.dual_left.functor.mor_map", {"2>2:0,1": "2>2:0,0"})),
        {"image-square-first-component"}),
    "left-adjoint-moves-an-identity": (
        lambda: _suites(_with(UR, "left.functor.mor_map", {"2>2:0,1": "2>2:0,0"})),
        {"receiving-expected-universal-placement"}),
    "left-adjoint-image-moved": (
        lambda: _suites(_with(UR, "left.functor.mor_map", {"1>2:0": "1>2:1"})),
        {"z-naturality-left", "z-naturality-right", "morphism-correspondence",
         "morphism-bijection", "psi-naturality-left"}),
    # psi (phi) is read from the right (left) action at the universals: the
    # swap and the constant 0,0 sent to one element at 1_2 leave psi (phi)
    # not onto cell (2, 2); phi is the psi of the dual, whose check reports it
    "adjunction-het-right-action-rerouted": (
        lambda: _refused(*_reps_over(LEFT, UR.right, _mutant(
            "act_right", "2>2:1,0", "2>2:0,1", "2>2:0,0")),
            "psi is not a bijection at cell (2, 2)"),
        {"psi-bijective"}),
    "adjunction-het-left-action-rerouted": (
        lambda: _refused(*_reps_over(LEFT, UR.right, _mutant(
            "act_left", "2>2:1,0", "2>2:0,1", "2>2:0,0")),
            "phi is not a bijection at cell (2, 2)"),
        {"psi-bijective"}),
    "adjunction-over-a-smaller-het": (_smaller_het, {"object-bijection"}),
    "left-adjoint-object-moved-with-its-universal": (
        _object_moved_with_its_universal, {"object-bijection"}),
    "twist-not-injective": (_twist_not_injective, {"z-bijective"}),
    "right-adjoint-constant-at-zero": (
        lambda: _refused(*_g_constant_at_zero(SKEL), "phi is not a bijection at cell (1, 1)"),
        {"psi-bijective"}),
    "units-that-are-not-universal": (_not_universal_units, {"psi-bijective"}),
    "chimera-unit-component-moved": (_chimera_unit_moved, {"het-naturality"}),
    "comma-object-over-another-pair": (
        _relabelled_comma_object, {"projection-compatibility"}),
}


def test_census_names_each_fired_law_and_nothing_else():
    fired = set().union(*(laws for _, laws in CORRUPTIONS.values()))
    assert sorted(census() - fired) == [], "laws with no corruption that fires them"
    assert sorted(fired - census()) == [], "corruptions for laws the kernel no longer has"


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_corruption_fires_its_laws_by_name(name):
    build, laws = CORRUPTIONS[name]
    assert laws <= build()


# -- the deleted laws: reference forms that still check them ---------------------

# psi-domain, psi-formula and phi-domain went with the stored psi and phi
# tables; their reference forms are the all-pairs checks in tests/test_het.py.
# The last four hold by construction, the unit and counit being the
# transposes of the chimera universals (the proofs are in the docstrings of
# over_and_back_and_triangles and zig_zag_factorize); their reference forms
# are below, and the corrupted adjunctions never fire them. So do psi- and
# phi-bijective, which four_bifunctor_iso no longer checks: Adjunction
# refuses a pair whose psi or phi is no bijection on some cell
BY_CONSTRUCTION = {"chimera-unit-composite", "chimera-counit-composite",
                   "left-factorization", "right-factorization",
                   "psi-bijective", "phi-bijective"}
DELETED = {"psi-cardinality", "phi-cardinality", "over-and-back-F", "over-and-back-G",
           "receiving-comparison-mediator", "receiving-comparison-iso",
           "receiving-comparison-naturality", "roundtrip-representability",
           "sending-comparison-mediator", "sending-comparison-iso",
           "sending-comparison-naturality", "psi-domain", "psi-formula", "phi-domain",
           *BY_CONSTRUCTION}


def _reference_four_bifunctor_iso(adj):
    """four_bifunctor_iso with the two cardinality laws."""
    rep = LawReport(f"four-bifunctor isomorphism of {adj.het.name}")
    het, xc, ac = adj.het, adj.x_cat, adj.a_cat
    zb = z_bifunctor(adj)
    for x in xc.objects:
        for a in ac.objects:
            cell = het.cell(x, a)
            homs_a = ac.hom(adj.F.on_obj(x), a)
            homs_x = xc.hom(x, adj.G.on_obj(a))
            if len(homs_a) != len(cell):
                rep.add("psi-cardinality", (x, a),
                        f"|Hom(Fx, a)| = {len(homs_a)}, |Het| = {len(cell)}")
            if len(homs_x) != len(cell):
                rep.add("phi-cardinality", (x, a),
                        f"|Hom(x, Ga)| = {len(homs_x)}, |Het| = {len(cell)}")
            if sorted(adj.left.psi[(x, a)][g] for g in homs_a) != sorted(cell):
                rep.add("psi-bijective", (x, a), "psi is not onto the cell")
            if sorted(adj.right.phi[(x, a)][c] for c in cell) != sorted(homs_x):
                rep.add("phi-bijective", (x, a), "phi is not onto Hom(x, Ga)")
            if len(set(zb.cell(x, a))) != len(cell):
                rep.add("z-bijective", (x, a), "twist map is not injective on the cell")
    for h in xc.morphisms:
        for a in ac.objects:
            for c in het.cell(h.cod, a):
                lhs, rhs = zb.of_het[het.act_l(h.id, c)], zb.act_l(h.id, zb.of_het[c])
                if lhs != rhs:
                    rep.add("z-naturality-left", (h.id, a, c),
                            f"z(c.h) = {lhs}, twist(h) acting on z(c) = {rhs}")
    for k in ac.morphisms:
        for x in xc.objects:
            for c in het.cell(x, k.dom):
                lhs, rhs = zb.of_het[het.act_r(k.id, c)], zb.act_r(k.id, zb.of_het[c])
                if lhs != rhs:
                    rep.add("z-naturality-right", (k.id, x, c),
                            f"z(k.c) = {lhs}, twist(k) acting on z(c) = {rhs}")
    return rep.normalize()


def _reference_over_and_back_and_triangles(adj):
    """over_and_back_and_triangles with the two over-and-back laws."""
    rep = LawReport(f"identity suite of {adj.het.name}")
    het, xc, ac = adj.het, adj.x_cat, adj.a_cat
    for a in ac.objects:
        ga = adj.G.on_obj(a)
        if xc.compose(adj.eta(ga), adj.G.on_mor(adj.eps(a))) != xc.id_of(ga):
            rep.add("triangular-identity-G", (a,), "G(eps_a) after eta_Ga is not 1_Ga")
    for x in xc.objects:
        fx = adj.F.on_obj(x)
        if ac.compose(adj.F.on_mor(adj.eta(x)), adj.eps(fx)) != ac.id_of(fx):
            rep.add("triangular-identity-F", (x,), "eps_Fx after F(eta_x) is not 1_Fx")
    for x in xc.objects:
        fx = adj.F.on_obj(x)
        u, v = adj.z_of(adj.h(x))
        if u != xc.id_of(adj.G.on_obj(fx)):
            rep.add("h2-form", (x,), f"z(h_x) first component is {u}, expected identity")
        if v != adj.F.on_mor(adj.eta(x)):
            rep.add("h2-form", (x,), f"z(h_x) second component is {v}, expected F(eta_x)")
        if ac.compose(v, adj.eps(fx)) != ac.id_of(fx):
            rep.add("over-and-back-F", (x,), "e_Fx after h_x2 is not 1_Fx")
    for a in ac.objects:
        ga = adj.G.on_obj(a)
        u, v = adj.z_of(adj.e(a))
        if v != ac.id_of(adj.F.on_obj(ga)):
            rep.add("e1-form", (a,), f"z(e_a) second component is {v}, expected identity")
        if u != adj.G.on_mor(adj.eps(a)):
            rep.add("e1-form", (a,), f"z(e_a) first component is {u}, expected G(eps_a)")
        if xc.compose(adj.eta(ga), u) != xc.id_of(ga):
            rep.add("over-and-back-G", (a,), "e_a1 after h_Ga is not 1_Ga")
    for x in xc.objects:
        if het.act_l(adj.eta(x), adj.e(adj.F.on_obj(x))) != adj.h(x):
            rep.add("chimera-unit-composite", (x,), "e_Fx . eta_x differs from h_x")
    for a in ac.objects:
        if het.act_r(adj.eps(a), adj.h(adj.G.on_obj(a))) != adj.e(a):
            rep.add("chimera-counit-composite", (a,), "eps_a . h_Ga differs from e_a")
    for x in xc.objects:
        for a in ac.objects:
            for f in xc.hom(x, adj.G.on_obj(a)):
                for law, detail in factorization_failures(adj, x, a, f,
                                                          transpose_inv(adj, a, f)):
                    rep.add(law, (x, a, f), detail)
    return rep.normalize()


def _reference_factorizations(adj):
    """The two factorizations through one universal that zig_zag_factorize
    checked, over every element."""
    rep = LawReport(f"factorizations of {adj.het.name}")
    het = adj.het
    for c in het.elements:
        x, a = het.cell_of(c)
        f, g = adj.f_of(c), adj.g_of(c)
        if het.act_r(g, adj.h(x)) != c:
            rep.add("left-factorization", (c, g), "g(c) . h_x differs from c")
        if het.act_l(f, adj.e(a)) != c:
            rep.add("right-factorization", (c, f), "e_a . f(c) differs from c")
    return rep.normalize()


def _reference_lawvere_iso_check(adj):
    """lawvere_iso_check with the direct iso (F, 1_A) ~ (1_X, G) checked first."""
    rep = LawReport(f"comma-category equivalence of {adj.het.name}")
    left_comma = comma_of_functors(adj.F, identity_functor(adj.a_cat))
    right_comma = comma_of_functors(identity_functor(adj.x_cat), adj.G)
    het_comma = comma_of_bifunctor(adj.het)
    rep.extend(_iso_along(left_comma, right_comma,
                          lambda x, a, g: adj.right.phi[(x, a)][adj.left.psi[(x, a)][g]],
                          "(F,1) ~ (1,G) over the projections"))
    rep.extend(_iso_along(het_comma, left_comma, lambda x, a, c: adj.g_of(c),
                          "het comma ~ (F,1) over the projections"))
    rep.extend(_iso_along(het_comma, right_comma, lambda x, a, c: adj.f_of(c),
                          "het comma ~ (1,G) over the projections"))
    return rep.normalize()


def _reference_representation_roundtrip(adj):
    """representation_roundtrip with the whole receiving comparison."""
    rep = LawReport(f"representation round-trip of {adj.het.name}")
    ah = abstract_het(adj)
    try:
        rebuilt = build_adjunction(ah.het)
    except KernelInvariantError:
        laws = check_bifunctor(ah.het)
        if laws.ok:
            raise
        rep.extend(laws)
        return rep
    if not isinstance(rebuilt, Adjunction):
        rep.add("roundtrip-representability", (adj.het.name,), rebuilt.describe())
        return rep.normalize()
    xc, ac = adj.x_cat, adj.a_cat
    sending = compare_left_representation(rebuilt.left, ah.f_hat, {
        ah.embed_x.on_obj(x): pair_id(adj.eta(x), ac.id_of(adj.F.on_obj(x)))
        for x in xc.objects})
    receiving = compare_right_representation(rebuilt.right, ah.g_hat, {
        ah.embed_a.on_obj(a): pair_id(xc.id_of(adj.G.on_obj(a)), adj.eps(a))
        for a in ac.objects})
    # compare_right_representation reads the dual, whose cell (x, Fx) is (Ga, a)
    for prefix, report, cell in (("sending-", sending, "(x, Fx)"),
                                 ("receiving-", receiving, "(Ga, a)")):
        for v in report.violations:
            rep.add(prefix + v.law, v.witness, v.detail.replace("(x, Fx)", cell))
    return rep.normalize()


SUITES = [(four_bifunctor_iso, _reference_four_bifunctor_iso),
          (over_and_back_and_triangles, _reference_over_and_back_and_triangles),
          (lawvere_iso_check, _reference_lawvere_iso_check),
          (representation_roundtrip, _reference_representation_roundtrip)]


def _bases():
    galois = galois_connections({"0": "a", "1": "a", "2": "b"}, ("0", "1", "2"), ("a", "b"))
    return {"ur-skeleton2": UR, "galois-lower": build_adjunction(galois.lower_het),
            "prodexp-coreflective-1-1": build_adjunction(
                product_exponential(1, 1).coreflective_het)}


BASES = _bases()


def _other(draw, values, current):
    """A value of `values` other than `current`, where there is one."""
    return draw(st.sampled_from([v for v in values if v != current] or [current]))


SIDES = {"left": "", "right": "dual_left."}   # the path to each side's fields


@st.composite
def _corrupted_pair(draw):
    """The two representations of a base adjunction, unassembled, with one
    to three of its het, the universal elements, F and G changed at one
    entry each: an action entry to another element of its cell (in the one
    het of both sides), a universal element to another element of its row
    (left) or column (right), or a morphism image to another of the same
    type, or an object image to any object. Assembled, the unit and counit
    are read off the universals and follow."""
    adj = BASES[draw(st.sampled_from(sorted(BASES)))]
    reps = {"left": adj.left, "right": adj.right}
    for kind in draw(st.lists(st.sampled_from(
            ["het", "universal", "left", "right"]), min_size=1, max_size=3)):
        if kind == "het":
            het, side = reps["left"].het, draw(st.sampled_from(["act_left", "act_right"]))
            tables = getattr(het, side)
            m = draw(st.sampled_from(sorted(m for m, t in tables.items() if t)))
            c, image = draw(st.sampled_from(sorted(tables[m].items())))
            reps = dict(zip(reps, _reps_over(*reps.values(), dataclasses.replace(het, **{side: {
                **tables, m: {**tables[m], c: _other(draw, het.cell(*het.cell_of(image)),
                                                     image)}}}))))
            continue
        if kind == "universal":
            side = draw(st.sampled_from(sorted(SIDES)))
            rep = reps["left"] if side == "left" else reps["right"].dual_left
            x, u = draw(st.sampled_from(sorted(rep.universal.items())))
            row = [c for b in rep.het.a_cat.objects for c in rep.het.cell(x, b)]
            path, entries = "universal", {x: _other(draw, row, u)}
        elif draw(st.booleans()):
            side, fun = kind, reps[kind].functor
            m, image = draw(st.sampled_from(sorted(fun.mor_map.items())))
            values = fun.target.hom(fun.target.dom(image), fun.target.cod(image))
            path, entries = "functor.mor_map", {m: _other(draw, values, image)}
        else:
            side, fun = kind, reps[kind].functor
            x, image = draw(st.sampled_from(sorted(fun.obj_map.items())))
            path, entries = "functor.obj_map", {x: _other(draw, fun.target.objects, image)}
        reps[side] = _with(reps[side], SIDES[side] + path, entries)
    return reps["left"], reps["right"]


def _assembled(pair):
    """The adjunction of a pair, or None where Adjunction refuses it."""
    try:
        return Adjunction(*pair)
    except StructuralError:
        return None


# Hom of the finite sets 0, 1 and 1': an object image can move between the
# isomorphic 1 and 1' with its universal element, psi staying a bijection
ISO_BASE = build_adjunction(hom_bifunctor(function_category(
    "FinSet{0,1,1'}", {"0": 0, "1": 1, "1'": 1}, lambda d, c: f"{d}>{c}")))


def _bijective(rep):
    """Does the check of one side's representation (the right one's dual)
    report neither universal-placement nor psi-bijective?"""
    return not _laws(check_left_representation(rep)) & TRANSPOSE_LAWS


def _moved(rep, x, u):
    """rep with the object image of x moved to the cell of u, its universal
    element there: the images of the morphisms at x are carried along the
    isomorphism s with h_x.s = u, so that the functor keeps their types.
    None where there is no one such s with an inverse."""
    fun, cat = rep.functor, rep.het.a_cat
    b0, b = fun.obj_map[x], rep.het.cell_of(u)[1]
    isos = [(s, t) for s, c in rep.psi[(x, b)].items() if c == u for t in cat.hom(b, b0)
            if cat.compose(s, t) == cat.id_of(b0) and cat.compose(t, s) == cat.id_of(b)]
    if len(isos) != 1:
        return None
    (s, t), = isos
    mor_map = {m.id: cat.compose_many(*([t] if m.dom == x else []), fun.mor_map[m.id],
                                      *([s] if m.cod == x else []))
               for m in fun.source.morphisms}
    return dataclasses.replace(rep, universal={**rep.universal, x: u}, functor=dataclasses.replace(
        fun, obj_map={**fun.obj_map, x: b}, mor_map=mor_map))


@st.composite
def _corrupted_built(draw):
    """`_corrupted_pair`'s changes, to a base adjunction or ISO_BASE, each
    drawn among the changes that move an entry to another value: an action
    entry within a cell of more than one element, a morphism image within a
    hom-set of more than one, a universal element among those that keep its
    side's transposes bijections, and an object image among the moves, with
    the universal element and through an isomorphism (`_moved`), that do.
    A change with no such move is left out. The pair, assembled, or None
    where Adjunction refuses it, as a het change can make it."""
    bases = {**BASES, "iso": ISO_BASE}
    adj = bases[draw(st.sampled_from(sorted(bases)))]
    reps = {"left": adj.left, "right": adj.right}
    for kind in draw(st.lists(st.sampled_from(
            ["het", "universal", "left", "right"]), min_size=1, max_size=3)):
        if kind == "het":
            het, side = reps["left"].het, draw(st.sampled_from(["act_left", "act_right"]))
            tables = getattr(het, side)
            moves = [(m, c, other) for m, table in sorted(tables.items())
                     for c, image in sorted(table.items())
                     for other in het.cell(*het.cell_of(image)) if other != image]
            if moves:
                m, c, other = draw(st.sampled_from(moves))
                reps = dict(zip(reps, _reps_over(*reps.values(), dataclasses.replace(
                    het, **{side: {**tables, m: {**tables[m], c: other}}}))))
        elif kind == "universal" or not draw(st.booleans()):
            side = draw(st.sampled_from(sorted(SIDES))) if kind == "universal" else kind
            rep = reps["left"] if side == "left" else reps["right"].dual_left
            het, fun = rep.het, rep.functor
            moves = [_with(rep, "universal", {x: u2}) if kind == "universal" else _moved(rep, x, u2)
                     for x, u in sorted(rep.universal.items()) for b in het.a_cat.objects
                     if (b == fun.obj_map[x]) == (kind == "universal")
                     for u2 in het.cell(x, b) if u2 != u]
            moves = [moved for moved in moves if moved is not None and _bijective(moved)]
            if moves:
                moved = draw(st.sampled_from(moves))
                reps[side] = moved if side == "left" else \
                    dataclasses.replace(reps["right"], dual_left=moved)
        else:
            fun = reps[kind].functor
            hom = fun.target.hom
            moves = [(m, other) for m, image in sorted(fun.mor_map.items())
                     for other in hom(fun.target.dom(image), fun.target.cod(image))
                     if other != image]
            if moves:
                m, other = draw(st.sampled_from(moves))
                reps[kind] = _with(reps[kind], SIDES[kind] + "functor.mor_map", {m: other})
    return _assembled(tuple(reps.values()))


def _corrupted():
    """The corrupted adjunctions of `_corrupted_built` that assemble."""
    return _corrupted_built().filter(lambda adj: adj is not None)


def _over_categories(adj, x_cat, a_cat):
    """adj with X and A replaced by categories on the same ids: its het, F,
    and the dual representation of its right side."""
    het = dataclasses.replace(adj.het, x_cat=x_cat, a_cat=a_cat)
    d, dual_left = dual(het), adj.right.dual_left
    return Adjunction(
        dataclasses.replace(adj.left, het=het,
                            functor=dataclasses.replace(adj.F, source=x_cat, target=a_cat)),
        RightRepresentation(het, dataclasses.replace(
            dual_left, het=d,
            functor=dataclasses.replace(dual_left.functor, source=d.x_cat, target=d.a_cat))))


def _without(table, key):
    return {k: v for k, v in table.items() if k != key}


LOOKUPS = ("act_left", "act_right", "F", "G", "x_cat", "a_cat")


@st.composite
def _missing_lookup(draw, adjunctions, kinds=LOOKUPS):
    """One of `adjunctions()` with one entry a suite reads removed: an
    action entry, an image of F or G, a composite of X or A, or, of the
    kinds "x_identity" and "a_identity", an identity of X or A. None where
    Adjunction refuses it, as where psi or phi reads the action entry."""
    adj = draw(st.sampled_from(adjunctions()))
    het = adj.het
    kind = draw(st.sampled_from(list(kinds)))
    if kind.startswith("act"):
        tables = getattr(het, kind)
        m = draw(st.sampled_from(sorted(m for m, t in tables.items() if t) or [None]))
        if m is None:
            return None
        c = draw(st.sampled_from(sorted(tables[m])))
        return _assembled(_reps_over(adj.left, adj.right, dataclasses.replace(
            het, **{kind: {**tables, m: _without(tables[m], c)}})))
    if kind == "F":
        m = draw(st.sampled_from(sorted(adj.F.mor_map)))
        return Adjunction(dataclasses.replace(adj.left, functor=dataclasses.replace(
            adj.F, mor_map=_without(adj.F.mor_map, m))), adj.right)
    if kind == "G":
        fun = adj.right.dual_left.functor
        m = draw(st.sampled_from(sorted(fun.mor_map)))
        return Adjunction(adj.left, RightRepresentation(het, dataclasses.replace(
            adj.right.dual_left, functor=dataclasses.replace(
                fun, mor_map=_without(fun.mor_map, m)))))
    cat = getattr(het, kind[0] + "_cat")
    if kind.endswith("identity"):
        x = draw(st.sampled_from(cat.objects))
        broken = FinCategory(cat.name, cat.objects, cat.morphisms,
                             _without(cat.identity, x), cat.comp)
    else:
        pair = draw(st.sampled_from(sorted(cat.comp)))
        broken = FinCategory(cat.name, cat.objects, cat.morphisms, cat.identity,
                             _without(cat.comp, pair))
    return _over_categories(adj, *((broken, het.a_cat) if kind[0] == "x"
                                   else (het.x_cat, broken)))


def _run(suite, adj):
    try:
        return suite(adj)
    except StructuralError as exc:
        return exc


TRANSPOSE_LAWS = {"universal-placement", "psi-bijective"}


@settings(deadline=None, derandomize=True, max_examples=300)
@given(_corrupted_pair())
def test_adjunction_is_refused_exactly_where_a_transpose_is_no_bijection(pair):
    """Adjunction refuses a corrupted pair exactly where the check of either
    side, the right one through its dual, reports universal-placement or
    psi-bijective. On a pair that builds, no suite raises."""
    laws = set()
    for rep in (pair[0], pair[1].dual_left):
        laws |= _laws(check_left_representation(rep))
    adj = _assembled(pair)
    assert (adj is None) == bool(laws & TRANSPOSE_LAWS)
    if adj is None:
        return
    for suite in (four_bifunctor_iso, over_and_back_and_triangles, lawvere_iso_check,
                  representation_roundtrip):
        suite(adj)
    for c in adj.het.elements:
        zig_zag_factorize(adj, c)
    for x in adj.x_cat.objects:
        for a in adj.a_cat.objects:
            for f in adj.x_cat.hom(x, adj.G.on_obj(a)):
                adjunctive_square(adj, a, f)
                adjunctive_image_square(adj, a, f)


PLACEMENT = {"sending-expected-universal-placement", "receiving-expected-universal-placement"}
LEFT_CHECK_LAWS = {law.value for name in ("check_left_representation", "check_functor")
                   for law in _law_args(_functions()[name])}


def _assert_roundtrip_matches(old, new):
    """The round trip checks the representation that the embedded universals
    predict, where its reference rebuilt the adjunction: the placements are
    those of the reference, which reports none where it stops at the abstract
    het's bifunctor laws or at roundtrip-representability, and every other
    law is one that check_left_representation reports."""
    placed = [v for v in new.violations if v.law in PLACEMENT]
    if all(v.law.startswith(("sending-", "receiving-")) for v in old.violations):
        assert placed == [v for v in old.violations if v.law in PLACEMENT]
    assert {v.law for v in new.violations} - PLACEMENT <= LEFT_CHECK_LAWS


@settings(deadline=None, derandomize=True, max_examples=150)
@given(_corrupted())
def test_suites_match_their_references_less_the_deleted_laws(adj):
    for reference in (_reference_factorizations, _reference_over_and_back_and_triangles,
                      _reference_four_bifunctor_iso):
        old = _run(reference, adj)
        assert isinstance(old, Exception) or not _laws(old) & BY_CONSTRUCTION
    for suite, reference in SUITES:
        old, new = _run(reference, adj), suite(adj)
        if isinstance(old, Exception):
            assert not new.ok and suite is not representation_roundtrip, suite.__name__
            continue
        assert new.ok == old.ok, suite.__name__
        kept = [v for v in old.violations if v.law not in DELETED]
        if suite is lawvere_iso_check:
            assert all(v in kept for v in new.violations)
        elif suite is representation_roundtrip:
            _assert_roundtrip_matches(old, new)
        else:
            assert new.violations == kept, suite.__name__


# -- the decided suites against their forms on Z and on the abstract het ---------

def _reference_four_iso_on_z(adj):
    """four_bifunctor_iso before it was decided on the tables: Z tabulated."""
    rep = LawReport(f"four-bifunctor isomorphism of {adj.het.name}")
    het = adj.het
    xc, ac = adj.x_cat, adj.a_cat
    zb = z_bifunctor(adj)
    for (x, a), pairs in zb.cells.items():
        if len(set(pairs)) != len(pairs):
            rep.add("z-bijective", (x, a), "twist map is not injective on the cell")
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


def _reference_roundtrip_on_abstract_het(adj):
    """representation_roundtrip before it was decided on the tables: the
    abstract het built and its predicted representation checked."""
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


DECIDED = {"four": (four_bifunctor_iso, _reference_four_iso_on_z, "_four_iso_on_z"),
           "roundtrip": (representation_roundtrip, _reference_roundtrip_on_abstract_het,
                         "_roundtrip_on_abstract_het")}


def _result(suite, adj):
    """A suite's violations, laws, witnesses and details, or its error's text."""
    try:
        return suite(adj).violations
    except StructuralError as exc:
        return str(exc)


@functools.lru_cache(maxsize=None)
def _pool_adjunctions():
    return tuple(adj for adj in map(build_adjunction, POOL.values())
                 if isinstance(adj, Adjunction))


def _birepresented(het):
    adj = build_adjunction(het)
    return adj if isinstance(adj, Adjunction) else None


@settings(deadline=None, derandomize=True, max_examples=150)
@given(st.one_of(
    _corrupted(), st.sampled_from(_pool_adjunctions()),
    _transformation_monoids().map(hom_bifunctor).map(build_adjunction),
    _relations().map(lambda relation: _birepresented(_relation_het(*relation))).filter(
        lambda adj: adj is not None),
    _missing_lookup(_pool_adjunctions, (*LOOKUPS, "x_identity", "a_identity")).filter(
        lambda adj: adj is not None)))
def test_decided_suites_match_their_forms_on_z_and_the_abstract_het(adj):
    # the same violations, witnesses and details included, or the same error
    for suite, reference, _ in DECIDED.values():
        assert _result(suite, adj) == _result(reference, adj), suite.__name__


def _spied(monkeypatch, *names):
    """Replace each named function of hetcat.adjunction with one that records
    its name and calls it; the list of names recorded."""
    calls = []
    for name in names:
        original = getattr(adjunction_mod, name)
        monkeypatch.setattr(adjunction_mod, name, lambda *args, name=name, original=original:
                            calls.append(name) or original(*args))
    return calls


def test_decided_suites_build_neither_z_nor_the_abstract_het(monkeypatch):
    six = tuple("012345")
    galois = galois_connections(dict(zip(six, "aaaabb")), six, ("a", "b", "c"),
                                s_guard=6, t_guard=3)
    adjs = [*_pool_adjunctions(), *map(build_adjunction, (galois.lower_het, galois.upper_het))]
    calls = _spied(monkeypatch, "z_bifunctor", "abstract_het", "_four_iso_on_z",
                   "_roundtrip_on_abstract_het")
    for adj in adjs:
        assert four_bifunctor_iso(adj).ok and representation_roundtrip(adj).ok
    assert calls == []


def _copy(cat, identity=None, drop=None):
    """cat as a new category on the same ids, with identities updated by
    `identity` and the composite of the pair `drop` left out."""
    return FinCategory(cat.name, cat.objects, cat.morphisms, {**cat.identity, **(identity or {})},
                       _without(cat.comp, drop))


SWAP = "2>2:1,0"


def _conjugated_by_the_swap():
    """UR with F conjugated by the swap of 2: a morphism's image is it with
    the swap before it if it starts at 2 and after it if it ends there. F
    is still a functor, but eta is no longer natural against it."""
    def at(o):
        return [SWAP] if o == "2" else []
    mor_map = {m.id: SKEL.compose_many(*at(m.dom), m.id, *at(m.cod)) for m in SKEL.morphisms}
    return Adjunction(_with(LEFT, "functor.mor_map", mor_map), UR.right)


def _image_dropped(adj, side, m):
    """adj with the image of m under F (side "left") or G ("right") removed."""
    rep = adj.left if side == "left" else adj.right.dual_left
    rep = dataclasses.replace(rep, functor=dataclasses.replace(
        rep.functor, mor_map=_without(rep.functor.mor_map, m)))
    return Adjunction(rep, adj.right) if side == "left" else \
        Adjunction(adj.left, dataclasses.replace(adj.right, dual_left=rep))


def _colliding_pair_ids():
    """An isomorphism of discrete categories, a |-> b,c and a,b |-> c: the
    abstract het's objects pair_id(a, b,c) and pair_id(a,b, c) are one id,
    so building it raises, and the round trip with it."""
    def discrete(name, objects):
        ones = {o: f"1{o}" for o in objects}
        return FinCategory(name, objects, tuple(Morphism(i, o, o) for o, i in ones.items()),
                           ones, {(i, i): i for i in ones.values()})
    cells = {("a", "b,c"): "e1", ("a,b", "c"): "e2"}
    return build_adjunction(build_het(
        "iso", discrete("X", ("a", "a,b")), discrete("A", ("b,c", "c")),
        lambda x, a: (cells[(x, a)],) if (x, a) in cells else (),
        lambda h, c: c, lambda k, c: c))


def _ids_with_a_comma_prefix():
    """The identity adjunction of a category whose identity ids are i and
    i,y, so that pair_id need not be injective on its ids: the round trip
    hands over, and its abstract het builds, as no two of its ids meet."""
    cat = FinCategory("ids", ("x", "y"), (Morphism("i", "x", "x"), Morphism("i,y", "y", "y"),
                                          Morphism("f", "x", "y")),
                      {"x": "i", "y": "i,y"},
                      {("i", "i"): "i", ("i,y", "i,y"): "i,y", ("i", "f"): "f",
                       ("f", "i,y"): "f"})
    return build_adjunction(hom_bifunctor(cat))


# each entry: an adjunction on which a decider leaves by the branch named,
# and the suites that hand over to their forms on Z or on the abstract het
HAND_OVERS = {
    "dual-over-a-copy-of-X^op": (
        lambda: Adjunction(LEFT, RightRepresentation(UR.het, dataclasses.replace(
            UR.right.dual_left, het=dataclasses.replace(
                UR.right.dual_left.het, a_cat=_copy(UR.right.dual_left.het.a_cat))))),
        {"roundtrip"}),
    "G-image-missing": (lambda: _image_dropped(UR, "right", "1>2:0"), {"four", "roundtrip"}),
    # {} <= {0} is no transpose, as {0} is no image of G: the twists build,
    # and z-naturality-left reads F's image of it
    "F-image-missing-off-the-transposes": (
        lambda: _image_dropped(BASES["galois-lower"], "left", "{}<={0}"),
        {"four", "roundtrip"}),
    "F-image-of-the-wrong-type": (
        lambda: Adjunction(_with(LEFT, "functor.mor_map", {"2>2:0,0": "0>2:"}), UR.right),
        {"four", "roundtrip"}),
    "G-image-of-the-wrong-type": (
        lambda: _with(UR, "right.dual_left.functor.mor_map", {"2>2:0,0": "0>2:"}),
        {"four", "roundtrip"}),
    "twist-not-injective": (
        lambda: _with(_with(UR, "left.functor.mor_map", {"1>2:1": "1>2:0"}),
                      "right.dual_left.functor.mor_map", {"1>2:1": "1>2:0"}),
        {"four", "roundtrip"}),
    "z-naturality-left": (
        lambda: _over(UR, _mutant("act_left", "1>1:0", "1>2:0", "1>2:1")), {"four"}),
    "z-naturality-right": (
        lambda: _over(UR, _mutant("act_right", "1>2:0", "2>1:0,0", "2>2:0,1")), {"four"}),
    "F-over-a-copy-of-X-without-a-composite": (
        lambda: Adjunction(dataclasses.replace(LEFT, functor=dataclasses.replace(
            LEFT.functor, source=_copy(SKEL, drop=("0>2:", "2>2:0,1")))), UR.right),
        {"roundtrip"}),
    "X-without-a-composite": (
        lambda: _over_categories(UR, _copy(SKEL, drop=("0>2:", "2>2:0,1")), SKEL),
        {"four", "roundtrip"}),
    "X-without-an-identity": (
        lambda: _over_categories(UR, FinCategory(SKEL.name, SKEL.objects, SKEL.morphisms,
                                                 _without(SKEL.identity, "0"), SKEL.comp), SKEL),
        {"roundtrip"}),
    "ids-with-a-comma-prefix": (_ids_with_a_comma_prefix, {"roundtrip"}),
    "pair-ids-that-collide": (_colliding_pair_ids, {"roundtrip"}),
    "F-not-a-functor": (
        lambda: _with(UR, "left.functor.mor_map", {"1>2:0": "1>2:1"}), {"four", "roundtrip"}),
    "receiving-placement": (
        lambda: _over_categories(UR, *[_copy(SKEL, identity={"2": SWAP})] * 2), {"roundtrip"}),
    "sending-placement": (
        lambda: _over(UR, _swapped_at(HOM, "act_left", "2>2:0,0", "2>2:0,1", "2>2:0,1")),
        {"four", "roundtrip"}),
    "psi-bijective": (
        lambda: _with(UR, "right.dual_left.functor.mor_map", {"1>2:0": "1>2:1"}),
        {"four", "roundtrip"}),
    "psi-naturality-right": (
        lambda: _with(UR, "right.dual_left.functor.mor_map",
                      {"1>2:0": "1>2:1", "1>2:1": "1>2:0"}),
        {"four", "roundtrip"}),
    "psi-naturality-left": (_conjugated_by_the_swap, {"four", "roundtrip"}),
}


@pytest.mark.parametrize("name", sorted(HAND_OVERS))
def test_each_branch_hands_over_to_the_form_that_reports(monkeypatch, name):
    build, handed_over = HAND_OVERS[name]
    adj = build()
    calls = _spied(monkeypatch, *(present for _, _, present in DECIDED.values()))
    for suite, reference, _ in DECIDED.values():
        assert _result(suite, adj) == _result(reference, adj), suite.__name__
    assert {key for key, (_, _, present) in DECIDED.items() if present in calls} == handed_over
