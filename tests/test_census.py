"""The law census: every law name the kernel can report is fired, by name,
by an entry of a table of corruptions; and the suites whose implied laws were
deleted report what their fuller reference forms report, less those laws.

A new law needs a corruption here that fires it. A law check may be deleted
only with a proof, in its docstring, that other laws of the same report
imply it, and a reference form below that still checks it.
"""

import ast
import dataclasses
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hetcat
from hetcat import (Adjunction, FinCategory, FinFunctor, HetBifunctor, LawReport,
                    NatTrans, StructuralError, build_adjunction, build_het, check_bifunctor,
                    check_category, check_chimera_nat_trans, check_functor,
                    check_left_representation, check_nat_trans,
                    chimera_unit,
                    compare_left_representation, compare_right_representation,
                    comma_of_bifunctor,
                    comma_of_functors, constant_functor, four_bifunctor_iso,
                    hom_bifunctor, identity_functor, lawvere_iso_check,
                    over_and_back_and_triangles, representation_roundtrip,
                    z_bifunctor)
from hetcat.adjunction import abstract_het, factorization_failures, transpose_inv
from hetcat.comma import _comma_iso, _iso_along
from hetcat.fincat import pair_id
from hetcat.het import KernelInvariantError
from hetcat.instances import (finset_skeleton, galois_connections, product_exponential,
                              ur_adjunction)
from hetcat.instances.finset import fn_images, function_category
from test_adjunction import _suite_laws, _with

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


def _not_universal_units():
    """F constant at 2 on the full subcategory {1, 2} of finite sets, with
    G the identity: eps_2 = 1_2 makes each F(eta_x) then eps_Fx an identity,
    so (eta_x, 1_Fx) lies in its cell, but neither eta_1 = 1>2:0 nor the
    constant eta_2 is universal. Over the four g: 2 -> 2, u.g hits each of
    the two elements of the first's cell twice, and only the constants of
    the second's."""
    cat = function_category("FinSet{1,2}", {"1": 1, "2": 2}, lambda d, c: f"{d}>{c}")
    adj = ur_adjunction(cat)
    adj = dataclasses.replace(adj, left=dataclasses.replace(
        adj.left, functor=constant_functor(cat, cat, "2")))
    adj = _with(adj, "unit.components", {"1": "1>2:0", "2": "2>2:0,0"})
    adj = _with(adj, "counit.components", {"1": "2>1:0,0", "2": "2>2:0,1"})
    return _laws(representation_roundtrip(adj))


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


def _g_constant_at_zero():
    bad = _with(UR, "counit.components", {a: f"0>{a}:" for a in SKEL.objects})
    bad = _with(bad, "right.dual_left.functor.obj_map", {a: "0" for a in SKEL.objects})
    bad = _with(bad, "right.dual_left.functor.mor_map", {m.id: "0>0:" for m in SKEL.morphisms})
    return _laws(representation_roundtrip(bad))


def _twist_not_injective():
    adj = UR
    for side in ("left", "right.dual_left"):
        adj = _with(adj, f"{side}.functor.mor_map", {"1>2:1": "1>2:0"})
    return _laws(four_bifunctor_iso(adj))


def _expected(functor=None, universals=None):
    return _laws(compare_left_representation(LEFT, functor or LEFT.functor,
                                             {**LEFT.universal, **(universals or {})}))


def _smaller_het():
    """UR over the functions of rank at most 1, a sub-bifunctor of Hom: its
    cell (2, 2) holds 2 of the 4 maps that psi and phi pair, so psi and phi
    miss the other two and the het comma has fewer objects than (F, 1)."""
    rank_one = build_het(
        "rank<=1", SKEL, SKEL,
        lambda x, a: tuple(f for f in SKEL.hom(x, a) if len(set(fn_images(f))) <= 1),
        SKEL.compose, lambda k, c: SKEL.compose(c, k))
    adj = dataclasses.replace(UR, het=rank_one)
    return _laws(four_bifunctor_iso(adj)) | _laws(lawvere_iso_check(adj))


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
    "unit-made-constant": (
        lambda: _suites(_with(UR, "unit.components", {"2": "2>2:0,0"})),
        {"factorization-unit", "factorization-over-across-f",
         "factorization-over-across-g", "triangular-identity-F", "triangular-identity-G",
         "h2-form", "chimera-unit-composite", "square-first-component",
         "image-square-second-component", "sending-expected-universal-placement",
         "upper-triangle", "zig-zag-action-bottom"}),
    "counit-made-constant": (
        lambda: _suites(_with(UR, "counit.components", {"2": "2>2:0,0"})),
        {"factorization-counit", "e1-form", "chimera-counit-composite",
         "square-second-component", "lower-triangle", "zig-zag-action-top"}),
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
    # psi and phi are read off the representations' own het, so a right
    # (left) action of the adjunction's het that no longer agrees with it
    # breaks the left (right) factorization
    "adjunction-het-right-action-rerouted": (
        lambda: _suites(dataclasses.replace(
            UR, het=_mutant("act_right", "2>2:1,0", "2>2:0,1", "2>2:0,0"))),
        {"left-factorization"}),
    "adjunction-het-left-action-rerouted": (
        lambda: _suites(dataclasses.replace(
            UR, het=_mutant("act_left", "2>2:1,0", "2>2:0,1", "2>2:0,0"))),
        {"right-factorization"}),
    "adjunction-over-a-smaller-het": (_smaller_het, {"phi-bijective", "object-bijection"}),
    "twist-not-injective": (_twist_not_injective, {"z-bijective"}),
    "right-adjoint-constant-at-zero": (
        _g_constant_at_zero, {"sending-expected-universal-placement"}),
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
# tables; their reference forms are the all-pairs checks in tests/test_het.py
DELETED = {"psi-cardinality", "phi-cardinality", "over-and-back-F", "over-and-back-G",
           "receiving-comparison-mediator", "receiving-comparison-iso",
           "receiving-comparison-naturality", "roundtrip-representability",
           "sending-comparison-mediator", "sending-comparison-iso",
           "sending-comparison-naturality", "psi-domain", "psi-formula", "phi-domain"}


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


SIDES = {"left": "left", "right": "right.dual_left"}   # the path to each side's fields


@st.composite
def _corrupted(draw):
    """A base adjunction with one to three of its unit, counit, het, the
    universal elements, F and G changed at one entry each: a component or a
    morphism image to another of the same type, an action entry to another
    element of its cell, a universal element to another element of its row
    (left) or column (right), or an object image to any object. psi and phi
    are read off the representations' own het, which a het change leaves
    as it was."""
    adj = BASES[draw(st.sampled_from(sorted(BASES)))]
    for kind in draw(st.lists(st.sampled_from(
            ["unit", "counit", "het", "universal", "left", "right"]), min_size=1, max_size=3)):
        if kind in ("unit", "counit"):
            cat = adj.x_cat if kind == "unit" else adj.a_cat
            key, c = draw(st.sampled_from(sorted(getattr(adj, kind).components.items())))
            adj = _with(adj, f"{kind}.components",
                        {key: _other(draw, cat.hom(cat.dom(c), cat.cod(c)), c)})
        elif kind == "het":
            het, side = adj.het, draw(st.sampled_from(["act_left", "act_right"]))
            tables = getattr(het, side)
            m = draw(st.sampled_from(sorted(m for m, t in tables.items() if t)))
            c, image = draw(st.sampled_from(sorted(tables[m].items())))
            adj = dataclasses.replace(adj, het=dataclasses.replace(het, **{side: {
                **tables, m: {**tables[m], c: _other(draw, het.cell(*het.cell_of(image)),
                                                     image)}}}))
        elif kind == "universal":
            side = draw(st.sampled_from(sorted(SIDES)))
            rep = adj.left if side == "left" else adj.right.dual_left
            x, u = draw(st.sampled_from(sorted(rep.universal.items())))
            row = [c for b in rep.het.a_cat.objects for c in rep.het.cell(x, b)]
            adj = _with(adj, f"{SIDES[side]}.universal", {x: _other(draw, row, u)})
        elif draw(st.booleans()):
            fun = getattr(adj, kind).functor
            m, image = draw(st.sampled_from(sorted(fun.mor_map.items())))
            values = fun.target.hom(fun.target.dom(image), fun.target.cod(image))
            adj = _with(adj, f"{SIDES[kind]}.functor.mor_map", {m: _other(draw, values, image)})
        else:
            fun = getattr(adj, kind).functor
            x, image = draw(st.sampled_from(sorted(fun.obj_map.items())))
            adj = _with(adj, f"{SIDES[kind]}.functor.obj_map",
                        {x: _other(draw, fun.target.objects, image)})
    return adj


def _run(suite, adj):
    try:
        return suite(adj)
    except (StructuralError, KeyError) as exc:
        return exc


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
    for suite, reference in SUITES:
        old, new = _run(reference, adj), _run(suite, adj)
        if isinstance(old, Exception):
            assert isinstance(new, Exception) or \
                not new.ok and suite is not representation_roundtrip, suite.__name__
            continue
        assert isinstance(new, LawReport), (suite.__name__, new)
        assert new.ok == old.ok, suite.__name__
        kept = [v for v in old.violations if v.law not in DELETED]
        if suite is lawvere_iso_check:
            assert all(v in kept for v in new.violations)
        elif suite is representation_roundtrip:
            _assert_roundtrip_matches(old, new)
        else:
            assert new.violations == kept, suite.__name__
