"""Batch front door: parse documents, run checks and constructions, report.

Exit codes: 0 all checks pass, 1 a law or expectation fails (the report lists
witnesses), 2 parse/structural errors, unknown names, exceeded guards, or a
failed kernel invariant.
Reports are deterministic; --json emits a machine-readable form.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import instances
from .adjunction import (Adjunction, build_adjunction, factorization_failures,
                         four_bifunctor_iso, over_and_back_and_triangles,
                         representation_roundtrip, zig_zag_factorize,
                         adjunctive_square, adjunctive_image_square)
from .comma import half_lawvere_iso_check, lawvere_iso_check
from .documents import (DocumentError, bundle_to_payload, dumps_document,
                        loads_document, make_document, parse_document)
from .errors import GuardExceeded, StructuralError
from .fincat import check_category, check_functor, check_nat_trans
from .het import (HetBifunctor, KernelInvariantError, LeftRepresentation,
                  NonRepresentabilityWitness, check_bifunctor,
                  compare_left_representation)
from .report import LawReport


def _emit(out: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(out, indent=2, sort_keys=True))
        return
    print(f"== {out['command']}: {out['subject']}")
    for check in out["checks"]:
        status = "pass" if check["ok"] else "FAIL"
        print(f"  [{status}] {check['name']}")
        for v in check.get("violations", []):
            print(f"      {v['law']} at ({', '.join(v['witness'])})"
                  + (f": {v['detail']}" if v["detail"] else ""))
        for line in check.get("notes", []):
            print(f"      {line}")
    for key, value in out.items():
        if key in ("command", "subject", "checks", "exit"):
            continue
        print(f"  {key}:")
        text = json.dumps(value, indent=2, sort_keys=True)
        for line in text.splitlines():
            print(f"    {line}")
    print(f"exit {out['exit']}")


def _check_entry(name: str, report: LawReport, notes: list[str] | None = None) -> dict:
    entry = {"name": name, "ok": report.ok,
             "violations": report.to_dict()["violations"]}
    if notes:
        entry["notes"] = notes
    return entry


def _note_entry(name: str, ok: bool, notes: list[str]) -> dict:
    return {"name": name, "ok": ok, "violations": [], "notes": notes}


def _read_document(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    return loads_document(text)


def _read_het(args) -> tuple[HetBifunctor, dict]:
    """The het-bifunctor of a bifunctor or bundle document, with the
    bundle's expected adjoints ({} for a bare bifunctor)."""
    doc = _read_document(args.path)
    kind, value = parse_document(doc)
    if kind == "bifunctor":
        return value, {}
    if kind == "adjunction-bundle":
        return value
    raise DocumentError(f"{args.command} expects a bifunctor or bundle, got {kind!r}")


def _het_checks(het: HetBifunctor, all_entries: bool = True) -> list[dict]:
    """The law gate of every het command: both categories, then the het laws.

    Unless all_entries is set, the two category entries are dropped when
    both pass, so a valid document's report names only the het laws.
    """
    checks = [_check_entry("sending category", check_category(het.x_cat)),
              _check_entry("receiving category", check_category(het.a_cat)),
              _check_entry("bifunctor laws", check_bifunctor(het))]
    if not all_entries and checks[0]["ok"] and checks[1]["ok"]:
        del checks[:2]
    return checks


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def cmd_check(args) -> int:
    doc = _read_document(args.path)
    kind, value = parse_document(doc)
    subject = doc["meta"].get("name") or args.path
    del doc             # the raw JSON is not needed during the checks
    checks: list[dict] = []
    if kind == "category":
        checks.append(_check_entry("category laws", check_category(value)))
    elif kind == "functor":
        checks.append(_check_entry("source category", check_category(value.source)))
        checks.append(_check_entry("target category", check_category(value.target)))
        checks.append(_check_entry("functor laws", check_functor(value)))
    elif kind == "nattrans":
        checks.append(_check_entry("source category",
                                   check_category(value.source.source)))
        checks.append(_check_entry("target category",
                                   check_category(value.source.target)))
        checks.append(_check_entry("source functor", check_functor(value.source)))
        checks.append(_check_entry("target functor", check_functor(value.target)))
        checks.append(_check_entry("naturality", check_nat_trans(value)))
    else:
        checks = _het_checks(value if kind == "bifunctor" else value[0])
    code = 0 if all(c["ok"] for c in checks) else 1
    out = {"command": "check", "subject": subject, "checks": checks, "exit": code}
    _emit(out, args.json)
    return code


# ---------------------------------------------------------------------------
# adjoint
# ---------------------------------------------------------------------------

def _witness_notes(result) -> list[str]:
    if isinstance(result, Adjunction):
        return []
    notes = [f"failed sides: {', '.join(result.failed_sides())}"]
    for side in (result.left, result.right):
        if isinstance(side, NonRepresentabilityWitness):
            notes.extend(side.describe().splitlines())
    return notes


def _forced_half(result, failed_side: str, kept_ok=lambda rep: True) -> bool:
    """Did exactly failed_side fail to represent, with the other side's
    representation passing kept_ok?"""
    if isinstance(result, Adjunction) or result.failed_sides() != (failed_side,):
        return False
    return kept_ok(result.left if failed_side == "right" else result.right)


def _full_suite(adj: Adjunction, guard: int) -> list[dict]:
    return [
        _check_entry("four-bifunctor isomorphism", four_bifunctor_iso(adj)),
        _check_entry("triangular and over-and-back identities",
                     over_and_back_and_triangles(adj)),
        _check_entry("comma-category equivalence", lawvere_iso_check(adj, guard=guard)),
        _check_entry("representation round-trip", representation_roundtrip(adj)),
    ]


def cmd_adjoint(args) -> int:
    het, expected = _read_het(args)
    checks = _het_checks(het, all_entries=False)
    out = {"command": "adjoint", "subject": het.name, "checks": checks}
    result = build_adjunction(het) if all(c["ok"] for c in checks) else None
    if not isinstance(result, Adjunction):
        if result is not None:
            checks.append(_note_entry("birepresentability", False, _witness_notes(result)))
            for side, found in (("left", result.left), ("right", result.right)):
                if not isinstance(found, NonRepresentabilityWitness):
                    out[f"{side}_adjoint"] = dict(found.functor.obj_map)
        out["exit"] = 1
        _emit(out, args.json)
        return 1
    adj = result
    out["left_adjoint"] = dict(adj.F.obj_map)
    out["right_adjoint"] = dict(adj.G.obj_map)
    out["unit"] = dict(adj.unit.components)
    out["counit"] = dict(adj.counit.components)
    out["chimera_unit"] = {x: adj.h(x) for x in adj.x_cat.objects}
    out["chimera_counit"] = {a: adj.e(a) for a in adj.a_cat.objects}
    for side, fun in (("left", adj.F), ("right", adj.G)):
        if expected.get(f"{side}_object_map"):
            ok = expected[f"{side}_object_map"] == fun.obj_map
            checks.append(_note_entry(f"expected {side} adjoint", ok,
                                      [] if ok else ["object map differs from expectation"]))
    checks += _full_suite(adj, args.guard)
    code = 0 if all(c["ok"] for c in checks) else 1
    out["exit"] = code
    _emit(out, args.json)
    return code


# ---------------------------------------------------------------------------
# demo
# ---------------------------------------------------------------------------

def _demo_ur(args):
    skel = instances.finset_skeleton(args.n)
    adj = instances.ur_adjunction(skel)
    checks = [_note_entry("identity self-adjunction recovered", True,
                          [f"category: {skel.name}"])]
    checks += _full_suite(adj, args.guard)
    return checks, adj.het, dict(adj.F.obj_map), dict(adj.G.obj_map), {}


def _parse_map(spec: str) -> dict[str, str]:
    out = {}
    for part in spec.split(","):
        src, _, dst = part.partition(":")
        if not src or not dst:
            raise DocumentError(f"bad --map entry {part!r}; use 'x:y,...' form")
        key = src.strip()
        if key in out:
            raise DocumentError(f"--map sends {key!r} more than once")
        out[key] = dst.strip()
    return out


def _demo_galois(args):
    f_map = _parse_map(args.map)
    s = tuple(sorted(f_map))
    t = tuple(sorted(set(f_map.values())))
    gi = instances.galois_connections(f_map, s, t)
    checks = []
    eq = gi.lower_het.cells == gi.lower_het_via_preimage.cells
    checks.append(_note_entry("direct-image and preimage formulas agree cellwise", eq,
                              [] if eq else ["the two relation readings differ"]))
    lower = build_adjunction(gi.lower_het)
    upper = build_adjunction(gi.upper_het)
    extras = {"f_star": dict(gi.f_star)}
    for name, adj, fmap, gmap in (
            ("lower connection", lower, gi.direct_image, gi.preimage),
            ("upper connection", upper, gi.preimage, gi.f_star)):
        if not isinstance(adj, Adjunction):
            checks.append(_note_entry(f"{name} birepresentable", False,
                                      _witness_notes(adj)))
            continue
        ok = adj.F.obj_map == fmap and adj.G.obj_map == gmap
        checks.append(_note_entry(f"{name} recovers the formula adjoints", ok, []))
        sup_ok = all(adj.G.obj_map[a] == gi.sup_formula_right_adjoint(
            "lower" if name.startswith("lower") else "upper", a)
            for a in adj.a_cat.objects)
        inf_ok = all(adj.F.obj_map[x] == gi.inf_formula_left_adjoint(
            "lower" if name.startswith("lower") else "upper", x)
            for x in adj.x_cat.objects)
        checks.append(_note_entry(f"{name} matches sup/inf oracles",
                                  sup_ok and inf_ok, []))
        checks += _full_suite(adj, args.guard)
    return checks, gi.lower_het, dict(gi.direct_image), dict(gi.preimage), extras


def _demo_limits(args):
    inst = instances.limits_adjunction(args.shape, args.n, guard=args.guard)
    return _diagram_demo(
        args, inst.het, f"limits escaping the skeleton: {', '.join(inst.lim_escape)}",
        (inst.delta, inst.lim), (inst.identity_cones, inst.projection_cones),
        ("diagonal and limit functors", "cones are the identity and projection cones"),
        {"limit_cardinalities": dict(inst.lim_cards)})


def _demo_colimits(args):
    inst = instances.colimits_adjunction(args.shape, args.n, guard=args.guard)
    return _diagram_demo(
        args, inst.het, f"sets too large to be diagram values: {', '.join(inst.delta_escape)}",
        (inst.colim, inst.delta), (inst.injection_cocones, inst.identity_cocones),
        ("colimit and diagonal functors", "cocones are the injection and identity cocones"),
        {"colimit_cardinalities": dict(inst.colim_cards)})


def _diagram_demo(args, het, escape_note, adjoints, universals, names, extras):
    """The limits and colimits demos. When a cardinality escapes the skeleton
    the expected G is None and exactly the right side must fail, the left
    matching F; otherwise the adjunction must recover F, G, h and e."""
    (F, G), (hs, es) = adjoints, universals
    result = build_adjunction(het)
    if G is None:
        ok = _forced_half(result, "right", lambda left: compare_left_representation(
            left, F, hs).ok)
        checks = [_note_entry("half-representable exactly as the cardinalities force",
                              ok, [escape_note] + _witness_notes(result))]
    else:
        full = isinstance(result, Adjunction)
        ok = full and result.F == F and result.G == G
        checks = [_note_entry(f"recovers the {names[0]}", ok, [])]
        if full:
            ok = all(result.h(x) == hs[x] for x in het.x_cat.objects) and \
                all(result.e(a) == es[a] for a in het.a_cat.objects)
            checks.append(_note_entry(f"universal {names[1]}", ok, []))
            checks += _full_suite(result, args.guard)
    return checks, het, dict(F.obj_map), dict(G.obj_map) if G else {}, extras


def _demo_prodexp(args):
    inst = instances.product_exponential(args.n, args.a)
    checks = []
    core = build_adjunction(inst.coreflective_het)
    refl = build_adjunction(inst.reflective_het)
    if inst.coreflective_full:
        ok = isinstance(core, Adjunction) and core.F == inst.product_functor
        checks.append(_note_entry("coreflective reading is a full adjunction", ok, []))
        if isinstance(core, Adjunction):
            checks += _full_suite(core, args.guard)
    else:
        ok = _forced_half(core, "right", lambda left: left.functor == inst.product_functor)
        checks.append(_note_entry("coreflective reading: product side represents, "
                                  "exponential escapes", ok, _witness_notes(core)))
    if inst.reflective_full:
        ok = isinstance(refl, Adjunction) and refl.G == inst.inclusion_functor
        checks.append(_note_entry("reflective reading is a full adjunction", ok, []))
    else:
        ok = _forced_half(refl, "left",
                          lambda right: right.functor == inst.inclusion_functor)
        checks.append(_note_entry("reflective reading: inclusion side represents, "
                                  "free power escapes", ok, _witness_notes(refl)))
    element_laws = instances.verify_elementwise(args.n, max(args.n, 1), args.a)
    checks.append(_note_entry("element-level evaluation/pairing laws",
                              all(element_laws.values()),
                              [f"{k}: {v}" for k, v in element_laws.items()]))
    return checks, inst.coreflective_het, dict(inst.product_functor.obj_map), \
        dict(inst.exponential_partial), {"element_laws": element_laws}


def _demo_preorder(args):
    inst = instances.preorder_adjunction_chain(args.n)
    checks = []
    lower = build_adjunction(inst.lower_het)
    ok = isinstance(lower, Adjunction) and lower.F == inst.discrete \
        and lower.G == inst.forgetful
    checks.append(_note_entry("discrete -| underlying recovered", ok, []))
    if isinstance(lower, Adjunction):
        checks += _full_suite(lower, args.guard)
    upper = build_adjunction(inst.upper_het)
    ok = isinstance(upper, Adjunction) and upper.F == inst.forgetful \
        and upper.G == inst.indiscrete
    checks.append(_note_entry("underlying -| indiscrete recovered", ok, []))
    poset = build_adjunction(inst.poset_het)
    if args.n >= 2:
        # two points admit no antisymmetric indiscrete order
        checks.append(_note_entry("poset restriction: no indiscrete partial order",
                                  _forced_half(poset, "right"), _witness_notes(poset)))
    else:
        # on at most one point every preorder is already a poset
        ok = isinstance(poset, Adjunction)
        checks.append(_note_entry("poset restriction representable below two "
                                  "carrier points", ok, []))
    return checks, inst.lower_het, dict(inst.discrete.obj_map), \
        dict(inst.forgetful.obj_map), {}


def _demo_pointed(args):
    inst = instances.pointed_free_forgetful(args.n)
    result = build_adjunction(inst.het)
    checks = []
    ok = _forced_half(result, "right", lambda left: left.functor == inst.free and all(
        left.universal[k] == inst.insertions[k] for k in inst.sets.objects))
    checks.append(_note_entry("free side represents with insertion-of-generators "
                              "universals; underlying side escapes the grid",
                              ok, _witness_notes(result)))
    counting = all(
        len(inst.het.cell(k, a)) == inst.carrier_card[a] ** int(k)
        for k in inst.sets.objects for a in inst.pointed.objects)
    checks.append(_note_entry("hom-count law |Hom*(Fx,a)| == |Hom(x,Ua)| cellwise",
                              counting, []))
    if isinstance(result.left, LeftRepresentation):
        checks.append(_check_entry(
            "one-sided comma equivalence",
            half_lawvere_iso_check(inst.het, result.left, guard=args.guard)))
    return checks, inst.het, dict(inst.free.obj_map), {}, {}


DEMOS = {
    "ur": _demo_ur,
    "galois": _demo_galois,
    "limits": _demo_limits,
    "colimits": _demo_colimits,
    "prodexp": _demo_prodexp,
    "preorder": _demo_preorder,
    "pointed": _demo_pointed,
}


def cmd_demo(args) -> int:
    if args.name not in DEMOS:
        raise DocumentError(f"unknown demo {args.name!r}; "
                            f"choose one of {', '.join(sorted(DEMOS))}")
    for flag in ("n", "a"):
        if getattr(args, flag) < 0:
            raise DocumentError(f"--{flag} must be non-negative, got {getattr(args, flag)}")
    checks, het, expected_left, expected_right, extras = DEMOS[args.name](args)
    code = 0 if all(c["ok"] for c in checks) else 1
    out = {"command": f"demo {args.name}", "subject": het.name,
           "checks": checks, "exit": code}
    out.update(extras)
    if args.export:
        doc = make_document(
            "adjunction-bundle",
            bundle_to_payload(het, expected_left, expected_right),
            name=f"demo-{args.name}",
            description=f"exported by: hetcat demo {args.name}")
        text = dumps_document(doc)
        try:
            Path(args.export).write_text(text)
        except OSError as exc:
            raise DocumentError(f"cannot write {args.export}: {exc}") from exc
        out["exported"] = args.export
    _emit(out, args.json)
    return code


# ---------------------------------------------------------------------------
# factorize
# ---------------------------------------------------------------------------

def _square_dict(sq) -> dict:
    return {
        "kind": sq.kind,
        "corners": {"nw": list(sq.nw), "ne": list(sq.ne),
                    "sw": list(sq.sw), "se": list(sq.se)},
        "top": list(sq.top), "bottom": list(sq.bottom),
        "left": list(sq.left_edge), "right": list(sq.right_edge),
        "main_diagonal": list(sq.main_diagonal),
        "anti_diagonal": list(sq.anti_diagonal),
        "commutes": sq.commutes,
    }


def _factorization_chains(adj: Adjunction, x: str, a: str, f: str) -> dict:
    g = adj.a_cat.compose(adj.F.on_mor(f), adj.eps(a))
    return {
        "f": f, "g": g,
        "unit-factorization":
            f"{x} =h=> F{x} =h2=> GF{x} --G({g})--> G{a}  ==  {f}",
        "over-across-and-back-f":
            f"{x} =h=> F{x} --F({f})--> FG{a} =e1=> G{a}  ==  {f}",
        "counit-factorization":
            f"F{x} --F({f})--> FG{a} =e1=> G{a} =e=> {a}  ==  {g}",
        "over-across-and-back-g":
            f"F{x} =h2=> GF{x} --G({g})--> G{a} =e=> {a}  ==  {g}",
        "equations-hold": not factorization_failures(adj, x, a, f, g),
    }


def cmd_factorize(args) -> int:
    het, _ = _read_het(args)
    checks = _het_checks(het, all_entries=False)
    result = build_adjunction(het) if all(c["ok"] for c in checks) else None
    if not isinstance(result, Adjunction):
        if result is not None:
            checks.append(_note_entry("birepresentability", False, _witness_notes(result)))
        _emit({"command": "factorize", "subject": het.name, "checks": checks,
               "exit": 1}, args.json)
        return 1
    adj = result
    target = args.id
    out = {"command": "factorize", "subject": f"{het.name}::{target}", "checks": checks}
    if target in het.elements:
        x, a = het.cell_of(target)
        zz = zig_zag_factorize(adj, target)
        f, g = zz.f, zz.g
        out["adjunctive_square"] = _square_dict(adjunctive_square(adj, a, f))
        out["image_square"] = _square_dict(adjunctive_image_square(adj, a, f))
        out["zig_zag"] = {
            "sending_universal": zz.sending_universal,
            "anti_diagonal": list(zz.anti_diagonal),
            "receiving_universal": zz.receiving_universal,
            "factor_count": zz.factor_count,
            "chain": f"{x} =h_x=> F{x} =z(c)=> G{a} =e_a=> {a}",
        }
        out["factorizations"] = _factorization_chains(adj, x, a, f)
        out["checks"].append(_check_entry("zig-zag certificate", zz.report,
                                          [f"unique: {zz.unique}"]))
        ok = zz.ok and out["factorizations"]["equations-hold"]
    elif adj.x_cat.has_morphism(target):
        f = target
        matches = [a for a in adj.a_cat.objects
                   if adj.G.on_obj(a) == adj.x_cat.cod(f)]
        if not matches:
            raise DocumentError(
                f"{target!r} does not end at a right-adjoint image; "
                f"cannot seed an adjunctive square")
        out["squares"] = []
        ok = True
        for a in matches:
            sq = adjunctive_square(adj, a, f)
            isq = adjunctive_image_square(adj, a, f)
            out["squares"].append({
                "at": a,
                "adjunctive_square": _square_dict(sq),
                "image_square": _square_dict(isq),
                "factorizations": _factorization_chains(
                    adj, adj.x_cat.dom(f), a, f),
            })
            ok = ok and sq.commutes and isq.commutes
        out["checks"].append(_note_entry(
            "squares commute", ok, [f"seeded at {len(matches)} receiving object(s)"]))
    else:
        raise DocumentError(f"{target!r} is neither a heteromorphism nor a "
                            f"sending-category morphism of this bundle")
    code = 0 if ok else 1
    out["exit"] = code
    _emit(out, args.json)
    return code


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hetcat",
        description="verification kernel for finite category theory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="law-check a document")
    p.add_argument("path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("adjoint", help="birepresent a het-bifunctor document")
    p.add_argument("path")
    p.add_argument("--json", action="store_true")
    p.add_argument("--guard", type=int, default=20_000)
    p.set_defaults(func=cmd_adjoint)

    p = sub.add_parser("demo", help="build and verify a built-in instance")
    p.add_argument("name", help=", ".join(sorted(DEMOS)))
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--a", type=int, default=1)
    p.add_argument("--shape", default="parallel-pair")
    p.add_argument("--map", default="0:a,1:a,2:b")
    p.add_argument("--export", default="")
    p.add_argument("--json", action="store_true")
    p.add_argument("--guard", type=int, default=20_000)
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser("factorize",
                       help="print the squares and factorizations of a datum")
    p.add_argument("path")
    p.add_argument("id")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_factorize)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DocumentError, StructuralError, GuardExceeded, KernelInvariantError) as exc:
        payload = {"command": args.command, "error": str(exc), "exit": 2}
        if getattr(args, "json", False):
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print(f"error: {exc}")
            print("exit 2")
        return 2


if __name__ == "__main__":
    sys.exit(main())
