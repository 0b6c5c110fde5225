"""Workload definitions: the jobs each workload runs, the set-up that writes
their input documents, the oracle facts each verdict is checked against, and
the input sizes of every job.

A job is one call of `hetcat.cli.main(argv)`. Set-up builds every instance
through the public `hetcat.instances` API and writes documents through
`hetcat.documents`; the timed process only sees the argv lists and the files.

Every workload ends with the same four tiny jobs (`_tail`), so that every
layer the traced run reports does some work on every workload. The tail is
under 5% of any workload's pass time.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from hetcat import instances
from hetcat.documents import (bundle_to_payload, category_to_payload,
                              dumps_document, make_document)
from hetcat.fincat import FinCategory, functor_category
from hetcat.het import HetBifunctor

WORKLOADS = ("galois-sweep", "closed-large", "half-witness", "check-tables")

# The guard every demo and adjoint job runs with (the CLI default).
GUARD = 20_000


@dataclass
class Job:
    key: str                         # stable name; keys the pinned digests
    argv: list[str]                  # "{work}" stands for the work directory
    kind: str                        # "adjoint", "check" or "demo"
    doc: str = ""                    # input document, relative to the work dir
    export: str = ""                 # exported document, relative to the work dir
    expect: dict = field(default_factory=dict)       # adjoint object maps by formula
    # tables for the size count; not sent to the timed process
    hets: list = field(default_factory=list)         # (het, comma copies built)
    cats: list = field(default_factory=list)         # categories of a check job
    tail: bool = False               # one of the tiny jobs every workload ends with


# ---------------------------------------------------------------------------
# job builders
# ---------------------------------------------------------------------------

def _write(work: Path, name: str, kind: str, payload: dict) -> str:
    (work / name).write_text(dumps_document(make_document(kind, payload, name=name)))
    return name


def _bundle_job(work: Path, key: str, het: HetBifunctor, left: dict,
                right: dict) -> Job:
    """`adjoint --json` on a bundle whose adjoints are known by formula."""
    doc = _write(work, f"{key}.json", "adjunction-bundle",
                 bundle_to_payload(het, left, right))
    return Job(key, ["adjoint", "{work}/" + doc, "--json"], "adjoint",
               doc=doc, expect={"left_adjoint": dict(left), "right_adjoint": dict(right)},
               hets=[(het, 3)])


def _check_category_job(work: Path, key: str, cat: FinCategory) -> Job:
    doc = _write(work, f"{key}.json", "category", category_to_payload(cat))
    return Job(key, ["check", "{work}/" + doc, "--json"], "check", doc=doc, cats=[cat])


def _check_bundle_job(work: Path, key: str, het: HetBifunctor, left: dict,
                      right: dict) -> Job:
    doc = _write(work, f"{key}.json", "adjunction-bundle",
                 bundle_to_payload(het, left, right))
    return Job(key, ["check", "{work}/" + doc, "--json"], "check", doc=doc,
               hets=[(het, 0)], cats=[het.x_cat, het.a_cat])


def _galois_jobs(work: Path, s: int, t: int, maps) -> list[Job]:
    s_univ = tuple(str(i) for i in range(s))
    t_univ = tuple("abcdefgh"[:t])
    jobs = []
    for f_map in maps(s_univ, t_univ):
        gi = instances.galois_connections(f_map, s_univ, t_univ, s_guard=s, t_guard=t)
        tag = "".join(f_map[x] for x in s_univ)
        jobs.append(_bundle_job(work, f"galois-{s}{t}-{tag}-lower", gi.lower_het,
                                gi.direct_image, gi.preimage))
        jobs.append(_bundle_job(work, f"galois-{s}{t}-{tag}-upper", gi.upper_het,
                                gi.preimage, gi.f_star))
    return jobs


def _colimits_demo(shape: str, n: int, export: bool) -> Job:
    inst = instances.colimits_adjunction(shape, n, guard=GUARD)
    key = f"demo-colimits-{shape}-{n}"
    argv = ["demo", "colimits", "--shape", shape, "--n", str(n), "--json"]
    job = Job(key, argv, "demo", hets=[(inst.het, 0 if inst.delta_escape else 3)])
    if export:
        job.export = f"{key}.export.json"
        job.argv += ["--export", "{work}/" + job.export]
    return job


def _limits_demo(shape: str, n: int) -> Job:
    inst = instances.limits_adjunction(shape, n, guard=GUARD)
    return Job(f"demo-limits-{shape}-{n}",
               ["demo", "limits", "--shape", shape, "--n", str(n), "--json"], "demo",
               hets=[(inst.het, 0 if inst.lim_escape else 3)])


def _pointed_demo(n: int) -> Job:
    inst = instances.pointed_free_forgetful(n)
    # a half-representation: only the one-sided comma check runs (two commas)
    return Job(f"demo-pointed-{n}", ["demo", "pointed", "--n", str(n), "--json"],
               "demo", hets=[(inst.het, 2)])


def _preorder_demo(n: int) -> Job:
    inst = instances.preorder_adjunction_chain(n)
    # the full suite runs on the lower connection only
    return Job(f"demo-preorder-{n}", ["demo", "preorder", "--n", str(n), "--json"],
               "demo", hets=[(inst.lower_het, 3), (inst.upper_het, 0),
                             (inst.poset_het, 0)])


def _prodexp_demo(n: int, a: int) -> Job:
    inst = instances.product_exponential(n, a)
    key = f"demo-prodexp-{n}-{a}"
    export = f"{key}.export.json"
    return Job(key, ["demo", "prodexp", "--n", str(n), "--a", str(a), "--json",
                     "--export", "{work}/" + export], "demo", export=export,
               hets=[(inst.coreflective_het, 3 if inst.coreflective_full else 0),
                     (inst.reflective_het, 0)])


def _limits_bundle(shape: str, n: int):
    inst = instances.limits_adjunction(shape, n, guard=GUARD)
    return inst, inst.het, dict(inst.delta.obj_map), dict(inst.lim.obj_map)


def _colimits_bundle(shape: str, n: int):
    inst = instances.colimits_adjunction(shape, n, guard=GUARD)
    return inst.het, dict(inst.colim.obj_map), dict(inst.delta.obj_map)


def _tail(work: Path) -> list[Job]:
    _, het, left, right = _limits_bundle("parallel-pair", 1)
    jobs = [
        _check_category_job(work, "tail-check-finset-2", instances.finset_skeleton(2)),
        _bundle_job(work, "tail-adjoint-limits-parallel-pair-1", het, left, right),
        _colimits_demo("discrete-2", 1, export=True),
        _pointed_demo(1),
    ]
    for job in jobs:
        job.tail = True
    return jobs


def _spread_maps(s_univ, t_univ):
    """Three maps S -> T with images of every size from 1 to |T|."""
    n = len(s_univ)
    return [dict(zip(s_univ, "a" * n)),
            dict(zip(s_univ, "a" * (n - 2) + "bb")),
            dict(zip(s_univ, (t_univ * n)[:n]))]


def setup(workload: str, work: Path) -> list[Job]:
    """Write the workload's documents into `work` and return its jobs."""
    if workload == "galois-sweep":
        jobs = (_galois_jobs(work, 3, 3, instances.all_functions)
                + _galois_jobs(work, 4, 2, instances.all_functions))
    elif workload == "closed-large":
        jobs = _galois_jobs(work, 6, 3, _spread_maps)
    elif workload == "half-witness":
        jobs = [_colimits_demo("discrete-2", 2, export=True),
                _limits_demo("discrete-2", 2),
                _pointed_demo(2),
                _preorder_demo(2),
                _prodexp_demo(1, 2)]
    elif workload == "check-tables":
        lim_inst, het, left, right = _limits_bundle("parallel-pair", 2)
        co_het, co_left, co_right = _colimits_bundle("parallel-pair", 2)
        diagrams = functor_category(lim_inst.shape, lim_inst.skeleton, guard=GUARD)
        # an odd job count keeps the median job time inside one job's times
        jobs = [_check_category_job(work, "check-diagrams-parallel-pair-2", diagrams),
                _check_bundle_job(work, "check-limits-parallel-pair-2", het, left, right),
                _check_bundle_job(work, "check-colimits-parallel-pair-2", co_het,
                                  co_left, co_right)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return jobs + _tail(work)


# ---------------------------------------------------------------------------
# input sizes, counted from the tables the documents were written from
# ---------------------------------------------------------------------------

def _category_counts(cat: FinCategory) -> Counter:
    into: Counter = Counter(m.cod for m in cat.morphisms)
    out: Counter = Counter(m.dom for m in cat.morphisms)
    return Counter(objects=len(cat.objects), morphisms=len(cat.morphisms),
                   comp_entries=len(cat.comp),
                   composable_triples=sum(into[m.dom] * out[m.cod]
                                          for m in cat.morphisms))


def _het_comma_counts(het: HetBifunctor) -> tuple[int, int]:
    """Morphisms and composition entries of the comma category of `het`.

    A morphism from c in (x, a) to c' in (x', a') is a pair j: x -> x',
    k: a -> a' with k.c = c'.j. Composition entries are composable pairs.
    """
    hom_x: dict = {}
    hom_a: dict = {}
    for m in het.x_cat.morphisms:
        hom_x.setdefault((m.dom, m.cod), []).append(m.id)
    for m in het.a_cat.morphisms:
        hom_a.setdefault((m.dom, m.cod), []).append(m.id)
    elems = [(x, a, c) for (x, a), cell in het.cells.items() for c in cell]
    into: Counter = Counter()
    out: Counter = Counter()
    for x, a, c in elems:
        for x2, a2, c2 in elems:
            js, ks = hom_x.get((x, x2)), hom_a.get((a, a2))
            if not js or not ks:
                continue
            for j in js:
                back = het.act_left[j][c2]
                for k in ks:
                    if het.act_right[k][c] == back:
                        out[c] += 1
                        into[c2] += 1
    return sum(out.values()), sum(into[c] * out[c] for _, _, c in elems)


def job_sizes(job: Job) -> dict[str, int]:
    """Sizes of every table the job reads or the command tabulates."""
    cats: dict[int, FinCategory] = {id(c): c for c in job.cats}
    sizes: Counter = Counter()
    for het, copies in job.hets:
        cats.setdefault(id(het.x_cat), het.x_cat)
        cats.setdefault(id(het.a_cat), het.a_cat)
        sizes["het_elements"] += sum(len(cell) for cell in het.cells.values())
        sizes["action_entries"] += (sum(len(t) for t in het.act_left.values())
                                    + sum(len(t) for t in het.act_right.values()))
        if copies:
            morphisms, entries = _het_comma_counts(het)
            sizes["comma_morphisms"] += copies * morphisms
            sizes["comma_comp_entries"] += copies * entries
    for cat in cats.values():
        sizes.update(_category_counts(cat))
    keys = ("objects", "morphisms", "comp_entries", "composable_triples",
            "action_entries", "het_elements", "comma_morphisms", "comma_comp_entries")
    return {k: sizes[k] for k in keys}
