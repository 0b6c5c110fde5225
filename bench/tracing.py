"""Span tracing from outside the program, and the per-layer metrics.

`Tracer.install()` rebinds the public names each layer exposes to its caller
with wrappers that record a span (name, start, end, parent span, job); no
file of the program changes. Spans stay in memory and are written out once,
when the timed process ends.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import hetcat.adjunction
import hetcat.cli
import hetcat.comma
import hetcat.het
import hetcat.instances
import hetcat.instances.limits

_INSTANCE_BUILDERS = (
    "finset_skeleton", "ur_adjunction", "galois_connections", "limits_adjunction",
    "colimits_adjunction", "product_exponential", "verify_elementwise",
    "preorder_adjunction_chain", "pointed_free_forgetful",
)

# (module, attribute, span name)
TARGETS = [
    (hetcat.cli, "loads_document", "documents.loads"),
    (hetcat.cli, "parse_document", "documents.parse"),
    (hetcat.cli, "dumps_document", "documents.dump"),
    (hetcat.cli, "check_category", "fincat.check_category"),
    (hetcat.cli, "check_functor", "fincat.check_functor.cli"),
    (hetcat.cli, "check_bifunctor", "het.check_bifunctor"),
    (hetcat.cli, "build_adjunction", "adjunction.build"),
    (hetcat.cli, "four_bifunctor_iso", "adjunction.four_iso"),
    (hetcat.cli, "over_and_back_and_triangles", "adjunction.identities"),
    (hetcat.cli, "lawvere_iso_check", "comma.iso"),
    (hetcat.cli, "half_lawvere_iso_check", "comma.half_iso"),
    (hetcat.cli, "representation_roundtrip", "adjunction.roundtrip"),
    *[(hetcat.instances, name, f"instances.{name}") for name in _INSTANCE_BUILDERS],
    (hetcat.instances.limits, "functor_category", "fincat.functor_category"),
    (hetcat.adjunction, "find_left_representation", "het.find_left"),
    (hetcat.adjunction, "find_right_representation", "het.find_right"),
    (hetcat.comma, "comma_of_functors", "comma.build"),
    (hetcat.comma, "comma_of_bifunctor", "comma.build"),
    (hetcat.comma, "check_functor", "fincat.check_functor"),
]

# candidate checks the searches make; counted, not spanned
_CANDIDATE_CHECKS = [(hetcat.het, "universal_element_check"),
                     (hetcat.het, "co_universal_element_check")]

_SEARCHES = ("het.find_left", "het.find_right")


class Tracer:
    """Collects spans as [name, start, end, parent index, job, extra]."""

    def __init__(self):
        self.spans: list[list] = []
        self.job = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def span(self, name: str, fn, *args, **kwargs):
        index = len(self.spans)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.job, {}]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()
        if name in _SEARCHES and hasattr(result, "failures"):
            record[5]["witness_failures"] = len(result.failures)
        return result

    def _count_candidate(self, fn, *args, **kwargs):
        result = fn(*args, **kwargs)
        if self._stack and self.spans[self._stack[-1]][0] in _SEARCHES:
            extra = self.spans[self._stack[-1]][5]
            extra["candidates"] = extra.get("candidates", 0) + 1
            extra["hits"] = extra.get("hits", 0) + bool(result[0])
        return result

    def install(self) -> None:
        def spanned(fn, name):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return self.span(name, fn, *args, **kwargs)
            return wrapper

        def counted(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return self._count_candidate(fn, *args, **kwargs)
            return wrapper

        for module, attr, name in TARGETS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, spanned(fn, name))
        for module, attr in _CANDIDATE_CHECKS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, counted(fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()


# ---------------------------------------------------------------------------
# per-layer metrics from the spans
# ---------------------------------------------------------------------------

# metric -> (span names or prefix*, "busy" or "self")
TIME_METRICS = {
    "comma.build_s": (("comma.build",), "busy"),
    "comma.iso_self_s": (("comma.iso", "comma.half_iso"), "self"),
    "fincat.check_functor_s": (("fincat.check_functor",), "busy"),
    "fincat.check_category_s": (("fincat.check_category",), "busy"),
    "instances.tabulate_s": (("instances.*",), "self"),
    "fincat.functor_category_s": (("fincat.functor_category",), "busy"),
    "het.find_left_s": (("het.find_left",), "busy"),
    "het.find_right_s": (("het.find_right",), "busy"),
    "het.check_bifunctor_s": (("het.check_bifunctor",), "busy"),
    "adjunction.assembly_self_s": (("adjunction.build",), "self"),
    "adjunction.four_iso_s": (("adjunction.four_iso",), "busy"),
    "adjunction.identities_s": (("adjunction.identities",), "busy"),
    "adjunction.roundtrip_self_s": (("adjunction.roundtrip",), "self"),
    "documents.parse_s": (("documents.loads", "documents.parse"), "busy"),
    "documents.dump_s": (("documents.dump",), "busy"),
    "cli.self_s": (("cli.main",), "self"),
}


def _matches(name: str, patterns) -> bool:
    return any(name == p or (p.endswith("*") and name.startswith(p[:-1]))
               for p in patterns)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children[i]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def layer_times(spans: list[list], factors: list[float]
                ) -> tuple[dict[str, float], dict[int, float]]:
    """Totals of every time metric, and the sum of self times per job.

    Each span's times are multiplied by its job's speed factor.
    """
    selfs = self_times(spans)
    totals = dict.fromkeys(TIME_METRICS, 0.0)
    per_job: dict[int, float] = defaultdict(float)
    for span, own in zip(spans, selfs):
        name, start, end, job = span[0], span[1], span[2], span[4]
        own, busy = own * factors[job], (end - start) * factors[job]
        per_job[job] += own
        for metric, (patterns, mode) in TIME_METRICS.items():
            if _matches(name, patterns):
                totals[metric] += own if mode == "self" else busy
    return totals, per_job


def search_counts(spans: list[list]) -> dict[str, int]:
    counts = {"candidates": 0, "hits": 0, "witness_failures": 0}
    for span in spans:
        for key in counts:
            counts[key] += span[5].get(key, 0)
    return counts
