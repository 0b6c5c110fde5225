"""Product and exponential with a fixed index set, in both het readings.

The coreflective reading takes maps out of the product (cells are functions
coded over pair indices (i, t) -> i*|A| + t); the product functor represents
it on the left everywhere. The reflective reading takes maps into powers
(cells are functions into function-coded carriers); the inclusion of powers
represents it on the right everywhere.

Finiteness caveat: with |A| >= 2 the complementary sides cannot be total on
any nonempty finite grid (the exponential squares cardinalities and the
product doubles them, so their orbits leave every bound), which matches the
reflective/coreflective halves being the honest content at finite scale. For
|A| = 1 both functors are cardinality-preserving and the full adjunction is
built and verified end to end.

The element-level laws (the counit as evaluation, the unit as pairing, the
cellwise hom-count equality) do not need totality and are verified directly
on explicit sets by verify_elementwise.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..errors import GuardExceeded
from ..fincat import FinCategory, FinFunctor
from ..het import HetBifunctor
from .finset import finset_skeleton, fn_id, fn_images, function_category, function_het


def _power_category(y_max: int, a_size: int) -> FinCategory:
    """Full subcategory on the function-set carriers: objects pw_m of size m^|A|."""
    return function_category(f"Powers^{a_size}",
                             {f"pw{m}": m ** a_size for m in range(y_max + 1)},
                             lambda p, q: f"pm:{p}>{q}")


@dataclass(frozen=True, eq=False)
class ProdExpInstance:
    a_size: int
    x_skel: FinCategory                      # the X side, cardinalities 0..n
    y_skel: FinCategory                      # the Y side, large enough for products
    coreflective_het: HetBifunctor           # cell(k, m) = maps (k x A) -> m
    product_functor: FinFunctor              # expected left adjoint k -> k*|A|
    product_universals: dict[str, str]       # k -> identity pair coding in cell(k, k*|A|)
    ambient: FinCategory                     # ambient for the reflective reading
    powers: FinCategory                      # the power subcategory
    reflective_het: HetBifunctor             # cell(b, pw_m) = maps b -> m^|A|
    inclusion_functor: FinFunctor            # expected right adjoint pw_m -> m^|A|
    inclusion_universals: dict[str, str]     # pw_m -> identity coding
    exponential_partial: dict[str, str]      # m -> m^|A| for powers inside the X grid
    coreflective_full: bool                  # does the exponential stay inside the grid
    reflective_full: bool                    # is every ambient size a perfect power


def product_exponential(n: int, a_size: int, guard: int = 2,
                        a_guard: int = 2) -> ProdExpInstance:
    if n > guard or a_size > a_guard:
        raise GuardExceeded(
            f"product-exponential bounds n={n}, |A|={a_size} exceed guards "
            f"({guard}, {a_guard})", n * a_size)
    x_skel = finset_skeleton(n)
    y_skel = finset_skeleton(max(n, n * a_size))

    def times_a(hid: str) -> tuple[int, ...]:
        """The images of h x A on pairs coded (i, t) -> i*|A| + t."""
        return tuple(v * a_size + t for v in fn_images(hid) for t in range(a_size))

    # coreflective: cells are all functions on the coded product
    coreflective = function_het(f"product-maps[|A|={a_size}]", x_skel, y_skel,
                                lambda k: int(k) * a_size, int,
                                lambda k, m: f"xa:{k}>{m}", x_images=times_a)
    product_functor = FinFunctor(
        "TimesA", x_skel, y_skel,
        obj_map={str(k): str(k * a_size) for k in range(n + 1)},
        mor_map={h.id: fn_id(int(h.dom) * a_size, int(h.cod) * a_size, times_a(h.id))
                 for h in x_skel.morphisms},
    )
    product_universals = {
        str(k): f"xa:{k}>{k * a_size}:" + ",".join(map(str, range(k * a_size)))
        for k in range(n + 1)
    }

    # reflective: ambient must contain every power carrier
    ambient = finset_skeleton(max(n, n ** a_size))
    powers = _power_category(n, a_size)
    pcard = {f"pw{m}": m ** a_size for m in range(n + 1)}
    reflective = function_het(f"power-maps[|A|={a_size}]", ambient, powers,
                              int, pcard.__getitem__, lambda b, p: f"re:{b}>{p}")
    inclusion = FinFunctor(
        "IncludePowers", powers, ambient,
        obj_map={p: str(pcard[p]) for p in powers.objects},
        mor_map={q.id: fn_id(pcard[q.dom], pcard[q.cod], fn_images(q.id))
                 for q in powers.morphisms},
    )
    inclusion_universals = {
        p: f"re:{pcard[p]}>{p}:" + ",".join(map(str, range(pcard[p])))
        for p in powers.objects
    }
    exponential_partial = {str(m): str(m ** a_size) for m in range(n + 1)
                           if m ** a_size <= n}
    y_max = max(n, n * a_size)
    coreflective_full = all(m ** a_size <= n for m in range(y_max + 1))
    amb_max = max(n, n ** a_size)
    roots = {u ** a_size for u in range(n + 1)}
    reflective_full = all(b in roots for b in range(amb_max + 1))
    return ProdExpInstance(a_size, x_skel, y_skel, coreflective,
                           product_functor, product_universals,
                           ambient, powers, reflective, inclusion,
                           inclusion_universals, exponential_partial,
                           coreflective_full, reflective_full)


# ---------------------------------------------------------------------------
# element-level verification on explicit sets
# ---------------------------------------------------------------------------

def exponential_table(y_size: int, a_size: int) -> list[tuple[int, ...]]:
    """The elements of Y^A as image tuples, in deterministic code order."""
    return list(itertools.product(range(y_size), repeat=a_size))


def verify_elementwise(x_size: int, y_size: int, a_size: int) -> dict[str, bool]:
    """Check the unit, the evaluation counit, the triangles, and the hom count
    directly on explicit sets, with no category scaffolding.

    The unit sends x to the function t -> (x, t); the counit sends (g, t) to
    g(t); pairs (i, t) are coded as i*|A| + t.
    """
    exp_y = exponential_table(y_size, a_size)
    exp_code = {g: i for i, g in enumerate(exp_y)}
    # unit X -> (X x A)^A
    exp_xa = exponential_table(x_size * a_size, a_size)
    exp_xa_code = {g: i for i, g in enumerate(exp_xa)}
    unit = {x: exp_xa_code[tuple(x * a_size + t for t in range(a_size))]
            for x in range(x_size)}

    def evaluate(g_code: int, t: int) -> int:
        return exp_y[g_code][t]

    unit_is_pairing = all(
        exp_xa[unit[x]][t] == x * a_size + t
        for x in range(x_size) for t in range(a_size))
    # triangle on the product side: eval_(X x A) after (unit x A) is the identity
    exp_xa_of_xa = exponential_table(x_size * a_size, a_size)
    triangle_product = all(
        exp_xa_of_xa[unit[x]][t] == x * a_size + t
        for x in range(x_size) for t in range(a_size))
    # triangle on the power side: (eval_Y)^A after unit_(Y^A) is the identity
    triangle_power = True
    for g_code, g in enumerate(exp_y):
        recovered = tuple(evaluate(g_code, t) for t in range(a_size))
        if recovered != g:
            triangle_power = False
    hom_count = (y_size ** (x_size * a_size)) == (len(exp_y) ** x_size)
    return {
        "unit-is-pairing": unit_is_pairing,
        "triangle-product-side": triangle_product,
        "triangle-power-side": triangle_power,
        "hom-count-cellwise": hom_count,
    }
