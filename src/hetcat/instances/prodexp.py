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
built and verified end to end; for |A| = 0 every cell holds exactly one map,
so both readings are full adjunctions too.

The element-level laws (the unit as pairing, the counit as evaluation on
either side, the cellwise hom counts) do not need totality; verify_elementwise
checks them on both hets against closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import GuardExceeded
from ..fincat import FinCategory, FinFunctor
from ..het import HetBifunctor
from .finset import (finset_skeleton, fn_id, fn_images, function_category,
                     function_het, image_functor)


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
    y_max, amb_max = max(n, n * a_size), max(n, n ** a_size)
    # the bounds often coincide (n * |A| == n ** |A| at n = |A| = 2): build each once
    skeletons = {m: finset_skeleton(m) for m in {n, y_max, amb_max}}
    x_skel, y_skel = skeletons[n], skeletons[y_max]

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
    ambient = skeletons[amb_max]
    powers = _power_category(n, a_size)
    pcard = {f"pw{m}": m ** a_size for m in range(n + 1)}
    reflective = function_het(f"power-maps[|A|={a_size}]", ambient, powers,
                              int, pcard.__getitem__, lambda b, p: f"re:{b}>{p}")
    inclusion = image_functor("IncludePowers", powers, ambient,
                              {p: str(pcard[p]) for p in powers.objects})
    inclusion_universals = {
        p: f"re:{pcard[p]}>{p}:" + ",".join(map(str, range(pcard[p])))
        for p in powers.objects
    }
    exponential_partial = {str(m): str(m ** a_size) for m in range(n + 1)
                           if m ** a_size <= n}
    # with |A| = 0 every power m^0 is a point and every cell one map: both full
    coreflective_full = a_size == 0 or all(m ** a_size <= n for m in range(y_max + 1))
    roots = {u ** a_size for u in range(n + 1)}
    reflective_full = a_size == 0 or all(b in roots for b in range(amb_max + 1))
    return ProdExpInstance(a_size, x_skel, y_skel, coreflective,
                           product_functor, product_universals,
                           ambient, powers, reflective, inclusion,
                           inclusion_universals, exponential_partial,
                           coreflective_full, reflective_full)


# ---------------------------------------------------------------------------
# element-level verification on the instance's own tables
# ---------------------------------------------------------------------------

def verify_elementwise(inst: ProdExpInstance) -> dict[str, bool]:
    """The pairing unit, both triangles and the hom counts, read from the
    instance's hets against closed forms the kernel does not compute: u_k lies
    in cell (k, k*|A|) and h . u_k = TimesA(h) . u_j for h: j -> k; each c in
    cell (k, m) is u_k acted on by the map k*|A| -> m with c's images, and
    dually each c in cell (b, pw_m) is e_m acted on by the map b -> m^|A| with
    c's images, the e_m natural against the inclusion; |cell(k, m)| =
    m^(k*|A|) and |cell(b, pw_m)| = (m^|A|)^b.
    """
    a = inst.a_size
    core, refl = inst.coreflective_het, inst.reflective_het
    us, es = inst.product_universals, inst.inclusion_universals
    size = {p: int(p[2:]) ** a for p in refl.a_cat.objects}     # pw_m has m^|A| points
    unit = all(core.cell_of(us[k]) == (k, str(int(k) * a)) for k in core.x_cat.objects) and all(
        core.act_l(h.id, us[h.cod]) == core.act_r(inst.product_functor.on_mor(h.id), us[h.dom])
        for h in core.x_cat.morphisms)
    product = all(core.act_r(f"{int(k) * a}>{m}:{c.rpartition(':')[2]}", us[k]) == c
                  for (k, m), cell in core.cells.items() for c in cell)
    power = all(refl.act_l(f"{b}>{size[p]}:{c.rpartition(':')[2]}", es[p]) == c
                for (b, p), cell in refl.cells.items() for c in cell) and all(
        refl.act_r(k.id, es[k.dom]) == refl.act_l(inst.inclusion_functor.on_mor(k.id), es[k.cod])
        for k in refl.a_cat.morphisms)
    counts = all(len(cell) == int(m) ** (int(k) * a) for (k, m), cell in core.cells.items()) \
        and all(len(cell) == size[p] ** int(b) for (b, p), cell in refl.cells.items())
    return {"unit-is-pairing": unit, "triangle-product-side": product,
            "triangle-power-side": power, "hom-count-cellwise": counts}
