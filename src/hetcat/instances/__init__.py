"""Executable finite instances of the concrete adjunctions under study."""

from __future__ import annotations

from ..adjunction import Adjunction, build_adjunction
from ..fincat import FinCategory
from ..het import KernelInvariantError, hom_bifunctor
from .finset import colimit_of, diagram_shape, finset_skeleton, limit_of
from .galois import GaloisInstance, all_functions, galois_connections, powerset_poset
from .limits import (ColimitsInstance, LimitsInstance, colimits_adjunction,
                     limits_adjunction)
from .pointed import PointedInstance, pointed_free_forgetful
from .preorder import PreorderInstance, preorder_adjunction_chain
from .prodexp import ProdExpInstance, product_exponential, verify_elementwise

__all__ = [
    "colimit_of", "diagram_shape", "finset_skeleton", "limit_of", "GaloisInstance",
    "all_functions", "galois_connections", "powerset_poset", "ColimitsInstance",
    "LimitsInstance", "colimits_adjunction", "limits_adjunction",
    "PointedInstance", "pointed_free_forgetful", "PreorderInstance",
    "preorder_adjunction_chain", "ProdExpInstance", "product_exponential",
    "verify_elementwise", "ur_adjunction",
]


def ur_adjunction(cat: FinCategory) -> Adjunction:
    """The identity self-adjunction: the hom-bifunctor birepresented by the
    identity functor on both sides, with identity unit and counit."""
    adj = build_adjunction(hom_bifunctor(cat))
    if not isinstance(adj, Adjunction):
        raise KernelInvariantError(
            f"hom-bifunctor of {cat.name} failed to birepresent: {adj.describe()}")
    for x in cat.objects:
        if adj.F.on_obj(x) != x or adj.G.on_obj(x) != x:
            raise KernelInvariantError(
                f"identity self-adjunction of {cat.name} recovered non-identity adjoints")
        if adj.eta(x) != cat.id_of(x) or adj.eps(x) != cat.id_of(x):
            raise KernelInvariantError(
                f"identity self-adjunction of {cat.name} has non-identity unit/counit")
    return adj
