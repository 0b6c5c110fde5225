"""hetcat: a verification kernel for finite category theory.

Finite categories, functors, and natural transformations as explicit tables;
het-bifunctors of heteromorphisms with exhaustive representability search;
adjunctions assembled from universal elements and checked against every
factorization, identity, and isomorphism they induce.
"""

from .adjunction import (AbstractHet, Adjunction, AdjunctiveSquare, ChimeraNatTrans,
                         HalfAdjunction, ZBifunctor, ZigZagFactorization,
                         abstract_het, adjunctive_image_square, adjunctive_square,
                         adjunctive_square_from_transpose, build_adjunction,
                         check_chimera_nat_trans, chimera_counit, chimera_unit,
                         four_bifunctor_iso, over_and_back_and_triangles,
                         representation_roundtrip, transpose, transpose_inv,
                         z_bifunctor, zig_zag_factorize)
from .comma import (CommaCategory, comma_of_bifunctor, comma_of_functors,
                    half_lawvere_iso_check, hom_comma_equivalence, lawvere_iso_check)
from .errors import GuardExceeded, HetcatError, StructuralError
from .fincat import (FinCategory, FinFunctor, FunctorCategory, Morphism, NatTrans,
                     check_category, check_functor, check_nat_trans, compose_functors,
                     constant_functor, functor_category, identity_functor,
                     identity_nat_trans, opposite, pair_id)
from .het import (CandidateFailure, HetBifunctor, KernelInvariantError,
                  LeftRepresentation, NonRepresentabilityWitness,
                  RightRepresentation, build_het, check_bifunctor,
                  check_left_representation, check_right_representation,
                  co_universal_element_check, compare_left_representation,
                  compare_right_representation, dual, find_left_representation,
                  find_right_representation, hom_bifunctor,
                  universal_element_check)
from .report import LawReport, Violation

__version__ = "0.1.0"
