"""Shared fixtures. Instance builds are session-scoped: they are pure values
and some (the diagram categories) are expensive to tabulate."""

from __future__ import annotations

import pytest
from hypothesis import Phase, settings

from hetcat import (Adjunction, FinCategory, Morphism, build_adjunction,
                    hom_bifunctor)
from hetcat.instances import (colimits_adjunction, finset_skeleton,
                              galois_connections, limits_adjunction,
                              pointed_free_forgetful, preorder_adjunction_chain,
                              product_exponential)
from hetcat.instances.galois import powerset_poset

# `.github/check_mutants.py` runs with this profile: a mutant is killed by
# the first failing example, so the shrink phase, and the explain phase
# that follows it, are left out
settings.register_profile("mutants", phases=[Phase.explicit, Phase.reuse, Phase.generate,
                                             Phase.target])


@pytest.fixture(scope="session")
def terminal_cat():
    return FinCategory("1", ("t",), (Morphism("id_t", "t", "t"),),
                       {"t": "id_t"}, {("id_t", "id_t"): "id_t"})


@pytest.fixture(scope="session")
def chain2():
    return FinCategory(
        "chain2", ("0", "1"),
        (Morphism("i0", "0", "0"), Morphism("i1", "1", "1"), Morphism("le", "0", "1")),
        {"0": "i0", "1": "i1"},
        {("i0", "i0"): "i0", ("i1", "i1"): "i1",
         ("i0", "le"): "le", ("le", "i1"): "le"})


@pytest.fixture(scope="session")
def skeleton1():
    return finset_skeleton(1)


@pytest.fixture(scope="session")
def skeleton2():
    return finset_skeleton(2)


@pytest.fixture(scope="session")
def powerset2():
    return powerset_poset("P2", ("0", "1"))


GALOIS_MAP = {"0": "a", "1": "a", "2": "b"}
GALOIS_S = ("0", "1", "2")
GALOIS_T = ("a", "b")


@pytest.fixture(scope="session")
def galois():
    return galois_connections(GALOIS_MAP, GALOIS_S, GALOIS_T)


@pytest.fixture(scope="session")
def galois_lower_adj(galois):
    adj = build_adjunction(galois.lower_het)
    assert isinstance(adj, Adjunction)
    return adj


@pytest.fixture(scope="session")
def galois_upper_adj(galois):
    adj = build_adjunction(galois.upper_het)
    assert isinstance(adj, Adjunction)
    return adj


@pytest.fixture(scope="session")
def limits_pp1():
    return limits_adjunction("parallel-pair", 1)


@pytest.fixture(scope="session")
def limits_pp2():
    return limits_adjunction("parallel-pair", 2)


@pytest.fixture(scope="session")
def limits_pp2_adj(limits_pp2):
    adj = build_adjunction(limits_pp2.het)
    assert isinstance(adj, Adjunction)
    return adj


@pytest.fixture(scope="session")
def colimits_pp2():
    return colimits_adjunction("parallel-pair", 2)


@pytest.fixture(scope="session")
def colimits_pp2_adj(colimits_pp2):
    adj = build_adjunction(colimits_pp2.het)
    assert isinstance(adj, Adjunction)
    return adj


@pytest.fixture(scope="session")
def preorder2():
    return preorder_adjunction_chain(2)


@pytest.fixture(scope="session")
def pointed2():
    return pointed_free_forgetful(2)


@pytest.fixture(scope="session")
def prodexp22():
    return product_exponential(2, 2)


@pytest.fixture(scope="session")
def prodexp21():
    return product_exponential(2, 1)


@pytest.fixture(scope="session")
def ur_chain2(chain2):
    return build_adjunction(hom_bifunctor(chain2))
