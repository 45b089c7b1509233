from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from pmvdual.algebra import (FinAlgebra, chain_algebra, hom_enumerate,
                             is_isomorphic, power, subalgebra_generated,
                             trivial_algebra)
from pmvdual.duality import dual_space
from pmvdual.skeleton import (Poset, adjunction_check, boolean_lattice,
                              boolean_power, is_dist_lattice_algebra,
                              monotone_maps, poset_isomorphic, priestley_dual,
                              priestley_power, skeleton, skeleton_carrier,
                              skeleton_functor_on_homs, skeleton_unit,
                              tau_table)
from pmvdual.errors import NonMemberError

from conftest import chain_lattice, idempotents_not_closed_under_join


def test_poset_validation():
    Poset(2, frozenset({(0, 0), (1, 1), (0, 1)}))
    with pytest.raises(ValueError):
        Poset(2, frozenset({(0, 0)}))                      # not reflexive
    with pytest.raises(ValueError):
        Poset(2, frozenset({(0, 0), (1, 1), (0, 1), (1, 0)}))


def test_skeleton_of_the_chain_is_the_two_element_lattice():
    for n in (2, 3, 4):
        assert skeleton_carrier(chain_algebra(n)) == (0, n)
        lat, carrier = skeleton(chain_algebra(n))
        assert lat.size == 2 and is_dist_lattice_algebra(lat)
        assert FinAlgebra.from_json(lat.to_json()) == lat


def test_skeleton_of_the_square_is_the_four_element_boolean_lattice():
    lat, carrier = skeleton(power(chain_algebra(2), 2))
    assert lat.size == 4
    assert FinAlgebra.from_json(lat.to_json()) == lat
    assert is_isomorphic(lat, boolean_lattice(2))


def test_skeleton_names_a_join_of_idempotents_that_is_not_one():
    with pytest.raises(NonMemberError, match="1 v 2 = 3"):
        skeleton(idempotents_not_closed_under_join())


def test_skeleton_functor_on_homs():
    a = power(chain_algebra(2), 2)
    h = hom_enumerate(a, chain_algebra(2))[0]
    sh = skeleton_functor_on_homs(h)
    assert sh.source.size == 4 and sh.target.size == 2


def test_priestley_dual_of_chains():
    # the k-element chain has k-1 prime filters, again a chain
    for k in (1, 2, 3, 4):
        p = priestley_dual(chain_lattice(k))
        assert Poset(p.size, p.leq) == p
        assert p.size == k - 1
        assert all(p.le(i, j) or p.le(j, i)
                   for i in range(p.size) for j in range(p.size))


def test_priestley_dual_of_the_boolean_lattice_is_an_antichain():
    p = priestley_dual(boolean_lattice(2))
    assert Poset(p.size, p.leq) == p
    assert p.size == 2
    assert p.leq == {(0, 0), (1, 1)}


def test_priestley_dual_rejects_non_idempotent_algebras():
    with pytest.raises(ValueError):
        priestley_dual(chain_algebra(2))


def test_monotone_maps_counts():
    antichain = Poset(2, frozenset({(0, 0), (1, 1)}))
    assert len(monotone_maps(antichain, 2)) == 9
    chain2 = Poset(2, frozenset({(0, 0), (1, 1), (0, 1)}))
    assert len(monotone_maps(chain2, 2)) == 6     # pairs v0 <= v1 in {0,1,2}
    empty = Poset(0, frozenset())
    assert monotone_maps(empty, 3) == [()]


def test_priestley_power_over_a_chain():
    # dual of the 3-chain is a 2-chain; monotone maps into {0,1/2,1} = 6
    pw = priestley_power(2, chain_lattice(3))
    assert pw.size == 6
    assert not is_isomorphic(pw, power(chain_algebra(2), 2))


def test_priestley_power_over_boolean_lattices_is_a_boolean_power():
    for n in (2, 3):
        for k in (0, 1, 2):
            assert is_isomorphic(priestley_power(n, boolean_lattice(k)),
                                 boolean_power(n, k))


def test_boolean_power_sizes():
    assert boolean_power(2, 0).size == 1
    assert boolean_power(2, 3).size == 27
    with pytest.raises(ValueError):
        boolean_power(2, -1)


def test_tau_table_on_the_chain():
    table = tau_table(chain_algebra(2), 2)
    assert table[(1, 1)] == 2 and table[(2, 1)] == 0
    assert table[(0, 0)] == 2


def test_tau_table_rejects_non_members():
    with pytest.raises(NonMemberError):
        tau_table(chain_algebra(3), 2)


def test_skeleton_unit_is_an_embedding():
    for a, n in [(chain_algebra(2), 2), (chain_algebra(4), 4),
                 (power(chain_algebra(2), 2), 2),
                 (subalgebra_generated(power(chain_algebra(2), 2), [1]), 2)]:
        u = skeleton_unit(a, n)
        assert u.injective


def test_skeleton_unit_is_onto_for_the_square():
    # the square is already a Priestley power of its own skeleton
    u = skeleton_unit(power(chain_algebra(2), 2), 2)
    assert u.surjective


def test_adjunction_for_chains_and_lattices():
    for a in (chain_algebra(2), power(chain_algebra(2), 2),
              trivial_algebra()):
        for lat in (trivial_algebra(), chain_lattice(2), chain_lattice(3),
                    boolean_lattice(2)):
            rep = adjunction_check(a, lat, 2)
            assert rep.ok, (a.label, lat.label)
            assert rep.upper_count == rep.lower_count


def test_adjunction_rejects_non_idempotent_second_factor():
    with pytest.raises(ValueError):
        adjunction_check(chain_algebra(2), chain_algebra(2), 2)


def test_dual_poset_equals_priestley_dual_of_skeleton():
    for a, n in [(chain_algebra(3), 3), (power(chain_algebra(2), 2), 2)]:
        lat, _ = skeleton(a)
        p = priestley_dual(lat)
        assert Poset(p.size, p.leq) == p
        x = dual_space(a, n)
        q = Poset(x.size, frozenset(x.order_pairs))
        assert poset_isomorphic(p, q)


# -- the relational kernel against brute force ----------------------------------

@st.composite
def posets(draw, size=None):
    """Transitive closure of random edges that rise in a hidden order."""
    size = draw(st.integers(0, 4)) if size is None else size
    rank = draw(st.permutations(range(size)))
    point = st.integers(0, max(size - 1, 0))
    edges = draw(st.frozensets(st.tuples(point, point))) if size else ()
    leq = {(u, u) for u in range(size)} | \
        {(u, v) for (u, v) in edges if rank[u] < rank[v]}
    while True:
        more = {(u, w) for (u, v) in leq for (v2, w) in leq if v == v2} - leq
        if not more:
            return Poset(size, frozenset(leq))
        leq |= more


def relabel(p, perm):
    return Poset(p.size, frozenset((perm[u], perm[v]) for (u, v) in p.leq))


@settings(deadline=None)
@given(posets(), st.integers(1, 3))
def test_monotone_maps_match_brute_force(p, n):
    brute = [m for m in product(range(n + 1), repeat=p.size)
             if all(m[u] <= m[v] for (u, v) in p.leq)]
    assert monotone_maps(p, n) == brute


@settings(deadline=None)
@given(st.data())
def test_poset_isomorphism_matches_a_permutation_scan(data):
    p = data.draw(posets())
    perm = data.draw(st.permutations(range(p.size)))
    assert poset_isomorphic(p, relabel(p, perm))
    q = data.draw(posets(size=data.draw(st.sampled_from(
        [p.size, data.draw(st.integers(0, 4))]))))
    scan = p.size == q.size and any(relabel(p, s) == q
                                    for s in permutations(range(p.size)))
    assert poset_isomorphic(p, q) == scan
