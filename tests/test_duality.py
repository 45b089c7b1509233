from functools import lru_cache, reduce
from itertools import permutations, product

import pytest
from hypothesis import example, given, settings, strategies as st

from pmvdual.algebra import (_blocks_from_classes, all_subalgebra_carriers,
                             chain_algebra, congruences, hom_enumerate, power,
                             restrict, subalgebra_generated)
from pmvdual.algebra import product as algebra_product
from pmvdual.duality import (MembershipReport, StructMorphism, StructSpace,
                             alter_ego, congruence_substructure_check,
                             disjoint_union, dual_algebra, dual_points,
                             dual_space, empty_space, evaluation_e,
                             evaluation_eps, relation_keys, spaces_isomorphic,
                             struct_morphism_maps, struct_space_to_dot,
                             x2_axiom_check, xn_membership)
from pmvdual.errors import NonMemberError, WrongSignatureError
from pmvdual.relations import order_failure, top_seq


def checked(x):
    """The same space through the checking constructor."""
    return StructSpace(x.n, x.size, x.relations)


def two_space(sharp, order):
    return StructSpace(2, max((max(p) for p in order), default=-1) + 1,
                       {(2,): frozenset(sharp), (1,): frozenset(order)})


def test_relation_keys_match_the_lattice():
    assert relation_keys(2) == ((2,), (1,))
    assert len(relation_keys(4)) == 7


def test_alter_ego_relations():
    ae = alter_ego(2)
    assert all(checked(alter_ego(n)) == alter_ego(n) for n in range(1, 6))
    assert ae.size == 3
    assert ae.rel((2,)) == {(0, 0), (0, 1), (0, 2), (1, 2), (2, 2)}
    assert ae.rel((1,)) == {(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)}


def test_the_shared_alter_ego_is_read_only():
    before = dict(alter_ego(2).relations)
    with pytest.raises(TypeError):
        alter_ego(2).relations[(2,)] = frozenset()
    assert alter_ego(2).relations == before
    assert len(alter_ego(2).rel((2,))) == 5


def test_signature_is_enforced():
    with pytest.raises(WrongSignatureError):
        StructSpace(2, 1, {(1,): frozenset()})
    with pytest.raises(ValueError):
        StructSpace(2, 1, {(2,): frozenset(), (1,): frozenset({(0, 1)})})


def test_struct_space_json_roundtrip():
    ae = alter_ego(4)
    again = StructSpace.from_json(ae.to_json())
    assert again == ae


def test_morphism_validation():
    ae = alter_ego(2)
    x = two_space({(0, 1)}, {(0, 0), (0, 1), (1, 1)})
    StructMorphism(x, ae, (0, 2))
    with pytest.raises(ValueError):
        StructMorphism(x, ae, (1, 1))       # (1,1) not in the sharp relation


def test_morphism_enumeration_is_lexicographic():
    x = two_space(set(), {(0, 0)})
    maps = struct_morphism_maps(x, alter_ego(2))
    assert maps == [(0,), (1,), (2,)]


def test_dual_of_the_chain_is_one_point():
    for n in (2, 3, 4):
        x = dual_space(chain_algebra(n), n)
        assert x.size == 1
        assert x.order_pairs == {(0, 0)}


def test_dual_of_the_square_is_a_discrete_pair():
    x = dual_space(power(chain_algebra(2), 2), 2)
    assert x.size == 2
    assert x.order_pairs == {(0, 0), (1, 1)}
    assert x.rel((2,)) == frozenset()


def test_dual_algebra_of_the_one_point_space():
    x = two_space(set(), {(0, 0)})
    e = dual_algebra(x)
    assert e.size == 3            # morphisms into the 3-element alter ego


def test_evaluation_e_on_the_square():
    rep = evaluation_e(power(chain_algebra(2), 2), 2)
    assert rep.bijective
    assert rep.hom.source.size == 9 and rep.hom.target.size == 9


def test_evaluation_e_on_a_proper_subalgebra():
    a = subalgebra_generated(power(chain_algebra(2), 2), [4])  # diagonal
    rep = evaluation_e(a, 2)
    assert rep.bijective and rep.hom.target.size == 3


def test_evaluation_eps_is_an_isomorphism_on_the_alter_ego():
    rep = evaluation_eps(alter_ego(2), 2)
    assert rep.isomorphism


def test_evaluation_eps_rejects_non_members():
    bad = two_space(set(), {(0, 0), (1, 1), (0, 1), (1, 0)})
    with pytest.raises(NonMemberError):
        evaluation_eps(bad, 2)


def test_membership_witnesses():
    # a symmetric order pair cannot be separated
    bad = two_space(set(), {(0, 0), (1, 1), (0, 1), (1, 0)})
    rep = xn_membership(bad, 2)
    assert not rep.member and rep.witness[0] == "separation"
    # a missing loop cannot be avoided
    bad2 = StructSpace(2, 1, {(2,): frozenset(), (1,): frozenset()})
    rep2 = xn_membership(bad2, 2)
    assert not rep2.member and rep2.witness[0] == "relation"


def test_empty_space_is_a_member():
    assert xn_membership(empty_space(2), 2).member
    assert xn_membership(empty_space(3), 3).member
    assert checked(empty_space(3)) == empty_space(3)


def test_x2_axioms_on_good_and_bad_spaces():
    good = two_space({(0, 1)}, {(0, 0), (0, 1), (1, 1)})
    rep = x2_axiom_check(good)
    assert rep.passes
    # sharp not inside the order
    bad_a = two_space({(1, 0)}, {(0, 0), (0, 1), (1, 1)})
    assert not x2_axiom_check(bad_a).axiom_a
    # order not antisymmetric
    bad_b = two_space(set(), {(0, 0), (1, 1), (0, 1), (1, 0)})
    rep_b = x2_axiom_check(bad_b)
    assert not rep_b.axiom_b and rep_b.witnesses["b"][0] == "not antisymmetric"
    # ordered pair with no separating upset/downset pair: the sharp loop
    # at the bottom forces the bottom into every candidate downset
    bad_c = two_space({(0, 0)}, {(0, 0), (0, 1), (1, 1)})
    rep_c = x2_axiom_check(bad_c)
    assert rep_c.axiom_a and rep_c.axiom_b and not rep_c.axiom_c
    assert rep_c.witnesses["c"] == (0, 1)


def test_x2_check_requires_n2():
    with pytest.raises(WrongSignatureError):
        x2_axiom_check(alter_ego(3))


def test_congruence_substructure_antiisomorphism():
    assert congruence_substructure_check(chain_algebra(2), 2)
    assert congruence_substructure_check(power(chain_algebra(2), 2), 2)
    assert congruence_substructure_check(chain_algebra(4), 4)


def oracle_congruence_substructure_check(a, n):
    """The check with every pair of subsets compared: each theta(S) a
    congruence, as many as the congruences, and S1 <= S2 iff theta(S2)
    refines theta(S1)."""
    homs = dual_points(a, n)
    cons = set(congruences(a))
    p = len(homs)
    seen = {}
    for mask in range(1 << p):
        subset = [i for i in range(p) if mask >> i & 1]
        theta = _blocks_from_classes(
            [tuple(homs[i](t) for i in subset) for t in range(a.size)])
        seen[frozenset(subset)] = theta
        if theta not in cons:
            return False
    if len(set(seen.values())) != len(cons):
        return False

    def refines(fine, coarse):
        cls = coarse.class_of()
        return all(len({cls[t] for t in bl}) == 1 for bl in fine.blocks)

    return all((s1 <= s2) == refines(seen[s2], seen[s1])
               for s1 in seen for s2 in seen)


def test_congruence_substructure_check_matches_the_oracle(suite, cube_suite):
    # last, three algebras outside the quasi-variety: two with no point,
    # and PL_2 x PL_3 at n = 2, with one point and four congruences
    cases = suite + [(2, a) for a in cube_suite] + [
        (n, chain_algebra(n)) for n in (1, 2, 3, 4)] + [
        (2, chain_algebra(4)), (3, power(chain_algebra(2), 2)),
        (2, algebra_product(chain_algebra(2), chain_algebra(3)))]
    verdicts = [congruence_substructure_check(a, n) for n, a in cases]
    assert verdicts == [oracle_congruence_substructure_check(a, n)
                        for n, a in cases]
    assert verdicts.count(False) == 3 and not any(verdicts[-3:])


def test_disjoint_union_and_space_isomorphism():
    x = dual_space(chain_algebra(2), 2)
    u = disjoint_union(x, x)
    assert u.size == 2
    assert spaces_isomorphic(u, dual_space(power(chain_algebra(2), 2), 2))
    assert not spaces_isomorphic(u, two_space({(0, 1)},
                                              {(0, 0), (0, 1), (1, 1)}))


def test_dot_export():
    dot = struct_space_to_dot(alter_ego(2))
    assert "digraph" in dot and "style=dashed" in dot


# -- the relational kernel against brute force ----------------------------------

@st.composite
def spaces(draw, n, size=None):
    size = draw(st.integers(0, 4)) if size is None else size
    point = st.integers(0, max(size - 1, 0))
    pairs = st.frozensets(st.tuples(point, point)) if size else \
        st.just(frozenset())
    return StructSpace(n, size, {key: draw(pairs) for key in relation_keys(n)})


def relabel(x, perm):
    return StructSpace(x.n, x.size, {
        key: frozenset((perm[u], perm[v]) for (u, v) in pairs)
        for key, pairs in x.relations.items()})


@settings(deadline=None)
@given(st.data())
def test_morphism_search_matches_brute_force(data):
    n = data.draw(st.integers(1, 4))
    x, y = data.draw(spaces(n)), data.draw(spaces(n))
    for target in (y, alter_ego(n)):
        brute = [m for m in product(range(target.size), repeat=x.size)
                 if all((m[u], m[v]) in target.relations[key]
                        for key, pairs in x.relations.items()
                        for (u, v) in pairs)]
        assert struct_morphism_maps(x, target) == brute


@settings(deadline=None)
@given(st.data())
def test_space_isomorphism_matches_a_permutation_scan(data):
    n = data.draw(st.integers(1, 4))
    x = data.draw(spaces(n))
    perm = data.draw(st.permutations(range(x.size)))
    assert spaces_isomorphic(x, relabel(x, perm))
    y = data.draw(spaces(n, size=data.draw(st.sampled_from(
        [x.size, data.draw(st.integers(0, 4))]))))
    scan = x.size == y.size and any(relabel(x, p) == y
                                    for p in permutations(range(x.size)))
    assert spaces_isomorphic(x, y) == scan


# -- membership against the full-list scan ----------------------------------------

def separation_scan(x):
    """The membership test by one list of every morphism into the alter
    ego, scanned for each pair: the deliberate oracle of the per-pair
    witness search."""
    maps = struct_morphism_maps(x, alter_ego(x.n))
    for p in range(x.size):
        for q in range(p + 1, x.size):
            if not any(m[p] != m[q] for m in maps):
                return MembershipReport(False, ("separation", p, q))
    for key in sorted(x.relations):
        target = alter_ego(x.n).relations[key]
        for p in range(x.size):
            for q in range(x.size):
                if (p, q) not in x.relations[key] and not any(
                        (m[p], m[q]) not in target for m in maps):
                    return MembershipReport(False, ("relation", key, (p, q)))
    return MembershipReport(True)


def discrete_space(n, size):
    """The dual of PL_n^size: size copies of the dual of the chain."""
    return reduce(disjoint_union, [dual_space(chain_algebra(n), n)] * size,
                  empty_space(n))


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_membership_matches_the_full_list_scan(data):
    n = data.draw(st.integers(1, 4))
    x = data.draw(spaces(n))
    assert xn_membership(x, n) == separation_scan(x)


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_membership_matches_the_scan_on_perturbed_discrete_spaces(data):
    n = data.draw(st.integers(1, 4))
    x = discrete_space(n, data.draw(st.integers(1, 5 if n < 4 else 4)))
    rels = dict(x.relations)
    for _ in range(data.draw(st.integers(0, 2))):
        key = data.draw(st.sampled_from(sorted(rels)))
        pair = data.draw(st.tuples(st.integers(0, x.size - 1),
                                   st.integers(0, x.size - 1)))
        rels[key] = rels[key] ^ {pair}          # add or remove the pair
    y = StructSpace(n, x.size, rels)
    assert xn_membership(y, n) == separation_scan(y)


def test_a_discrete_space_of_twelve_points_is_a_member():
    # 5^12 morphisms into the alter ego: too many to list
    assert xn_membership(discrete_space(4, 12), 4) == MembershipReport(True)


def test_a_missing_loop_of_the_last_point_needs_no_search():
    # no image of point 11 avoids the order, which the walk sees before
    # it expands points 0..10 (5^11 prefixes, past the node budget)
    x, order = discrete_space(4, 12), top_seq(4).y
    y = StructSpace(4, 12, {**x.relations,
                            order: x.order_pairs - {(11, 11)}})
    assert xn_membership(y, 4) == MembershipReport(
        False, ("relation", order, (11, 11)))


# -- the n = 2 axioms against the up-set scan --------------------------------------

def x2_axiom_scan(x):
    """The n = 2 axioms, with (c) decided over the list of every up-set
    and every down-set of the order: the deliberate oracle of the
    per-pair search in x2_axiom_check.  Returns the report's verdicts
    and witnesses."""
    sharp, order = x.relations[(2,)], x.relations[(1,)]
    witnesses = {}
    axiom_a = sharp <= order
    if not axiom_a:
        witnesses["a"] = sorted(sharp - order)[0]
    failure = order_failure(x.size, order)
    axiom_b = failure is None
    if not axiom_b:
        witnesses["b"] = failure
    axiom_c = axiom_b
    if axiom_b:
        points = frozenset(range(x.size))
        subsets = [frozenset(p for p in points if mask >> p & 1)
                   for mask in range(1 << x.size)]
        ups = [u for u in subsets
               if all(v in u for (w, v) in order if w in u)]
        downs = [points - u for u in ups]
        for (p, q) in sorted(order - sharp):
            if not any(all(z in d or z2 in u for (z, z2) in sharp)
                       for u in ups if q not in u
                       for d in downs if p not in d):
                axiom_c, witnesses["c"] = False, (p, q)
                break
    return axiom_a, axiom_b, axiom_c, witnesses


@st.composite
def two_spaces(draw):
    """n = 2 spaces of at most 6 points.  The order is the transitive
    closure of random pairs that rise in a random ranking, sometimes
    with one pair toggled; the sharp relation is a random part of it
    and up to three random pairs."""
    size = draw(st.integers(0, 6))
    rank = draw(st.permutations(range(size)))
    point = st.integers(0, max(size - 1, 0))

    def pairs(most):
        return draw(st.frozensets(st.tuples(point, point),
                                  max_size=most if size else 0))

    order = {(p, p) for p in range(size)} | {
        (rank[i], rank[j]) for (i, j) in pairs(size * size) if i < j}
    for k in range(size):
        order |= {(u, v) for (u, w) in order if w == k
                  for (w2, v) in order if w2 == k}
    order = frozenset(order) ^ pairs(1)
    sharp = draw(st.frozensets(st.sampled_from(sorted(order)))) \
        if order else frozenset()
    return StructSpace(2, size, {(2,): sharp | pairs(3), (1,): order})


@settings(deadline=None, max_examples=300)
@given(two_spaces())
@example(two_space(sharp={(0, 0), (0, 1), (1, 1)},     # sharp = order:
                   order={(0, 0), (0, 1), (1, 1)}))   # nothing to check
def test_x2_axioms_match_the_up_set_scan(x):
    rep = x2_axiom_check(x)
    assert (rep.axiom_a, rep.axiom_b, rep.axiom_c, rep.witnesses) == \
        x2_axiom_scan(x)


# -- the duality on random subalgebras of chain powers ----------------------------

@lru_cache(maxsize=None)
def chain_power_subalgebras(n, k):
    big = power(chain_algebra(n), k)
    return [restrict(big, c) for c in all_subalgebra_carriers(big)]


@st.composite
def chain_power_subalgebra(draw, n):
    k = draw(st.integers(1, 3 if n == 1 else 2))
    return draw(st.sampled_from(chain_power_subalgebras(n, k)))


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_evaluation_maps_are_isomorphisms(data):
    n = data.draw(st.integers(1, 3))
    a = data.draw(chain_power_subalgebra(n))
    assert evaluation_e(a, n).bijective
    assert evaluation_eps(dual_space(a, n), n).isomorphism


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_coproduct_law(data):
    n = data.draw(st.integers(1, 3))
    a, b = data.draw(chain_power_subalgebra(n)), data.draw(
        chain_power_subalgebra(n))
    ab, chain = algebra_product(a, b), chain_algebra(n)
    assert len(hom_enumerate(ab, chain)) == \
        len(hom_enumerate(a, chain)) + len(hom_enumerate(b, chain))
    x, y = dual_space(ab, n), disjoint_union(dual_space(a, n),
                                             dual_space(b, n))
    assert spaces_isomorphic(x, y)
    assert checked(x) == x and checked(y) == y
