import time
from itertools import combinations, compress, permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from pmvdual import search
from pmvdual.algebra import chain_algebra, power, trivial_algebra
from pmvdual.closure import (ClosureReport, _labeled_posets,
                             enumerate_xn_structures, fep_star_check,
                             fhp_star_check, is_algebraically_closed,
                             is_existentially_closed)
from pmvdual.duality import (StructSpace, _space_of_points, alter_ego,
                             dual_space, empty_space, relation_keys,
                             xn_membership)
from pmvdual.errors import BudgetExceededError, NonMemberError
from pmvdual.relations import compute_Sn, lhd_rel, order_failure, top_seq
from pmvdual.search import constraint_maps
from pmvdual.skeleton import boolean_lattice, priestley_power

from conftest import chain_lattice


def two_space(sharp, order, size):
    return StructSpace(2, size, {(2,): frozenset(sharp),
                                 (1,): frozenset(order)})


def brute_force_posets(size):
    """Every relation that contains the diagonal and passes the shared
    order check, as itertools.combinations lists the strict pairs."""
    loops = frozenset((p, p) for p in range(size))
    offdiag = [(u, v) for u in range(size) for v in range(size) if u != v]
    return [loops | frozenset(extra) for r in range(len(offdiag) + 1)
            for extra in combinations(offdiag, r)
            if order_failure(size, loops | frozenset(extra)) is None]


@pytest.mark.parametrize("size, count", [(0, 1), (1, 1), (2, 3), (3, 19),
                                         (4, 219)])
def test_order_failure_accepts_exactly_the_labelled_posets(size, count):
    """Over every relation that contains the diagonal (4096 at size 4),
    the shared order check agrees with the enumeration's own list, in
    the same order."""
    posets = _labeled_posets(size)
    assert len(posets) == count
    assert posets == brute_force_posets(size)


def relabelled(x, perm):
    return StructSpace(x.n, x.size, {
        key: frozenset((perm[u], perm[v]) for (u, v) in pairs)
        for key, pairs in x.relations.items()})


def oracle_enumeration(n, max_size):
    """The enumeration decided on every labelled candidate: membership
    first, then removal of isomorphic copies over all permutations."""
    lat = compute_Sn(n)
    keys = relation_keys(n)
    top = top_seq(n).y
    others = [k for k in keys if k != top]
    found, seen = [], set()
    for size in range(max_size + 1):
        for order in brute_force_posets(size):
            pairs = sorted(order)
            subsets = [frozenset(c) for r in range(len(pairs) + 1)
                       for c in combinations(pairs, r)]
            for choice in product(subsets, repeat=len(others)):
                assign = {top: order, **dict(zip(others, choice))}
                if any(lat.leq(i, j) and not assign[keys[i]] <= assign[keys[j]]
                       for i in range(len(keys)) for j in range(len(keys))):
                    continue
                space = StructSpace(n, size, assign)
                if not xn_membership(space, n).member:
                    continue
                form = min(relabelled(space, perm).canonical_form()
                           for perm in permutations(range(size)))
                if form not in seen:
                    seen.add(form)
                    found.append(space)
    return found


@pytest.mark.parametrize("n, max_size", [(1, 1), (1, 2), (1, 3), (1, 4),
                                         (2, 1), (2, 2), (2, 3), (3, 1),
                                         (3, 2), (4, 1)])
def test_enumeration_matches_the_oracle_in_order(n, max_size):
    assert [x.canonical_form() for x in enumerate_xn_structures(n, max_size)
            ] == [x.canonical_form() for x in oracle_enumeration(n, max_size)]


def closure_per_cell_enumeration(n, max_size):
    """The enumeration with one morphism search and one pull-back per
    closure: each closed set of cells (relation, pair) grows by one unset
    cell at a time, and a closure whose order part is not the order is
    outside the system.  The order loop, the sort and the fold by
    automorphisms are the enumeration's own."""
    keys, ae = relation_keys(n), alter_ego(n).relations   # the order last
    found, seen_orders = [], set()
    for size in range(max_size + 1):
        perms = list(permutations(range(size)))
        for order in _labeled_posets(size):
            if order in seen_orders:
                continue
            images = [frozenset((m[u], m[v]) for (u, v) in order)
                      for m in perms]
            seen_orders.update(images)
            pairs, w = sorted(order), len(order)
            cells = list(product(keys, pairs))  # cell t * w + i: pair i in t

            def close(bits):
                homs = constraint_maps(size, n + 1, [
                    (pair, ae[key]) for key, pair in compress(cells, bits)])
                x = _space_of_points(list(zip(*homs)), n)
                return None if x.order_pairs != order else tuple(
                    pair in x.relations[key] for key, pair in cells)

            def rows(bits):
                return [bits[t * w:(t + 1) * w] for t in range(len(keys))]

            bottom = close((False,) * (len(cells) - w) + (True,) * w)
            members, frontier = {bottom}, [bottom]
            while frontier:
                bits = frontier.pop()
                for bigger in (close(bits[:c] + (True,) + bits[c + 1:])
                               for c, b in enumerate(bits) if not b):
                    if bigger is not None and bigger not in members:
                        members.add(bigger)
                        frontier.append(bigger)
            autos = [[t * w + pairs.index((m[u], m[v]))
                      for t in range(len(keys)) for (u, v) in pairs]
                     for m, image in zip(perms, images) if image == order]
            forms = set()
            for bits in sorted(members, key=lambda b: [
                    (sum(r), [-v for v in r]) for r in rows(b)]):
                form = min(tuple(map(bits.__getitem__, a)) for a in autos)
                if form not in forms:
                    forms.add(form)
                    found.append(StructSpace(n, size, {
                        key: frozenset(compress(pairs, r))
                        for key, r in zip(keys, rows(bits))}))
    return found


@pytest.mark.parametrize("n, max_size", [(1, 5), (2, 4), (3, 3), (4, 3),
                                         (5, 2)])
def test_enumeration_matches_the_closure_per_cell_in_order(n, max_size):
    assert [x.canonical_form() for x in enumerate_xn_structures(n, max_size)
            ] == [x.canonical_form()
                  for x in closure_per_cell_enumeration(n, max_size)]


def test_every_alter_ego_relation_holds_the_minimal_one():
    # so the monotone maps into {0, n} send every cell into the alter
    # ego, and no intersection of intents pulls a new pair into the order
    for n in range(1, 9):
        assert all(lhd_rel(n).pairs <= pairs
                   for pairs in alter_ego(n).relations.values())


def test_enumeration_at_five_points_and_n3_is_quick():
    # 56.8 s with a morphism search per closure; the bound is loose,
    # since machine speed varies by up to 2x
    start = time.perf_counter()
    assert len(enumerate_xn_structures.__wrapped__(3, 5)) == 18_137
    assert time.perf_counter() - start < 30


@st.composite
def spaces(draw):
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        x = draw(st.sampled_from(enumerate_xn_structures(n, 2)))
    else:
        size = draw(st.integers(0, 4))
        pair = st.tuples(st.integers(0, size - 1), st.integers(0, size - 1))
        x = StructSpace(n, size, {key: draw(st.frozensets(pair)) if size
                                  else frozenset()
                                  for key in relation_keys(n)})
    return x, draw(st.permutations(range(x.size)))


@settings(deadline=None, max_examples=300)
@given(spaces())
def test_membership_does_not_change_under_relabelling(case):
    x, perm = case
    assert xn_membership(relabelled(x, perm), x.n).member == \
        xn_membership(x, x.n).member


def test_enumeration_counts():
    assert len(enumerate_xn_structures(2, 0)) == 1     # the empty space
    assert len(enumerate_xn_structures(2, 1)) == 3
    assert len(enumerate_xn_structures(2, 2)) == 11
    assert len(enumerate_xn_structures(2, 3)) == 57
    assert len(enumerate_xn_structures(2, 4)) == 441
    # at n = 1 the members are the posets: OEIS A000112, summed
    assert [len(enumerate_xn_structures(1, k)) for k in (3, 4, 5)] == \
        [9, 25, 88]
    assert [len(enumerate_xn_structures(3, k)) for k in (2, 3)] == [12, 78]
    assert [len(enumerate_xn_structures(4, k)) for k in (1, 2)] == [4, 30]


def test_the_shared_enumeration_is_read_only():
    x = enumerate_xn_structures(2, 2)[1]
    before = dict(x.relations)
    with pytest.raises(TypeError):
        x.relations[(2,)] = frozenset({(0, 0), (5, 5)})
    assert enumerate_xn_structures(2, 2)[1].relations == before


def test_the_budget_bounds_the_enumeration(monkeypatch):
    # at (1, 3) the 12 nodes of the order walk over two incomparable
    # points are the first to pass a budget of 8; at (1, 4) the 24
    # permutations of four points are refused before they are listed
    uncached = enumerate_xn_structures.__wrapped__
    monkeypatch.setattr(search, "BUDGET", 8)
    with pytest.raises(BudgetExceededError) as stopped:
        uncached(1, 3)
    assert "_labeled_posets" in [entry.name for entry in stopped.traceback]
    monkeypatch.setattr(search, "BUDGET", 20)
    with pytest.raises(BudgetExceededError) as stopped:
        uncached(1, 4)
    assert stopped.traceback[-1].name == "charge"
    monkeypatch.setattr(search, "BUDGET", 39)
    assert len(uncached(1, 4)) == 25


def test_enumeration_at_four_points_and_n3_is_quick():
    # about 40 s when every monotone candidate was decided; the bound is
    # loose, since machine speed varies by up to 2x
    enumerate_xn_structures.cache_clear()
    start = time.perf_counter()
    assert len(enumerate_xn_structures(4, 3)) == 535
    assert time.perf_counter() - start < 10


def test_enumeration_members_pass_membership():
    for x in enumerate_xn_structures(2, 2):
        assert xn_membership(x, 2).member


@pytest.mark.parametrize("n, max_size", [(1, 4), (2, 3), (3, 2), (4, 2)])
def test_enumeration_members_pass_the_checking_constructor(n, max_size):
    for x in enumerate_xn_structures(n, max_size):
        assert StructSpace(n, x.size, x.relations) == x


def test_lifting_rejects_non_members():
    bad = two_space(set(), {(0, 0), (1, 1), (0, 1), (1, 0)}, 2)
    with pytest.raises(NonMemberError):
        fhp_star_check(bad, 2)


def test_the_budget_bounds_the_lifting_check(monkeypatch):
    # from a discrete space of 9 points, the 510 surjections onto a
    # discrete two-point Z, the 2 surjections of Y = Z onto it and the
    # 512 maps into Y make 522 240 triples; at 6 points, 62 * 2 * 64
    def discrete(size):
        return two_space(set(), {(p, p) for p in range(size)}, size)

    monkeypatch.setattr(search, "BUDGET", 100_000)
    assert fhp_star_check(discrete(6), 2).verdict
    with pytest.raises(BudgetExceededError):
        fhp_star_check(discrete(9), 2)


def test_fhp_on_the_empty_space():
    assert fhp_star_check(empty_space(2), 2).verdict
    assert fep_star_check(empty_space(2), 2).verdict


def test_fhp_on_discrete_spaces():
    one = two_space(set(), {(0, 0)}, 1)
    two = two_space(set(), {(0, 0), (1, 1)}, 2)
    assert fhp_star_check(one, 2, 2).verdict
    assert fhp_star_check(two, 2, 2).verdict


def test_fhp_fails_on_a_two_point_chain():
    chain2 = two_space({(0, 1)}, {(0, 0), (0, 1), (1, 1)}, 2)
    rep = fhp_star_check(chain2, 2, 2)
    assert not rep.verdict and rep.reason == "no lifting"
    assert rep.witness is not None


def test_fep_isolated_point_obstruction_appears_at_bound_two():
    one = two_space(set(), {(0, 0)}, 1)
    assert fep_star_check(one, 2, 1).verdict
    assert not fep_star_check(one, 2, 2).verdict


def test_closure_report_json():
    rep = ClosureReport(False, "why", witness=((2,), (0, 1)))
    data = rep.to_json()
    assert data["verdict"] is False and data["witness"] == [[2], [0, 1]]


def test_ac_on_powers_of_the_chain():
    for n in (2, 3):
        for k in (1, 2):
            assert is_algebraically_closed(power(chain_algebra(n), k), n).verdict


def test_ac_false_on_a_priestley_power_over_a_chain():
    a = priestley_power(2, chain_lattice(3))
    rep = is_algebraically_closed(a, 2)
    assert not rep.verdict and rep.reason == "dual order not discrete"


def test_ac_at_n1_is_complementedness():
    assert is_algebraically_closed(boolean_lattice(1), 1).verdict
    assert is_algebraically_closed(boolean_lattice(2), 1).verdict
    assert not is_algebraically_closed(chain_lattice(3), 1).verdict


def test_ac_and_ec_reject_non_members():
    # PL_3 is not in the quasi-variety of PL_2: its one hom into PL_2 is
    # missing, so the dual points separate nothing
    for check in (is_algebraically_closed, is_existentially_closed):
        with pytest.raises(NonMemberError):
            check(chain_algebra(3), 2)


def test_ec_verdicts():
    rep = is_existentially_closed(chain_algebra(2), 2)
    assert not rep.verdict and rep.reason == "isolated point"
    rep2 = is_existentially_closed(power(chain_algebra(2), 2), 2)
    assert not rep2.verdict
    triv = is_existentially_closed(trivial_algebra(), 2)
    assert triv.verdict and triv.degenerate


def test_ec_implies_ac():
    for a, n in [(trivial_algebra(), 2), (chain_algebra(2), 2),
                 (power(chain_algebra(3), 2), 3)]:
        if is_existentially_closed(a, n).verdict:
            assert is_algebraically_closed(a, n).verdict


def test_ac_cross_validates_with_the_lifting_property():
    for a in (chain_algebra(2), power(chain_algebra(2), 2)):
        x = dual_space(a, 2)
        assert is_algebraically_closed(a, 2).verdict == \
            fhp_star_check(x, 2, 2).verdict
