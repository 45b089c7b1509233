from itertools import compress, product

import pytest
from hypothesis import given, settings, strategies as st

from pmvdual import search
from pmvdual.algebra import chain_algebra, is_isomorphic
from pmvdual.duality import alter_ego, spaces_isomorphic
from pmvdual.errors import BudgetExceededError
from pmvdual.relations import leq_rel
from pmvdual.skeleton import Poset, poset_isomorphic
from pmvdual.search import (closed_sets, constraint_maps, file_constraints,
                            injective, walk, with_pair)


@st.composite
def allowed_sets(draw, t, arity):
    return draw(st.frozensets(st.sampled_from(
        list(product(range(t), repeat=arity)))))


@pytest.mark.parametrize("order", ["p < q", "p > q", "p == q"])
@settings(deadline=None, max_examples=100)
@given(data=st.data())
def test_filed_search_with_one_more_pair_matches_constraint_maps(order,
                                                                 data):
    size = data.draw(st.integers(1 if order == "p == q" else 2, 5))
    t = data.draw(st.integers(1, 4))
    point = st.integers(0, size - 1)
    base = []
    for _ in range(data.draw(st.integers(0, 8))):
        points = tuple(data.draw(st.lists(point, min_size=1, max_size=3)))
        base.append((points, data.draw(allowed_sets(t, len(points)))))
    lo = data.draw(st.integers(0, size - 1 if order == "p == q" else size - 2))
    hi = lo if order == "p == q" else data.draw(st.integers(lo + 1, size - 1))
    p, q = (hi, lo) if order == "p > q" else (lo, hi)
    allowed = data.draw(allowed_sets(t, 2))
    filed = file_constraints(size, t, base)
    assert list(walk(with_pair(filed, p, q, allowed))) == \
        list(constraint_maps(size, t, base + [((p, q), allowed)]))
    # the extra pair leaves the filed search as it was
    assert list(walk(filed)) == list(constraint_maps(size, t, base))


@settings(deadline=None, max_examples=100)
@given(data=st.data())
def test_injective_keeps_the_injective_maps_in_order(data):
    size = data.draw(st.integers(1, 5))
    t = data.draw(st.integers(1, 5))
    point = st.integers(0, size - 1)
    base = []
    for _ in range(data.draw(st.integers(0, 4))):
        points = tuple(data.draw(st.lists(point, min_size=1, max_size=3)))
        base.append((points, data.draw(allowed_sets(t, len(points)))))
    assert list(walk(injective(file_constraints(size, t, base)))) == [
        m for m in constraint_maps(size, t, base) if len(set(m)) == size]


def test_the_budget_counts_the_complete_maps_too():
    # an 8-point antichain has 5^8 = 390 625 maps into the 5-chain, but
    # fewer than 100 000 partial maps
    with pytest.raises(BudgetExceededError):
        list(constraint_maps(8, 5, [], 100_000))
    assert len(list(constraint_maps(6, 5, [], 100_000))) == 5 ** 6


def test_one_budget_bounds_the_isomorphism_searches(monkeypatch):
    # each search puts at least one node per point on the stack, so a
    # budget of 2 stops it on three or four points
    x, p, a = alter_ego(2), Poset(3, leq_rel(2).pairs), chain_algebra(3)
    searches = [lambda: spaces_isomorphic(x, x),
                lambda: poset_isomorphic(p, p), lambda: is_isomorphic(a, a)]
    assert all(check() for check in searches)
    monkeypatch.setattr(search, "BUDGET", 2)
    for check in searches:
        with pytest.raises(BudgetExceededError):
            check()


@settings(deadline=None, max_examples=200)
@given(rules=st.lists(st.tuples(st.frozensets(st.integers(0, 5), max_size=2),
                                st.integers(0, 5)), max_size=8))
def test_closed_sets_are_the_closed_sets_of_a_brute_force(rules):
    """The subsets of range(6) closed under the implications premise ->
    conclusion."""
    def close(s):
        while True:
            more = s | {c for premise, c in rules if premise <= s}
            if more == s:
                return s
            s = more

    subsets = [frozenset(compress(range(6), bits))
               for bits in product((0, 1), repeat=6)]
    assert closed_sets(close(frozenset()), lambda s: (
        close(s | {x}) for x in range(6) if x not in s)) == {
        s for s in subsets if close(s) == s}
