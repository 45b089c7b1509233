import time
from functools import lru_cache, reduce
from itertools import permutations, product as iproduct
from math import prod
from operator import getitem
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from pmvdual import algebra, search
from pmvdual.algebra import (FinAlgebra, Hom, _pointwise, _trusted,
                             all_subalgebra_carriers,
                             _blocks_from_classes, chain_algebra,
                             congruences, find_isomorphism,
                             generated_carrier, hom_enumerate, is_isomorphic,
                             is_simple, pmv_membership, pointwise_algebra,
                             power, product, restrict, subalgebra_generated,
                             trivial_algebra)
from pmvdual.chain import OP_NAMES
from pmvdual.duality import dual_space
from pmvdual.errors import (AxiomViolationError, BudgetExceededError,
                            InternalConsistencyError)
from pmvdual.search import constraint_maps


def test_chain_algebra_tables_match_the_chain():
    a = chain_algebra(3)
    assert a.size == 4
    assert a.oplus[2][2] == 3
    assert a.odot[2][2] == 1
    assert a.zero == 0 and a.one == 3


def test_validation_reports_the_violated_axiom():
    a = chain_algebra(2)
    broken = [list(r) for r in a.oplus]
    broken[1][0] = 2                      # destroys the unit law
    with pytest.raises(AxiomViolationError) as exc:
        FinAlgebra(a.size, a.meet, a.join,
                   tuple(tuple(r) for r in broken), a.odot, a.zero, a.one)
    assert "oplus" in str(exc.value)


def test_validation_rejects_nondistributive_lattice():
    # diamond M3: 0 < a,b,c < 1 fails distributivity
    size = 5
    bot, a, b, c, top = range(5)
    meet = [[0] * 5 for _ in range(5)]
    join = [[0] * 5 for _ in range(5)]
    order = {(bot, x) for x in range(5)} | {(x, top) for x in range(5)}
    order |= {(x, x) for x in range(5)}
    for x in range(5):
        for y in range(5):
            meet[x][y] = x if (x, y) in order else (y if (y, x) in order else bot)
            join[x][y] = y if (x, y) in order else (x if (y, x) in order else top)
    meet = tuple(tuple(r) for r in meet)
    join = tuple(tuple(r) for r in join)
    with pytest.raises(AxiomViolationError) as exc:
        FinAlgebra(size, meet, join, join, meet, bot, top)
    assert "distributivity" in str(exc.value)


def test_product_and_power_sizes():
    a = chain_algebra(2)
    assert product(a, a).size == 9
    assert power(a, 3).size == 27
    assert power(a, 0).size == 1


def test_generated_carrier_contains_constants():
    a = power(chain_algebra(2), 2)
    assert generated_carrier(a, ()) == (0, 8)        # (0,0) and (1,1)
    diag = subalgebra_generated(a, [4])              # (1/2, 1/2)
    assert diag.size == 3


def test_all_subalgebras_of_the_chain_square():
    a = power(chain_algebra(2), 2)
    carriers = all_subalgebra_carriers(a)
    assert len(carriers) == 16
    assert (0, 8) in carriers and tuple(range(9)) in carriers


def test_hom_rigidity_divisor_inclusions():
    # for k | n the only homomorphism between the chains is the inclusion
    for n in range(1, 9):
        for k in range(1, n + 1):
            homs = hom_enumerate(chain_algebra(k), chain_algebra(n))
            if n % k == 0:
                assert len(homs) == 1
                step = n // k
                assert homs[0].map == tuple(i * step for i in range(k + 1))
            else:
                assert homs == []


def test_no_hom_from_finer_into_coarser_chain():
    assert hom_enumerate(chain_algebra(3), chain_algebra(2)) == []


def test_hom_count_on_a_power_equals_the_exponent():
    # the projections are the only homs from PL2^2 into PL2
    homs = hom_enumerate(power(chain_algebra(2), 2), chain_algebra(2))
    assert len(homs) == 2
    assert {h.map for h in homs} == {(0, 0, 0, 1, 1, 1, 2, 2, 2),
                                     (0, 1, 2, 0, 1, 2, 0, 1, 2)}


def test_hom_budget():
    a = power(chain_algebra(2), 2)
    with pytest.raises(BudgetExceededError):
        hom_enumerate(a, a, budget=1)


def test_trivial_algebra_has_no_hom_into_a_chain():
    assert hom_enumerate(trivial_algebra(), chain_algebra(2)) == []


def test_chains_are_simple():
    for n in (1, 2, 3, 4):
        assert is_simple(chain_algebra(n))
    assert is_simple(chain_algebra(12))   # 13 elements
    assert not is_simple(trivial_algebra())
    assert not is_simple(power(chain_algebra(2), 2))


def test_congruences_of_a_product_of_two_simple_factors():
    a = power(chain_algebra(2), 2)
    cons = congruences(a)
    assert len(cons) == 4                 # diagonal, two kernels, full


def test_the_budget_bounds_the_congruence_worklist(monkeypatch):
    # each of the 8 congruences of PL_1^3 is joined with each of its 3
    # principals once: 24 closures
    a = power(chain_algebra(1), 3)
    monkeypatch.setattr(search, "BUDGET", 24)
    assert len(congruences(a)) == 8
    monkeypatch.setattr(search, "BUDGET", 23)
    with pytest.raises(BudgetExceededError):
        congruences(a)


def test_pmv_membership_separating_embedding():
    a = power(chain_algebra(2), 2)
    emb = pmv_membership(a, 2)
    assert emb is not None and emb.k == 2
    # element i of the power is the vector of its base-(n + 1) digits
    index = tuple(reduce(lambda i, v: i * (emb.n + 1) + v, vec, 0)
                  for vec in emb.vectors)
    hom = Hom(a, power(chain_algebra(emb.n), emb.k), index)
    assert hom.injective


def test_membership_fails_at_too_small_n():
    assert pmv_membership(chain_algebra(3), 2) is None


def test_isomorphism_search():
    a = power(chain_algebra(2), 2)
    b = product(chain_algebra(2), chain_algebra(2))
    perm = find_isomorphism(a, b)
    assert perm is not None
    assert is_isomorphic(a, b)
    assert not is_isomorphic(chain_algebra(2), chain_algebra(3))
    assert not is_isomorphic(chain_algebra(4),
                             subalgebra_generated(power(chain_algebra(2), 2), [1]))


def test_json_roundtrip():
    a = power(chain_algebra(2), 2)
    assert FinAlgebra.from_json(a.to_json()) == a


def test_equality_and_hash_ignore_the_label():
    a = power(chain_algebra(2), 2)
    b = a.relabel("x")
    assert b.label == "x" != a.label
    assert b == a and hash(b) == hash(a)
    odot = [list(row) for row in a.odot]
    odot[1][2] = 0
    changed = _trusted(FinAlgebra, a.size, a.meet, a.join, a.oplus,
                       tuple(map(tuple, odot)), a.zero, a.one, a.label)
    assert changed != a and a != changed


def test_list_rows_are_stored_as_the_tuple_built_tables():
    pl = chain_algebra(2)
    a = FinAlgebra(pl.size, *([list(row) for row in pl.table(name)]
                              for name in OP_NAMES), pl.zero, pl.one)
    assert a == pl and hash(a) == hash(pl)
    assert [h.map for h in hom_enumerate(pl, a)] == [(0, 1, 2)]


@pytest.mark.parametrize("zero, one", [(0, 7), (-1, 2)])
def test_constants_outside_the_elements_are_named(zero, one):
    pl = chain_algebra(2)
    with pytest.raises(AxiomViolationError) as exc:
        FinAlgebra(pl.size, pl.meet, pl.join, pl.oplus, pl.odot, zero, one)
    assert exc.value.axiom == "constants-range"
    assert exc.value.witness == (zero, one)


# -- closures against the two-sided, from-scratch oracles ------------------------

def oracle_generated_carrier(a, gens):
    """Smallest subset containing gens and both constants, closed under
    ops: each new x is multiplied on both sides by everything present."""
    carrier = set(gens) | {a.zero, a.one}
    frontier = list(carrier)
    while frontier:
        x = frontier.pop()
        for name in OP_NAMES:
            t = a.table(name)
            for y in list(carrier):
                for z in (t[x][y], t[y][x]):
                    if z not in carrier:
                        carrier.add(z)
                        frontier.append(z)
    return tuple(sorted(carrier))


def oracle_subalgebra_carriers(a):
    """Every subuniverse, by one-point extension from the constants, each
    extension closed from scratch."""
    bottom = oracle_generated_carrier(a, ())
    seen = {bottom}
    frontier = [bottom]
    while frontier:
        carrier = frontier.pop()
        members = set(carrier)
        for x in range(a.size):
            if x in members:
                continue
            bigger = oracle_generated_carrier(a, members | {x})
            if bigger not in seen:
                seen.add(bigger)
                frontier.append(bigger)
    return sorted(seen, key=lambda c: (len(c), c))


@lru_cache(maxsize=None)
def closure_algebras():
    """PL_2^3, PL_3^2 and PL_4 x PL_2."""
    return (power(chain_algebra(2), 3), power(chain_algebra(3), 2),
            product(chain_algebra(4), chain_algebra(2)))


@pytest.mark.parametrize("which", range(3))
def test_all_subalgebra_carriers_match_the_from_scratch_oracle(which):
    a = closure_algebras()[which]
    assert all_subalgebra_carriers(a) == oracle_subalgebra_carriers(a)


@given(st.data())
def test_closures_match_the_two_sided_oracle(data):
    a = data.draw(st.sampled_from(closure_algebras()))
    gens = data.draw(st.lists(st.integers(0, a.size - 1), max_size=4))
    whole = oracle_generated_carrier(a, gens)
    assert generated_carrier(a, gens) == whole
    # a closed set extended by one generator, closed from that one only
    closed = oracle_generated_carrier(a, gens[1:])
    assert algebra._close(a, set(closed), gens[:1]) == whole


def test_hom_validation():
    with pytest.raises(AxiomViolationError):
        Hom(chain_algebra(2), chain_algebra(2), (0, 0, 2))


# -- the constraint kernel against brute force ----------------------------------

@lru_cache(maxsize=None)
def small_subalgebras(max_size):
    """Every subalgebra of PL_n^k (n <= 3, k <= 2, and PL_1^3) with at
    most max_size elements."""
    out = []
    for n, k in ((1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2), (1, 3)):
        big = power(chain_algebra(n), k)
        out += [restrict(big, c) for c in all_subalgebra_carriers(big)
                if len(c) <= max_size]
    return out


def relabel(a, perm):
    """The algebra with each element x renamed perm[x]."""
    inv = sorted(range(a.size), key=perm.__getitem__)

    def tab(t):
        return tuple(tuple(perm[t[inv[x]][inv[y]]] for y in range(a.size))
                     for x in range(a.size))

    return FinAlgebra(a.size, tab(a.meet), tab(a.join), tab(a.oplus),
                      tab(a.odot), perm[a.zero], perm[a.one])


@st.composite
def algebras(draw, max_size=9):
    """A small subalgebra of a power of a chain, relabelled by a random
    permutation."""
    a = draw(st.sampled_from(small_subalgebras(max_size)))
    return relabel(a, draw(st.permutations(range(a.size))))


def congruences_partition_scan(a):
    """The congruences by a scan of the restricted-growth strings, pruned
    by compatibility on the elements assigned so far."""
    m = a.size
    found = []
    cls = [0] * m

    def compatible_prefix(k):
        # elements 0..k assigned; check pairs whose op results are also <= k
        for name in OP_NAMES:
            t = a.table(name)
            for x in range(k + 1):
                if cls[x] != cls[k]:
                    continue
                for z in range(k + 1):
                    u, v = t[x][z], t[k][z]
                    if u <= k and v <= k and cls[u] != cls[v]:
                        return False
        return True

    def compatible():
        return all(cls[t[x][z]] == cls[t[y][z]]
                   for t in map(a.table, OP_NAMES) for x in range(m)
                   for y in range(x + 1, m) if cls[x] == cls[y]
                   for z in range(m))

    def assign(k, maxc):
        if k == m:
            if compatible():
                found.append(_blocks_from_classes(tuple(cls)))
            return
        for c in range(maxc + 2):
            cls[k] = c
            if compatible_prefix(k):
                assign(k + 1, max(maxc, c))

    assign(0, -1)
    found.sort(key=lambda th: (-len(th.blocks), th.class_of()))
    return found


@settings(deadline=None, max_examples=60)
@given(algebras(max_size=12))
def test_congruences_match_the_partition_scan(a):
    assert congruences(a) == congruences_partition_scan(a)


@pytest.mark.parametrize("factor, k, count", [(2, 3, 8), (1, 5, 32)])
def test_congruences_of_a_power_within_a_second(factor, k, count):
    a = power(chain_algebra(factor), k)
    start = time.perf_counter()
    assert len(congruences(a)) == count
    assert time.perf_counter() - start < 1


def preserves(a, b, m):
    return m[a.zero] == b.zero and m[a.one] == b.one and all(
        m[a.table(name)[x][y]] == b.table(name)[m[x]][m[y]]
        for name in OP_NAMES for x in range(a.size) for y in range(a.size))


def brute_homs(a, b):
    return [m for m in iproduct(range(b.size), repeat=a.size)
            if preserves(a, b, m)]


@settings(deadline=None, max_examples=40)
@given(algebras(), st.data())
def test_hom_enumerate_matches_brute_force(a, data):
    chain = chain_algebra(data.draw(st.integers(1, 3)))
    assert [h.map for h in hom_enumerate(a, chain)] == brute_homs(a, chain)
    # a second algebra small enough to list its maps from a
    b = data.draw(algebras(max_size=int(20_000 ** (1 / a.size))))
    assert [h.map for h in hom_enumerate(a, b)] == brute_homs(a, b)


@settings(deadline=None, max_examples=40)
@given(algebras(), st.data())
def test_isomorphism_found_on_relabellings(a, data):
    b = relabel(a, data.draw(st.permutations(range(a.size))))
    m = find_isomorphism(a, b)
    assert m is not None and sorted(m) == list(range(a.size))
    Hom(a, b, m)


@settings(deadline=None, max_examples=60)
@given(algebras(max_size=6), st.data())
def test_isomorphism_matches_a_permutation_scan(a, data):
    b = data.draw(st.sampled_from([
        relabel(a, data.draw(st.permutations(range(a.size)))),
        data.draw(algebras(max_size=6))]))
    scan = a.size == b.size and any(preserves(a, b, perm)
                                    for perm in permutations(range(a.size)))
    assert is_isomorphic(a, b) == scan


# -- the hom filer against the constraint list it stands for --------------------

def hom_constraints(a, b):
    """The constants, and for each operation and each x <= y the triple
    (x, y, t[x][y]) into the operation's graph in b; all four operations
    are commutative, so these fix the whole graph.  hom_enumerate files
    these constraints straight from the tables without listing them."""
    constraints = [((a.zero,), frozenset({(b.zero,)})),
                   ((a.one,), frozenset({(b.one,)}))]
    for name in OP_NAMES:
        ta, tb = a.table(name), b.table(name)
        graph = frozenset((x, y, z) for x, row in enumerate(tb)
                          for y, z in enumerate(row))
        constraints += [((x, y, ta[x][y]), graph)
                        for x in range(a.size) for y in range(x, a.size)]
    return constraints


def oracle_homs(a, b, budget):
    """The hom maps a -> b by the generic set-up, or "budget"."""
    try:
        return list(constraint_maps(a.size, b.size, hom_constraints(a, b),
                                    budget))
    except BudgetExceededError:
        return "budget"


def filed_homs(a, b, budget):
    try:
        return [h.map for h in hom_enumerate(a, b, budget)]
    except BudgetExceededError:
        return "budget"


def oracle_isomorphism(a, b):
    """The first injective map that meets the hom constraints, or None."""
    if a.size != b.size:
        return None
    distinct = frozenset((u, v) for u in range(a.size)
                         for v in range(a.size) if u != v)
    constraints = hom_constraints(a, b) + [
        ((u, v), distinct) for u in range(a.size)
        for v in range(u + 1, a.size)]
    return next(constraint_maps(a.size, a.size, constraints), None)


@settings(deadline=None, max_examples=60)
@given(algebras(max_size=16), st.data())
def test_hom_filer_matches_the_constraint_list(a, data):
    # budgets small enough to stop some searches: the node counts agree
    budget = data.draw(st.sampled_from([20, 200, 5_000_000]))
    b = data.draw(algebras(max_size=64 // a.size))
    for source in (a, product(a, b)):
        chain = chain_algebra(data.draw(st.integers(1, 3)))
        assert filed_homs(source, chain, budget) == \
            oracle_homs(source, chain, budget)
    c = data.draw(algebras(max_size=16))
    assert filed_homs(a, c, budget) == oracle_homs(a, c, budget)
    assert filed_homs(c, a, budget) == oracle_homs(c, a, budget)


@settings(deadline=None, max_examples=60)
@given(algebras(max_size=16), st.data())
def test_find_isomorphism_matches_the_constraint_list(a, data):
    same_size = [c for c in small_subalgebras(16) if c.size == a.size]
    b = data.draw(st.sampled_from([relabel(a, data.draw(
        st.permutations(range(a.size)))), relabel(
        data.draw(st.sampled_from(same_size)),
        data.draw(st.permutations(range(a.size))))]))
    assert find_isomorphism(a, b) == oracle_isomorphism(a, b)


# -- derived algebras are valid by construction ---------------------------------

def validated(a):
    """The same tables through the validating constructor."""
    return FinAlgebra(a.size, a.meet, a.join, a.oplus, a.odot, a.zero, a.one,
                      a.label)


@settings(deadline=None, max_examples=50)
@given(algebras(), st.data())
def test_derived_algebras_pass_validation(a, data):
    b = data.draw(algebras(max_size=64 // a.size))
    kmax = max(k for k in range(7) if a.size ** k <= 64)
    k = data.draw(st.integers(0, kmax))
    n, points = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 2))
    chains = power(chain_algebra(n), points)
    carrier = data.draw(st.sampled_from(all_subalgebra_carriers(chains)))
    tuples = list(iproduct(range(n + 1), repeat=points))
    elems = data.draw(st.permutations([tuples[x] for x in carrier]))
    derived = [product(a, b), power(a, k), pointwise_algebra(n, elems, "E")]
    derived += [restrict(a, c) for c in all_subalgebra_carriers(a)]
    for d in derived:
        assert validated(d) == d
        for h in hom_enumerate(d, chain_algebra(n)):   # listed unchecked,
            Hom(d, h.target, h.map)                    # so check here
    if k:       # the k-fold product is indexed like iterated products
        assert power(a, k) == reduce(product, [a] * k)


def as_fields(a):
    return (a.size, a.meet, a.join, a.oplus, a.odot, a.zero, a.one, a.label)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_products_and_powers_match_the_pointwise_builder(data):
    labels = st.sampled_from(["", "A"])
    a = data.draw(algebras()).relabel(data.draw(labels))
    b = data.draw(algebras(max_size=64 // a.size)).relabel(data.draw(labels))
    pairs = list(iproduct(range(a.size), range(b.size)))
    assert as_fields(product(a, b)) == as_fields(_pointwise(
        [a, b], pairs, f"({a.label} x {b.label})" if a.label and b.label
        else ""))
    k = data.draw(st.integers(0, 3))
    c = data.draw(algebras(max_size=4 if k == 3 else 8))
    c = c.relabel(data.draw(labels))
    expected = _pointwise([c] * k, list(iproduct(range(c.size), repeat=k)),
                          f"{c.label}^{k}" if c.label else "") \
        if k else trivial_algebra()
    assert as_fields(power(c, k)) == as_fields(expected)


def test_a_power_over_the_budget_raises_before_any_factor(monkeypatch):
    def built(a, b):
        raise AssertionError("a factor was built")

    monkeypatch.setattr(algebra, "product", built)
    with pytest.raises(BudgetExceededError):
        power(chain_algebra(4), 5)                  # 3125 elements


def test_a_product_over_the_budget_raises():
    with pytest.raises(BudgetExceededError):
        product(power(chain_algebra(4), 4), chain_algebra(4))


# -- the memo of recent hom searches ----------------------------------------

@pytest.fixture
def filings(monkeypatch):
    """The sources of every hom search set up from now on."""
    calls = []
    real = algebra._file_homs

    def counted(a, b):
        calls.append(a)
        return real(a, b)

    monkeypatch.setattr(algebra, "_file_homs", counted)
    return calls


def fresh(a):
    """An algebra equal to a but a new object."""
    return relabel(a, list(range(a.size)))


def test_a_dual_space_reuses_the_hom_search_before_it(filings):
    a, b = fresh(chain_algebra(2)), fresh(power(chain_algebra(1), 2))
    ab = product(a, b)
    counts = [len(hom_enumerate(x, chain_algebra(2))) for x in (ab, a, b)]
    spaces = [dual_space(x, 2) for x in (ab, a, b)]
    assert counts == [x.size for x in spaces] == [3, 1, 2]
    assert filings == [ab, a, b]


def test_equal_but_distinct_algebras_are_each_searched(filings):
    a1, a2 = fresh(chain_algebra(3)), fresh(chain_algebra(3))
    assert a1 == a2 and a1 is not a2
    homs1 = hom_enumerate(a1, chain_algebra(3))
    homs2 = hom_enumerate(a2, chain_algebra(3))
    assert len(filings) == 2
    assert [h.map for h in homs1] == [h.map for h in homs2]
    assert all(h.source is a1 for h in homs1)
    assert all(h.source is a2 for h in homs2)


def test_a_returned_hom_list_is_the_callers_own(filings):
    a = fresh(power(chain_algebra(2), 2))
    homs = hom_enumerate(a, chain_algebra(2))
    maps = [h.map for h in homs]
    homs.clear()
    again = hom_enumerate(a, chain_algebra(2))
    assert [h.map for h in again] == maps and len(maps) == 2
    assert len(filings) == 1


def test_a_smaller_budget_is_not_met_from_the_memo():
    a = fresh(power(chain_algebra(2), 2))
    assert len(hom_enumerate(a, a)) == 4    # each coordinate a projection
    with pytest.raises(BudgetExceededError):
        hom_enumerate(a, a, budget=1)


@pytest.mark.parametrize("a, carrier", [
    (power(chain_algebra(2), 2), (0, 1, 8)),    # (0,1) + (0,1) = (0,2)
    (chain_algebra(2), (0,)),                   # closed, but without the top
])
def test_restrict_to_a_non_closed_carrier_raises(a, carrier):
    with pytest.raises(InternalConsistencyError):
        restrict(a, carrier)


# -- the pointwise builder against a per-cell oracle -------------------------------

def oracle_pointwise(factors, elems, label):
    """The pointwise algebra on elems, one cell at a time: each cell's
    tuple of coordinates looked up in a dict from tuple to element."""
    algebra._charge(len(elems))
    index = {e: i for i, e in enumerate(elems)}

    def tab(name):
        tables = [f.table(name) for f in factors]
        rows = []
        for e1 in elems:
            e1_rows = [t[x] for t, x in zip(tables, e1)]
            rows.append(tuple([index[tuple(map(getitem, e1_rows, e2))]
                               for e2 in elems]))
        return tuple(rows)

    try:
        return _trusted(FinAlgebra, len(elems), tab("meet"), tab("join"),
                        tab("oplus"), tab("odot"),
                        index[tuple(f.zero for f in factors)],
                        index[tuple(f.one for f in factors)], label)
    except KeyError as missing:
        raise InternalConsistencyError(
            f"pointwise value {missing.args[0]} left the element set"
        ) from None


def built(build, factors, elems):
    """The fields of the algebra built, or the error and its text."""
    try:
        return as_fields(build(factors, elems, "P"))
    except InternalConsistencyError as exc:
        return "InternalConsistencyError", str(exc)


@st.composite
def pointwise_inputs(draw):
    """None to three factors of mixed sizes, at most 64 tuples in all,
    and a permuted list of tuples over them: the subuniverse of the
    product generated by a few tuples, sometimes with one tuple added or
    dropped, so that it may not be closed or may miss a constant."""
    factors = []
    for _ in range(draw(st.integers(0, 3))):
        room = 64 // prod(f.size for f in factors)
        if room < 2:
            break
        factors.append(draw(algebras(max_size=min(room, 9))))
    whole = reduce(product, factors) if factors else trivial_algebra()
    tuples = list(iproduct(*(range(f.size) for f in factors)))
    gens = draw(st.lists(st.integers(0, whole.size - 1), max_size=3))
    carrier = set(generated_carrier(whole, gens))
    if draw(st.integers(0, 2)) == 0:
        carrier ^= {draw(st.integers(0, whole.size - 1))}
    return factors, draw(st.permutations([tuples[x] for x in carrier]))


@settings(deadline=None, max_examples=150)
@given(pointwise_inputs())
def test_pointwise_matches_the_per_cell_oracle(inputs):
    factors, elems = inputs
    assert built(_pointwise, factors, elems) == \
        built(oracle_pointwise, factors, elems)


@pytest.mark.parametrize("factors, elems", [
    ([], [()]),                                     # no factors
    ([], []),
    ([chain_algebra(3)], [(0,), (3,)]),             # one factor, as restrict
    ([chain_algebra(2), chain_algebra(1)], [(0, 0), (2, 1)]),
    ([chain_algebra(2), chain_algebra(1)], [(2, 1), (1, 1), (0, 0)]),
])
def test_pointwise_edge_cases_match_the_oracle(factors, elems):
    assert built(_pointwise, factors, elems) == \
        built(oracle_pointwise, factors, elems)


@pytest.mark.parametrize("build, message", [
    (lambda: restrict(power(chain_algebra(2), 2), (0, 1, 8)),
     "pointwise value (2,) left the element set"),
    (lambda: pointwise_algebra(2, [(0, 0), (0, 1), (2, 2)], "E"),
     "pointwise value (0, 2) left the element set"),
])
def test_a_value_outside_the_elements_is_named(build, message):
    with pytest.raises(InternalConsistencyError) as exc:
        build()
    assert str(exc.value) == message


# -- the hom check against the ordered scan ---------------------------------------

def scanned_hom(a, b, m):
    """The check of m as a hom a -> b, cell by cell in order."""
    if len(m) != a.size:
        raise ValueError("map length mismatch")
    if m[a.zero] != b.zero:
        raise AxiomViolationError("hom-preserves-zero", (a.zero,))
    if m[a.one] != b.one:
        raise AxiomViolationError("hom-preserves-one", (a.one,))
    for name in OP_NAMES:
        ts, tt = a.table(name), b.table(name)
        for x in range(a.size):
            for y in range(a.size):
                if m[ts[x][y]] != tt[m[x]][m[y]]:
                    raise AxiomViolationError(f"hom-preserves-{name}", (x, y))


def checked_hom(check, a, b, m):
    """"hom", or the error's type, text, axiom and witness."""
    try:
        check(a, b, tuple(m))
    except Exception as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "axiom", None),
                getattr(exc, "witness", None))
    return "hom"


@settings(deadline=None, max_examples=60)
@given(algebras(max_size=16), st.integers(1, 3), st.data())
def test_the_hom_check_matches_the_ordered_scan(a, n, data):
    chain = chain_algebra(n)
    maps = [h.map for h in hom_enumerate(a, chain)]
    for m in maps:
        assert checked_hom(Hom, a, chain, m) == "hom"
    # every one-cell change of a listed hom, and of one drawn map, with
    # values outside the target too
    maps.append(tuple(data.draw(st.lists(st.integers(0, n), min_size=a.size,
                                         max_size=a.size))))
    for m in maps:
        for x in range(a.size):
            for v in range(-1, chain.size + 1):
                changed_map = m[:x] + (v,) + m[x + 1:]
                assert checked_hom(Hom, a, chain, changed_map) == \
                    checked_hom(scanned_hom, a, chain, changed_map)


# -- validation against the ordered scan -----------------------------------------

def lattice(size, below):
    """The lattice on 0..size-1 (0 the bottom, size - 1 the top) ordered by
    the reflexive transitive closure of the pairs below, with (+) = join and
    (.) = meet, unchecked."""
    le = {(x, x) for x in range(size)} | set(below)
    for k in range(size):
        le |= {(x, y) for x in range(size) for y in range(size)
               if (x, k) in le and (k, y) in le}

    def table(lower):
        def bound(x, y):
            common = [z for z in range(size) if ((z, x) in le and (z, y) in le
                      if lower else (x, z) in le and (y, z) in le)]
            return next(z for z in common if all(
                ((w, z) if lower else (z, w)) in le for w in common))
        return tuple(tuple(bound(x, y) for y in range(size))
                     for x in range(size))

    meet, join = table(True), table(False)
    return _trusted(FinAlgebra, size, meet, join, join, meet, 0, size - 1, "")


M3 = lattice(5, {(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)})
N5 = lattice(5, {(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)})


def arguments(a):
    """The arguments of FinAlgebra for a, each table as lists of rows."""
    return (a.size, *([list(row) for row in a.table(name)]
                      for name in OP_NAMES), a.zero, a.one)


def changed(a, name, x, y, v):
    """arguments(a) with t[x][y] = t[y][x] = v in the table t of name."""
    args = arguments(a)
    t = args[1 + OP_NAMES.index(name)]
    t[x][y] = t[y][x] = v
    return args


@st.composite
def near_algebras(draw):
    """A relabelled subalgebra of a power of a chain, or M3 or N5 perhaps
    times a chain, with up to two cells changed together with their mirror
    cells, so that the operations stay commutative.  Most changes keep the
    checks on elements and pairs: a meet (join) cell of an incomparable pair
    goes to another common lower (upper) bound, a (+) or (.) cell off its
    unit's row to any element."""
    a = draw(st.one_of(algebras(max_size=16), st.builds(
        lambda lat, n: product(lat, chain_algebra(n)) if n else lat,
        st.sampled_from([M3, N5]), st.integers(0, 2))))
    rng = range(a.size)
    le = [[a.meet[x][y] == x for y in rng] for x in rng]
    args = arguments(a)
    for _ in range(draw(st.integers(0, 2))):
        name = draw(st.sampled_from(OP_NAMES))
        cells = [(x, y, rng) for x in rng for y in rng]
        keep = draw(st.integers(0, 3)) > 0
        if keep and name in ("meet", "join"):
            lower = name == "meet"
            cells = [(x, y, [z for z in rng if (le[z][x] and le[z][y] if lower
                                                else le[x][z] and le[y][z])])
                     for x, y, _ in cells if not (le[x][y] or le[y][x])]
        elif keep:
            unit = a.zero if name == "oplus" else a.one
            cells = [cell for cell in cells if unit not in cell[:2]]
        if cells:
            x, y, values = draw(st.sampled_from(cells))
            t = args[1 + OP_NAMES.index(name)]
            t[x][y] = t[y][x] = draw(st.sampled_from(values))
    return args


def outcome(args):
    """The algebra's validation: "valid" or the error and its text."""
    try:
        FinAlgebra(*args)
    except (AxiomViolationError, InternalConsistencyError) as exc:
        return type(exc).__name__, str(exc)
    return "valid"


def scanned(args):
    """The outcome of validation with every algebra sent to the ordered
    scan of triples, which then finds no violation in a valid one."""
    with mock.patch.object(algebra, "_cubic_axioms_hold", lambda a: False):
        got = outcome(args)
    return "valid" if got[0] == "InternalConsistencyError" else got


@settings(deadline=None, max_examples=300)
@given(near_algebras())
@example(arguments(M3))
@example(arguments(product(N5, chain_algebra(1))))
@example(changed(power(chain_algebra(2), 2), "meet", 2, 4, 0))
@example(changed(power(chain_algebra(2), 2), "join", 1, 3, 5))
@example(changed(power(chain_algebra(1), 3), "join", 2, 4, 7))
@example(changed(chain_algebra(3), "oplus", 1, 2, 0))
@example(changed(chain_algebra(3), "odot", 0, 1, 1))
@example(changed(product(chain_algebra(2), chain_algebra(1)), "oplus", 1, 2,
                 5))
@example(changed(product(chain_algebra(2), chain_algebra(1)), "odot", 3, 4,
                 0))
def test_validation_matches_the_ordered_scan(args):
    assert outcome(args) == scanned(args)
    triples = list(iproduct(range(args[0]), repeat=3))
    for t in args[1:5]:                 # each commutative, as Light's test needs
        assert algebra._light(t) == all(t[t[x][y]][z] == t[x][t[y][z]]
                                        for x, y, z in triples)


def test_a_disagreement_with_the_scan_is_an_internal_error():
    a = power(chain_algebra(2), 2)
    with mock.patch.object(algebra, "_cubic_axioms_hold", lambda a: False):
        with pytest.raises(InternalConsistencyError):
            validated(a)


def test_a_125_element_algebra_validates_within_half_a_second():
    a = power(chain_algebra(4), 3)
    start = time.perf_counter()
    assert validated(a) == a
    assert time.perf_counter() - start < 0.5
