from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from pmvdual.algebra import chain_algebra
from pmvdual.chain import (OP_NAMES, Chain, Subalgebra, chain_subalgebras,
                           divisors)
from pmvdual.errors import InvalidElementError, SizeLimitError

ORACLE_MAX_N = 12


def _closed_under_ops(c: Chain, subset: frozenset[int]) -> bool:
    tables = [chain_algebra(c.n).table(name) for name in OP_NAMES]
    for x in subset:
        for y in subset:
            for t in tables:
                if t[x][y] not in subset:
                    return False
    return True


def subalgebra_oracle(c: Chain) -> list[Subalgebra]:
    """Brute-force subset scan; independent check of chain_subalgebras."""
    if c.n > ORACLE_MAX_N:
        raise SizeLimitError(
            f"subset scan supports n <= {ORACLE_MAX_N}, got n = {c.n}"
        )
    interior = [x for x in c.elements if x not in (0, c.n)]
    found = []
    for r in range(len(interior) + 1):
        for extra in combinations(interior, r):
            subset = frozenset((0, c.n) + extra)
            if _closed_under_ops(c, subset):
                found.append(Subalgebra(c.n, tuple(sorted(subset))))
    found.sort(key=lambda s: (len(s.carrier), s.carrier))
    return found


def test_operation_values_on_the_five_element_chain():
    a = chain_algebra(4)
    assert a.oplus[1][2] == 3
    assert a.oplus[3][3] == 4          # truncation at 1
    assert a.odot[3][3] == 2           # 3/4 + 3/4 - 1 = 1/2
    assert a.odot[1][2] == 0           # truncation at 0
    assert a.meet[1][3] == 1 and a.join[1][3] == 3


def test_tau_threshold():
    c = Chain(4)
    assert [c.tau(2, x) for x in c.elements] == [0, 0, 4, 4, 4]
    assert [c.tau(0, x) for x in c.elements] == [4] * 5


def test_tau_is_term_definable_from_the_monoid_operations():
    # tau_d(x) arises by iterating oplus on odot-powers: both checked
    # extensionally against the closure of {x} under the operations.
    c, a = Chain(4), chain_algebra(4)
    for d in range(1, 5):
        for x in c.elements:
            closure = {x, 0, 4}
            changed = True
            while changed:
                changed = False
                for u in list(closure):
                    for v in list(closure):
                        for name in ("meet", "join", "oplus", "odot"):
                            w = a.table(name)[u][v]
                            if w not in closure:
                                closure.add(w)
                                changed = True
            assert c.tau(d, x) in closure


def test_element_range_is_enforced():
    c = Chain(3)
    with pytest.raises(InvalidElementError):
        c.check(4)
    with pytest.raises(ValueError):
        Chain(0)


@given(st.integers(1, 9), st.data())
def test_monoid_laws(n, data):
    a = chain_algebra(n)
    oplus, odot = a.oplus, a.odot
    x = data.draw(st.integers(0, n))
    y = data.draw(st.integers(0, n))
    z = data.draw(st.integers(0, n))
    assert oplus[x][y] == oplus[y][x]
    assert odot[x][y] == odot[y][x]
    assert oplus[oplus[x][y]][z] == oplus[x][oplus[y][z]]
    assert odot[odot[x][y]][z] == odot[x][odot[y][z]]
    assert oplus[x][0] == x and odot[x][n] == x
    # monotonicity
    if x <= y:
        assert oplus[x][z] <= oplus[y][z]
        assert odot[x][z] <= odot[y][z]


def test_divisors():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(7) == [1, 7]


def test_subalgebras_are_the_divisor_family():
    c = Chain(6)
    subs = chain_subalgebras(c)
    carriers = [s.carrier for s in subs]
    assert carriers == [(0, 6), (0, 3, 6), (0, 2, 4, 6), (0, 1, 2, 3, 4, 5, 6)]


@pytest.mark.parametrize("n", range(1, 13))
def test_subalgebras_match_brute_force(n):
    c = Chain(n)
    assert sorted(s.carrier for s in chain_subalgebras(c)) == \
        sorted(s.carrier for s in subalgebra_oracle(c))


def test_oracle_size_limit():
    with pytest.raises(SizeLimitError):
        subalgebra_oracle(Chain(13))

