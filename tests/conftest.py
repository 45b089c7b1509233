"""Shared fixtures: the desk-scale suite of test algebras."""
from itertools import combinations_with_replacement

import pytest

from pmvdual.algebra import (FinAlgebra, all_subalgebra_carriers,
                             chain_algebra, generated_carrier, power,
                             restrict, trivial_algebra)
from pmvdual.skeleton import boolean_lattice


def square_subalgebras(n):
    """Every subalgebra of the chain square, as concrete algebras."""
    sq = power(chain_algebra(n), 2)
    return [restrict(sq, c, label=f"PL{n}^2|{len(c)}")
            for c in all_subalgebra_carriers(sq)]


def cube_three_generated():
    """Every 3-generated subalgebra of the cube over the 3-element chain."""
    cube = power(chain_algebra(2), 3)
    carriers = set()
    for gens in combinations_with_replacement(range(cube.size), 3):
        carriers.add(generated_carrier(cube, gens))
    return [restrict(cube, c, label=f"PL2^3|{len(c)}")
            for c in sorted(carriers, key=lambda c: (len(c), c))]


def chain_lattice(k):
    """The k-element chain as a bounded distributive lattice algebra."""
    m = tuple(tuple(min(i, j) for j in range(k)) for i in range(k))
    j = tuple(tuple(max(i, j) for j in range(k)) for i in range(k))
    return FinAlgebra(k, m, j, j, m, 0, k - 1, label=f"C{k}")


def idempotents_not_closed_under_join():
    """A valid algebra whose (+)-idempotents 0, 1, 2 and 4 are not closed
    under join: 1 v 2 = 3, and 3 (+) 3 = 4."""
    meet = ((0, 0, 0, 0, 0), (0, 1, 0, 1, 1), (0, 0, 2, 2, 2),
            (0, 1, 2, 3, 3), (0, 1, 2, 3, 4))
    join = ((0, 1, 2, 3, 4), (1, 1, 3, 3, 4), (2, 3, 2, 3, 4),
            (3, 3, 3, 3, 4), (4, 4, 4, 4, 4))
    oplus = ((0, 1, 2, 3, 4), (1, 1, 4, 4, 4), (2, 4, 2, 4, 4),
             (3, 4, 4, 4, 4), (4, 4, 4, 4, 4))
    return FinAlgebra(5, meet, join, oplus, meet, 0, 4)


@pytest.fixture(scope="session")
def suite():
    """(n, algebra) pairs: all square subalgebras for n in {2, 3, 4}."""
    out = []
    for n in (2, 3, 4):
        out.extend((n, a) for a in square_subalgebras(n))
    return out


@pytest.fixture(scope="session")
def cube_suite():
    return cube_three_generated()


@pytest.fixture(scope="session")
def small_lattices():
    """Bounded distributive lattices with at most 4 elements."""
    return [trivial_algebra(), chain_lattice(2), chain_lattice(3),
            chain_lattice(4), boolean_lattice(2)]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    import sys
    test_acceptance = sys.modules.get("test_acceptance") or \
        sys.modules.get("tests.test_acceptance")
    if test_acceptance is None or not test_acceptance.RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(test_acceptance.RESULTS):
        ok, desc = test_acceptance.RESULTS[num]
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {num:2d}: {status} - {desc}")
