from itertools import combinations

import pytest

from pmvdual.algebra import chain_algebra, power, trivial_algebra
from pmvdual.closure import (ClosureReport, _labeled_posets,
                             enumerate_xn_structures, fep_star_check,
                             fhp_star_check, is_algebraically_closed,
                             is_existentially_closed)
from pmvdual.duality import StructSpace, dual_space, empty_space
from pmvdual.errors import NonMemberError
from pmvdual.relations import order_failure
from pmvdual.skeleton import boolean_lattice, priestley_power

from conftest import chain_lattice


def two_space(sharp, order, size):
    return StructSpace(2, size, {(2,): frozenset(sharp),
                                 (1,): frozenset(order)})


@pytest.mark.parametrize("size, count", [(0, 1), (1, 1), (2, 3), (3, 19),
                                         (4, 219)])
def test_order_failure_accepts_exactly_the_labelled_posets(size, count):
    """Over every relation that contains the diagonal (4096 at size 4),
    the shared order check agrees with the enumeration's own filter."""
    loops = frozenset((p, p) for p in range(size))
    offdiag = [(u, v) for u in range(size) for v in range(size) if u != v]
    orders = {loops | frozenset(extra) for r in range(len(offdiag) + 1)
              for extra in combinations(offdiag, r)
              if order_failure(size, loops | frozenset(extra)) is None}
    posets = _labeled_posets(size)
    assert len(posets) == count
    assert orders == set(posets)


def test_enumeration_counts():
    assert len(enumerate_xn_structures(2, 0)) == 1     # the empty space
    assert len(enumerate_xn_structures(2, 1)) == 3
    assert len(enumerate_xn_structures(2, 2)) == 11
    assert len(enumerate_xn_structures(2, 3)) == 57


def test_enumeration_members_pass_membership():
    from pmvdual.duality import xn_membership
    for x in enumerate_xn_structures(2, 2):
        assert xn_membership(x, 2).member


def test_lifting_rejects_non_members():
    bad = two_space(set(), {(0, 0), (1, 1), (0, 1), (1, 0)}, 2)
    with pytest.raises(NonMemberError):
        fhp_star_check(bad, 2)


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
