from itertools import product

import pytest

from pmvdual.chain import Subalgebra
from pmvdual.errors import (MalformedSequenceError, NotASubalgebraError,
                            SizeLimitError)
from pmvdual.relations import (BinRel, GoodSeq, _chain_square, _file_sn,
                               _good_sequences,
                               adjudicate_n4_discrepancy, bottom_seq,
                               candidate_sequences,
                               classify_square_subalgebra, compute_Sn,
                               format_frac, good_sequence_witness,
                               is_diagonal_of_subalgebra, is_good_sequence,
                               is_square_subalgebra, leq_rel, lhd_rel,
                               meet_irreducibles, parse_seq_label, rectangle,
                               rel_lattice_to_dot, rel_to_seq, seq_to_rel,
                               sn_relations, square_subalgebras_oracle,
                               top_seq)

from pmvdual.search import constraint_maps, file_constraints

from test_algebra import oracle_generated_carrier


def test_lhd_and_leq():
    r = lhd_rel(2)
    assert r.pairs == {(0, 0), (0, 1), (0, 2), (1, 2), (2, 2)}
    assert lhd_rel(4).pairs < leq_rel(4).pairs


def test_rectangle():
    s = (Subalgebra(4, (0, 1, 2, 3, 4)), Subalgebra(4, (0, 1, 2, 3, 4)))
    rect = rectangle(4, s, 1, 3)
    assert rect == {(0, 3), (0, 4), (1, 3), (1, 4)}
    with pytest.raises(ValueError):
        rectangle(4, s, 3, 1)


def test_rectangle_respects_the_given_product():
    s = ((0, 2, 4), (0, 2, 4))
    assert rectangle(4, s, 2, 2) == {(0, 2), (0, 4), (2, 2), (2, 4)}
    with pytest.raises(ValueError):
        rectangle(4, s, 1, 2)


def test_sequence_validation():
    GoodSeq(4, (2, 2, 4))
    with pytest.raises(MalformedSequenceError):
        GoodSeq(4, (2, 2))                     # wrong length
    with pytest.raises(MalformedSequenceError):
        GoodSeq(4, (0, 2, 4))                  # y_1 < 1
    with pytest.raises(MalformedSequenceError):
        GoodSeq(4, (3, 2, 4))                  # not nondecreasing


def test_the_sequences_of_Sn_pass_the_checking_constructor():
    for n in range(1, 10):
        assert all(GoodSeq(n, s.y) == s for s in compute_Sn(n).elements)


def test_labels():
    assert GoodSeq(4, (2, 2, 4)).label() == "[2/4,2/4,1]"
    assert top_seq(4).label() == "[1/4,2/4,3/4]"
    assert parse_seq_label("[2/4,2/4,1]", 4) == (2, 2, 4)
    assert format_frac(0, 4) == "0"


def test_seq_rel_roundtrip():
    for n in (2, 3, 4, 5):
        for seq in compute_Sn(n).elements:
            assert rel_to_seq(seq_to_rel(seq)) == seq
    assert seq_to_rel(bottom_seq(3)).pairs == lhd_rel(3).pairs
    assert seq_to_rel(top_seq(3)).pairs == leq_rel(3).pairs


def test_rel_to_seq_rejects_non_members():
    with pytest.raises(NotASubalgebraError):
        rel_to_seq(BinRel(2, frozenset({(0, 0), (2, 2)})))


def test_candidate_counts_are_catalan():
    assert [len(candidate_sequences(n)) for n in range(1, 7)] == \
        [1, 2, 5, 14, 42, 132]


@pytest.mark.parametrize("n", [-2, -1, 0])
def test_candidates_and_Sn_reject_n_below_one(n):
    for build in (candidate_sequences, compute_Sn):
        with pytest.raises(ValueError, match=f"n must be >= 1, got {n}$"):
            build(n)


def test_good_sequence_examples_at_n4():
    assert is_good_sequence(GoodSeq(4, (2, 2, 4)), "corner")
    assert is_good_sequence(GoodSeq(4, (2, 2, 4)), "full")
    w = good_sequence_witness(GoodSeq(4, (1, 2, 4)), "full")
    assert w is not None
    assert (w.op, w.left, w.right, w.result) == \
        ("oplus", (1, 1), (2, 2), (3, 3))
    assert "(1/4,1/4) (+) (2/4,2/4) = (3/4,3/4)" in w.describe(4)


def test_corner_mode_equals_full_mode_up_to_n6():
    for n in range(1, 7):
        for seq in candidate_sequences(n):
            assert is_good_sequence(seq, "corner") == \
                is_good_sequence(seq, "full"), seq


def test_lattice_sizes():
    lats = [compute_Sn(n) for n in range(1, 13)]
    assert [len(lat.elements) for lat in lats] == \
        [1, 2, 3, 7, 13, 37, 83, 242, 614, 1804, 4869, 14900]
    # meet-irreducible elements, the top included by convention
    assert [sum(lat.meet_irreducible) for lat in lats] == \
        [1, 2, 3, 6, 8, 16, 21, 45, 66, 123, 180, 382]


def hasse_by_pairs(lat):
    """Upper covers from pairwise comparisons: j covers i when no k
    above i lies strictly below j."""
    m = len(lat.elements)
    covers = []
    for i in range(m):
        above = [j for j in range(m) if j != i and lat.leq(i, j)]
        cov = [j for j in above
               if not any(lat.leq(k, j) and k != j for k in above)]
        covers.append(tuple(sorted(cov)))
    return tuple(covers)


@pytest.mark.parametrize("n", range(1, 9))
def test_compute_Sn_equals_its_oracles(n):
    lat = compute_Sn(n)
    assert list(lat.elements) == [s for s in candidate_sequences(n)
                                  if is_good_sequence(s, "full")]
    assert lat.covers == hasse_by_pairs(lat)
    # meet-irreducible: not the intersection of the relations strictly
    # above it; the top, with nothing above, by convention
    rels = [seq_to_rel(s).pairs for s in lat.elements]
    for i, rel in enumerate(rels):
        above = [rels[j] for j in range(len(rels)) if j != i and lat.leq(i, j)]
        meet = frozenset.intersection(*above) if above else None
        assert lat.meet_irreducible[i] == (meet != rel)


def oracle_sn_constraints(n):
    """The good-sequence search as a constraint list, each allowed set
    listed tuple by tuple: point i - 1 holds the image n - y_i."""
    def allowed(arity, test):
        return frozenset(d for d in product(range(n), repeat=arity)
                         if test(*(n - v for v in d)))

    oplus = allowed(3, lambda yj, yk, ya: min(n, yj + yk) >= ya)
    oplus_top = allowed(2, lambda yj, yk: min(n, yj + yk) >= n)
    odot = allowed(3, lambda ya, yj, yk: max(0, yj + yk - n) >= ya)
    rising = allowed(2, lambda yi, yk: yi <= yk)
    constraints = [((i - 1,), allowed(1, lambda y, i=i: y >= i))
                   for i in range(1, n)]
    constraints += [((i - 1, i), rising) for i in range(1, n - 1)]
    for j in range(1, n):
        for k in range(j, n):
            if j + k < n:
                constraints.append(((j - 1, k - 1, j + k - 1), oplus))
            else:
                constraints.append(((j - 1, k - 1), oplus_top))
            if j + k > n:
                constraints.append(((j + k - n - 1, j - 1, k - 1), odot))
    return constraints


@pytest.mark.parametrize("n", range(1, 13))
def test_the_direct_sn_filing_matches_the_constraint_list(n):
    constraints = oracle_sn_constraints(n)
    assert _good_sequences(n) == [
        tuple(n - d for d in images)
        for images in constraint_maps(n - 1, n, constraints)]
    filed, oracle = _file_sn(n), file_constraints(n - 1, n, constraints)
    assert filed[:3] == oracle[:3]
    for got, want in zip(filed[3:5], oracle[3:5]):
        assert [sorted(point) for point in got] == \
            [sorted(point) for point in want]


def test_n4_lattice_matches_the_published_diagram():
    lat = compute_Sn(4)
    ys = [s.y for s in lat.elements]
    assert ys == [(4, 4, 4), (3, 4, 4), (3, 3, 4), (2, 4, 4),
                  (2, 3, 4), (2, 2, 4), (1, 2, 3)]
    assert lat.covers == ((1,), (2, 3), (4,), (4,), (5,), (6,), ())
    # only [3/4,1,1] fails to be meet-irreducible
    assert lat.meet_irreducible == (True, False, True, True, True, True, True)
    assert [s.label() for s in meet_irreducibles(lat)] == \
        ["[1,1,1]", "[3/4,3/4,1]", "[2/4,1,1]", "[2/4,3/4,1]",
         "[2/4,2/4,1]", "[1/4,2/4,3/4]"]


def test_bottom_and_top():
    lat = compute_Sn(4)
    assert lat.bottom.y == (4, 4, 4)
    assert lat.top.y == (1, 2, 3)
    assert lat.leq(0, 6) and not lat.leq(6, 0)


def test_sn_relations_are_square_subalgebras():
    for n in (2, 3, 4):
        for rel in sn_relations(n).values():
            assert is_square_subalgebra(rel)
            assert lhd_rel(n).pairs <= rel.pairs <= leq_rel(n).pairs


def test_oracle_agrees_with_the_algorithm():
    for n in range(1, 5):
        algo = {s.y for s in compute_Sn(n).elements}
        between = {rel_to_seq(r).y for r in square_subalgebras_oracle(n)
                   if lhd_rel(n).pairs <= r.pairs}
        assert algo == between


def test_oracle_counts():
    assert [len(square_subalgebras_oracle(n)) for n in range(1, 7)] == \
        [2, 7, 8, 23, 18, 79]
    with pytest.raises(SizeLimitError):
        square_subalgebras_oracle(7)


def oracle_classify(r: BinRel) -> str:
    """Shape of an oracle relation: diagonal or restriction form.

    A non-diagonal subalgebra of the order sits between the restricted
    minimal relation and the restricted order on the product of its
    projections.
    """
    if is_diagonal_of_subalgebra(r):
        return "diagonal"
    pr1 = sorted({x for (x, _) in r.pairs})
    pr2 = sorted({y for (_, y) in r.pairs})
    s_pairs = frozenset((x, y) for x in pr1 for y in pr2)
    lhd_s = lhd_rel(r.n).pairs & s_pairs
    leq_s = leq_rel(r.n).pairs & s_pairs
    if lhd_s <= r.pairs <= leq_s:
        return "restriction"
    raise NotASubalgebraError(
        "relation is neither a diagonal nor of restriction form")


def test_oracle_classification():
    for n in range(1, 5):
        for r in square_subalgebras_oracle(n):
            assert oracle_classify(r) in ("diagonal", "restriction")


def oracle_close_pairs(n, seed):
    """The subalgebra of the chain square generated by the pairs, closed
    by the two-sided oracle, with (x, y) coded as x (n + 1) + y."""
    carrier = oracle_generated_carrier(_chain_square(n),
                                       [x * (n + 1) + y for (x, y) in seed])
    return frozenset(divmod(c, n + 1) for c in carrier)


def frontier_square_subalgebras(n):
    """The subalgebras of the chain square inside the order, found by
    closing the constants, then every extension of a found one by one
    more pair of the order, each from scratch."""
    leq_pairs = leq_rel(n).pairs
    bottom = oracle_close_pairs(n, frozenset())
    seen = {bottom}
    frontier = [bottom]
    while frontier:
        cur = frontier.pop()
        for p in leq_pairs - cur:
            bigger = oracle_close_pairs(n, cur | {p})
            if bigger not in seen:
                seen.add(bigger)
                frontier.append(bigger)
    rels = [BinRel(n, pairs) for pairs in seen]
    rels.sort(key=lambda r: (len(r.pairs), sorted(r.pairs)))
    return rels


@pytest.mark.parametrize("n", range(1, 7))
def test_square_oracle_matches_the_frontier_search(n):
    assert square_subalgebras_oracle(n) == frontier_square_subalgebras(n)


def test_classify_square_subalgebra():
    assert classify_square_subalgebra(leq_rel(2)) == "sub_of_leq"
    assert classify_square_subalgebra(leq_rel(2).converse()) == "sub_of_geq"
    diag = BinRel(2, frozenset({(0, 0), (1, 1), (2, 2)}))
    assert classify_square_subalgebra(diag) == "diagonal"
    full = BinRel(2, frozenset((x, y) for x in range(3) for y in range(3)))
    assert classify_square_subalgebra(full) == "product"
    with pytest.raises(NotASubalgebraError):
        classify_square_subalgebra(BinRel(2, frozenset({(0, 0)})))


def test_adjudication_note():
    note = adjudicate_n4_discrepancy()
    assert "[2/4,2/4,1]" in note and "[1/4,2/4,1]" in note
    assert "(1/4,1/4) (+) (2/4,2/4) = (3/4,3/4)" in note


def test_dot_export_styles():
    dot = rel_lattice_to_dot(compute_Sn(4))
    assert dot.count("style=dashed") == 1        # exactly [3/4,1,1]
    assert "digraph" in dot
