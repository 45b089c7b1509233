"""Subalgebras of the order inside the chain square.

The relations between the minimal relation (x = 0 or y = 1) and the full
order are encoded as nondecreasing sequences [y_1, ..., y_{n-1}]; the
lattice of all of them is the relation set of the dualizing structure.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import chain, combinations_with_replacement
from operator import le

from .algebra import (FinAlgebra, _trusted, all_subalgebra_carriers,
                      chain_algebra, generated_carrier, power, restrict)
from .chain import Chain, Subalgebra, chain_subalgebras
from .errors import (BudgetExceededError, MalformedSequenceError,
                     NotASubalgebraError, SizeLimitError)
from .search import Filed, Points, walk

Pair = tuple[int, int]

ORACLE_MAX_N = 6

# Budget of the good-sequence search: a fixed charge of
# 2 n^3 + 2 n^2 + (n - 1) n cells, made before anything is built, then
# one per node, partial and complete maps.  The charge is the size of
# the tuple sets that the search was first set up from; its tables now
# take at most n^2 cells each, but the charge stays, so that the budget
# ends the same searches: n = 14 takes 6 062 cells and 603 636 nodes,
# n = 15 takes 7 410 and 1 846 201, so `sn 14` completes and `sn 15`
# stops; past n = 78 the charge alone exceeds it.  It stays below
# search.BUDGET, under which `sn 15` would complete and then run _hasse,
# whose cost grows as the square of the sequences (19.6 s at n = 14).
SN_BUDGET = 1_000_000


# -- binary relations on the chain -------------------------------------------

@dataclass(frozen=True)
class BinRel:
    n: int
    pairs: frozenset[Pair]

    def __post_init__(self):
        object.__setattr__(self, "pairs", frozenset(self.pairs))
        for (x, y) in self.pairs:
            if not (0 <= x <= self.n and 0 <= y <= self.n):
                raise ValueError(f"pair {(x, y)} out of range for n={self.n}")

    def converse(self) -> "BinRel":
        return BinRel(self.n, frozenset((y, x) for (x, y) in self.pairs))


def lhd_rel(n: int) -> BinRel:
    """The minimal relation: first coordinate 0 or second coordinate 1."""
    return BinRel(n, frozenset((x, y) for x in range(n + 1)
                               for y in range(n + 1) if x == 0 or y == n))


def leq_rel(n: int) -> BinRel:
    return BinRel(n, frozenset((x, y) for x in range(n + 1)
                               for y in range(x, n + 1)))


def is_square_subalgebra(r: BinRel) -> bool:
    """Contains both constants and closed under the componentwise operations."""
    return _close_pairs(r.n, r.pairs) == r.pairs


def order_failure(size: int, pairs) -> tuple | None:
    """The first way the pairs fail to be a partial order on
    {0..size-1}: ("not reflexive", p), ("not antisymmetric", (u, v)) or
    ("not transitive", (u, v, w)); None for a partial order."""
    return next(chain(
        (("not reflexive", p) for p in range(size) if (p, p) not in pairs),
        (("not antisymmetric", (u, v)) for (u, v) in pairs
         if u != v and (v, u) in pairs),
        (("not transitive", (u, v, w)) for (u, v) in pairs
         for (v2, w) in pairs if v2 == v and (u, w) not in pairs)), None)


# -- rectangles ---------------------------------------------------------------

def rectangle(n: int, s: tuple, x: int, y: int) -> frozenset[Pair]:
    """The down/up rectangle at (x, y) inside a product of subalgebras.

    s is a pair of chain subalgebras (first-coordinate carrier,
    second-coordinate carrier); accepts Subalgebra values or raw carriers.
    """
    car1 = tuple(s[0].carrier if isinstance(s[0], Subalgebra) else s[0])
    car2 = tuple(s[1].carrier if isinstance(s[1], Subalgebra) else s[1])
    Chain(n).check(x)
    Chain(n).check(y)
    if x > y:
        raise ValueError(f"rectangle requires x <= y, got ({x}, {y})")
    if x not in car1 or y not in car2:
        raise ValueError(f"({x}, {y}) is not in the given product")
    return frozenset((x2, y2) for x2 in car1 if x2 <= x
                     for y2 in car2 if y <= y2)


# -- good sequences ------------------------------------------------------------

@dataclass(frozen=True)
class GoodSeq:
    """Sequence [y_1, ..., y_{n-1}] of numerators; y_0 = 0 and y_n = n implicit."""

    n: int
    y: tuple[int, ...]

    def __post_init__(self):
        y = tuple(int(v) for v in self.y)
        object.__setattr__(self, "y", y)
        if len(y) != self.n - 1:
            raise MalformedSequenceError(
                f"expected {self.n - 1} entries, got {len(y)}")
        for i, v in enumerate(y, start=1):
            if not (i <= v <= self.n):
                raise MalformedSequenceError(
                    f"entry y_{i} = {v} violates {i} <= y_{i} <= {self.n}")
        if any(y[i] > y[i + 1] for i in range(len(y) - 1)):
            raise MalformedSequenceError(f"sequence {y} is not nondecreasing")

    def value(self, i: int) -> int:
        """y_i with the implicit endpoints y_0 = 0 and y_n = n."""
        if i == 0:
            return 0
        if i == self.n:
            return self.n
        return self.y[i - 1]

    def label(self) -> str:
        return "[" + ",".join(format_frac(v, self.n) for v in self.y) + "]"


def format_frac(v: int, n: int) -> str:
    if v == 0:
        return "0"
    if v == n:
        return "1"
    return f"{v}/{n}"


def parse_seq_label(label: str, n: int) -> tuple[int, ...]:
    body = label.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise ValueError(f"bad sequence label {label!r}")
    body = body[1:-1].strip()
    if not body:
        return ()
    out = []
    for token in body.split(","):
        token = token.strip()
        if token == "0":
            out.append(0)
        elif token == "1":
            out.append(n)
        else:
            num, den = token.split("/")
            if int(den) != n:
                raise ValueError(f"denominator {den} does not match n={n}")
            out.append(int(num))
    return tuple(out)


def bottom_seq(n: int) -> GoodSeq:
    return GoodSeq(n, tuple([n] * (n - 1)))


def top_seq(n: int) -> GoodSeq:
    return GoodSeq(n, tuple(range(1, n)))


def seq_to_rel(seq: GoodSeq) -> BinRel:
    """The union of rectangles encoded by the sequence: pairs with b >= y_a."""
    n = seq.n
    return BinRel(n, frozenset((a, b) for a in range(n + 1)
                               for b in range(n + 1) if b >= seq.value(a)))


def rel_to_seq(r: BinRel) -> GoodSeq:
    """Inverse of seq_to_rel on relations between the minimal one and the order."""
    n = r.n
    if not lhd_rel(n).pairs <= r.pairs:
        raise NotASubalgebraError("relation does not contain the minimal relation")
    if not r.pairs <= leq_rel(n).pairs:
        raise NotASubalgebraError("relation is not contained in the order")
    y = []
    for i in range(1, n):
        candidates = [b for (a, b) in r.pairs if a == i]
        if not candidates:
            raise NotASubalgebraError(f"no pair with first coordinate {i}")
        y.append(min(candidates))
    seq = GoodSeq(n, tuple(y))
    if seq_to_rel(seq).pairs != r.pairs:
        raise NotASubalgebraError("relation is not a union of rectangles")
    return seq


@dataclass(frozen=True)
class SeqWitness:
    op: str                 # "oplus" or "odot"
    left: Pair              # (j/n, y_j)
    right: Pair             # (j'/n, y_j')
    result: Pair            # the pair that escapes the union

    def describe(self, n: int) -> str:
        def fmt(p):
            return f"({format_frac(p[0], n)},{format_frac(p[1], n)})"
        sym = "(+)" if self.op == "oplus" else "(.)"
        return (f"{fmt(self.left)} {sym} {fmt(self.right)} = "
                f"{fmt(self.result)} lies outside the union")


def good_sequence_witness(seq: GoodSeq, mode: str = "corner") -> SeqWitness | None:
    """None if the encoded union is closed; otherwise the first violation.

    corner mode restricts the check to indices i with y_i < y_{i+1}
    (taking y_n = 1); full mode checks every index pair.
    """
    if mode not in ("corner", "full"):
        raise ValueError(f"unknown mode {mode!r}")
    n = seq.n
    pl = chain_algebra(n)
    if mode == "full":
        indices = list(range(1, n))
    else:
        indices = [i for i in range(1, n) if seq.value(i) < seq.value(i + 1)]
    for j in indices:
        for jp in indices:
            for op in ("odot", "oplus"):
                t = pl.table(op)
                a = t[j][jp]
                b = t[seq.value(j)][seq.value(jp)]
                if b < seq.value(a):
                    return SeqWitness(op, (j, seq.value(j)),
                                      (jp, seq.value(jp)), (a, b))
    return None


def is_good_sequence(seq: GoodSeq, mode: str = "corner") -> bool:
    return good_sequence_witness(seq, mode) is None


# -- the relation lattice -------------------------------------------------------

def candidate_sequences(n: int) -> list[GoodSeq]:
    """Step 1: all nondecreasing sequences with i/n <= y_i, in descending
    lexicographic order: bottom (all 1) first, top (i/n) last."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return [GoodSeq(n, y) for y in sorted(
        combinations_with_replacement(range(1, n + 1), n - 1), reverse=True)
        if all(map(le, range(1, n), y))]


@dataclass(frozen=True)
class RelLattice:
    n: int
    elements: tuple[GoodSeq, ...]
    covers: tuple[tuple[int, ...], ...]          # upper covers per element
    meet_irreducible: tuple[bool, ...]

    def leq(self, i: int, j: int) -> bool:
        """Containment of the encoded relations: componentwise converse order."""
        yi, yj = self.elements[i].y, self.elements[j].y
        return all(b <= a for a, b in zip(yi, yj))

    @property
    def bottom(self) -> GoodSeq:
        return self.elements[0]

    @property
    def top(self) -> GoodSeq:
        return self.elements[-1]


def _file_sn(n: int) -> Filed:
    """The search's set-up for the good sequences, built directly, as
    algebra._file_homs builds the hom searches.

    Point i - 1 holds the image d = n - y_i.  Every closure condition
    allows an interval of the image of its largest point:
    - on a point's own images, y_i >= i is d <= n - i, and (+) with
      j = k and 2j >= n is 2 d_j <= n;
    - rising is d_{i+1} <= d_i;
    - (+) with j + k >= n is d_k <= n - d_j, and with j + k < n it is
      d_{j+k} >= max(0, d_j + d_k - n);
    - (.) with j + k > n is d_k <= d_a - d_j at a = j + k - n.
    So each kind of condition has one table, over n or n^2 cells,
    shared by all its constraints.  The constraints on the same points
    are collected as one bitmask of their kinds and meet as one table,
    as file_constraints merges them: rising meets (+) at j = k = 1, and
    a (.) triple is a (+) triple when 2j = n."""
    full, cells = (1 << n) - 1, range(n)
    # by kind, the images allowed to the largest point, indexed by the
    # others': 0 rising, 1 (+) reaching 1, 2 (+) and 3 (.) with j = k,
    # 4 (+) and 5 (.) on three points
    tables = (
        tuple([(2 << d) - 1 for d in cells]),
        tuple([(2 << min(n - 1, n - d)) - 1 for d in cells]),
        tuple([full ^ (1 << max(0, 2 * d - n)) - 1 for d in cells]),
        tuple([(2 << d // 2) - 1 for d in cells]),
        tuple([full ^ (1 << max(0, q + r - n)) - 1
               for q in cells for r in cells]),
        tuple([(2 << q - r) - 1 if q >= r else 0
               for q in cells for r in cells]))
    own = [(2 << n - i) - 1 for i in range(1, n)]
    kinds: dict[Points, int] = {}

    def add(points: Points, kind: int) -> None:
        kinds[points] = kinds.get(points, 0) | 1 << kind

    for i in range(1, n - 1):
        add((i - 1, i), 0)
    for j in range(1, n):
        if 2 * j < n:
            add((j - 1, 2 * j - 1), 2)
        else:
            own[j - 1] &= (2 << n // 2) - 1
            if 2 * j > n:
                add((2 * j - n - 1, j - 1), 3)
        for k in range(j + 1, n):
            if j + k < n:
                add((j - 1, k - 1, j + k - 1), 4)
            else:
                add((j - 1, k - 1), 1)
                if j + k > n:
                    add((j + k - n - 1, j - 1, k - 1), 5)
    memo: dict[int, tuple[int, ...]] = {}
    pairs: list[list[tuple]] = [[] for _ in range(n - 1)]
    triples: list[list[tuple]] = [[] for _ in range(n - 1)]
    for points, mask in kinds.items():
        table = memo.get(mask)
        if table is None:
            table = memo[mask] = reduce(
                lambda t1, t2: tuple([m1 & m2 for m1, m2 in zip(t1, t2)]),
                [t for k, t in enumerate(tables) if mask >> k & 1])
        if len(points) == 2:
            pairs[points[1]].append((points[0], table))
        else:
            triples[points[2]].append((points[0], points[1], table))
    return n - 1, n, own, pairs, triples, {}


def _good_sequences(n: int) -> list[tuple[int, ...]]:
    """Every good sequence, in descending lexicographic order.

    Point i - 1 of the search holds y_i as the image n - y_i, so the
    search's lexicographic order is the descending order of y.  The
    constraints (_file_sn) state full mode's closure condition
    literally: for j <= j', (a, b) = (j, y_j) (+) (j', y_j') needs
    b >= y_a, a ternary constraint, or a binary one when a = n, where
    y_n = n; the same holds for (.) when j + j' > n (below that a = 0,
    where y_0 = 0).  A fixed count of cells is charged to SN_BUDGET
    before anything is built, and the search gets what is left.
    """
    cells = 2 * n ** 3 + 2 * n ** 2 + (n - 1) * n
    if cells > SN_BUDGET:
        raise BudgetExceededError(SN_BUDGET)
    try:
        return [tuple(n - d for d in images) for images in
                walk(_file_sn(n), SN_BUDGET - cells)]
    except BudgetExceededError:
        raise BudgetExceededError(SN_BUDGET) from None


def _hasse(n: int, ys: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The upper covers of each sequence, as ascending index tuples.

    Element i lies below j when y_j <= y_i componentwise, so the up-set
    of i is the intersection, over the coordinates c, of the bitsets of
    the elements with y_c <= y_i[c].  The descending order of ys is a
    linear extension, so the lowest index k left in the strict up-set
    of i is a cover of i; removing k with its up-set leaves the next.
    """
    m = len(ys)
    # at_most[c][v]: bit e is set when y_c of element e is at most v;
    # int(..., 2) reads the last element's digit as bit 0
    digits = [b"1" * (v + 1) + b"0" * (255 - v) for v in range(n + 1)]
    at_most = []
    for c in range(n - 1):
        column = bytes(y[c] for y in reversed(ys))
        at_most.append([int(column.translate(d), 2) for d in digits])
    everything = (1 << m) - 1

    def up(i: int) -> int:
        found = everything
        for c, v in enumerate(ys[i]):
            found &= at_most[c][v]
        return found

    covers = []
    for i in range(m):
        rest = up(i) ^ (1 << i)
        cov = []
        while rest:
            k = (rest & -rest).bit_length() - 1
            cov.append(k)
            rest &= ~up(k)
        covers.append(tuple(cov))
    return covers


@lru_cache(maxsize=None)
def compute_Sn(n: int) -> RelLattice:
    """The good sequences by one constraint search, ordered by bitsets."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    ys = _good_sequences(n)
    covers = _hasse(n, ys)
    # meet-irreducible: exactly one upper cover; the top (the last
    # element, the order itself) stays by convention
    irr = [len(cov) == 1 for cov in covers]
    irr[-1] = True
    return RelLattice(n, tuple(_trusted(GoodSeq, n, y) for y in ys),
                      tuple(covers), tuple(irr))


def meet_irreducibles(lat: RelLattice) -> list[GoodSeq]:
    return [s for s, keep in zip(lat.elements, lat.meet_irreducible) if keep]


def sn_relations(n: int) -> dict[tuple[int, ...], BinRel]:
    """The relation set of the dualizing structure, keyed by sequence."""
    return {s.y: seq_to_rel(s) for s in compute_Sn(n).elements}


# -- brute-force oracle -----------------------------------------------------------

@lru_cache(maxsize=8)
def _chain_square(n: int) -> FinAlgebra:
    return power(chain_algebra(n), 2)


def _close_pairs(n: int, seed) -> frozenset[Pair]:
    """The subalgebra of the chain square generated by the pairs, with
    (x, y) coded as element x (n + 1) + y of the square."""
    carrier = generated_carrier(_chain_square(n),
                                [x * (n + 1) + y for (x, y) in seed])
    return frozenset(divmod(c, n + 1) for c in carrier)


def square_subalgebras_oracle(n: int) -> list[BinRel]:
    """All subalgebras of the chain square contained in the order: the
    subuniverses of the order, itself a subalgebra of the square, with
    (x, y) coded as in _close_pairs."""
    if n > ORACLE_MAX_N:
        raise SizeLimitError(f"oracle supports n <= {ORACLE_MAX_N}, got {n}")
    codes = sorted(x * (n + 1) + y for (x, y) in leq_rel(n).pairs)
    rels = [BinRel(n, frozenset(divmod(codes[i], n + 1) for i in carrier))
            for carrier in all_subalgebra_carriers(
                restrict(_chain_square(n), codes))]
    rels.sort(key=lambda r: (len(r.pairs), sorted(r.pairs)))
    return rels


def is_diagonal_of_subalgebra(r: BinRel) -> bool:
    if any(x != y for (x, y) in r.pairs):
        return False
    carrier = frozenset(x for (x, _) in r.pairs)
    return any(frozenset(s.carrier) == carrier
               for s in chain_subalgebras(Chain(r.n)))


def classify_square_subalgebra(r: BinRel) -> str:
    """product / diagonal / sub_of_leq / sub_of_geq for square subalgebras."""
    if not is_square_subalgebra(r):
        raise NotASubalgebraError("pair set is not a subalgebra of the square")
    pr1 = {x for (x, _) in r.pairs}
    pr2 = {y for (_, y) in r.pairs}
    if r.pairs == frozenset((x, y) for x in pr1 for y in pr2):
        return "product"
    if is_diagonal_of_subalgebra(r):
        return "diagonal"
    if r.pairs <= leq_rel(r.n).pairs:
        return "sub_of_leq"
    if r.pairs <= leq_rel(r.n).converse().pairs:
        return "sub_of_geq"
    raise NotASubalgebraError(
        "square subalgebra is neither a product nor contained in an order")


# -- published-example adjudication ---------------------------------------------

def adjudicate_n4_discrepancy() -> str:
    """Known typo in the published worked example at n = 4.

    The published bullet list names [2/4,2/4,1] as failing via
    (1/4,1/4) (+) (2/4,2/4) = (3/4,3/4); the cited elements belong to the
    sequence [1/4,2/4,1].  Both classifications are recomputed here.
    """
    good = GoodSeq(4, (2, 2, 4))
    bad = GoodSeq(4, (1, 2, 4))
    assert is_good_sequence(good, "full") and is_good_sequence(good, "corner")
    witness = good_sequence_witness(bad, "full")
    assert witness is not None
    lines = [
        "discrepancy note (published worked example, n = 4):",
        "  the final not-good bullet names [2/4,2/4,1] with witness "
        "(1/4,1/4) (+) (2/4,2/4) = (3/4,3/4), but [2/4,2/4,1] is good "
        "(it also appears in the published good list).",
        "  the cited witness elements belong to [1/4,2/4,1], which is "
        "not good: " + witness.describe(4) + ".",
        "  adjudication: [2/4,2/4,1] classified good; [1/4,2/4,1] "
        "classified not good.",
    ]
    return "\n".join(lines)


# -- DOT export -----------------------------------------------------------------

def rel_lattice_to_dot(lat: RelLattice) -> str:
    """Hasse diagram; meet-irreducible nodes solid, others dashed."""
    lines = ["digraph Sn {", "  rankdir=BT;"]
    for i, seq in enumerate(lat.elements):
        style = "solid" if lat.meet_irreducible[i] else "dashed"
        lines.append(f'  n{i} [label="{seq.label()}", style={style}];')
    for i, cov in enumerate(lat.covers):
        for j in cov:
            lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
