"""Finite algebras in the signature {meet, join, oplus, odot, 0, 1}.

Covers both the bounded-distributive-lattice case (oplus = join,
odot = meet) and the general chain-valued case.  FinAlgebra(...), which
algebra_from_tables and from_json call, checks an algebra once, in
about generators x size^2 steps (_cubic_axioms_hold);
the first violated axiom and its witness come from the ordered scan of
triples, run only on failure.  Derived algebras (products, powers,
subalgebras, pointwise algebras) are not validated again: the axioms are
identities and one quasi-identity, which products and subalgebras
preserve, and the builder checks that its elements are closed under the
operations.  Products and powers are built from the factors' rows by
index arithmetic (element i |B| + j of A x B is (i, j)).  hom_enumerate
does not recheck the homs its constraint search lists; it keeps those of
its last few searches, since a dual space often follows a hom search.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, fields
from functools import lru_cache, partial, reduce
from itertools import chain, compress, repeat
from math import prod
from operator import add, and_, eq, getitem, mul, ne, or_

from . import search
from .chain import OP_NAMES, Chain
from .errors import (AxiomViolationError, InternalConsistencyError,
                     MalformedInputError, as_int, require_keys)
from .search import Filed, _table, charge, closed_sets, injective, walk

Table = tuple[tuple[int, ...], ...]


def _as_table(rows, size: int) -> Table:
    try:
        table = tuple(tuple(row) for row in rows)
        if not all(map({int}.issuperset, map(partial(map, type), table))):
            raise TypeError
    except TypeError:
        raise MalformedInputError(
            "an operation table must be a list of rows of integers") from None
    if len(table) != size or any(len(row) != size for row in table):
        raise AxiomViolationError("table-shape", (size,))
    if not all(map(set(range(size)).issuperset, table)):
        raise AxiomViolationError("table-range", (next(
            v for row in table for v in row if not 0 <= v < size),))
    return table


@dataclass(frozen=True)
class FinAlgebra:
    size: int
    meet: Table
    join: Table
    oplus: Table
    odot: Table
    zero: int
    one: int
    label: str = field(default="", compare=False)

    def __post_init__(self):
        for name in OP_NAMES:
            object.__setattr__(self, name, _as_table(getattr(self, name),
                                                     self.size))
        zero, one = as_int(self.zero, "zero"), as_int(self.one, "one")
        if not (0 <= zero < self.size and 0 <= one < self.size):
            raise AxiomViolationError("constants-range", (zero, one))
        _validate(self)

    def table(self, name: str) -> Table:
        return getattr(self, name)

    def relabel(self, label: str) -> "FinAlgebra":
        return _trusted(FinAlgebra, self.size, self.meet, self.join,
                        self.oplus, self.odot, self.zero, self.one, label)

    def to_json(self) -> dict:
        return {
            "size": self.size,
            "meet": [list(r) for r in self.meet],
            "join": [list(r) for r in self.join],
            "oplus": [list(r) for r in self.oplus],
            "odot": [list(r) for r in self.odot],
            "zero": self.zero,
            "one": self.one,
            "label": self.label,
        }

    @staticmethod
    def from_json(data: dict) -> "FinAlgebra":
        if not isinstance(data, dict):
            raise MalformedInputError("an algebra must be a JSON object")
        require_keys(data, (*OP_NAMES, "zero", "one"), "an algebra")
        return algebra_from_tables(
            {name: data[name] for name in OP_NAMES},
            {"zero": data["zero"], "one": data["one"]},
            label=data.get("label", ""),
        )


def algebra_from_tables(tables: dict, consts: dict, label: str = "") -> FinAlgebra:
    """Build a validated algebra; rejects with the first violated axiom."""
    meet = tables["meet"]
    size = len(meet) if isinstance(meet, (list, tuple)) else 0
    return FinAlgebra(size, *(tables[name] for name in OP_NAMES),
                      consts["zero"], consts["one"], label)


def _validate(a: FinAlgebra) -> None:
    """Raise the first violated axiom of a, whose tables and constants
    are in range, with its witness: the checks on elements and pairs in
    order, then _cubic_axioms_hold, and only if it fails the scan."""
    charge(a.size ** 3)     # the triples of the scan
    m, j = a.meet, a.join
    rng = range(a.size)
    for x in rng:
        if m[x][x] != x:
            raise AxiomViolationError("meet-idempotent", (x,))
        if j[x][x] != x:
            raise AxiomViolationError("join-idempotent", (x,))
        if m[x][a.one] != x:
            raise AxiomViolationError("one-is-top", (x,))
        if j[x][a.zero] != x:
            raise AxiomViolationError("zero-is-bottom", (x,))
    for x in rng:
        for y in rng:
            if m[x][y] != m[y][x]:
                raise AxiomViolationError("meet-commutative", (x, y))
            if j[x][y] != j[y][x]:
                raise AxiomViolationError("join-commutative", (x, y))
            if m[x][j[x][y]] != x:
                raise AxiomViolationError("absorption-meet-join", (x, y))
            if j[x][m[x][y]] != x:
                raise AxiomViolationError("absorption-join-meet", (x, y))
            if a.oplus[x][y] != a.oplus[y][x]:
                raise AxiomViolationError("oplus-commutative", (x, y))
            if a.odot[x][y] != a.odot[y][x]:
                raise AxiomViolationError("odot-commutative", (x, y))
    for x in rng:
        if a.oplus[x][a.zero] != x:
            raise AxiomViolationError("oplus-unit-zero", (x,))
        if a.odot[x][a.one] != x:
            raise AxiomViolationError("odot-unit-one", (x,))
    if _cubic_axioms_hold(a):
        return
    for x in rng:
        for y in rng:
            for z in rng:
                if m[m[x][y]][z] != m[x][m[y][z]]:
                    raise AxiomViolationError("meet-associative", (x, y, z))
                if j[j[x][y]][z] != j[x][j[y][z]]:
                    raise AxiomViolationError("join-associative", (x, y, z))
                if m[x][j[y][z]] != j[m[x][y]][m[x][z]]:
                    raise AxiomViolationError("distributivity", (x, y, z))
                if a.oplus[a.oplus[x][y]][z] != a.oplus[x][a.oplus[y][z]]:
                    raise AxiomViolationError("oplus-associative", (x, y, z))
                if a.odot[a.odot[x][y]][z] != a.odot[x][a.odot[y][z]]:
                    raise AxiomViolationError("odot-associative", (x, y, z))
    # monotonicity of every binary operation, relative to the lattice order
    pairs = [(x, y) for x in rng for y in rng if m[x][y] == x]
    for name in ("oplus", "odot", "meet", "join"):
        t = a.table(name)
        for (x, y) in pairs:
            for z in rng:
                if m[t[x][z]][t[y][z]] != t[x][z]:
                    raise AxiomViolationError(f"{name}-monotone", (x, y, z))
    raise InternalConsistencyError("the axiom checks and their scan disagree")


def _cubic_axioms_hold(a: FinAlgebra) -> bool:
    """Whether the operations are associative, the lattice distributive
    and (+) and (.) monotone, given the checks on elements and pairs.
    Meet is associative iff x -> down-set takes it to intersection; then
    join is associative and distributive iff x -> J(x), the elements with
    one lower cover below x (one-to-one), takes it to union (Birkhoff).
    Monotone on the covering pairs is monotone; meet and join always are."""
    m = a.meet
    down, covers = _order(m)
    if not _homomorphic(m, down, and_):
        return False
    lower = Counter(y for _, y in covers)
    irreducible = sum(1 << y for y, k in lower.items() if k == 1)
    return (_homomorphic(a.join, [d & irreducible for d in down], or_)
            and _light(a.oplus) and _light(a.odot) and not any(
                any(map(ne, map(getitem, map(m.__getitem__, t[x]), t[y]),
                        t[x])) for t in (a.oplus, a.odot) for x, y in covers))


def _order(m: Table) -> tuple[list[int], list[tuple[int, int]]]:
    """The down-set bitset of each element, and the covering pairs x < y,
    in order, of the order x <= y iff x meet y = x."""
    rng = range(len(m))
    bits = [1 << y for y in rng]
    up = [sum(compress(bits, map(x.__eq__, row))) for x, row in enumerate(m)]
    down = [sum(compress(bits, map(eq, row, rng))) for row in m]
    return down, [(x, y) for x in rng
                  for y in compress(rng, map(x.__eq__, m[x]))
                  if x != y and up[x] & down[y] == bits[x] | bits[y]]


def _homomorphic(t: Table, sets: list[int], op) -> bool:
    """Whether sets[t[x][y]] == op(sets[x], sets[y]) for all x, y."""
    return not any(any(map(ne, map(sets.__getitem__, row),
                           map(op, repeat(s), sets)))
                   for s, row in zip(sets, t))


def _light(t: Table) -> bool:
    """Whether the commutative table t is associative, by Light's test:
    (x g) y = x (g y) for all x, y and each g of a generating set, the
    elements that are no product x y with x, y != it, then, in index
    order, each element that their closure misses."""
    rng = range(len(t))
    made = {z for x, row in enumerate(t) for y, z in enumerate(row)
            if x != z != y}
    gens, found = [], set()
    for g in [z for z in rng if z not in made] + list(rng):
        new = {g} - found
        gens += new
        while new:
            found |= new
            new = {t[u][v] for u in new for v in found} - found
    return not any(any(map(ne, t[tx[g]], map(tx.__getitem__, t[g])))
                   for g in gens for tx in t)     # row x g against x (g y)


@lru_cache(maxsize=None)
def chain_algebra(n: int) -> FinAlgebra:
    """The chain itself as a table algebra; element i is the numerator i.
    Its tables are the chain's operations: meet, join, truncated sum
    min(1, x + y) and truncated product max(0, x + y - 1)."""
    rng = Chain(n).elements
    ops = (min, max, lambda x, y: min(n, x + y),
           lambda x, y: max(0, x + y - n))
    tables = [tuple(tuple(op(x, y) for y in rng) for x in rng) for op in ops]
    return FinAlgebra(n + 1, *tables, 0, n, label=f"PL{n}")


def _trusted(cls, *values):
    """An instance of the dataclass cls made without its __post_init__
    check: only for values valid by construction or checked right after."""
    obj = object.__new__(cls)
    for f, value in zip(fields(cls), values):
        object.__setattr__(obj, f.name, value)
    return obj


def _pointwise(factors: list[FinAlgebra], elems: list[tuple[int, ...]],
               label: str) -> FinAlgebra:
    """The elements, tuples with one coordinate per factor, as a
    subalgebra of the product with the pointwise operations; element i
    is elems[i].  Raises InternalConsistencyError unless the elements
    are closed under the operations and contain both constants, and
    BudgetExceededError, before building anything, when the four tables
    would have more than search.BUDGET cells.  A tuple is coded in
    mixed radix over the factor sizes, and a table is built from the
    codes of its cells, summed over the coordinates a whole table at a
    time, then looked up in one dict from code to element."""
    _charge(len(elems))
    sizes = [f.size for f in factors]
    weights = [prod(sizes[c + 1:]) for c in range(len(sizes))]
    index = {sum(map(mul, e, weights)): i for i, e in enumerate(elems)}
    code = index.__getitem__

    def codes(t, w, col):
        """The cells w t[u][v], u and then v running over the values in
        col, one coordinate of the elements; each u's row is made once."""
        rows = {u: list(map(mul, map(getitem, repeat(t[u]), col), repeat(w)))
                for u in set(col)}
        return chain.from_iterable(map(rows.__getitem__, col))

    def tab(name):
        parts = list(map(codes, [f.table(name) for f in factors], weights,
                         zip(*elems)))
        cells = map(code, reduce(partial(map, add), parts) if parts else
                    repeat(0, len(elems) ** 2))
        return tuple(map(tuple, zip(*[cells] * len(elems))))

    try:
        return _trusted(FinAlgebra, len(elems), tab("meet"), tab("join"),
                        tab("oplus"), tab("odot"),
                        code(sum(f.zero * w for f, w in zip(factors, weights))),
                        code(sum(f.one * w for f, w in zip(factors, weights))),
                        label)
    except KeyError as missing:
        value = tuple(missing.args[0] // w % s for w, s in zip(weights, sizes))
        raise InternalConsistencyError(
            f"pointwise value {value} left the element set") from None


def pointwise_algebra(n: int, elems: list[tuple[int, ...]],
                      label: str) -> FinAlgebra:
    """The elements, tuples of numerators closed under the chain's
    operations, as an algebra with the pointwise operations."""
    return _pointwise([chain_algebra(n)] * len(elems[0]), elems, label)


def _charge(size: int) -> None:
    """Refuse an algebra whose four tables exceed the budget in cells."""
    charge(4 * size ** 2)


def product(a: FinAlgebra, b: FinAlgebra) -> FinAlgebra:
    """Componentwise algebra on the cartesian product; index = i*|B| + j."""
    _charge(a.size * b.size)
    sb = b.size

    def tab(name):
        scaled = [[x * sb for x in row] for row in a.table(name)]
        return tuple(tuple([u + v for u in ra for v in rb])
                     for ra in scaled for rb in b.table(name))

    return _trusted(FinAlgebra, a.size * sb, tab("meet"), tab("join"),
                    tab("oplus"), tab("odot"), a.zero * sb + b.zero,
                    a.one * sb + b.one,
                    f"({a.label} x {b.label})" if a.label and b.label else "")


def power(a: FinAlgebra, k: int) -> FinAlgebra:
    """The k-fold product, indexed lexicographically."""
    if k == 0:
        return trivial_algebra()
    _charge(a.size ** k)
    return reduce(product, [a] * k).relabel(f"{a.label}^{k}" if a.label
                                             else "")


def trivial_algebra() -> FinAlgebra:
    t = ((0,),)
    return FinAlgebra(1, t, t, t, t, 0, 0, label="1")


# -- generated subalgebras -------------------------------------------------

def generated_carrier(a: FinAlgebra, gens) -> tuple[int, ...]:
    """Smallest subset containing gens and both constants, closed under ops."""
    return _close(a, set(), set(gens) | {a.zero, a.one})


def _close(a: FinAlgebra, closed: set, new) -> tuple[int, ...]:
    """The subuniverse generated by the closed set and the elements new,
    sorted; closed is extended in place.  Each element, when it joins,
    is multiplied by everything present then, and every later element by
    it in turn; every table is commutative, so t[x][y] covers both."""
    frontier = list(set(new) - closed)
    closed.update(frontier)
    tables = [a.table(name) for name in OP_NAMES]
    while frontier:
        x = frontier.pop()
        for t in tables:
            made = set(map(t[x].__getitem__, closed)) - closed
            closed |= made
            frontier += made
    return tuple(sorted(closed))


def restrict(a: FinAlgebra, carrier, label: str = "") -> FinAlgebra:
    """The algebra induced on a closed carrier (indices renumbered)."""
    return _pointwise([a], [(x,) for x in sorted(carrier)], label)


def subalgebra_generated(a: FinAlgebra, gens) -> FinAlgebra:
    return restrict(a, generated_carrier(a, gens))


def all_subalgebra_carriers(a: FinAlgebra) -> list[tuple[int, ...]]:
    """Every subuniverse, found by one-point extension from the constants;
    an extension is closed from its one new element."""
    return sorted(closed_sets(generated_carrier(a, ()), lambda c: (
        _close(a, set(c), (x,)) for x in set(range(a.size)).difference(c))),
        key=lambda c: (len(c), c))


# -- homomorphisms ---------------------------------------------------------

@dataclass(frozen=True)
class Hom:
    source: FinAlgebra
    target: FinAlgebra
    map: tuple[int, ...]

    def __post_init__(self):
        # cell by cell in order, so the first failing cell is the witness;
        # under CPython 3.11, comparing rows with map() was slower on the
        # algebras of up to 27 elements that make most of the Homs built
        object.__setattr__(self, "map", tuple(self.map))
        if len(self.map) != self.source.size:
            raise ValueError("map length mismatch")
        if self.map[self.source.zero] != self.target.zero:
            raise AxiomViolationError("hom-preserves-zero", (self.source.zero,))
        if self.map[self.source.one] != self.target.one:
            raise AxiomViolationError("hom-preserves-one", (self.source.one,))
        for name in OP_NAMES:
            ts, tt = self.source.table(name), self.target.table(name)
            for x in range(self.source.size):
                for y in range(self.source.size):
                    if self.map[ts[x][y]] != tt[self.map[x]][self.map[y]]:
                        raise AxiomViolationError(f"hom-preserves-{name}", (x, y))

    def __call__(self, x: int) -> int:
        return self.map[x]

    @property
    def injective(self) -> bool:
        return len(set(self.map)) == self.source.size

    @property
    def surjective(self) -> bool:
        return len(set(self.map)) == self.target.size


# The hom maps of the last few searches, oldest first, by (id(a), id(b),
# budget); an entry holds a and b, so no id is reused while it lives.  Four
# cover the searches on A x B, A and B, then the dual spaces of the three.
_RECENT_HOM_SEARCHES = 4
_recent_homs: dict[tuple[int, int, int], tuple] = {}


def hom_enumerate(a: FinAlgebra, b: FinAlgebra,
                  budget: int | None = None) -> list[Hom]:
    """All homomorphisms a -> b, lexicographically ordered on map arrays.

    budget (search.BUDGET if None) bounds the kernel's nodes.  A search
    of the same two objects and budget among the last few is not run again.
    """
    key = (id(a), id(b), search.BUDGET if budget is None else budget)
    entry = _recent_homs.pop(key, None)
    if entry is None:
        entry = a, b, tuple(walk(_file_homs(a, b), budget))
        if len(_recent_homs) >= _RECENT_HOM_SEARCHES:
            del _recent_homs[next(iter(_recent_homs))]
    _recent_homs[key] = entry
    return [_trusted(Hom, a, b, m) for m in entry[2]]


@lru_cache(maxsize=16)
def _target_tables(b: FinAlgebra) -> tuple[list[int], list, dict]:
    """The tables of the hom searches into b.  For each operation, in
    OP_NAMES order: the bitmask of its idempotents, and the search._table
    of its graph for each shape that a triple (x, y, t[x][y]) with x <= y
    can take when its points are not all one, table 7 i + s for
    operation i and shape s:  s = 0: z < x = y, 1: x = y < z,
    2: z < x < y, 3: z = x < y, 4: x < z < y, 5: x < y = z, 6: x < y < z.
    Last, the memo of the meets of those tables by bitmask, which
    _file_homs fills for the constraints on two points."""
    idem, tables = [], []
    for name in OP_NAMES:
        graph = frozenset((x, y, z) for x, row in enumerate(b.table(name))
                          for y, z in enumerate(row))
        idem.append(_table((0, 0, 0), graph, b.size)[0])
        tables += [_table(shape, graph, b.size) for shape in
                   ((1, 1, 0), (0, 0, 1), (1, 2, 0), (0, 1, 0), (0, 2, 1),
                    (0, 1, 1), (0, 1, 2))]
    return idem, tables, {}


def _file_homs(a: FinAlgebra, b: FinAlgebra) -> Filed:
    """The kernel's set-up for the homs a -> b: the constants, and for
    each operation and each x <= y the triple (x, y, t[x][y]) into the
    operation's graph in b; all four operations are commutative, so
    these fix the whole graph.  A triple on three points is filed as it
    is met, one per cell, under its largest point with the table of its
    operation and shape.  The constraints on the same two points are
    collected as one bitmask of (operation, shape) and meet as one
    table, memoised for every search into b; the walk ANDs the same
    masks either way."""
    idem, tables, memo = _target_tables(b)
    size = a.size
    own = [(1 << b.size) - 1] * size
    own[a.zero] &= 1 << b.zero
    own[a.one] &= 1 << b.one
    # the masks of the points lo < hi at pair[hi size + lo]
    pair = [0] * size * size
    triples: list[list[tuple]] = [[] for _ in range(size)]
    for i, name in enumerate(OP_NAMES):
        b0, b1, b3, b5 = (1 << 7 * i + s for s in (0, 1, 3, 5))
        t2, t4, t6 = tables[7 * i + 2], tables[7 * i + 4], tables[7 * i + 6]
        for x, row in enumerate(a.table(name)):
            z = row[x]
            if z == x:
                own[x] &= idem[i]
            elif z < x:
                pair[x * size + z] |= b0
            else:
                pair[z * size + x] |= b1
            for y, z in enumerate(row[x + 1:], x + 1):
                if z < x:
                    triples[y].append((z, x, t2))
                elif z == x:
                    pair[y * size + x] |= b3
                elif z < y:
                    triples[y].append((x, z, t4))
                elif z == y:
                    pair[y * size + x] |= b5
                else:
                    triples[z].append((x, y, t6))
    for mask in set(pair) - memo.keys():
        if mask:
            memo[mask] = reduce(
                lambda t1, t2: tuple([m1 & m2 for m1, m2 in zip(t1, t2)]),
                [t for k, t in enumerate(tables) if mask >> k & 1])
    pairs = [[(x, memo[mask]) for x, mask in
              enumerate(pair[y * size:y * size + y]) if mask]
             for y in range(size)]
    return size, b.size, own, pairs, triples, {}


# -- congruences -----------------------------------------------------------

@dataclass(frozen=True)
class Congruence:
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        blocks = tuple(sorted(tuple(sorted(bl)) for bl in self.blocks))
        object.__setattr__(self, "blocks", blocks)

    @property
    def size(self) -> int:
        return sum(len(bl) for bl in self.blocks)

    def class_of(self) -> tuple[int, ...]:
        cls = [0] * self.size
        for i, bl in enumerate(self.blocks):
            for x in bl:
                cls[x] = i
        return tuple(cls)


def _blocks_from_classes(cls) -> Congruence:
    blocks: dict[int, list[int]] = {}
    for x, c in enumerate(cls):
        blocks.setdefault(c, []).append(x)
    return Congruence(tuple(tuple(bl) for bl in blocks.values()))


def _classes(parent: list[int], pairs, tables) -> tuple[int, ...]:
    """The class of each element, named by its least element, once the
    classes of each pair are merged in the union-find forest parent, whose
    roots are the least elements of their classes.  A pair (u, v) that
    merges two classes adds (t[u][z], t[v][z]) for each table t and each
    z; the tables are commutative, so this closes under them."""
    def find(u):
        while parent[u] != u:
            u = parent[u]
        return u

    todo = list(pairs)
    while todo:
        u, v = todo.pop()
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
            for t in tables:
                todo += zip(t[u], t[v])
    return tuple(map(find, range(len(parent))))


def congruences(a: FinAlgebra) -> list[Congruence]:
    """All congruences, the finest first: by number of blocks, most
    first, then by class_of().

    A congruence holds (x, y) iff it holds (x meet y, x join y), and it
    holds x < y iff it holds every covering pair of a maximal chain from
    x to y; so each congruence is the join of the principal congruences
    Cg(c, d) of the covering pairs c < d it holds.  Each principal is
    closed by one worklist (_classes), and the joins of those, found one
    principal at a time from the diagonal, are all the congruences.  A
    join of congruences is the transitive closure of their union, which
    is compatible already, so it merges classes without closing again
    (Freese, "Computing congruences efficiently", 2008)."""
    rng = range(a.size)
    tables = [a.table(name) for name in OP_NAMES]
    principals = {_classes(list(rng), [pair], tables)
                  for pair in _order(a.meet)[1]}
    found = closed_sets(tuple(rng), lambda theta: (
        _classes(list(theta), enumerate(p), ()) for p in principals))
    return sorted(map(_blocks_from_classes, found),
                  key=lambda th: (-len(th.blocks), th.class_of()))


def is_simple(a: FinAlgebra) -> bool:
    """Exactly two congruences; the one-element algebra is not simple."""
    return len(congruences(a)) == 2


# -- membership in the quasi-variety of the chain ---------------------------

@dataclass(frozen=True)
class Embedding:
    """A separating embedding into a finite power of the chain."""

    n: int
    k: int
    vectors: tuple[tuple[int, ...], ...]   # one k-tuple of numerators per element


def pmv_membership(a: FinAlgebra, n: int) -> Embedding | None:
    """Separating embedding into a power of the chain, or None.

    Membership in the quasi-variety of the chain is equivalent to the
    homs into the chain separating points.
    """
    homs = hom_enumerate(a, chain_algebra(n))
    vectors = tuple(tuple(h(x) for h in homs) for x in range(a.size))
    if len(set(vectors)) != a.size:
        return None
    return Embedding(n, len(homs), vectors)


# -- isomorphism search ------------------------------------------------------

def _invariant(a: FinAlgebra, x: int) -> tuple:
    """What an isomorphism keeps of an element: the sizes of its down-set
    and its up-set, and whether it is idempotent for (+) and for (.)."""
    below = sum(1 for y in range(a.size) if a.meet[y][x] == y)
    above = sum(1 for y in range(a.size) if a.meet[x][y] == x)
    return below, above, a.oplus[x][x] == x, a.odot[x][x] == x


def find_isomorphism(a: FinAlgebra, b: FinAlgebra) -> tuple[int, ...] | None:
    """The lexicographically first isomorphism a -> b, or None: the first
    injective hom, which between algebras of one size is an isomorphism.
    Each element may only go to an element with its _invariant, so two
    algebras whose invariants differ are told apart before any search."""
    if a.size != b.size:
        return None
    inv_a = [_invariant(a, x) for x in range(a.size)]
    inv_b = [_invariant(b, y) for y in range(b.size)]
    if sorted(inv_a) != sorted(inv_b):
        return None
    filed = _file_homs(a, b)
    own = filed[2]
    for x, inv in enumerate(inv_a):
        own[x] &= sum(1 << y for y, other in enumerate(inv_b) if other == inv)
    return next(walk(injective(filed)), None)


def is_isomorphic(a: FinAlgebra, b: FinAlgebra) -> bool:
    return find_isomorphism(a, b) is not None
