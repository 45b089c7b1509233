"""One constraint kernel for every search over finite structures.

A search lists the maps {0..size-1} -> {0..target_size-1} that send
each constraint (points, allowed) into allowed: points is a tuple of one
to three points and allowed a set of image tuples of the same length.
Morphisms of structured spaces and monotone maps of posets are such
searches.  Algebra homomorphisms are too (homomorphisms as constraint
satisfaction: Feder & Vardi, SIAM J. Comput. 1998), with the constants
as unary constraints and each operation as its ternary graph, and so is
the list of good sequences behind the relation lattice S_n
(relations.compute_Sn), with the closure conditions as constraints on
the entries.  Those two build their set-up (Filed) directly, without
listing allowed sets: algebra._file_homs from the operation tables,
relations._file_sn from the interval that each closure condition allows.

A search has two steps: file_constraints sets it up, walk lists the
maps.  The membership test files a space's constraints once, then walks
them for each pair of points with one more constraint on it (with_pair).

closed_sets is the one worklist over a closure system (subuniverses,
congruences, and the intersections of intents behind the dual members).
Each search but S_n's (relations.SN_BUDGET) reads its budget, BUDGET, here.
"""
from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable, Iterator
from functools import lru_cache
from itertools import count, product
from operator import itemgetter

from .errors import BudgetExceededError

Points = tuple[int, ...]
Constraint = tuple[Points, frozenset[Points]]

BUDGET = 5_000_000


def charge(cells: int) -> None:
    """Refuse a set-up of more than BUDGET cells, before it is built."""
    if cells > BUDGET:
        raise BudgetExceededError(BUDGET)


@lru_cache(maxsize=128)
def _table(shape: Points, allowed: frozenset[Points], t: int
           ) -> tuple[int, ...]:
    """For a constraint whose position i holds its shape[i]-th smallest
    point, the bitmask of the allowed images of the largest point,
    indexed by the images of the others in base t.  Cached, since most
    searches use the same few allowed sets, the relations of an alter
    ego.  The hom searches into an algebra make the tables of its
    operation graphs here once (algebra._target_tables)."""
    k = max(shape)
    if k == 0:
        return (sum(1 << v for v in range(t) if (v,) * len(shape) in allowed),)
    if k + 1 == len(shape):     # distinct points: read off the allowed tuples
        found = map(itemgetter(*map(shape.index, range(k + 1))), allowed)
    else:                       # a repeated point: test each candidate
        spread = itemgetter(*shape)
        found = (d for d in product(range(t), repeat=k + 1)
                 if spread(d) in allowed)
    table = [0] * t ** k
    if k == 1:
        for q, p in found:
            table[q] |= 1 << p
    else:
        for q, r, p in found:
            table[q * t + r] |= 1 << p
    return tuple(table)


# (size, t, own images, (q, table) pairs and (q, r, table) triples ending
# at each point, the images of each mask met: shared by a search's walks)
Filed = tuple[int, int, list[int], list, list, dict[int, Points]]


def constraint_maps(size: int, target_size: int,
                    constraints: Iterable[Constraint],
                    budget: int | None = None) -> Iterator[Points]:
    """Every map {0..size-1} -> {0..target_size-1} that sends each
    constraint's points into its allowed set, in lexicographic order."""
    return walk(file_constraints(size, target_size, constraints), budget)


def file_constraints(size: int, target_size: int,
                     constraints: Iterable[Constraint]) -> Filed:
    """The set-up of a search.  Each constraint is filed under its
    largest point p as one table of bitmasks of the images of p, indexed
    by the images of its other points; a table comes from _table's
    cache, by shape and allowed set, and the tables of constraints on
    the same points are merged.  A choice for p then checks only the constraints that
    end at p."""
    t = target_size
    own = [(1 << t) - 1] * size
    merged: dict[Points, tuple[int, ...]] = {}
    for points, allowed in constraints:
        if len(points) == 2:        # most constraints: ranked unsorted
            p, q = points
            ranks, shape = (((p, q), (0, 1)) if p < q else
                            ((q, p), (1, 0)) if q < p else ((p,), (0, 0)))
        else:
            ranks = tuple(sorted(set(points)))
            shape = tuple(map(ranks.index, points))
        table = _table(shape, allowed, t)
        if len(ranks) == 1:
            own[ranks[0]] &= table[0]
            continue
        prev = merged.get(ranks)
        if prev is not None:
            table = tuple([m1 & m2 for m1, m2 in zip(prev, table)])
        merged[ranks] = table
    pairs: list[list[tuple]] = [[] for _ in range(size)]
    triples: list[list[tuple]] = [[] for _ in range(size)]
    for ranks, table in merged.items():
        if len(ranks) == 2:
            pairs[ranks[1]].append((ranks[0], table))
        else:
            triples[ranks[2]].append((ranks[0], ranks[1], table))
    return size, t, own, pairs, triples, {}


def with_pair(filed: Filed, p: int, q: int,
              allowed: frozenset[Points]) -> Filed:
    """filed and the constraint ((p, q), allowed), the rest shared."""
    size, t, own, pairs, triples, decoded = filed
    if p == q:
        own = own.copy()
        own[p] &= _table((0, 0), allowed, t)[0]
        return size, t, own, pairs, triples, decoded
    (lo, hi), shape = ((p, q), (0, 1)) if p < q else ((q, p), (1, 0))
    pairs = pairs.copy()
    pairs[hi] = pairs[hi] + [(lo, _table(shape, allowed, t))]
    return size, t, own, pairs, triples, decoded


def walk(filed: Filed, budget: int | None = None) -> Iterator[Points]:
    """The maps that meet the filed constraints, in lexicographic order.
    The walk keeps an explicit stack, so the cost of a map does not grow
    with the number of points.  Every map put on the stack or yielded is
    one node; past budget (or BUDGET) nodes it raises BudgetExceededError."""
    size, t, own, pairs, triples, decoded = filed
    if 0 in own:            # a point without an image: no map at all
        return
    if size == 0:
        yield ()
        return
    limit = BUDGET if budget is None else budget
    nodes = 0
    stack: list[Points] = [()]
    while stack:
        prefix = stack.pop()
        p = len(prefix)
        mask = own[p]
        for q, table in pairs[p]:
            mask &= table[prefix[q]]
        for q, r, table in triples[p]:
            mask &= table[prefix[q] * t + prefix[r]]
        images = decoded.get(mask)
        if images is None:
            images = decoded[mask] = tuple(
                b for b in range(t) if mask >> b & 1)
        nodes += len(images)
        if nodes > limit:
            raise BudgetExceededError(limit)
        if p == size - 1:
            for b in images:
                yield prefix + (b,)
        else:
            stack.extend([prefix + (b,) for b in reversed(images)])


def injective(filed: Filed) -> Filed:
    """filed and the constraint that distinct points have distinct
    images, the rest shared."""
    size, t, own, pairs, triples, decoded = filed
    distinct = tuple(((1 << t) - 1) ^ (1 << v) for v in range(t))
    pairs = [pairs[p] + [(q, distinct) for q in range(p)]
             for p in range(size)]
    return size, t, own, pairs, triples, decoded


def isomorphism(size: int, relations: list[tuple[frozenset[Points],
                                                   frozenset[Points]]]
                ) -> Points | None:
    """An injective map of {0..size-1} to itself that sends each tuple
    set of one structure into the matching tuple set of the other, or
    None.

    With equal tuple counts such a map is an isomorphism: it maps every
    relation injectively, hence onto the other one.
    """
    if any(len(src) != len(tgt) for src, tgt in relations):
        return None
    filed = file_constraints(size, size, [(points, tgt) for src, tgt in
                                          relations for points in src])
    return next(walk(injective(filed)), None)


def closed_sets(start: Hashable, above: Callable) -> set:
    """Every closed set reachable from start, one step at a time: above(s)
    yields the closed sets one step on from s, the closures of s with
    one generator added, or the intersections of s with each intent.
    Each one is charged, so past BUDGET of them it raises."""
    seen = {start}
    frontier = [start]
    steps = count(1)
    while frontier:
        for s in above(frontier.pop()):
            charge(next(steps))
            if s not in seen:
                seen.add(s)
                frontier.append(s)
    return seen
