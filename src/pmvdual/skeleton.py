"""Distributive skeleton, finite Priestley duality, and Priestley/Boolean powers."""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .algebra import (FinAlgebra, Hom, _trusted, chain_algebra,
                      hom_enumerate, pmv_membership, pointwise_algebra,
                      power, trivial_algebra)
from .duality import _positions, _space_of_points, dual_points
from .errors import InternalConsistencyError, NonMemberError
from .relations import leq_rel, order_failure
from .search import constraint_maps, isomorphism

Pair = tuple[int, int]


@dataclass(frozen=True)
class Poset:
    size: int
    leq: frozenset[Pair]

    def __post_init__(self):
        object.__setattr__(self, "leq", frozenset(self.leq))
        failure = order_failure(self.size, self.leq)
        if failure is not None:
            kind, where = failure
            raise ValueError(f"order {kind} at {where}")

    def le(self, u: int, v: int) -> bool:
        return (u, v) in self.leq


def poset_isomorphic(p: Poset, q: Poset) -> bool:
    return p.size == q.size and isomorphism(
        p.size, [(p.leq, q.leq)]) is not None


# -- skeleton ------------------------------------------------------------------

def skeleton_carrier(a: FinAlgebra) -> tuple[int, ...]:
    return tuple(x for x in range(a.size) if a.oplus[x][x] == x)


def skeleton(a: FinAlgebra) -> tuple[FinAlgebra, tuple[int, ...]]:
    """The lattice of additively idempotent elements, plus the inclusion.

    Returned as an algebra in the same signature with both monoid
    operations collapsed onto the lattice ones, so every dual
    construction applies unchanged at n = 1.  (+) is monotone with unit
    0, so the idempotents hold both constants and are closed under meet;
    NonMemberError when they are not closed under join, as they are in
    every algebra of the variety of a chain.
    """
    carrier = skeleton_carrier(a)
    index = {x: i for i, x in enumerate(carrier)}
    for x, y in product(carrier, repeat=2):
        if a.join[x][y] not in index:
            raise NonMemberError(f"the (+)-idempotents are not closed under "
                                 f"join: {x} v {y} = {a.join[x][y]}")
    meet = tuple(tuple(index[a.meet[x][y]] for y in carrier) for x in carrier)
    join = tuple(tuple(index[a.join[x][y]] for y in carrier) for x in carrier)
    lat = _trusted(FinAlgebra, len(carrier), meet, join, join, meet,
                   index[a.zero], index[a.one],
                   f"S({a.label})" if a.label else "")
    return lat, carrier


def is_dist_lattice_algebra(a: FinAlgebra) -> bool:
    """Idempotent case: oplus coincides with join and odot with meet."""
    return a.oplus == a.join and a.odot == a.meet


def skeleton_functor_on_homs(h: Hom) -> Hom:
    src, src_carrier = skeleton(h.source)
    tgt, tgt_carrier = skeleton(h.target)
    tgt_index = {x: i for i, x in enumerate(tgt_carrier)}
    return Hom(src, tgt, tuple(tgt_index[h(x)] for x in src_carrier))


# -- finite Priestley duality ----------------------------------------------------

def priestley_dual(lat: FinAlgebra) -> Poset:
    """Lattice homs into the two-element chain, ordered pointwise."""
    return _priestley_dual(lat)[1]


def _priestley_dual(lat: FinAlgebra) -> tuple[list[Hom], Poset]:
    """The dual space D(lat) at n = 1, whose one relation is the order."""
    if not is_dist_lattice_algebra(lat):
        raise ValueError("priestley_dual expects an idempotent algebra")
    homs = dual_points(lat, 1)
    order = _space_of_points([h.map for h in homs], 1).order_pairs
    return homs, _trusted(Poset, len(homs), order)


def monotone_maps(p: Poset, n: int) -> list[tuple[int, ...]]:
    """Order-preserving maps from the poset into the (n+1)-chain."""
    le = leq_rel(n).pairs
    return list(constraint_maps(p.size, n + 1, [(pair, le) for pair in p.leq]))


def priestley_power(n: int, lat: FinAlgebra) -> FinAlgebra:
    """Monotone maps from the dual poset into the chain, pointwise ops."""
    return _priestley_power(n, lat)[2]


def _priestley_power(n: int, lat: FinAlgebra
                     ) -> tuple[list[Hom], list[tuple[int, ...]], FinAlgebra]:
    """The points of the dual poset, its monotone maps into the chain,
    and the Priestley power they make."""
    homs, p = _priestley_dual(lat)
    elems = monotone_maps(p, n)
    return homs, elems, pointwise_algebra(n, elems,
                                          f"PL{n}[{lat.label or 'L'}]")


def boolean_lattice(k: int) -> FinAlgebra:
    """The free bounded distributive lattice on k complemented atoms: 2^k."""
    if k == 0:
        return trivial_algebra()
    return power(chain_algebra(1), k).relabel(f"B{2 ** k}")


def boolean_power(n: int, k: int) -> FinAlgebra:
    """The k-th direct power of the chain, labelled as a Boolean power."""
    if k < 0:
        raise ValueError("atom count must be >= 0")
    if k == 0:
        return trivial_algebra()
    return power(chain_algebra(n), k).relabel(f"PL{n}[B{2 ** k}]")


# -- the unit of the adjunction ----------------------------------------------------

def tau_table(a: FinAlgebra, n: int) -> dict[tuple[int, int], int]:
    """Graph of every threshold operation on a member of the quasi-variety."""
    emb = pmv_membership(a, n)
    if emb is None:
        raise NonMemberError("algebra is not in the quasi-variety of the chain")
    cells = [(d, t) for d in range(n + 1) for t in range(a.size)]
    return dict(zip(cells, _positions(
        [tuple(n if d <= v else 0 for v in emb.vectors[t]) for d, t in cells],
        emb.vectors, "threshold image escaped the embedded carrier")))


def skeleton_unit(a: FinAlgebra, n: int) -> Hom:
    """The embedding into the Priestley power of the skeleton.

    Sends a to the map p |-> max{d : p(tau_d(a)) = 1} over the lattice
    homs p from the skeleton into the two-element chain.
    """
    lat, carrier = skeleton(a)
    carrier_index = {x: i for i, x in enumerate(carrier)}
    taus = tau_table(a, n)
    p_homs, elems, pw = _priestley_power(n, lat)
    images = _positions(
        [tuple(max(d for d in range(n + 1)
                   if p(carrier_index[taus[(d, t)]]) == 1) for p in p_homs)
         for t in range(a.size)], elems, "unit image is not monotone")
    hom = Hom(a, pw, images)
    if not hom.injective:
        raise InternalConsistencyError("unit embedding failed to be injective")
    return hom


# -- adjunction check ---------------------------------------------------------------

@dataclass(frozen=True)
class AdjunctionReport:
    ok: bool
    upper_count: int          # homs A -> power
    lower_count: int          # lattice homs skeleton(A) -> L
    pairing: tuple[tuple[int, ...], ...]   # transposed map per upper hom

    def __bool__(self):
        return self.ok


def adjunction_check(a: FinAlgebra, lat: FinAlgebra,
                     n: int) -> AdjunctionReport:
    """Extensional transposition bijection between the two hom-sets.

    Each hom A -> power restricts, on skeletons, to an upset-valued map
    which corresponds to a unique lattice hom skeleton(A) -> L; the check
    verifies this correspondence is a bijection.
    """
    if not is_dist_lattice_algebra(lat):
        raise ValueError("adjunction_check expects an idempotent second factor")
    l_points, elems, pw = _priestley_power(n, lat)
    upper = hom_enumerate(a, pw)
    skel_a, carrier = skeleton(a)
    lower = hom_enumerate(skel_a, lat)
    # b in L corresponds to the upset {q : q(b) = 1} of the dual poset
    upset_of = {}
    for b in range(lat.size):
        key = tuple(1 if q(b) == 1 else 0 for q in l_points)
        upset_of[key] = b
    transposed = []
    for h in upper:
        maps = []
        for s in carrier:
            val = elems[h(s)]
            key = tuple(1 if v == n else 0 for v in val)
            if key not in upset_of:
                return AdjunctionReport(False, len(upper), len(lower), ())
            maps.append(upset_of[key])
        transposed.append(tuple(maps))
    distinct = len(set(transposed)) == len(transposed)
    lower_maps = {h.map for h in lower}
    onto = set(transposed) == lower_maps
    ok = distinct and onto and len(upper) == len(lower)
    return AdjunctionReport(ok, len(upper), len(lower), tuple(transposed))
