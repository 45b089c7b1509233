"""Dual finite homomorphism/embedding properties and AC/EC classification."""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from math import factorial
from types import MappingProxyType

from .algebra import FinAlgebra, _trusted, pmv_membership
from .duality import (StructSpace, _relation_bits, dual_space,
                      struct_morphism_maps, xn_membership)
from .errors import NonMemberError
from .relations import leq_rel, top_seq
from .search import charge, closed_sets, constraint_maps

Pair = tuple[int, int]


@dataclass(frozen=True)
class ClosureReport:
    verdict: bool
    reason: str = ""
    witness: tuple | None = None
    degenerate: bool = False

    def __bool__(self):
        return self.verdict

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "reason": self.reason,
            "witness": _jsonable(self.witness),
            "degenerate": self.degenerate,
        }


def _jsonable(value):
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, (tuple, list, frozenset)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return str(value)


# -- test-structure generation ---------------------------------------------------

def _labeled_posets(size: int) -> list[frozenset[Pair]]:
    """Every partial order on {0..size-1}, in the order of its strict pairs
    as a combination (itertools.combinations) of the distinct pairs.  The
    last point goes above the points that a monotone map of an order on the
    others into the 3-chain sends to 0, below those sent to 2, if it can."""
    if size == 0:
        return [frozenset()]
    p, out = size - 1, []
    for rel in _labeled_posets(p):
        for place in constraint_maps(p, 3, [(pair, leq_rel(2).pairs)
                                            for pair in rel]):
            if all((u, v) in rel for u in range(p) for v in range(p)
                   if place[u] < 1 < place[v]):
                out.append(rel | {(p, p)}
                           | {(u, p) for u in range(p) if place[u] == 0}
                           | {(p, v) for v in range(p) if place[v] == 2})
    offdiag = [(u, v) for u in range(size) for v in range(size) if u != v]
    return sorted(out, key=lambda rel: (len(rel), [
        i for i, pair in enumerate(offdiag) if pair in rel]))


@lru_cache(maxsize=None)
def enumerate_xn_structures(n: int, max_size: int) -> tuple[StructSpace, ...]:
    """All members of the dual category with at most max_size points, the
    first of each isomorphism class, fewest pairs first.  The members on
    one order are the intersections of the intents of its monotone maps
    into the alter ego, the intent of a map being the cells (relation,
    pair) that it sends into the alter ego (Ganter & Wille, Formal
    Concept Analysis, 1999).  Every relation holds the minimal one (x = 0
    or y = n), so the maps into {0, n} have every cell in their intents;
    they separate the points, so no pair outside the order is pulled back
    into it.  An order isomorphic to an earlier one is skipped, and two
    members on one order are isomorphic when an automorphism of it maps
    one to the other.  The result is shared, so its spaces' relations
    are read-only."""
    keys, bits = _relation_bits(n)      # the order last
    k, leq, found = len(keys), leq_rel(n).pairs, []
    seen_orders: set[frozenset[Pair]] = set()
    for size in range(max_size + 1):
        charge(factorial(size))
        perms = list(permutations(range(size)))
        for order in _labeled_posets(size):
            if order in seen_orders:
                continue
            images = [frozenset((m[u], m[v]) for (u, v) in order)
                      for m in perms]
            seen_orders.update(images)
            pairs, w = sorted(order), len(order)
            # a map's intent holds pair i's relations at bits k * i up
            intents = {sum(bits[m[u]][m[v]] << k * i
                           for i, (u, v) in enumerate(pairs))
                       for m in constraint_maps(size, n + 1,
                                                [(p, leq) for p in pairs])}
            members = [tuple(c >> k * i & (1 << k) - 1 for i in range(w))
                       for c in closed_sets((1 << k * w) - 1, lambda c: {
                           c & i for i in intents})]
            # the automorphisms, as permutations of the pairs
            autos = [[pairs.index((m[u], m[v])) for (u, v) in pairs]
                     for m, image in zip(perms, images) if image == order]
            forms: set[tuple[int, ...]] = set()
            for masks in sorted(members, key=lambda masks: [
                    (sum(r), [-v for v in r]) for r in (
                        [mask >> t & 1 for mask in masks] for t in range(k))]):
                form = min(tuple(map(masks.__getitem__, a)) for a in autos)
                if form not in forms:
                    forms.add(form)
                    rels = {key: frozenset(pair for pair, mask in
                                           zip(pairs, masks) if mask >> t & 1)
                            for t, key in enumerate(keys)}
                    found.append(_trusted(StructSpace, n, size,
                                          MappingProxyType(rels)))
    return tuple(found)


# -- the dual closure properties ---------------------------------------------------

def _surjections(x: StructSpace, y: StructSpace) -> list[tuple[int, ...]]:
    return [m for m in struct_morphism_maps(x, y) if len(set(m)) == y.size]


def _check_lifting(x: StructSpace, n: int, bound: int,
                   surjective_lift: bool) -> ClosureReport:
    member = xn_membership(x, n)
    if not member.member:
        raise NonMemberError(f"space fails membership: {member.witness}")
    tests = enumerate_xn_structures(n, bound)
    lifts = [_surjections(x, y) if surjective_lift
             else struct_morphism_maps(x, y) for y in tests]
    for zi, z in enumerate(tests):
        phis = _surjections(x, z)
        if not phis:
            continue
        for yi, y in enumerate(tests):
            psis = _surjections(y, z)
            charge(len(phis) * len(psis) * len(lifts[yi]))
            for phi in phis:
                for psi in psis:
                    if any(all(psi[lam[p]] == phi[p] for p in range(x.size))
                           for lam in lifts[yi]):
                        continue
                    return ClosureReport(
                        False, "no lifting",
                        witness=("Z", zi, z.to_json(), "Y", yi, y.to_json(),
                                 "phi", phi, "psi", psi))
    return ClosureReport(True, "all liftings exist")


def fhp_star_check(x: StructSpace, n: int, bound: int = 2) -> ClosureReport:
    """Every surjection out of x factors through every surjection onto the
    same small target."""
    return _check_lifting(x, n, bound, surjective_lift=False)


def fep_star_check(x: StructSpace, n: int, bound: int = 2) -> ClosureReport:
    """Same quantification, but the lifting must also be surjective."""
    return _check_lifting(x, n, bound, surjective_lift=True)


# -- classification -----------------------------------------------------------------

def dual_shape_report(x: StructSpace) -> ClosureReport:
    top = top_seq(x.n).y
    loops = frozenset((p, p) for p in range(x.size))
    if x.relations[top] != loops:
        extra = sorted(x.relations[top] - loops)
        return ClosureReport(False, "dual order not discrete",
                             witness=tuple(extra[:1]))
    for key in sorted(x.relations):
        if key == top:
            continue
        if x.relations[key]:
            return ClosureReport(False, "non-empty extra relation",
                                 witness=(key, sorted(x.relations[key])[0]))
    return ClosureReport(True, "dual discrete with no extra relations")


def _member_dual_space(a: FinAlgebra, n: int) -> StructSpace:
    """The dual space, once its points are seen to separate the elements,
    that is, once the algebra is seen to be a member."""
    if pmv_membership(a, n) is None:
        raise NonMemberError(
            f"algebra is not in the quasi-variety of PL_{n}: its dual "
            f"points do not separate its elements")
    return dual_space(a, n)


def is_algebraically_closed(a: FinAlgebra, n: int) -> ClosureReport:
    """True exactly when the dual is discrete with every other relation
    empty, equivalently when the algebra is a finite power of the chain."""
    return dual_shape_report(_member_dual_space(a, n))


def is_existentially_closed(a: FinAlgebra, n: int) -> ClosureReport:
    """No nontrivial finite algebra qualifies: a finite dual has every
    point isolated.  The one-element algebra (empty dual) is reported
    true but flagged degenerate."""
    x = _member_dual_space(a, n)
    if x.size == 0:
        return ClosureReport(True, "empty dual", degenerate=True)
    shape = dual_shape_report(x)
    if not shape.verdict:
        return shape
    return ClosureReport(False, "isolated point", witness=(0,))
