"""Dual finite homomorphism/embedding properties and AC/EC classification."""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .algebra import FinAlgebra
from .duality import (StructSpace, _space_of_points, dual_points,
                      relation_keys, struct_morphism_maps, xn_membership)
from .errors import NonMemberError
from .relations import top_seq

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
    if isinstance(value, StructSpace):
        return value.to_json()
    if isinstance(value, (tuple, list, frozenset)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return str(value)


# -- test-structure generation ---------------------------------------------------

def _labeled_posets(size: int) -> list[frozenset[Pair]]:
    loops = frozenset((p, p) for p in range(size))
    offdiag = [(u, v) for u in range(size) for v in range(size) if u != v]
    out = []
    for r in range(len(offdiag) + 1):
        for extra in combinations(offdiag, r):
            rel = loops | frozenset(extra)
            if any((v, u) in rel for (u, v) in extra):
                continue
            if any((u, w) not in rel
                   for (u, v) in rel for (v2, w) in rel if v2 == v):
                continue
            out.append(rel)
    return out


def _space_permuted(x: StructSpace, perm: tuple[int, ...]) -> tuple:
    rels = tuple(
        (key, tuple(sorted((perm[u], perm[v]) for (u, v) in x.relations[key])))
        for key in sorted(x.relations))
    return (x.size, rels)


def _canonical(x: StructSpace) -> tuple:
    from itertools import permutations
    return min(_space_permuted(x, perm)
               for perm in permutations(range(x.size))) if x.size else (0, ())


@lru_cache(maxsize=None)
def enumerate_xn_structures(n: int, max_size: int) -> tuple[StructSpace, ...]:
    """All members of the dual category with at most max_size points,
    deduplicated up to isomorphism; deterministic order."""
    keys = relation_keys(n)
    top = top_seq(n).y
    other_keys = [k for k in keys if k != top]
    found: list[StructSpace] = []
    seen_forms: set[tuple] = set()
    for size in range(max_size + 1):
        for order in _labeled_posets(size):
            order_list = sorted(order)
            candidates = [{top: frozenset(order)}]
            for key in other_keys:
                extended = []
                for assign in candidates:
                    for r in range(len(order_list) + 1):
                        for sub in combinations(order_list, r):
                            new = dict(assign)
                            new[key] = frozenset(sub)
                            extended.append(new)
                candidates = extended
            for assign in candidates:
                if not _monotone_assignment(n, assign):
                    continue
                space = StructSpace(n, size, assign)
                if not xn_membership(space, n).member:
                    continue
                form = _canonical(space)
                if form in seen_forms:
                    continue
                seen_forms.add(form)
                found.append(space)
    return tuple(found)


def _monotone_assignment(n: int, assign: dict) -> bool:
    from .relations import compute_Sn
    lat = compute_Sn(n)
    elems = [s.y for s in lat.elements]
    for i, ki in enumerate(elems):
        for j, kj in enumerate(elems):
            if i != j and lat.leq(i, j) and not assign[ki] <= assign[kj]:
                return False
    return True


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
    homs = dual_points(a, n)
    if len({tuple(h(t) for h in homs) for t in range(a.size)}) < a.size:
        raise NonMemberError(
            f"algebra is not in the quasi-variety of PL_{n}: its dual "
            f"points do not separate its elements")
    return _space_of_points(homs, n)


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
