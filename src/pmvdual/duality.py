"""Finite-scale hom-functor duality.

Dual spaces are finite structured spaces: a carrier together with one
binary relation per element of the relation lattice for the given n.
Topology plays no role at this scale; every finite space is discrete.
"""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import chain
from operator import and_, getitem
from types import MappingProxyType

from .algebra import (FinAlgebra, Hom, _blocks_from_classes, _trusted,
                      chain_algebra, congruences, hom_enumerate,
                      pointwise_algebra)
from .errors import (InternalConsistencyError, MalformedInputError,
                     NonMemberError, WrongSignatureError, as_int,
                     require_keys)
from .relations import (GoodSeq, compute_Sn, leq_rel, order_failure,
                        parse_seq_label, sn_relations, top_seq)
from .search import (Filed, constraint_maps, file_constraints, isomorphism,
                     walk, with_pair)

Pair = tuple[int, int]


def relation_keys(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(s.y for s in compute_Sn(n).elements)


@dataclass(frozen=True)
class StructSpace:
    """Finite structured space: carrier {0..size-1} plus named pair sets."""

    n: int
    size: int
    relations: Mapping[tuple[int, ...], frozenset[Pair]] = field(repr=False)

    def __post_init__(self):
        expected = set(relation_keys(self.n))
        if set(self.relations) != expected:
            raise WrongSignatureError(
                f"expected relation names {sorted(expected)} for n={self.n}, "
                f"got {sorted(self.relations)}")
        for (x, y) in chain.from_iterable(self.relations.values()):
            if not (0 <= x < self.size and 0 <= y < self.size):
                raise ValueError(
                    f"pair {(x, y)} outside carrier of size {self.size}")
        object.__setattr__(self, "relations", {
            key: frozenset(pairs) for key, pairs in self.relations.items()})

    def rel(self, key: tuple[int, ...]) -> frozenset[Pair]:
        return self.relations[key]

    @property
    def order_pairs(self) -> frozenset[Pair]:
        return self.relations[tuple(range(1, self.n))]

    def canonical_form(self) -> tuple:
        return (self.n, self.size,
                tuple((key, tuple(sorted(self.relations[key])))
                      for key in sorted(self.relations)))

    def to_json(self) -> dict:
        rels = {GoodSeq(self.n, key).label():
                [list(p) for p in sorted(self.relations[key])]
                for key in relation_keys(self.n)}
        return {"n": self.n, "size": self.size, "relations": rels}

    @staticmethod
    def from_json(data: dict) -> "StructSpace":
        if not (isinstance(data, dict)
                and isinstance(data.get("relations"), dict)):
            raise MalformedInputError(
                'a space must be a JSON object whose "relations" is an object')
        require_keys(data, ("n", "size"), "a space")
        n = as_int(data["n"], "n")
        rels = {}
        for label, pairs in data["relations"].items():
            key = parse_seq_label(label, n)
            if not (isinstance(pairs, list) and all(
                    isinstance(p, list) and len(p) == 2 for p in pairs)):
                raise MalformedInputError(
                    f"relation {label} must be a list of [x, y] pairs")
            rels[key] = frozenset((as_int(u, "a point"), as_int(v, "a point"))
                                  for u, v in pairs)
        size = as_int(data["size"], "size")
        if size < 0:
            raise MalformedInputError(f"size must be >= 0, got {size}")
        return StructSpace(n, size, rels)


@dataclass(frozen=True)
class StructMorphism:
    source: StructSpace
    target: StructSpace
    map: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "map", tuple(self.map))
        if self.source.n != self.target.n:
            raise WrongSignatureError("source and target have different n")
        if len(self.map) != self.source.size:
            raise ValueError("map length mismatch")
        for key, pairs in self.source.relations.items():
            tpairs = self.target.relations[key]
            for (x, y) in pairs:
                if (self.map[x], self.map[y]) not in tpairs:
                    raise ValueError(
                        f"relation {key} not preserved at {(x, y)}")

    def __call__(self, x: int) -> int:
        return self.map[x]


def empty_space(n: int) -> StructSpace:
    return _trusted(StructSpace, n, 0,
                    {key: frozenset() for key in relation_keys(n)})


def disjoint_union(x: StructSpace, y: StructSpace) -> StructSpace:
    """Coproduct of structured spaces; y's points are shifted past x's."""
    if x.n != y.n:
        raise WrongSignatureError("disjoint union requires matching n")
    rels = {key: x.relations[key]
            | frozenset((u + x.size, v + x.size) for (u, v) in y.relations[key])
            for key in x.relations}
    return _trusted(StructSpace, x.n, x.size + y.size, rels)


@lru_cache(maxsize=None)
def alter_ego(n: int) -> StructSpace:
    """The dualizing structure: the chain carrier with every lattice
    relation.  Every caller shares it, so its relations are read-only."""
    rels = {key: rel.pairs for key, rel in sn_relations(n).items()}
    return _trusted(StructSpace, n, n + 1, MappingProxyType(rels))


def struct_morphism_maps(x: StructSpace, y: StructSpace) -> list[tuple[int, ...]]:
    """All structure-preserving maps x -> y, lexicographically ordered."""
    return list(constraint_maps(x.size, y.size, _morphism_constraints(x, y)))


def _morphism_constraints(x: StructSpace, y: StructSpace) -> list:
    return [(pair, y.relations[key])
            for key, pairs in x.relations.items() for pair in pairs]


def spaces_isomorphic(x: StructSpace, y: StructSpace) -> bool:
    return x.n == y.n and x.size == y.size and isomorphism(
        x.size, [(x.relations[key], y.relations[key])
                 for key in x.relations]) is not None


# -- the two hom-functors -----------------------------------------------------

def dual_space(a: FinAlgebra, n: int) -> StructSpace:
    """Points are the homs into the chain; relations hold pointwise."""
    return _space_of_points([h.map for h in dual_points(a, n)], n)


def _space_of_points(maps: list[tuple[int, ...]], n: int) -> StructSpace:
    """(i, j) is in a relation when each coordinate (u[t], v[t]) of the
    points u = maps[i] and v = maps[j] is: the AND over t of bitmasks."""
    keys, bits = _relation_bits(n)
    masks = [[reduce(and_, map(getitem, rows, v), -1) for v in maps]
             for rows in ([bits[x] for x in u] for u in maps)]
    return _trusted(StructSpace, n, len(maps), {key: frozenset(
        (i, j) for i, row in enumerate(masks) for j, m in enumerate(row)
        if m >> k & 1) for k, key in enumerate(keys)})


@lru_cache(maxsize=None)
def _relation_bits(n: int) -> tuple[tuple, tuple[tuple[int, ...], ...]]:
    """The alter ego's relation keys, and at [x][y] the bitmask of those
    whose relation holds (x, y), bit k for the k-th key."""
    rels = alter_ego(n).relations
    return tuple(rels), tuple(tuple(
        sum(1 << k for k, pairs in enumerate(rels.values()) if (x, y) in pairs)
        for y in range(n + 1)) for x in range(n + 1))


def dual_points(a: FinAlgebra, n: int) -> list[Hom]:
    return hom_enumerate(a, chain_algebra(n))


def dual_algebra_elements(x: StructSpace) -> list[tuple[int, ...]]:
    """Morphisms into the dualizing structure, as value tuples."""
    return struct_morphism_maps(x, alter_ego(x.n))


def dual_algebra(x: StructSpace) -> FinAlgebra:
    """Pointwise algebra on the morphisms into the dualizing structure."""
    return _dual_algebra(x, dual_algebra_elements(x))


def _dual_algebra(x: StructSpace, elems: list[tuple[int, ...]]) -> FinAlgebra:
    return pointwise_algebra(x.n, elems, f"E(X) n={x.n}")


@dataclass(frozen=True)
class EvalEReport:
    hom: Hom
    injective: bool
    surjective: bool

    @property
    def bijective(self) -> bool:
        return self.injective and self.surjective


def evaluation_e(a: FinAlgebra, n: int) -> EvalEReport:
    """The map a |-> (u |-> u(a)) into the double dual."""
    homs = dual_points(a, n)
    x = _space_of_points([h.map for h in homs], n)
    elems = dual_algebra_elements(x)
    ealg = _dual_algebra(x, elems)
    images = _positions([tuple(u(t) for u in homs) for t in range(a.size)],
                       elems, "evaluation image is not a morphism")
    hom = Hom(a, ealg, images)
    return EvalEReport(hom, hom.injective, hom.surjective)


def _positions(values: list, listed: list, missing: str) -> tuple[int, ...]:
    """Each value's index in listed; InternalConsistencyError(missing)."""
    index = {v: i for i, v in enumerate(listed)}
    try:
        return tuple(map(index.__getitem__, values))
    except KeyError:
        raise InternalConsistencyError(missing) from None


@dataclass(frozen=True)
class EvalEpsReport:
    map: tuple[int, ...]
    injective: bool
    surjective: bool
    relation_preserving: bool
    relation_reflecting: bool

    @property
    def isomorphism(self) -> bool:
        return (self.injective and self.surjective
                and self.relation_preserving and self.relation_reflecting)


def evaluation_eps(x: StructSpace, n: int) -> EvalEpsReport:
    """The map x |-> (alpha |-> alpha(x)) into the double dual space."""
    member = xn_membership(x, n)
    if not member.member:
        raise NonMemberError(f"space fails membership: {member.witness}")
    elems = dual_algebra_elements(x)
    ealg = _dual_algebra(x, elems)
    ypoints = [h.map for h in dual_points(ealg, n)]
    images = _positions([tuple(e[pt] for e in elems) for pt in range(x.size)],
                       ypoints,
                       "point evaluation is not a hom of the dual algebra")
    # the relations of the double dual, pulled back to x
    pulled = _space_of_points([ypoints[i] for i in images], n).relations
    preserving = all(x.relations[key] <= pulled[key] for key in pulled)
    reflecting = all(pulled[key] <= x.relations[key] for key in pulled)
    injective = len(set(images)) == x.size
    surjective = len(set(images)) == len(ypoints)
    return EvalEpsReport(images, injective, surjective,
                         preserving, reflecting)


# -- membership and axioms -------------------------------------------------------

@dataclass(frozen=True)
class MembershipReport:
    member: bool
    witness: tuple | None = None      # ("separation", x, y) or ("relation", key, pair)

    def __bool__(self):
        return self.member


def xn_membership(x: StructSpace, n: int) -> MembershipReport:
    """Separation test: morphisms into the dualizing structure must
    distinguish distinct points and avoid every absent relation pair.
    The witness is the first pair p < q that no morphism separates,
    else, key by key, the first absent pair that every morphism sends
    into the relation."""
    _expect_n(x, n)
    ae, (distinct, outside) = alter_ego(n), _avoided(n)
    filed = file_constraints(x.size, ae.size, _morphism_constraints(x, ae))
    points = range(x.size)
    witness = _first_unmet(filed, chain(
        ((("separation", p, q), p, q, distinct)
         for p in points for q in points if p < q),
        ((("relation", key, (p, q)), p, q, outside[key])
         for key in sorted(x.relations) for p in points for q in points
         if (p, q) not in x.relations[key])))
    return MembershipReport(witness is None, witness)


def _expect_n(x: StructSpace, n: int) -> None:
    if x.n != n:
        raise WrongSignatureError(f"space has n={x.n}, expected {n}")


def _first_unmet(filed: Filed, checks) -> tuple | None:
    """The witness of the first check (witness, p, q, avoid) that no map
    of filed sends (p, q) into avoid, else None.  A check tries the maps
    found so far, then asks the kernel for one."""
    found: list[tuple[int, ...]] = []
    for witness, p, q, avoid in checks:
        for m in found:
            if (m[p], m[q]) in avoid:
                break
        else:
            m = next(walk(with_pair(filed, p, q, avoid)), None)
            if m is None:
                return witness
            found.append(m)
    return None


@lru_cache(maxsize=None)
def _avoided(n: int) -> tuple[frozenset[Pair], dict]:
    """The pairs of distinct images, and those outside each relation."""
    every = frozenset((u, v) for u in range(n + 1) for v in range(n + 1))
    return (every - {(u, u) for u in range(n + 1)},
            {key: every - rel for key, rel in alter_ego(n).relations.items()})


@dataclass(frozen=True)
class X2Report:
    axiom_a: bool
    axiom_b: bool
    axiom_c: bool
    witnesses: dict = field(default_factory=dict, compare=False)

    @property
    def passes(self) -> bool:
        return self.axiom_a and self.axiom_b and self.axiom_c


def x2_axiom_check(x: StructSpace) -> X2Report:
    """Finite-case axioms for the n = 2 dual category.

    (a) the sharp relation is contained in the order;
    (b) the order is a partial order (separation is automatic on finite
        posets);
    (c) every ordered pair outside the sharp relation admits an
        upset/downset pair avoiding it while covering the sharp relation.
    """
    if x.n != 2:
        raise WrongSignatureError(f"axiom check requires n = 2, got n = {x.n}")
    sharp = x.relations[(2,)]
    order = x.relations[(1,)]
    witnesses: dict = {}

    axiom_a = sharp <= order
    if not axiom_a:
        witnesses["a"] = sorted(sharp - order)[0]

    failure = order_failure(x.size, order)
    axiom_b = failure is None
    if not axiom_b:
        witnesses["b"] = failure

    axiom_c = axiom_b
    unmet = sorted(order - sharp)
    if axiom_b and unmet:
        # points i and size + i say that i is in U and in D; a sharp
        # (z, z2) has z in D or z2 in U; (p, q) needs q not in U, p not in D
        size, le, neither = x.size, leq_rel(1).pairs, frozenset({(0, 0)})
        either = frozenset({(0, 1), (1, 0), (1, 1)})
        filed = file_constraints(2 * size, 2, chain(
            (((u, v), le) for (u, v) in order),
            (((size + v, size + u), le) for (u, v) in order),
            (((size + z, z2), either) for (z, z2) in sharp)))
        witness = _first_unmet(filed, (((p, q), q, size + p, neither)
                                       for (p, q) in unmet))
        if witness is not None:
            axiom_c, witnesses["c"] = False, witness
    return X2Report(axiom_a, axiom_b, axiom_c, witnesses)


# -- congruences vs substructures ---------------------------------------------

def congruence_substructure_check(a: FinAlgebra, n: int) -> bool:
    """Congruence lattice anti-isomorphic to the subset lattice of the dual.

    Every subset S of the dual carrier induces the congruence theta(S)
    identifying the elements that all points of S agree on.  The check
    is that each theta(S) is a congruence and that S -> theta(S) is one
    to one and onto the congruences.  That suffices: theta(S u T) is
    theta(S) meet theta(T), so when theta(S2) refines theta(S1),
    theta(S1 u S2) = theta(S2), and S1 is inside S2 by injectivity; the
    map reverses the order both ways.
    """
    homs = dual_points(a, n)
    cons = set(congruences(a))
    if len(cons) != 1 << len(homs):
        return False
    thetas = set()
    for mask in range(1 << len(homs)):
        subset = [h for i, h in enumerate(homs) if mask >> i & 1]
        theta = _blocks_from_classes(
            [tuple(h(t) for h in subset) for t in range(a.size)])
        if theta not in cons:
            return False
        thetas.add(theta)
    return len(thetas) == len(cons)


# -- DOT export ------------------------------------------------------------------

def struct_space_to_dot(x: StructSpace) -> str:
    """Order as Hasse edges; sharp pairs outside the order loops dashed."""
    order = x.order_pairs
    strict = {(u, v) for (u, v) in order if u != v}
    hasse = {(u, v) for (u, v) in strict
             if not any((u, w) in strict and (w, v) in strict
                        for w in range(x.size))}
    lines = ["digraph X {", "  rankdir=BT;"]
    for p in range(x.size):
        lines.append(f'  p{p} [label="{p}"];')
    for (u, v) in sorted(hasse):
        lines.append(f"  p{u} -> p{v};")
    for key in sorted(x.relations):
        if key == top_seq(x.n).y:
            continue
        label = GoodSeq(x.n, key).label()
        for (u, v) in sorted(x.relations[key]):
            lines.append(f'  p{u} -> p{v} [style=dashed, label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
