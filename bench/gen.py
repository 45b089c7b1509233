"""Seeded inputs for the benchmark, built without the program's kernels.

Algebras are subalgebras of powers PL_n^k of the chain, found by closing
sets of numerator tuples under the four componentwise operations; they
reach the program only as plain tables through ``algebra_from_tables``.
Structured spaces are pair lists for ``StructSpace``.  The relation
lattice, homs into the chain and dual spaces used here are the
benchmark's own small implementations, so the inputs do not depend on
the layers being timed.
"""
from __future__ import annotations

from itertools import combinations
from itertools import product as iproduct

OPS = ("meet", "join", "oplus", "odot")


def chain_op(name: str, n: int, x: int, y: int) -> int:
    if name == "meet":
        return min(x, y)
    if name == "join":
        return max(x, y)
    if name == "oplus":
        return min(n, x + y)
    return max(0, x + y - n)


def vec_op(name: str, n: int, u: tuple, v: tuple) -> tuple:
    return tuple(chain_op(name, n, a, b) for a, b in zip(u, v))


# -- subalgebras of PL_n^k as sets of numerator tuples -----------------------

class Power:
    """PL_n^k with its elements numbered and its operation tables built once,
    so closures are table lookups on small integers."""

    def __init__(self, n: int, k: int):
        self.n, self.k = n, k
        self.elems = list(iproduct(range(n + 1), repeat=k))
        index = {e: i for i, e in enumerate(self.elems)}
        self.ops = [[[index[vec_op(name, n, u, v)] for v in self.elems]
                     for u in self.elems] for name in OPS]
        self.consts = (index[(0,) * k], index[(n,) * k])

    def close(self, gens, base: frozenset = frozenset()) -> frozenset:
        """The subuniverse generated by gens, both constants and the
        subuniverse base; only combinations with new elements are formed."""
        found = set(base)
        frontier = []
        for u in (*self.consts, *gens):
            if u not in found:
                found.add(u)
                frontier.append(u)
        while frontier:
            u = frontier.pop()
            for v in list(found):
                for tab in self.ops:
                    w = tab[u][v]
                    if w not in found:
                        found.add(w)
                        frontier.append(w)
        return frozenset(found)

    def subuniverses(self) -> list[frozenset]:
        """Every subuniverse, by one-point extension from the bottom."""
        bottom = self.close(())
        seen = {bottom}
        frontier = [bottom]
        while frontier:
            cur = frontier.pop()
            for x in range(len(self.elems)):
                if x not in cur:
                    bigger = self.close((x,), cur)
                    if bigger not in seen:
                        seen.add(bigger)
                        frontier.append(bigger)
        return sorted(seen, key=lambda c: (len(c), sorted(c)))

    def tables(self, sub, rng=None) -> dict:
        """Plain operation tables of a subuniverse: elements in sorted
        order, or shuffled by rng for an isomorphic relabelled copy."""
        elems = sorted(sub)
        if rng is not None:
            rng.shuffle(elems)
        index = {e: i for i, e in enumerate(elems)}
        out = {name: [[index[tab[u][v]] for v in elems] for u in elems]
               for name, tab in zip(OPS, self.ops)}
        out["zero"], out["one"] = (index[c] for c in self.consts)
        out["elems"] = [self.elems[e] for e in elems]
        return out


def product_tables(ta: dict, tb: dict) -> dict:
    """Tables of A x B with index i * |B| + j, as the program numbers it."""
    sa, sb = len(ta["meet"]), len(tb["meet"])
    out = {}
    for name in OPS:
        a, b = ta[name], tb[name]
        out[name] = [[a[i1][i2] * sb + b[j1][j2]
                      for i2 in range(sa) for j2 in range(sb)]
                     for i1 in range(sa) for j1 in range(sb)]
    out["zero"] = ta["zero"] * sb + tb["zero"]
    out["one"] = ta["one"] * sb + tb["one"]
    return out


# -- homs into the chain --------------------------------------------------------

def is_hom(t: dict, n: int, m) -> bool:
    """Whether the value tuple m is a hom from the table algebra t into PL_n."""
    size = len(t["meet"])
    if len(m) != size or m[t["zero"]] != 0 or m[t["one"]] != n:
        return False
    for name in OPS:
        tab = t[name]
        for x in range(size):
            row = tab[x]
            for y in range(x, size):
                if m[row[y]] != chain_op(name, n, m[x], m[y]):
                    return False
    return True


def homs_backtrack(t: dict, n: int) -> list[tuple]:
    """All homs into PL_n: choose an image for the least unassigned element,
    then fill in every table entry the assigned elements determine."""
    size = len(t["meet"])
    if t["zero"] == t["one"]:
        return []
    out = []

    def propagate(m: dict, todo: list) -> bool:
        while todo:
            x = todo.pop()
            for y in list(m):
                for name in OPS:
                    z, w = t[name][x][y], chain_op(name, n, m[x], m[y])
                    if z not in m:
                        m[z] = w
                        todo.append(z)
                    elif m[z] != w:
                        return False
        return True

    def search(m: dict) -> None:
        free = next((x for x in range(size) if x not in m), None)
        if free is None:
            out.append(tuple(m[x] for x in range(size)))
            return
        for v in range(n + 1):
            ext = dict(m)
            ext[free] = v
            if propagate(ext, [free]):
                search(ext)

    base = {t["zero"]: 0, t["one"]: n}
    if propagate(base, list(base)):
        search(base)
    return sorted(out)


def homs_brute_force(t: dict, n: int) -> list[tuple]:
    """All homs into PL_n by testing every map; for the smallest inputs."""
    size = len(t["meet"])
    return [m for m in iproduct(range(n + 1), repeat=size) if is_hom(t, n, m)]


# -- the relation lattice S_n ---------------------------------------------------

def seq_value(y: tuple, n: int, a: int) -> int:
    return 0 if a == 0 else (n if a == n else y[a - 1])


def candidates(n: int) -> list[tuple]:
    """Nondecreasing [y_1..y_{n-1}] with i <= y_i <= n."""
    out = []

    def extend(prefix):
        i = len(prefix) + 1
        if i == n:
            out.append(tuple(prefix))
            return
        for v in range(max(i, prefix[-1] if prefix else 0), n + 1):
            extend(prefix + [v])

    extend([])
    return out


def closed_by_corners(y: tuple, n: int) -> bool:
    """R_y = {(a, b) : b >= y_a} is down-closed in a and up-closed in b, and
    the operations are monotone, so R_y is closed under op exactly when
    op(y_a, y_b) >= y_{op(a, b)} for all a, b."""
    for name in ("oplus", "odot"):
        for a in range(n + 1):
            for b in range(n + 1):
                c = chain_op(name, n, a, b)
                if chain_op(name, n, seq_value(y, n, a), seq_value(y, n, b)) \
                        < seq_value(y, n, c):
                    return False
    return True


def closed_by_pairs(y: tuple, n: int) -> bool:
    """Literal test: every two pairs of R_y combine to a pair of R_y."""
    rel = {(a, b) for a in range(n + 1) for b in range(n + 1)
           if b >= seq_value(y, n, a)}
    for (a1, b1) in rel:
        for (a2, b2) in rel:
            for name in ("oplus", "odot"):
                if (chain_op(name, n, a1, a2), chain_op(name, n, b1, b2)) \
                        not in rel:
                    return False
    return True


def good_sequences(n: int) -> list[tuple]:
    """S_n in the program's documented order: descending lexicographic."""
    return sorted((y for y in candidates(n) if closed_by_corners(y, n)),
                  reverse=True)


def relation_pairs(y: tuple, n: int) -> frozenset:
    return frozenset((a, b) for a in range(n + 1) for b in range(n + 1)
                     if b >= seq_value(y, n, a))


# -- structured spaces -----------------------------------------------------------

def dual_relations(points: list[tuple], n: int) -> dict:
    """Pointwise relations between homs, keyed by sequence."""
    out = {}
    for y in good_sequences(n):
        out[y] = frozenset(
            (i, j) for i, u in enumerate(points) for j, v in enumerate(points)
            if all(b >= seq_value(y, n, a) for a, b in zip(u, v)))
    return out


def discrete_relations(n: int, size: int) -> dict:
    """Dual of PL_n^size: the order is the diagonal, every other relation
    empty (a diagonal pair (a, a) lies in R_y only when y_a <= a)."""
    seqs = good_sequences(n)
    top = seqs[-1]
    return {y: (frozenset((p, p) for p in range(size)) if y == top
                else frozenset()) for y in seqs}


def random_poset(rng, size: int, density: float) -> frozenset:
    """A random partial order, as the transitive closure of a random DAG
    laid over a random linear extension."""
    perm = list(range(size))
    rng.shuffle(perm)
    below = {p: {p} for p in range(size)}
    for i in range(size):
        for j in range(i + 1, size):
            if rng.random() < density:
                # below[perm[i]] is already final here, so this stays transitive
                below[perm[j]] |= below[perm[i]]
    return frozenset((p, q) for q in range(size) for p in below[q])


def canonical_form(size: int, rels: dict) -> tuple:
    """Least relabelled form; equal exactly for isomorphic small spaces."""
    from itertools import permutations
    best = None
    for perm in permutations(range(size)):
        form = tuple((key, tuple(sorted((perm[u], perm[v])
                                        for (u, v) in rels[key])))
                     for key in sorted(rels))
        if best is None or form < best:
            best = form
    return (size, best)


def alter_ego_maps(size: int, rels: dict, n: int) -> list[tuple]:
    """Every map into the alter ego that preserves each relation, by
    testing all (n+1)^size maps; for spaces of a few points."""
    target = {y: relation_pairs(y, n) for y in rels}
    return [m for m in iproduct(range(n + 1), repeat=size)
            if all((m[u], m[v]) in target[y]
                   for y, pairs in rels.items() for (u, v) in pairs)]


def member_brute_force(size: int, rels: dict, n: int) -> bool:
    """Separation by morphisms into the alter ego, decided by brute force."""
    maps = alter_ego_maps(size, rels, n)
    target = {y: relation_pairs(y, n) for y in rels}
    for p in range(size):
        for q in range(size):
            if p != q and all(m[p] == m[q] for m in maps):
                return False
            for y, pairs in rels.items():
                if (p, q) not in pairs and \
                        all((m[p], m[q]) in target[y] for m in maps):
                    return False
    return True


def partial_orders(size: int) -> list[frozenset]:
    """Every partial order on range(size), as a set of pairs."""
    loops = frozenset((p, p) for p in range(size))
    offdiag = [(p, q) for p in range(size) for q in range(size) if p != q]
    out = []
    for r in range(len(offdiag) + 1):
        for extra in combinations(offdiag, r):
            rel = loops | frozenset(extra)
            if all((q, p) not in rel for p, q in extra) and \
                    all((p, s) in rel for p, q in rel for q2, s in rel
                        if q == q2):
                out.append(rel)
    return out


def members(n: int, max_size: int) -> list[tuple[int, dict]]:
    """Every member of the dual category with at most max_size points, one
    per isomorphism class, as (size, relations): each partial order with
    each choice of subsets of it for the other relations, kept when the
    brute-force separation test passes."""
    seqs = good_sequences(n)
    top, others = seqs[-1], seqs[:-1]
    out, seen = [], set()
    for size in range(max_size + 1):
        for order in partial_orders(size):
            pairs = sorted(order)
            subsets = [frozenset(c) for r in range(len(pairs) + 1)
                       for c in combinations(pairs, r)]
            for choice in iproduct(subsets, repeat=len(others)):
                rels = {top: order, **dict(zip(others, choice))}
                if not member_brute_force(size, rels, n):
                    continue
                form = canonical_form(size, rels)
                if form not in seen:
                    seen.add(form)
                    out.append((size, rels))
    return out
