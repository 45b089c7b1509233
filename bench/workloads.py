"""The four workloads: their seeded items, the program calls each item
makes, and the checks made on each output apart from the program.

An item is one operation.  ``run`` makes only program calls and is the
timed part; ``check`` verifies the output of the first round against
the benchmark's own computations, and ``digest`` lets every later round
be compared with that checked output.  ``extra`` holds calls that only
the traced run makes, to time the parts of a composite call.

A set-up function takes the program, the seed, the tracer and ``lap``,
which it calls after building each item, so that the caller can measure
the host's speed between parts of a long set-up.
"""
from __future__ import annotations

import io
import json
import random
import re
import tracemalloc
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
from pathlib import Path
from typing import Any, Callable

import gen


@lru_cache(maxsize=None)
def reference() -> dict:
    """The stored table of |S_n|; ``python3 bench/reference.py`` rewrites it."""
    return json.loads((Path(__file__).parent / "reference.json").read_text())


@dataclass
class Item:
    id: str
    run: Callable[[Any], Any]
    check: Callable[[Any], list]
    digest: Callable[[Any], Any]
    prepare: Callable[[], None] | None = None
    extra: Callable[[Any], None] | None = None


def _algebra(pmv, tr, t: dict):
    """A program algebra built from plain tables at the input boundary."""
    return tr.call("algebra.from_tables", pmv.algebra.algebra_from_tables,
                   {name: t[name] for name in gen.OPS},
                   {"zero": t["zero"], "one": t["one"]})


def _space(pmv, tr, n: int, size: int, rels: dict):
    return tr.call("duality.StructSpace", pmv.duality.StructSpace, n, size,
                   rels)


def _hom_failures(name: str, t: dict, n: int, maps: list) -> list:
    """Every map is a hom by the tables; the list is sorted, no repeats."""
    out = []
    if any(not gen.is_hom(t, n, m) for m in maps):
        out.append(f"{name}: a returned map is not a hom")
    if any(maps[i] >= maps[i + 1] for i in range(len(maps) - 1)):
        out.append(f"{name}: homs not sorted or repeated")
    return out


def _relation_failures(name: str, space, points: list, n: int) -> list:
    """The space equals the dual computed here from the same points."""
    if space.size != len(points):
        return [f"{name}: {space.size} points, expected {len(points)}"]
    if dict(space.relations) != gen.dual_relations(points, n):
        return [f"{name}: relations differ from the pointwise ones"]
    return []


def _warm(pmv, ns) -> None:
    for n in ns:
        pmv.algebra.chain_algebra(n)
        pmv.relations.compute_Sn(n)
        pmv.duality.alter_ego(n)


# -- coproduct -----------------------------------------------------------------

# (n, least |A||B|, greatest |A||B|, items).  Item cost grows steeply with
# the product's size and hardly varies among pairs of one size at n = 2,
# so pairs are drawn within narrow size bands, and the bands are sized so
# that the median and the tail item fall inside a band, away from its
# edges: the seed changes the pairs, not the cost profile of a round.
COPRODUCT_BANDS = (
    (2, 4, 9, 6), (3, 4, 9, 6), (4, 12, 16, 6),     # below the median
    (2, 24, 24, 8),                                  # the median
    (4, 27, 30, 5),
    (2, 36, 36, 8),                                  # the tail
    (2, 54, 54, 3), (4, 63, 64, 2),
)
# A and B both powers of the chain: the diagonal is PL_n, the square PL_n^2.
COPRODUCT_POWERS = ((2, 1, 1), (3, 1, 1), (4, 1, 1), (2, 2, 1), (2, 1, 2),
                    (3, 2, 1))
BRUTE_FORCE_MAPS = 20_000


def setup_coproduct(pmv, seed: int, tr, lap) -> list:
    rng = random.Random(seed)
    _warm(pmv, (2, 3, 4))
    by_n = {}
    for n in (2, 3, 4):
        power = gen.Power(n, 2)
        by_n[n] = [power.tables(s) for s in power.subuniverses()]
    picks = []
    for n, lo, hi, count in COPRODUCT_BANDS:
        subs = by_n[n]
        pool = [(i, j) for i in range(len(subs)) for j in range(len(subs))
                if lo <= len(subs[i]["meet"]) * len(subs[j]["meet"]) <= hi]
        for i, j in rng.sample(pool, count):
            picks.append((n, subs[i], subs[j], None))
    for n, ka, kb in COPRODUCT_POWERS:
        full = len(by_n[n]) - 1           # the largest subuniverse is the square
        diagonal = next(i for i, t in enumerate(by_n[n])
                        if len(t["meet"]) == n + 1 and
                        all(u[0] == u[1] for u in t["elems"]))
        pick = {1: diagonal, 2: full}
        picks.append((n, by_n[n][pick[ka]], by_n[n][pick[kb]], ka + kb))
    rng.shuffle(picks)
    items = []
    for i, p in enumerate(picks):
        items.append(_coproduct_item(pmv, tr, i, *p))
        lap()
    return items


def _coproduct_item(pmv, tr, index, n, ta, tb, power_k) -> Item:
    alg, dua = pmv.algebra, pmv.duality
    a, b = _algebra(pmv, tr, ta), _algebra(pmv, tr, tb)
    chain = alg.chain_algebra(n)
    tab = gen.product_tables(ta, tb)

    def run(tr):
        ab = tr.call("algebra.product", alg.product, a, b)
        homs = []
        for x in (ab, a, b):
            hs = tr.call("algebra.hom_enumerate", alg.hom_enumerate, x, chain)
            tr.count("algebra.hom_enumerate.homs", len(hs))
            homs.append(hs)
        spaces = [tr.call("duality.dual_space", dua.dual_space, x, n)
                  for x in (ab, a, b)]
        tr.count("duality.dual_space.points", sum(x.size for x in spaces))
        union = tr.call("duality.disjoint_union", dua.disjoint_union,
                        spaces[1], spaces[2])
        iso = tr.call("duality.spaces_isomorphic", dua.spaces_isomorphic,
                      spaces[0], union)
        return ab, [[h.map for h in hs] for hs in homs], spaces, iso

    def digest(out):
        ab, maps, spaces, iso = out
        return (ab.meet, ab.oplus, maps,
                [s.canonical_form() for s in spaces], iso)

    def check(out):
        ab, maps, spaces, iso = out
        fails = []
        if [ab.meet, ab.join, ab.oplus, ab.odot, ab.zero, ab.one] != \
                [tuple(map(tuple, tab[k])) for k in gen.OPS] + \
                [tab["zero"], tab["one"]]:
            fails.append("product tables differ from the componentwise ones")
        for name, t, ms in zip(("AxB", "A", "B"), (tab, ta, tb), maps):
            fails += _hom_failures(name, t, n, ms)
        ms_ab, ms_a, ms_b = maps
        if len(ms_ab) != len(ms_a) + len(ms_b):
            fails.append(f"|hom(AxB)| = {len(ms_ab)} != "
                         f"{len(ms_a)} + {len(ms_b)}")
        sb = len(tb["meet"])
        via_a = [tuple(h[i // sb] for i in range(len(tab["meet"]))) for h in ms_a]
        via_b = [tuple(h[i % sb] for i in range(len(tab["meet"]))) for h in ms_b]
        if sorted(via_a + via_b) != ms_ab:
            fails.append("hom(AxB) is not the homs of A and B through the "
                         "projections")
        for name, space, ms in zip(("AxB", "A", "B"), spaces, maps):
            fails += _relation_failures(f"D({name})", space, ms, n)
        if not fails:
            # the explicit bijection D(A) + D(B) -> D(AxB) preserves and
            # reflects every relation
            where = {m: i for i, m in enumerate(ms_ab)}
            pos = [where[m] for m in via_a + via_b]
            rel_a = gen.dual_relations(ms_a, n)
            rel_b = gen.dual_relations(ms_b, n)
            shift = len(ms_a)
            if any({(pos[u], pos[v]) for u, v in rel_a[y]}
                   | {(pos[u + shift], pos[v + shift]) for u, v in rel_b[y]}
                   != spaces[0].relations[y] for y in rel_a):
                fails.append("D(AxB) is not D(A) + D(B)")
        if iso is not True:
            fails.append("spaces_isomorphic(D(AxB), D(A) + D(B)) is not True")
        if power_k is not None and len(ms_ab) != power_k:
            fails.append(f"|hom(PL_{n}^{power_k}, PL_{n})| = {len(ms_ab)}")
        if (n + 1) ** len(tab["meet"]) <= BRUTE_FORCE_MAPS and \
                len(gen.homs_brute_force(tab, n)) != len(ms_ab):
            fails.append("hom count differs from the brute-force count")
        return fails

    size = len(ta["meet"]) * len(tb["meet"])
    return Item(f"coproduct/{index}/n{n}/{len(ta['meet'])}x{len(tb['meet'])}"
                f"={size}", run, check, digest)


# -- roundtrip -----------------------------------------------------------------

# evaluation_e on the powers PL_n^k, up to about a hundred elements.
ROUNDTRIP_POWERS = ((4, 2), (2, 3), (1, 5), (3, 3), (1, 6), (2, 4))
# evaluation_eps on discrete spaces (n, points), duals of PL_n^points.
ROUNDTRIP_DISCRETE = ((1, 3), (2, 2), (3, 2), (4, 1))
# evaluation_eps on every member of the dual category with at most k
# points, (n, k), as enumerated by gen.members.
ROUNDTRIP_MEMBERS = ((1, 3), (2, 2), (3, 2))


def setup_roundtrip(pmv, seed: int, tr, lap) -> list:
    """evaluation_e on every subalgebra of the chain square (n = 2, 3, 4),
    every 3-generated subalgebra of PL_2^3 and the powers; evaluation_eps
    on the duals of the square subalgebras, on discrete spaces and on the
    enumerated members of the dual category.  The seed relabels every
    algebra and every enumerated member and orders the items: the inputs
    change, the population and so the cost profile of a round do not."""
    rng = random.Random(seed)
    _warm(pmv, (1, 2, 3, 4))
    squares = []
    for n in (2, 3, 4):
        power = gen.Power(n, 2)
        squares += [(n, power, s) for s in power.subuniverses()]
    cube = gen.Power(2, 3)
    triples = combinations_with_replacement(range(len(cube.elems)), 3)
    cubes = [(2, cube, s)
             for s in sorted({cube.close(g) for g in triples},
                             key=lambda s: (len(s), sorted(s)))]
    powers = [(n, gen.Power(n, k), range((n + 1) ** k))
              for n, k in ROUNDTRIP_POWERS]
    items = []
    for n, power, s in squares + cubes + powers:
        items.append(_e_item(pmv, tr, n, power.tables(s, rng)))
        lap()
    for n, power, s in squares:
        points = gen.homs_backtrack(power.tables(s), n)
        items.append(_eps_item(pmv, tr, n, len(points),
                               gen.dual_relations(points, n)))
        lap()
    for n, size in ROUNDTRIP_DISCRETE:
        items.append(_eps_item(pmv, tr, n, size,
                               gen.discrete_relations(n, size)))
    for n, k in ROUNDTRIP_MEMBERS:
        for size, rels in gen.members(n, k):
            perm = rng.sample(range(size), size)
            rels = {y: frozenset((perm[p], perm[q]) for p, q in pairs)
                    for y, pairs in rels.items()}
            items.append(_eps_item(pmv, tr, n, size, rels))
        lap()
    rng.shuffle(items)
    for i, item in enumerate(items):
        item.id = f"roundtrip/{i}/{item.id}"
    return items


def _e_item(pmv, tr, n, t) -> Item:
    dua = pmv.duality
    a = _algebra(pmv, tr, t)
    size = len(t["meet"])

    def run(tr):
        return tr.call("duality.evaluation_e", dua.evaluation_e, a, n)

    def extra(tr):
        points = tr.call("duality.dual_points", dua.dual_points, a, n)
        tr.count("duality.dual_points.homs", len(points))
        x = tr.call("duality.dual_space", dua.dual_space, a, n)
        tr.count("duality.dual_space.points", x.size)
        _decompose_dual_algebra(tr, dua, x)

    def digest(report):
        target = report.hom.target
        return report.hom.map, target.meet, target.oplus

    def check(report):
        fails = []
        target, m = report.hom.target, report.hom.map
        if not report.bijective or target.size != size or \
                sorted(m) != list(range(size)):
            fails.append(f"e_A not bijective: |A| = {size}, "
                         f"|E(D(A))| = {target.size}")
        elif any(m[t[name][x][y]] != target.table(name)[m[x]][m[y]]
                 for name in gen.OPS for x in range(size)
                 for y in range(size)):
            fails.append("e_A is not a hom")
        return fails

    return Item(f"e/n{n}/|A|={size}", run, check, digest,
                extra=extra)


def _decompose_dual_algebra(tr, dua, x) -> None:
    maps = tr.call("duality.dual_algebra_elements",
                   dua.dual_algebra_elements, x)
    tr.count("duality.dual_algebra_elements.maps", len(maps))
    ealg = tr.call("duality.dual_algebra", dua.dual_algebra, x)
    tr.count("duality.dual_algebra.elements", ealg.size)


def _eps_item(pmv, tr, n, size, rels) -> Item:
    dua = pmv.duality
    x = _space(pmv, tr, n, size, rels)

    def run(tr):
        return tr.call("duality.evaluation_eps", dua.evaluation_eps, x, n)

    def extra(tr):
        _decompose_dual_algebra(tr, dua, x)
        ealg = dua.dual_algebra(x)
        points = tr.call("duality.dual_points", dua.dual_points, ealg, n)
        tr.count("duality.dual_points.homs", len(points))
        y = tr.call("duality.dual_space", dua.dual_space, ealg, n)
        tr.count("duality.dual_space.points", y.size)

    def digest(report):
        return (report.map, report.injective, report.surjective,
                report.relation_preserving, report.relation_reflecting)

    def check(report):
        if not report.isomorphism or len(set(report.map)) != size or \
                len(report.map) != size:
            return [f"eps not an isomorphism: {digest(report)}"]
        return []

    return Item(f"eps/n{n}/|X|={size}", run, check, digest,
                extra=extra)


# -- membership ----------------------------------------------------------------

# (kind, n, points, items).  Members: duals of seeded algebras, random
# n = 2 posets whose sharp relation is the order (duals of distributive
# lattices) and discrete spaces (duals of powers of the chain).
# Non-members: a member with a pair added to a smaller relation outside
# the order ("extra"), or with a 2-cycle added to the order ("cycle").
MEMBERSHIP_SPACES = (
    # seeded, each well under a millisecond: below the median
    ("dual", 2, None, 2), ("dual", 3, None, 2), ("dual", 4, None, 2),
    ("poset", 2, 4, 2), ("poset", 2, 5, 2), ("poset", 2, 6, 4),
    ("poset-extra", 2, 6, 3), ("poset-cycle", 2, 6, 3),
    # the median: eight equal spaces, with the (1, 3) and (2, 2)
    # enumerations of about the same cost
    ("discrete", 3, 5, 8),
    ("discrete-extra", 3, 6, 2), ("discrete", 2, 7, 3),
    # the tail: nine equal spaces
    ("discrete", 4, 5, 9),
    # the largest spaces, which set the round's time and peak memory
    ("discrete", 4, 6, 1), ("discrete-extra", 4, 7, 1),
    ("discrete", 4, 7, 1), ("discrete", 4, 8, 1),
)
# enumerate_xn_structures(n, k) calls.
MEMBERSHIP_ENUMERATE = ((1, 3), (2, 2), (3, 2), (1, 4), (2, 3))


def _perturb(rng, n: int, size: int, rels: dict, how: str) -> dict:
    seqs = gen.good_sequences(n)
    top = seqs[-1]
    order = rels[top]
    rels = dict(rels)
    if how == "cycle":
        p, q = rng.sample(range(size), 2)
        rels[top] = order | {(p, q), (q, p)}
    else:
        p, q = rng.choice([(p, q) for p in range(size) for q in range(size)
                           if (p, q) not in order])
        y = rng.choice(seqs[:-1])
        rels[y] = rels[y] | {(p, q)}
    return rels


def _seeded_subalgebra(rng, power, gens: int, lo: int, hi: int) -> frozenset:
    """The subuniverse generated by seeded elements, redrawn until its
    size lies in [lo, hi]."""
    while True:
        sub = power.close(rng.sample(range(len(power.elems)), gens))
        if lo <= len(sub) <= hi:
            return sub


def setup_membership(pmv, seed: int, tr, lap) -> list:
    rng = random.Random(seed)
    _warm(pmv, (1, 2, 3, 4))
    powers = {n: gen.Power(n, 2) for n in (2, 3, 4)}
    items = []
    for kind, n, size, count in MEMBERSHIP_SPACES:
        base, _, how = kind.partition("-")
        for _ in range(count):
            if base == "dual":
                sub = _seeded_subalgebra(rng, powers[n], 2, 4, (n + 1) ** 2)
                points = gen.homs_backtrack(powers[n].tables(sub), n)
                size_, rels = len(points), gen.dual_relations(points, n)
            elif base == "poset":
                order = gen.random_poset(rng, size, 0.4)
                size_, rels = size, {(2,): order, (1,): order}
            else:
                size_, rels = size, gen.discrete_relations(n, size)
            if how:
                rels = _perturb(rng, n, size_, rels, how)
            items.append(_membership_item(
                pmv, tr, f"{len(items)}/{kind}", n, size_, rels, not how))
            lap()
    for n, k in MEMBERSHIP_ENUMERATE:
        items.append(_enumerate_item(pmv, n, k))
    rng.shuffle(items)
    return items


def _membership_item(pmv, tr, name, n, size, rels, member) -> Item:
    dua = pmv.duality
    x = _space(pmv, tr, n, size, rels)

    def run(tr):
        report = tr.call("duality.xn_membership", dua.xn_membership, x, n)
        axioms = None
        if n == 2:
            axioms = tr.call("duality.x2_axiom_check", dua.x2_axiom_check, x)
        return report, axioms

    state = {"peak": False}

    def extra(tr):
        if state["peak"]:
            return
        state["peak"] = True
        tracemalloc.start()
        try:
            dua.xn_membership(x, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tr.counts["duality.xn_membership.alloc_peak_bytes"] = max(
            tr.counts["duality.xn_membership.alloc_peak_bytes"], peak)

    def digest(out):
        report, axioms = out
        return report.member, report.witness, axioms and axioms.passes

    def check(out):
        report, axioms = out
        fails = []
        if report.member != member:
            fails.append(f"verdict {report.member}, expected {member}")
        if axioms is not None and axioms.passes != report.member:
            fails.append(f"x2 axioms {axioms.passes} != verdict "
                         f"{report.member}")
        return fails

    return Item(f"membership/{name}/n{n}/|X|={size}", run, check, digest,
                extra=extra)


def _enumerate_item(pmv, n, k) -> Item:
    clo = pmv.closure

    def run(tr):
        found = tr.call("closure.enumerate_xn_structures",
                        clo.enumerate_xn_structures, n, k)
        tr.count("closure.enumerate_xn_structures.structures", len(found))
        return found

    def digest(found):
        return [s.canonical_form() for s in found]

    def check(found):
        fails = []
        forms = set()
        for s in found:
            rels = dict(s.relations)
            if s.n != n or s.size > k:
                fails.append(f"structure of n = {s.n}, {s.size} points")
            elif not gen.member_brute_force(s.size, rels, n):
                fails.append(f"enumerated structure is not a member: "
                             f"{s.to_json()}")
            forms.add(gen.canonical_form(s.size, rels))
        if len(forms) != len(found):
            fails.append("enumerated structures repeat up to isomorphism")
        return fails

    return Item(f"membership/enumerate/n{n}/k{k}", run, check, digest,
                prepare=clo.enumerate_xn_structures.cache_clear)


# -- sn_lattice ------------------------------------------------------------------

# (n, items) per round; every item is one fresh `pmvdual sn n` call.  The
# output format changes an item's cost at small n, so each format takes
# an equal share of a count divisible by three.  The median falls among
# the n = 6 items and the tail among the n = 7 items.
SN_ITEMS = ((4, 3), (5, 3), (6, 21), (7, 15), (8, 1), (9, 1))
SN_FORMATS = (("json", []), ("irreducible", ["--irreducible"]),
              ("dot", ["--format", "dot"]))
PAIR_TEST_MAX_N = 6


def setup_sn_lattice(pmv, seed: int, tr, lap) -> list:
    rng = random.Random(seed)
    items = []
    for n, count in SN_ITEMS:
        offset = rng.randrange(len(SN_FORMATS))
        for i in range(count):
            fmt, flags = SN_FORMATS[(offset + i) % len(SN_FORMATS)]
            items.append(_sn_item(pmv, len(items), n, fmt, flags))
    rng.shuffle(items)
    return items


@lru_cache(maxsize=None)
def expected_sn(n: int) -> tuple:
    """Good sequences, labels, covers and meet-irreducible flags of S_n,
    computed here: covers by bitsets over the componentwise order."""
    seqs = gen.good_sequences(n)
    m = len(seqs)
    # i <= j when relation i is contained in relation j: y_j <= y_i
    up = [0] * m
    down = [0] * m
    for i, yi in enumerate(seqs):
        for j, yj in enumerate(seqs):
            if i != j and all(b <= a for a, b in zip(yi, yj)):
                up[i] |= 1 << j
                down[j] |= 1 << i
    covers = []
    for i in range(m):
        covers.append([j for j in range(m)
                       if up[i] >> j & 1 and not up[i] & down[j]])
    top = tuple(range(1, n))
    irr = [len(c) == 1 or seqs[i] == top for i, c in enumerate(covers)]
    labels = ["[" + ",".join("0" if v == 0 else "1" if v == n else f"{v}/{n}"
                             for v in y) + "]" for y in seqs]
    return seqs, labels, covers, irr


def _sn_failures(n: int, fmt: str, text: str) -> list:
    seqs, labels, covers, irr = expected_sn(n)
    fails = []
    if n <= PAIR_TEST_MAX_N and seqs != sorted(
            (y for y in gen.candidates(n) if gen.closed_by_pairs(y, n)),
            reverse=True):
        fails.append("own pair test and corner test disagree")
    if len(seqs) != reference()["sn_size"][str(n)]:
        fails.append(f"|S_{n}| = {len(seqs)} differs from the stored table")
    if fmt == "dot":
        lines = text.splitlines()
        nodes = [re.fullmatch(r'  n(\d+) \[label="([^"]*)", style=(\w+)\];', s)
                 for s in lines if "label=" in s]
        edges = [re.fullmatch(r"  n(\d+) -> n(\d+);", s)
                 for s in lines if "->" in s]
        if lines[:2] != ["digraph Sn {", "  rankdir=BT;"] or lines[-1] != "}" \
                or None in nodes or None in edges:
            return ["DOT output does not parse"]
        if [int(g[1]) for g in nodes] != list(range(len(seqs))) or \
                [g[2] for g in nodes] != labels:
            fails.append("DOT nodes differ from S_n")
        if [g[3] == "solid" for g in nodes] != irr:
            fails.append("DOT styles differ from the meet-irreducibles")
        if sorted((int(g[1]), int(g[2])) for g in edges) != \
                sorted((i, j) for i, c in enumerate(covers) for j in c):
            fails.append("DOT edges differ from the Hasse diagram")
        return fails
    data = json.loads(text)
    shown = [i for i in range(len(seqs)) if irr[i] or fmt == "json"]
    if data["n"] != n or data["count"] != len(shown):
        fails.append(f"count {data['count']}, expected {len(shown)}")
    if [tuple(s["y"]) for s in data["sequences"]] != [seqs[i] for i in shown] \
            or [s["label"] for s in data["sequences"]] != \
            [labels[i] for i in shown]:
        fails.append("sequences differ from S_n")
    if data["covers"] != covers:
        fails.append("covers differ from the Hasse diagram")
    if data["meet_irreducible"] != irr:
        fails.append("meet-irreducible flags differ")
    return fails


def _sn_item(pmv, index, n, fmt, flags) -> Item:
    rel = pmv.relations
    argv = ["sn", str(n), *flags]

    def run(tr):
        out = io.StringIO()
        code = tr.call("cli.main", pmv.cli.main, argv, out=out)
        return code, out.getvalue()

    def extra(tr):
        rel.compute_Sn.cache_clear()
        lat = tr.call("relations.compute_Sn", rel.compute_Sn, n)
        tr.count("relations.compute_Sn.sequences", len(lat.elements))
        cands = tr.call("relations.candidate_sequences",
                        rel.candidate_sequences, n)
        tr.count("relations.candidate_sequences.sequences", len(cands))
        tr.call("relations.is_good_sequence",
                lambda: [rel.is_good_sequence(s, "corner") for s in cands])
        tr.count("relations.is_good_sequence.sequences", len(cands))

    def check(out):
        code, text = out
        if code != 0:
            return [f"exit code {code}"]
        return _sn_failures(n, fmt, text)

    return Item(f"sn_lattice/{index}/n{n}/{fmt}", run, check, lambda out: out,
                prepare=rel.compute_Sn.cache_clear, extra=extra)


SETUPS = {
    "coproduct": setup_coproduct,
    "roundtrip": setup_roundtrip,
    "membership": setup_membership,
    "sn_lattice": setup_sn_lattice,
}
