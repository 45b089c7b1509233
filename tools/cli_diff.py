"""Run every pmvdual CLI verb in two checkouts and report what differs.

    python3 tools/cli_diff.py parent=../parent change=.

Each LABEL=DIR names the root of a checkout.  The script writes one
fixed set of input files, made from a fixed seed with the first
checkout's pmvdual:

- every subalgebra of PL_n^2 for n <= 3, PL_1^3 and PL_2 x PL_1, and
  larger ones built by power and product, PL_2^3 (27 elements),
  PL_3 x PL_1^2 (16 elements), and PL_2^4 (81) and PL_1^6 (64), the
  shapes of the largest double duals that verify-duality builds, for
  the verbs that reuse a hom list;
- PL_4^3 (125 elements), PL_1^8 (256 elements, whose 16.8 million
  triples are past the budget of validation's scan, so that its exit-3
  line is compared), and one invalid algebra for each axiom that
  validation checks over triples or covering pairs (INVALID), with M3
  and N5 x PL_1 for distributivity, so that the first violated axiom
  and its witness are compared;
- the dual space of each at its n, and three copies of it with one pair
  of one relation toggled;
- the alter egos for n = 2, 3, 4.

Then, in each checkout, it runs ``python3 -m pmvdual.cli`` with the
checkout's src first on PYTHONPATH:

- skeleton, and verify-duality and classify-ac-ec at n = 1..3, over the
  algebras;
- power 2 and power 3 over the algebras that are lattices;
- membership and export over the spaces, at their own n;
- sn -1..12 as JSON, with --irreducible and with --format dot (n = 12
  writes all 14 900 elements of S_12), sn 78 (the last n whose
  set-up fits the budget, which its search then exceeds), sn 79 and
  sn 100 (over the budget before the search is built), and
  oracle-diff -1..7.

It prints every run whose stdout, stderr or exit code differs between
the checkouts (a checkout's own root is written as <checkout> in
stderr, so tracebacks compare), then the counts, and exits 1 when any
run differs.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from itertools import product as iproduct
from pathlib import Path

SEED = 20231016
PERTURBATIONS = 3
TIMEOUT_S = 600
# (name, base, table, x, y, v): the base algebra with t[x][y] = t[y][x] = v
# in the table t, which fails the axiom that the name gives
INVALID = [
    ("meet_assoc", "pl2sq", "meet", 2, 4, 0),
    ("join_assoc", "pl2sq", "join", 1, 3, 5),
    ("distributivity", "pl1cube", "join", 2, 4, 7),
    ("oplus_assoc", "pl3", "oplus", 1, 2, 0),
    ("odot_assoc", "pl3", "odot", 0, 1, 1),
    ("oplus_monotone", "pl2xpl1", "oplus", 1, 2, 5),
    ("odot_monotone", "pl2xpl1", "odot", 3, 4, 0),
]


def lattice(points, le) -> dict:
    """The lattice on the list of points, bottom first and top last,
    ordered by le, with (+) = join and (.) = meet, as algebra JSON;
    element i is points[i]."""
    def table(lower: bool) -> list:
        def bound(x, y):
            common = [z for z in points if (le(z, x) and le(z, y) if lower
                                            else le(x, z) and le(y, z))]
            return points.index(next(z for z in common if all(
                le(w, z) if lower else le(z, w) for w in common)))
        return [[bound(x, y) for y in points] for x in points]

    meet, join = table(True), table(False)
    return {"size": len(points), "meet": meet, "join": join, "oplus": join,
            "odot": meet, "zero": 0, "one": len(points) - 1}


def fixtures(src: Path, folder: Path) -> tuple[list, list, list]:
    """Write the input files; return the algebra paths, the lattice
    paths and (n, path) for the spaces."""
    sys.path.insert(0, str(src))
    from pmvdual.algebra import (all_subalgebra_carriers, chain_algebra,
                                 power, product, restrict)
    from pmvdual.duality import StructSpace, alter_ego, dual_space

    def write(name: str, payload) -> str:
        path = folder / name
        path.write_text(json.dumps(payload, sort_keys=True))
        return str(path)

    algebras = []               # (n, name, algebra)
    for n in (1, 2, 3):
        square = power(chain_algebra(n), 2)
        for i, carrier in enumerate(all_subalgebra_carriers(square)):
            algebras.append((n, f"pl{n}sq_{i:02d}",
                             restrict(square, carrier, f"PL{n}^2|{i}")))
    algebras.append((1, "pl1cube", power(chain_algebra(1), 3)))
    algebras.append((2, "pl2xpl1", product(chain_algebra(2),
                                           chain_algebra(1))))
    algebras.append((2, "pl2cube", power(chain_algebra(2), 3)))
    algebras.append((3, "pl3xpl1sq", product(chain_algebra(3),
                                             power(chain_algebra(1), 2))))
    algebras.append((2, "pl2pow4", power(chain_algebra(2), 4)))
    algebras.append((1, "pl1pow6", power(chain_algebra(1), 6)))
    rng = random.Random(SEED)
    algebra_paths, lattice_paths, spaces = [], [], []
    for n, name, a in algebras:
        path = write(f"{name}.json", a.to_json())
        algebra_paths.append(path)
        if a.oplus == a.join and a.odot == a.meet:
            lattice_paths.append(path)
        x = dual_space(a, n)
        spaces.append((n, write(f"{name}_dual.json", x.to_json())))
        for k in range(PERTURBATIONS if x.size else 0):
            key = rng.choice(sorted(x.relations))
            pair = (rng.randrange(x.size), rng.randrange(x.size))
            rels = dict(x.relations)
            rels[key] = rels[key] ^ {pair}
            spaces.append((n, write(f"{name}_dual_p{k}.json",
                                    StructSpace(n, x.size, rels).to_json())))
    for n in (2, 3, 4):
        spaces.append((n, write(f"alter_ego_{n}.json",
                                alter_ego(n).to_json())))
    algebra_paths.append(write("pl4cube.json",
                               power(chain_algebra(4), 3).to_json()))
    algebra_paths.append(write("pl1pow8.json",
                               power(chain_algebra(1), 8).to_json()))
    bases = {name: a for _, name, a in algebras}
    bases.update(pl2sq=power(chain_algebra(2), 2), pl3=chain_algebra(3))
    for name, base, table, x, y, v in INVALID:
        payload = bases[base].to_json()
        payload[table][x][y] = payload[table][y][x] = v
        algebra_paths.append(write(f"invalid_{name}.json", payload))

    def m3(x, y):
        return x == y or x == 0 or y == 4

    def n5(x, y):
        return m3(x, y) or (x, y) == (1, 2)

    algebra_paths.append(write("invalid_m3.json", lattice(list(range(5)), m3)))
    algebra_paths.append(write("invalid_n5xpl1.json", lattice(
        list(iproduct(range(5), range(2))),
        lambda p, q: n5(p[0], q[0]) and p[1] <= q[1])))
    return algebra_paths, lattice_paths, spaces


def runs(algebras: list, lattices: list, spaces: list) -> list[list[str]]:
    """The argument lists of every run."""
    out = []
    for path in algebras:
        out.append(["skeleton", "--algebra", path])
        for n in ("1", "2", "3"):
            out.append(["verify-duality", n, "--algebra", path])
            out.append(["classify-ac-ec", n, "--algebra", path])
    for path in lattices:
        for n in ("2", "3"):
            out.append(["power", n, "--lattice", path])
    for n, path in spaces:
        out.append(["membership", str(n), "--space", path])
        out.append(["export", str(n), "--space", path])
    for n in range(-1, 13):
        for flags in ([], ["--irreducible"], ["--format", "dot"]):
            out.append(["sn", str(n), *flags])
    for n in ("78", "79", "100"):
        out.append(["sn", n])
    for n in range(-1, 8):
        out.append(["oracle-diff", str(n)])
    return out


def one_run(checkout: Path, argv: list[str]) -> tuple:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    try:
        done = subprocess.run([sys.executable, "-m", "pmvdual.cli", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "", "", "timeout"
    return (done.stdout, done.stderr.replace(str(checkout), "<checkout>"),
            done.returncode)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="compare the CLI output of two checkouts")
    parser.add_argument("checkouts", nargs=2, metavar="LABEL=DIR")
    args = parser.parse_args(argv)
    labels, dirs = [], []
    for spec in args.checkouts:
        label, sep, folder = spec.partition("=")
        if not sep or not (Path(folder) / "src" / "pmvdual").is_dir():
            parser.error(f"{spec!r} is not LABEL=DIR of a checkout")
        labels.append(label)
        dirs.append(Path(folder).resolve())
    with tempfile.TemporaryDirectory() as tmp:
        todo = runs(*fixtures(dirs[0] / "src", Path(tmp)))
        with ThreadPoolExecutor(max_workers=2) as pool:
            results = [list(pool.map(one_run, [d] * len(todo), todo))
                       for d in dirs]
    differ = 0
    for call, old, new in zip(todo, *results):
        parts = [part for part, a, b in
                 zip(("stdout", "stderr", "exit code"), old, new) if a != b]
        if parts:
            differ += 1
            print(f"differs in {', '.join(parts)}: pmvdual {' '.join(call)}")
            for label, (_, err, code) in zip(labels, (old, new)):
                print(f"  {label}: exit {code}, stderr {err[-300:]!r}")
    print(f"{len(todo)} runs in each of {labels[0]} and {labels[1]}: "
          f"{differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
