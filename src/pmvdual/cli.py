"""Batch command-line surface with JSON input/output and DOT export.

Exit codes: 0 success / verdict true, 1 verdict false, 2 input error or
internal consistency error, 3 search budget exceeded.
"""
from __future__ import annotations

import argparse
import json
import sys

from .algebra import FinAlgebra
from .closure import is_algebraically_closed, is_existentially_closed
from .duality import (StructSpace, _expect_n, evaluation_e,
                      struct_space_to_dot, x2_axiom_check, xn_membership)
from .errors import (BudgetExceededError, InternalConsistencyError,
                     MalformedInputError)
from .relations import (adjudicate_n4_discrepancy, candidate_sequences,
                        compute_Sn, is_good_sequence, lhd_rel,
                        meet_irreducibles, rel_lattice_to_dot, rel_to_seq,
                        square_subalgebras_oracle)
from .skeleton import priestley_power, skeleton

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise MalformedInputError(f"no such file: {path}")
    except OSError as exc:
        raise MalformedInputError(f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError:
        raise MalformedInputError(f"cannot read {path}: not UTF-8 text")
    except json.JSONDecodeError as exc:
        raise MalformedInputError(
            f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno}")


def _emit(out, payload) -> None:
    json.dump(payload, out, indent=2, sort_keys=True)
    out.write("\n")


def _json_list(items: list[str], pad: str) -> str:
    """JSON values, each already written, as the list that
    json.dump(indent=2) writes when its opening line is indented by pad."""
    if not items:
        return "[]"
    return f"[\n  {pad}" + f",\n  {pad}".join(items) + f"\n{pad}]"


def cmd_sn(args, out) -> int:
    lat = compute_Sn(args.n)
    if args.format == "dot":
        out.write(rel_lattice_to_dot(lat))
        return EXIT_OK
    seqs = meet_irreducibles(lat) if args.irreducible else list(lat.elements)
    # _emit's output, written one cover list and one sequence at a time:
    # keys sorted, labels with nothing to escape, never an empty outer list
    out.write(f'{{\n  "count": {len(seqs)},\n  "covers": [')
    sep = "\n    "
    for cov in lat.covers:
        out.write(sep + _json_list([*map(str, cov)], "    "))
        sep = ",\n    "
    out.write('\n  ],\n  "meet_irreducible": '
              + _json_list(["true" if irr else "false"
                           for irr in lat.meet_irreducible], "  ")
              + f',\n  "n": {args.n},\n  "sequences": [')
    sep = "\n    "
    for s in seqs:
        out.write(f'{sep}{{\n      "label": "{s.label()}",\n      "y": '
                  + _json_list([*map(str, s.y)], "      ") + "\n    }")
        sep = ",\n    "
    out.write("\n  ]\n}\n")
    return EXIT_OK


def cmd_verify_duality(args, out) -> int:
    algebra = FinAlgebra.from_json(_load_json(args.algebra))
    report = evaluation_e(algebra, args.n)
    size = algebra.size
    dsize = report.hom.target.size
    verdict = report.bijective
    out.write(f"e_A bijective: {size} = {dsize}\n" if verdict
              else f"e_A not bijective: {size} vs {dsize} "
                   f"(injective={report.injective}, surjective={report.surjective})\n")
    return EXIT_OK if verdict else EXIT_FALSE


def cmd_membership(args, out) -> int:
    space = StructSpace.from_json(_load_json(args.space))
    report = xn_membership(space, args.n)
    payload = {"member": report.member, "witness": report.witness}
    if args.n == 2:
        axioms = x2_axiom_check(space)
        payload["x2_axioms"] = {
            "a": axioms.axiom_a, "b": axioms.axiom_b, "c": axioms.axiom_c,
        }
    _emit(out, payload)
    return EXIT_OK if report.member else EXIT_FALSE


def cmd_skeleton(args, out) -> int:
    algebra = FinAlgebra.from_json(_load_json(args.algebra))
    lat, carrier = skeleton(algebra)
    payload = lat.to_json()
    payload["inclusion"] = list(carrier)
    _emit(out, payload)
    return EXIT_OK


def cmd_power(args, out) -> int:
    lat = FinAlgebra.from_json(_load_json(args.lattice))
    _emit(out, priestley_power(args.n, lat).to_json())
    return EXIT_OK


def cmd_classify_ac_ec(args, out) -> int:
    algebra = FinAlgebra.from_json(_load_json(args.algebra))
    ac = is_algebraically_closed(algebra, args.n)
    ec = is_existentially_closed(algebra, args.n)
    _emit(out, {"algebraically_closed": ac.to_json(),
                "existentially_closed": ec.to_json()})
    return EXIT_OK if ac.verdict else EXIT_FALSE


def cmd_oracle_diff(args, out) -> int:
    n = args.n
    algorithm = {s.y for s in compute_Sn(n).elements}
    oracle_rels = square_subalgebras_oracle(n)
    candidates = candidate_sequences(n)
    corner = {s.y for s in candidates if is_good_sequence(s, "corner")}
    full = {s.y for s in candidates if is_good_sequence(s, "full")}
    lhd_pairs = lhd_rel(n).pairs
    between = set()
    for rel in oracle_rels:
        if lhd_pairs <= rel.pairs:
            between.add(rel_to_seq(rel).y)
    lines = [f"relations between the minimal relation and the order at n={n}:",
             f"  sequence algorithm (corner mode): {len(corner)}",
             f"  full-condition mode:              {len(full)}",
             f"  brute-force oracle:               {len(between)}"]
    ok = algorithm == corner == full == between
    if ok:
        lines.append("  agreement: exact")
    else:
        lines.append(f"  DISCREPANCY: algorithm-corner="
                     f"{sorted(algorithm ^ corner)} "
                     f"algorithm-full={sorted(algorithm ^ full)} "
                     f"algorithm-oracle={sorted(algorithm ^ between)}")
    out.write("\n".join(lines) + "\n")
    if n == 4:
        out.write(adjudicate_n4_discrepancy() + "\n")
    return EXIT_OK if ok else EXIT_FALSE


def cmd_export(args, out) -> int:
    space = StructSpace.from_json(_load_json(args.space))
    _expect_n(space, args.n)
    out.write(struct_space_to_dot(space))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pmvdual")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("sn", help="compute the relation lattice")
    p.add_argument("n", type=int)
    p.add_argument("--irreducible", action="store_true")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.set_defaults(func=cmd_sn)

    p = sub.add_parser("verify-duality", help="run the evaluation map")
    p.add_argument("n", type=int)
    p.add_argument("--algebra", required=True)
    p.set_defaults(func=cmd_verify_duality)

    p = sub.add_parser("membership", help="separation-based membership test")
    p.add_argument("n", type=int)
    p.add_argument("--space", required=True)
    p.set_defaults(func=cmd_membership)

    p = sub.add_parser("skeleton", help="distributive skeleton of an algebra")
    p.add_argument("--algebra", required=True)
    p.set_defaults(func=cmd_skeleton)

    p = sub.add_parser("power", help="Priestley power over a lattice")
    p.add_argument("n", type=int)
    p.add_argument("--lattice", required=True)
    p.set_defaults(func=cmd_power)

    p = sub.add_parser("classify-ac-ec", help="AC/EC classification")
    p.add_argument("n", type=int)
    p.add_argument("--algebra", required=True)
    p.set_defaults(func=cmd_classify_ac_ec)

    p = sub.add_parser("oracle-diff", help="compare algorithm against oracle")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_oracle_diff)

    p = sub.add_parser("export", help="DOT export of a structured space")
    p.add_argument("n", type=int)
    p.add_argument("--space", required=True)
    p.set_defaults(func=cmd_export)

    return parser


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, out)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (InternalConsistencyError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
