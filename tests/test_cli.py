import dataclasses
import io
import json
import time

import pytest

from pmvdual import cli, duality, relations, search
from pmvdual.algebra import chain_algebra, power
from pmvdual.cli import main
from pmvdual.duality import StructSpace
from pmvdual.errors import InternalConsistencyError
from pmvdual.skeleton import priestley_power

from conftest import chain_lattice, idempotents_not_closed_under_join


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_sn_json():
    code, text = run(["sn", "4"])
    assert code == 0
    data = json.loads(text)
    assert data["count"] == 7
    assert data["sequences"][0]["label"] == "[1,1,1]"
    assert data["sequences"][-1]["label"] == "[1/4,2/4,3/4]"


def test_sn_irreducible():
    code, text = run(["sn", "4", "--irreducible"])
    assert code == 0
    data = json.loads(text)
    assert data["count"] == 6
    assert all(s["label"] != "[3/4,1,1]" for s in data["sequences"])


def test_sn_dot():
    code, text = run(["sn", "4", "--format", "dot"])
    assert code == 0 and text.startswith("digraph")


@pytest.mark.parametrize("n", range(1, 10))
def test_sn_json_is_the_json_module_text(n):
    lat = relations.compute_Sn(n)
    for flags, seqs in (([], lat.elements),
                        (["--irreducible"], relations.meet_irreducibles(lat))):
        payload = {
            "n": n,
            "count": len(seqs),
            "sequences": [{"y": list(s.y), "label": s.label()} for s in seqs],
            "covers": [list(c) for c in lat.covers],
            "meet_irreducible": list(lat.meet_irreducible),
        }
        assert run(["sn", str(n), *flags]) == \
            (0, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def test_sn_deterministic():
    assert run(["sn", "5"]) == run(["sn", "5"])


def test_verify_duality(tmp_path):
    path = write_json(tmp_path, "pl2sq.json",
                      power(chain_algebra(2), 2).to_json())
    code, text = run(["verify-duality", "2", "--algebra", path])
    assert code == 0
    assert text == "e_A bijective: 9 = 9\n"


def test_membership_true_and_false(tmp_path):
    ok = StructSpace(2, 1, {(2,): frozenset(), (1,): frozenset({(0, 0)})})
    path = write_json(tmp_path, "ok.json", ok.to_json())
    code, text = run(["membership", "2", "--space", path])
    assert code == 0
    data = json.loads(text)
    assert data["member"] and data["x2_axioms"] == {"a": True, "b": True,
                                                    "c": True}
    bad = StructSpace(2, 2, {(2,): frozenset(),
                             (1,): frozenset({(0, 0), (1, 1), (0, 1), (1, 0)})})
    path2 = write_json(tmp_path, "bad.json", bad.to_json())
    code2, text2 = run(["membership", "2", "--space", path2])
    assert code2 == 1
    assert not json.loads(text2)["member"]


def test_skeleton_verb(tmp_path):
    path = write_json(tmp_path, "sq.json", power(chain_algebra(2), 2).to_json())
    code, text = run(["skeleton", "--algebra", path])
    assert code == 0
    data = json.loads(text)
    assert data["size"] == 4 and data["inclusion"] == [0, 2, 6, 8]


def test_skeleton_of_idempotents_not_closed_under_join_is_exit_2(tmp_path,
                                                                 capsys):
    path = write_json(tmp_path, "a.json",
                      idempotents_not_closed_under_join().to_json())
    code, text = run(["skeleton", "--algebra", path])
    assert code == 2 and text == ""
    assert capsys.readouterr().err == (
        "error: the (+)-idempotents are not closed under join: 1 v 2 = 3\n")


def test_power_verb(tmp_path):
    path = write_json(tmp_path, "c3.json", chain_lattice(3).to_json())
    code, text = run(["power", "2", "--lattice", path])
    assert code == 0
    assert json.loads(text)["size"] == 6


def test_classify_ac_ec(tmp_path):
    path = write_json(tmp_path, "sq.json", power(chain_algebra(2), 2).to_json())
    code, text = run(["classify-ac-ec", "2", "--algebra", path])
    assert code == 0
    data = json.loads(text)
    assert data["algebraically_closed"]["verdict"]
    assert not data["existentially_closed"]["verdict"]

    path2 = write_json(tmp_path, "pp.json",
                       priestley_power(2, chain_lattice(3)).to_json())
    code2, text2 = run(["classify-ac-ec", "2", "--algebra", path2])
    assert code2 == 1
    assert json.loads(text2)["algebraically_closed"]["reason"] == \
        "dual order not discrete"


def test_oracle_diff():
    code, text = run(["oracle-diff", "4"])
    assert code == 0
    assert "agreement: exact" in text
    assert "discrepancy note" in text
    assert "[2/4,2/4,1]" in text and "[1/4,2/4,1]" in text


def test_oracle_diff_without_note():
    code, text = run(["oracle-diff", "3"])
    assert code == 0
    assert "agreement: exact" in text and "discrepancy note" not in text


def test_oracle_diff_reports_a_missed_sequence(monkeypatch):
    lat = relations.compute_Sn(4)
    short = dataclasses.replace(lat, elements=lat.elements[1:])
    monkeypatch.setattr(cli, "compute_Sn", lambda n: short)
    code, text = run(["oracle-diff", "4"])
    assert code == 1
    assert "algorithm-oracle=[(4, 4, 4)]" in text


def test_membership_search_budget(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(search, "BUDGET", 5)
    space = duality.disjoint_union(duality.alter_ego(2), duality.alter_ego(2))
    path = write_json(tmp_path, "x.json", space.to_json())
    code, text = run(["membership", "2", "--space", path])
    err = capsys.readouterr().err
    assert code == 3 and text == ""
    assert err == "error: search budget exceeded (budget = 5)\n"


def test_sn_search_budget(monkeypatch, capsys):
    monkeypatch.setattr(relations, "SN_BUDGET", 5)
    relations.compute_Sn.cache_clear()      # S_6 may be cached already
    code, text = run(["sn", "6"])
    err = capsys.readouterr().err
    assert code == 3 and text == ""
    assert err == "error: search budget exceeded (budget = 5)\n"


def test_sn_of_a_large_n_stops_before_its_search_is_built(capsys):
    start = time.perf_counter()
    code, text = run(["sn", "100"])
    err = capsys.readouterr().err
    assert time.perf_counter() - start < 5
    assert code == 3 and text == ""
    assert err == \
        f"error: search budget exceeded (budget = {relations.SN_BUDGET})\n"


def test_an_input_too_large_to_validate_stops_before_its_check(tmp_path,
                                                               capsys):
    # the 256-element Boolean algebra has 256^3 = 16.8 million triples to
    # validate, past search.BUDGET; the 64-element one has 262 144
    big = write_json(tmp_path, "b256.json",
                     power(chain_algebra(1), 8).to_json())
    start = time.perf_counter()
    code, text = run(["skeleton", "--algebra", big])
    err = capsys.readouterr().err
    assert time.perf_counter() - start < 5
    assert code == 3 and text == ""
    assert err.startswith("error: search budget exceeded")
    assert err.count("\n") == 1
    small = write_json(tmp_path, "b64.json",
                       power(chain_algebra(1), 6).to_json())
    assert run(["skeleton", "--algebra", small])[0] == 0


def test_power_too_large_to_build_stops_before_its_tables(tmp_path,
                                                         capsys):
    # over the 32-element Boolean lattice, power 4 has 5^5 = 3125
    # elements, about 39 million table cells; power 3 builds 1024
    path = write_json(tmp_path, "b32.json",
                      power(chain_algebra(1), 5).to_json())
    start = time.perf_counter()
    code, text = run(["power", "4", "--lattice", path])
    err = capsys.readouterr().err
    assert time.perf_counter() - start < 5
    assert code == 3 and text == ""
    assert err.startswith("error: search budget exceeded")
    assert err.count("\n") == 1


def test_internal_consistency_error_is_exit_2(tmp_path, monkeypatch, capsys):
    def fail(algebra, n):
        raise InternalConsistencyError("evaluation map lost a point")

    monkeypatch.setattr(cli, "evaluation_e", fail)
    path = write_json(tmp_path, "pl2.json", chain_algebra(2).to_json())
    code, text = run(["verify-duality", "2", "--algebra", path])
    assert code == 2 and text == ""
    assert capsys.readouterr().err == \
        "error: evaluation map lost a point\n"


def test_membership_of_a_large_discrete_space_ends_quickly(tmp_path):
    # 2^24 up-sets: axiom (c) must not list them
    x = StructSpace(2, 24, {(2,): frozenset(),
                            (1,): frozenset((p, p) for p in range(24))})
    path = write_json(tmp_path, "x.json", x.to_json())
    start = time.perf_counter()
    code, text = run(["membership", "2", "--space", path])
    assert time.perf_counter() - start < 5
    data = json.loads(text)
    assert code == 0 and data["member"]
    assert data["x2_axioms"] == {"a": True, "b": True, "c": True}


def test_export(tmp_path):
    x = StructSpace(2, 2, {(2,): frozenset({(0, 1)}),
                           (1,): frozenset({(0, 0), (0, 1), (1, 1)})})
    path = write_json(tmp_path, "x.json", x.to_json())
    code, text = run(["export", "2", "--space", path])
    assert code == 0 and text.startswith("digraph")


SEPARATION_OUT = """\
{
  "member": false,
  "witness": [
    "separation",
    0,
    1
  ],
  "x2_axioms": {
    "a": true,
    "b": false,
    "c": false
  }
}
"""

RELATION_OUT = """\
{
  "member": false,
  "witness": [
    "relation",
    [
      1
    ],
    [
      0,
      0
    ]
  ],
  "x2_axioms": {
    "a": true,
    "b": false,
    "c": false
  }
}
"""

EXPORT_OUT = """\
digraph X {
  rankdir=BT;
  p0 [label="0"];
  p1 [label="1"];
  p2 [label="2"];
  p0 -> p1;
  p1 -> p2;
  p0 -> p2 [style=dashed, label="[2/3,1]"];
  p0 -> p2 [style=dashed, label="[1,1]"];
}
"""


@pytest.mark.parametrize("argv, payload, code, expected", [
    (["membership", "2"],
     {"n": 2, "size": 2, "relations": {
         "[1]": [], "[1/2]": [[0, 0], [0, 1], [1, 0], [1, 1]]}},
     1, SEPARATION_OUT),
    (["membership", "2"],
     {"n": 2, "size": 2, "relations": {"[1]": [], "[1/2]": []}},
     1, RELATION_OUT),
    (["export", "3"],
     {"n": 3, "size": 3, "relations": {
         "[1,1]": [[0, 2]], "[2/3,1]": [[0, 2]],
         "[1/3,2/3]": [[0, 0], [0, 1], [0, 2], [1, 1], [1, 2], [2, 2]]}},
     0, EXPORT_OUT),
], ids=["separation-witness", "relation-witness", "export-dashed-labels"])
def test_golden_output(tmp_path, argv, payload, code, expected):
    """The exact stdout of the witness and DOT writers."""
    path = write_json(tmp_path, "x.json", payload)
    assert run(argv + ["--space", path]) == (code, expected)


def test_malformed_json_reports_position(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"size": 3,\n  "oops"\n}')
    code, _ = run(["verify-duality", "2", "--algebra", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "line 3" in err and "column" in err


@pytest.mark.parametrize("verb, flag, name, content, message", [
    ("verify-duality", "--algebra", "absent.json", None, "no such file: {}"),
    ("verify-duality", "--algebra", "", None,
     "cannot read {}: Is a directory"),
    ("membership", "--space", "", None, "cannot read {}: Is a directory"),
    ("membership", "--space", "binary.json", b'{"n": 2, "size": \xd0\xff}',
     "cannot read {}: not UTF-8 text"),
], ids=["missing-file", "directory", "directory-as-space", "binary-file"])
def test_missing_file_is_an_input_error(tmp_path, capsys, verb, flag, name,
                                        content, message):
    path = str(tmp_path / name) if name else str(tmp_path)
    if content is not None:
        (tmp_path / name).write_bytes(content)
    code, text = run([verb, "2", flag, path])
    assert code == 2 and text == ""
    assert capsys.readouterr().err == f"error: {message.format(path)}\n"


SPACE_N2 = StructSpace(2, 1, {(2,): frozenset(),
                             (1,): frozenset({(0, 0)})}).to_json()
ALGEBRA_PL2 = chain_algebra(2).to_json()


@pytest.mark.parametrize("verb, n, flag, payload, message", [
    ("membership", "2", "--space", {**SPACE_N2, "relations": []}, ""),
    ("membership", "2", "--space", {**SPACE_N2, "relations": 5}, ""),
    ("membership", "2", "--space",
     {**SPACE_N2, "relations": {"[1]": [[0]], "[1/2]": []}}, ""),
    ("membership", "2", "--space", [SPACE_N2], ""),
    ("membership", "2", "--space",
     {key: v for key, v in SPACE_N2.items() if key != "size"},
     "a space must have the key 'size'"),
    ("membership", "2", "--space", {**SPACE_N2, "size": -1},
     "size must be >= 0, got -1"),
    ("membership", "2", "--space", {**SPACE_N2, "size": 2.7},
     "size must be an integer, got 2.7"),
    ("verify-duality", "2", "--algebra",
     {**ALGEBRA_PL2, "meet": [[False, 0, 0], [0, 1, 1], [0, 1, 2]]},
     "an operation table must be a list of rows of integers"),
    ("verify-duality", "2", "--algebra", {**ALGEBRA_PL2, "meet": 5}, ""),
    ("verify-duality", "2", "--algebra", [ALGEBRA_PL2], ""),
    ("verify-duality", "2", "--algebra", SPACE_N2,
     "an algebra must have the key 'meet'"),
    ("export", "3", "--space", SPACE_N2, ""),
    ("classify-ac-ec", "2", "--algebra", chain_algebra(3).to_json(), ""),
    ("sn", "0", None, None, "n must be >= 1"),
], ids=["relations-list", "relations-number", "one-element-pair",
        "space-array", "space-without-size", "space-negative-size",
        "space-fractional-size", "boolean-table-entry", "meet-number",
        "algebra-array", "space-as-algebra", "export-wrong-n",
        "classify-non-member", "sn-0"])
def test_bad_input_is_an_input_error(tmp_path, capsys, verb, n, flag,
                                     payload, message):
    argv = [verb, n]
    if flag:
        argv += [flag, write_json(tmp_path, "in.json", payload)]
    code, text = run(argv)
    err = capsys.readouterr().err
    assert code == 2 and text == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_json_roundtrip_through_the_cli(tmp_path):
    a = power(chain_algebra(2), 2)
    path = write_json(tmp_path, "a.json", a.to_json())
    code, text = run(["skeleton", "--algebra", path])
    data = json.loads(text)
    del data["inclusion"]
    from pmvdual.algebra import FinAlgebra
    FinAlgebra.from_json(data)    # parses back cleanly
    assert code == 0
