import json
import os
import subprocess
import sys
from pathlib import Path

import svbraid
from svbraid.cli import run
from svbraid.rep import P
from svbraid.suites import SUITE_NAMES


def test_parse_echoes_normal_spelling():
    code, out = run(["parse", "--n", "3", "r1 s2' t1 r2 s2 t2"])
    assert code == 0
    assert out == "r1 s2' t1 r2 s2 t2\n"


def test_parse_json_payload():
    code, out = run(["parse", "--n", "2", "s1 s1'", "--format", "json"])
    assert code == 0
    assert json.loads(out) == {"n": 2, "word": "s1 s1'", "length": 2}


def test_invariants_text_and_json():
    code, out = run(["invariants", "--n", "3", "t1 t2"])
    assert code == 0
    assert out == "theta: [3, 1, 2]\ndegree: 0\nsingularities: 2\n"
    code, out = run(["invariants", "--n", "3", "t1 t2", "--format", "json"])
    assert json.loads(out) == {"theta": [3, 1, 2], "degree": 0, "singularities": 2}


def test_equiv_exit_codes():
    code, out = run(["equiv", "--n", "2", "s1 s1'", "e"])
    assert code == 0 and out.startswith("equivalent")
    code, out = run(["equiv", "--n", "2", "s1", "s1'"])
    assert code == 3 and out.startswith("distinct")
    # same cheap invariants, different diagrams: separated by the burau screen
    code, out = run(["equiv", "--n", "3", "s1 t2", "r1 s1 r1 t2",
                     "--budget", "3000"])
    assert code == 3 and out.startswith("distinct: burau")
    # equivalent by construction, but beyond a 3000-node search
    code, out = run(["equiv", "--n", "4", "s2 s2 t2 s1' s2 s2 t2 s1",
                     "s2 t2 s2 s1' t2 s2 s2 s1", "--budget", "3000"])
    assert code == 4 and out.startswith("unknown")
    code, out = run(["equiv", "--n", "4", "s2 s2 t2 s1' s2 s2 t2 s1",
                     "s2 t2 s2 s1' t2 s2 s2 s1"])
    assert code == 0 and out == "equivalent: 3 moves\n"
    code, out = run(["equiv", "--n", "70", "t69 s69", "s69 t69"])
    assert code == 0 and out == "equivalent: 1 moves\n"


def test_module_entry_point_runs_the_command():
    # python -m svbraid.cli behaves as the svb script
    src = Path(svbraid.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-m", "svbraid.cli", "equiv", "--n", "2",
                           "s1", "s1'"], env=env, capture_output=True, text=True)
    assert done.returncode == 3
    assert done.stdout.startswith("distinct: degree")


def test_equiv_json_trace():
    code, out = run(["equiv", "--n", "2", "t1 s1", "s1 t1", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "equivalent"
    assert payload["moves"] == 1
    assert payload["trace"][0]["label"] == "S3"


def test_equiv_burau_payload_is_one_entry():
    argv = ["equiv", "--n", "3", "s1 t2", "r1 s1 r1 t2"]
    code, out = run(argv)
    assert code == 3
    assert out == f"distinct: burau (1, 1, {P - 2}) != (1, 1, 0)\n"
    code, out = run(argv + ["--format", "json"])
    assert code == 3
    assert json.loads(out) == {"verdict": "distinct", "invariant": "burau",
                               "left": [1, 1, P - 2], "right": [1, 1, 0]}


def test_equiv_json_gives_invariant_values():
    argv = ["equiv", "--n", "3", "s1 t2", "t1 s2"]
    code, out = run(argv)
    assert code == 3
    assert out == ("distinct: pair_invariants {(1, 2): (1, 0), (1, 3): (0, 1)} "
                   "!= {(1, 2): (0, 1), (1, 3): (1, 0)}\n")
    code, out = run(argv + ["--format", "json"])
    assert code == 3
    assert json.loads(out) == {"verdict": "distinct", "invariant": "pair_invariants",
                               "left": [[1, 2, 1, 0], [1, 3, 0, 1]],
                               "right": [[1, 2, 0, 1], [1, 3, 1, 0]]}
    for argv, invariant, left, right in (
            (["--n", "3", "s1", "s2"], "theta", [2, 1, 3], [1, 3, 2]),
            (["--n", "2", "s1", "s1'"], "degree", 1, -1),
            (["--n", "2", "t1", "s1"], "singularity_count", 1, 0)):
        code, out = run(["equiv", *argv, "--format", "json"])
        assert code == 3
        assert json.loads(out) == {"verdict": "distinct", "invariant": invariant,
                                   "left": left, "right": right}


def test_gauss_roundtrip_through_cli():
    code, out = run(["to-gauss", "--n", "3", "s1 t2", "--format", "json"])
    assert code == 0
    diagram = json.loads(out)
    assert diagram == {"n": 3,
                       "arrows": [{"tail": 1, "head": 2, "kind": "+"},
                                  {"tail": 1, "head": 3, "kind": "s"}],
                       "perm": [3, 1, 2]}
    code, out = run(["from-gauss", json.dumps(diagram)])
    assert code == 0
    assert out == "s1 t2\n"
    code, out = run(["to-gauss", "--n", "3", "s1 t2 s2'"])
    assert code == 0
    assert out == ("n: 3\narrow: 1 -> 2 +\narrow: 1 -> 3 s\n"
                   "arrow: 1 -> 3 -\nperm: [2, 1, 3]\n")


def test_from_gauss_bad_json_is_domain_error():
    code, out = run(["from-gauss", "{not json"])
    assert code == 1 and out == ""
    # well-formed JSON with values of the wrong type is a domain error too
    for diagram in ('{"n": 2, "arrows": [{"tail": "1", "head": 2, "kind": "+"}], "perm": [1, 2]}',
                    '{"n": "2", "arrows": [], "perm": [1, 2]}',
                    '{"n": 2, "arrows": [], "perm": [2.0, 1.0]}',
                    '{"n": 2.0, "arrows": [], "perm": [1, 2]}',
                    '{"n": 2, "arrows": [{"tail": 1.5, "head": 2, "kind": "+"}], "perm": [1, 2]}',
                    '{"n": 2, "arrows": [{"tail": true, "head": 2, "kind": "+"}], "perm": [1, 2]}'):
        code, out = run(["from-gauss", diagram])
        assert code == 1 and out == ""


def test_desing_worked_example():
    code, out = run(["desing", "--n", "3", "r1 s2' t1 r2 s2 t2"])
    assert code == 0
    assert out == ("+1 r1 s2' s1 r2 s2 s2\n"
                   "-1 r1 s2' s1 r2 s2 s2'\n"
                   "-1 r1 s2' s1' r2 s2 s2\n"
                   "+1 r1 s2' s1' r2 s2 s2'\n"
                   "spectrum: -2:1 0:2 2:1\n")
    code, out = run(["desing", "--n", "3", "r1 s2' t1 r2 s2 t2",
                     "--format", "json"])
    payload = json.loads(out)
    assert [r["coeff"] for r in payload["terms"]] == [1, -1, -1, 1]
    assert payload["spectrum"] == {"-2": 1, "0": 2, "2": 1}


def test_decompose_and_factor():
    code, out = run(["decompose", "--n", "3", "s1 t2", "--format", "json"])
    assert code == 0
    assert json.loads(out) == {"pure": "X+1,2 Y1,3", "perm": [3, 1, 2]}
    code, out = run(["factor", "--n", "3", "r1 s2' t1 r2 s2 t2",
                     "--format", "json"])
    assert json.loads(out) == {
        "taus": [{"conjugator": "r1 s2'", "index": 1},
                 {"conjugator": "r1 s2' r2 s2", "index": 2}],
        "virtual": "r1 s2' r2 s2"}


def test_genus_json_schema():
    code, out = run(["genus", "--n", "2", "r1", "--format", "json"])
    assert code == 0
    assert json.loads(out) == {"euler": -2, "boundaries": 4, "genus": 0}


def test_relations_listing():
    code, out = run(["relations", "--n", "2"])
    assert code == 0
    assert out.splitlines() == ["R2: s1 s1' == e", "R2: s1' s1 == e",
                                "V3: r1 r1 == e", "S3: t1 s1 == s1 t1"]
    code, out = run(["relations", "--n", "3", "--format", "json"])
    assert len(json.loads(out)) == 13


def test_verify_suite_passes():
    code, out = run(["verify", "relations", "--n", "3"])
    assert code == 0
    assert out.splitlines()[-1] == "relations: 13 passed, 0 failed"
    code, out = run(["verify", "surface", "--n", "3", "--seed", "5",
                     "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["counts"]["failed"] == 0


def test_error_exit_codes():
    code, out = run(["parse", "--n", "2", "s5"])
    assert code == 1 and out == ""
    code, out = run(["parse", "s1"])
    assert code == 2
    code, out = run(["verify", "nonsense", "--n", "3"])
    assert code == 2
    code, out = run(["equiv", "--n", "2", "s1", "s1", "--budget", "0"])
    assert code == 1
    # search limits belong to equiv only
    code, out = run(["verify", "relations", "--n", "3", "--budget", "1"])
    assert code == 2
    code, out = run(["verify", "relations", "--n", "3", "--max-len", "1"])
    assert code == 2


def test_verify_needs_two_strands(capsys):
    # so does the relation listing, with the same message
    for argv in [["verify", name] for name in SUITE_NAMES] + [["relations"]]:
        for n in ("1", "0"):
            code, out = run(argv + ["--n", n])
            assert code == 1 and out == ""
            assert capsys.readouterr().err == f"error: need at least two strands, got {n}\n"


def test_output_is_deterministic():
    argv = ["verify", "degree-lemma", "--n", "4", "--seed", "9",
            "--format", "json"]
    assert run(argv) == run(argv)
