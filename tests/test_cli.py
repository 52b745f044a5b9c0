"""End-to-end tests for the command-line front end."""

from __future__ import annotations

import json

import pytest

from abdukit.abduction import AbductiveProgram, Observation, explanations
from abdukit.cli import main
from abdukit.core import Program
from abdukit.parser import parse, parse_rule
from abdukit.updates import _apply_delta, theory_update, view_insert
from abdukit.core import Literal, Atom, const


TRANS = """p :- b.
q :- a, not b.
a.
#abducible a.
#abducible b.
"""

BIRDS = """flies(X) :- bird(X), not ab(X).
ab(X) :- broken_wing(X).
bird(tweety).
bird(opus).
broken_wing(tweety).
#variable broken_wing(X).
"""

MANAGER = """employee(john, 35).
manager(john).
:- employee(X, Y), manager(X), not talented(X), Y < 40.
#variable manager(X).
#variable talented(X).
"""

NIXON = """pacifist :- quaker.
-pacifist :- republican.
quaker.
republican.
"""


# the input files of these tests, by short name; benchmarks/dump_engine.py
# runs every command over them too
FIXTURES = {
    "trans": TRANS,
    "birds": BIRDS,
    "birds_abducible": BIRDS.replace("#variable", "#abducible"),
    "manager": MANAGER,
    "nixon": NIXON,
    "tv1": "sleep :- not tv_on.\nwatch_tv :- tv_on.\ntv_on.\n",
    "tv2": "power_failure.\n:- power_failure, tv_on.\n",
    "empty": "",
    "chain": "q(a).\np(X) :- q(X).\n",
    "disj": "p; q :- a.\n-q :- not b.\nb.\n#abducible a.\n#abducible b.\n",
    # inserting g adds p(b), whose constant only the change brings
    "fresh": (
        "r(X) :- p(X).\np(a).\ng :- r(X), not r(a).\n"
        "#variable r(X) :- p(X).\n#variable p(b).\n"
    ),
}


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in FIXTURES.items():
        path = tmp_path / ("%s.edp" % name)
        path.write_text(text, encoding="utf-8")
        paths[name] = str(path)
    return paths


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# answersets


def test_answersets_consistent(files, capsys):
    code, out, _ = run(capsys, ["answersets", files["trans"]])
    assert code == 0
    assert out == "{a, q}\n"


def test_answersets_contradictory(files, capsys):
    code, out, _ = run(capsys, ["answersets", files["nixon"]])
    assert code == 1
    assert out == "L_P\n"


def test_answersets_empty_program(files, capsys):
    code, out, _ = run(capsys, ["answersets", files["empty"]])
    assert code == 0
    assert out == "{}\n"


def test_answersets_json(files, capsys):
    code, out, _ = run(capsys, ["--json", "answersets", files["trans"]])
    assert code == 0
    doc = json.loads(out)
    assert doc == {"answer_sets": [["a", "q"]], "consistent": True, "contradictory": False}


def test_answersets_non_ground(files, capsys):
    code, out, _ = run(capsys, ["answersets", files["chain"]])
    assert code == 0
    assert out == "{p(a), q(a)}\n"
    code, out, _ = run(capsys, ["--json", "answersets", files["chain"]])
    assert code == 0
    doc = json.loads(out)
    assert doc == {"answer_sets": [["p(a)", "q(a)"]], "consistent": True, "contradictory": False}


# ---------------------------------------------------------------------------
# explain


def test_explain_positive(files, capsys):
    code, out, _ = run(capsys, ["explain", files["trans"], "--obs", "p"])
    assert code == 0
    assert out == "% solution 1\n+b.\n"


def test_explain_negative(files, capsys):
    code, out, _ = run(capsys, ["explain", files["trans"], "--obs", "q", "--neg"])
    assert code == 0
    assert out == "% solution 1\n-a.\n% solution 2\n+b.\n"


def test_explain_skeptical_all(files, capsys):
    code, out, _ = run(
        capsys, ["explain", files["disj"], "--obs", "p", "--mode", "skeptical"]
    )
    assert code == 0
    assert out == "% solution 1\n+a. -b.\n".replace("+a. -b.", "+a.\n-b.")
    code, out, _ = run(
        capsys, ["explain", files["disj"], "--obs", "p", "--mode", "credulous", "--all"]
    )
    assert code == 0
    assert "% solution 2" in out


def test_explain_trace_shows_intermediate_programs(files, capsys):
    code, out, _ = run(capsys, ["explain", files["trans"], "--obs", "p", "--trace"])
    assert code == 0
    assert "% normal form:" in out
    assert "% update program:" in out
    assert "__not0_a :- not a." in out
    assert out.endswith("% solution 1\n+b.\n")


def test_explain_trace_grounds_over_the_observation_constants(tmp_path, capsys):
    # b occurs only in the observation; the solve grounds over it too
    path = tmp_path / "new_constant.edp"
    path.write_text("p(X) :- q(X).\nq(a).\n#abducible q(X).\n", encoding="utf-8")
    code, out, _ = run(capsys, ["explain", str(path), "--obs", "p(b)", "--trace"])
    assert code == 0
    assert "p(b) :- q(b)." in out
    assert "#abducible q(b)." in out
    assert "__add0_q(b) :- q(b)." in out


def test_explain_abducible_observation_is_an_error(files, capsys):
    code, out, err = run(capsys, ["explain", files["trans"], "--obs", "a"])
    assert code == 2
    assert "abducible" in err


def test_explain_unexplainable_goal(files, capsys):
    code, out, _ = run(capsys, ["explain", files["trans"], "--obs=-p"])
    assert code == 1
    assert out == "no solutions.\n"


# ---------------------------------------------------------------------------
# view updates and integrity


def test_view_insert_text(files, capsys):
    code, out, _ = run(capsys, ["view-insert", files["birds"], "--goal", "flies(tweety)"])
    assert code == 0
    assert out.startswith("% solution 1\n-broken_wing(tweety).\n% program:\n")
    assert out.count("% solution") == 1


def test_view_delete_text(files, capsys):
    code, out, _ = run(capsys, ["view-delete", files["birds"], "--goal", "flies(opus)"])
    assert code == 0
    assert "+broken_wing(opus)." in out
    assert out.count("% solution") == 1


def test_view_commands_require_variable_part(files, capsys):
    code, _, err = run(capsys, ["view-insert", files["trans"], "--goal", "p"])
    assert code == 2
    assert "#variable" in err


def test_view_unknown_goal_is_no_solution(files, capsys):
    code, out, err = run(capsys, ["view-insert", files["birds"], "--goal", "swims(opus)"])
    assert code == 1
    assert out == "no solutions.\n"
    assert "swims/1" in err


def test_maintain_two_solutions(files, capsys):
    code, out, _ = run(capsys, ["maintain", files["manager"]])
    assert code == 0
    assert out.count("% solution") == 2
    assert "-manager(john)." in out
    assert "+talented(john)." in out


# ---------------------------------------------------------------------------
# theory and rule updates


def test_update_tv(files, capsys):
    code, out, _ = run(capsys, ["update", files["tv1"], files["tv2"]])
    assert code == 0
    assert out.count("% solution") == 1
    assert "-tv_on." in out
    assert "power_failure." in out


def test_update_with_inconsistent_new_rules(files, tmp_path, capsys):
    bad = tmp_path / "bad.edp"
    bad.write_text("r.\n-r.\n", encoding="utf-8")
    code, out, err = run(capsys, ["--json", "update", files["tv1"], str(bad)])
    assert code == 1
    assert json.loads(out) == {"solutions": []}
    assert "inconsistent" in err


def test_insert_and_delete_rule(files, tmp_path, capsys):
    pq = tmp_path / "pq.edp"
    pq.write_text("p :- q.\nq.\n", encoding="utf-8")
    code, out, _ = run(capsys, ["insert-rule", str(pq), "--rule=-p."])
    assert code == 0
    assert out.count("% solution") == 2
    code, out, _ = run(capsys, ["delete-rule", str(pq), "--rule", "q."])
    assert code == 0
    assert out.count("% solution") == 1
    assert "-q." in out
    code, _, err = run(capsys, ["delete-rule", str(pq), "--rule", "r."])
    assert code == 2
    assert "not in the program" in err


# ---------------------------------------------------------------------------
# repair


def test_repair_default_scope(files, capsys):
    code, out, _ = run(capsys, ["repair", files["nixon"]])
    assert code == 0
    assert out.count("% solution") == 4


def test_repair_fact_universe(files, tmp_path, capsys):
    path = tmp_path / "tiny.edp"
    path.write_text("-p.\n:- not p.\n", encoding="utf-8")
    code, out, _ = run(capsys, ["repair", str(path), "--scope", "fact-universe"])
    assert code == 0
    assert "+p." in out
    assert "--p." in out
    code, out, _ = run(capsys, ["repair", str(path)])
    assert code == 0
    assert "-:- not p." in out


def test_repair_fact_universe_keeps_a_consistent_disjunctive_fact(tmp_path, capsys):
    # a and b head the fact a ; b., which no hypothesis derives or removes
    path = tmp_path / "either.edp"
    path.write_text("a ; b.\n", encoding="utf-8")
    code, out, _ = run(capsys, ["repair", str(path), "--scope", "fact-universe"])
    assert code == 0
    assert out == "% solution 1\n(no change)\n% program:\na ; b.\n"


def test_repair_manager_at_the_default_width(files, capsys):
    # only the constraint instances grounding keeps are named: 16 literals,
    # within the default max_universe of 18
    code, out, _ = run(capsys, ["repair", files["manager"]])
    assert code == 0
    assert out.count("% solution") == 3
    assert "-:- employee(john,35), manager(john), not talented(john)." in out


# ---------------------------------------------------------------------------
# transform


def test_transform_normal_form(files, tmp_path, capsys):
    path = tmp_path / "named.edp"
    path.write_text(
        "flies(X) :- bird(X).\nbird(tweety).\n#abducible flies(X) :- bird(X).\n",
        encoding="utf-8",
    )
    code, out, _ = run(capsys, ["transform", str(path), "normal-form"])
    assert code == 0
    # the normal form is ground: the present instance keeps its name fact
    assert out == (
        "__n1.\nbird(tweety).\nflies(tweety) :- __n1, bird(tweety).\n#abducible __n1.\n"
    )


def test_transform_update_program(files, capsys):
    code, out, _ = run(capsys, ["transform", files["trans"], "update-program"])
    assert code == 0
    assert "a :- not __not0_a." in out
    assert "__add0_b :- b." in out


# ---------------------------------------------------------------------------
# machine mode


def test_json_round_trip_view(files, capsys):
    code, out, _ = run(
        capsys, ["--json", "view-insert", files["birds"], "--goal", "flies(tweety)"]
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["solutions"]) == 1
    sol = doc["solutions"][0]
    assert sol["add"] == []
    assert sol["remove"] == ["broken_wing(tweety)."]
    unit = parse(BIRDS)
    expected = view_insert(
        unit.program, unit.variable_rules, Literal(Atom("flies", (const("tweety"),)))
    )[0].updated_program
    rebuilt = Program([parse_rule(s) for s in sol["program"]])
    assert rebuilt == expected


def test_json_round_trip_update(files, capsys):
    code, out, _ = run(capsys, ["--json", "update", files["tv1"], files["tv2"]])
    assert code == 0
    doc = json.loads(out)
    p = parse("sleep :- not tv_on.\nwatch_tv :- tv_on.\ntv_on.").program
    q = parse("power_failure.\n:- power_failure, tv_on.").program
    expected = theory_update(p, q)
    assert len(doc["solutions"]) == len(expected)
    for got, sol in zip(doc["solutions"], expected):
        rebuilt = Program([parse_rule(s) for s in got["program"]])
        assert rebuilt == sol.updated_program
        assert got["remove"] == [str(r) for r in sorted(sol.delta.remove, key=lambda r: r.key())]


def test_json_explain_round_trip(files, capsys):
    code, out, _ = run(capsys, ["--json", "explain", files["trans"], "--obs", "p"])
    assert code == 0
    doc = json.loads(out)
    (sol,) = doc["solutions"]
    assert sol["add"] == ["b."]
    rebuilt = Program([parse_rule(s) for s in sol["program"]])
    assert rebuilt == parse("p :- b.\nq :- a, not b.\na.\nb.").program


def test_json_explain_prints_the_pattern_level_program(files, capsys):
    code, out, _ = run(
        capsys, ["--json", "explain", files["birds_abducible"], "--obs", "flies(tweety)"]
    )
    assert code == 0
    unit = parse(BIRDS.replace("#variable", "#abducible"))
    goal = Literal(Atom("flies", (const("tweety"),)))
    exps = explanations(
        AbductiveProgram(unit.program, unit.abducibles), Observation.positive(goal)
    )
    doc = json.loads(out)
    assert len(doc["solutions"]) == len(exps) == 1
    for sol, e in zip(doc["solutions"], exps):
        expected = _apply_delta(unit.program, e)
        assert sol["program"] == [str(r) for r in expected.sorted_rules()]
        assert Program([parse_rule(s) for s in sol["program"]]) == expected
    assert "flies(V1) :- bird(V1), not ab(V1)." in doc["solutions"][0]["program"]


# ---------------------------------------------------------------------------
# determinism and error handling


def test_output_is_byte_identical_across_runs(files, capsys):
    seen = {}
    for argv in [
        ["--json", "update", files["tv1"], files["tv2"]],
        ["maintain", files["manager"]],
        ["repair", files["nixon"]],
        ["explain", files["trans"], "--obs", "q", "--neg"],
    ]:
        first = run(capsys, argv)
        second = run(capsys, argv)
        assert first == second
        seen[tuple(argv)] = first


def test_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.edp"
    bad.write_text("p :- .\n", encoding="utf-8")
    code, _, err = run(capsys, ["answersets", str(bad)])
    assert code == 2
    assert "parse error" in err


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, ["answersets", "/nonexistent/nowhere.edp"])
    assert code == 2
    assert "error" in err


def test_non_ground_goal_exits_2(files, capsys):
    code, _, err = run(capsys, ["view-insert", files["birds"], "--goal", "flies(X)"])
    assert code == 2
    assert "ground" in err


def test_usage_error_exits_2(files, capsys):
    for argv, err in (
        (["explain", files["trans"]], ""),
        (["--max-universe", "0", "answersets", files["trans"]], ""),
        (["--max-ground-rules", "-1", "answersets", files["trans"]], ""),
        (["--encoding", "naf-pair", "answersets", files["trans"]], ""),
        (["explain", files["trans"], "--obs", "q(X)"], "expected a ground literal, got q(X)\n"),
        (
            ["explain", files["trans"], "--obs", "p(X) :- q(X)"],
            "expected a single literal, got p(X) :- q(X)\n",
        ),
    ):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        assert err in capsys.readouterr().err
