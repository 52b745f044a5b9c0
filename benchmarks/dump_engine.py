"""Print the engine's answers on a seeded corpus, one line per answer.

Usage: python3 benchmarks/dump_engine.py --instances N --seed S

The script imports abdukit from the ``src/`` of its own checkout, so two
checkouts can be compared with one command:

    diff <(python3 A/benchmarks/dump_engine.py --instances 300 --seed 7) \\
         <(python3 B/benchmarks/dump_engine.py --instances 300 --seed 7)

Per instance it prints:

  abduce   explanations / anti_explanations of a corpus abductive program
           for every kind (positive, negative, bot) x mode x minimal
           setting;
  filter   u_minimal_filter on the answer sets of the same program's
           update program;
  rules    the abduce lines of a corpus abductive program whose
           abducibles also hold rules and disjunctive facts, drawn from
           a generator of its own so the other lines keep their bytes;
  nonground
           the abduce lines of a non-ground corpus abductive program
           (patterns, overlapping patterns, builtins, abducible rules),
           also drawn from a generator of its own;
  solve    answer_sets of a corpus program, then its consistent read and
           the entails and credulous_holds reads of every literal it holds,
           their complements and one absent literal;
  update   view_insert, view_delete, maintain_integrity, theory_update,
           insert_rule, delete_rule and remove_inconsistency (both scopes)
           on a corpus program;
  multi    delta_maximal_answer_sets of the multi-solution program of the
           same theory update.

After the instances it prints one line per command-line run:

  cli      abdukit.cli.main, in process, for every command over every
           input file of tests/test_cli.py, in text and --json, and the
           --help of every command; the line holds the command with the
           file's short name, the exit code, stdout and stderr.

An error prints as its class name and message, so budgets and rejected
inputs are compared too.  The output is the same under every
PYTHONHASHSEED.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import shlex
import sys
import tempfile
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from corpus import (
    random_abduction_instance,
    random_ground_program,
    random_nonground_abduction_instance,
    random_rule_abduction_instance,
)
from test_cli import FIXTURES

from abdukit import cli, updates
from abdukit.abduction import (
    BOT,
    CREDULOUS,
    NEGATIVE,
    POSITIVE,
    SKEPTICAL,
    AbductiveProgram,
    Observation,
    anti_explanations,
    build_update_program,
    explanations,
    u_minimal_filter,
)
from abdukit.config import RunConfig
from abdukit.core import AbdukitError, Atom, Literal, Program, fact, ground
from abdukit.parser import parse
from abdukit.solver import answer_sets, consistent, credulous_holds, entails

ABSENT = Literal(Atom("absent"))


def _show(thunk) -> str:
    try:
        return thunk()
    except (AbdukitError, ValueError) as e:
        return "error %s: %s" % (type(e).__name__, e)


def _explained(exps) -> str:
    return " | ".join("%s%s" % (e, " [min]" if e.minimal else "") for e in exps) or "(none)"


def _sets(result) -> str:
    return str(result).replace("\n", " ")


def _rules(p: Program) -> str:
    return " ".join(str(r) for r in p.sorted_rules())


def _solutions(sols) -> str:
    return " | ".join("%s => %s" % (s.delta, _rules(s.updated_program)) for s in sols) or "(none)"


def _abduce(label: str, i: int, ap: AbductiveProgram, goal: Literal, cfg: RunConfig):
    observations = [
        (POSITIVE, Observation.positive(goal), explanations),
        (NEGATIVE, Observation.negative(goal), anti_explanations),
        (BOT, Observation.bot(), anti_explanations),
    ]
    for kind, obs, solve in observations:
        # bot has no skeptical mode
        for mode in (CREDULOUS,) if kind == BOT else (CREDULOUS, SKEPTICAL):
            for minimal in (True, False):
                shown = _show(lambda: _explained(solve(ap, obs, mode, minimal, cfg)))
                yield "%s %d %s %s %s minimal=%s: %s" % (
                    label, i, kind, obs, mode, minimal, shown
                )


def abduce_lines(i: int, rng: random.Random):
    program, abducible_literals, goal = random_abduction_instance(rng)
    ap = AbductiveProgram(program, [fact(l) for l in abducible_literals])
    cfg = RunConfig(max_universe=30)
    yield from _abduce("abduce", i, ap, goal, cfg)

    def u_minimal():
        up = build_update_program(ap, cfg)
        return _sets(u_minimal_filter(answer_sets(up.rules, cfg), up.update_atoms))

    yield "filter %d: %s" % (i, _show(u_minimal))


def rules_lines(i: int, rng: random.Random):
    program, abducibles, goal = random_rule_abduction_instance(rng)
    ap = AbductiveProgram(program, abducibles)
    yield from _abduce("rules", i, ap, goal, RunConfig(max_universe=30))


def nonground_lines(i: int, rng: random.Random):
    program, abducibles, goal = random_nonground_abduction_instance(rng)
    ap = AbductiveProgram(program, abducibles)
    yield from _abduce("nonground", i, ap, goal, RunConfig(max_universe=64))


def solve_lines(i: int, rng: random.Random):
    p = random_ground_program(rng)
    cfg = RunConfig(max_universe=30)
    yield "solve %d answer_sets: %s" % (i, _show(lambda: _sets(answer_sets(p, cfg))))
    yield "solve %d consistent: %s" % (i, _show(lambda: str(consistent(p, cfg))))
    literals = set(p.literals())
    literals |= {l.complement() for l in literals}
    literals.add(ABSENT)
    for lit in sorted(literals, key=Literal.key):
        shown = _show(lambda: "entails=%s credulous=%s" % (
            entails(p, lit, cfg), credulous_holds(p, lit, cfg)
        ))
        yield "solve %d %s: %s" % (i, lit, shown)


def update_lines(i: int, rng: random.Random):
    p = random_ground_program(rng, max_atoms=4, max_rules=5)
    cfg = RunConfig(max_universe=30)
    rules = list(p.sorted_rules())
    facts = [r for r in rules if r.is_fact]
    v = Program(rng.sample(facts, min(2, len(facts))))
    fixed = Program(p.rules - v.rules)
    abducible = {l for r in v.rules for l in r.head}
    goal = rng.choice(sorted(p.literals() - abducible, key=Literal.key) or [ABSENT])
    q = random_ground_program(rng, max_atoms=4, max_rules=2)
    new_rule = next((r for r in q.sorted_rules() if r not in p), None)
    old_rule = rng.choice(rules)
    ops = [
        ("view_insert", lambda: updates.view_insert(fixed, v, goal, cfg)),
        ("view_delete", lambda: updates.view_delete(fixed, v, goal, cfg)),
        ("maintain_integrity", lambda: updates.maintain_integrity(fixed, v, cfg)),
        ("theory_update", lambda: updates.theory_update(p, q, cfg)),
        ("delete_rule", lambda: updates.delete_rule(p, old_rule, cfg)),
        ("remove_inconsistency all-rules", lambda: updates.remove_inconsistency(p, updates.ALL_RULES, cfg)),
        ("remove_inconsistency fact-universe", lambda: updates.remove_inconsistency(p, updates.FACT_UNIVERSE, cfg)),
    ]
    if new_rule is not None:
        ops.append(("insert_rule", lambda: updates.insert_rule(p, new_rule, cfg)))
    for name, op in ops:
        yield "update %d %s: %s" % (i, name, _show(lambda: _solutions(op())))

    def multi():
        m = updates.multi_solution_program(p, q, cfg)
        return _sets(updates.delta_maximal_answer_sets(m, cfg))

    yield "multi %d: %s" % (i, _show(multi))


def _commands(name: str, next_name: str):
    """The argument lists run on one input file.  Its goal is the first
    derived head of its ground program, the rule inserted is the goal's
    complement and the rule deleted is the program's first rule."""
    program = parse(FIXTURES[name]).program
    derived = sorted(
        (l for r in ground(program).rules if r.body for l in r.head), key=Literal.key
    )
    goal = derived[0] if derived else ABSENT
    old_rule = program.sorted_rules()[0] if len(program) else fact(ABSENT)
    obs = ["--obs", str(goal)]
    return [
        ["answersets", name],
        ["explain", name, *obs],
        ["explain", name, *obs, "--mode", "skeptical"],
        ["explain", name, *obs, "--neg"],
        ["explain", name, *obs, "--neg", "--mode", "skeptical"],
        ["explain", name, *obs, "--all"],
        ["explain", name, *obs, "--trace"],
        ["view-insert", name, "--goal", str(goal)],
        ["view-delete", name, "--goal", str(goal)],
        ["maintain", name],
        ["update", name, next_name],
        ["insert-rule", name, "--rule", str(fact(goal.complement()))],
        ["delete-rule", name, "--rule", str(old_rule)],
        ["repair", name],
        ["repair", name, "--scope", updates.FACT_UNIVERSE],
        ["transform", name, "normal-form"],
        ["transform", name, "update-program"],
    ]


def _run_cli(argv: list[str], folder: str) -> str:
    """One in-process run of the command line; input files are named by
    their short name, which stands for their path in folder."""
    paths = [str(Path(folder, "%s.edp" % a)) if a in FIXTURES else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(paths)
        except SystemExit as exc:
            code = exc.code
    shown = [s.getvalue().replace(folder + "/", "") for s in (out, err)]
    return "cli %s: exit=%s out=%s err=%s" % (
        shlex.join(argv), code, json.dumps(shown[0]), json.dumps(shown[1])
    )


def cli_lines():
    names = list(FIXTURES)
    # argparse wraps --help to the terminal width, which COLUMNS overrides
    with tempfile.TemporaryDirectory() as folder, mock.patch.dict(os.environ, COLUMNS="80"):
        for name in names:
            Path(folder, "%s.edp" % name).write_text(FIXTURES[name], encoding="utf-8")
        commands: dict[str, None] = {}
        for name, next_name in zip(names, names[1:] + names[:1]):
            for argv in _commands(name, next_name):
                commands[argv[0]] = None
                yield _run_cli(argv, folder)
                yield _run_cli(["--json", *argv], folder)
        for argv in [[], *([c] for c in commands)]:
            yield _run_cli([*argv, "--help"], folder)


def dump(instances: int, seed: int):
    for i in range(instances):
        rng = random.Random(seed * 1_000_003 + i)
        yield from abduce_lines(i, rng)
        yield from solve_lines(i, rng)
        yield from update_lines(i, rng)
        yield from rules_lines(i, random.Random("rules %d %d" % (seed, i)))
        yield from nonground_lines(i, random.Random("nonground %d %d" % (seed, i)))
    yield from cli_lines()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--instances", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    for line in dump(args.instances, args.seed):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
