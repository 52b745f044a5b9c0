"""Command-line front end.

Commands:

* ``answersets FILE`` — print the answer sets of a program.
* ``explain FILE --obs L`` — explanations (or, with ``--neg``,
  anti-explanations) of a ground literal.
* ``view-insert / view-delete FILE --goal L`` — view updates over the
  ``#variable`` part of the file.
* ``maintain FILE`` — integrity maintenance over the ``#variable`` part.
* ``update FILE1 FILE2`` — theory update of the first program by the second.
* ``insert-rule / delete-rule FILE --rule "..."`` — single-rule updates.
* ``repair FILE [--scope ...]`` — inconsistency removal.
* ``transform FILE {normal-form,update-program}`` — print an intermediate
  program.

Exit codes: 0 when solutions exist (or the program is consistent), 1 when
there is no solution (or the program is inconsistent), 2 on usage, parse,
or budget errors.  With ``--json`` a single document is printed:
``{"solutions": [{"add": [...], "remove": [...], "program": [...]}]}``;
output is byte-identical across runs on the same input.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .abduction import (
    CREDULOUS,
    SKEPTICAL,
    AbductiveProgram,
    Observation,
    _new_constants,
    _prepare_cached,
    anti_explanations,
    build_update_program,
    explanations,
    normal_form,
)
from .config import DEFAULT_CONFIG, RunConfig
from .core import AbdukitError, Program, ground
from .parser import EdpSyntaxError, SourceUnit, parse, parse_rule
from .solver import answer_sets
from .updates import (
    ALL_RULES,
    FACT_UNIVERSE,
    NoSolution,
    _apply_delta,
    delete_rule,
    insert_rule,
    maintain_integrity,
    remove_inconsistency,
    theory_update,
    view_delete,
    view_insert,
)


def _load(path: str) -> SourceUnit:
    return parse(Path(path).read_text(encoding="utf-8"))


def _literal(text: str):
    rule = parse_rule(text.strip().rstrip(".") + ".")
    if not rule.is_fact or len(rule.head) != 1:
        raise AbdukitError("expected a single literal, got %s" % text)
    (lit,) = rule.head
    if not lit.is_ground:
        raise AbdukitError("expected a ground literal, got %s" % text)
    return lit


def _positive_int(text: str) -> int:
    """The budget options' type: a non-positive value is a usage error."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer, got %r" % text)
    return value


def _config(args: argparse.Namespace) -> RunConfig:
    fields: dict[str, int] = {}
    if args.max_universe is not None:
        fields["max_universe"] = args.max_universe
    if args.max_ground_rules is not None:
        fields["max_ground_rules"] = args.max_ground_rules
    return RunConfig(**fields)


def _print_program_block(program: Program) -> None:
    for rule in program.sorted_rules():
        print(rule)


def _delta_lines(delta) -> list[str]:
    lines = ["+%s" % r for r in sorted(delta.add, key=lambda r: r.key())]
    lines += ["-%s" % r for r in sorted(delta.remove, key=lambda r: r.key())]
    return lines or ["(no change)"]


def _print_json(doc: dict) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def _solution_documents(changes) -> dict:
    """The JSON document of (delta, updated program) pairs."""
    return {
        "solutions": [
            {
                "add": [str(r) for r in sorted(delta.add, key=lambda r: r.key())],
                "remove": [str(r) for r in sorted(delta.remove, key=lambda r: r.key())],
                "program": [str(r) for r in program.sorted_rules()],
            }
            for delta, program in changes
        ]
    }


def _emit_solutions(solutions, as_json: bool) -> int:
    if as_json:
        _print_json(_solution_documents((s.delta, s.updated_program) for s in solutions))
        return 0 if solutions else 1
    if not solutions:
        print("no solutions.")
        return 1
    for i, sol in enumerate(solutions, start=1):
        print("%% solution %d" % i)
        for line in _delta_lines(sol.delta):
            print(line)
        print("% program:")
        _print_program_block(sol.updated_program)
    return 0


# ---------------------------------------------------------------------------
# commands


def _cmd_answersets(args: argparse.Namespace) -> int:
    cfg = _config(args)
    unit = _load(args.file)
    result = answer_sets(ground(unit.program, config=cfg), cfg)
    if args.json:
        doc = {
            "answer_sets": [
                sorted(str(l) for l in s.literals) for s in result.consistent_sets
            ],
            "contradictory": result.contains_contradictory,
            "consistent": result.has_consistent,
        }
        _print_json(doc)
    else:
        for s in result.sets:
            print(s)
    return 0 if result.has_consistent else 1


def _cmd_explain(args: argparse.Namespace) -> int:
    cfg = _config(args)
    unit = _load(args.file)
    ap = AbductiveProgram(unit.program, unit.abducibles)
    goal = _literal(args.obs)
    minimal = not args.all
    if args.trace and not args.json:
        # the observation's new constants ground both programs, as in the solve
        extra = _new_constants(ap, goal)
        nf, _ = normal_form(ap, cfg, extra)
        print("% normal form:")
        _print_program_block(nf.program)
        for rule in nf.abducibles.sorted_rules():
            print("#abducible %s" % rule)
        print("% update program:")
        _print_program_block(_prepare_cached(ap, extra, cfg).rules)
    if args.neg:
        exps = anti_explanations(ap, Observation.negative(goal), args.mode, minimal, cfg)
    else:
        exps = explanations(ap, Observation.positive(goal), args.mode, minimal, cfg)
    if args.json:
        _print_json(_solution_documents((e, _apply_delta(unit.program, e, cfg)) for e in exps))
        return 0 if exps else 1
    if not exps:
        print("no solutions.")
        return 1
    for i, e in enumerate(exps, start=1):
        print("%% solution %d" % i)
        for line in _delta_lines(e):
            print(line)
    return 0


def _require_variable_part(unit: SourceUnit) -> Program:
    if not unit.variable_rules.rules:
        raise AbdukitError(
            "this command needs #variable directives marking the updatable part"
        )
    return unit.variable_rules


def _cmd_service(args: argparse.Namespace) -> int:
    """Every update command: load FILE, call its service, print the solutions."""
    cfg = _config(args)
    unit = _load(args.file)
    return _emit_solutions(args.service(args, unit, cfg), args.json)


_GOAL = (("--goal",), dict(required=True, metavar="L"))
_RULE = (("--rule",), dict(required=True, metavar="RULE"))
_SCOPE = (
    ("--scope",),
    dict(
        choices=[ALL_RULES, FACT_UNIVERSE],
        default=ALL_RULES,
        help="what may change: any rule, or facts over the program's own signature",
    ),
)

# each update command: its name, help, arguments after FILE, and how it
# calls its service on the parsed FILE
_SERVICE_COMMANDS = [
    (
        "view-insert",
        "make a literal hold by changing the #variable part",
        [_GOAL],
        lambda args, unit, cfg: view_insert(
            unit.program, _require_variable_part(unit), _literal(args.goal), cfg
        ),
    ),
    (
        "view-delete",
        "make a literal fail by changing the #variable part",
        [_GOAL],
        lambda args, unit, cfg: view_delete(
            unit.program, _require_variable_part(unit), _literal(args.goal), cfg
        ),
    ),
    (
        "maintain",
        "restore consistency via the #variable part",
        [],
        lambda args, unit, cfg: maintain_integrity(
            unit.program, _require_variable_part(unit), cfg
        ),
    ),
    (
        "update",
        "update the first program by the second",
        [(("file2",), {})],
        lambda args, unit, cfg: theory_update(unit.program, _load(args.file2).program, cfg),
    ),
    (
        "insert-rule",
        "add one rule, dropping others if forced",
        [_RULE],
        lambda args, unit, cfg: insert_rule(unit.program, parse_rule(args.rule), cfg),
    ),
    (
        "delete-rule",
        "remove one rule, dropping others if forced",
        [_RULE],
        lambda args, unit, cfg: delete_rule(unit.program, parse_rule(args.rule), cfg),
    ),
    (
        "repair",
        "make an inconsistent program consistent",
        [_SCOPE],
        lambda args, unit, cfg: remove_inconsistency(unit.program, args.scope, cfg),
    ),
]


def _cmd_transform(args: argparse.Namespace) -> int:
    cfg = _config(args)
    unit = _load(args.file)
    ap = AbductiveProgram(unit.program, unit.abducibles)
    if args.stage == "normal-form":
        nf, _ = normal_form(ap, cfg)
        program, abducibles = nf.program, nf.abducibles
    else:
        up = build_update_program(ap, cfg)
        program, abducibles = up.rules, Program(())
    if args.json:
        doc = {
            "program": [str(r) for r in program.sorted_rules()],
            "abducibles": [str(r) for r in abducibles.sorted_rules()],
        }
        _print_json(doc)
    else:
        _print_program_block(program)
        for rule in abducibles.sorted_rules():
            print("#abducible %s" % rule)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="abdukit",
        description="Extended abduction and program updates for extended disjunctive programs.",
    )
    top.add_argument("--json", action="store_true", help="machine-readable output")
    top.add_argument(
        "--max-universe",
        type=_positive_int,
        default=None,
        metavar="N",
        help="cap on distinct ground literals (default %d)"
        % DEFAULT_CONFIG.max_universe,
    )
    top.add_argument(
        "--max-ground-rules",
        type=_positive_int,
        default=None,
        metavar="N",
        help="cap on ground rule instances (default %d)" % DEFAULT_CONFIG.max_ground_rules,
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("answersets", help="print the answer sets of a program")
    p.add_argument("file")
    p.set_defaults(func=_cmd_answersets)

    p = sub.add_parser("explain", help="explanations or anti-explanations of a literal")
    p.add_argument("file")
    p.add_argument("--obs", required=True, metavar="L", help="ground observation literal")
    p.add_argument("--neg", action="store_true", help="anti-explain instead of explain")
    p.add_argument("--mode", choices=[CREDULOUS, SKEPTICAL], default=CREDULOUS)
    p.add_argument("--all", action="store_true", help="include non-minimal solutions")
    p.add_argument("--trace", action="store_true", help="print intermediate programs")
    p.set_defaults(func=_cmd_explain)

    for name, help_text, arguments, service in _SERVICE_COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file")
        for flags, options in arguments:
            p.add_argument(*flags, **options)
        p.set_defaults(func=_cmd_service, service=service)

    p = sub.add_parser("transform", help="print an intermediate program")
    p.add_argument("file")
    p.add_argument("stage", choices=["normal-form", "update-program"])
    p.set_defaults(func=_cmd_transform)

    return top


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except NoSolution as err:
        print("no solution: %s" % err, file=sys.stderr)
        return _emit_solutions((), args.json)
    except EdpSyntaxError as err:
        print("parse error: %s" % err, file=sys.stderr)
        return 2
    except AbdukitError as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    except OSError as err:
        print("error: %s" % err, file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
