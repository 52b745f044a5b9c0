"""The two ways a benchmark query is answered, and the answers' common form.

``library`` calls the public entry point the query names, through the
``abdukit`` package attribute so that tracing wrappers see the call.
``oracle`` answers the same query without the update transformation:
abduction and update queries go through ``brute_force_explanations``
over the ground abducible instances, and answer-set reads through
``reference_answer_sets`` when the ground program has at most 16
literals (through the brute-force route otherwise).  Both return
``canonical`` answers, which compare equal exactly when the two routes
agree, including the order of solutions.
"""

from __future__ import annotations

import abdukit
from abdukit import (
    CREDULOUS,
    SKEPTICAL,
    AbductiveProgram,
    Explanation,
    Observation,
    Program,
    UpdateSolution,
    brute_force_explanations,
    canonical_form,
    ground,
    program_diff,
    program_union,
)
from abdukit.solver import reference_answer_sets

from workloads import Query, Slot

_REFERENCE_LITERALS = 16


def resolve(arg, state: dict):
    if not isinstance(arg, Slot):
        return arg
    if arg.name == "kb+a":
        return AbductiveProgram(state["kb"], state["a"])
    return state[arg.name]


def reset(state: dict, q: Query) -> None:
    state["kb"], state["v"], state["a"], state["m"] = q.args


def _observation(kind: str, goal) -> Observation:
    if kind == "positive":
        return Observation.positive(goal)
    if kind == "negative":
        return Observation.negative(goal)
    return Observation.bot()


def library(q: Query, state: dict, config):
    """Answer q through the library; returns the raw result."""
    args = [resolve(a, state) for a in q.args]
    if q.op == "explain":
        ap, kind, goal, mode = args
        return abdukit.explanations(ap, _observation(kind, goal), mode, True, config)
    if q.op == "anti":
        ap, kind, goal, mode = args
        return abdukit.anti_explanations(ap, _observation(kind, goal), mode, True, config)
    return getattr(abdukit, q.op)(*args, config)


def canonical(result):
    """JSON form of a result: booleans stay, solutions become lists."""
    if isinstance(result, bool):
        return result
    out = []
    for item in result:
        delta = item.delta if isinstance(item, UpdateSolution) else item
        row = [sorted(str(r) for r in delta.add), sorted(str(r) for r in delta.remove)]
        if isinstance(item, UpdateSolution):
            row.append(str(item.updated_program))
        out.append(row)
    return out


def next_program(result):
    """Program a write leaves behind: its first solution's, if any."""
    return result[0].updated_program if result else None


# ---------------------------------------------------------------------------
# the oracle route


def oracle(q: Query, state: dict, config):
    """Answer q without the update transformation.

    Returns (canonical answer, program of the first solution or None).
    """
    args = [resolve(a, state) for a in q.args]
    op = q.op
    if op in ("explain", "anti"):
        ap, kind, goal, mode = args
        exps = _brute(ap, _observation(kind, goal), mode, config)
        return canonical(exps), None
    if op in ("consistent", "entails"):
        return _answer_set_read(op, args, config), None
    if op == "view_insert":
        p, v, goal = args
        exps = _brute(AbductiveProgram(p, v), Observation.positive(goal), SKEPTICAL, config)
        return _solutions(p, exps)
    if op == "view_delete":
        p, v, goal = args
        exps = _brute(AbductiveProgram(p, v), Observation.negative(goal), CREDULOUS, config)
        return _solutions(p, exps)
    if op in ("maintain_integrity", "remove_inconsistency"):
        p, scope = args
        return _solutions(p, _brute(AbductiveProgram(p, scope), Observation.bot(), CREDULOUS, config))
    if op in ("theory_update", "insert_rule"):
        p, new = args
        if op == "insert_rule":
            new = Program([new])
        union = program_union(p, new, config)
        removable = program_diff(p, new, config)
        exps = _brute(AbductiveProgram(union, removable), Observation.bot(), CREDULOUS, config)
        return _solutions(union, exps)
    if op == "delete_rule":
        p, rule = args
        rest = Program(p.rules - {canonical_form(rule)})
        exps = _brute(AbductiveProgram(rest, rest), Observation.bot(), CREDULOUS, config)
        out = [(Explanation(remove={rule} | e.remove, minimal=True), _apply(rest, e)) for e in exps]
        out.sort(key=lambda pair: pair[0].sort_key())
        return _canonical_pairs(out)
    raise ValueError("unknown query %r" % op)


def _brute(ap, obs, mode, config):
    return brute_force_explanations(ap, obs, mode, True, config)


def _apply(p: Program, e: Explanation) -> Program:
    return Program((p.rules - e.remove) | e.add)


def _solutions(p: Program, exps):
    return _canonical_pairs([(e, _apply(p, e)) for e in exps])


def _canonical_pairs(pairs):
    rows = [
        [sorted(str(r) for r in e.add), sorted(str(r) for r in e.remove), str(prog)]
        for e, prog in pairs
    ]
    return rows, (pairs[0][1] if pairs else None)


def _answer_set_read(op: str, args, config) -> bool:
    program = args[0]
    g = ground(program, config=config)
    if len(g.literals()) <= _REFERENCE_LITERALS:
        result = reference_answer_sets(g)
        if op == "consistent":
            return result.has_consistent
        return all(s.contains(args[1]) for s in result.sets)
    empty = AbductiveProgram(program, ())
    is_consistent = bool(_brute(empty, Observation.bot(), CREDULOUS, config))
    if op == "consistent":
        return is_consistent
    # with no consistent answer set every literal is entailed vacuously
    return not is_consistent or bool(
        _brute(empty, Observation.positive(args[1]), SKEPTICAL, config)
    )
