"""Program update services built on extended abduction.

Four update problems reduce to explanation finding over a suitable
abductive program:

* view updates — insert or delete a ground literal by changing only the
  designated variable part of the program;
* integrity maintenance — restore consistency by changing the variable
  part, keeping the integrity constraints fixed;
* theory updates — combine a program with new rules, removing a minimal
  set of old rules so the result is consistent (rule insertion and
  deletion are special cases);
* inconsistency removal — theory update by nothing: drop a minimal set
  of rules (or add facts, under the fact-universe scope) so the program
  becomes consistent.

Each service checks its inputs and makes one abductive call through
_solve: the minimal explanations of a positive observation, or the
anti-explanations of a negative or bot one, with the part that may
change as the abducibles.  Rule deletion makes its call through
inconsistency removal on the ground rest of the program.  Each solution
carries the updated program together with the change pair that produced
it, in the engine's order.  A companion construction packs every
theory-update solution into one program whose answer sets, maximal on
the marker atoms, enumerate all updated programs at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .abduction import (
    CREDULOUS,
    POSITIVE,
    SKEPTICAL,
    AbductiveProgram,
    Explanation,
    Observation,
    _choice_rules,
    _ground_heads,
    _undominated_sets,
    anti_explanations,
    explanations,
)
from .config import DEFAULT_CONFIG, RunConfig
from .core import (
    AbdukitError,
    Atom,
    Literal,
    NafLiteral,
    Program,
    Rule,
    _ground_pair,
    canonical_form,
    fact,
    ground,
    literal_universe,
    program_diff,
    program_union,
    var,
)
from .solver import AnswerSetResult, answer_sets, consistent

VIEW_INSERT = "view-insert"
VIEW_DELETE = "view-delete"
INTEGRITY = "integrity"
THEORY = "theory"
RULE_INSERT = "rule-insert"
RULE_DELETE = "rule-delete"
INCONSISTENCY_REMOVAL = "inconsistency-removal"

ALL_RULES = "all-rules"
FACT_UNIVERSE = "fact-universe"

_GAMMA = "__r%d"


class NoSolution(AbdukitError):
    """The update cannot succeed for a structural reason worth reporting."""


class ConstraintInVariablePart(AbdukitError):
    """Integrity constraints must belong to the fixed part of the program."""


class RuleAlreadyPresent(AbdukitError):
    """insert_rule got a rule the program already contains."""


class RuleNotPresent(AbdukitError):
    """delete_rule got a rule the program does not contain."""


class ScopeNotSubset(AbdukitError):
    """A subset scope for inconsistency removal must lie inside the program."""


@dataclass(frozen=True)
class UpdateSolution:
    """One way to accomplish an update: the resulting program and how the
    original was changed to reach it."""

    updated_program: Program
    delta: Explanation
    kind: str


@dataclass(frozen=True)
class MultiSolutionProgram:
    """A single program whose answer sets range over all theory-update
    solutions; the marker atoms record which original rules survive."""

    pi: Program
    delta_atoms: frozenset[Atom]


def _ordered_vars(rule: Rule) -> list[str]:
    return sorted(rule.variables(), key=lambda n: (len(n), n))


def _coerce(rules: Program | Iterable[Rule]) -> Program:
    return rules if isinstance(rules, Program) else Program(rules)


def _apply_delta(p: Program, delta: Explanation, config: RunConfig | None = None) -> Program:
    """(P \\ F) u E, staying at the pattern level when F consists of exact
    member rules.  Otherwise P is grounded once over the constants of P, F
    and E, so instances over a constant only E brings are kept, and F is
    grounded too, dropping the true builtins its instances still carry."""
    if not delta.add and not delta.remove:
        return p
    if all(r in p.rules for r in delta.remove):
        return Program((p.rules - delta.remove) | delta.add)
    gp = ground(p, Program(delta.add | delta.remove).constants(), config)
    gf = ground(Program(delta.remove), config=config)
    return Program((gp.rules - gf.rules) | delta.add)


def _solve(
    program: Program,
    hypotheses: Program,
    obs: Observation,
    mode: str,
    kind: str,
    config: RunConfig | None,
) -> tuple[UpdateSolution, ...]:
    """The one abductive call behind every update service: the minimal
    explanations of a positive observation, or anti-explanations of a
    negative or bot one, over (program, hypotheses), each applied to
    program in the engine's order."""
    ap = AbductiveProgram(program, hypotheses)
    find = explanations if obs.kind == POSITIVE else anti_explanations
    return tuple(
        UpdateSolution(_apply_delta(program, e, config), e, kind)
        for e in find(ap, obs, mode, True, config)
    )


def _check_goal_known(p: Program, v: Program, goal: Literal) -> None:
    known = p.predicates() | v.predicates()
    if (goal.atom.predicate, goal.atom.arity) not in known:
        raise NoSolution(
            "goal %s mentions predicate %s/%d, which occurs nowhere in the program"
            % (goal, goal.atom.predicate, goal.atom.arity)
        )


# ---------------------------------------------------------------------------
# view updates


def view_insert(
    p: Program | Iterable[Rule],
    v: Program | Iterable[Rule],
    goal: Literal,
    config: RunConfig | None = None,
) -> tuple[UpdateSolution, ...]:
    """Make the ground literal goal hold in every answer set by changing
    only the variable part v.  One solution per minimal skeptical
    explanation; the empty tuple means the insertion cannot be done."""
    p, v = _coerce(p), _coerce(v)
    _check_goal_known(p, v, goal)
    return _solve(p, v, Observation.positive(goal), SKEPTICAL, VIEW_INSERT, config)


def view_delete(
    p: Program | Iterable[Rule],
    v: Program | Iterable[Rule],
    goal: Literal,
    config: RunConfig | None = None,
) -> tuple[UpdateSolution, ...]:
    """Make the ground literal goal fail in some answer set by changing
    only the variable part v.  One solution per minimal credulous
    anti-explanation; the empty tuple means the deletion cannot be done."""
    p, v = _coerce(p), _coerce(v)
    _check_goal_known(p, v, goal)
    return _solve(p, v, Observation.negative(goal), CREDULOUS, VIEW_DELETE, config)


# ---------------------------------------------------------------------------
# integrity maintenance


def maintain_integrity(
    p: Program | Iterable[Rule],
    v: Program | Iterable[Rule],
    config: RunConfig | None = None,
) -> tuple[UpdateSolution, ...]:
    """Restore consistency by changing only the variable part v.  The
    integrity constraints themselves must sit in the fixed part.  A
    consistent program yields the single no-change solution."""
    p, v = _coerce(p), _coerce(v)
    if any(not r.head for r in v):
        raise ConstraintInVariablePart(
            "integrity constraints must stay in the fixed part of the program"
        )
    return _solve(p, v, Observation.bot(), CREDULOUS, INTEGRITY, config)


# ---------------------------------------------------------------------------
# theory updates and single-rule updates


def _theory_solutions(
    p: Program, q: Program, kind: str, config: RunConfig | None
) -> tuple[UpdateSolution, ...]:
    cfg = config or DEFAULT_CONFIG
    gp, gq = _ground_pair(p, q, cfg)
    if not consistent(gq, cfg):
        raise NoSolution(
            "the new rules are inconsistent on their own, so no combined program can be"
        )
    union = program_union(gp, gq, cfg)
    removable = program_diff(gp, gq, cfg)
    return _solve(union, removable, Observation.bot(), CREDULOUS, kind, cfg)


def theory_update(
    p: Program | Iterable[Rule],
    q: Program | Iterable[Rule],
    config: RunConfig | None = None,
) -> tuple[UpdateSolution, ...]:
    """Update p with the rules q: every solution keeps all of q and a
    maximal consistent portion of p.  Raises NoSolution when q alone is
    inconsistent, the one case where no combination can work."""
    return _theory_solutions(_coerce(p), _coerce(q), THEORY, config)


def insert_rule(
    p: Program | Iterable[Rule], r: Rule, config: RunConfig | None = None
) -> tuple[UpdateSolution, ...]:
    """Add one rule, removing a minimal set of old rules if consistency
    demands it."""
    p = _coerce(p)
    if r in p:
        raise RuleAlreadyPresent("rule already in the program: %s" % r)
    return _theory_solutions(p, Program([r]), RULE_INSERT, config)


def delete_rule(
    p: Program | Iterable[Rule], r: Rule, config: RunConfig | None = None
) -> tuple[UpdateSolution, ...]:
    """Remove one rule, then remove whatever minimal extra set an
    inconsistent remainder forces.

    The remainder is grounded over the program's constants and repaired
    by remove_inconsistency with every one of its rules removable, so the
    results are the maximal consistent subsets of the program without r.
    Each solution's remove set holds r and the rules the repair dropped."""
    cfg = config or DEFAULT_CONFIG
    p = _coerce(p)
    r = canonical_form(r)
    if r not in p:
        raise RuleNotPresent("rule not in the program: %s" % r)
    rest = ground(Program(p.rules - {r}), p.constants(), cfg)
    out = [
        UpdateSolution(
            s.updated_program,
            Explanation(add=(), remove=[r, *s.delta.remove], mode=CREDULOUS, minimal=True),
            RULE_DELETE,
        )
        for s in remove_inconsistency(rest, ALL_RULES, cfg)
    ]
    return tuple(sorted(out, key=lambda s: s.delta.sort_key()))


# ---------------------------------------------------------------------------
# inconsistency removal


def remove_inconsistency(
    p: Program | Iterable[Rule],
    scope: str | Iterable[Rule] = ALL_RULES,
    config: RunConfig | None = None,
) -> tuple[UpdateSolution, ...]:
    """Make the program consistent by a minimal change.

    scope selects the hypothesis space: "all-rules" may drop any rule,
    an explicit rule collection restricts dropping to those rules, and
    "fact-universe" may also introduce new facts over the program's own
    predicates and constants."""
    p = _coerce(p)
    if isinstance(scope, str):
        if scope == ALL_RULES:
            abducibles = p
        elif scope == FACT_UNIVERSE:
            abducibles = Program(fact(l) for l in literal_universe(p))
        else:
            raise ValueError("bad scope %r" % scope)
    else:
        abducibles = _coerce(scope)
        missing = [r for r in abducibles if r not in p]
        if missing:
            raise ScopeNotSubset(
                "scope rules not in the program: %s" % "; ".join(str(r) for r in missing)
            )
    return _solve(p, abducibles, Observation.bot(), CREDULOUS, INCONSISTENCY_REMOVAL, config)


# ---------------------------------------------------------------------------
# all theory-update solutions in one program


def multi_solution_program(
    p: Program | Iterable[Rule],
    q: Program | Iterable[Rule],
    config: RunConfig | None = None,
) -> MultiSolutionProgram:
    """Pack every way of updating p with q into one program: each rule of
    p is guarded by its own marker atom, markers are free choices, and q
    is kept verbatim.  Answer sets maximal on the markers correspond to
    the theory-update solutions."""
    cfg = config or DEFAULT_CONFIG
    p, q = _coerce(p), _coerce(q)
    guarded: list[Rule] = list(q.rules)
    markers: list[Rule] = []
    for i, r in enumerate(sorted(p, key=Rule.key), start=1):
        gamma = Literal(Atom(_GAMMA % i, tuple(var(n) for n in _ordered_vars(r))))
        markers.append(fact(gamma))
        guarded.append(Rule(r.head, set(r.body) | {NafLiteral(gamma, False)}))
        guarded += _choice_rules(gamma)
    constants = p.constants() | q.constants()
    pi = ground(Program(guarded), constants, cfg)
    delta_atoms = frozenset(m.atom for m in _ground_heads(Program(markers), constants, cfg))
    return MultiSolutionProgram(pi, delta_atoms)


def delta_maximal_answer_sets(
    m: MultiSolutionProgram, config: RunConfig | None = None
) -> AnswerSetResult:
    """Consistent answer sets whose marker projection is not strictly
    contained in another's."""
    return _undominated_sets(answer_sets(m.pi, config), m.delta_atoms, maximal=True)
