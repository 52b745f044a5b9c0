"""Ground and non-ground representation of extended disjunctive programs.

Rules are kept function-free: terms are constant symbols, integers, or
variables.  Programs are identified with their ground instantiations, so
union and difference are defined on ground instances over the combined
constant set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Union

from .config import DEFAULT_CONFIG, RunConfig

CONSTANT = "constant-symbol"
INTEGER = "integer"
VARIABLE = "variable"

RELATIONS = ("<", "<=", ">", ">=", "=", "!=")


class AbdukitError(Exception):
    """Base class for every error this package raises deliberately."""


class NoConstants(AbdukitError):
    """A program with variables has an empty Herbrand universe."""


class GroundingBudgetExceeded(AbdukitError):
    """Grounding would produce more rule instances than the budget allows."""


@dataclass(frozen=True)
class Term:
    kind: str
    name: str

    def __post_init__(self) -> None:
        if self.kind not in (CONSTANT, INTEGER, VARIABLE):
            raise ValueError("bad term kind %r" % self.kind)
        if self.kind == INTEGER:
            int(self.name)  # must parse

    @property
    def value(self) -> int:
        if self.kind != INTEGER:
            raise ValueError("not an integer term: %s" % self)
        return int(self.name)

    @property
    def is_ground(self) -> bool:
        return self.kind != VARIABLE

    def key(self):
        if self.kind == INTEGER:
            return ("i", "", self.value)
        if self.kind == CONSTANT:
            return ("c", self.name, 0)
        return ("v", self.name, 0)

    def __str__(self) -> str:
        return self.name


def const(name: str) -> Term:
    return Term(CONSTANT, name)


def integer(value: int) -> Term:
    return Term(INTEGER, str(value))


def var(name: str) -> Term:
    return Term(VARIABLE, name)


@dataclass(frozen=True)
class Atom:
    predicate: str
    args: tuple[Term, ...] = ()

    @property
    def arity(self) -> int:
        return len(self.args)

    @property
    def is_ground(self) -> bool:
        return all(t.is_ground for t in self.args)

    def variables(self) -> frozenset[str]:
        return frozenset(t.name for t in self.args if t.kind == VARIABLE)

    def substitute(self, binding: Mapping[str, Term]) -> Atom:
        return Atom(
            self.predicate,
            tuple(binding.get(t.name, t) if t.kind == VARIABLE else t for t in self.args),
        )

    def key(self):
        return (self.predicate, len(self.args), tuple(t.key() for t in self.args))

    def __str__(self) -> str:
        if not self.args:
            return self.predicate
        return "%s(%s)" % (self.predicate, ",".join(str(t) for t in self.args))


@dataclass(frozen=True)
class Literal:
    atom: Atom
    positive: bool = True

    @property
    def is_ground(self) -> bool:
        return self.atom.is_ground

    def complement(self) -> Literal:
        return Literal(self.atom, not self.positive)

    def variables(self) -> frozenset[str]:
        return self.atom.variables()

    def substitute(self, binding: Mapping[str, Term]) -> Literal:
        return Literal(self.atom.substitute(binding), self.positive)

    def key(self):
        return (0 if self.positive else 1, self.atom.key())

    def __str__(self) -> str:
        return str(self.atom) if self.positive else "-%s" % self.atom


@dataclass(frozen=True)
class NafLiteral:
    """Body literal, negated as failure when naf is set."""

    literal: Literal
    naf: bool = False

    def variables(self) -> frozenset[str]:
        return self.literal.variables()

    def substitute(self, binding: Mapping[str, Term]) -> NafLiteral:
        return NafLiteral(self.literal.substitute(binding), self.naf)

    def key(self):
        return (0, int(self.naf), self.literal.key(), 0)

    def __str__(self) -> str:
        return "not %s" % self.literal if self.naf else str(self.literal)


@dataclass(frozen=True)
class Builtin:
    """Comparison between two terms, evaluated away during grounding."""

    rel: str
    lhs: Term
    rhs: Term

    def __post_init__(self) -> None:
        if self.rel not in RELATIONS:
            raise ValueError("bad relation %r" % self.rel)

    def variables(self) -> frozenset[str]:
        out = set()
        for t in (self.lhs, self.rhs):
            if t.kind == VARIABLE:
                out.add(t.name)
        return frozenset(out)

    def substitute(self, binding: Mapping[str, Term]) -> Builtin:
        lhs = binding.get(self.lhs.name, self.lhs) if self.lhs.kind == VARIABLE else self.lhs
        rhs = binding.get(self.rhs.name, self.rhs) if self.rhs.kind == VARIABLE else self.rhs
        return Builtin(self.rel, lhs, rhs)

    def holds(self) -> bool:
        """Evaluate on ground terms.

        Order comparisons require two integers; on anything else they are
        false (the instance is discarded).  Equality is structural.
        """
        lhs, rhs = self.lhs, self.rhs
        if not (lhs.is_ground and rhs.is_ground):
            raise ValueError("builtin not ground: %s" % self)
        if self.rel == "=":
            return lhs == rhs
        if self.rel == "!=":
            return lhs != rhs
        if lhs.kind != INTEGER or rhs.kind != INTEGER:
            return False
        a, b = lhs.value, rhs.value
        if self.rel == "<":
            return a < b
        if self.rel == "<=":
            return a <= b
        if self.rel == ">":
            return a > b
        return a >= b

    def key(self):
        return (1, RELATIONS.index(self.rel), self.lhs.key(), self.rhs.key())

    def __str__(self) -> str:
        return "%s %s %s" % (self.lhs, self.rel, self.rhs)


BodyElement = Union[NafLiteral, Builtin]

_MAX_CANON_VARS = 8


@dataclass(frozen=True)
class Rule:
    head: frozenset[Literal] = frozenset()
    body: frozenset[BodyElement] = frozenset()

    def __init__(self, head: Iterable[Literal] = (), body: Iterable[BodyElement] = ()):
        object.__setattr__(self, "head", frozenset(head))
        object.__setattr__(self, "body", frozenset(body))

    def __hash__(self) -> int:
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.head, self.body))
            object.__setattr__(self, "_hash", h)
        return h

    @property
    def is_fact(self) -> bool:
        return bool(self.head) and not self.body

    @property
    def is_constraint(self) -> bool:
        return not self.head

    @property
    def is_ground(self) -> bool:
        return not self.variables()

    def body_literals(self) -> frozenset[NafLiteral]:
        return frozenset(e for e in self.body if isinstance(e, NafLiteral))

    def body_pos(self) -> frozenset[Literal]:
        return frozenset(e.literal for e in self.body if isinstance(e, NafLiteral) and not e.naf)

    def body_naf(self) -> frozenset[Literal]:
        return frozenset(e.literal for e in self.body if isinstance(e, NafLiteral) and e.naf)

    def builtins(self) -> frozenset[Builtin]:
        return frozenset(e for e in self.body if isinstance(e, Builtin))

    @property
    def is_naf_free(self) -> bool:
        return not any(isinstance(e, NafLiteral) and e.naf for e in self.body)

    def literals(self) -> frozenset[Literal]:
        cached = self.__dict__.get("_literals")
        if cached is None:
            out = set(self.head)
            for e in self.body:
                if isinstance(e, NafLiteral):
                    out.add(e.literal)
            cached = frozenset(out)
            object.__setattr__(self, "_literals", cached)
        return cached

    def variables(self) -> frozenset[str]:
        cached = self.__dict__.get("_variables")
        if cached is None:
            out: set[str] = set()
            for lit in self.head:
                out |= lit.variables()
            for e in self.body:
                out |= e.variables()
            cached = frozenset(out)
            object.__setattr__(self, "_variables", cached)
        return cached

    def substitute(self, binding: Mapping[str, Term]) -> Rule:
        return Rule(
            (lit.substitute(binding) for lit in self.head),
            (e.substitute(binding) for e in self.body),
        )

    def key(self):
        cached = self.__dict__.get("_key")
        if cached is None:
            cached = (
                tuple(sorted(l.key() for l in self.head)),
                tuple(sorted(e.key() for e in self.body)),
            )
            object.__setattr__(self, "_key", cached)
        return cached

    def __str__(self) -> str:
        head = " ; ".join(str(l) for l in sorted(self.head, key=Literal.key))
        body = ", ".join(str(e) for e in sorted(self.body, key=lambda e: e.key()))
        if not body:
            return "%s." % head
        if not head:
            return ":- %s." % body
        return "%s :- %s." % (head, body)


def fact(literal: Literal) -> Rule:
    return Rule(head=(literal,))


def constraint(body: Iterable[BodyElement]) -> Rule:
    return Rule(body=body)


def canonical_form(rule: Rule) -> Rule:
    """Rename variables to V1..Vk so alphabetic variants become equal.

    Exact: takes the minimum rule key over every bijection of the rule's
    variables onto V1..Vk.  Bounded to 8 variables per rule.  A canonical
    rule is marked True rather than pointing at itself, so it sits in no
    reference cycle and is freed as soon as it is dropped.
    """
    cached = rule.__dict__.get("_canon")
    if cached is True:
        return rule
    if cached is not None:
        return cached
    names = sorted(rule.variables())
    if not names:
        object.__setattr__(rule, "_canon", True)
        return rule
    if len(names) > _MAX_CANON_VARS:
        raise AbdukitError(
            "rule has %d variables; canonicalization supports at most %d"
            % (len(names), _MAX_CANON_VARS)
        )
    slots = [var("V%d" % (i + 1)) for i in range(len(names))]
    best = None
    best_key = None
    for perm in itertools.permutations(slots):
        candidate = rule.substitute(dict(zip(names, perm)))
        k = candidate.key()
        if best_key is None or k < best_key:
            best, best_key = candidate, k
    object.__setattr__(best, "_canon", True)
    object.__setattr__(rule, "_canon", best)
    return best


@dataclass(frozen=True)
class Program:
    rules: frozenset[Rule] = frozenset()

    def __init__(self, rules: Iterable[Rule] = ()):
        object.__setattr__(self, "rules", frozenset(canonical_form(r) for r in rules))

    def __hash__(self) -> int:
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash(self.rules)
            object.__setattr__(self, "_hash", h)
        return h

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.sorted_rules())

    def __len__(self) -> int:
        return len(self.rules)

    def __contains__(self, rule: Rule) -> bool:
        return canonical_form(rule) in self.rules

    def sorted_rules(self) -> tuple[Rule, ...]:
        cached = self.__dict__.get("_sorted")
        if cached is None:
            cached = tuple(sorted(self.rules, key=Rule.key))
            object.__setattr__(self, "_sorted", cached)
        return cached

    @property
    def is_ground(self) -> bool:
        return all(r.is_ground for r in self.rules)

    def literals(self) -> frozenset[Literal]:
        """Literals occurring in heads or bodies (NAF included)."""
        cached = self.__dict__.get("_literals")
        if cached is None:
            out: set[Literal] = set()
            for r in self.rules:
                out |= r.literals()
            cached = frozenset(out)
            object.__setattr__(self, "_literals", cached)
        return cached

    def constants(self) -> frozenset[Term]:
        """Ground terms occurring as atom arguments.

        Builtin operands do not count: they are comparison guards, not
        Herbrand domain elements.
        """
        cached = self.__dict__.get("_constants")
        if cached is None:
            out: set[Term] = set()
            for lit in self.literals():
                for t in lit.atom.args:
                    if t.is_ground:
                        out.add(t)
            cached = frozenset(out)
            object.__setattr__(self, "_constants", cached)
        return cached

    def predicates(self) -> frozenset[tuple[str, int]]:
        return frozenset((l.atom.predicate, l.atom.arity) for l in self.literals())

    def __str__(self) -> str:
        return "\n".join(str(r) for r in self.sorted_rules())


def _ground_rule(
    rule: Rule, constants: tuple[Term, ...]
) -> Iterator[Rule]:
    names = sorted(rule.variables())
    if not names:
        candidates: Iterable[Rule] = (rule,)
    else:
        candidates = (
            rule.substitute(dict(zip(names, combo)))
            for combo in itertools.product(constants, repeat=len(names))
        )
    for inst in candidates:
        ok = True
        for b in inst.builtins():
            if not b.holds():
                ok = False
                break
        if ok:
            yield Rule(inst.head, inst.body_literals())


def ground(
    program: Program,
    extra_constants: Iterable[Term] = (),
    config: RunConfig | None = None,
) -> Program:
    """Instantiate every rule over the combined constant set.

    Builtin comparisons are evaluated per instance: false ones drop the
    instance, true ones are removed from the body.  Raises NoConstants if
    variables occur but no constant exists, GroundingBudgetExceeded past
    config.max_ground_rules instances.
    """
    cfg = config or DEFAULT_CONFIG
    constants = tuple(sorted(program.constants() | frozenset(extra_constants), key=Term.key))
    total = 0
    for r in program.rules:
        k = len(r.variables())
        if k and not constants:
            raise NoConstants("program has variables but no constants")
        total += max(1, len(constants) ** k)
    if total > cfg.max_ground_rules:
        raise GroundingBudgetExceeded(
            "grounding needs %d instances, budget is %d" % (total, cfg.max_ground_rules)
        )
    out: list[Rule] = []
    for r in program.rules:
        out.extend(_ground_rule(r, constants))
    return Program(out)


def program_union(
    p: Program, q: Program, config: RunConfig | None = None
) -> Program:
    """Set union on ground instantiations over the combined constant set."""
    gp, gq = _ground_pair(p, q, config)
    return Program(gp.rules | gq.rules)


def program_diff(
    p: Program, q: Program, config: RunConfig | None = None
) -> Program:
    """Set difference on ground instantiations over the combined constant set."""
    gp, gq = _ground_pair(p, q, config)
    return Program(gp.rules - gq.rules)


def _ground_pair(
    p: Program, q: Program, config: RunConfig | None
) -> tuple[Program, Program]:
    if p.is_ground and q.is_ground:
        return p, q
    shared = p.constants() | q.constants()
    return ground(p, shared, config), ground(q, shared, config)


def literal_universe(program: Program) -> tuple[Literal, ...]:
    """Ground literals constructible from a program's signature, in
    Literal.key order: both polarities over every predicate/arity
    occurring in the program, with arguments drawn from its constants."""
    constants = tuple(sorted(program.constants(), key=Term.key))
    out: set[Literal] = set()
    for pred, arity in program.predicates():
        for combo in itertools.product(constants, repeat=arity):
            atom = Atom(pred, combo)
            out.add(Literal(atom, True))
            out.add(Literal(atom, False))
    return tuple(sorted(out, key=Literal.key))
