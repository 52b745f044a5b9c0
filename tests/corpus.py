"""Seeded random program generators shared by the property suites."""

from __future__ import annotations

import random

from abdukit.abduction import AbductiveProgram, build_update_program
from abdukit.config import RunConfig
from abdukit.core import (
    Atom,
    Builtin,
    Literal,
    NafLiteral,
    Program,
    Rule,
    fact,
    integer,
    literal_universe,
    var,
)


def random_ground_program(
    rng: random.Random,
    max_atoms: int = 6,
    max_rules: int = 8,
    strong_neg: bool = True,
    disjunction: bool = True,
) -> Program:
    atoms = [Atom("a%d" % i) for i in range(rng.randint(2, max_atoms))]
    literals = [Literal(a, True) for a in atoms]
    if strong_neg:
        literals += [Literal(a, False) for a in atoms]
    rules = []
    for _ in range(rng.randint(1, max_rules)):
        max_head = 2 if disjunction else 1
        head_size = rng.choices(range(0, max_head + 1), weights=[1, 6, 2][: max_head + 1])[0]
        head = rng.sample(literals, min(head_size, len(literals)))
        pool = [l for l in literals if l not in head]
        body_pos = rng.sample(pool, min(rng.randint(0, 2), len(pool)))
        rest = [l for l in pool if l not in body_pos]
        body_naf = rng.sample(rest, min(rng.randint(0, 2), len(rest)))
        body = [NafLiteral(l, False) for l in body_pos] + [NafLiteral(l, True) for l in body_naf]
        if not head and not body:
            continue
        rules.append(Rule(head, body))
    if not rules:
        rules.append(Rule([literals[0]], []))
    return Program(rules)


def random_stratified_nlp(
    rng: random.Random, max_atoms: int = 8, max_rules: int = 10
) -> Program:
    """NAF only ever points at strictly lower-numbered atoms."""
    n = rng.randint(2, max_atoms)
    atoms = [Atom("a%d" % i) for i in range(n)]
    rules = []
    for _ in range(rng.randint(1, max_rules)):
        i = rng.randrange(n)
        head = Literal(atoms[i], True)
        body = []
        for j in rng.sample(range(n), min(rng.randint(0, 2), n)):
            body.append(NafLiteral(Literal(atoms[j], True), False))
        lower = list(range(i))
        for j in rng.sample(lower, min(rng.randint(0, 2), len(lower))):
            body.append(NafLiteral(Literal(atoms[j], True), True))
        rules.append(Rule([head], body))
    return Program(rules)


def random_abduction_instance(
    rng: random.Random,
    max_atoms: int = 6,
    max_rules: int = 8,
    max_abducibles: int = 4,
):
    """A ground abductive pair (program rules, abducible fact literals)."""
    program = random_ground_program(
        rng, max_atoms=max_atoms, max_rules=max_rules, disjunction=rng.random() < 0.4
    )
    atoms = sorted({l.atom for l in program.literals()}, key=lambda a: a.key())
    if not atoms:
        atoms = [Atom("a0")]
    k = rng.randint(1, min(max_abducibles, len(atoms)))
    abducible_literals = [
        Literal(a, rng.random() < 0.85) for a in rng.sample(atoms, k)
    ]
    goal_pool = [
        l
        for l in sorted(program.literals(), key=Literal.key)
        if l not in abducible_literals
    ]
    goal = rng.choice(goal_pool) if goal_pool else Literal(atoms[0], True)
    return program, abducible_literals, goal


def random_rule_abduction_instance(
    rng: random.Random,
    max_atoms: int = 5,
    max_rules: int = 6,
    max_abducibles: int = 3,
):
    """A ground abductive triple (program, abducible rules, goal): the fact
    abducibles of random_abduction_instance, 0-2 rules of the program, 0-1
    rule not in it and, one time in three, a disjunctive fact of two
    abducible literals, added to the program and half the time to the
    abducibles too."""
    program, abducible_literals, goal = random_abduction_instance(
        rng, max_atoms=max_atoms, max_rules=max_rules, max_abducibles=max_abducibles
    )
    rules = list(program.sorted_rules())
    abducibles = [fact(l) for l in abducible_literals]
    abducibles += rng.sample(rules, rng.randint(0, min(2, len(rules))))
    if rng.random() < 0.5:
        extra = random_ground_program(rng, max_atoms=max_atoms, max_rules=1).sorted_rules()[0]
        if extra not in program:
            abducibles.append(extra)
    if len(abducible_literals) > 1 and rng.random() < 1 / 3:
        either = Rule(rng.sample(abducible_literals, 2), [])
        program = Program(program.rules | {either})
        if rng.random() < 0.5:
            abducibles.append(either)
    return program, abducibles, goal


_NONGROUND_CONSTANTS = (integer(1), integer(2))


def _nonground_literal(rng: random.Random, unary, nullary, terms, negative: float) -> Literal:
    """A literal over a unary predicate and one of terms, or over a
    nullary predicate one time in four; strongly negated with the given
    probability."""
    if rng.random() < 0.25:
        atom = Atom(rng.choice(nullary))
    else:
        atom = Atom(rng.choice(unary), (rng.choice(terms),))
    return Literal(atom, rng.random() >= negative)


def _nonground_rule(rng: random.Random, unary, nullary, max_vars: int) -> Rule:
    """A safe rule over one or two variables: each variable occurs in a
    positive body literal, and the head, the NAF body and the builtin use
    only those variables and the two constants."""
    names = ["X", "Y"][: rng.randint(1, max_vars)]
    variables = [var(n) for n in names]
    terms = variables + list(_NONGROUND_CONSTANTS)
    body: list = [
        NafLiteral(Literal(Atom(rng.choice(unary), (v,)), rng.random() >= 0.15))
        for v in variables
    ]
    if rng.random() < 0.4:
        body.append(NafLiteral(_nonground_literal(rng, unary, nullary, terms, 0.2), True))
    if rng.random() < 0.4:
        lhs = rng.choice(variables)
        rhs = rng.choice([t for t in terms if t != lhs])
        body.append(Builtin(rng.choice(("<", "!=", "=")), lhs, rhs))
    head_size = rng.choices((0, 1, 2), weights=(1, 6, 2))[0]
    head = [_nonground_literal(rng, unary, nullary, terms, 0.2) for _ in range(head_size)]
    return Rule(head, body)


def random_nonground_abduction_instance(rng: random.Random):
    """A non-ground abductive triple (program, abducibles, goal) over the
    integer constants 1 and 2 and predicates of arity 0 and 1.

    The program holds one to three ground facts and one to three safe
    rules over one or two variables, with disjunctive heads, strong
    negation and the builtins <, != and =.  The abducibles hold one or
    two fact patterns, such as p(X), p(1) or r, half the time a ground
    instance of a p(X) pattern as an overlapping pattern, and up to two
    rules, each also in the program half the time.  That is at most
    eight ground abducibles.  The goal is a ground literal of the
    signature that no abducible fact pattern matches."""
    unary = ["p", "q", "s"][: rng.randint(2, 3)]
    nullary = ["r", "t"][: rng.randint(1, 2)]
    consts = list(_NONGROUND_CONSTANTS)
    # the first fact is unary, so the program has a constant to ground over
    rules = [fact(Literal(Atom(rng.choice(unary), (rng.choice(consts),))))]
    rules += [
        fact(_nonground_literal(rng, unary, nullary, consts, 0.15))
        for _ in range(rng.randint(0, 2))
    ]
    rules += [_nonground_rule(rng, unary, nullary, 2) for _ in range(rng.randint(1, 3))]
    patterns = [
        _nonground_literal(rng, unary, nullary, [var("X"), *consts], 0.15)
        for _ in range(rng.randint(1, 2))
    ]
    open_patterns = [l for l in patterns if l.variables()]
    if open_patterns and rng.random() < 0.5:
        opened = rng.choice(open_patterns)
        patterns.append(opened.substitute({"X": rng.choice(consts)}))
    abducibles = [fact(l) for l in patterns]
    count = rng.randint(0, 2)
    for _ in range(count):
        # two variables only when alone, to stay within eight instances
        r = _nonground_rule(rng, unary, nullary, 2 if count == 1 else 1)
        abducibles.append(r)
        if rng.random() < 0.5:
            rules.append(r)

    def matched(lit: Literal) -> bool:
        return any(
            p.positive == lit.positive
            and p.atom.predicate == lit.atom.predicate
            and all(not t.is_ground or t == u for t, u in zip(p.atom.args, lit.atom.args))
            for p in patterns
        )

    signature = sorted(Program(rules + abducibles).predicates())
    goals = [
        Literal(Atom(pred, args), positive)
        for pred, arity in signature
        for args in ([()] if arity == 0 else [(c,) for c in consts])
        for positive in (True, False)
    ]
    goals = [l for l in goals if not matched(l)]
    goal = rng.choice(goals) if goals else Literal(Atom("g"))
    return Program(rules), abducibles, goal


def head_cycle_repairs(rng: random.Random, config: RunConfig) -> list[Program]:
    """The update programs of two repairs of a small corpus program whose
    disjunctive head x ; y is closed into a head cycle by x :- y. y :- x.:
    every rule removable, and every fact over its literals addable."""
    while True:
        program = random_ground_program(rng, max_atoms=4, max_rules=3)
        disjunctive = [r for r in program.sorted_rules() if len(r.head) == 2]
        if disjunctive:
            break
    x, y = sorted(rng.choice(disjunctive).head, key=Literal.key)
    cycle = {Rule([x], [NafLiteral(y, False)]), Rule([y], [NafLiteral(x, False)])}
    program = Program(program.rules | cycle)
    universe = Program(fact(l) for l in literal_universe(program))
    return [
        build_update_program(AbductiveProgram(program, abducibles), config).rules
        for abducibles in (program, universe)
    ]
