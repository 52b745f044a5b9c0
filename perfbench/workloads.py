"""Seeded inputs for the three benchmark workloads.

Every generator draws from its own ``random.Random`` and only ever picks
from lists built in a fixed order, never from a hash-ordered set, so one
seed gives the same inputs in every process whatever ``PYTHONHASHSEED``
is.  Inputs are sized by the generator parameters in ``PARAMS`` alone:
no input is dropped for being slow or large.

A workload is a list of ``Query`` objects.  Stateless workloads carry their
programs in the query; the ``kb-session`` workload names state slots
(``Slot``) that the runner resolves against the session, and its writes
replace a slot with the program of their first solution.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass

from abdukit import (
    CREDULOUS,
    SKEPTICAL,
    AbductiveProgram,
    Atom,
    Literal,
    NafLiteral,
    Program,
    Rule,
    RunConfig,
    fact,
    parse,
    parse_rule,
)

# Generator parameters and the RunConfig of each workload; both are
# recorded with every result.  abduce-small stops at three abducibles: on
# the pure-Python kernel four-abducible programs took 80% of the time and
# made throughput differ by 20-30% between seeds; abduce-wide covers them.
# The *_per_second values size the input pool, at several times what the
# code measured here completes; a run that uses its whole pool stops early
# and records that.
PARAMS = {
    "abduce-small": {
        "max_atoms": 6,
        "max_rules": 8,
        "max_abducibles": 3,
        "p_disjunctive_program": 0.4,
        "p_negative_literal": 0.25,
        "p_positive_abducible": 0.85,
        "programs_per_second": 250,
    },
    "abduce-wide": {
        "causes": [3, 4, 5],
        "symptoms": 2,
        "instances_per_second": 20,
    },
    "kb-session": {
        "employees": 2,
        "birds": 2,
        "module_rules": 2,
        "read_passes": 3,
        "epochs_per_second": 8,
    },
}

CONFIGS = {
    "abduce-small": RunConfig(max_universe=30),
    "abduce-wide": RunConfig(max_universe=30),
    "kb-session": RunConfig(max_universe=200, max_ground_rules=5000),
}

# Percentile reported as latency_tail_ms, fixed per workload.  Each leaves
# at least ten samples above it in a ten-second run of the pure-Python
# kernel; on abduce-small, percentiles above p95 moved by a quarter
# between seeds, so it reports p95.
TAIL_PERCENTILE = {"abduce-small": 95.0, "abduce-wide": 85.0, "kb-session": 99.0}


@dataclass(frozen=True)
class Slot:
    """Reference to a program held in the session state."""

    name: str

    def __str__(self) -> str:
        return "$" + self.name


@dataclass(frozen=True)
class Query:
    """One call into the library.

    op names the entry point, args its positional arguments (programs,
    literals, rules, modes or ``Slot`` references).  ``writes`` names the
    slot that takes the first solution's program, for write operations.
    """

    op: str
    args: tuple
    writes: str = ""

    def text(self) -> str:
        return "%s %s -> %s" % (self.op, " | ".join(_arg_text(a) for a in self.args), self.writes)


@dataclass
class Workload:
    queries: list[Query]
    config: RunConfig

    def digest(self) -> str:
        h = hashlib.sha256()
        for q in self.queries:
            h.update(q.text().encode())
            h.update(b"\n")
        return h.hexdigest()


def _arg_text(a) -> str:
    if isinstance(a, AbductiveProgram):
        return "%s #abducibles %s" % (a.program, a.abducibles)
    if a is None:
        return "-"
    return str(a)


def build(name: str, seed: int, seconds: float) -> Workload:
    """The workload's inputs for a run of the given length."""
    builders = {
        "abduce-small": _abduce_small,
        "abduce-wide": _abduce_wide,
        "kb-session": _kb_session,
    }
    if name not in builders:
        raise ValueError("unknown workload %r" % name)
    queries = builders[name](random.Random("%s/%d" % (name, seed)), PARAMS[name], seconds)
    return Workload(queries, CONFIGS[name])


# ---------------------------------------------------------------------------
# abduce-small: random ground abductive programs, five queries each


class _Deck:
    """Draws the values of one shape parameter without replacement,
    reshuffling when all are used, so every stretch of programs has the
    same mix of shapes and only the wiring differs between seeds."""

    def __init__(self, rng: random.Random, values: list) -> None:
        self.rng, self.values, self.left = rng, values, []

    def draw(self):
        if not self.left:
            self.left = list(self.values)
            self.rng.shuffle(self.left)
        return self.left.pop()


def _small_program(rng: random.Random, p: dict, decks: dict):
    atoms = [Atom("a%d" % i) for i in range(decks["atoms"].draw())]

    def pick(k: int, exclude=()) -> list[Literal]:
        pool = [a for a in atoms if a not in exclude]
        return [Literal(a, rng.random() >= p["p_negative_literal"]) for a in rng.sample(pool, min(k, len(pool)))]

    max_head = 2 if decks["disjunctive"].draw() else 1
    rules = []
    for _ in range(decks["rules"].draw()):
        head_size = rng.choices(range(max_head + 1), weights=[1, 6, 2][: max_head + 1])[0]
        head = pick(head_size)
        body_pos = pick(rng.randint(0, 2), [l.atom for l in head])
        body_naf = pick(rng.randint(0, 2), [l.atom for l in head + body_pos])
        if head or body_pos or body_naf:
            body = [NafLiteral(l, False) for l in body_pos] + [NafLiteral(l, True) for l in body_naf]
            rules.append(Rule(head, body))
    if not rules:
        rules.append(fact(Literal(atoms[0])))
    used = sorted({l.atom for r in rules for l in r.literals()}, key=Atom.key)
    abducibles = [
        Literal(a, rng.random() < p["p_positive_abducible"])
        for a in rng.sample(used, min(decks["abducibles"].draw(), len(used)))
    ]
    occurring = sorted({l for r in rules for l in r.literals()}, key=Literal.key)
    goals = [l for l in occurring if l not in abducibles]
    return rules, abducibles, goals


def _small_valid(rules, abducibles) -> bool:
    # A disjunctive fact made only of abducibles must itself be abducible;
    # abducibles here are single facts, so such a program is out of scope.
    lits = set(abducibles)
    return not any(r.is_fact and len(r.head) > 1 and r.head <= lits for r in rules)


def _abduce_small(rng: random.Random, p: dict, seconds: float) -> list[Query]:
    queries = []
    disjunctive = round(10 * p["p_disjunctive_program"])
    decks = {
        "atoms": _Deck(rng, list(range(2, p["max_atoms"] + 1))),
        "rules": _Deck(rng, list(range(1, p["max_rules"] + 1))),
        "abducibles": _Deck(rng, list(range(1, p["max_abducibles"] + 1))),
        "disjunctive": _Deck(rng, [True] * disjunctive + [False] * (10 - disjunctive)),
    }
    for _ in range(math.ceil(p["programs_per_second"] * seconds)):
        while True:
            rules, abducibles, goals = _small_program(rng, p, decks)
            if goals and _small_valid(rules, abducibles):
                break
        ap = AbductiveProgram(Program(rules), Program(fact(l) for l in abducibles))
        goal = rng.choice(goals)
        for op, kind in (("explain", "positive"), ("anti", "negative")):
            for mode in (CREDULOUS, SKEPTICAL):
                queries.append(Query(op, (ap, kind, goal, mode)))
        queries.append(Query("anti", (ap, "bot", None, CREDULOUS)))
    return queries


# ---------------------------------------------------------------------------
# abduce-wide: diagnosis programs with 3-5 ground abducible causes


def _diagnosis_text(rng: random.Random, n: int, symptoms: int) -> str:
    causes = ["c%d" % i for i in range(n)]
    present = rng.sample(causes, rng.randint(1, n - 1))
    lines = ["%s." % c for c in sorted(present)]
    lines += ["#abducible %s." % c for c in causes]
    for j in range(symptoms):
        a, b = rng.sample(causes, 2)
        lines.append("s%d :- %s, not %s." % (j, a, b))
        lines.append("s%d :- %s, not masked%d." % (j, rng.choice(causes), j))
    # a strong-negation conflict: a cause that rules a symptom out
    lines.append("-s0 :- %s, not s1." % rng.choice(causes))
    lines.append("alarm :- %s." % ", ".join("s%d" % j for j in range(symptoms)))
    return "\n".join(lines) + "\n"


def _abduce_wide(rng: random.Random, p: dict, seconds: float) -> list[Query]:
    queries = []
    sizes = p["causes"]
    for i in range(math.ceil(p["instances_per_second"] * seconds)):
        unit = parse(_diagnosis_text(rng, sizes[i % len(sizes)], p["symptoms"]))
        ap = AbductiveProgram(unit.program, unit.abducibles)
        queries.append(Query("explain", (ap, "positive", _lit("alarm"), CREDULOUS)))
        queries.append(Query("explain", (ap, "positive", _lit("s0"), SKEPTICAL)))
    return queries


# ---------------------------------------------------------------------------
# kb-session: a closed-loop session over a relational knowledge base
#
# The KB has two parts.  The relational part is non-ground (an age
# constraint with a builtin, bird defaults) over a few constants, with a
# ground #variable part; grounding it leaves head bits that no surviving
# rule can set.  The ground module is a small policy program: theory-type
# writes (theory_update, insert_rule, delete_rule) treat every rule of
# their program as removable, which is only feasible on a program this
# small.  Each epoch starts from a fresh KB, repairs it, and interleaves
# repeated reads with writes.

_PEOPLE = ["ann", "bob", "cid", "dee", "eve", "fay", "gus", "hal"]
_BIRDS = ["tweety", "opus", "polly", "kiwi", "pingu"]


def _kb_text(rng: random.Random, p: dict) -> tuple[str, list[str], list[int], list[str]]:
    people = rng.sample(_PEOPLE, p["employees"])
    birds = rng.sample(_BIRDS, p["birds"])
    young, old = rng.randint(25, 39), rng.randint(40, 60)
    # the first employee is a young manager, so the base KB violates the
    # constraint and every repair write has work to do
    ages = [young, old] + [rng.choice([young, old]) for _ in people[2:]]
    managers = [people[0]] + [rng.choice(people[1:])]
    lines = ["employee(%s, %d)." % (e, a) for e, a in zip(people, ages)]
    lines += ["manager(%s)." % m for m in managers]
    lines += ["bird(%s)." % b for b in birds]
    lines.append("ab(%s)." % birds[0])
    lines.append(":- employee(X, Y), manager(X), not talented(X), Y < 40.")
    lines.append("flies(X) :- bird(X), not ab(X).")
    variable = ["manager(%s)" % people[0], "talented(%s)" % people[0]]
    variable += ["ab(%s)" % b for b in birds]
    lines += ["#variable %s." % v for v in variable]
    lines += ["#abducible ab(%s)." % b for b in birds]
    return "\n".join(lines) + "\n", people, ages, birds


def _module_text(rng: random.Random, p: dict) -> tuple[str, str, str]:
    """A small ground program, a consistent update for it, and a rule to
    insert that no version of the program can already hold."""
    atoms = ["m%d" % i for i in range(4)]

    def lit():
        return ("-" if rng.random() < 0.25 else "") + rng.choice(atoms)

    lines = []
    for _ in range(p["module_rules"]):
        head, body = lit(), rng.sample(atoms, rng.randint(0, 2))
        elems = [("not " if rng.random() < 0.5 else "") + b for b in body if b != head.lstrip("-")]
        lines.append("%s :- %s." % (head, ", ".join(elems)) if elems else "%s." % head)
    update = "-%s.\n" % rng.choice(atoms)
    insert = ":- %s." % ", ".join(sorted(rng.sample(atoms, 2)))
    return "\n".join(lines) + "\n", update, insert


def _kb_session(rng: random.Random, p: dict, seconds: float) -> list[Query]:
    queries: list[Query] = []
    passes = p["read_passes"]

    def reads(batch: list[Query]) -> None:
        # the first pass meets a new KB version, later passes repeat it
        for _ in range(passes):
            queries.extend(batch)

    kb, v, a, m = Slot("kb"), Slot("v"), Slot("a"), Slot("m")
    for _ in range(math.ceil(p["epochs_per_second"] * seconds)):
        text, people, ages, birds = _kb_text(rng, p)
        unit = parse(text)
        mtext, update, insert = _module_text(rng, p)
        module = parse(mtext).program
        queries.append(
            Query(
                "reset",
                (unit.program, unit.variable_rules, unit.abducibles, module),
            )
        )
        reads([Query("consistent", (kb,))])
        scope = parse("manager(%s).\nemployee(%s, %d)." % (people[0], people[0], ages[0]))
        queries.append(Query("remove_inconsistency", (kb, scope.program), writes="kb"))
        flying, grounded = _lit("flies(%s)" % birds[1]), _lit("flies(%s)" % birds[0])
        reads(
            [
                Query("consistent", (kb,)),
                Query("entails", (kb, flying)),
                Query("view_insert", (kb, v, grounded)),
                Query("view_delete", (kb, v, flying)),
                Query("explain", (Slot("kb+a"), "positive", grounded, CREDULOUS)),
                Query("explain", (Slot("kb+a"), "positive", grounded, SKEPTICAL)),
            ]
        )
        # the repaired KB is consistent: this write keeps it, at full cost
        queries.append(Query("maintain_integrity", (kb, v), writes="kb"))
        probe = _lit("m%d" % rng.randrange(4))
        reads([Query("consistent", (m,)), Query("entails", (m, probe))])
        queries.append(Query("theory_update", (m, parse(update).program), writes="m"))
        reads([Query("consistent", (m,)), Query("entails", (m, probe))])
        rule = parse_rule(insert)
        queries.append(Query("insert_rule", (m, rule), writes="m"))
        reads([Query("consistent", (m,)), Query("entails", (m, probe))])
        queries.append(Query("delete_rule", (m, rule), writes="m"))
        reads([Query("consistent", (m,)), Query("entails", (m, probe))])
    return queries


def _lit(text: str) -> Literal:
    (lit,) = parse_rule(text + ".").head
    return lit
