"""Extended abduction: explanations and anti-explanations over EDPs.

An abductive program pairs a background program P with abducible rules A.
A positive observation G is explained by a pair (E, F): add the abducible
instances E to P and remove the instances F so that the result derives G
and stays consistent.  A negative observation is anti-explained by making
G underivable.  Both come in credulous (true in some answer set) and
skeptical (true in every answer set) variants.

The engine computes them by transformation.  P and A are grounded first
and named second, so naming decides on ground instances: every ground
abducible that is not a single-head fact, or whose literal heads another
ground rule, is named away.  Each abducible of the named program, a
ground fact, then becomes a choice between itself and a shadow literal, with update atoms
recording additions (+a) and removals (-a) relative to P; since nothing
else derives an abducible, an update atom holds exactly when its choice
changes P.  The update program takes nothing from the observation but
the constants P lacks.  It is solved once, and every observation kind
and mode is read off its answer sets:
grouped by the pair (E, F) their update atoms record, a group holds the
answer sets of P changed by that pair, so the pair explains G
credulously when some set of its group contains G and skeptically when
every one does.  The grouping is made once per update program, memoized
on it, and keeps the AND and OR of each group, so each kind and mode is
one bit test per group.  A group's key, its update-atom bits,
stays an integer until it is returned: minimal change is the keys no
other kept key is a strict subset of, decided by one dominance filter
on integers, and only the pairs returned are decoded, each update atom
through one table to its ground rule.  A brute-force oracle and a
translation to plain introduction-only abduction provide independent
cross-checks.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .config import DEFAULT_CONFIG, RunConfig
from .core import (
    AbdukitError,
    Atom,
    Literal,
    NafLiteral,
    Program,
    Rule,
    Term,
    VARIABLE,
    canonical_form,
    fact,
    ground,
)
from .solver import AnswerSetResult, answer_sets

POSITIVE = "positive"
NEGATIVE = "negative"
BOT = "bot"

CREDULOUS = "credulous"
SKEPTICAL = "skeptical"

# internal predicates; the parser reserves the "__" prefix so user programs
# can never collide with these
_NAME = "__n%d"
_SHADOW = "__not%d_%s"
_PLUS = "__add%d_%s"
_MINUS = "__del%d_%s"
_PRIME = "__prime%d_%s"
_GOAL_ATOM = "__obs"

ORACLE_CAP = 12


class AbducibleObservation(AbdukitError):
    """The observation literal is itself an abducible instance."""


class SkepticalBotUnsupported(AbdukitError):
    """Consistency restoration has no skeptical variant."""


class OracleBudgetExceeded(AbdukitError):
    """Too many ground abducible instances for exhaustive enumeration."""


@dataclass(frozen=True)
class Observation:
    """A ground literal to make true (positive) or false (negative).

    The bot observation stands for inconsistency itself: anti-explaining
    it restores consistency.
    """

    kind: str
    literal: Literal | None = None

    def __post_init__(self) -> None:
        if self.kind not in (POSITIVE, NEGATIVE, BOT):
            raise ValueError("bad observation kind %r" % self.kind)
        if self.kind == BOT:
            if self.literal is not None:
                raise ValueError("the bot observation carries no literal")
            return
        if self.literal is None:
            raise ValueError("%s observation needs a literal" % self.kind)
        if not self.literal.is_ground:
            raise ValueError("observation must be ground: %s" % self.literal)

    @classmethod
    def positive(cls, literal: Literal) -> Observation:
        return cls(POSITIVE, literal)

    @classmethod
    def negative(cls, literal: Literal) -> Observation:
        return cls(NEGATIVE, literal)

    @classmethod
    def bot(cls) -> Observation:
        return cls(BOT)

    def __str__(self) -> str:
        if self.kind == BOT:
            return "bot"
        if self.kind == NEGATIVE:
            return "not %s" % self.literal
        return str(self.literal)


@dataclass(frozen=True)
class AbductiveProgram:
    program: Program
    abducibles: Program

    def __init__(self, program: Program | Iterable[Rule] = (), abducibles: Program | Iterable[Rule] = ()):
        object.__setattr__(
            self, "program", program if isinstance(program, Program) else Program(program)
        )
        object.__setattr__(
            self,
            "abducibles",
            abducibles if isinstance(abducibles, Program) else Program(abducibles),
        )

    def fact_patterns(self) -> tuple[Literal, ...]:
        """Head literals of the single-head abducible facts."""
        cached = self.__dict__.get("_fact_patterns")
        if cached is None:
            out = []
            for r in self.abducibles:
                if r.is_fact and len(r.head) == 1:
                    (lit,) = r.head
                    out.append(lit)
            cached = tuple(sorted(out, key=Literal.key))
            object.__setattr__(self, "_fact_patterns", cached)
        return cached


@dataclass(frozen=True)
class Explanation:
    """A change pair: rules added to the program and rules removed from it."""

    add: frozenset[Rule]
    remove: frozenset[Rule]
    mode: str = CREDULOUS
    minimal: bool = False

    def __init__(
        self,
        add: Iterable[Rule] = (),
        remove: Iterable[Rule] = (),
        mode: str = CREDULOUS,
        minimal: bool = False,
    ):
        object.__setattr__(self, "add", frozenset(canonical_form(r) for r in add))
        object.__setattr__(self, "remove", frozenset(canonical_form(r) for r in remove))
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "minimal", minimal)

    def pair(self) -> tuple[frozenset[Rule], frozenset[Rule]]:
        return (self.add, self.remove)

    @property
    def size(self) -> int:
        return len(self.add) + len(self.remove)

    def sort_key(self):
        return (
            self.size,
            tuple(sorted(r.key() for r in self.add)),
            tuple(sorted(r.key() for r in self.remove)),
        )

    def __str__(self) -> str:
        parts = ["+%s" % r for r in sorted(self.add, key=Rule.key)]
        parts += ["-%s" % r for r in sorted(self.remove, key=Rule.key)]
        return " ".join(parts) if parts else "(no change)"


@dataclass(frozen=True)
class UpdateProgram:
    """The transformed program whose answer sets encode change pairs.

    changes maps each update atom to whether it records an addition and
    to the source rule added or removed.  config is the run
    configuration the program was built under and is solved under.
    """

    rules: Program
    changes: Mapping[Atom, tuple[bool, Rule]] = field(hash=False)
    config: RunConfig

    @functools.cached_property
    def update_atoms(self) -> frozenset[Atom]:
        return frozenset(self.changes)

    @functools.cached_property
    def _groups(self) -> tuple[AnswerSetResult, tuple[tuple[int, int, int], ...]]:
        """The program's answer sets, and their masks grouped by their
        update-atom bits: one (key, AND, OR) per group, in order of first
        appearance.  Solved on first use, so a program too wide to solve
        can still be built and printed."""
        result = answer_sets(self.rules, self.config)
        projection = _projection(result, self.update_atoms)
        table: dict[int, list[int]] = {}
        for m in result.masks:
            key = m & projection
            group = table.get(key)
            if group is None:
                table[key] = [m, m]
            else:
                group[0] &= m
                group[1] |= m
        return result, tuple((key, every, some) for key, (every, some) in table.items())


# ---------------------------------------------------------------------------
# pattern matching on flat terms


def _match(pattern: Literal, target: Literal) -> dict[str, Term] | None:
    """One-way match: bind the pattern's variables so it equals target."""
    if pattern.positive != target.positive:
        return None
    pa, ta = pattern.atom, target.atom
    if pa.predicate != ta.predicate or pa.arity != ta.arity:
        return None
    binding: dict[str, Term] = {}
    for t, u in zip(pa.args, ta.args):
        if t.kind == VARIABLE:
            seen = binding.get(t.name)
            if seen is None:
                binding[t.name] = u
            elif seen != u:
                return None
        elif t != u:
            return None
    return binding


def _ground_heads(
    facts: Program, constants: Iterable[Term], config: RunConfig
) -> frozenset[Literal]:
    """The heads of the ground instances of single-head facts over
    constants, from one ground call under its budget."""
    return frozenset(lit for r in ground(facts, constants, config).rules for lit in r.head)


def _literal_constants(literal: Literal | None) -> frozenset[Term]:
    if literal is None:
        return frozenset()
    return frozenset(t for t in literal.atom.args if t.is_ground)


def _new_constants(ap: AbductiveProgram, literal: Literal | None) -> frozenset[Term]:
    """The constants of literal that ap's program and abducibles lack.
    Grounding is over the union, so these are all an observation adds to
    the update program, and the prepare cache keys on them alone."""
    consts = _literal_constants(literal)
    if consts:
        consts -= ap.program.constants() | ap.abducibles.constants()
    return consts


# ---------------------------------------------------------------------------
# normal form: ground, then name every abducible that is not its own choice


def _single_fact(r: Rule) -> bool:
    return r.is_fact and len(r.head) == 1


def normal_form(
    ap: AbductiveProgram,
    config: RunConfig | None = None,
    extra_constants: frozenset[Term] = frozenset(),
) -> tuple[AbductiveProgram, dict[Atom, Rule]]:
    """Ground P and A over their constants and extra_constants, then
    name every ground abducible that is not its own choice.

    A ground abducible stays a plain choice when it is a single-head fact
    whose literal heads no ground rule of P or A other than a single-head
    fact.  Every other ground abducible r, in Rule.key order, gets a
    0-ary name: r's body gains the name, the name becomes the abducible,
    and a name fact is added when r is in ground(P).  So no abducible
    literal heads any rule but its own fact.  Returns the ground named
    program and a table from each name atom to its ground rule."""
    cfg = config or DEFAULT_CONFIG
    constants = ap.program.constants() | ap.abducibles.constants() | extra_constants
    gp = ground(ap.program, constants, cfg)
    ga = ground(ap.abducibles, constants, cfg)
    derived = {
        lit
        for r in itertools.chain(gp.rules, ga.rules)
        if not _single_fact(r)
        for lit in r.head
    }
    program = set(gp.rules)
    abducibles: list[Rule] = []
    names: dict[Atom, Rule] = {}
    for r in ga.sorted_rules():
        if _single_fact(r) and not r.head & derived:
            abducibles.append(r)
            continue
        name = Literal(Atom(_NAME % (len(names) + 1)))
        names[name.atom] = r
        abducibles.append(fact(name))
        program.add(Rule(r.head, r.body | {NafLiteral(name)}))
        if r in gp.rules:
            program.remove(r)
            program.add(fact(name))
    return AbductiveProgram(Program(program), Program(abducibles)), names


# ---------------------------------------------------------------------------
# grounding and the update transformation


def _internal_literal(name_format: str, lit: Literal) -> Literal:
    """The internal atom named name_format % (polarity, predicate) over
    lit's arguments."""
    return Literal(
        Atom(name_format % (0 if lit.positive else 1, lit.atom.predicate), lit.atom.args)
    )


def _choice_rules(a: Literal) -> list[Rule]:
    """Rules choosing exactly one of a and its shadow, written as the
    paper writes them: a <- not shadow and shadow <- not a.  The
    disjunctive fact a ; shadow. is the same choice, since the kernel
    shifts head-cycle-free disjunctions into these two rules."""
    shadow = _internal_literal(_SHADOW, a)
    return [Rule([a], [NafLiteral(shadow, True)]), Rule([shadow], [NafLiteral(a, True)])]


@functools.lru_cache(maxsize=64)
def _prepare_cached(
    ap: AbductiveProgram, extra_constants: frozenset[Term], cfg: RunConfig
) -> UpdateProgram:
    """Ground and name ap over its constants and extra_constants by one
    normal_form call, then emit its update transformation.  Every call
    with the same arguments returns the same object, so the modes asked
    of one program share one build and one solve."""
    nf, names = normal_form(ap, cfg, extra_constants)
    # every abducible of nf is a single-head fact derived by its own
    # choice only
    abducible = sorted((next(iter(r.head)) for r in nf.abducibles.rules), key=Literal.key)
    rules = [r for r in nf.program if r not in nf.abducibles.rules]
    changes: dict[Atom, tuple[bool, Rule]] = {}
    for a in abducible:
        rules += _choice_rules(a)
        added = fact(a) not in nf.program.rules
        update = _internal_literal(_PLUS if added else _MINUS, a)
        changes[update.atom] = (added, names.get(a.atom) or fact(a))
        rules.append(Rule([update], [NafLiteral(a, not added)]))
    return UpdateProgram(Program(rules), changes, cfg)


def build_update_program(ap: AbductiveProgram, config: RunConfig | None = None) -> UpdateProgram:
    """Ground, name, and emit the update transformation of ap.
    For an observation whose constants all occur in ap this is the very
    object explanations and anti_explanations solve."""
    return _prepare_cached(ap, frozenset(), config or DEFAULT_CONFIG)


def _undominated(keys: list[int], maximal: bool = False) -> list[bool]:
    """For each key, a bit set, whether no other key is a strict subset of
    it (a strict superset when maximal).  A strict subset is a smaller
    integer, so the distinct keys are walked upward, each tested against
    the minimal keys found so far; maximal complements them first."""
    if maximal:
        union = 0
        for k in keys:
            union |= k
        keys = [union ^ k for k in keys]
    minimal: list[int] = []
    for k in sorted(set(keys)):
        for m in minimal:
            if m & k == m:
                break
        else:
            minimal.append(k)
    kept = set(minimal)
    return [k in kept for k in keys]


def _projection(result: AnswerSetResult, atoms: Iterable[Atom]) -> int:
    """The bits of the positive literals of atoms in result's layout."""
    out = 0
    for a in atoms:
        out |= result.bit(Literal(a))
    return out


def _undominated_sets(
    result: AnswerSetResult, atoms: Iterable[Atom], maximal: bool = False
) -> AnswerSetResult:
    """The consistent answer sets whose projection on atoms is undominated."""
    projection = _projection(result, atoms)
    flags = _undominated([m & projection for m in result.masks], maximal)
    return result.select(tuple(m for m, keep in zip(result.masks, flags) if keep))


def u_minimal_filter(result: AnswerSetResult, ua: Iterable[Atom]) -> AnswerSetResult:
    """Keep the consistent answer sets whose update-atom projection is not a
    strict superset of another's."""
    return _undominated_sets(result, ua)


# ---------------------------------------------------------------------------
# extraction and side conditions


def _check_literal_non_abducible(ap: AbductiveProgram, literal: Literal) -> None:
    for pattern in ap.fact_patterns():
        if _match(pattern, literal) is not None:
            raise AbducibleObservation(
                "observation %s is an instance of the abducible %s" % (literal, pattern)
            )


def _finish(
    up: UpdateProgram, obs: Observation, mode: str, minimal: bool
) -> tuple[Explanation, ...]:
    """Explanations read off the answer sets of the update program.

    The update program is solved once, with nothing added for the
    observation.  Its consistent answer sets that record a pair (E, F)
    are, apart from internal atoms, the consistent answer sets of P with
    F removed and E added.  Grouped once by their update-atom bits, with
    the AND and OR of each group, every kind and mode is one bit test per
    group: G in some set of the group (credulous) or in every one
    (skeptical), G missing from some set or from every one, and bot keeps
    every group.  This is the test the oracle applies to each changed
    program.  The kept keys pass through u_minimal_filter once: its
    survivors are the minimal pairs, and only the pairs returned are
    decoded.
    """
    result, groups = up._groups
    if obs.kind == BOT:
        kept = [key for key, _, _ in groups]
    else:
        g = result.bit(obs.literal)
        skeptical = mode == SKEPTICAL
        if obs.kind == POSITIVE:
            kept = [key for key, every, some in groups if (every if skeptical else some) & g]
        else:
            kept = [key for key, every, some in groups if not (some if skeptical else every) & g]
    candidates = result.select(tuple(kept))
    survivors = frozenset(u_minimal_filter(candidates, up.update_atoms).masks)
    out = []
    for key in survivors if minimal else kept:
        changes = [up.changes[lit.atom] for lit in result.decode(key)]
        add = [rule for added, rule in changes if added]
        remove = [rule for added, rule in changes if not added]
        out.append(Explanation(add, remove, mode, key in survivors))
    return tuple(sorted(out, key=Explanation.sort_key))


def explanations(
    ap: AbductiveProgram,
    obs: Observation,
    mode: str = CREDULOUS,
    minimal: bool = True,
    config: RunConfig | None = None,
) -> tuple[Explanation, ...]:
    """Change pairs making a positive observation hold: in some consistent
    answer set of the changed program (credulous) or in all of them, with
    at least one (skeptical).  Minimal pairs are those no other pair of
    the same mode is included in componentwise.
    """
    if obs.kind != POSITIVE:
        raise ValueError("explanations need a positive observation, got %s" % obs.kind)
    if mode not in (CREDULOUS, SKEPTICAL):
        raise ValueError("bad mode %r" % mode)
    cfg = config or DEFAULT_CONFIG
    _check_literal_non_abducible(ap, obs.literal)
    up = _prepare_cached(ap, _new_constants(ap, obs.literal), cfg)
    return _finish(up, obs, mode, minimal)


def anti_explanations(
    ap: AbductiveProgram,
    obs: Observation,
    mode: str = CREDULOUS,
    minimal: bool = True,
    config: RunConfig | None = None,
) -> tuple[Explanation, ...]:
    """Change pairs making a negative observation fail in some consistent
    answer set of the changed program (credulous) or in all of them, with
    at least one (skeptical); for bot, pairs leaving the changed program
    with a consistent answer set.  Every mode reads the same answer sets
    of the update program as explanations does.
    """
    if obs.kind not in (NEGATIVE, BOT):
        raise ValueError("anti-explanations need a negative or bot observation, got %s" % obs.kind)
    if mode not in (CREDULOUS, SKEPTICAL):
        raise ValueError("bad mode %r" % mode)
    if obs.kind == BOT and mode == SKEPTICAL:
        raise SkepticalBotUnsupported(
            "making the program consistent in every answer set and in some answer set coincide;"
            " use the credulous mode"
        )
    cfg = config or DEFAULT_CONFIG
    if obs.literal is not None:
        _check_literal_non_abducible(ap, obs.literal)
    up = _prepare_cached(ap, _new_constants(ap, obs.literal), cfg)
    return _finish(up, obs, mode, minimal)


def compile_observations(
    ap: AbductiveProgram,
    positives: Iterable[Literal],
    negatives: Iterable[Literal] = (),
) -> tuple[AbductiveProgram, Observation]:
    """Fold several observations into one: a fresh goal atom holds when all
    positives are derived and no negative is.  Returns the extended
    program and the goal as a positive observation."""
    pos, neg = tuple(positives), tuple(negatives)
    if not pos and not neg:
        raise ValueError("at least one observation literal is required")
    for lit in pos + neg:
        if not lit.is_ground:
            raise ValueError("observation must be ground: %s" % lit)
        _check_literal_non_abducible(ap, lit)
    goal = Literal(Atom(_GOAL_ATOM))
    body = [NafLiteral(l, False) for l in pos] + [NafLiteral(l, True) for l in neg]
    extended = Program(list(ap.program.rules) + [Rule([goal], body)])
    return AbductiveProgram(extended, ap.abducibles), Observation.positive(goal)


# ---------------------------------------------------------------------------
# cross-check routes


def to_normal_abduction(
    ap: AbductiveProgram, config: RunConfig | None = None
) -> tuple[AbductiveProgram, tuple[tuple[Literal, Literal], ...]]:
    """Translate to introduction-only abduction.

    Every abducible fact already in the program is made non-abducible and
    guarded by a fresh prime hypothesis: a <- not a'.  Introducing a'
    then stands for removing a, so pairs (E, F) correspond to hypothesis
    sets E + primes(F) with minimality preserved.  Returns the translated
    program and the (abducible, prime) mapping.
    """
    cfg = config or DEFAULT_CONFIG
    for r in ap.abducibles:
        if not (r.is_fact and len(r.head) == 1):
            raise ValueError(
                "the translation needs fact-only abducibles; apply normal_form first"
            )
    constants = ap.program.constants() | ap.abducibles.constants()
    gp = ground(ap.program, constants, cfg)
    insts = _ground_heads(ap.abducibles, constants, cfg)
    in_p = sorted((l for l in insts if fact(l) in gp), key=Literal.key)
    out_p = sorted((l for l in insts if fact(l) not in gp), key=Literal.key)
    mapping = tuple((a, _internal_literal(_PRIME, a)) for a in in_p)
    removable = set(in_p)
    rules = [
        r
        for r in gp
        if not (r.is_fact and len(r.head) == 1 and next(iter(r.head)) in removable)
    ]
    rules += [Rule([a], [NafLiteral(prime, True)]) for a, prime in mapping]
    hypotheses = [fact(l) for l in out_p] + [fact(prime) for _, prime in mapping]
    return AbductiveProgram(Program(rules), Program(hypotheses)), mapping


def _condition_holds(result: AnswerSetResult, obs: Observation, mode: str) -> bool:
    if not result.has_consistent:
        return False
    if obs.kind == BOT:
        return True
    g = obs.literal
    sets = result.consistent_sets
    if obs.kind == POSITIVE:
        if mode == SKEPTICAL:
            return all(g in s.literals for s in sets)
        return any(g in s.literals for s in sets)
    if mode == SKEPTICAL:
        return all(g not in s.literals for s in sets)
    return any(g not in s.literals for s in sets)


def brute_force_explanations(
    ap: AbductiveProgram,
    obs: Observation,
    mode: str = CREDULOUS,
    minimal: bool = False,
    config: RunConfig | None = None,
    cap: int = ORACLE_CAP,
) -> tuple[Explanation, ...]:
    """Independent oracle: enumerate every pair over the ground abducible
    instances and test the definition directly with the solver.  No
    naming, no update transformation."""
    if obs.kind == BOT and mode == SKEPTICAL:
        raise SkepticalBotUnsupported("use the credulous mode for bot")
    if mode not in (CREDULOUS, SKEPTICAL):
        raise ValueError("bad mode %r" % mode)
    cfg = config or DEFAULT_CONFIG
    if obs.literal is not None:
        _check_literal_non_abducible(ap, obs.literal)
    constants = (
        ap.program.constants() | ap.abducibles.constants() | _literal_constants(obs.literal)
    )
    gp = ground(ap.program, constants, cfg)
    insts = sorted(ground(ap.abducibles, constants, cfg).rules, key=Rule.key)
    if len(insts) > cap:
        raise OracleBudgetExceeded(
            "%d ground abducible instances exceed the oracle cap of %d" % (len(insts), cap)
        )
    in_p = [r for r in insts if r in gp]
    out_p = [r for r in insts if r not in gp]
    bit = {r: 1 << i for i, r in enumerate(insts)}
    base = gp.rules
    pairs = []
    for k_add in range(len(out_p) + 1):
        for e in itertools.combinations(out_p, k_add):
            for k_del in range(len(in_p) + 1):
                for f in itertools.combinations(in_p, k_del):
                    candidate = Program((base - frozenset(f)) | frozenset(e))
                    if _condition_holds(answer_sets(candidate, cfg), obs, mode):
                        pairs.append((frozenset(e), frozenset(f)))
    # E and F are disjoint, so pairs are included componentwise as their unions are
    flags = _undominated([sum(bit[r] for r in e | f) for e, f in pairs])
    if minimal:
        pairs = [p for p, flag in zip(pairs, flags) if flag]
        flags = [True] * len(pairs)
    out = [
        Explanation(add=e, remove=f, mode=mode, minimal=flag)
        for (e, f), flag in zip(pairs, flags)
    ]
    return tuple(sorted(out, key=Explanation.sort_key))
