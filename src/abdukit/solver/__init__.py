"""Answer-set semantics for ground extended disjunctive programs.

Exact at desk scale: a ground program is encoded as bitmasks over its
possibly-derivable literals, and kernel_py finds its answer sets by one
least-model search, with or without a head cycle.  The contradictory
set L_P is modeled explicitly: it is an answer set exactly when the
program's NAF-free part has no integrity constraint and no consistent
set satisfies it, which the same search run on that part decides.  The
search keeps its branches on an explicit stack, so no recursion limit
bounds its depth.

An AnswerSetResult is the layout, the consistent masks, the L_P flag
and the AND and OR of the masks.  answer_sets' 64-entry cache holds
these, and a result decodes its Interpretations only when its sets are
first read.  consistent, entails and credulous_holds are bit tests on
the AND and OR masks.
"""

from __future__ import annotations

import functools
from collections import OrderedDict
from dataclasses import dataclass

from ..config import DEFAULT_CONFIG, RunConfig
from ..core import AbdukitError, Literal, Program, Rule, ground
from . import kernel_py as _kernel
from .encode import encode

# the one kernel; both names stay for callers that report or wrap it
KERNEL_NAME: str = _kernel.NAME


class NonGroundRule(AbdukitError):
    """A rule with variables (or leftover builtins) reached the solver."""


class CandidateBudgetExceeded(AbdukitError):
    """The ground literal universe is larger than the configured cap."""


@dataclass(frozen=True)
class Interpretation:
    """A set of ground literals, or the contradictory marker L_P."""

    literals: frozenset[Literal] = frozenset()
    marker: bool = False

    def __post_init__(self) -> None:
        if self.marker:
            if self.literals:
                raise ValueError("the contradictory marker carries no literal set")
            return
        for lit in self.literals:
            if lit.complement() in self.literals:
                raise ValueError(
                    "interpretation contains the complementary pair %s / %s"
                    % (lit, lit.complement())
                )

    def contains(self, literal: Literal) -> bool:
        return self.marker or literal in self.literals

    def key(self):
        if self.marker:
            return (1, 0, ())
        return (0, len(self.literals), tuple(sorted(l.key() for l in self.literals)))

    def __str__(self) -> str:
        if self.marker:
            return "L_P"
        return "{%s}" % ", ".join(str(l) for l in sorted(self.literals, key=Literal.key))


CONTRADICTORY = Interpretation(marker=True)


class AnswerSetResult:
    """Answer sets, smallest first, L_P last when it is one.

    The consistent sets are masks over layout, in the kernel's order,
    with their AND (every; all bits set when there is none) and OR
    (some).  sets decodes them into Interpretations when first read.
    """

    __slots__ = ("layout", "masks", "contains_contradictory", "every", "some", "_bits", "_sets")

    def __init__(self, layout: tuple[Literal, ...], masks: tuple[int, ...], contradictory: bool):
        every, some = -1, 0
        for m in masks:
            every &= m
            some |= m
        init = object.__setattr__
        init(self, "layout", layout)
        init(self, "masks", masks)
        init(self, "contains_contradictory", contradictory)
        init(self, "every", every)
        init(self, "some", some)
        init(self, "_bits", None)
        init(self, "_sets", None)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("AnswerSetResult is immutable")

    def bit(self, literal: Literal) -> int:
        """literal's bit, or 0 when no consistent answer set can hold it."""
        if self._bits is None:
            bits = {lit: 1 << i for i, lit in enumerate(self.layout)}
            object.__setattr__(self, "_bits", bits)
        return self._bits.get(literal, 0)

    def decode(self, mask: int) -> frozenset[Literal]:
        out = []
        while mask:
            low = mask & -mask
            out.append(self.layout[low.bit_length() - 1])
            mask ^= low
        return frozenset(out)

    def select(self, masks: tuple[int, ...]) -> AnswerSetResult:
        """These masks over the same layout, without L_P; the bit table is
        shared."""
        out = AnswerSetResult(self.layout, masks, False)
        object.__setattr__(out, "_bits", self._bits)
        return out

    @property
    def sets(self) -> tuple[Interpretation, ...]:
        if self._sets is None:
            sets = [Interpretation(self.decode(m)) for m in self.masks]
            sets.sort(key=Interpretation.key)
            if self.contains_contradictory:
                sets.append(CONTRADICTORY)
            object.__setattr__(self, "_sets", tuple(sets))
        return self._sets

    def __eq__(self, other) -> bool:
        if not isinstance(other, AnswerSetResult):
            return NotImplemented
        return (self.sets, self.contains_contradictory) == (other.sets, other.contains_contradictory)

    def __hash__(self) -> int:
        return hash((self.sets, self.contains_contradictory))

    def __repr__(self) -> str:
        return "AnswerSetResult(sets=%r, contains_contradictory=%r)" % (
            self.sets,
            self.contains_contradictory,
        )

    @property
    def consistent_sets(self) -> tuple[Interpretation, ...]:
        return tuple(s for s in self.sets if not s.marker)

    @property
    def has_consistent(self) -> bool:
        return bool(self.masks)

    def __str__(self) -> str:
        if not self.sets:
            return "(no answer sets)"
        return "\n".join(str(s) for s in self.sets)


def _check_solver_rule(r: Rule) -> None:
    if r.variables():
        raise NonGroundRule("rule has variables: %s" % r)
    if r.builtins():
        raise NonGroundRule("rule has unevaluated builtins: %s" % r)


# least recently used entries go first once the bound is reached
_CACHE_SIZE = 64
_CACHE: OrderedDict[frozenset[Rule], AnswerSetResult] = OrderedDict()


def answer_sets(p: Program, config: RunConfig | None = None) -> AnswerSetResult:
    """All answer sets of a ground program, smallest first, marker last."""
    cfg = config or DEFAULT_CONFIG
    cached = _CACHE.get(p.rules)
    if cached is None:
        # a cached program passed this check when it was solved
        for r in p.rules:
            _check_solver_rule(r)
    occurring = p.literals()
    if len(occurring) > cfg.max_universe:
        raise CandidateBudgetExceeded(
            "%d ground literals occur, max_universe is %d"
            % (len(occurring), cfg.max_universe)
        )
    if cached is not None:
        _CACHE.move_to_end(p.rules)
        return cached
    enc = encode(p)
    masks, contradictory = _kernel.enumerate_answer_sets(
        enc.forced,
        enc.free_mask,
        enc.conflict_first,
        enc.heads,
        enc.poss,
        enc.nafs,
        enc.notfree,
        enc.has_naf_free_constraint,
    )
    for m in masks:
        clash = m & (m >> 1) & enc.conflict_first
        if clash:
            i = (clash & -clash).bit_length() - 1
            raise ValueError(
                "answer set contains the complementary pair %s / %s"
                % (enc.layout[i], enc.layout[i + 1])
            )
    result = AnswerSetResult(enc.layout, tuple(masks), contradictory)
    _CACHE[p.rules] = result
    if len(_CACHE) > _CACHE_SIZE:
        _CACHE.popitem(last=False)
    return result


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _ground_cached(p: Program, cfg: RunConfig) -> Program:
    """ground(p) for the reads below, which ask one program again and
    again; its rules are the key answer_sets caches the result under."""
    return ground(p, config=cfg)


def _solved(p: Program, config: RunConfig | None) -> AnswerSetResult:
    cfg = config or DEFAULT_CONFIG
    return answer_sets(_ground_cached(p, cfg), cfg)


def consistent(p: Program, config: RunConfig | None = None) -> bool:
    """Whether p has a consistent answer set.  Grounds internally."""
    return _solved(p, config).has_consistent


def entails(p: Program, literal: Literal, config: RunConfig | None = None) -> bool:
    """literal belongs to every answer set (vacuously true with none).
    L_P holds every literal, so only the consistent sets can refute it."""
    r = _solved(p, config)
    bit = r.bit(literal)
    return bool(r.every & bit) if bit else not r.masks


def credulous_holds(p: Program, literal: Literal, config: RunConfig | None = None) -> bool:
    """literal belongs to some consistent answer set."""
    r = _solved(p, config)
    return bool(r.some & r.bit(literal))


_REFERENCE_LIMIT = 16


def reference_answer_sets(p: Program) -> AnswerSetResult:
    """Brute force straight off the definitions, for cross-checking.

    Enumerates every subset of the occurring literals; no head-zone
    restriction, no forced core, no rule dropping.  Bounded to 16
    literals.  The result's masks are laid out over the occurring
    literals in key order.
    """
    occ = sorted(p.literals(), key=Literal.key)
    if len(occ) > _REFERENCE_LIMIT:
        raise AbdukitError(
            "reference solver is bounded to %d occurring literals" % _REFERENCE_LIMIT
        )
    index = {l: i for i, l in enumerate(occ)}

    def consistent_mask(m: int) -> bool:
        for i, l in enumerate(occ):
            if m >> i & 1:
                j = index.get(l.complement())
                if j is not None and m >> j & 1:
                    return False
        return True

    rule_masks = []
    for r in p.sorted_rules():
        _check_solver_rule(r)
        head = sum(1 << index[l] for l in r.head)
        pos = sum(1 << index[l] for l in r.body_pos())
        naf = sum(1 << index[l] for l in r.body_naf())
        rule_masks.append((head, pos, naf, r.is_naf_free))

    def satisfies_reduct(m: int, wrt: int) -> bool:
        for head, pos, naf, _ in rule_masks:
            if naf & wrt:
                continue  # dropped by the reduct
            if pos & ~m == 0 and head & m == 0:
                return False
        return True

    found: list[int] = []
    for m in range(1 << len(occ)):
        if not consistent_mask(m):
            continue
        if not satisfies_reduct(m, m):
            continue
        minimal = True
        if m:
            sub = (m - 1) & m
            while True:
                if consistent_mask(sub) and satisfies_reduct(sub, m):
                    minimal = False
                    break
                if sub == 0:
                    break
                sub = (sub - 1) & m
        if not minimal:
            continue
        found.append(m)

    # the contradictory set: satisfies the reduct-by-L_P iff the NAF-free
    # part has no constraint; minimal iff that part has no consistent model
    nf_constraint = any(flag and head == 0 for head, _, _, flag in rule_masks)
    contradictory = False
    if not nf_constraint:
        exists = False
        for m in range(1 << len(occ)):
            if not consistent_mask(m):
                continue
            ok = True
            for head, pos, naf, flag in rule_masks:
                if flag and pos & ~m == 0 and head & m == 0:
                    ok = False
                    break
            if ok:
                exists = True
                break
        contradictory = not exists
    return AnswerSetResult(tuple(occ), tuple(found), contradictory)
