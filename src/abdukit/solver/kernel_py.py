"""The answer-set kernel: enumerate the answer sets of an encoded program.

One search serves every program.  It guesses only the literals that
occur under NAF once each disjunctive head is shifted into NAF, and
bounds every guess from below and above by least models (Gelfond &
Lifschitz 1991).  A head-cycle-free program (no two literals of one
disjunctive head depend positively on each other) keeps its answer sets
under that shift (Ben-Eliyahu & Dechter 1994), so each complete guess
yields the least model of the reduct it selects.  Any other program
yields one candidate per complete guess, kept when no proper subset of
it is a model of its reduct.  The contradictory set is an answer set
when no consistent one is, the NAF-free rules include no constraint and
they have no consistent model; the same search over those rules alone
decides that, stopping at its first answer set.  The search keeps its
open branches on an explicit stack, so its depth has no recursion bound.
Masks are Python ints, so the head zone has no width limit.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterator, Sequence

NAME = "python"


def enumerate_answer_sets(
    forced: int,
    free_mask: int,
    conflict_first: int,
    heads: Sequence[int],
    poss: Sequence[int],
    nafs: Sequence[int],
    notfree: Sequence[int],
    has_naf_free_constraint: bool,
) -> tuple[list[int], bool]:
    """Enumerate answer-set masks over the head zone.

    Returns (masks of consistent answer sets, largest first, and whether
    the contradictory set is an answer set).  forced is the least model
    of the NAF-free single-head rules, free_mask the rest of the head
    zone, and conflict_first marks the positive bit of each
    complementary pair.  The contradictory set is an answer set when the
    NAF-free rules (notfree) include no constraint and have no
    consistent model.  They have one exactly when they have a consistent
    minimal model, an answer set of theirs, so the same search run on
    them alone decides it at its first answer set.
    """
    found = _least_models(forced, free_mask, conflict_first, heads, poss, nafs)
    answers = sorted(found, reverse=True)
    contradictory = False
    # a consistent answer set is a consistent model of the NAF-free rules
    if not has_naf_free_constraint and not answers:
        nf_heads, nf_poss = list(compress(heads, notfree)), list(compress(poss, notfree))
        nf_nafs = [0] * len(nf_heads)
        first = _least_models(forced, free_mask, conflict_first, nf_heads, nf_poss, nf_nafs)
        contradictory = next(first, None) is None
    return answers, contradictory


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        bit = mask & -mask
        out.append(bit)
        mask ^= bit
    return out


def _head_cycle_free(heads: Sequence[int], poss: Sequence[int]) -> bool:
    """Whether no two bits of one head reach each other along the
    positive dependency edges (head bit -> positive-body bit)."""
    disjunctive = [head for head in heads if head & (head - 1)]
    if not disjunctive:
        return True
    reach: dict[int, int] = {}
    for head, pos in zip(heads, poss):
        if pos:
            for bit in _bits(head):
                reach[bit] = reach.get(bit, 0) | pos
    # transitive closure, one intermediate bit at a time (Warshall)
    for k in list(reach):
        reach_k = reach[k]
        for i, reach_i in reach.items():
            if reach_i & k:
                reach[i] = reach_i | reach_k
    for head in disjunctive:
        bits = _bits(head)
        for i, a in enumerate(bits):
            for b in bits[i + 1 :]:
                if reach.get(a, 0) & b and reach.get(b, 0) & a:
                    return False
    return True


def _least_models(
    forced: int,
    free_mask: int,
    conflict_first: int,
    heads: Sequence[int],
    poss: Sequence[int],
    nafs: Sequence[int],
) -> Iterator[int]:
    """Yield the consistent answer sets of a program, one at a time.

    Branches on the guessed bits one at a time, "true" before "false",
    depth first from an explicit stack of partial guesses (true, false),
    so no recursion bounds the depth.  Under a partial guess, the
    shifted rules whose NAF bits are all guessed false fire in every
    completion, so their least model `lower` is in every answer set it
    leads to.  The rules no true bit blocks may fire, so their least
    model `upper` bounds every such answer set; a program with a head
    cycle takes these rules unshifted, since minimality keeps an answer
    set inside their closure.  An open bit in `lower` must be true and
    one outside `upper` false; a guess that contradicts either bound, or
    makes `lower` inconsistent, or leaves a constraint violated whatever
    the open bits are, has no answer set.  Once no bit is open, a
    head-cycle-free program has lower == upper, the least model of the
    reduct the guess selects, and an answer set.  Any other program has
    one candidate, the guess closed under the single-head rules it does
    not block; it is kept when it agrees with the guess, is consistent, is
    a model of its reduct and no proper subset above forced is (Leone,
    Rullo & Scarcello 1997).
    """
    constraints: list[tuple[int, int]] = []
    shifted: list[tuple[int, int, int]] = []
    disjunctive = 0
    for head, pos, naf in zip(heads, poss, nafs):
        if head == 0:
            constraints.append((pos, naf))
        else:
            for bit in _bits(head):
                shifted.append((bit, pos, naf | (head ^ bit)))
            if head & (head - 1):
                disjunctive |= head
    hcf = _head_cycle_free(heads, poss)
    rules = list(zip(heads, poss, nafs))
    bounding = shifted if hcf else [rule for rule in rules if rule[0]]
    guess = 0
    for _, _, naf in shifted:
        guess |= naf
    guess &= free_mask
    stack = [(forced, 0)]
    while stack:
        true, false = stack.pop()
        while True:
            lower = _closure(forced, [(h, p) for h, p, naf in shifted if naf & ~false == 0])
            upper = _closure(forced, [(h, p) for h, p, naf in bounding if naf & true == 0])
            dead = (
                lower & false
                or true & ~upper
                or lower & (lower >> 1) & conflict_first
                or any(pos & ~lower == 0 and naf & upper & ~false == 0 for pos, naf in constraints)
            )
            undecided = guess & ~(true | false)
            if dead or not undecided & (lower | ~upper):
                break
            true |= undecided & lower
            false |= undecided & ~upper
        if dead:
            continue
        if undecided:
            bit = undecided & -undecided
            stack.append((true, false | bit))
            stack.append((true | bit, false))
        elif hcf:
            yield lower
        else:
            # the shifted rules hold disjunctive head bits under NAF, so the
            # guess has set them and single-head rules close it
            single = [(h, p) for h, p, naf in rules if naf & true == 0 and not h & (h - 1)]
            m = _closure(true, single)
            if m & false or m & (m >> 1) & conflict_first:
                continue
            reduct = [(h, p) for h, p, naf in rules if naf & m == 0]
            if _is_model(m, reduct) and _is_minimal(m, forced, disjunctive, reduct):
                yield m


def _closure(model: int, rules: list[tuple[int, int]]) -> int:
    """The least superset of model closed under the definite rules."""
    while True:
        before = model
        for head, pos in rules:
            if pos & ~model == 0:
                model |= head
        if model == before:
            return model


def _is_model(model: int, rules: list[tuple[int, int]]) -> bool:
    """Whether model satisfies every NAF-free rule (head, pos)."""
    for head, pos in rules:
        if pos & ~model == 0 and head & model == 0:
            return False
    return True


def _is_minimal(model: int, forced: int, disjunctive: int, reduct: list[tuple[int, int]]) -> bool:
    """Whether no proper subset of model is a model of the reduct.

    Such a subset holds forced and is closed under the reduct's
    single-head rules, and it stays a model when cut down to the least
    such set that keeps its bits of disjunctive heads.  So only the
    closures of forced and each submask of those bits are tested.
    """
    definite = [(head, pos) for head, pos in reduct if not head & (head - 1)]
    choices = model & disjunctive & ~forced
    y = choices
    while True:
        sub = _closure(forced | y, definite)
        if sub != model and _is_model(sub, reduct):
            return False
        if y == 0:
            return True
        y = (y - 1) & choices
