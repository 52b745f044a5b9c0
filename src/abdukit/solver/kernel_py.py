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
they have no consistent model, which one search over the free bits of
their heads decides, starting from `forced`.  Masks are Python ints, so
the head zone has no width limit.
"""

from __future__ import annotations

from typing import Sequence

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
    consistent model.
    """
    answers: list[int] = []
    if forced & (forced >> 1) & conflict_first == 0:
        answers = _least_models(forced, free_mask, conflict_first, heads, poss, nafs)
    contradictory = False
    # a consistent answer set is a consistent model of the NAF-free rules
    if not has_naf_free_constraint and not answers:
        naf_free = [(head, pos) for head, pos, flag in zip(heads, poss, notfree) if flag]
        contradictory = not _has_consistent_model(forced, free_mask, conflict_first, naf_free)
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
) -> list[int]:
    """Consistent answer sets of a program whose forced core is
    consistent, largest mask first.

    Branches on the guessed bits one at a time.  Under a partial guess
    (true, false), the shifted rules whose NAF bits are all guessed false
    fire in every completion, so their least model `lower` is in every
    answer set it leads to.  The rules no true bit blocks may fire, so
    their least model `upper` bounds every such answer set; a program
    with a head cycle takes these rules unshifted, since minimality keeps
    an answer set inside their closure.  An open bit in `lower` must be
    true and one outside `upper` false; a guess that contradicts either
    bound, or makes `lower` inconsistent, or leaves a constraint violated
    whatever the open bits are, has no answer set.  Once no bit is open,
    a head-cycle-free program has lower == upper, the least model of the
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
    answers: list[int] = []

    def search(true: int, false: int) -> None:
        while True:
            lower = _closure(forced, [(h, p) for h, p, naf in shifted if naf & ~false == 0])
            upper = _closure(forced, [(h, p) for h, p, naf in bounding if naf & true == 0])
            if lower & false or true & ~upper or lower & (lower >> 1) & conflict_first:
                return
            if any(pos & ~lower == 0 and naf & upper & ~false == 0 for pos, naf in constraints):
                return
            undecided = guess & ~(true | false)
            if not undecided & (lower | ~upper):
                break
            true |= undecided & lower
            false |= undecided & ~upper
        if undecided:
            bit = undecided & -undecided
            search(true | bit, false)
            search(true, false | bit)
        elif hcf:
            answers.append(lower)
        else:
            # the shifted rules hold disjunctive head bits under NAF, so the
            # guess has set them and single-head rules close it
            single = [(h, p) for h, p, naf in rules if naf & true == 0 and not h & (h - 1)]
            m = _closure(true, single)
            if m & false or m & (m >> 1) & conflict_first:
                return
            reduct = [(h, p) for h, p, naf in rules if naf & m == 0]
            if _is_model(m, reduct) and _is_minimal(m, forced, disjunctive, reduct):
                answers.append(m)

    search(forced, 0)
    answers.sort(reverse=True)
    return answers


def _closure(model: int, rules: list[tuple[int, int]]) -> int:
    """The least superset of model closed under the definite rules."""
    while True:
        before = model
        for head, pos in rules:
            if pos & ~model == 0:
                model |= head
        if model == before:
            return model


def _has_consistent_model(
    forced: int, free_mask: int, conflict_first: int, naf_free: list[tuple[int, int]]
) -> bool:
    """Whether some consistent set above forced satisfies every NAF-free rule.

    Such a model cut down to forced plus the NAF-free heads is still one,
    so only the free bits of those heads are enumerated, upward from
    forced itself: when the NAF-free rules are definite, forced is their
    least model and the first test decides.
    """
    if forced & (forced >> 1) & conflict_first:
        return False
    naf_free_heads = 0
    for head, _ in naf_free:
        naf_free_heads |= head
    mask = free_mask & naf_free_heads
    s = 0
    while True:
        cand = forced | s
        if cand & (cand >> 1) & conflict_first == 0 and _is_model(cand, naf_free):
            return True
        s = (s - mask) & mask
        if s == 0:
            return False


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
