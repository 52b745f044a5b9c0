"""The answer-set kernel: enumerate the answer sets of an encoded program.

A head-cycle-free program (no two literals of one disjunctive head
depend positively on each other) is shifted into a normal one, which
keeps its answer sets (Ben-Eliyahu & Dechter 1994).  Its answer sets are
then found by least models: guess only the literals that occur under
NAF, take the least model of the reduct the guess selects, and keep it
when it agrees with the guess, is consistent and meets every constraint
(Gelfond & Lifschitz 1991).  Any other program goes to the
generate-and-test loop _generate_and_test, which tests every candidate
set and scans its subsets for minimality; the tests also run it as the
oracle the search must match.  The contradictory set is an answer set
when the NAF-free rules include no constraint and have no consistent
model: when none of them is disjunctive that means `forced` is
inconsistent, and otherwise only the free bits of their heads are
searched.  Masks are Python ints, so the head zone has no width limit.
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
    if not _head_cycle_free(heads, poss):
        return _generate_and_test(
            forced, free_mask, conflict_first, heads, poss, nafs, notfree,
            has_naf_free_constraint,
        )
    answers: list[int] = []
    if forced & (forced >> 1) & conflict_first == 0:
        answers = _least_models(forced, free_mask, conflict_first, heads, poss, nafs)
    contradictory = False
    if not has_naf_free_constraint:
        if any(flag and head & (head - 1) for head, flag in zip(heads, notfree)):
            rules = list(zip(heads, poss, nafs, notfree))
            contradictory = not _has_consistent_model(forced, free_mask, conflict_first, rules)
        else:
            # the NAF-free rules are definite: forced is their least model
            contradictory = forced & (forced >> 1) & conflict_first != 0
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
    """Consistent answer sets of a head-cycle-free program whose forced
    core is consistent, largest mask first.

    Branches on the guessed bits one at a time.  Under a partial guess
    (true, false), the rules whose NAF bits are all guessed false fire in
    every completion, so their least model `lower` is in every answer set
    it leads to; the rules no true bit blocks may fire, so their least
    model `upper` bounds every such answer set.  An open bit in `lower`
    must be true and one outside `upper` false; a guess that contradicts
    either bound, or makes `lower` inconsistent, or leaves a constraint
    violated whatever the open bits are, has no answer set.  Once no bit
    is open, lower == upper is the least model of the reduct the guess
    selects, and an answer set.
    """
    constraints: list[tuple[int, int]] = []
    shifted: list[tuple[int, int, int]] = []
    for head, pos, naf in zip(heads, poss, nafs):
        if head == 0:
            constraints.append((pos, naf))
        else:
            for bit in _bits(head):
                shifted.append((bit, pos, naf | (head ^ bit)))
    guess = 0
    for _, _, naf in shifted:
        guess |= naf
    guess &= free_mask
    answers: list[int] = []

    def search(true: int, false: int) -> None:
        while True:
            lower = _closure(forced, [(h, p) for h, p, naf in shifted if naf & ~false == 0])
            upper = _closure(forced, [(h, p) for h, p, naf in shifted if naf & true == 0])
            if lower & false or true & ~upper or lower & (lower >> 1) & conflict_first:
                return
            if any(pos & ~lower == 0 and naf & upper & ~false == 0 for pos, naf in constraints):
                return
            undecided = guess & ~(true | false)
            if not undecided & (lower | ~upper):
                break
            true |= undecided & lower
            false |= undecided & ~upper
        if undecided == 0:
            answers.append(lower)
            return
        bit = undecided & -undecided
        search(true | bit, false)
        search(true, false | bit)

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


def _has_consistent_model(forced: int, free_mask: int, conflict_first: int, rules) -> bool:
    """Whether some consistent set above forced satisfies every NAF-free rule.

    Such a model cut down to forced plus the NAF-free heads is still one,
    so only the free bits of those heads are enumerated.
    """
    if forced & (forced >> 1) & conflict_first:
        return False
    naf_free_heads = 0
    for head, _, _, flag in rules:
        if flag:
            naf_free_heads |= head
    mask = free_mask & naf_free_heads
    s = mask
    while True:
        cand = forced | s
        if cand & (cand >> 1) & conflict_first == 0:
            for head, pos, naf, flag in rules:
                if flag and pos & ~cand == 0 and head & cand == 0:
                    break
            else:
                return True
        if s == 0:
            return False
        s = (s - 1) & mask


def _generate_and_test(
    forced: int,
    free_mask: int,
    conflict_first: int,
    heads: Sequence[int],
    poss: Sequence[int],
    nafs: Sequence[int],
    notfree: Sequence[int],
    has_naf_free_constraint: bool,
) -> tuple[list[int], bool]:
    """Generate and test, for any program.

    Candidates are forced | s for every submask s of free_mask; a
    candidate is an answer set when it satisfies every rule and no
    proper subset above `forced` satisfies its reduct.
    """
    rules = list(zip(heads, poss, nafs, notfree))
    answers: list[int] = []

    if forced & (forced >> 1) & conflict_first == 0:
        s = free_mask
        while True:
            cand = forced | s
            if cand & (cand >> 1) & conflict_first == 0:
                ok = True
                for head, pos, naf, _ in rules:
                    if naf & cand == 0 and pos & ~cand == 0 and head & cand == 0:
                        ok = False
                        break
                if ok and _is_minimal(cand, s, forced, rules):
                    answers.append(cand)
            if s == 0:
                break
            s = (s - 1) & free_mask

    contradictory = False
    if not has_naf_free_constraint:
        contradictory = not _has_consistent_model(forced, free_mask, conflict_first, rules)
    return answers, contradictory


def _is_minimal(cand: int, s: int, forced: int, rules) -> bool:
    if s == 0:
        return True
    reduct = [(h, p) for h, p, naf, _ in rules if naf & cand == 0]
    y = (s - 1) & s
    while True:
        sub = forced | y
        ok = True
        for head, pos in reduct:
            if pos & ~sub == 0 and head & sub == 0:
                ok = False
                break
        if ok:
            return False
        if y == 0:
            break
        y = (y - 1) & s
    return True
