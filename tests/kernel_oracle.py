"""Generate and test over an encoded program: the oracle the kernel's
search must match.

It takes the arguments of kernel_py.enumerate_answer_sets and returns
what that returns, but straight off the definitions over the head zone:
every candidate forced | s, for s a submask of free_mask, that is
consistent, satisfies every rule it does not block by NAF, and has no
proper subset above forced satisfying its reduct, is an answer set.  The
contradictory set is one when the NAF-free rules include no constraint
and no consistent candidate satisfies them all.  Every candidate is
visited, so keep the free bits to about 16.
"""

from __future__ import annotations

from typing import Sequence


def generate_and_test(
    forced: int,
    free_mask: int,
    conflict_first: int,
    heads: Sequence[int],
    poss: Sequence[int],
    nafs: Sequence[int],
    notfree: Sequence[int],
    has_naf_free_constraint: bool,
) -> tuple[list[int], bool]:
    rules = list(zip(heads, poss, nafs))
    naf_free = [rule for rule, flag in zip(rules, notfree) if flag]
    answers: list[int] = []
    model_of_naf_free = False
    for s in _submasks(free_mask):
        cand = forced | s
        if cand & (cand >> 1) & conflict_first:
            continue
        model_of_naf_free = model_of_naf_free or _satisfies(cand, naf_free, 0)
        if _satisfies(cand, rules, cand) and not any(
            _satisfies(forced | y, rules, cand) for y in _submasks(s) if y != s
        ):
            answers.append(cand)
    return answers, not has_naf_free_constraint and not model_of_naf_free


def _submasks(mask: int):
    """Every submask of mask, largest first."""
    s = mask
    while True:
        yield s
        if s == 0:
            return
        s = (s - 1) & mask


def _satisfies(model: int, rules, wrt: int) -> bool:
    """Whether model satisfies the reduct of rules by wrt."""
    for head, pos, naf in rules:
        if naf & wrt == 0 and pos & ~model == 0 and head & model == 0:
            return False
    return True
