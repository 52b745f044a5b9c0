"""Bitmask encoding of a ground program for the answer-set kernel.

Only possibly-derivable literals get a bit: those in the least set closed
under every rule with its NAF body ignored.  No answer set, and no
candidate the kernel tests, leaves that set.  A rule whose positive body
leaves it can never fire and is dropped, so the layout is exactly the
heads of the rules that remain, and NAF literals outside it are stripped
from NAF masks.  Layout: complementary pairs whose two literals are both
derivable sit at adjacent bit positions (positive literal on the even
bit), then the remaining derivable literals.  Masks are Python ints, so
the layout has no bit ceiling; only the solver's max_universe bounds it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import Literal, Program
from .kernel_py import _closure


@dataclass(frozen=True)
class Encoding:
    layout: tuple[Literal, ...]
    forced: int
    free_mask: int
    conflict_first: int
    heads: tuple[int, ...]
    poss: tuple[int, ...]
    nafs: tuple[int, ...]
    notfree: tuple[int, ...]
    has_naf_free_constraint: bool


def encode(program: Program) -> Encoding:
    rules = program.sorted_rules()
    # L_P violates every NAF-free constraint of the input, fireable or not
    has_nf_constraint = any(r.is_constraint and r.is_naf_free for r in rules)
    # forward chaining with NAF ignored: missing[i] counts the positive
    # body literals of rule i not yet derived
    derivable: set[Literal] = set()
    missing: list[int] = []
    waiting_on: dict[Literal, list[int]] = {}
    ready: list[int] = []
    for i, r in enumerate(rules):
        pos = r.body_pos()
        missing.append(len(pos))
        for lit in pos:
            waiting_on.setdefault(lit, []).append(i)
        if not pos:
            ready.append(i)
    while ready:
        for lit in rules[ready.pop()].head - derivable:
            derivable.add(lit)
            for j in waiting_on.get(lit, ()):
                missing[j] -= 1
                if not missing[j]:
                    ready.append(j)
    rules = [r for r, m in zip(rules, missing) if not m]

    paired_atoms = sorted(
        {l.atom for l in derivable if l.complement() in derivable and l.positive},
        key=lambda a: a.key(),
    )
    layout: list[Literal] = []
    conflict_first = 0
    for atom in paired_atoms:
        conflict_first |= 1 << len(layout)
        layout.append(Literal(atom, True))
        layout.append(Literal(atom, False))
    in_pairs = set(layout)
    for lit in sorted(derivable - in_pairs, key=Literal.key):
        layout.append(lit)
    index = {lit: i for i, lit in enumerate(layout)}

    heads: list[int] = []
    poss: list[int] = []
    nafs: list[int] = []
    notfree: list[int] = []
    # constraints first: they are the cheapest early rejections
    for r in sorted(rules, key=lambda r: (not r.is_constraint,)):
        pos = 0
        for lit in r.body_pos():
            pos |= 1 << index[lit]
        head = 0
        for lit in r.head:
            head |= 1 << index[lit]
        naf = 0
        for lit in r.body_naf():
            i = index.get(lit)
            if i is not None:
                naf |= 1 << i
        heads.append(head)
        poss.append(pos)
        nafs.append(naf)
        notfree.append(int(r.is_naf_free))

    # least fixpoint of the NAF-free definite rules: a subset of every
    # satisfier of every reduct, so enumeration can start above it
    definite = [(h, p) for h, p, f in zip(heads, poss, notfree) if f and h and h & (h - 1) == 0]
    forced = _closure(0, definite)
    zone_mask = (1 << len(layout)) - 1
    return Encoding(
        layout=tuple(layout),
        forced=forced,
        free_mask=zone_mask & ~forced,
        conflict_first=conflict_first,
        heads=tuple(heads),
        poss=tuple(poss),
        nafs=tuple(nafs),
        notfree=tuple(notfree),
        has_naf_free_constraint=has_nf_constraint,
    )
