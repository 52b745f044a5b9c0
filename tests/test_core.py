from __future__ import annotations

import gc
import weakref

import pytest

from abdukit.config import RunConfig
from abdukit.core import (
    Atom,
    Builtin,
    GroundingBudgetExceeded,
    Literal,
    NafLiteral,
    NoConstants,
    Program,
    Rule,
    canonical_form,
    const,
    constraint,
    fact,
    ground,
    integer,
    literal_universe,
    program_diff,
    program_union,
    var,
)


def lit(name, *args, positive=True):
    return Literal(Atom(name, tuple(args)), positive)


def pos(l):
    return NafLiteral(l, naf=False)


def naf(l):
    return NafLiteral(l, naf=True)


def test_term_rendering():
    assert str(const("tweety")) == "tweety"
    assert str(integer(35)) == "35"
    assert str(var("X")) == "X"
    assert integer(35).value == 35


def test_literal_complement_and_str():
    p = lit("p", const("a"))
    assert str(p) == "p(a)"
    assert str(p.complement()) == "-p(a)"
    assert p.complement().complement() == p


def test_rule_rendering():
    r = Rule(
        head=[lit("p"), lit("q")],
        body=[pos(lit("a")), naf(lit("b"))],
    )
    assert str(r) == "p ; q :- a, not b."
    assert str(fact(lit("p"))) == "p."
    assert str(constraint([pos(lit("a"))])) == ":- a."
    assert str(Rule(head=[lit("r")], body=[Builtin("<", var("X"), integer(3))])) == "r :- X < 3."


def test_rule_classification():
    f = fact(lit("p"))
    assert f.is_fact and not f.is_constraint
    c = constraint([pos(lit("a"))])
    assert c.is_constraint and not c.is_fact
    r = Rule(head=[lit("p")], body=[naf(lit("q"))])
    assert not r.is_naf_free
    assert r.body_naf() == frozenset([lit("q")])
    assert r.body_pos() == frozenset()


def test_canonical_form_identifies_variants():
    a = Rule(head=[lit("p", var("X"), var("Y"))], body=[pos(lit("q", var("Y"), var("X")))])
    b = Rule(head=[lit("p", var("U"), var("W"))], body=[pos(lit("q", var("W"), var("U")))])
    assert canonical_form(a) == canonical_form(b)
    assert Program([a, b]).rules == Program([a]).rules


def test_canonicalized_rules_are_freed_without_the_cycle_collector():
    ground_rule = Rule(head=[lit("p", const("a"))], body=[pos(lit("q", const("a")))])
    pattern = Rule(head=[lit("p", var("X"))], body=[pos(lit("q", var("X")))])
    canon = canonical_form(pattern)
    assert canonical_form(ground_rule) is ground_rule
    assert canonical_form(canon) is canon
    assert canonical_form(pattern) is canon
    refs = [weakref.ref(r) for r in (ground_rule, pattern, canon)]
    gc.disable()
    try:
        del ground_rule, pattern, canon
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        gc.enable()


def test_program_contains_uses_canonical_membership():
    a = Rule(head=[lit("p", var("X"))], body=[pos(lit("q", var("X")))])
    b = Rule(head=[lit("p", var("Z"))], body=[pos(lit("q", var("Z")))])
    p = Program([a])
    assert b in p
    assert len(p) == 1


def test_ground_basic():
    p = Program(
        [
            Rule(head=[lit("flies", var("X"))], body=[pos(lit("bird", var("X")))]),
            fact(lit("bird", const("tweety"))),
            fact(lit("bird", const("opus"))),
        ]
    )
    g = ground(p)
    assert g.is_ground
    rendered = {str(r) for r in g}
    assert "flies(tweety) :- bird(tweety)." in rendered
    assert "flies(opus) :- bird(opus)." in rendered
    # cross instances exist too: programs are identified with full instantiations
    assert "flies(tweety) :- bird(opus)." not in rendered


def test_ground_builtin_evaluation():
    p = Program(
        [
            Rule(
                head=[lit("young", var("X"))],
                body=[pos(lit("age", var("X"), var("Y"))), Builtin("<", var("Y"), integer(40))],
            ),
            fact(lit("age", const("john"), integer(35))),
        ]
    )
    g = ground(p)
    rendered = {str(r) for r in g}
    assert "young(john) :- age(john,35)." in rendered
    # non-integer operands make order comparisons false: no young(35) via Y=john
    assert not any("Y" in s or "john < " in s for s in rendered)


def test_ground_equality_builtins():
    p = Program(
        [
            Rule(head=[lit("same", var("X"))], body=[Builtin("=", var("X"), const("a"))]),
            Rule(head=[lit("diff", var("X"))], body=[Builtin("!=", var("X"), const("a"))]),
            fact(lit("dom", const("a"))),
            fact(lit("dom", const("b"))),
        ]
    )
    rendered = {str(r) for r in ground(p)}
    assert "same(a)." in rendered
    assert "same(b)." not in rendered
    assert "diff(b)." in rendered
    assert "diff(a)." not in rendered


def test_ground_no_constants():
    p = Program([Rule(head=[lit("p", var("X"))], body=[pos(lit("q", var("X")))])])
    with pytest.raises(NoConstants):
        ground(p)
    # extra constants rescue it
    g = ground(p, extra_constants=[const("a")])
    assert len(g) == 1


def test_ground_budget():
    rules = [
        Rule(head=[lit("e", var("X"), var("Y"), var("Z"))], body=[pos(lit("d", var("X")))]),
    ] + [fact(lit("d", const("c%d" % i))) for i in range(20)]
    with pytest.raises(GroundingBudgetExceeded):
        ground(Program(rules), config=RunConfig(max_ground_rules=100))


def test_constants_exclude_builtin_operands():
    p = Program(
        [
            Rule(head=[lit("q")], body=[pos(lit("p", var("X"))), Builtin("<", var("X"), integer(3))]),
            fact(lit("p", integer(1))),
            fact(lit("p", integer(5))),
        ]
    )
    assert p.constants() == frozenset([integer(1), integer(5)])
    rendered = {str(r) for r in ground(p)}
    assert "q :- p(1)." in rendered
    assert "q :- p(5)." not in rendered


def test_union_and_diff_on_ground_instantiations():
    p = Program([Rule(head=[lit("p", var("X"))], body=[])])
    q = Program([fact(lit("p", const("a"))), fact(lit("q", const("b")))])
    u = program_union(p, q)
    assert fact(lit("p", const("b"))) in u
    d = program_diff(p, q)
    assert d.rules == frozenset([fact(lit("p", const("b")))])


def test_literal_universe_both_polarities():
    p = Program(
        [
            Rule(head=[lit("p", positive=False)], body=[pos(lit("q"))]),
            fact(lit("q")),
        ]
    )
    # in Literal.key order: positive literals first
    assert literal_universe(p) == (
        lit("p"),
        lit("q"),
        lit("p", positive=False),
        lit("q", positive=False),
    )


def test_literal_universe_with_constants():
    p = Program([fact(lit("p", const("a"))), fact(lit("q", const("b")))])
    u = literal_universe(p)
    assert lit("p", const("b")) in u
    assert lit("q", const("a"), positive=False) in u
    assert len(u) == 8
