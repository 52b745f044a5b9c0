"""Text format for extended disjunctive programs (.edp).

    rule  := head? (":-" body)? "."
    head  := lit (";" lit)*
    body  := elem ("," elem)*
    elem  := ["not"] lit | term REL term
    lit   := ["-"] ident ["(" term ("," term)* ")"]

"%" starts a comment.  "#abducible <rule>" and "#variable <rule>" register
rules without adding them to the program.  Identifiers are lowercase-first,
variables uppercase-first, integers unsigned.  The "__" prefix is reserved
for internal atoms and rejected in user input.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .core import (
    AbdukitError,
    Atom,
    Builtin,
    Literal,
    NafLiteral,
    Program,
    Rule,
    Term,
    const,
    integer,
    var,
)


class EdpSyntaxError(AbdukitError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__("line %d, column %d: %s" % (line, column, message))
        self.line = line
        self.column = column


class ReservedName(AbdukitError):
    """User input used the internal "__" namespace."""


@dataclass(frozen=True)
class SourceUnit:
    program: Program = field(default_factory=Program)
    abducibles: Program = field(default_factory=Program)
    variable_rules: Program = field(default_factory=Program)


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r\n]+)
  | (?P<comment>%[^\n]*)
  | (?P<arrow>:-)
  | (?P<rel><=|>=|!=|<|>|=)
  | (?P<punct>[().,;#-])
  | (?P<int>\d+)
  | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise EdpSyntaxError("unexpected character %r" % text[pos], line, col)
        kind = m.lastgroup
        chunk = m.group()
        if kind == "word":
            if chunk == "not":
                tokens.append(_Token("not", chunk, line, col))
            elif chunk[0].isupper():
                tokens.append(_Token("var", chunk, line, col))
            elif chunk.startswith("__"):
                raise ReservedName(
                    "line %d, column %d: %r uses the reserved '__' namespace"
                    % (line, col, chunk)
                )
            elif chunk.startswith("_"):
                raise EdpSyntaxError(
                    "identifiers must start with a lowercase letter: %r" % chunk,
                    line,
                    col,
                )
            else:
                tokens.append(_Token("ident", chunk, line, col))
        elif kind == "int":
            tokens.append(_Token("int", chunk, line, col))
        elif kind == "arrow":
            tokens.append(_Token(":-", chunk, line, col))
        elif kind == "rel":
            tokens.append(_Token("rel", chunk, line, col))
        elif kind == "punct":
            tokens.append(_Token(chunk, chunk, line, col))
        # ws and comments are skipped, but still advance line/col below
        for ch in chunk:
            if ch == "\n":
                line += 1
                col = 1
            else:
                col += 1
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def error(self, expected: str) -> EdpSyntaxError:
        tok = self.peek()
        found = "end of input" if tok.kind == "eof" else repr(tok.text)
        return EdpSyntaxError(
            "expected %s but found %s" % (expected, found), tok.line, tok.column
        )

    def expect(self, kind: str, expected: str) -> _Token:
        if self.peek().kind != kind:
            raise self.error(expected)
        return self.next()

    def parse_unit(self) -> SourceUnit:
        rules: list[Rule] = []
        abducibles: list[Rule] = []
        variable_rules: list[Rule] = []
        while self.peek().kind != "eof":
            if self.peek().kind == "#":
                self.next()
                word = self.expect("ident", "'abducible' or 'variable'")
                if word.text == "abducible":
                    abducibles.append(self.parse_rule())
                elif word.text == "variable":
                    variable_rules.append(self.parse_rule())
                else:
                    raise EdpSyntaxError(
                        "unknown directive #%s" % word.text, word.line, word.column
                    )
            else:
                rules.append(self.parse_rule())
        return SourceUnit(Program(rules), Program(abducibles), Program(variable_rules))

    def parse_rule(self) -> Rule:
        head: list[Literal] = []
        body: list = []
        if self.peek().kind not in (":-", "."):
            head.append(self.parse_literal())
            while self.peek().kind == ";":
                self.next()
                head.append(self.parse_literal())
        if self.peek().kind == ":-":
            self.next()
            body.append(self.parse_element())
            while self.peek().kind == ",":
                self.next()
                body.append(self.parse_element())
        if not head and not body:
            raise self.error("a rule head or ':-'")
        self.expect(".", "'.'")
        return Rule(head, body)

    def parse_element(self):
        tok = self.peek()
        if tok.kind == "not":
            self.next()
            return NafLiteral(self.parse_literal(), naf=True)
        if tok.kind == "-":
            return NafLiteral(self.parse_literal(), naf=False)
        if tok.kind in ("int", "var"):
            lhs = self.parse_term()
            rel = self.expect("rel", "a comparison operator")
            rhs = self.parse_term()
            return Builtin(rel.text, lhs, rhs)
        if tok.kind == "ident":
            name = self.next()
            if self.peek().kind == "rel":
                rel = self.next()
                rhs = self.parse_term()
                return Builtin(rel.text, const(name.text), rhs)
            return NafLiteral(self.finish_literal(name, positive=True), naf=False)
        raise self.error("a body element")

    def parse_literal(self) -> Literal:
        positive = True
        if self.peek().kind == "-":
            self.next()
            positive = False
        name = self.expect("ident", "a predicate name")
        return self.finish_literal(name, positive)

    def finish_literal(self, name: _Token, positive: bool) -> Literal:
        args: list[Term] = []
        if self.peek().kind == "(":
            self.next()
            args.append(self.parse_term())
            while self.peek().kind == ",":
                self.next()
                args.append(self.parse_term())
            self.expect(")", "')'")
        return Literal(Atom(name.text, tuple(args)), positive)

    def parse_term(self) -> Term:
        tok = self.peek()
        if tok.kind == "ident":
            self.next()
            return const(tok.text)
        if tok.kind == "int":
            self.next()
            return integer(int(tok.text))
        if tok.kind == "var":
            self.next()
            return var(tok.text)
        raise self.error("a term")


def parse(text: str) -> SourceUnit:
    """Parse .edp source into a SourceUnit."""
    return _Parser(_tokenize(text)).parse_unit()


def parse_rule(text: str) -> Rule:
    """Parse exactly one rule (no directives)."""
    unit = parse(text)
    if len(unit.abducibles) or len(unit.variable_rules) or len(unit.program) != 1:
        raise AbdukitError("expected exactly one rule, got %r" % text)
    return next(iter(unit.program))


def render(unit: SourceUnit) -> str:
    """Deterministic source text; parse(render(u)) == u."""
    lines = [str(r) for r in unit.program]
    lines += ["#abducible %s" % r for r in unit.abducibles]
    lines += ["#variable %s" % r for r in unit.variable_rules]
    return "\n".join(lines) + ("\n" if lines else "")
