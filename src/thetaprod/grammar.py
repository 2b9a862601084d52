"""The one scanner and the one expression grammar of the package's text files.

Registry radicals, catalogue relations and the catalogue's P/Q eta-quotient
lines are all small arithmetic expressions in one grammar:

    expr     := term { ('+' | '-') term }
    term     := unary { ('*' | '/') unary }
    unary    := '-' unary | power
    power    := atom [ '^' exponent ]
    exponent := ['-'] INT | '(' ['-'] INT [ '/' INT ] ')'
    atom     := INT | NAME | NAME '(' expr ')' | '(' expr ')'

A fraction bar binds to an exponent only inside its parentheses, so 2^3/4
is (2^3)/4.  Each format is a Dialect: the bare names and the one-argument
calls it allows, and a fold that turns each node into the format's value as
soon as the node is parsed.  A node is ('int', n), (op, a, b) for op in add,
sub, mul, div, ('neg', a), ('pow', a, Fraction), (name,) or (name, a), its
operands already folded; the identity fold leaves the tuple tree itself.  A
fold rejects a node by raising ValueError, which is reported at the node's
position: that of its operator, or of its base for a power.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

_SPACE = re.compile(r"(?:\s+|#[^\n]*)*")
_ATOM = re.compile(r"([0-9]+)|([A-Za-z_][A-Za-z0-9_]*)")
_ADD = {"+": "add", "-": "sub"}
_MUL = {"*": "mul", "/": "div"}


class Cursor:
    """A position in one text, kept past any whitespace and '#' comments, so
    that it always stands on the next token.  Errors are raised as
    error(message, line, col) with 1-based positions, the text's first
    character standing at (line, col)."""

    def __init__(self, text: str, error: Callable[[str, int, int], Exception],
                 line: int, col: int):
        self.text = text
        self.error = error
        self.line0 = line
        self.col0 = col
        self.skip_to(0)

    def skip_to(self, pos: int):
        char = self.text[pos:pos + 1]
        if char.isspace() or char == "#":
            pos = _SPACE.match(self.text, pos).end()
            char = self.text[pos:pos + 1]
        self.pos = pos
        self.char = char                        # the next character, or ''

    def where(self, pos: int) -> tuple[int, int]:
        newline = self.text.rfind("\n", 0, pos)
        if newline < 0:
            return self.line0, self.col0 + pos
        return self.line0 + self.text.count("\n", 0, pos), pos - newline

    def fail_at(self, pos: int, message: str):
        raise self.error(message, *self.where(pos))

    def fail(self, message: str):
        self.fail_at(self.pos, message)

    def at_end(self) -> bool:
        return not self.char

    def take(self, char: str) -> bool:
        """Step over the next character if it is `char`."""
        if self.char != char:
            return False
        self.skip_to(self.pos + 1)
        return True

    def expect(self, literal: str):
        if not self.text.startswith(literal, self.pos):
            self.fail(f"expected {literal!r}")
        self.skip_to(self.pos + len(literal))

    def read_ident(self) -> str:
        match = _ATOM.match(self.text, self.pos)
        if not match or not match.group(2):
            self.fail("expected an identifier")
        self.skip_to(match.end())
        return match.group()

    def read_string(self) -> str:
        if self.char != '"':
            self.fail("expected '\"'")
        end = self.text.find('"', self.pos + 1)
        newline = self.text.find("\n", self.pos + 1)
        if end < 0 or 0 <= newline < end:
            self.pos = len(self.text) if newline < 0 else newline
            self.fail("unterminated string")
        value = self.text[self.pos + 1:end]
        self.skip_to(end + 1)
        return value

    def read_until_semicolon(self) -> tuple[str, int, int]:
        """Raw text up to the next ';' (consumed), with its start position."""
        start = self.pos
        end = self.text.find(";", start)
        if end < 0:
            self.pos = len(self.text)
            self.fail("expected ';'")
        self.skip_to(end + 1)
        return self.text[start:end].strip(), *self.where(start)


@dataclass(frozen=True)
class Dialect:
    names: frozenset[str]          # bare names, folded as (name,)
    calls: frozenset[str]          # name(expr), folded as (name, value)
    expected: str                  # the atoms allowed, for error messages
    fold: Callable[[tuple], object]


def parse_text(text: str, dialect: Dialect,
               error: Callable[[str, int, int], Exception], line: int, col: int):
    """The folded value of the whole text as one expression."""
    cur = Cursor(text, error, line, col)
    value = parse_expression(cur, dialect)
    if not cur.at_end():
        cur.fail("unexpected trailing input")
    return value


def parse_expression(cur: Cursor, dialect: Dialect):
    """Parse the longest expression at the cursor and return its folded value;
    what follows is the caller's to check."""
    value = _term(cur, dialect)
    while op := _ADD.get(cur.char):
        at = cur.pos
        cur.skip_to(at + 1)
        value = _fold(cur, dialect, at, (op, value, _term(cur, dialect)))
    return value


def _term(cur: Cursor, dialect: Dialect):
    value = _unary(cur, dialect)
    while op := _MUL.get(cur.char):
        at = cur.pos
        cur.skip_to(at + 1)
        value = _fold(cur, dialect, at, (op, value, _unary(cur, dialect)))
    return value


def _unary(cur: Cursor, dialect: Dialect):
    at = cur.pos
    if not cur.take("-"):
        return _power(cur, dialect)
    return _fold(cur, dialect, at, ("neg", _unary(cur, dialect)))


def _power(cur: Cursor, dialect: Dialect):
    at = cur.pos
    base = _atom(cur, dialect)
    if not cur.take("^"):
        return base
    return _fold(cur, dialect, at, ("pow", base, _exponent(cur)))


def _exponent(cur: Cursor) -> Fraction:
    parens = cur.take("(")
    sign = -1 if cur.take("-") else 1
    numer = _integer(cur)
    denom = 1
    if parens and cur.take("/"):
        denom = _integer(cur)
        if denom == 0:
            cur.fail("zero denominator in exponent")
    if parens:
        cur.expect(")")
    return Fraction(sign * numer, denom)


def _integer(cur: Cursor) -> int:
    match = _ATOM.match(cur.text, cur.pos)
    if not match or not match.group(1):
        cur.fail("expected an integer exponent")
    cur.skip_to(match.end())
    return int(match.group())


def _atom(cur: Cursor, dialect: Dialect):
    if cur.take("("):
        value = parse_expression(cur, dialect)
        cur.expect(")")
        return value
    at = cur.pos
    match = _ATOM.match(cur.text, at)
    if not match:
        cur.fail(f"expected {dialect.expected}")
    cur.skip_to(match.end())
    number, name = match.groups()
    if number:
        return _fold(cur, dialect, at, ("int", int(number)))
    if name in dialect.calls:
        cur.expect("(")
        arg = parse_expression(cur, dialect)
        cur.expect(")")
        return _fold(cur, dialect, at, (name, arg))
    if name not in dialect.names:
        cur.fail_at(at, f"expected {dialect.expected}, found {name!r}")
    return _fold(cur, dialect, at, (name,))


def _fold(cur: Cursor, dialect: Dialect, at: int, node: tuple):
    try:
        return dialect.fold(node)
    except ValueError as exc:
        cur.fail_at(at, str(exc))
