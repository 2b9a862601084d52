"""Poly2 and relation clearing: polynomial relations between two eta
quotients P and Q.

A relation is an expression of the package's one grammar (grammar.py) in the
names P and Q with integer constants.  It folds, as it is parsed, into a
Laurent polynomial in P and Q: a divisor, and the base of a negative power,
must be a nonzero monomial c*P^i*Q^j, which is all the catalogue divides by
and what keeps the fold a Laurent polynomial.  Multiplying through by the
lowest powers of P and Q and stripping the integer content leaves one
primitive integer polynomial whose vanishing is the assertion to verify.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .grammar import Dialect, parse_text


class RelationError(ValueError):
    """Malformed relation text; carries 1-based line and column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# bivariate polynomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Poly2:
    """Laurent polynomial in P and Q: {(i, j): coefficient} with no zero
    entries; exponents may be negative."""
    terms: dict[tuple[int, int], Fraction] = field(default_factory=dict)

    @staticmethod
    def const(c) -> Poly2:
        c = Fraction(c)
        return Poly2({(0, 0): c} if c else {})

    @staticmethod
    def var(which: str) -> Poly2:
        return Poly2({(1, 0) if which == "P" else (0, 1): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: Poly2) -> Poly2:
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = out.get(key, Fraction(0)) + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return Poly2(out)

    def __neg__(self) -> Poly2:
        return Poly2({k: -c for k, c in self.terms.items()})

    def __sub__(self, other: Poly2) -> Poly2:
        return self + (-other)

    def __mul__(self, other: Poly2) -> Poly2:
        out: dict[tuple[int, int], Fraction] = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                key = (i1 + i2, j1 + j2)
                s = out.get(key, Fraction(0)) + c1 * c2
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return Poly2(out)

    def pow(self, e: int) -> Poly2:
        if e < 0:
            raise ValueError("Poly2.pow requires a nonnegative exponent")
        out = Poly2.const(1)
        base = self
        while e:
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly2) and self.terms == other.terms

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (i, j) in sorted(self.terms, reverse=True):
            c = self.terms[(i, j)]
            piece = []
            if c != 1 or (i == 0 and j == 0):
                piece.append(str(c))
            if i:
                piece.append("P" if i == 1 else f"P^{i}")
            if j:
                piece.append("Q" if j == 1 else f"Q^{j}")
            parts.append("*".join(piece))
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# parsing and clearing
# ---------------------------------------------------------------------------

def _reciprocal(p: Poly2) -> Poly2:
    if p.is_zero():
        raise ValueError("division by zero expression")
    if len(p.terms) != 1:
        raise ValueError(f"division by {p}, which is not a monomial c*P^i*Q^j")
    ((i, j), c), = p.terms.items()
    return Poly2({(-i, -j): 1 / c})


def _fold(node: tuple) -> Poly2:
    head = node[0]
    if head == "int":
        return Poly2.const(node[1])
    if head in ("P", "Q"):
        return Poly2.var(head)
    if head == "neg":
        return -node[1]
    if head == "add":
        return node[1] + node[2]
    if head == "sub":
        return node[1] - node[2]
    if head == "mul":
        return node[1] * node[2]
    if head == "div":
        return node[1] * _reciprocal(node[2])
    base, e = node[1], node[2]
    if e.denominator != 1:
        raise ValueError("expected an integer exponent")
    return base.pow(e.numerator) if e >= 0 else _reciprocal(base).pow(-e.numerator)


_RELATION = Dialect(frozenset({"P", "Q"}), frozenset(), "a number, P, Q, or '('", _fold)


def parse_relation(text: str, line0: int = 1, col0: int = 1) -> Poly2:
    """Parse relation text and return the cleared primitive polynomial.

    Rejects relations that clear to nothing (identically zero) or to a single
    monomial, since a lone monomial in positive quantities cannot vanish.
    """
    laurent = parse_text(text, _RELATION, RelationError, line0, col0)
    if laurent.is_zero():
        raise RelationError("relation is identically zero, nothing to verify", line0, col0)
    min_i = min(i for i, _ in laurent.terms)
    min_j = min(j for _, j in laurent.terms)
    shifted = {(i - min_i, j - min_j): c for (i, j), c in laurent.terms.items()}
    denom_lcm = 1
    for c in shifted.values():
        denom_lcm = denom_lcm * c.denominator // gcd(denom_lcm, c.denominator)
    ints = {k: c * denom_lcm for k, c in shifted.items()}
    content = 0
    for c in ints.values():
        content = gcd(content, abs(c.numerator))
    cleared = Poly2({k: Fraction(c.numerator // content) for k, c in ints.items()})
    if len(cleared.terms) < 2:
        raise RelationError(
            "relation reduces to a single monomial and cannot define an equation",
            line0, col0)
    return cleared
