"""The identity catalogue: a small text format describing pairs of eta
quotients P, Q and the polynomial relation connecting them.

File format, one record per identity:

    identity dup3 {
      P = q^(-1/6) * f(1)^2 * f(3)^-2 ;
      Q = q^(-1/3) * f(2)^2 * f(6)^-2 ;
      relation: P*Q + 9/(P*Q) - ((P/Q)^3 + (Q/P)^3) ;
      source: "Berndt, Ramanujan's Notebooks IV, Entry 51, p. 204" ;
    }

The P and Q lines and the relation are expressions of the package's one
grammar (grammar.py), read by its one scanner.  A P or Q line is a product
of powers of q (a rational power), f(k) and fp(k) (integer powers), where
f(k) stands for the Euler product f(-q^k) and fp(k) for f(q^k); it folds into
an EtaQuotient.  The relation is a Laurent polynomial in P and Q, divided
only by monomials (relation.py).  '#' starts a comment running to the end
of its line, except inside a quoted string; a relation runs to the first
';', even one inside a comment.  Records parse into IdentityRecord values
carrying both the raw relation text and its cleared polynomial form.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from .grammar import Cursor, Dialect, parse_expression
from .quotient import EtaFactor, EtaQuotient
from .relation import Poly2, RelationError, parse_relation


class CatalogueError(ValueError):
    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        if line is not None:
            message = f"line {line}, column {col}: {message}"
        super().__init__(message)
        self.line = line
        self.col = col


@dataclass(frozen=True)
class IdentityRecord:
    id: str
    p_expr: EtaQuotient
    q_expr: EtaQuotient
    relation_text: str
    relation_poly: Poly2
    source: str

    def natural_nome_index(self) -> int:
        return max(self.p_expr.natural_nome_index(),
                   self.q_expr.natural_nome_index())


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def _fold_quotient(node: tuple):
    """A product of powers of q, f(k) and fp(k) folds to a tuple of pieces:
    a Fraction for the q-power, an EtaFactor for each factor.  An integer
    stays an int, to be the scale k of f(k) or fp(k)."""
    head = node[0]
    if head == "int":
        return node[1]
    if head == "neg" and isinstance(node[1], int):
        return -node[1]
    if head == "q":
        return (Fraction(1),)
    if head in ("f", "fp") and isinstance(node[1], int):
        return (EtaFactor(node[1], "f_minus" if head == "f" else "f_plus", 1),)
    if head == "mul" and isinstance(node[1], tuple) and isinstance(node[2], tuple):
        pieces = node[1] + node[2]
        if sum(isinstance(p, Fraction) for p in pieces) > 1:
            raise ValueError("more than one q-power in a quotient")
        return pieces
    if head == "pow" and isinstance(node[1], tuple):
        e = node[2]
        if e.denominator != 1 and any(isinstance(p, EtaFactor) for p in node[1]):
            raise ValueError("factor exponents must be integers")
        return tuple(p * e if isinstance(p, Fraction)
                     else EtaFactor(p.k, p.kind, p.exponent * e.numerator)
                     for p in node[1])
    raise ValueError("expected a product of powers of q, f(k) and fp(k)")


_QUOTIENT = Dialect(frozenset({"q"}), frozenset({"f", "fp"}), "q, f, or fp",
                    _fold_quotient)


def _quotient(cur: Cursor) -> EtaQuotient:
    start = cur.pos
    pieces = parse_expression(cur, _QUOTIENT)
    if not isinstance(pieces, tuple):
        cur.fail_at(start, "expected q, f, or fp")
    end = cur.pos + 1
    cur.expect(";")
    try:
        return EtaQuotient(sum((p for p in pieces if isinstance(p, Fraction)), Fraction(0)),
                           tuple(p for p in pieces if isinstance(p, EtaFactor)))
    except ValueError as exc:
        cur.fail_at(end, str(exc))


def parse_catalogue(text: str) -> list[IdentityRecord]:
    cur = Cursor(text, CatalogueError, 1, 1)
    records: list[IdentityRecord] = []
    seen: dict[str, int] = {}
    while not cur.at_end():
        head_line, _ = cur.where(cur.pos)
        word = cur.read_ident()
        if word != "identity":
            cur.fail(f"expected 'identity', found {word!r}")
        rid = cur.read_ident()
        if rid in seen:
            raise CatalogueError(
                f"duplicate identity id {rid!r} (first defined on line {seen[rid]})",
                head_line, 1)
        seen[rid] = head_line
        cur.expect("{")

        cur.expect("P")
        cur.expect("=")
        p_expr = _quotient(cur)

        cur.expect("Q")
        cur.expect("=")
        q_expr = _quotient(cur)

        cur.expect("relation")
        cur.expect(":")
        relation_text, rline, rcol = cur.read_until_semicolon()
        if not relation_text:
            raise CatalogueError("empty relation", rline, rcol)
        try:
            poly = parse_relation(relation_text, rline, rcol)
        except RelationError as exc:
            raise CatalogueError(f"in identity {rid!r}: {exc}")

        cur.expect("source")
        cur.expect(":")
        source = cur.read_string()
        if not source.strip():
            raise CatalogueError(f"empty source tag in identity {rid!r}")
        cur.take(";")
        cur.expect("}")

        records.append(IdentityRecord(rid, p_expr, q_expr, relation_text,
                                      poly, source))
    return records


def find_record(records, rid: str) -> IdentityRecord:
    for rec in records:
        if rec.id == rid:
            return rec
    known = ", ".join(rec.id for rec in records)
    raise KeyError(f"no identity named {rid!r}; catalogue has: {known}")


def load_builtin() -> list[IdentityRecord]:
    text = resources.files("thetaprod").joinpath("data/catalogue.txt").read_text()
    return parse_catalogue(text)
