"""Closed-form radical expressions and the value registry.

A radical is an expression of the package's one grammar (grammar.py) with
sqrt() as its only call and no names, which is what nested-surd
class-invariant values need: integers, + - * /, parentheses, sqrt(), and
rational literal exponents.  Negative bases under fractional exponents are
domain errors at evaluation time.

The registry is a line-oriented file of closed-form values:

    g 30     = (sqrt(5)+2)^(1/6) * (sqrt(10)+3)^(1/6)  # Berndt, ...
    gg 6 2/3 = 1                                       # Yi, Corollary 2.2.4
    a 2 3    = (sqrt(2)-1) * (sqrt(3)+sqrt(2))^(1/2)   # degree-3 system at m=2
    b 40 3   = ...

'g n' is a single class invariant, 'gg n1 n2' the product of two, 'a m n'
and 'b m n' the theta products.  verify_corollary() recomputes each entry
definitionally and counts agreeing digits.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from mpmath import workdps

from .grammar import Dialect, parse_text
from .precision import PrecisionSpec, RealValue, compute_checked, digits_agreed


class RadicalError(ValueError):
    """Malformed radical expression text."""


# ---------------------------------------------------------------------------
# AST: ('int', n) | ('add'|'sub'|'mul'|'div', a, b) | ('neg', a)
#      | ('pow', base, Fraction) | ('sqrt', a)
# ---------------------------------------------------------------------------

_RADICAL = Dialect(frozenset(), frozenset({"sqrt"}), "a number, sqrt(), or '('",
                   lambda node: node)


def _radical_error(message: str, line: int, col: int) -> RadicalError:
    return RadicalError(f"column {col}: {message}")


def parse_radical(text: str):
    return parse_text(text, _RADICAL, _radical_error, 1, 1)


def render_radical(node) -> str:
    kind = node[0]
    if kind == "int":
        return str(node[1])
    if kind == "neg":
        return f"-{render_radical(node[1])}"
    if kind == "sqrt":
        return f"sqrt({render_radical(node[1])})"
    if kind == "pow":
        e = node[2]
        etext = str(e.numerator) if e.denominator == 1 else f"{e.numerator}/{e.denominator}"
        return f"{render_radical(node[1])}^({etext})"
    op = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[kind]
    return f"({render_radical(node[1])} {op} {render_radical(node[2])})"


def radical_value(node) -> RealValue:
    """A parsed radical expression at the current mp.dps."""
    kind = node[0]
    if kind == "int":
        return RealValue.exact(node[1])
    if kind == "neg":
        return -radical_value(node[1])
    if kind == "add":
        return radical_value(node[1]) + radical_value(node[2])
    if kind == "sub":
        return radical_value(node[1]) - radical_value(node[2])
    if kind == "mul":
        return radical_value(node[1]) * radical_value(node[2])
    if kind == "div":
        return radical_value(node[1]) / radical_value(node[2])
    if kind == "sqrt":
        base = radical_value(node[1])
        if base.magnitude < 0:
            raise ValueError("square root of a negative value")
        return base.sqrt()
    if kind == "pow":
        base = radical_value(node[1])
        e = node[2]
        if e.denominator != 1 and base.magnitude <= 0:
            raise ValueError("fractional power of a nonpositive value")
        return base.powf(e)
    raise AssertionError(node)


def eval_radical(node, prec: PrecisionSpec) -> RealValue:
    """Evaluate a parsed radical expression at the requested precision."""
    return compute_checked(prec, lambda: radical_value(node))


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------

KINDS = {"g": 1, "gg": 2, "a": 2, "b": 2}


@dataclass(frozen=True)
class CorollaryRecord:
    kind: str                      # g | gg | a | b
    params: tuple[Fraction, ...]
    expr_text: str
    expr: tuple
    source: str

    @property
    def label(self) -> str:
        inner = ",".join(str(p) for p in self.params)
        return f"{self.kind}({inner})"

    @property
    def id(self) -> str:
        """The command-line id, e.g. a_2_3 or g_10/3."""
        return "_".join((self.kind, *map(str, self.params)))


@dataclass(frozen=True)
class CorollaryCheck:
    record: CorollaryRecord
    digits: int
    verdict: str                   # "pass" or "fail"

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def parse_registry(text: str) -> list[CorollaryRecord]:
    records: list[CorollaryRecord] = []
    seen: set[tuple] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        body, _, comment = line.partition("#")
        source = comment.strip()
        if not source:
            raise RadicalError(f"line {lineno}: entry is missing a '# <source>' tag")
        head, eq, expr_text = body.partition("=")
        if not eq:
            raise RadicalError(f"line {lineno}: expected '='")
        fields = head.split()
        if not fields or fields[0] not in KINDS:
            raise RadicalError(f"line {lineno}: unknown entry kind "
                               f"{fields[0] if fields else '<none>'!r}")
        kind = fields[0]
        want = KINDS[kind]
        if len(fields) != 1 + want:
            raise RadicalError(
                f"line {lineno}: {kind!r} takes {want} parameter(s), "
                f"got {len(fields) - 1}")
        try:
            params = tuple(Fraction(f) for f in fields[1:])
        except (ValueError, ZeroDivisionError):
            raise RadicalError(f"line {lineno}: malformed rational parameter")
        if any(p <= 0 for p in params):
            raise RadicalError(f"line {lineno}: parameters must be positive")
        key = (kind, params)
        if key in seen:
            raise RadicalError(f"line {lineno}: duplicate entry for "
                               f"{kind}({','.join(map(str, params))})")
        seen.add(key)
        expr_text = expr_text.strip()
        try:
            expr = parse_radical(expr_text)
        except RadicalError as exc:
            raise RadicalError(f"line {lineno}: {exc}")
        records.append(CorollaryRecord(kind, params, expr_text, expr, source))
    return records


def registry_find(records, kind: str, *params) -> CorollaryRecord | None:
    """Lookup by kind and parameters; a miss returns None."""
    want = tuple(Fraction(p) for p in params)
    for rec in records:
        if rec.kind == kind and rec.params == want:
            return rec
    return None


def registry_by_id(records, text: str, kinds=tuple(KINDS)) -> CorollaryRecord:
    """The record of one of the given kinds named by an id such as a_2_3 or
    g_10/3; the parameters are read as rationals, so a_4/2_3 names a_2_3.
    A miss raises KeyError listing the ids of those kinds."""
    kind, *params = text.split("_")
    try:
        rec = registry_find(records, kind, *params) if kind in kinds else None
    except (ValueError, ZeroDivisionError):
        rec = None
    if rec is None:
        known = ", ".join(r.id for r in records if r.kind in kinds)
        raise KeyError(f"unknown id {text!r}; known ids: {known}")
    return rec


def load_builtin_registry() -> list[CorollaryRecord]:
    text = resources.files("thetaprod").joinpath("data/registry.txt").read_text()
    return parse_registry(text)


def definitional_value(rec: CorollaryRecord, prec: PrecisionSpec) -> RealValue:
    """Recompute the registry entry from its theta-block definition."""
    if rec.kind == "a":
        from .products import a_numeric
        return a_numeric(rec.params[0], rec.params[1], prec).value
    if rec.kind == "b":
        from .products import b_numeric
        return b_numeric(rec.params[0], rec.params[1], prec).value
    from .invariants import g_numeric, invariant_value
    if rec.kind == "g":
        return g_numeric(rec.params[0], prec).value
    first, second = rec.params
    return compute_checked(prec, lambda: invariant_value("g", first)
                           * invariant_value("g", second))


def verify_corollary(rec: CorollaryRecord, prec: PrecisionSpec) -> CorollaryCheck:
    """Compare the closed form against the definitional evaluation."""
    closed = eval_radical(rec.expr, prec)
    definitional = definitional_value(rec, prec)
    with workdps(prec.working_digits):
        digits = digits_agreed(closed, definitional)
    verdict = "pass" if digits >= prec.target_digits else "fail"
    return CorollaryCheck(rec, digits, verdict)
