"""MTL abstract syntax, concrete grammar, and structural metrics.

The core grammar has five node kinds: atoms, the position-zero test `beta`,
negation, conjunction, and the strict timed Until.  Everything else is
definitional sugar expanded at construction time against a declared alphabet:

    or(f, g)    = !(!f & !g)          implies(f, g) = !(f & !g)
    true        = or(a0, !a0)         false         = !true
    sigma       = or over the alphabet
    F[I] f      = true U[I] f         G[I] f        = !(F[I] !f)
    X[I] f      = (!sigma) U[I] f     noact         = !sigma

Concrete syntax: `!  &  |  ->  U  F  G  X`, interval suffix attached to the
operator (e.g. "U(1,2]", "F[0,3.5]"), default interval [0,inf).  Precedence
! > & > | > ->, with U binding like & and associating to the right.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import BetaNotAllowedError, FormulaSyntaxError, MtlsemError, UnknownAtomError
from .intervals import INF, Interval, interval, rat_str, rational

_RESERVED = {"true", "false", "sigma", "beta", "noact", "U", "F", "G", "X"}


@dataclass(frozen=True)
class Alphabet:
    symbols: tuple

    def __post_init__(self):
        if not self.symbols:
            raise MtlsemError("alphabet must be non-empty")
        if len(set(self.symbols)) != len(self.symbols):
            raise MtlsemError("alphabet symbols must be distinct")
        for s in self.symbols:
            if s in _RESERVED or not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", s):
                raise MtlsemError(f"invalid alphabet symbol: {s!r}")

    def __iter__(self):
        return iter(self.symbols)

    def __contains__(self, s):
        return s in self.symbols


def alphabet(spec) -> Alphabet:
    if isinstance(spec, Alphabet):
        return spec
    if isinstance(spec, str):
        return Alphabet(tuple(s.strip() for s in spec.split(",")))
    return Alphabet(tuple(spec))


class Formula:
    __slots__ = ()


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class Beta(Formula):
    """Holds exactly at intra-timestamp position 0 under the mixed semantics."""


@dataclass(frozen=True)
class Not(Formula):
    arg: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Until(Formula):
    left: Formula
    window: Interval
    right: Formula


BETA = Beta()

FULL = interval(0, INF, True, False)


def f_or(f: Formula, g: Formula) -> Formula:
    return Not(And(Not(f), Not(g)))


def f_implies(f: Formula, g: Formula) -> Formula:
    return Not(And(f, Not(g)))


def f_sigma(sigma: Alphabet) -> Formula:
    out = Atom(sigma.symbols[-1])
    for s in reversed(sigma.symbols[:-1]):
        out = f_or(Atom(s), out)
    return out


def f_true(sigma: Alphabet) -> Formula:
    a = Atom(sigma.symbols[0])
    return f_or(a, Not(a))


def f_false(sigma: Alphabet) -> Formula:
    return Not(f_true(sigma))


def f_eventually(window: Interval, f: Formula, sigma: Alphabet) -> Formula:
    return Until(f_true(sigma), window, f)


def f_globally(window: Interval, f: Formula, sigma: Alphabet) -> Formula:
    return Not(f_eventually(window, Not(f), sigma))


def f_next(window: Interval, f: Formula, sigma: Alphabet) -> Formula:
    return Until(Not(f_sigma(sigma)), window, f)


# ---------------------------------------------------------------------------
# structural metrics

def uses_beta(f: Formula) -> bool:
    match f:
        case Beta():
            return True
        case Atom():
            return False
        case Not(arg):
            return uses_beta(arg)
        case And(l, r):
            return uses_beta(l) or uses_beta(r)
        case Until(l, _, r):
            return uses_beta(l) or uses_beta(r)
    raise TypeError(f"not a formula: {f!r}")


def horizon(f: Formula):
    """Bounded-future lookahead: atoms 0, boolean ops max, Until adds sup I."""
    match f:
        case Atom() | Beta():
            return Fraction(0)
        case Not(arg):
            return horizon(arg)
        case And(l, r):
            return max(horizon(l), horizon(r))
        case Until(l, w, r):
            if w.hi.value == INF:
                return INF
            inner = max(horizon(l), horizon(r))
            return INF if inner == INF else w.hi.value + inner
    raise TypeError(f"not a formula: {f!r}")


def is_bounded(f: Formula) -> bool:
    return horizon(f) != INF


def temporal_depth(f: Formula) -> int:
    match f:
        case Atom() | Beta():
            return 0
        case Not(arg):
            return temporal_depth(arg)
        case And(l, r):
            return max(temporal_depth(l), temporal_depth(r))
        case Until(l, _, r):
            return 1 + max(temporal_depth(l), temporal_depth(r))
    raise TypeError(f"not a formula: {f!r}")


def windows(f: Formula):
    """All Until windows, in syntactic order."""
    match f:
        case Atom() | Beta():
            return []
        case Not(arg):
            return windows(arg)
        case And(l, r):
            return windows(l) + windows(r)
        case Until(l, w, r):
            return [w] + windows(l) + windows(r)
    raise TypeError(f"not a formula: {f!r}")


def finite_window_bounds(f: Formula):
    """The finite endpoint values appearing in Until windows."""
    out = set()
    for w in windows(f):
        out.add(w.lo.value)
        if w.hi.value != INF:
            out.add(w.hi.value)
    return sorted(out)


def subformulas(f: Formula):
    """Distinct subformulas in bottom-up order (children before parents)."""
    seen = []

    def walk(node):
        match node:
            case Not(arg):
                walk(arg)
            case And(l, r):
                walk(l)
                walk(r)
            case Until(l, _, r):
                walk(l)
                walk(r)
        if node not in seen:
            seen.append(node)

    walk(f)
    return seen


def atoms(f: Formula):
    match f:
        case Atom(name):
            return {name}
        case Beta():
            return set()
        case Not(arg):
            return atoms(arg)
        case And(l, r):
            return atoms(l) | atoms(r)
        case Until(l, _, r):
            return atoms(l) | atoms(r)
    raise TypeError(f"not a formula: {f!r}")


def require_beta_free(f: Formula, semantics: str):
    if uses_beta(f):
        raise BetaNotAllowedError(
            f"the position-zero atom has no meaning under the {semantics} semantics")


# ---------------------------------------------------------------------------
# printing

def _window_str(w: Interval) -> str:
    l = "[" if w.lo.closed else "("
    r = "]" if w.hi.closed else ")"
    return f"{l}{rat_str(w.lo.value)},{rat_str(w.hi.value)}{r}"


def to_text(f: Formula) -> str:
    """Canonical core-syntax rendering; parse(to_text(f)) is structurally f."""
    match f:
        case Atom(name):
            return name
        case Beta():
            return "beta"
        case Not(arg):
            inner = to_text(arg)
            if isinstance(arg, (Atom, Beta)):
                return f"!{inner}"
            return f"!{inner}" if inner.startswith("(") else f"!({inner})"
        case And(l, r):
            return f"({to_text(l)} & {to_text(r)})"
        case Until(l, w, r):
            return f"({to_text(l)} U{_window_str(w)} {to_text(r)})"
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# parsing

class _Parser:
    def __init__(self, text: str, sigma: Alphabet, allow_beta: bool):
        self.text = text
        self.sigma = sigma
        self.allow_beta = allow_beta
        self.pos = 0

    def error(self, message: str):
        raise FormulaSyntaxError(self.pos, message)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, lit: str) -> bool:
        self.skip_ws()
        if self.text.startswith(lit, self.pos):
            self.pos += len(lit)
            return True
        return False

    def expect(self, lit: str):
        if not self.take(lit):
            self.error(f"expected {lit!r}")

    def name(self) -> str | None:
        self.skip_ws()
        m = re.match(r"[A-Za-z_][A-Za-z0-9_]*", self.text[self.pos:])
        if not m:
            return None
        self.pos += m.end()
        return m.group(0)

    def number(self):
        self.skip_ws()
        m = re.match(r"\d+(?:\.\d+)?(?:\s*/\s*\d+)?|inf", self.text[self.pos:])
        if not m:
            self.error("expected a rational or inf")
        self.pos += m.end()
        tok = m.group(0)
        return INF if tok == "inf" else rational(tok.replace(" ", ""))

    def window(self) -> Interval | None:
        """An interval suffix; only consumed if '[' or '(' is followed by a digit."""
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] not in "[(":
            return None
        probe = self.pos + 1
        while probe < len(self.text) and self.text[probe].isspace():
            probe += 1
        if probe >= len(self.text) or not (self.text[probe].isdigit() or
                                           self.text.startswith("inf", probe)):
            return None
        lo_closed = self.text[self.pos] == "["
        self.pos += 1
        lo = self.number()
        self.expect(",")
        hi = self.number()
        self.skip_ws()
        if self.take("]"):
            hi_closed = True
        elif self.take(")"):
            hi_closed = False
        else:
            self.error("expected ] or )")
        if lo == INF:
            self.error("lower bound must be finite")
        try:
            return interval(lo, hi, lo_closed, hi_closed)
        except MtlsemError as exc:
            self.error(str(exc))

    def parse(self) -> Formula:
        f = self.implies()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("trailing input")
        return f

    def implies(self) -> Formula:
        left = self.disjunct()
        if self.take("->"):
            return f_implies(left, self.implies())
        return left

    def disjunct(self) -> Formula:
        left = self.conjunct()
        if self.peek() == "|":
            self.take("|")
            return f_or(left, self.disjunct())
        return left

    def conjunct(self) -> Formula:
        left = self.unary()
        self.skip_ws()
        if self.peek() == "&":
            self.take("&")
            return And(left, self.conjunct())
        save = self.pos
        nm = self.name()
        if nm == "U":
            w = self.window() or FULL
            return Until(left, w, self.conjunct())
        self.pos = save
        return left

    def unary(self) -> Formula:
        if self.take("!"):
            return Not(self.unary())
        self.skip_ws()
        if self.peek() == "(":
            self.take("(")
            inner = self.implies()
            self.expect(")")
            return inner
        nm = self.name()
        if nm is None:
            self.error("expected a formula")
        if nm == "F":
            return f_eventually(self.window() or FULL, self.unary(), self.sigma)
        if nm == "G":
            return f_globally(self.window() or FULL, self.unary(), self.sigma)
        if nm == "X":
            return f_next(self.window() or FULL, self.unary(), self.sigma)
        if nm == "true":
            return f_true(self.sigma)
        if nm == "false":
            return f_false(self.sigma)
        if nm == "sigma":
            return f_sigma(self.sigma)
        if nm == "noact":
            return Not(f_sigma(self.sigma))
        if nm == "beta":
            if not self.allow_beta:
                raise BetaNotAllowedError("beta used outside the extended syntax")
            return BETA
        if nm == "U":
            self.error("U is a binary operator")
        if nm not in self.sigma:
            raise UnknownAtomError(f"atom {nm!r} not in the alphabet")
        return Atom(nm)


def parse(text: str, sigma, allow_beta: bool = False) -> Formula:
    """Parse concrete syntax into the desugared core grammar."""
    return _Parser(text, alphabet(sigma), allow_beta).parse()
