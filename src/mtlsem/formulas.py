"""MTL abstract syntax, the shared fold, concrete grammar, and metrics.

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

Nodes are hash-consed: structurally equal formulas are one object.  `fold` is
the one structural traversal.  It visits each distinct subformula once, children
first, with an explicit stack.  The four engines, the compilers, the metrics
and the printer each supply only the per-node step.
"""

from __future__ import annotations

import re
import weakref
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
    """An interned core-grammar node.

    Every constructor call goes through one weak intern table, so structurally
    equal formulas are the same object: `==` and `hash` are identity-based,
    O(1) and never walk a subtree.  Nodes are immutable; `children` holds the
    formula operands in syntactic order.
    """

    __slots__ = ("children", "__weakref__")
    __match_args__ = ()

    def __new__(cls, *fields):
        key = (cls, *fields)
        node = _INTERNED.get(key)
        if node is None:
            if len(fields) != len(cls.__match_args__):
                raise TypeError(f"{cls.__name__} takes fields {cls.__match_args__}")
            node = object.__new__(cls)
            for name, value in zip(cls.__match_args__, fields):
                object.__setattr__(node, name, value)
            object.__setattr__(node, "children",
                               tuple(v for v in fields if isinstance(v, Formula)))
            _INTERNED[key] = node
        return node

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)

    def __repr__(self) -> str:
        return fold(self, _repr_node)[self]


_INTERNED = weakref.WeakValueDictionary()


class Atom(Formula):
    __slots__ = __match_args__ = ("name",)


class Beta(Formula):
    """Holds exactly at intra-timestamp position 0 under the mixed semantics."""

    __slots__ = ()


class Not(Formula):
    __slots__ = __match_args__ = ("arg",)


class And(Formula):
    __slots__ = __match_args__ = ("left", "right")


class Until(Formula):
    __slots__ = __match_args__ = ("left", "window", "right")


def _repr_node(node, *kids) -> str:
    kids = iter(kids)
    fields = []
    for name in node.__match_args__:
        value = getattr(node, name)
        fields.append(f"{name}={next(kids) if isinstance(value, Formula) else repr(value)}")
    return f"{type(node).__name__}({', '.join(fields)})"


def fold(f: Formula, visit) -> dict:
    """Evaluate every distinct subformula of f once, children first.

    `visit(node, *operand_values)` receives the values already computed for
    the node's operands.  The walk uses an explicit stack, so nesting depth is
    unbounded.  The returned table maps each node to its value in completion
    order, which is the order of `subformulas`.
    """
    table = {}
    stack = [(f, False)]
    while stack:
        node, ready = stack.pop()
        if node in table:
            continue
        if ready:
            table[node] = visit(node, *[table[c] for c in node.children])
        else:
            stack.append((node, True))
            stack.extend((c, False) for c in reversed(node.children))
    return table


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

def subformulas(f: Formula):
    """Distinct subformulas in bottom-up order (children before parents)."""
    return list(fold(f, lambda *_: None))


def uses_beta(f: Formula) -> bool:
    return fold(f, lambda node, *kids: type(node) is Beta or any(kids))[f]


def _horizon(node, *kids):
    inner = max(kids, default=Fraction(0))
    if type(node) is not Until:
        return inner
    hi = node.window.hi.value
    return INF if hi == INF or inner == INF else hi + inner


def horizon(f: Formula):
    """Bounded-future lookahead: atoms 0, boolean ops max, Until adds sup I."""
    return fold(f, _horizon)[f]


def is_bounded(f: Formula) -> bool:
    return horizon(f) != INF


def temporal_depth(f: Formula) -> int:
    return fold(f, lambda node, *kids: (type(node) is Until) + max(kids, default=0))[f]


def windows(f: Formula):
    """All Until windows, in syntactic order."""
    return fold(f, lambda node, *kids: (
        [node.window] if type(node) is Until else []) + sum(kids, []))[f]


def finite_window_bounds(f: Formula):
    """The finite endpoint values appearing in Until windows."""
    out = set()
    for node in subformulas(f):
        if type(node) is Until:
            out.add(node.window.lo.value)
            if node.window.hi.value != INF:
                out.add(node.window.hi.value)
    return sorted(out)


def atoms(f: Formula):
    return fold(f, lambda node, *kids: (
        {node.name} if type(node) is Atom else set().union(*kids)))[f]


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


def _text(node, l=None, r=None) -> str:
    match node:
        case Atom(name):
            return name
        case Beta():
            return "beta"
        case Not(arg):
            if isinstance(arg, (Atom, Beta)) or l.startswith("("):
                return f"!{l}"
            return f"!({l})"
        case And():
            return f"({l} & {r})"
        case Until(_, w, _):
            return f"({l} U{_window_str(w)} {r})"


def to_text(f: Formula) -> str:
    """Canonical core-syntax rendering; parse(to_text(f)) is structurally f."""
    return fold(f, _text)[f]


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
        f = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("trailing input")
        return f

    def expr(self) -> Formula:
        """Unary operands joined by binary operators, reduced on a stack: & and
        U_w bind tightest, then |, then ->; each is right-associative.

        An opening parenthesis saves the enclosing expression's operands,
        operators and pending prefixes on `frames`, and its closing one
        resumes them, so nesting depth costs no recursion.
        """
        frames = []
        out, ops = [], []
        while True:
            wraps, f = self.operand()
            if f is None:
                frames.append((out, ops, wraps))
                out, ops = [], []
                continue
            while True:  # f is a complete operand
                while wraps:
                    f = wraps.pop()(f)
                out.append(f)
                op = self.operator()
                if op is not None:
                    while ops and ops[-1][0] > op[0]:
                        self.reduce(out, ops.pop())
                    ops.append(op)
                    break
                while ops:
                    self.reduce(out, ops.pop())
                f = out.pop()
                if not frames:
                    return f
                self.expect(")")
                out, ops, wraps = frames.pop()

    @staticmethod
    def reduce(out, op):
        right = out.pop()
        out.append(op[1](out.pop(), right))

    def operator(self):
        """The next binary operator as (precedence, constructor), or None."""
        if self.take("->"):
            return 0, f_implies
        if self.take("|"):
            return 1, f_or
        if self.take("&"):
            return 2, And
        save = self.pos
        if self.name() == "U":
            w = self.window() or FULL
            return 2, lambda l, r: Until(l, w, r)
        self.pos = save
        return None

    def operand(self):
        """Leading !, F, G and X, collected in a loop, then a primary.

        Returns the prefixes as constructors and the primary, or None in its
        place when an opening parenthesis follows them.
        """
        wraps = []
        while True:
            if self.take("!"):
                wraps.append(Not)
                continue
            if self.take("("):
                return wraps, None
            nm = self.name()
            if nm not in _PREFIX:
                return wraps, self.primary(nm)
            w = self.window() or FULL
            wraps.append(lambda g, op=_PREFIX[nm], w=w: op(w, g, self.sigma))

    def primary(self, nm) -> Formula:
        if nm is None:
            self.error("expected a formula")
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


_PREFIX = {"F": f_eventually, "G": f_globally, "X": f_next}


def parse(text: str, sigma, allow_beta: bool = False) -> Formula:
    """Parse concrete syntax into the desugared core grammar."""
    return _Parser(text, alphabet(sigma), allow_beta).parse()
