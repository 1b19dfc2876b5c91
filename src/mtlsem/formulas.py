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
`parse` matches one token pattern in place along the text and reduces the
operators on an explicit stack.  A temporal operator and its interval suffix
are one token; the suffix is `intervals.INTERVAL_TEXT`, read by
`parse_interval`, so windows accept exactly the rationals and intervals of
the JSON wire format and `--time`.

Nodes are hash-consed: structurally equal formulas are one object.  A node
caches its distinct subformulas, children first, walked once with an explicit
stack (`subformulas`).  `fold` is a flat loop over that order for `pointwise`,
the compilers, the printer, the metrics and `lasso_instance`.  The dense loop
`interval_based._sat_dense` is its own: a `fold` visit ran up to 21% slower.
"""

from __future__ import annotations

import math
import re
import weakref
from dataclasses import dataclass
from fractions import Fraction

from .errors import BetaNotAllowedError, FormulaSyntaxError, MtlsemError, UnknownAtomError
from .intervals import INF, INTERVAL_TEXT, Interval, interval, parse_interval

_RESERVED = {"true", "false", "sigma", "beta", "noact", "U", "F", "G", "X"}
_NAME = r"[A-Za-z_][A-Za-z0-9_]*"


@dataclass(frozen=True)
class Alphabet:
    symbols: tuple

    def __post_init__(self):
        if not self.symbols:
            raise MtlsemError("alphabet must be non-empty")
        if len(set(self.symbols)) != len(self.symbols):
            raise MtlsemError("alphabet symbols must be distinct")
        for s in self.symbols:
            if s in _RESERVED or not re.fullmatch(_NAME, s):
                raise MtlsemError(f"invalid alphabet symbol: {s!r}")

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

    __slots__ = ("children", "_below", "_base", "__weakref__")
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
        # flat rows, children first, so that nesting depth costs pickle no recursion
        row = {node: i for i, node in enumerate(subformulas(self))}
        return _rebuild, (tuple((type(node), *[row.get(v, v) for v in map(
            node.__getattribute__, node.__match_args__)]) for node in row),)

    def __repr__(self) -> str:
        return fold(self, _repr_node)[self]


_INTERNED = weakref.WeakValueDictionary()


def _rebuild(rows):
    """The formula of `Formula.__reduce__`'s rows; an int field is a child's row."""
    nodes = []
    for cls, *fields in rows:
        nodes.append(cls(*[nodes[v] if type(v) is int else v for v in fields]))
    return nodes[-1]


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
    """Evaluate every distinct subformula of f once, in `subformulas` order.

    `visit(node, *operand_values)` receives the values already computed for
    the node's operands.  The returned table maps each node to its value, in
    that order.
    """
    table = {}
    for node in subformulas(f):
        table[node] = visit(node, *[table[c] for c in node.children])
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

def subformulas(f: Formula) -> list:
    """Distinct subformulas in bottom-up order (children before parents).
    Walked once, with an explicit stack, and cached on f without f itself."""
    try:
        below = f._below
    except AttributeError:
        seen, below, stack = {f}, [], [(c, False) for c in reversed(f.children)]
        while stack:
            node, done = stack.pop()
            if done:
                below.append(node)
            elif node not in seen:
                seen.add(node)
                stack.append((node, True))
                stack.extend((c, False) for c in reversed(node.children))
        object.__setattr__(f, "_below", below)
    return [*below, f]


def uses_beta(f: Formula) -> bool:
    return any(type(node) is Beta for node in subformulas(f))


_ZERO = Fraction(0)


def _horizon(node, *kids):
    inner = max(kids, default=_ZERO)
    if type(node) is not Until:
        return inner
    hi = node.window.hi.value
    # inf is the one float a bound holds: isinstance spares Fraction == float
    return INF if isinstance(hi, float) or isinstance(inner, float) else hi + inner


def horizon(f: Formula):
    """Bounded-future lookahead: atoms 0, boolean ops max, Until adds sup I."""
    return fold(f, _horizon)[f]


def is_bounded(f: Formula) -> bool:
    return not isinstance(horizon(f), float)


def temporal_depth(f: Formula) -> int:
    return fold(f, lambda node, *kids: (type(node) is Until) + max(kids, default=0))[f]


def fold_base(D0: int, f: Formula) -> int:
    """The time base of a fold of f over a model on base D0: lcm(D0, W), W the
    lcm of f's windows' own bases (`Interval.keys`), cached on f."""
    try:
        W = f._base
    except AttributeError:
        W = math.lcm(*{node.window.keys[0] for node in subformulas(f) if type(node) is Until})
        object.__setattr__(f, "_base", W)
    return math.lcm(D0, W)


def atoms(f: Formula):
    return {node.name for node in subformulas(f) if type(node) is Atom}


def require_beta_free(f: Formula, semantics: str):
    if uses_beta(f):
        raise BetaNotAllowedError(
            f"the position-zero atom has no meaning under the {semantics} semantics")


# ---------------------------------------------------------------------------
# printing

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
            return f"({l} U{w} {r})"


def to_text(f: Formula) -> str:
    """Canonical core-syntax rendering; parse(to_text(f)) is structurally f."""
    return fold(f, _text)[f]


# ---------------------------------------------------------------------------
# parsing

# One token: a temporal operator with its optional interval suffix, a name, a
# symbol, the end of the text, or (the empty `junk` match) a character that
# starts no token.  Leading whitespace belongs to the token.
_TOKEN = re.compile(
    rf"\s*(?:(?P<temporal>[UFGX])(?![A-Za-z0-9_])(?:\s*(?P<window>{INTERVAL_TEXT}))?"
    rf"|(?P<name>{_NAME})|(?P<symbol>->|[!&|()])|(?P<end>\Z)|(?P<junk>))")
_PREFIX = {"F": f_eventually, "G": f_globally, "X": f_next}
_INFIX = {"->": (0, f_implies), "|": (1, f_or), "&": (2, And)}
_CONSTANTS = {"true": f_true, "false": f_false, "sigma": f_sigma,
              "noact": lambda sigma: Not(f_sigma(sigma))}


def _tokens(text: str):
    """The matches of `_TOKEN` along text, each matched in place; the last is
    the end of the text or a character that starts no token."""
    m = _TOKEN.match(text)
    while m.lastgroup not in ("end", "junk"):
        yield m
        m = _TOKEN.match(text, m.end())
    yield m


def _error(m, message: str) -> FormulaSyntaxError:
    return FormulaSyntaxError(m.end() - len(m[0].lstrip()), message)


def _window(m) -> Interval:
    """A temporal token's interval suffix, [0,inf) when it has none."""
    if m["window"] is None:
        return FULL
    try:
        return parse_interval(m["window"])
    except MtlsemError as exc:
        raise FormulaSyntaxError(m.start("window"), str(exc)) from None


def _atom(m, sigma: Alphabet, allow_beta: bool) -> Formula:
    nm = m["name"]
    if nm is None:
        raise _error(m, "U is a binary operator" if m["temporal"] else "expected a formula")
    if nm in _CONSTANTS:
        return _CONSTANTS[nm](sigma)
    if nm == "beta":
        if not allow_beta:
            raise BetaNotAllowedError("beta used outside the extended syntax")
        return BETA
    if nm not in sigma:
        raise UnknownAtomError(f"atom {nm!r} not in the alphabet")
    return Atom(nm)


def parse(text: str, sigma, allow_beta: bool = False) -> Formula:
    """Parse concrete syntax into the desugared core grammar.

    Operands (leading !, F, G and X, then an atom) alternate with binary
    operators, which are reduced on a stack: & and U bind tightest, then |,
    then ->; each is right-associative.  An opening parenthesis saves the
    enclosing expression's operands, operators and pending prefixes on
    `frames`, and its closing one resumes them, so nesting depth costs no
    recursion.
    """
    sigma = alphabet(sigma)
    tokens = _tokens(text)
    frames, out, ops, wraps = [], [], [], []
    while True:
        m = next(tokens)
        if m["symbol"] == "!":
            wraps.append(Not)
        elif m["symbol"] == "(":
            frames.append((out, ops, wraps))
            out, ops, wraps = [], [], []
        elif m["temporal"] in _PREFIX:
            wraps.append(lambda g, op=_PREFIX[m["temporal"]], w=_window(m): op(w, g, sigma))
        else:
            f = _atom(m, sigma, allow_beta)
            while True:  # f is a complete operand
                while wraps:
                    f = wraps.pop()(f)
                out.append(f)
                m = next(tokens)
                if m["temporal"] == "U":
                    prec, build = 2, lambda l, r, w=_window(m): Until(l, w, r)
                else:
                    prec, build = _INFIX.get(m["symbol"], (-1, None))
                while ops and ops[-1][0] > prec:
                    right = out.pop()
                    out.append(ops.pop()[1](out.pop(), right))
                if build is not None:
                    ops.append((prec, build))
                    break
                f = out.pop()
                if not frames:
                    if m.lastgroup != "end":
                        raise _error(m, "trailing input")
                    return f
                if m["symbol"] != ")":
                    raise _error(m, "expected ')'")
                out, ops, wraps = frames.pop()
