"""Syntax-driven compilers embedding the pointwise and interval-based
semantics into the mixed one.

Both are folds over the core grammar (`formulas.fold`) with no
simplification pass, so outputs are deterministic and auditable clause by
clause.  `compile_pw` relativizes every subformula to action times: negation
and conjunction pick up a "some action happens now" conjunct, and Until lets
the left operand idle over no-action times while forcing the witness onto an
action time.  `compile_itw` collapses intra-timestamp positions instead: atoms
may hold anywhere in the current block, and Until restricts both operands to
position zero through the position-zero atom.
"""

from __future__ import annotations

from .formulas import (
    And,
    Atom,
    BETA,
    Formula,
    Not,
    Until,
    alphabet,
    f_eventually,
    f_implies,
    f_or,
    f_sigma,
    fold,
    require_beta_free,
)
from .intervals import interval


def compile_pw(f: Formula, sigma) -> Formula:
    """Mixed-semantics formula equivalent to f under the pointwise reading."""
    sigma = alphabet(sigma)
    require_beta_free(f, "pointwise")
    some_action = f_sigma(sigma)

    def step(node, l=None, r=None) -> Formula:
        match node:
            case Atom():
                return node
            case Not():
                return And(some_action, Not(l))
            case And():
                return And(some_action, And(l, r))
            case Until(_, w, _):
                return And(some_action,
                           Until(f_or(l, Not(some_action)), w, And(r, some_action)))

    return fold(f, step)[f]


def compile_itw(f: Formula, sigma) -> Formula:
    """Mixed-semantics formula equivalent to f under the interval-based reading."""
    sigma = alphabet(sigma)
    require_beta_free(f, "interval-based")
    here = interval(0, 0)

    def step(node, l=None, r=None) -> Formula:
        match node:
            case Atom():
                return f_or(node, f_eventually(here, node, sigma))
            case Not():
                return Not(l)
            case And():
                return And(l, r)
            case Until(_, w, _):
                return Until(f_implies(BETA, l), w, And(BETA, r))

    return fold(f, step)[f]
