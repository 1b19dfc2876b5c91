"""Pointwise satisfaction: formulas evaluated at event positions only.

The engine supplies an algebra to `formulas.fold`: a subformula's value is one
truth value per position, atoms compare actions, and negation and conjunction
work position by position.

Until is one forward scan (the sliding window of Donzé, Ferrère & Maler,
"Efficient Robust Monitoring for STL", CAV 2013).  Event times never
decrease, so the positions inside a base's window form one run, and its first
and last position only move forward as the base does.  The first g-position
at or after the run's start is the base's best witness: it holds exactly when
that position lies inside the run and no f-failure comes before it.  Two
arrays of next positions, where f fails and where g holds, answer this in
constant time per base.  An unbounded window's run ends at the last event.

A lasso is decided exactly on a finite word: `encodings.lasso_instance`
closes every unbounded window at the lasso's period and unrolls far enough,
and the verdict is the truth at position 0.

The scan compares ints.  `sat_positions` reads the word's ticks, takes the
time base D once (see `intervals`), from their base and
`finite_window_bounds(f)`, and hands the scan 3tD for each event time t, so
that a distance compares directly with a window's keys.  The result is a set
of positions, so nothing is converted back.
"""

from __future__ import annotations

from .encodings import lasso_instance
from .formulas import (
    And,
    Atom,
    Formula,
    Not,
    Until,
    finite_window_bounds,
    fold,
    require_beta_free,
)
from .intervals import INF, interval_keys, rebased
from .structures import Lasso, TimedWord


def _next_true(flags) -> list:
    """out[i] is the first index >= i whose flag is set, len(flags) if there is none."""
    out = [len(flags)] * (len(flags) + 1)
    for i in range(len(flags) - 1, -1, -1):
        out[i] = i if flags[i] else out[i + 1]
    return out


def _until(w, lv, rv, times) -> list:
    """f U_w g at every position, from the operand values lv, rv.

    `w` is the window's key pair and event i occurs at times[i] / 3D.  Base
    i's window holds the positions first <= j < last after i, and its first
    g-position j at or after `first` is its best witness: the base holds when
    j < last and f does not fail before j.  An unbounded window has last = n.
    """
    w_lo, w_hi = w
    n = len(times)
    fail = _next_true([not v for v in lv])
    good = _next_true(rv)
    out = []
    first, last = 0, n if w_hi == INF else 0
    for i, t in enumerate(times):
        first = max(first, i + 1)
        while first < n and times[first] - t < w_lo:
            first += 1
        while last < n and times[last] - t <= w_hi:
            last += 1
        j = good[first]
        out.append(j < last and j <= fail[i + 1])
    return out


def sat_positions(rho: TimedWord, f: Formula) -> frozenset:
    """All positions i with rho, i satisfying f."""
    require_beta_free(f, "pointwise")
    acts = rho.actions
    D, ticks = rebased(rho.ticks, finite_window_bounds(f))
    times = [3 * t for t in ticks]

    def visit(node, l=None, r=None) -> list:
        match node:
            case Atom(name):
                return [a == name for a in acts]
            case Not():
                return [not v for v in l]
            case And():
                return [a and b for a, b in zip(l, r)]
            case Until(_, w, _):
                return _until(interval_keys(w, D), l, r, times)

    sat = fold(f, visit)[f]
    return frozenset(i for i, v in enumerate(sat) if v)


def eval_pw(rho: TimedWord, i: int, f: Formula) -> bool:
    if not (0 <= i < len(rho)):
        raise IndexError(f"position {i} out of range")
    return i in sat_positions(rho, f)


def eval_pw_lasso(l: Lasso, f: Formula) -> bool:
    """Exact verdict of the unrolled infinite word at position 0."""
    rho, g = lasso_instance(l, f)
    return 0 in sat_positions(rho, g)
