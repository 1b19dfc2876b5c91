"""Pointwise satisfaction: formulas evaluated at event positions only.

The engine supplies an algebra to `formulas.fold`: a subformula's value is one
truth value per position, atoms compare actions, and negation and conjunction
work position by position.

Until is one scan for finite words and lassos.  It walks the events after each
base and reads an event's operand values through an index map: the identity
for a finite word.  A lasso is evaluated exactly: beyond the prefix the suffix
languages at positions p and p + |period| coincide up to a uniform time shift,
so verdicts are computed on a finite quotient holding two copies of the period
(the copies must agree, which is asserted), and the map folds each unrolled
event back onto it.  A bounded window ends the scan past its upper bound; an
unbounded one ends it at the first event past its lower bound, where the
untimed tail, a least fixpoint over the bases, decides.

The scan compares ints.  `sat_positions` and `eval_pw_lasso` take the time
base D once (see `intervals`), from the word's or the materialized lasso's
times and `finite_window_bounds(f)`, and hand the scan 3tD for each event time
t, so that a distance compares directly with a window's keys.  The result is
a set of positions or a truth value, so nothing is converted back.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvariantError
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
from .intervals import INF, interval_keys, scaled, time_base
from .structures import Lasso, TimedWord


def _sat_lists(f: Formula, acts, D: int, until) -> dict:
    """The pointwise algebra over a run of positions; `until` decides U_I."""
    def visit(node, _mode, l=None, r=None) -> list:
        match node:
            case Atom(name):
                return [a == name for a in acts]
            case Not():
                return [not v for v in l]
            case And():
                return [a and b for a, b in zip(l, r)]
            case Until(_, w, _):
                return until(interval_keys(w, D), l, r)
    return fold(f, visit)


def _until(w, lv, rv, times, at) -> list:
    """f U_w g at every base, from the operand values lv, rv of the bases.

    `w` is the window's key pair; event j of the scanned run occurs at
    times[j] / 3D and reads base at[j]; the bases are the first len(lv)
    events.  A base whose scan runs out of events gets None.
    """
    w_lo, w_hi = w
    bounded = w_hi != INF
    tail = None if bounded else _untimed_tail(lv, rv, at)
    stop = 3 * (((w_hi if bounded else w_lo) + 1) // 3)  # 3D sup w, or 3D inf w
    out = []
    for i in range(len(lv)):
        t = times[i]
        for j in range(i + 1, len(times)):
            d, m = times[j] - t, at[j]
            if d > stop:  # past sup w, or every later event lies inside w
                out.append(tail is not None and tail[m])
            elif rv[m] and w_lo <= d <= w_hi:
                out.append(True)
            elif not lv[m]:
                out.append(False)
            else:
                continue
            break
        else:
            out.append(None)
    return out


def _untimed_tail(lv, rv, at) -> list:
    """Least fixpoint of T(m) = r(m) or (l(m) and T(next m)) over the bases."""
    n = len(lv)
    tail = [False] * n
    changed = True
    while changed:
        changed = False
        for m in reversed(range(n)):
            new = rv[m] or (lv[m] and m + 1 < len(at) and tail[at[m + 1]])
            if new != tail[m]:
                tail[m] = new
                changed = True
    return tail


def sat_positions(rho: TimedWord, f: Formula) -> frozenset:
    """All positions i with rho, i satisfying f."""
    require_beta_free(f, "pointwise")
    times = rho.times
    D = time_base([*times, *finite_window_bounds(f)])
    times, at = [3 * t for t in scaled(times, D)], range(len(rho))

    def until(w, lv, rv) -> list:
        return [v is True for v in _until(w, lv, rv, times, at)]

    sat = _sat_lists(f, rho.actions, D, until)[f, None]
    return frozenset(i for i, v in enumerate(sat) if v)


def eval_pw(rho: TimedWord, i: int, f: Formula) -> bool:
    if not (0 <= i < len(rho)):
        raise IndexError(f"position {i} out of range")
    return i in sat_positions(rho, f)


# ---------------------------------------------------------------------------
# exact lasso evaluation

def _materialize(l: Lasso, count: int, D: int):
    """Actions and 3D-scaled times of the first `count` events of the unrolled word."""
    acts = list(l.prefix.actions)
    times = [3 * t for t in scaled(l.prefix.times, D)]
    base = times[-1]
    dur = 3 * scaled([l.period_duration], D)[0]
    offsets = [3 * o for o in scaled(l.period_offsets, D)]
    k = 0
    while len(acts) < count:
        copy, idx = divmod(k, len(l.period_actions))
        acts.append(l.period_actions[idx])
        times.append(base + copy * dur + offsets[idx])
        k += 1
    return acts, times


def eval_pw_lasso(l: Lasso, f: Formula) -> bool:
    """Exact verdict of the unrolled infinite word at position 0."""
    require_beta_free(f, "pointwise")
    p0 = len(l.prefix)
    per = len(l.period_actions)
    dur = l.period_duration
    quot = p0 + 2 * per  # two period copies; they must agree, see below
    bounds = finite_window_bounds(f)
    max_bound = max(bounds, default=Fraction(0))
    # enough events that any scan of at most max_bound + 2 durations completes
    extra_copies = int((max_bound + 2 * dur) / dur) + 2
    D = time_base([*l.prefix.times, *l.period_offsets, dur, *bounds])
    acts, times = _materialize(l, quot + extra_copies * per, D)
    at = [j if j < quot else p0 + per + (j - p0 - per) % per for j in range(len(times))]

    def until(w, lv, rv) -> list:
        out = _until(w, lv, rv, times, at)
        if None in out:
            raise InvariantError("the Until scan ran out of materialized events")
        if out[p0:p0 + per] != out[p0 + per:]:
            raise InvariantError(
                "periodic positions disagree; the quotient identification is wrong")
        return out

    return _sat_lists(f, acts[:quot], D, until)[f, None][0]
