"""Pointwise satisfaction: formulas evaluated at event positions only.

The engine supplies an algebra to `formulas.fold`: a subformula's value is one
truth value per position, atoms compare actions, and negation and conjunction
work position by position.  Only the Until step differs between finite words
and lassos.

Finite words get a bottom-up dynamic program over positions.  Lassos are
evaluated exactly: beyond the prefix the suffix languages at positions p and
p + |period| coincide up to a uniform time shift, so verdicts are computed on
a finite quotient holding two copies of the period (the copies must agree,
which is asserted) with Until solved by a bounded scan for the timed part and
a least fixpoint for the untimed tail.
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
from .intervals import INF
from .structures import Lasso, TimedWord, duration


def _sat_lists(f: Formula, acts, until) -> dict:
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
                return until(w, l, r)
    return fold(f, visit)


def sat_positions(rho: TimedWord, f: Formula) -> frozenset:
    """All positions i with rho, i satisfying f."""
    require_beta_free(f, "pointwise")
    n = len(rho)
    times = rho.times

    def until(w, lv, rv) -> list:
        res = [False] * n
        for i in range(n):
            for j in range(i + 1, n):
                if w.hi.value != INF and times[j] - times[i] > w.hi.value:
                    break
                if rv[j] and w.contains(times[j] - times[i]):
                    res[i] = True
                    break
                if not lv[j]:
                    break
        return res

    sat = _sat_lists(f, rho.actions, until)[f, None]
    return frozenset(i for i, v in enumerate(sat) if v)


def eval_pw(rho: TimedWord, i: int, f: Formula) -> bool:
    if not (0 <= i < len(rho)):
        raise IndexError(f"position {i} out of range")
    return i in sat_positions(rho, f)


# ---------------------------------------------------------------------------
# exact lasso evaluation

def _materialize(l: Lasso, count: int):
    """Actions and times of the first `count` events of the unrolled word."""
    acts = list(l.prefix.actions)
    times = list(l.prefix.times)
    base = duration(l.prefix)
    k = 0
    while len(acts) < count:
        copy, idx = divmod(k, len(l.period_actions))
        acts.append(l.period_actions[idx])
        times.append(base + copy * l.period_duration + l.period_offsets[idx])
        k += 1
    return acts, times


def eval_pw_lasso(l: Lasso, f: Formula, max_copies: int | None = None) -> bool:
    """Exact verdict of the unrolled infinite word at position 0."""
    require_beta_free(f, "pointwise")
    p0 = len(l.prefix)
    per = len(l.period_actions)
    dur = l.period_duration
    quot = p0 + 2 * per  # two period copies; they must agree, see below
    max_bound = max(finite_window_bounds(f), default=Fraction(0))
    # enough events that any scan of at most max_bound + 2 durations completes
    extra_copies = int((max_bound + 2 * dur) / dur) + 2
    if max_copies is not None:
        extra_copies = max(extra_copies, max_copies)
    count = quot + extra_copies * per
    acts, times = _materialize(l, count)

    def wrap(j: int) -> int:
        if j < quot:
            return j
        return p0 + per + ((j - p0 - per) % per)

    def until(w, lv, rv) -> list:
        if w.hi.value != INF:
            out = [_scan_bounded(i, w, lv, rv) for i in range(quot)]
        else:
            tail = _untimed_tail(lv, rv)
            out = [_scan_unbounded(i, w, lv, rv, tail) for i in range(quot)]
        if out[p0:p0 + per] != out[p0 + per:quot]:
            raise InvariantError(
                "periodic positions disagree; the quotient identification is wrong")
        return out

    def _scan_bounded(i, w, lv, rv):
        for j in range(i + 1, count):
            d = times[j] - times[i]
            if d > w.hi.value:
                return False
            if rv[wrap(j)] and w.contains(d):
                return True
            if not lv[wrap(j)]:
                return False
        raise InvariantError("bounded scan ran out of materialized events")

    def _scan_unbounded(i, w, lv, rv, tail):
        for j in range(i + 1, count):
            d = times[j] - times[i]
            if d > w.lo.value:
                return tail[wrap(j)]  # every later event satisfies the window
            if rv[wrap(j)] and w.contains(d):
                return True
            if not lv[wrap(j)]:
                return False
        raise InvariantError("lower-bound scan ran out of materialized events")

    def _untimed_tail(lv, rv):
        """Least fixpoint of T(m) = r(m) or (l(m) and T(m+1)) over the quotient."""
        tail = [False] * quot
        changed = True
        while changed:
            changed = False
            for m in reversed(range(quot)):
                new = rv[m] or (lv[m] and tail[wrap(m + 1)])
                if new != tail[m]:
                    tail[m] = new
                    changed = True
        return tail

    return _sat_lists(f, acts[:quot], until)[f, None][0]
