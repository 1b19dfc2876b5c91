"""Interval-based satisfaction over timed words and timed state sequences.

Each subformula gets an exact satisfaction set: a normalized union of
rational-endpoint intervals over the covered time domain.  The engine supplies
this algebra to `formulas.fold`: atoms are the event points (or the
state-sequence steps), negation is complement in the domain, conjunction is
intersection, and the strict dense Until decomposes by the maximal convex
parts of the left operand's set:

    a base point t satisfies (f U_I g) exactly when some maximal part <l,u>
    of Sat(f) has l <= t and a witness t' in Sat(g) with t < t' <= u and
    t' - t in I; the open interval (t, t') is then inside that single part,
    since distinct maximal parts are separated by at least a missing point.

The witness window per part is (l, u] regardless of the part's own endpoint
flags; back_shift turns each witness interval into the exact base region.

Lassos get three-valued verdicts from a truncated unroll: evaluation runs
pessimistically (no witnesses beyond the cut), and when that fails
optimistically (anything beyond the cut granted); disagreement reports
Unknown.  Negation swaps the two modes (the flip given to `fold`).  Bounded
formulas are decided exactly on a horizon-deep unroll instead.
"""

from __future__ import annotations

import enum
from fractions import Fraction

from .errors import OutOfDomainError
from .formulas import (
    And,
    Atom,
    Formula,
    Not,
    Until,
    finite_window_bounds,
    fold,
    horizon,
    is_bounded,
    require_beta_free,
)
from .intervals import (
    INF,
    Bound,
    Interval,
    IntervalSet,
    back_shift,
    interval,
    punctual,
)
from .structures import (
    Lasso,
    TimedStateSequence,
    TimedWord,
    duration,
    tss_duration,
    tss_start,
    unroll,
)


class Verdict3(enum.Enum):
    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"

    @staticmethod
    def of(b: bool) -> "Verdict3":
        return Verdict3.TRUE if b else Verdict3.FALSE


EXACT, OPTIMISTIC, PESSIMISTIC = "exact", "opt", "pess"

_FLIP = {EXACT: EXACT, OPTIMISTIC: PESSIMISTIC, PESSIMISTIC: OPTIMISTIC}


def _until_bases(f_set: IntervalSet, g_set: IntervalSet, w: Interval,
                 domain: Interval) -> list:
    """The dense Until decomposition: per maximal part <l,u> of f, the bases in
    domain and at or after l of the witnesses g holds in (l, u]."""
    out = []
    for part in f_set.parts:
        l, u = part.lo.value, part.hi.value
        if l == u:
            continue
        witness_zone = Interval(Bound(l, False), Bound(u, True))
        for region in g_set.intersect(IntervalSet.of(witness_zone)).parts:
            base = back_shift(region, w)
            if base is not None:
                base = base.intersect(interval(l, INF, True, False))
            if base is not None:
                base = base.intersect(domain)
            if base is not None:
                out.append(base)
    return out


def _until_set(f_set: IntervalSet, g_set: IntervalSet, w: Interval,
               domain: Interval, mode: str) -> IntervalSet:
    out = _until_bases(f_set, g_set, w, domain)
    if mode == OPTIMISTIC:
        cut = domain.hi.value
        last = f_set.parts[-1] if f_set.parts else None
        if last is not None and last.hi.value == cut and last.hi.closed:
            # the left operand holds through the cut: grant a witness beyond it
            ext = _beyond_cut_bases(last.lo.value, cut, w)
            if ext is not None:
                out.append(ext)
        if not (w.lo.value == 0 and w.hi.value == 0):
            # at the cut itself nothing needs to hold in between
            out.append(punctual(cut))
    return IntervalSet.from_intervals(out)


def _beyond_cut_bases(l: Fraction, cut: Fraction, w: Interval) -> Interval | None:
    """Bases t in [l, cut] whose window t + w reaches strictly past the cut."""
    if w.hi.value != INF and cut - w.hi.value >= cut:  # window never leaves the cut
        return None
    lo = Bound(l, True)
    if w.hi.value != INF and cut - w.hi.value >= l:
        lo = Bound(cut - w.hi.value, False)
    return Interval(lo, Bound(cut, True))


def _sat_dense(atom_parts, domain: Interval, f: Formula, mode: str) -> dict:
    """The dense algebra: atom_parts(name) are the atom's intervals, negation is
    complement in the domain, conjunction intersection, Until `_until_set`."""
    full = IntervalSet.of(domain)

    def visit(node, m, l=None, r=None) -> IntervalSet:
        match node:
            case Atom(name):
                return IntervalSet.from_intervals(atom_parts(name))
            case Not():
                return full.difference(l)
            case And():
                return l.intersect(r)
            case Until(_, w, _):
                return _until_set(l, r, w, domain, m)
    return fold(f, visit, mode, _FLIP.__getitem__)


# ---------------------------------------------------------------------------
# timed words

def sat_sets_itw(rho: TimedWord, f: Formula, mode: str = EXACT) -> dict:
    """The fold table: Sat(g) per (subformula g, mode), in `subformulas` order."""
    require_beta_free(f, "interval-based")
    return _sat_dense(lambda name: (punctual(t) for a, t in rho.events if a == name),
                      interval(0, duration(rho)), f, mode)


def sat_set_itw(rho: TimedWord, f: Formula, mode: str = EXACT) -> IntervalSet:
    """Exactly the times t in [0, duration] where rho, t satisfies f."""
    return sat_sets_itw(rho, f, mode)[f, mode]


def eval_itw(rho: TimedWord, t, f: Formula) -> bool:
    t = t if isinstance(t, Fraction) else Fraction(t)
    if t < 0 or t > duration(rho):
        raise OutOfDomainError(f"time {t} outside [0, {duration(rho)}]")
    return sat_set_itw(rho, f).member(t)


# ---------------------------------------------------------------------------
# timed state sequences

def sat_sets_its(kappa: TimedStateSequence, f: Formula, mode: str = EXACT) -> dict:
    """The fold table: Sat(g) per (subformula g, mode), in `subformulas` order."""
    require_beta_free(f, "interval-based")
    domain = interval(tss_start(kappa), tss_duration(kappa))
    return _sat_dense(lambda name: (iv for props, iv in kappa.steps if name in props),
                      domain, f, mode)


def sat_set_its(kappa: TimedStateSequence, f: Formula, mode: str = EXACT) -> IntervalSet:
    return sat_sets_its(kappa, f, mode)[f, mode]


def eval_its(kappa: TimedStateSequence, t, f: Formula) -> bool:
    t = t if isinstance(t, Fraction) else Fraction(t)
    if t < tss_start(kappa) or t > tss_duration(kappa):
        raise OutOfDomainError(f"time {t} outside the covered span")
    return sat_set_its(kappa, f).member(t)


# ---------------------------------------------------------------------------
# lassos

def lasso_cut(l: Lasso, f: Formula) -> Fraction:
    """Unroll horizon: past every finite window bound, with period slack."""
    bounds = finite_window_bounds(f)
    reach = max(bounds, default=Fraction(0)) + Fraction(1)
    if is_bounded(f):
        reach = max(reach, horizon(f))
    return duration(l.prefix) + 2 * l.period_duration + reach


def _lasso_verdict(f: Formula, holds) -> Verdict3:
    """The three-valued verdict from `holds(mode)`, f's truth at the origin."""
    if is_bounded(f):
        return Verdict3.of(holds(EXACT))
    if holds(PESSIMISTIC):
        return Verdict3.TRUE
    return Verdict3.UNKNOWN if holds(OPTIMISTIC) else Verdict3.FALSE


def eval_itw_lasso(l: Lasso, f: Formula, cut=None) -> Verdict3:
    """Three-valued verdict at time 0; exact whenever f is bounded."""
    require_beta_free(f, "interval-based")
    w = unroll(l, cut if cut is not None else lasso_cut(l, f))
    return _lasso_verdict(f, lambda mode: sat_set_itw(w, f, mode).member(Fraction(0)))
