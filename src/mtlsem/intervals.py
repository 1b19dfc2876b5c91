"""Exact interval algebra over nonnegative rationals.

Single intervals carry open/closed flags on both ends; interval sets are
normalized finite unions (disjoint, sorted, adjacency merged).  All endpoint
arithmetic is exact: finite values are `fractions.Fraction`, the missing upper
bound is `math.inf` (never closed).

Endpoints are compared through (value, epsilon) keys: a closed end has
epsilon 0, an open lower end +1, an open upper end -1.  A key pair
(lo_key, hi_key) denotes a non-empty interval exactly when lo_key <= hi_key,
which makes membership, intersection and adjacency checks plain tuple
comparisons.

Set operations assume normalized operands and return normalized results:
`intersect` and `difference` are single linear sweeps over the two sorted part
lists (the representation of Maler & Nickovic, FORMATS 2004) and never
re-sort.  `from_intervals` normalizes arbitrary input; constructing
`IntervalSet(parts)` directly is only valid with parts that are already
normalized.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import MtlsemError

INF = math.inf

_RAT_RE = re.compile(r"^\s*(\d+)\s*/\s*(\d+)\s*$|^\s*(\d+(?:\.\d+)?)\s*$")


def rational(value) -> Fraction:
    """Parse a nonnegative rational from "p/q", a terminating decimal, or a number."""
    if isinstance(value, Fraction):
        q = value
    elif isinstance(value, int):
        q = Fraction(value)
    elif isinstance(value, str):
        if not _RAT_RE.match(value):
            raise MtlsemError(f"not a nonnegative rational: {value!r}")
        q = Fraction(value.strip())
    else:
        raise MtlsemError(f"not a rational: {value!r}")
    if q < 0:
        raise MtlsemError(f"negative value not allowed: {value!r}")
    return q


def rat_str(q) -> str:
    if q == INF:
        return "inf"
    return str(q)


@dataclass(frozen=True)
class Bound:
    """One interval endpoint; `value` is a Fraction or math.inf (inf never closed)."""

    value: object
    closed: bool

    def __post_init__(self):
        if self.value == INF and self.closed:
            raise MtlsemError("an infinite bound cannot be closed")


@dataclass(frozen=True)
class Interval:
    """A non-empty convex subset of the nonnegative reals with rational endpoints."""

    lo: Bound
    hi: Bound

    def __post_init__(self):
        if self.lo.value < 0:
            raise MtlsemError("intervals live over nonnegative values")
        if self.lo.value == INF:
            raise MtlsemError("lower bound must be finite")
        if not _nonempty(_lo_key(self.lo), _hi_key(self.hi)):
            raise MtlsemError(f"empty interval: {_fmt(self.lo, self.hi)}")

    @property
    def is_punctual(self) -> bool:
        return self.lo.value == self.hi.value

    def contains(self, t: Fraction) -> bool:
        return _lo_key(self.lo) <= (t, 0) <= _hi_key(self.hi)

    def intersect(self, other: "Interval") -> "Interval | None":
        lo = max(_lo_key(self.lo), _lo_key(other.lo))
        hi = min(_hi_key(self.hi), _hi_key(other.hi))
        if not _nonempty(lo, hi):
            return None
        return _from_keys(lo, hi)

    def __str__(self) -> str:
        return _fmt(self.lo, self.hi)


def interval(lo, hi, lo_closed: bool = True, hi_closed: bool = True) -> Interval:
    lo = lo if isinstance(lo, Fraction) else rational(lo)
    hi = hi if (isinstance(hi, Fraction) or hi == INF) else rational(hi)
    return Interval(Bound(lo, lo_closed), Bound(hi, hi_closed))


def punctual(t) -> Interval:
    t = t if isinstance(t, Fraction) else rational(t)
    return interval(t, t, True, True)


_IV_RE = re.compile(r"^\s*([\[(])\s*([^,\s]+)\s*,\s*([^,\s\])]+)\s*([\])])\s*$")


def parse_interval(text: str) -> Interval:
    """Parse "[l,u]", "(l,u]", "[l,u)" or "(l,u)"; "inf" allowed as u in open-above forms."""
    m = _IV_RE.match(text)
    if not m:
        raise MtlsemError(f"not an interval: {text!r}")
    lbr, lo_s, hi_s, rbr = m.groups()
    hi = INF if hi_s == "inf" else rational(hi_s)
    if hi == INF and rbr == "]":
        raise MtlsemError(f"infinite upper bound must be open: {text!r}")
    return interval(rational(lo_s), hi, lbr == "[", rbr == "]")


# ---------------------------------------------------------------------------
# endpoint keys

def _lo_key(b: Bound):
    return (b.value, 0 if b.closed else 1)


def _hi_key(b: Bound):
    return (b.value, 0 if b.closed else -1)


def _nonempty(lo_key, hi_key) -> bool:
    return lo_key <= hi_key


def _from_keys(lo_key, hi_key) -> Interval:
    return Interval(Bound(lo_key[0], lo_key[1] == 0), Bound(hi_key[0], hi_key[1] == 0))


def _fmt(lo: Bound, hi: Bound) -> str:
    l = "[" if lo.closed else "("
    r = "]" if hi.closed else ")"
    return f"{l}{rat_str(lo.value)},{rat_str(hi.value)}{r}"


def _mergeable(a: Interval, b: Interval) -> bool:
    """True when a ∪ b is a single interval, given a.lo <= b.lo in key order."""
    if b.lo.value < a.hi.value:
        return True
    if b.lo.value == a.hi.value:
        return a.hi.closed or b.lo.closed
    return False


# ---------------------------------------------------------------------------
# normalized unions

@dataclass(frozen=True)
class IntervalSet:
    """Normalized finite union of disjoint intervals, sorted, adjacency merged.

    `parts` must already be normalized; use `from_intervals` otherwise.
    """

    parts: tuple

    @staticmethod
    def empty() -> "IntervalSet":
        return _EMPTY

    @staticmethod
    def of(*ivs) -> "IntervalSet":
        return IntervalSet.from_intervals(ivs)

    @staticmethod
    def from_intervals(ivs) -> "IntervalSet":
        items = sorted(ivs, key=lambda iv: (_lo_key(iv.lo), _hi_key(iv.hi)))
        merged: list[Interval] = []
        for iv in items:
            if merged and _mergeable(merged[-1], iv):
                last = merged[-1]
                hi = max(_hi_key(last.hi), _hi_key(iv.hi))
                merged[-1] = _from_keys(_lo_key(last.lo), hi)
            else:
                merged.append(iv)
        return IntervalSet(tuple(merged))

    @property
    def is_empty(self) -> bool:
        return not self.parts

    def member(self, t: Fraction) -> bool:
        return any(p.contains(t) for p in self.parts)

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet.from_intervals(self.parts + other.parts)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        """Two-pointer merge of the sorted part lists; the result is already normal."""
        a, b = self.parts, other.parts
        out = []
        i = j = 0
        while i < len(a) and j < len(b):
            x, y = a[i], b[j]
            x_lo, x_hi = _lo_key(x.lo), _hi_key(x.hi)
            y_lo, y_hi = _lo_key(y.lo), _hi_key(y.hi)
            lo, hi = max(x_lo, y_lo), min(x_hi, y_hi)
            if _nonempty(lo, hi):
                if lo == x_lo and hi == x_hi:
                    out.append(x)
                elif lo == y_lo and hi == y_hi:
                    out.append(y)
                else:
                    out.append(_from_keys(lo, hi))
            if x_hi <= y_hi:
                i += 1
            else:
                j += 1
        return IntervalSet(tuple(out))

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        """One sweep: each part of self loses the parts of other that overlap it."""
        b = other.parts
        out = []
        j = 0
        for x in self.parts:
            x_lo, x_hi = _lo_key(x.lo), _hi_key(x.hi)
            while j < len(b) and _hi_key(b[j].hi) < x_lo:
                j += 1
            lo = x_lo
            k = j
            while k < len(b) and _lo_key(b[k].lo) <= x_hi:
                b_lo, b_hi = _lo_key(b[k].lo), _hi_key(b[k].hi)
                left_hi = (b_lo[0], b_lo[1] - 1)  # flip lower bound into an upper one
                if _nonempty(lo, left_hi):
                    out.append(_from_keys(lo, left_hi))
                lo = (b_hi[0], b_hi[1] + 1)  # flip upper bound into a lower one
                k += 1
            if k == j:  # nothing of other overlaps x
                out.append(x)
            elif _nonempty(lo, x_hi):
                out.append(_from_keys(lo, x_hi))
        return IntervalSet(tuple(out))

    def complement(self, domain: Interval) -> "IntervalSet":
        dom = IntervalSet.of(domain)
        if not self.difference(dom).is_empty:
            raise MtlsemError("complement taken of a set not contained in the domain")
        return dom.difference(self)

    def covers(self, iv: Interval) -> bool:
        return IntervalSet.of(iv).difference(self).is_empty

    def clip(self, domain: Interval) -> "IntervalSet":
        return self.intersect(IntervalSet.of(domain))

    def __str__(self) -> str:
        if not self.parts:
            return "{}"
        return "{" + ", ".join(str(p) for p in self.parts) + "}"


_EMPTY = IntervalSet(())


def back_shift(q: Interval, i: Interval) -> Interval | None:
    """The set {t >= 0 : exists t' in q with t' - t in i and t' > t}.

    This is the time quantifier of the dense Until: shift the witness window q
    back through the constraint interval i, dropping 0 from i first because a
    witness must lie strictly in the future.  Always convex; None when empty.
    """
    i_lo, i_hi = i.lo, i.hi
    if i_lo.value == 0 and i_lo.closed:
        i_lo = Bound(Fraction(0), False)
        if not _nonempty(_lo_key(i_lo), _hi_key(i_hi)):
            return None  # constraint was the single point 0: no strict-future witness
    lo_val = q.lo.value - i_hi.value if i_hi.value != INF else -INF
    lo_closed = q.lo.closed and i_hi.closed
    hi_val = q.hi.value - i_lo.value
    hi_closed = q.hi.closed and i_lo.closed
    if lo_val < 0:
        lo_val, lo_closed = Fraction(0), True
    if hi_val < 0:
        return None
    lo_key = (lo_val, 0 if lo_closed else 1)
    hi_key = (hi_val, 0 if hi_closed else -1)
    if not _nonempty(lo_key, hi_key):
        return None
    return _from_keys(lo_key, hi_key)
