"""Exact interval algebra over nonnegative rationals.

Single intervals carry open/closed flags on both ends; interval sets are
normalized finite unions (disjoint, sorted, adjacency merged).  Finite values
are `fractions.Fraction`; the missing upper bound is `math.inf` (never closed).

The key encoding.  D, the least common multiple of the denominators involved
(`time_base`), turns every finite value v into the integer vD, and an endpoint
into one int key: 3vD for a closed end, +1 for an open lower end, -1 for an
open upper end.  Keys order endpoints exactly as (value, epsilon) pairs do, so
a key pair (lo, hi) denotes a non-empty interval exactly when lo <= hi, t is in
it exactly when lo <= 3tD <= hi, and flipping an upper end into the lower end
of what follows it is hi + 1 (lower into upper, lo - 1).  The missing upper
bound keeps the key `INF`.  A key list is a sorted list of such pairs.

An Interval becomes keys in one place, `Interval.keys`, on the least base of
its two ends; every other base is a `scaled_keys` lift of those keys.  Each
model carries its values on the base D0 of its timestamps (see `structures`).
The dense and mixed engines scale them onto D, the lcm of D0 and their windows'
own bases (`formulas.fold_base`), lift each window onto D, and run every sweep
over key lists here: set operations, complements (`difference_keys` from the
domain) and the Until (`_until_bases`, and `_same_block_bases` on the lex
line), after Maler & Nickovic, FORMATS 2004.  Every endpoint is an input time
plus or minus window bounds, on D.

Rationals and intervals have one text grammar, `RATIONAL_TEXT` and
`INTERVAL_TEXT`, and one reader each, `rational_pair` (`rational_ticks` for a
column) and `interval_pair` (to keys).  A rational is "p/q" (spaces allowed
around the slash, q nonzero) or a terminating decimal; an interval is a bracket,
a rational, a comma, a rational or "inf", and a bracket.  `--time`, JSON stamps,
state-sequence steps and formula windows all read through them, alike.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress, repeat
from operator import mul

from .errors import MtlsemError

INF = math.inf

RATIONAL_TEXT = r"(\d+)(?:\.(\d+)|\s*/\s*(\d+))?"
INTERVAL_TEXT = rf"([\[(])\s*({RATIONAL_TEXT})\s*,\s*({RATIONAL_TEXT}|inf)\s*([\])])"
_RATIONAL = re.compile(rf"\s*{RATIONAL_TEXT}\s*")
_INTERVAL = re.compile(rf"\s*{INTERVAL_TEXT}\s*")


def _pair(text: str, whole: str, frac: str, den: str) -> tuple:
    """The (numerator, denominator) pair of a `RATIONAL_TEXT` from its groups
    (whole, decimals, denominator), as written: "0.50" gives (50, 100)."""
    try:
        n, d = int(whole + frac), int(den) if den else 10 ** len(frac)
    except ValueError:  # past int's digit limit (sys.get_int_max_str_digits)
        raise MtlsemError(f"numeral too long to read: {text[:16]!r}...") from None
    if not d:
        raise MtlsemError(f"zero denominator: {text!r}")
    return n, d


def rational_pair(text: str) -> tuple:
    """The (numerator, denominator) pair of a `RATIONAL_TEXT`, as written."""
    m = _RATIONAL.fullmatch(text)
    if m is None:
        raise MtlsemError(f"not a nonnegative rational: {text!r}")
    return _pair(text.strip(), *m.groups(""))


def rational_ticks(texts) -> tuple:
    """(D, each `RATIONAL_TEXT`'s value times D, as an int), D the lcm of the
    denominators as written.  A list of plain "p" and "p/q" texts is read with
    str methods and int over whole columns, no call per text; any other list, or
    one that fails there, by `rational_pair` per distinct text: the first bad raises."""
    nums, slashes, dens = tuple(zip(*map(str.partition, texts, repeat("/")))) or ((), (), ())
    if all(map(str.isdecimal, nums)) and all(map(str.isdecimal, compress(dens, slashes))):
        try:
            den_of = {q: int(q or 1) for q in set(dens)}  # q is "" for a plain "p"
            D = math.lcm(*den_of.values())
            scale = {q: D // d for q, d in den_of.items()}
            return D, list(map(mul, map(int, nums), map(scale.__getitem__, dens)))
        except (ValueError, ZeroDivisionError):  # int's digit limit; 0 // 0 at a zero denominator
            pass
    pair_of = {t: rational_pair(t) for t in dict.fromkeys(texts)}  # each distinct text once
    D = math.lcm(*{d for _, d in pair_of.values()})
    return D, [n * (D // d) for n, d in map(pair_of.__getitem__, texts)]


def interval_pair(text: str) -> tuple:
    """(d, the (lo, hi) key pair of an `INTERVAL_TEXT` on d), d the least base of
    its two ends: each end's (numerator, denominator) reduced by its own gcd."""
    m = _INTERVAL.fullmatch(text)
    if not m:
        raise MtlsemError(f"not an interval: {text!r}")
    lbr, lo, lw, lf, ld, hi, hw, hf, hd, rbr = m.groups("")  # each end and its three groups
    if hi == "inf" and rbr == "]":
        raise MtlsemError(f"infinite upper bound must be open: {text!r}")
    ends = [_pair(lo, lw, lf, ld), (0, 1) if hi == "inf" else _pair(hi, hw, hf, hd)]
    (a, p), (b, q) = [(x // g, y // g) for x, y in ends for g in (math.gcd(x, y),)]
    d = math.lcm(p, q)
    keys = 3 * a * (d // p) + (lbr == "("), INF if hi == "inf" else 3 * b * (d // q) - (rbr == ")")
    if keys[0] > keys[1]:
        raise MtlsemError(f"empty interval: {key_texts(d, [keys])[0]}")
    return d, keys


def rational(value) -> Fraction:
    """Parse a nonnegative rational from `RATIONAL_TEXT`, an int or a Fraction."""
    if isinstance(value, str):
        return Fraction(*rational_pair(value))
    if not isinstance(value, (int, Fraction)):
        raise MtlsemError(f"not a rational: {value!r}")
    if value < 0:
        raise MtlsemError(f"negative value not allowed: {value!r}")
    return value if isinstance(value, Fraction) else Fraction(value)


def rat_str(q) -> str:
    # the isinstance test spares a slow Fraction == float comparison: inf is
    # the one float a value holds
    try:
        return "inf" if isinstance(q, float) else str(q)
    except ValueError:  # past int's digit limit (sys.get_int_max_str_digits)
        raise MtlsemError("value too long to print") from None


@dataclass(frozen=True)
class Bound:
    """One interval endpoint; `value` is a Fraction or math.inf (inf never closed)."""

    value: object
    closed: bool

    def __post_init__(self):
        # the isinstance test spares finite values a slow Fraction == float comparison
        if self.closed and isinstance(self.value, float) and self.value == INF:
            raise MtlsemError("an infinite bound cannot be closed")


@dataclass(frozen=True)
class Interval:
    """A non-empty convex subset of the nonnegative reals with rational endpoints."""

    lo: Bound
    hi: Bound

    def __post_init__(self):
        if self.lo.value < 0:
            raise MtlsemError("intervals live over nonnegative values")
        if isinstance(self.lo.value, float) and self.lo.value == INF:
            raise MtlsemError("lower bound must be finite")
        _, (lo, hi) = self.keys
        if lo > hi:
            raise MtlsemError(f"empty interval: {self}")

    @cached_property
    def keys(self) -> tuple:
        """(d, the key pair on d), d the least base of the two ends: the one place
        an Interval becomes keys, read on first use and kept."""
        lo, hi = self.lo.value, self.hi.value
        if isinstance(hi, float):  # inf, the one float a bound holds
            return lo.denominator, (3 * lo.numerator + (not self.lo.closed), INF)
        p, q = lo.denominator, hi.denominator
        d = math.lcm(p, q)
        return d, (3 * lo.numerator * (d // p) + (not self.lo.closed),
                   3 * hi.numerator * (d // q) - (not self.hi.closed))

    def __eq__(self, other) -> bool:
        return self is other or isinstance(other, Interval) and self.keys == other.keys

    def __hash__(self) -> int:
        return hash(self.keys)

    def contains(self, t: Fraction) -> bool:
        d, (lo, hi) = self.keys
        return lo <= time_key(t, d) <= hi

    def __str__(self) -> str:
        d, pair = self.keys
        return key_texts(d, [pair])[0]


def interval(lo, hi, lo_closed: bool = True, hi_closed: bool = True) -> Interval:
    lo = lo if isinstance(lo, Fraction) else rational(lo)
    hi = hi if (isinstance(hi, Fraction) or hi == INF) else rational(hi)
    return Interval(Bound(lo, lo_closed), Bound(hi, hi_closed))


def punctual(t) -> Interval:
    return interval(t, t)


def parse_interval(text: str) -> Interval:
    """The Interval of an `INTERVAL_TEXT`, read by `interval_pair`."""
    D, pair = interval_pair(text)
    return key_intervals(D, [pair])[0]


# ---------------------------------------------------------------------------
# the integer time base

def time_base(values) -> int:
    """D: the least common multiple of the denominators of the finite values."""
    return math.lcm(*{getattr(v, "denominator", 1) for v in values})  # inf has none


def tick_column(values) -> tuple:
    """(D0, each value times D0 as an int), D0 the time base of the values."""
    D0 = time_base(values)
    return D0, tuple([v.numerator * (D0 // v.denominator) for v in values])


def key_column(ivs) -> tuple:
    """(D, each interval's key pair on D), D the lcm of the intervals' own
    bases, onto which each one's `keys` are lifted."""
    keys = [p.keys for p in ivs]
    D = math.lcm(*[d for d, _ in keys])
    return D, [pair if d == D else scaled_keys([pair], D // d)[0] for d, pair in keys]


def key_intervals(D: int, keys) -> tuple:
    """The Interval of each key pair on the time base D, trusted to be one:
    built without `Interval.__post_init__`'s re-validation, with one Bound per
    key.  The open ends just after and just before a value v (keys 3v + 1 and
    3v - 1) are one Bound."""
    bound = {INF: _OPEN_INF}
    for k in {k for pair in keys for k in pair}:
        if k not in bound:
            v = (k + 1) // 3
            b = bound[k] = Bound(Fraction(v, D), k == 3 * v)
            bound[6 * v - k] = b  # 3v + 1 and 3v - 1 lie either side of 3v
    out = []
    for lo, hi in keys:
        iv = object.__new__(Interval)
        fields = iv.__dict__  # written directly: Interval is frozen
        fields["lo"] = bound[lo]
        fields["hi"] = bound[hi]
        out.append(iv)
    return tuple(out)


_OPEN_INF = Bound(INF, False)


def tick_text(v: int, D: int) -> str:
    """The tick v on the time base D as `rat_str` prints its value, by one int
    gcd: str(Fraction(v, D))."""
    g = math.gcd(v, D)
    try:
        return str(v // g) if g == D else f"{v // g}/{D // g}"
    except ValueError:  # past int's digit limit, as in `rat_str`
        raise MtlsemError("value too long to print") from None


def key_texts(D: int, keys) -> list:
    """Each key pair on the time base D as `str(Interval)` prints it, by int
    arithmetic."""
    return [("(" if lo % 3 else "[") + tick_text((lo + 1) // 3, D) + ","
            + ("inf)" if hi == INF else tick_text((hi + 1) // 3, D) + (")" if hi % 3 else "]"))
            for lo, hi in keys]


def scaled_keys(keys, f: int) -> list:
    """A key list on a time base f times finer: each value times f, each
    open-end offset kept."""
    m = 3 * (f - 1)
    return [(lo + m * ((lo + 1) // 3), hi if hi == INF else hi + m * ((hi + 1) // 3))
            for lo, hi in keys]


def time_key(t, D: int) -> int:
    """The key of time t on the base D.  A t off the base gets the key of the
    open stretch after floor(tD), which every part holding t holds."""
    q, r = divmod(t.numerator * D, t.denominator)
    return 3 * q + (r > 0)


def meets(keys, key) -> bool:
    """Whether a part of the normalized key list holds the key."""
    i = bisect_right(keys, (key, INF))  # the parts starting there or before
    return i > 0 and keys[i - 1][1] >= key


# ---------------------------------------------------------------------------
# sweeps over key lists

def normalize_keys(keys) -> list:
    """Sort key pairs and merge the ones that overlap or touch.  On two sorted
    runs one after the other, the sort is one linear run merge."""
    return merge_keys(sorted(keys))


def merge_keys(keys) -> list:
    """Merge the key pairs, already in order, that overlap or touch."""
    out = []
    for lo, hi in keys:
        if out and lo <= out[-1][1] + 1:
            if hi > out[-1][1]:
                out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return out


def intersect_keys(a, b) -> list:
    """Two-pointer merge of two normalized key lists; the result is normalized."""
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        a_lo, a_hi = a[i]
        b_lo, b_hi = b[j]
        lo = a_lo if a_lo > b_lo else b_lo
        if a_hi <= b_hi:
            if lo <= a_hi:
                out.append((lo, a_hi))
            i += 1
        else:
            if lo <= b_hi:
                out.append((lo, b_hi))
            j += 1
    return out


def difference_keys(a, b) -> list:
    """One sweep: each part of a loses the parts of b that overlap it."""
    out = []
    j, nb = 0, len(b)
    for lo, hi in a:
        while j < nb and b[j][1] < lo:
            j += 1
        k = j
        while k < nb and b[k][0] <= hi:
            b_lo, b_hi = b[k]
            if lo < b_lo:
                out.append((lo, b_lo - 1))
            if b_hi >= hi:
                break  # b covers the rest of this part
            lo = b_hi + 1
            k += 1
        else:
            out.append((lo, hi))
    return out


def _until_bases(f: list, g: list, w: tuple, J: int = 1, last=None) -> list:
    """The bases of the strict dense Until f U_w g, on keys.

    A base t satisfies it exactly when some maximal part <l,u> of f has l <= t
    and a witness t' in g with t < t' <= u and t' - t in w: the open (t, t')
    then lies inside that one part, since distinct maximal parts are separated
    by at least a missing point.  So per part, the bases run from the point
    right before the part (its floor), and the witnesses are g's inside the
    part or at the point right after it, back-shifted through w.  The witness
    windows of consecutive parts are disjoint and in order, so one two-pointer
    pass over f and g finds every witness (the until construction of Maler &
    Nickovic, FORMATS 2004).

    Each time key owns J slots (J = 1 on the dense line; see `mixed` for the
    lex line), and `last[T]` is the slot offset where time key T's last point
    starts.  Distances are read off the time keys k // J, so only witnesses at
    a strictly later time count.

    The back-shift runs inline, merging each base into the last: a part's bases
    follow g's order and end before the next part's floor, and none passes the
    domain (g lies in it, and w's lower end is over 0)."""
    w_lo, w_hi = w
    if w_lo == 0:  # a witness lies strictly in the future: drop 0 from the window
        if w_hi < 1:
            return []
        w_lo = 1
    bounded = w_hi != INF
    J1, J3 = J - 1, 3 * J
    out = []
    top = -2  # the last base's upper key
    j, ng = 0, len(g)
    for f_lo, f_hi in f:
        r = f_lo % J3
        if r == 0:  # no point right before a closed time
            floor = f_lo
        elif r == J:  # the part opens right after a time: that time's last point
            floor = f_lo - J + (last.get(f_lo // J - 1, 0) if last else 0)
        else:
            floor = f_lo - 1
        z_lo = floor - floor % J + J  # the window starts after the floor's time
        z_hi = f_hi if (f_hi + 1) % J3 == J else f_hi + 1
        if z_lo > z_hi:
            continue
        while j < ng and g[j][1] < z_lo:
            j += 1
        k = j  # g[k] may reach into the next window too: the next part starts at j
        while k < ng:
            g_lo, g_hi = g[k]
            if g_lo > z_hi:
                break
            k += 1
            hi = (z_hi if g_hi > z_hi else g_hi) // J - w_lo  # offsets add: two open ends make one
            hi = (hi + 1 if hi % 3 == 1 else hi) * J + J1
            lo = floor
            if bounded:
                b = (z_lo if g_lo < z_lo else g_lo) // J - w_hi
                b = (b - 1 if b % 3 == 2 else b) * J
                if b > lo:
                    lo = b
            if lo > hi:
                continue
            if lo <= top + 1:  # touches or overlaps the last base
                if hi > top:
                    out[-1] = (out[-1][0], hi)
                    top = hi
            else:
                out.append((lo, hi))
                top = hi
    return out


def _same_block_bases(f: list, g: list, later: list, J: int, last: dict) -> list:
    """The slots witnessed later in their own block (`later`: each block's slots
    past position 0): g's parts there and f's run before each, one point back."""
    runs = intersect_keys(f, later)
    out = []
    i = 0
    for lo, hi in intersect_keys(g, later):
        while i < len(runs) and runs[i][1] < lo - 1:
            i += 1
        if i < len(runs) and runs[i][0] < lo:
            lo = runs[i][0]
        top = hi - hi % J + last[hi // J]  # the first slot of the block's last point
        out.append((lo - 1, (top if hi > top else hi) - 1))
    return out


# ---------------------------------------------------------------------------
# normalized unions

class IntervalSet:
    """Normalized finite union of disjoint intervals, sorted, adjacency merged.

    A set holds `keys`, (D, its key list on the time base D), and builds its
    `parts` on first read, so a set nobody reads as parts makes no Fraction.
    Equality and hashing read the keys on the least base that holds them, so
    equal sets built on different bases are equal.  `IntervalSet(parts)` takes
    any intervals, in any order, overlapping or touching, and normalizes them."""

    def __init__(self, parts):
        D, keys = key_column(parts)
        self.keys = (D, normalize_keys(keys))

    @classmethod
    def on_base(cls, D: int, keys) -> "IntervalSet":
        """The set of a normalized key list on the time base D."""
        s = object.__new__(cls)
        s.keys = (D, keys)
        return s

    @cached_property
    def parts(self) -> tuple:
        return key_intervals(*self.keys)

    @cached_property
    def _least(self) -> tuple:
        """The keys on the least base that holds them: D / gcd(D, every value)."""
        D, keys = self.keys
        g = math.gcd(D, *[(k + 1) // 3 for pair in keys for k in pair if k != INF])
        ends = [k if k == INF else k - 3 * ((k + 1) // 3 - (k + 1) // 3 // g)
                for pair in keys for k in pair]
        return D // g, tuple(zip(ends[::2], ends[1::2]))

    def __eq__(self, other):
        return isinstance(other, IntervalSet) and self._least == other._least

    def __hash__(self):
        return hash(self._least)

    def __repr__(self):
        return f"IntervalSet({self})"

    @staticmethod
    def empty() -> "IntervalSet":
        return _EMPTY

    @staticmethod
    def of(*ivs) -> "IntervalSet":
        return IntervalSet(ivs)

    @staticmethod
    def from_intervals(ivs) -> "IntervalSet":
        return IntervalSet(ivs)

    @property
    def is_empty(self) -> bool:
        return not self.keys[1]

    def member(self, t: Fraction) -> bool:
        D, keys = self.keys
        return meets(keys, time_key(t, D))

    def _swept(self, other: "IntervalSet", sweep) -> "IntervalSet":
        """sweep(a, b) over the key lists of the two sets on a common time base."""
        (Da, a), (Db, b) = self.keys, other.keys
        D = math.lcm(Da, Db)
        return IntervalSet.on_base(D, sweep(a if Da == D else scaled_keys(a, D // Da),
                                            b if Db == D else scaled_keys(b, D // Db)))

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return self._swept(other, lambda a, b: normalize_keys(a + b))

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        return self._swept(other, intersect_keys)

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        return self._swept(other, difference_keys)

    def complement(self, domain: Interval) -> "IntervalSet":
        dom = IntervalSet.of(domain)
        if not self.difference(dom).is_empty:
            raise MtlsemError("complement taken of a set not contained in the domain")
        return dom.difference(self)

    def covers(self, iv: Interval) -> bool:
        return IntervalSet.of(iv).difference(self).is_empty

    def clip(self, domain: Interval) -> "IntervalSet":
        return self.intersect(IntervalSet.of(domain))

    def part_texts(self) -> list:
        """Each part as `str(Interval)` prints it, rendered from the keys."""
        return key_texts(*self.keys)

    def __str__(self) -> str:
        return "{" + ", ".join(self.part_texts()) + "}"


_EMPTY = IntervalSet(())


def back_shift(q: Interval, i: Interval) -> Interval | None:
    """The set {t >= 0 : exists t' in q with t' - t in i and t' > t}, the time
    quantifier of the dense Until: the witness window q shifted back through i,
    with 0 dropped from i first, since a witness lies strictly in the future.
    Always convex; None when empty.  The Until's sweep of f = [0, q's end] and
    g = q, with an unbounded q cut past every base's start, then given INF back."""
    D, ((lo, hi), w) = key_column((q, i))
    top = lo + w[0] + 3 if hi == INF else hi
    keys = _until_bases([(0, top)], [(lo, top)], w)
    return key_intervals(D, [(keys[0][0], INF if hi == INF else keys[0][1])])[0] if keys else None
