"""The three timed models and their validity predicates.

Timed words carry (action, timestamp) events with non-decreasing timestamps;
compact timed words group simultaneous events into ordered blocks at strictly
increasing timestamps; timed state sequences alternate proposition sets over
adjacent intervals.  Infinite words are represented by lassos (finite prefix
plus a repeating timed period) and are non-Zeno by construction since the
period duration must be positive.

The columns of a word or compact word are computed once per object, on first
read, and shared by every later reader; equality and hashing still depend on
the events or blocks alone.  Words and compact words have `times` and the
integer column `ticks` that the engines read.  A state sequence holds only its
columns, the key pair of each step on the integer base and its propositions;
its checks, lookups, equality and rendering read the keys, and it builds the
`Interval`s of its `steps` on first read (see `TimedStateSequence`).

Words loaded from JSON and unrolled from lassos are built on the integer base
and carry their ticks from construction.  `word_or_lasso_from_json` reads each
timestamp text to its (numerator, denominator) pair, puts them all on one time
base and checks monotonicity and the zero start on the ints; `unroll` lays
the prefix, the offsets and the period on one base.  Either moves the ticks to
the least base that holds them, the D0 of `tick_column`, seeds `ticks`,
`times` and `actions`, and builds one Fraction per distinct stamp.
`validate_word` runs the same checks on the ticks of in-memory events, one
tick at a time, and keeps no column: a word held in memory pays for its
column once an engine reads it, and the check leaves no short-lived column
behind in the heap of a program that builds many words.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .errors import (
    AdjacencyError,
    EmptyWordError,
    FirstTimestampError,
    MtlsemError,
    NonMonotoneError,
    OutOfDomainError,
)
from .intervals import (
    INF,
    Interval,
    _text_ratio,
    key_column,
    key_intervals,
    key_texts,
    parse_interval,
    rat_str,
    rational,
    tick_column,
    time_base,
    time_key,
)


@dataclass(frozen=True)
class TimedWord:
    events: tuple  # of (action, Fraction)

    ticks = cached_property(lambda self: tick_column(self.times))

    @cached_property
    def actions(self):
        return tuple(a for a, _ in self.events)

    @cached_property
    def times(self):
        return tuple(t for _, t in self.events)

    def __len__(self):
        return len(self.events)

    def __str__(self):
        return "".join(f"({a},{rat_str(t)})" for a, t in self.events)


def validate_word(events, allow_nonzero_start: bool = False) -> TimedWord:
    """Check monotonicity and the zero start on the ticks, returning the word.

    `allow_nonzero_start` admits raw words whose first timestamp is positive.
    """
    events = tuple((a, t if isinstance(t, Fraction) else rational(t)) for a, t in events)
    D0 = time_base(t for _, t in events)
    # one tick at a time: a column kept here costs memory in every word held
    # long, and one built and dropped here slowed later engine calls on the words
    _check_ticks(D0, (t.numerator * (D0 // t.denominator) for _, t in events),
                 allow_nonzero_start)
    return TimedWord(events)


def _check_ticks(D0: int, ticks, allow_nonzero_start: bool):
    """Raise unless the ticks, on the time base D0, are a word's: non-empty,
    non-decreasing, and starting at 0 unless `allow_nonzero_start`."""
    ticks = iter(ticks)
    first = prev = next(ticks, None)
    if first is None:
        raise EmptyWordError("empty timed word")
    for pos, v in enumerate(ticks, 1):
        if v < prev:
            raise NonMonotoneError(pos)
        prev = v
    if first and not allow_nonzero_start:
        raise FirstTimestampError(
            f"first timestamp is {rat_str(Fraction(first, D0))}, expected 0")


def _word_on_ticks(actions: tuple, D: int, ticks: list, times: tuple = ()) -> TimedWord:
    """The word of the actions at the ticks on the time base D, its columns
    seeded as the cached properties would compute them: the ticks move to the
    least base that holds them, the D0 of `tick_column`, and each distinct tick
    past the `times` the caller already holds gets one Fraction."""
    g = math.gcd(D, *ticks)
    D0, ticks = D // g, tuple(ticks if g == 1 else [v // g for v in ticks])
    of = {v: Fraction(v, D0) for v in set(ticks[len(times):])}
    times += tuple([of[v] for v in ticks[len(times):]])
    w = TimedWord(tuple(zip(actions, times)))
    w.__dict__.update(actions=actions, times=times, ticks=(D0, ticks))
    return w


def word(text_pairs) -> TimedWord:
    """Shorthand: word([("a", "0"), ("b", "1"), ...])."""
    return validate_word(text_pairs)


def duration(rho: TimedWord) -> Fraction:
    return rho.events[-1][1]


def is_stutter_free(rho: TimedWord) -> bool:
    """No action occurs twice at the same timestamp."""
    seen = set()
    for a, t in rho.events:
        if (a, t) in seen:
            return False
        seen.add((a, t))
    return True


def is_strictly_monotone(rho: TimedWord) -> bool:
    times = rho.times
    return all(times[i - 1] < times[i] for i in range(1, len(times)))


@dataclass(frozen=True)
class MfsIndex:
    """Last indices of the maximal flat subsequences of a time sequence."""

    boundaries: tuple

    def runs(self):
        """(start, end) index pairs, inclusive, one per maximal flat run."""
        out = []
        start = 0
        for end in self.boundaries:
            out.append((start, end))
            start = end + 1
        return out


def mfs_decompose(times) -> MfsIndex:
    times = tuple(times)
    if not times:
        raise EmptyWordError("empty time sequence")
    last = len(times) - 1
    return MfsIndex(tuple([i for i in range(last) if times[i] != times[i + 1]] + [last]))


# ---------------------------------------------------------------------------
# compact timed words

@dataclass(frozen=True)
class CompactTimedWord:
    blocks: tuple  # of (actions tuple, Fraction timestamp)

    ticks = cached_property(lambda self: tick_column(self.times))

    @cached_property
    def times(self):
        return tuple(t for _, t in self.blocks)

    def __len__(self):
        return len(self.blocks)

    def __str__(self):
        return "".join(
            "((" + ",".join(acts) + f"),{rat_str(t)})" for acts, t in self.blocks
        )


def validate_compact(blocks, allow_nonzero_start: bool = False) -> CompactTimedWord:
    blocks = tuple((tuple(acts), t if isinstance(t, Fraction) else rational(t)) for acts, t in blocks)
    if not blocks:
        raise EmptyWordError("empty compact timed word")
    for acts, _ in blocks:
        if not acts:
            raise EmptyWordError("empty action block")
    for pos in range(1, len(blocks)):
        if blocks[pos][1] <= blocks[pos - 1][1]:
            raise NonMonotoneError(pos)
    if blocks[0][1] != 0 and not allow_nonzero_start:
        raise FirstTimestampError("first block timestamp must be 0")
    return CompactTimedWord(blocks)


def compact_duration(cw: CompactTimedWord) -> Fraction:
    return cw.blocks[-1][1]


# ---------------------------------------------------------------------------
# timed state sequences

class TimedStateSequence:
    """Adjacent steps, held as the columns (D0, keys, props): each step's key
    pair on the time base D0 (see `intervals`) and its propositions.  Both
    constructors, `validate_tss` and `encodings.to_tss`, put the keys on the
    least base that holds them, so equal sequences have equal columns.  The
    steps, (frozenset of symbols, Interval) pairs, are built on first read."""

    def __init__(self, D0: int, keys: tuple, props: tuple):
        self.columns = (D0, keys, props)

    @cached_property
    def steps(self) -> tuple:
        D0, keys, props = self.columns
        return tuple(zip(props, key_intervals(D0, keys)))

    def __eq__(self, other):
        return other.__class__ is self.__class__ and self.columns == other.columns

    def __hash__(self):
        return hash(self.columns)

    def __len__(self):
        return len(self.columns[2])

    def __str__(self):
        D0, keys, props = self.columns
        return "".join("({" + ",".join(sorted(p)) + "}," + text + ")"
                       for p, text in zip(props, key_texts(D0, keys)))


def validate_tss(steps, allow_nonzero_start: bool = False) -> TimedStateSequence:
    """Check the steps on their keys, returning the sequence: neighbours are
    adjacent (a lower key one past the upper key before it), the first starts
    closed at 0 unless `allow_nonzero_start`, and the last ends closed."""
    steps = tuple(
        (frozenset(props), iv if isinstance(iv, Interval) else parse_interval(iv))
        for props, iv in steps
    )
    if not steps:
        raise EmptyWordError("empty timed state sequence")
    D0, keys = key_column([iv for _, iv in steps])
    for pos in range(1, len(keys)):
        if keys[pos][0] != keys[pos - 1][1] + 1:
            raise AdjacencyError(pos)
    if not allow_nonzero_start and keys[0][0] != 0:
        raise FirstTimestampError("first interval must be left-closed at 0")
    last = keys[-1][1]
    if last == INF or last % 3:
        raise MtlsemError("a finite timed state sequence must end with a right-closed interval")
    return TimedStateSequence(D0, tuple(keys), tuple(p for p, _ in steps))


def tss_duration(kappa: TimedStateSequence) -> Fraction:
    D0, keys, _ = kappa.columns
    return Fraction((keys[-1][1] + 1) // 3, D0)


def tss_start(kappa: TimedStateSequence) -> Fraction:
    D0, keys, _ = kappa.columns
    return Fraction((keys[0][0] + 1) // 3, D0)


def tss_at(kappa: TimedStateSequence, t) -> frozenset:
    """The unique step's propositions at time t (uniqueness by adjacency)."""
    t = t if isinstance(t, Fraction) else rational(t)
    D0, keys, props = kappa.columns
    k = time_key(t, D0)
    i = bisect_right(keys, (k, INF)) - 1  # the last step starting at or before k
    if i < 0 or keys[i][1] < k:
        raise OutOfDomainError(f"time {rat_str(t)} outside the covered span")
    return props[i]


def is_action_based(kappa: TimedStateSequence) -> bool:
    """Alternating punctual action steps and non-punctual empty steps from [0,0].

    A step is punctual exactly when its two keys are equal.  Any finite
    sequence passing all clauses has odd length; that consistency is asserted
    rather than tested.
    """
    _, keys, props = kappa.columns
    if keys[0] != (0, 0) or keys[-1][0] != keys[-1][1]:
        return False
    for i, ((lo, hi), p) in enumerate(zip(keys, props)):
        even = i % 2 == 0
        if bool(p) != even or (lo == hi) != even:
            return False
    assert len(keys) % 2 == 1, "alternation admitted an even-length sequence"
    return True


# ---------------------------------------------------------------------------
# lassos

@dataclass(frozen=True)
class Lasso:
    """Finite prefix plus a repeating period; unrolls to a non-Zeno infinite word.

    Period offsets are relative to the period start; the k-th copy of offset
    o happens at duration(prefix) + k * period_duration + o.
    """

    prefix: TimedWord
    period_actions: tuple
    period_offsets: tuple
    period_duration: Fraction

    def __post_init__(self):
        if not self.period_actions:
            raise EmptyWordError("empty lasso period")
        if len(self.period_actions) != len(self.period_offsets):
            raise MtlsemError("period actions and offsets must have equal length")
        if self.period_duration <= 0:
            raise MtlsemError("period duration must be positive")
        offs = self.period_offsets
        for i in range(1, len(offs)):
            if offs[i] < offs[i - 1]:
                raise NonMonotoneError(i)
        if any(o < 0 or o > self.period_duration for o in offs):
            raise MtlsemError("period offsets must lie in [0, duration]")


def lasso(prefix: TimedWord, actions, offsets, duration_) -> Lasso:
    return Lasso(
        prefix,
        tuple(actions),
        tuple(o if isinstance(o, Fraction) else rational(o) for o in offsets),
        duration_ if isinstance(duration_, Fraction) else rational(duration_),
    )


def unroll(l: Lasso, horizon) -> TimedWord:
    """Finite prefix of the unrolled word containing exactly the events <= horizon.

    It runs on ticks: the prefix, the offsets and the period on one time base
    D, up to the last tick at or before the horizon."""
    horizon = horizon if isinstance(horizon, Fraction) else rational(horizon)
    D0, ticks = l.prefix.ticks
    D = math.lcm(D0, time_base((*l.period_offsets, l.period_duration)))
    out = [v * (D // D0) for v in ticks]
    last = horizon.numerator * D // horizon.denominator
    if last < out[-1]:
        raise MtlsemError("horizon must cover the lasso prefix")
    offsets = [o.numerator * (D // o.denominator) for o in l.period_offsets]
    period = l.period_duration.numerator * (D // l.period_duration.denominator)
    acts = list(l.prefix.actions)
    start = out[-1]
    while k := bisect_right(offsets, last - start):  # the offsets of this copy in range
        acts += l.period_actions[:k]
        out += [start + o for o in offsets[:k]]
        start += period
    return _word_on_ticks(tuple(acts), D, out, l.prefix.times)


# ---------------------------------------------------------------------------
# JSON wire formats

def word_to_json(rho: TimedWord) -> dict:
    return {"events": [[a, rat_str(t)] for a, t in rho.events]}


def lasso_to_json(l: Lasso) -> dict:
    out = word_to_json(l.prefix)
    out["period"] = {
        "actions": list(l.period_actions),
        "offsets": [rat_str(o) for o in l.period_offsets],
        "duration": rat_str(l.period_duration),
    }
    return out


def _field(obj: dict, key: str, where: str, kind, expected: str):
    """obj[key] if present and of the expected JSON type; errors name the field path."""
    if not isinstance(obj, dict):
        raise MtlsemError(f"malformed input: {where or 'the input'} must be a JSON object")
    path = f"{where}.{key}" if where else key
    if key not in obj:
        raise MtlsemError(f"malformed input: missing field {path}")
    value = obj[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise MtlsemError(f"malformed input: {path} must be {expected}")
    return value


def _rational_field(value, path: str, i=None) -> tuple:
    """The (numerator, denominator) pair of a rational field; errors name the
    field path, `path.format(i)`."""
    if not isinstance(value, (str, int)) or isinstance(value, bool):
        raise MtlsemError(
            f"malformed input: {path.format(i)} must be a rational string or integer")
    try:
        return _text_ratio(value)
    except MtlsemError as exc:
        raise MtlsemError(f"malformed input: {path.format(i)}: {exc}") from None


def _strings(values: list, path: str) -> list:
    for i, v in enumerate(values):
        if not isinstance(v, str):
            raise MtlsemError(f"malformed input: {path}[{i}] must be a string")
    return values


def word_or_lasso_from_json(obj, allow_nonzero_start: bool = False):
    """A word or lasso from its JSON object.  Each distinct timestamp text is
    read once to its (numerator, denominator) pair, all of them go on one time
    base, and the checks run on the ticks; the events' Fractions are built from
    the ticks."""
    actions, ratios = [], []
    seen = {}  # each distinct stamp's pair; a bool (True == 1) or a list is never looked up
    for i, e in enumerate(_field(obj, "events", "", list, "a list of [action, time] pairs")):
        if not (isinstance(e, list) and len(e) == 2 and isinstance(e[0], str)):
            raise MtlsemError(f"malformed input: events[{i}] must be an [action, time] pair")
        actions.append(e[0])
        t = e[1]
        ratio = seen.get(t) if type(t) in (str, int) else None
        ratios.append(ratio or seen.setdefault(t, _rational_field(t, "events[{}][1]", i)))
    D = math.lcm(*{d for _, d in ratios})
    ticks = [n * (D // d) for n, d in ratios]
    ratios = None  # freed before the Fractions are built
    w = _word_on_ticks(tuple(actions), D, ticks)
    _check_ticks(*w.ticks, allow_nonzero_start)
    if "period" not in obj:
        return w
    p = _field(obj, "period", "", dict, "an object")
    actions = _strings(_field(p, "actions", "period", list, "a list of actions"),
                       "period.actions")
    offsets = [Fraction(*_rational_field(o, "period.offsets[{}]", i)) for i, o in
               enumerate(_field(p, "offsets", "period", list, "a list of rationals"))]
    duration_ = Fraction(*_rational_field(
        _field(p, "duration", "period", (str, int), "a rational"), "period.duration"))
    return lasso(w, actions, offsets, duration_)


def tss_to_json(kappa: TimedStateSequence) -> dict:
    D0, keys, props = kappa.columns
    return {"steps": [[sorted(p), text] for p, text in zip(props, key_texts(D0, keys))]}


def tss_from_json(obj, allow_nonzero_start: bool = False) -> TimedStateSequence:
    steps = []
    for i, st in enumerate(_field(obj, "steps", "", list,
                                  "a list of [propositions, interval] pairs")):
        if not (isinstance(st, list) and len(st) == 2
                and isinstance(st[0], list) and isinstance(st[1], str)):
            raise MtlsemError(
                f"malformed input: steps[{i}] must be a [propositions, interval] pair")
        props = _strings(st[0], f"steps[{i}][0]")
        try:
            steps.append((props, parse_interval(st[1])))
        except MtlsemError as exc:
            raise MtlsemError(f"malformed input: steps[{i}][1]: {exc}") from None
    return validate_tss(steps, allow_nonzero_start=allow_nonzero_start)


def load_input(path: str, allow_nonzero_start: bool = False):
    """Load a word, lasso or state sequence from a JSON file, by shape."""
    with open(path) as fh:
        obj = json.load(fh)
    if isinstance(obj, dict) and "steps" in obj:
        return tss_from_json(obj, allow_nonzero_start=allow_nonzero_start)
    return word_or_lasso_from_json(obj, allow_nonzero_start=allow_nonzero_start)
