"""The three timed models and their validity predicates.

Timed words carry (action, timestamp) events with non-decreasing timestamps;
compact timed words group simultaneous events into ordered blocks at strictly
increasing timestamps; timed state sequences alternate proposition sets over
adjacent intervals.  Infinite words are lassos (see `Lasso`).

Every model holds only integer columns (see `intervals`).  A word or compact
word holds `actions`, one action per event or one tuple of actions per block,
and `ticks`, (D0, each timestamp times D0 as an int) on the least base D0 that
holds them; a state sequence its step keys (see `TimedStateSequence`); a lasso
its period's ticks (see `Lasso`).  Equality, hashing, the checks and the text
and JSON output read the columns, rendering ticks with int arithmetic
(`tick_text`).  The `Fraction` views (`times`, `events`, `blocks`, `steps`)
are built on first read.  So is a word's per-action index: `action_bits` and
`action_ticks` scan the word once per action name and keep the answer (an int,
a tuple of distinct ticks) on the word; it holds nothing of a formula.

`TimedWord(events)` and `CompactTimedWord(blocks)` turn their pairs into the
columns; they check nothing.  Every other constructor gives ticks on some base
D to `on_base`, which moves them to the least base: `validate_word`,
`validate_compact` and `word_or_lasso_from_json` after one check of the ticks
(`_checked`), `unroll` and the encodings without one.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import compress, count, islice
from operator import le, lt, ne

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
    interval_pair,
    key_intervals,
    key_texts,
    rat_str,
    rational,
    rational_ticks,
    scaled_keys,
    tick_column,
    tick_text,
    time_key,
)


class _OnTicks:
    """The two columns of a word or compact word, `actions` and `ticks` on the
    least base, and the views built from them (see the module docstring)."""

    def __init__(self, pairs):
        pairs = tuple(pairs)
        self.actions = tuple([a for a, _ in pairs])
        self.ticks = tick_column([t for _, t in pairs])  # reduced Fractions: the least base

    @classmethod
    def on_base(cls, actions: tuple, D: int, ticks):
        """The model of the actions at the ticks on the time base D, moved to
        the least base that holds them: D / gcd(D, every tick)."""
        g = math.gcd(D, *ticks)
        self = object.__new__(cls)
        self.actions = actions
        self.ticks = (D // g, tuple(ticks) if g == 1 else tuple([v // g for v in ticks]))
        return self

    @cached_property
    def times(self) -> tuple:
        """The timestamps, one Fraction per distinct tick."""
        D0, ticks = self.ticks
        of = {v: Fraction(v, D0) for v in set(ticks)}
        return tuple([of[v] for v in ticks])

    def time_texts(self) -> list:
        """Each timestamp as `rat_str` prints it, rendered from the ticks."""
        D0, ticks = self.ticks
        return [tick_text(v, D0) for v in ticks]

    def __eq__(self, other):
        return (other.__class__ is self.__class__
                and self.ticks == other.ticks and self.actions == other.actions)

    def __hash__(self):
        return hash((self.actions, self.ticks))

    def __len__(self):
        return len(self.actions)

    def __repr__(self):
        return f"{type(self).__name__}({self})"


def _pairs(model: _OnTicks) -> tuple:
    return tuple(zip(model.actions, model.times))


def _bitset(word: TimedWord, name: str) -> int:
    return int("".join(["1" if a == name else "0" for a in word.actions]), 2)


def _distinct_ticks(word: TimedWord, name: str) -> tuple:
    return tuple(dict.fromkeys([v for a, v in zip(word.actions, word.ticks[1]) if a == name]))


class TimedWord(_OnTicks):
    """(action, timestamp) events with non-decreasing timestamps."""

    events = cached_property(_pairs)  # (action, Fraction) pairs

    def action_bits(self, name: str) -> int:
        """Where `name` occurs, as one int: position i of n at bit n-1-i."""
        return self._indexed("_bits", _bitset, name)

    def action_ticks(self, name: str) -> tuple:
        """The distinct ticks where `name` occurs, in increasing order."""
        return self._indexed("_ticks", _distinct_ticks, name)

    def _indexed(self, column: str, build, name: str):
        """`build(self, name)`, kept under `name` in one column of the index
        on first read.  Each column is a dict on the word, made on its first
        read (a `cached_property` costs more on a fresh word); the two are
        filled apart, since a scan that builds both costs about twice one."""
        index = self.__dict__.setdefault(column, {})
        value = index.get(name)
        if value is None:
            value = index[name] = build(self, name)
        return value

    def __str__(self):
        return "".join(f"({a},{text})" for a, text in zip(self.actions, self.time_texts()))


def _checked(cls, actions: tuple, D: int, ticks, allow_nonzero_start: bool):
    """The model `cls` of the actions at the ticks on the time base D, once
    they are found to be one: non-empty, ticks non-decreasing (strictly
    increasing for blocks), the first 0 (or, with `allow_nonzero_start`, >= 0)."""
    compact = cls is CompactTimedWord
    if not ticks:
        raise EmptyWordError("empty compact timed word" if compact else "empty timed word")
    ordered = lt if compact else le
    if not all(map(ordered, ticks, islice(ticks, 1, None))):
        raise NonMonotoneError(next(pos for pos in range(1, len(ticks))
                                    if not ordered(ticks[pos - 1], ticks[pos])))
    if ticks[0] and not allow_nonzero_start:
        raise FirstTimestampError("first block timestamp must be 0" if compact else
                                  f"first timestamp is {tick_text(ticks[0], D)}, expected 0")
    if ticks[0] < 0:  # a Fraction stamp skips `rational`'s sign check
        raise MtlsemError(f"negative value not allowed: {tick_text(ticks[0], D)}")
    return cls.on_base(actions, D, ticks)


def validate_word(events, allow_nonzero_start: bool = False) -> TimedWord:
    """Check monotonicity and the zero start on the ticks, returning the word;
    `allow_nonzero_start` admits raw words whose first timestamp is positive."""
    events = tuple(events)
    D, ticks = tick_column([t if isinstance(t, Fraction) else rational(t) for _, t in events])
    return _checked(TimedWord, tuple([a for a, _ in events]), D, ticks, allow_nonzero_start)


def word(text_pairs) -> TimedWord:
    """Shorthand: word([("a", "0"), ("b", "1"), ...])."""
    return validate_word(text_pairs)


def duration(rho: TimedWord) -> Fraction:
    D0, ticks = rho.ticks
    return Fraction(ticks[-1], D0)


def is_stutter_free(rho: TimedWord) -> bool:
    """No action occurs twice at the same timestamp."""
    return len(set(zip(rho.actions, rho.ticks[1]))) == len(rho)


def is_strictly_monotone(rho: TimedWord) -> bool:
    ticks = rho.ticks[1]
    return all(map(lt, ticks, islice(ticks, 1, None)))


def mfs_decompose(times) -> tuple:
    """The last index of each maximal flat subsequence (run of equal times)."""
    times = tuple(times)  # a tuple is not copied
    if not times:
        raise EmptyWordError("empty time sequence")
    return (*compress(count(), map(ne, times, islice(times, 1, None))), len(times) - 1)


# ---------------------------------------------------------------------------
# compact timed words

class CompactTimedWord(_OnTicks):
    """Ordered action blocks at strictly increasing timestamps: `actions`
    holds one tuple of actions per block."""

    blocks = cached_property(_pairs)  # (actions tuple, Fraction) pairs

    def __str__(self):
        return "".join("((" + ",".join(acts) + f"),{text})"
                       for acts, text in zip(self.actions, self.time_texts()))


def validate_compact(blocks, allow_nonzero_start: bool = False) -> CompactTimedWord:
    blocks = tuple(blocks)
    D, ticks = tick_column([t if isinstance(t, Fraction) else rational(t) for _, t in blocks])
    actions = tuple([tuple(acts) for acts, _ in blocks])
    if not all(actions):
        raise EmptyWordError("empty action block")
    return _checked(CompactTimedWord, actions, D, ticks, allow_nonzero_start)


# ---------------------------------------------------------------------------
# timed state sequences

class TimedStateSequence:
    """Adjacent steps, held as the columns (D0, keys, props): each step's key
    pair on the time base D0 and its propositions.  Both constructors,
    `validate_tss` and `encodings.to_tss`, put the keys on the least base, so
    equal sequences have equal columns.  `steps` is the (props, Interval) view."""

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
    closed at 0 unless `allow_nonzero_start`, and the last ends closed.  Each
    step's interval (a text, an Interval or its (d, key pair)) moves to D0."""
    steps = [(frozenset(props), interval_pair(iv) if isinstance(iv, str)
              else iv.keys if isinstance(iv, Interval) else iv) for props, iv in steps]
    if not steps:
        raise EmptyWordError("empty timed state sequence")
    D0 = math.lcm(*{d for _, (d, _) in steps})
    keys = [k for _, (d, pair) in steps for k in scaled_keys([pair], D0 // d)]
    for pos in range(1, len(keys)):
        if keys[pos][0] != keys[pos - 1][1] + 1:
            raise AdjacencyError(pos)
    if not allow_nonzero_start and keys[0][0] != 0:
        raise FirstTimestampError("first interval must be left-closed at 0")
    last = keys[-1][1]
    if last == INF or last % 3:
        raise MtlsemError("a finite timed state sequence must end with a right-closed interval")
    return TimedStateSequence(D0, tuple(keys), tuple(p for p, _ in steps))


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
    A step is punctual exactly when its two keys are equal.  Any finite sequence
    passing all clauses has odd length; that consistency is asserted, not tested."""
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

    `period` is (D, offset ticks, duration tick) on the least base D of the prefix
    and the period, whatever base it is given on, with `Fraction` views
    `period_offsets` and `period_duration`.
    The k-th copy of offset o happens at duration(prefix) + k * period_duration + o.
    """

    prefix: TimedWord
    period_actions: tuple
    period: tuple

    def __post_init__(self):
        """Errors name the field of the lasso's JSON form."""
        D, offs, P = self.period
        if not self.period_actions:
            raise EmptyWordError("empty lasso period")
        if len(self.period_actions) != len(offs):
            raise MtlsemError("period: actions and offsets must have equal length")
        if P <= 0:
            raise MtlsemError("period.duration must be positive")
        for i in range(1, len(offs)):
            if offs[i] < offs[i - 1]:
                error = NonMonotoneError(i)
                error.args = (f"period.offsets[{i}] is below period.offsets[{i - 1}]",)
                raise error
        for i, o in enumerate(offs):
            if o < 0 or o > P:
                raise MtlsemError(f"period.offsets[{i}] must lie in [0, period.duration]")
        if D <= 0:
            raise MtlsemError("period: the time base must be positive")
        g = math.gcd(D, *offs, P)
        base = math.lcm(self.prefix.ticks[0], D // g)  # least base of prefix and period
        if base != D:
            k = base // (D // g)
            object.__setattr__(self, "period", (base, tuple([o // g * k for o in offs]), P // g * k))

    @cached_property
    def period_offsets(self) -> tuple:
        return tuple([Fraction(o, self.period[0]) for o in self.period[1]])

    @cached_property
    def period_duration(self) -> Fraction:
        return Fraction(self.period[2], self.period[0])


def lasso(prefix: TimedWord, actions, offsets, duration_) -> Lasso:
    values = [v if isinstance(v, Fraction) else rational(v) for v in (*offsets, duration_)]
    D, (*offs, P) = tick_column(values)  # `Lasso` adds the prefix's base
    return Lasso(prefix, tuple(actions), (D, tuple(offs), P))


def unroll(l: Lasso, horizon) -> TimedWord:
    """Finite prefix of the unrolled word containing exactly the events <= horizon,
    on ticks: the prefix rebased to the lasso's base D, the offsets and the
    period, up to the last tick at or before the horizon."""
    horizon = horizon if isinstance(horizon, Fraction) else rational(horizon)
    D0, ticks = l.prefix.ticks
    D, offsets, period = l.period
    out = [v * (D // D0) for v in ticks]
    last = horizon.numerator * D // horizon.denominator
    if last < out[-1]:
        raise MtlsemError("horizon must cover the lasso prefix")
    acts = list(l.prefix.actions)
    start = out[-1]
    while k := bisect_right(offsets, last - start):  # the offsets of this copy in range
        acts += l.period_actions[:k]
        out += [start + o for o in offsets[:k]]
        start += period
    return TimedWord.on_base(tuple(acts), D, out)


# ---------------------------------------------------------------------------
# JSON wire formats

def word_to_json(rho: TimedWord) -> dict:
    return {"events": [[a, text] for a, text in zip(rho.actions, rho.time_texts())]}


def lasso_to_json(l: Lasso) -> dict:
    D, offsets, period = l.period
    return {**word_to_json(l.prefix), "period": {
        "actions": list(l.period_actions),
        "offsets": [tick_text(o, D) for o in offsets],
        "duration": tick_text(period, D)}}


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


_RATIONAL_TYPES = {str, int}  # by type: a bool, an int subclass, is no rational field


def _rational_at(value, path: str) -> Fraction:
    """The value of one rational field; errors name it by its path."""
    if type(value) not in _RATIONAL_TYPES:
        raise MtlsemError(f"malformed input: {path} must be a rational string or integer")
    try:
        return rational(value)
    except MtlsemError as exc:
        raise MtlsemError(f"malformed input: {path}: {exc}") from None


def _strings(values: list, path: str) -> list:
    for i, v in enumerate(values):
        if not isinstance(v, str):
            raise MtlsemError(f"malformed input: {path}[{i}] must be a string")
    return values


def word_or_lasso_from_json(obj, allow_nonzero_start: bool = False):
    """A word or lasso from its JSON object, read in bulk: the event shapes in
    one pass, the stamps as one column (`intervals.rational_ticks`).  Only a bad
    input is read again, field by field, to name its first bad field."""
    events = _field(obj, "events", "", list, "a list of [action, time] pairs")
    bad = next((i for i, e in enumerate(events)
                if not (type(e) is list and len(e) == 2 and type(e[0]) is str)), len(events))
    actions, stamps = tuple(zip(*events[:bad])) or ((), ())
    kinds, read = {*map(type, stamps)}, None
    if kinds <= _RATIONAL_TYPES:
        try:  # an int is read as its decimal text
            read = rational_ticks(stamps if kinds <= {str} else list(map(str, stamps)))
        except MtlsemError:
            pass
    if read is None or bad < len(events):  # a bad stamp ahead of the bad event is named first
        for i, t in enumerate(stamps):
            _rational_at(t, f"events[{i}][1]")
        raise MtlsemError(f"malformed input: events[{bad}] must be an [action, time] pair")
    w = _checked(TimedWord, actions, *read, allow_nonzero_start)
    if "period" not in obj:
        return w
    p = _field(obj, "period", "", dict, "an object")
    actions = _strings(_field(p, "actions", "period", list, "a list of actions"),
                       "period.actions")
    offsets = [_rational_at(o, f"period.offsets[{i}]") for i, o in
               enumerate(_field(p, "offsets", "period", list, "a list of rationals"))]
    duration_ = _rational_at(_field(p, "duration", "period", (str, int), "a rational"),
                             "period.duration")
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
            steps.append((props, interval_pair(st[1])))
        except MtlsemError as exc:
            raise MtlsemError(f"malformed input: steps[{i}][1]: {exc}") from None
    return validate_tss(steps, allow_nonzero_start=allow_nonzero_start)


def read_text(path: str) -> str:
    """The text of a file, decoded as UTF-8 whatever the locale."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise MtlsemError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def load_input(path: str, allow_nonzero_start: bool = False):
    """Load a word, lasso or state sequence from a UTF-8 JSON file, by shape."""
    try:
        obj = json.loads(read_text(path))
    except (MtlsemError, json.JSONDecodeError):
        raise
    except ValueError:  # a JSON integer past int's digit limit
        raise MtlsemError(f"malformed input: {path}: an integer too long to read") from None
    if isinstance(obj, dict) and "steps" in obj:
        return tss_from_json(obj, allow_nonzero_start=allow_nonzero_start)
    return word_or_lasso_from_json(obj, allow_nonzero_start=allow_nonzero_start)
