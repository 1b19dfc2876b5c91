"""Structural encodings between the three timed models.

`compact` groups each maximal flat run of a timed word into one ordered action
block; `to_tss` fills the holes between block timestamps with non-punctual
empty steps, yielding an action-based timed state sequence; `compact_lasso`
compacts a lasso's prefix and period apart.  They and `uncompact` read and
build the models' integer columns (see `structures`) and build no `Fraction`.
The index helpers relate block coordinates (k, j) to word positions and
timestamps to block indices, by bisection on the block ends and ticks.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from fractions import Fraction
from operator import lt

from .errors import (
    EmptyWordError,
    MtlsemError,
    NonMonotoneError,
    OutOfDomainError,
    PositionError,
    SeamStutterError,
)
from .formulas import Formula, Until, fold, horizon
from .intervals import interval, rational, tick_text, time_key
from .structures import (
    CompactTimedWord,
    Lasso,
    TimedStateSequence,
    TimedWord,
    duration,
    is_action_based,
    mfs_decompose,
    unroll,
)


def compact(rho: TimedWord) -> CompactTimedWord:
    """Collapse each maximal flat run of ticks into a block keeping the action
    order: `mfs_decompose` gives each run's last index, and each block's tick
    is its last event's."""
    if not rho.actions:
        raise EmptyWordError("empty timed word")
    D0, ticks = rho.ticks
    acts, ends = rho.actions, mfs_decompose(ticks)
    return CompactTimedWord.on_base(tuple([acts[i + 1:j + 1] for i, j in zip((-1, *ends), ends)]),
                                    D0, [ticks[j] for j in ends])


def uncompact(cw: CompactTimedWord) -> TimedWord:
    D0, ticks = cw.ticks
    return TimedWord.on_base(tuple([a for acts in cw.actions for a in acts]), D0,
                             [v for acts, v in zip(cw.actions, ticks) for _ in acts])


def to_tss(cw: CompactTimedWord) -> TimedStateSequence:
    """The step keys (see `intervals`) of block ticks: the punctual step (3v, 3v)
    of each block tick v, and the open empty filler (3v + 1, 3v' - 1) between
    consecutive ticks v < v'.  Strictly increasing ticks make these steps valid
    by construction: each is non-empty, and neighbours touch at one value that
    exactly one of them holds.  So the one check kept is v < v' per block, which
    a hand-built `CompactTimedWord` may break: NonMonotoneError at the first
    block not strictly later than the one before."""
    D0, ticks = cw.ticks
    later = list(map(lt, ticks, ticks[1:]))
    if not all(later):
        raise NonMonotoneError(later.index(False) + 1)
    keys = [None] * (2 * len(ticks) - 1)
    keys[::2] = [(3 * v, 3 * v) for v in ticks]
    keys[1::2] = [(3 * u + 1, 3 * v - 1) for u, v in zip(ticks, ticks[1:])]
    props = [frozenset()] * len(keys)  # the fillers share one empty set
    props[::2] = map(frozenset, cw.actions)
    return TimedStateSequence(D0, tuple(keys), tuple(props))


def word_to_tss(rho: TimedWord) -> TimedStateSequence:
    return to_tss(compact(rho))


# ---------------------------------------------------------------------------
# index helpers

def word_position(cw: CompactTimedWord, k: int, j: int) -> int:
    """Word position of the j-th action of block k."""
    if not (0 <= k < len(cw.actions)):
        raise PositionError(f"block index {k} out of range")
    if not (0 <= j < len(cw.actions[k])):
        raise PositionError(f"position {j} out of range in block {k}")
    return sum(map(len, cw.actions[:k])) + j


def block_position(cw: CompactTimedWord, i: int) -> tuple:
    """Inverse of word_position: (block, offset) holding word position i."""
    ends = list(itertools.accumulate(map(len, cw.actions)))  # one past each block's end
    if not (0 <= i < ends[-1]):
        raise PositionError(f"word position {i} out of range")
    k = bisect_right(ends, i)  # the first block ending after i
    return (k, i - ends[k - 1] if k else i)


def block_index_at(cw: CompactTimedWord, t) -> int | None:
    """Block index whose timestamp is exactly t, None for hole times.  The
    domain runs from the first block to the last, as the mixed oracle's grid."""
    t = t if isinstance(t, Fraction) else rational(t)
    D0, ticks = cw.ticks
    T = time_key(t, D0)
    if T < 3 * ticks[0] or T > 3 * ticks[-1]:
        raise OutOfDomainError(
            f"time {t} outside [{tick_text(ticks[0], D0)}, {tick_text(ticks[-1], D0)}]")
    k = bisect_left(ticks, T // 3)  # T <= the last block's key, so k is a block
    return k if 3 * ticks[k] == T else None


# ---------------------------------------------------------------------------
# lassos

def lasso_instance(l: Lasso, f: Formula) -> tuple:
    """A finite word and a bounded formula whose truth at the origin is f's on l.

    Let p be the prefix duration and P the period duration.  Strictly past p
    the unrolled word read from s and from s + P is the same up to the shift
    (at p itself the prefix's last event may share its time with a period
    event of offset 0), so every subformula has the same truth at s and at
    s + P.  Each unbounded window <l, inf) is therefore closed to
    <l, max(l, p) + P], bottom-up: a witness t' > max(t + l, p) + P of a base
    t moves back to t' - P, which is still inside the window, still strictly
    past p, and has the left operand holding on (t, t' - P).  So some witness
    lies within max(t + l, p) + P <= t + max(l, p) + P, for every base t >= 0.
    This holds for every relation: positions, times and lexicographic points
    alike shift by one period.

    The rewritten formula g is bounded (g is f when f is).  Every stretch
    (x, x + P] with x >= p holds one copy of each period event, so unrolling to
    max(p, horizon(g)) + P keeps every event up to horizon(g) and one beyond it:
    the finite word agrees with the lasso wherever g can look from the origin.
    So the lasso verdicts, which decide this instance, are exact, where the
    paper promises only sound three-valued ones.
    """
    p, P = duration(l.prefix), l.period_duration

    def close(node, *kids):
        if type(node) is not Until:
            return type(node)(*kids) if kids else node
        w = node.window
        if isinstance(w.hi.value, float):  # inf, the one float a bound holds
            w = interval(w.lo.value, max(w.lo.value, p) + P, w.lo.closed, True)
        return Until(kids[0], w, kids[1])

    h = horizon(f)
    if isinstance(h, float):  # inf: some window is unbounded
        f = fold(f, close)[f]
        h = horizon(f)
    return unroll(l, max(p, h) + P), f


def compact_lasso(l: Lasso) -> tuple:
    """The compact prefix and the compact period, its blocks at their offset
    ticks; a flat run may not span the seam."""
    D, offsets, _ = l.period
    if offsets[0] == 0:
        raise SeamStutterError("first period event coincides with the prefix end")
    return compact(l.prefix), compact(TimedWord.on_base(l.period_actions, D, offsets))


# ---------------------------------------------------------------------------
# bounded preimage search (incomparability harness only)

def stutter_free_preimages(kappa: TimedStateSequence, limit: int = 64):
    """Stutter-free timed words whose state-sequence image is `kappa`: only
    action-based sequences have them, and each punctual step contributes the
    orderings of its action set."""
    if not is_action_based(kappa):
        raise MtlsemError("only action-based state sequences have word preimages")
    D0, keys, props = kappa.columns
    punctuals = [(sorted(p), lo // 3) for p, (lo, _) in zip(props, keys) if p]
    orders = itertools.product(*(itertools.permutations(p) for p, _ in punctuals))
    return [TimedWord.on_base(tuple(itertools.chain(*orderings)), D0,
                              [v for (_, v), acts in zip(punctuals, orderings) for _ in acts])
            for orderings in itertools.islice(orders, limit)]
