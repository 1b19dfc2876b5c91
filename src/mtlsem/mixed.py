"""Mixed satisfaction over compact timed words.

Evaluation points are lexicographic pairs (t, j): at a block timestamp, j
ranges over the ordered simultaneous actions; anywhere else the word reads as
the one-element no-action sequence, so only j = 0 exists there.  A
satisfaction set is therefore a finite point set over the (block, offset)
grid plus an interval set over the open gaps between block timestamps.

The Until quantifier walks the lex line.  For a grid base the walk is a scan:
later positions of the same block are adjacent (nothing lies strictly in
between), whole gaps and whole blocks must then be crossed inside the left
operand's set, and a witness inside a gap additionally needs the gap's
f-prefix up to the witness.  For gap bases the same walk is done symbolically,
producing base intervals through back_shift; witnesses inside the base's own
gap use the dense decomposition of `interval_based`.  The position-zero atom
holds at every gap time and at offset 0 of every block.  This is the algebra
the engine supplies to `formulas.fold`: atoms, the position-zero atom,
complement in the grid and the gaps, intersection, and the Until walk.

What a walk asks of a block or a gap does not depend on its base, so each
Until node works it out once (`_UntilFacts`): which blocks and gaps hold a
witness reachable through f (for a gap, the g-candidates in its anchored
f-prefix) and which break f.  A walk then jumps from witness to witness and
ends at the first failure; the positions in between cost nothing.  Gap slices
of a set come from one sweep over its parts.

Walks also stop as soon as nothing later can matter.  A grid walk from time t
stops at the first witness lying after a gap's left end times[m] with
times[m] - t >= sup w.  A gap-base walk in gap m0 stops at the first witness
at or after times[m0 + 1] + sup w, and as soon as one collected back-shift
covers its whole base zone.  Both exits are exact in OPTIMISTIC mode too: when
either fires, the bases whose window reaches past the cut are already decided
(none of them for the window exit, all of them for the cover exit).  A base
thus costs the witnesses its window holds, and under an unbounded F or G the
witnesses before the first one that serves it.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import OutOfDomainError
from .formulas import (
    And,
    Atom,
    Beta,
    Formula,
    Not,
    Until,
    fold,
)
from .intervals import (
    INF,
    Bound,
    Interval,
    IntervalSet,
    back_shift,
    interval,
    punctual,
    rational,
)
from .structures import CompactTimedWord, Lasso, compact_duration, unroll
from .encodings import block_index_at, compact
from .interval_based import (
    EXACT,
    OPTIMISTIC,
    _FLIP,
    Verdict3,
    _lasso_verdict,
    _until_bases,
    lasso_cut,
)

NO_ACTION = "⊢"  # the internal no-action sentinel filling gap times


def compact_at(cw: CompactTimedWord, t) -> tuple:
    """The action sequence read at time t: a block's actions or the no-action mark."""
    t = t if isinstance(t, Fraction) else rational(t)
    if t < 0 or t > compact_duration(cw):
        raise OutOfDomainError(f"time {t} outside [0, {compact_duration(cw)}]")
    for acts, ts in cw.blocks:
        if ts == t:
            return acts
    return (NO_ACTION,)


class MixedSet:
    """Satisfaction set for the mixed semantics: grid points plus gap intervals."""

    __slots__ = ("points", "gap")

    def __init__(self, points: frozenset, gap: IntervalSet):
        self.points = points
        self.gap = gap

    def __eq__(self, other):
        return (isinstance(other, MixedSet)
                and self.points == other.points and self.gap == other.gap)

    def __hash__(self):
        return hash((self.points, self.gap))

    def __repr__(self):
        pts = sorted(self.points)
        return f"MixedSet(points={pts}, gap={self.gap})"


class _Word:
    """Per-word geometry shared by all subformula evaluations."""

    def __init__(self, cw: CompactTimedWord):
        self.cw = cw
        self.times = cw.times
        self.sizes = tuple(len(acts) for acts, _ in cw.blocks)
        self.n = len(cw.blocks)
        self.cut = self.times[-1]
        self.order = tuple((k, j) for k in range(self.n) for j in range(self.sizes[k]))
        self.grid = frozenset(self.order)
        self.first = [0]  # index in `order` of each block's offset 0, then len(order)
        for size in self.sizes:
            self.first.append(self.first[-1] + size)
        self.gaps = tuple(
            interval(self.times[k], self.times[k + 1], False, False)
            for k in range(self.n - 1))
        self.all_gaps = IntervalSet.from_intervals(self.gaps)

    def gap_slices(self, s: IntervalSet):
        """s intersected with each gap, in one sweep over parts and gaps together."""
        times, gaps = self.times, self.gaps
        slices = [[] for _ in gaps]
        m = 0
        for p in s.parts:
            while m < len(gaps) and times[m + 1] <= p.lo.value:
                m += 1
            k = m
            while k < len(gaps) and times[k] < p.hi.value:
                piece = p.intersect(gaps[k])
                if piece is not None:
                    slices[k].append(piece)
                k += 1
        return tuple(IntervalSet(tuple(sl)) for sl in slices)


class _UntilFacts:
    """What every walk of one Until node asks of the blocks and gaps, computed once.

    A walk visits the lex line in order: block k at index 2k, gap k at 2k + 1,
    up to `size` = 2n - 1.  A block is a witness when some position holds g
    with f at every earlier position of the block, and a failure when f fails
    at one of its positions.  A gap is a witness when g meets its anchored
    f-prefix (`cands[m]`, the parts of g reachable from the gap's left end with
    f in between), and a failure when f does not cover it.  At one index the
    witness comes first.  `next_witness[i]` and `next_fail[i]` are the first
    witness and failure at or after i, `size` when there is none.  Inside the
    blocks, `g_at[p]` and `not_f_at[p]` are the first grid position at or after
    p (an index into `wd.order`) where g holds and where f fails.
    """

    def __init__(self, wd: _Word, f: MixedSet, g: MixedSet, f_gap, g_gap):
        self.g_at = _next_true([p in g.points for p in wd.order])
        self.not_f_at = _next_true([p not in f.points for p in wd.order])
        self.cands = []
        witness, fail = [], []
        for k in range(wd.n):
            start, end = wd.first[k], wd.first[k + 1]
            witness.append(self.g_at[start] < end and self.g_at[start] <= self.not_f_at[start])
            fail.append(self.not_f_at[start] < end)
            if k < wd.n - 1:
                window = _anchored_prefix(f_gap[k], wd.times[k])
                self.cands.append(() if window is None else
                                  g_gap[k].intersect(IntervalSet.of(window)).parts)
                witness.append(bool(self.cands[k]))
                fail.append(not f_gap[k].covers(wd.gaps[k]))
        self.size = len(witness)
        self.next_witness = _next_true(witness)
        self.next_fail = _next_true(fail)

    def witnesses(self, start: int):
        """Witness indices from start on, up to and including the first failure."""
        stop = self.next_fail[start]
        i = self.next_witness[start]
        while i < self.size and i <= stop:
            yield i
            i = self.next_witness[i + 1]


def _next_true(flags) -> list:
    """out[i] is the first index >= i whose flag is set, len(flags) if there is none."""
    out = [len(flags)] * (len(flags) + 1)
    for i in range(len(flags) - 1, -1, -1):
        out[i] = i if flags[i] else out[i + 1]
    return out


def _shifted_window(t: Fraction, w: Interval) -> Interval:
    hi = INF if w.hi.value == INF else t + w.hi.value
    return Interval(Bound(t + w.lo.value, w.lo.closed), Bound(hi, w.hi.closed))


def _anchored_prefix(parts: IntervalSet, start: Fraction) -> Interval | None:
    """The part starting at the gap's left end, as a witness window (start, sup]."""
    if parts.parts and parts.parts[0].lo.value == start:
        return Interval(Bound(start, False), Bound(parts.parts[0].hi.value, True))
    return None


def _anchored_suffix(parts: IntervalSet, end: Fraction) -> Fraction | None:
    """Greatest-lower value l such that (l, end) lies inside one part, or None."""
    if parts.parts and parts.parts[-1].hi.value == end:
        return parts.parts[-1].lo.value
    return None


def _until_grid_base(wd: _Word, k: int, j: int, facts, w, mode) -> bool:
    """Decide f U_w g at grid point (k, j), visiting only witnesses up to t + sup w."""
    t = wd.times[k]
    p, end = wd.first[k] + j + 1, wd.first[k + 1]  # the rest of the block
    g_p, not_f_p = facts.g_at[p], facts.not_f_at[p]
    if g_p < end and g_p <= not_f_p and w.contains(Fraction(0)):
        return True
    if not_f_p < end:
        return False
    shifted = None
    for i in facts.witnesses(2 * k + 1):
        if wd.times[(i - 1) // 2] - t >= w.hi.value:
            return False  # past the left end of the gap at or before i: out of the window
        m, in_gap = divmod(i, 2)
        if in_gap:
            shifted = shifted or _shifted_window(t, w)
            if any(c.intersect(shifted) is not None for c in facts.cands[m]):
                return True
        elif w.contains(wd.times[m] - t):
            return True
    if mode == OPTIMISTIC and facts.next_fail[2 * k + 1] == facts.size:
        return w.hi.value == INF or t + w.hi.value > wd.cut
    return False


def _until_gap_bases(wd: _Word, m0: int, f_gap, g_gap, facts, w, mode) -> list:
    """Base intervals inside gap m0 satisfying f U_w g, walking forward symbolically."""
    beta_ = wd.times[m0 + 1]
    # witnesses inside the same gap: the plain dense decomposition
    out = _until_bases(f_gap[m0], g_gap[m0], w, wd.gaps[m0])
    # witnesses past the gap need its f-suffix
    suffix_lo = _anchored_suffix(f_gap[m0], beta_)
    if suffix_lo is None:
        return out
    zone = Interval(Bound(suffix_lo, True), Bound(beta_, False)).intersect(wd.gaps[m0])
    if zone is None:
        return out

    def collect(region_or_point) -> bool:
        """Add the bases this witness serves; True once they are the whole zone."""
        base = back_shift(region_or_point, w)
        piece = None if base is None else base.intersect(zone)
        if piece is not None:
            out.append(piece)
        return piece == zone

    end = INF if w.hi.value == INF else beta_ + w.hi.value
    for i in facts.witnesses(2 * m0 + 2):
        m, in_gap = divmod(i, 2)
        if wd.times[m] >= end:
            return out  # every later witness lies past the window of every base
        regions = facts.cands[m] if in_gap else (punctual(wd.times[m]),)
        if any(collect(q) for q in regions):
            return out
    if mode == OPTIMISTIC and facts.next_fail[2 * m0 + 2] == facts.size:
        # bases whose window reaches strictly past the cut
        reach = back_shift(Interval(Bound(wd.cut, False), Bound(INF, False)), w)
        if reach is not None:
            piece = reach.intersect(zone)
            if piece is not None:
                out.append(piece)
    return out


def _until_mixed(wd: _Word, f: MixedSet, g: MixedSet, w: Interval, mode) -> MixedSet:
    f_gap = wd.gap_slices(f.gap)
    g_gap = wd.gap_slices(g.gap)
    facts = _UntilFacts(wd, f, g, f_gap, g_gap)
    points = frozenset(
        (k, j) for (k, j) in wd.grid
        if _until_grid_base(wd, k, j, facts, w, mode))
    pieces = []
    for m0 in range(wd.n - 1):
        pieces.extend(_until_gap_bases(wd, m0, f_gap, g_gap, facts, w, mode))
    return MixedSet(points, IntervalSet.from_intervals(pieces))


def sat_sets_mx(cw: CompactTimedWord, f: Formula, mode: str = EXACT) -> dict:
    """The fold table: Sat(g) per (subformula g, mode), in `subformulas` order."""
    wd = _Word(cw)
    beta_points = frozenset((k, 0) for k in range(wd.n))

    def visit(node, m, l=None, r=None) -> MixedSet:
        match node:
            case Atom(name):
                return MixedSet(
                    frozenset((k, j) for (k, j) in wd.grid if cw.blocks[k][0][j] == name),
                    IntervalSet.empty())
            case Beta():
                return MixedSet(beta_points, wd.all_gaps)
            case Not():
                return MixedSet(wd.grid - l.points, wd.all_gaps.difference(l.gap))
            case And():
                return MixedSet(l.points & r.points, l.gap.intersect(r.gap))
            case Until(_, w, _):
                return _until_mixed(wd, l, r, w, m)
    return fold(f, visit, mode, _FLIP.__getitem__)


def sat_set_mx(cw: CompactTimedWord, f: Formula, mode: str = EXACT) -> MixedSet:
    """Exactly the in-domain pairs (t, j) where the compact word satisfies f."""
    return sat_sets_mx(cw, f, mode)[f, mode]


def eval_mx(cw: CompactTimedWord, t, j: int, f: Formula) -> bool:
    t = t if isinstance(t, Fraction) else rational(t)
    seq = compact_at(cw, t)  # domain-checks t
    if not (0 <= j < len(seq)):
        raise IndexError(f"position {j} out of range at time {t}")
    got = sat_set_mx(cw, f)
    k = block_index_at(cw, t)
    return (k, j) in got.points if k is not None else got.gap.member(t)


def eval_mx_lasso(l: Lasso, f: Formula, cut=None) -> Verdict3:
    """Three-valued verdict at (0, 0); exact whenever f is bounded."""
    cw = compact(unroll(l, cut if cut is not None else lasso_cut(l, f)))
    return _lasso_verdict(f, lambda mode: (0, 0) in sat_set_mx(cw, f, mode).points)
