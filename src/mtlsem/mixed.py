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
covers its whole base zone.  A base thus costs the witnesses its window
holds, and under an unbounded F or G the witnesses before the first one that
serves it.

The walks run on an integer time base (see `intervals`).  `sat_sets_mx` and
`sat_set_mx` take D once, from `cw.times` and `finite_window_bounds(f)`; block
times, windows and the gap sets are then ints and key lists.  The gap keys
are converted back to an `IntervalSet` only in the returned `MixedSet`s: the
root's for `sat_set_mx`, the whole table's for `sat_sets_mx`.

A lasso verdict is exact: `encodings.lasso_instance` bounds the formula and
unrolls the lasso, and the verdict is whether (0, 0) lies in the root's
grid points.  The paper promises only sound three-valued verdicts here.
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
    finite_window_bounds,
    fold,
)
from .intervals import (
    INF,
    IntervalSet,
    back_shift_keys,
    difference_keys,
    from_keys,
    intersect_keys,
    interval_keys,
    normalize_keys,
    rational,
    scaled,
    time_base,
)
from .structures import CompactTimedWord, Lasso, compact_duration
from .encodings import block_index_at, compact, lasso_instance
from .interval_based import Verdict3, _until_bases
from .pointwise import _next_true

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
    """Per-word geometry shared by all subformula evaluations, on the time base D."""

    def __init__(self, cw: CompactTimedWord, D: int):
        self.cw = cw
        self.times = scaled(cw.times, D)
        self.sizes = tuple(len(acts) for acts, _ in cw.blocks)
        self.n = len(cw.blocks)
        self.order = tuple((k, j) for k in range(self.n) for j in range(self.sizes[k]))
        self.grid = frozenset(self.order)
        self.first = [0]  # index in `order` of each block's offset 0, then len(order)
        for size in self.sizes:
            self.first.append(self.first[-1] + size)
        self.gaps = [(3 * self.times[k] + 1, 3 * self.times[k + 1] - 1)
                     for k in range(self.n - 1)]

    def gap_slices(self, s: list) -> list:
        """The key list s intersected with each gap, in one sweep over parts and gaps."""
        gaps = self.gaps
        slices = [[] for _ in gaps]
        m = 0
        for lo, hi in s:
            while m < len(gaps) and gaps[m][1] < lo:
                m += 1
            k = m
            while k < len(gaps) and gaps[k][0] <= hi:
                slices[k].append((max(lo, gaps[k][0]), min(hi, gaps[k][1])))
                k += 1
        return slices


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

    def __init__(self, wd: _Word, f_points, g_points, f_gap, g_gap):
        self.g_at = _next_true([p in g_points for p in wd.order])
        self.not_f_at = _next_true([p not in f_points for p in wd.order])
        self.cands = []
        witness, fail = [], []
        for k in range(wd.n):
            start, end = wd.first[k], wd.first[k + 1]
            witness.append(self.g_at[start] < end and self.g_at[start] <= self.not_f_at[start])
            fail.append(self.not_f_at[start] < end)
            if k < wd.n - 1:
                gap, f_k = wd.gaps[k], f_gap[k]
                if f_k and f_k[0][0] == gap[0]:
                    # the anchored prefix, as a witness window (start, sup]
                    window = (gap[0], 3 * ((f_k[0][1] + 1) // 3))
                    self.cands.append(intersect_keys(g_gap[k], [window]))
                else:
                    self.cands.append([])
                witness.append(bool(self.cands[k]))
                fail.append(f_k != [gap])
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


def _until_grid_base(wd: _Word, k: int, j: int, facts, w, sup) -> bool:
    """Decide f U_w g at grid point (k, j), visiting only witnesses up to t + sup w."""
    w_lo, w_hi = w
    t = wd.times[k]
    p, end = wd.first[k] + j + 1, wd.first[k + 1]  # the rest of the block
    g_p, not_f_p = facts.g_at[p], facts.not_f_at[p]
    if g_p < end and g_p <= not_f_p and w_lo == 0:  # w holds 0
        return True
    if not_f_p < end:
        return False
    for i in facts.witnesses(2 * k + 1):
        if wd.times[(i - 1) // 2] - t >= sup:
            return False  # past the left end of the gap at or before i: out of the window
        m, in_gap = divmod(i, 2)
        if in_gap:
            s_lo, s_hi = w_lo + 3 * t, w_hi + 3 * t  # the window shifted to t
            if any(max(c_lo, s_lo) <= min(c_hi, s_hi) for c_lo, c_hi in facts.cands[m]):
                return True
        elif w_lo <= 3 * (wd.times[m] - t) <= w_hi:
            return True
    return False


def _until_gap_bases(wd: _Word, m0: int, f_gap, g_gap, facts, w, sup) -> list:
    """Base keys inside gap m0 satisfying f U_w g, walking forward symbolically."""
    beta_ = wd.times[m0 + 1]
    gap, f_m0 = wd.gaps[m0], f_gap[m0]
    # witnesses inside the same gap: the plain dense decomposition
    out = _until_bases(f_m0, g_gap[m0], w, gap)
    # witnesses past the gap need its f-suffix, the part reaching the gap's end
    if not f_m0 or f_m0[-1][1] != gap[1]:
        return out
    zone = (max(3 * ((f_m0[-1][0] + 1) // 3), gap[0]), gap[1])

    def collect(lo, hi) -> bool:
        """Add the bases this witness serves; True once they are the whole zone."""
        base = back_shift_keys(lo, hi, *w)
        if base is None:
            return False
        piece = (max(base[0], zone[0]), min(base[1], zone[1]))
        if piece[0] > piece[1]:
            return False
        out.append(piece)
        return piece == zone

    end = beta_ + sup
    for i in facts.witnesses(2 * m0 + 2):
        m, in_gap = divmod(i, 2)
        if wd.times[m] >= end:
            break  # every later witness lies past the window of every base
        regions = facts.cands[m] if in_gap else ((3 * wd.times[m], 3 * wd.times[m]),)
        if any(collect(*q) for q in regions):
            break
    return out


def _until_mixed(wd: _Word, f: tuple, g: tuple, w: tuple) -> tuple:
    f_gap = wd.gap_slices(f[1])
    g_gap = wd.gap_slices(g[1])
    facts = _UntilFacts(wd, f[0], g[0], f_gap, g_gap)
    sup = INF if w[1] == INF else (w[1] + 1) // 3
    points = frozenset(
        (k, j) for (k, j) in wd.grid
        if _until_grid_base(wd, k, j, facts, w, sup))
    pieces = []
    for m0 in range(wd.n - 1):
        pieces.extend(_until_gap_bases(wd, m0, f_gap, g_gap, facts, w, sup))
    return points, normalize_keys(pieces)


def _mx_table(cw: CompactTimedWord, f: Formula):
    """The table of (grid points, gap keys) per subformula, and its time base."""
    D = time_base([*cw.times, *finite_window_bounds(f)])
    wd = _Word(cw, D)
    beta_points = frozenset((k, 0) for k in range(wd.n))

    def visit(node, l=None, r=None) -> tuple:
        match node:
            case Atom(name):
                return (frozenset((k, j) for (k, j) in wd.grid if cw.blocks[k][0][j] == name),
                        [])
            case Beta():
                return beta_points, wd.gaps
            case Not():
                return wd.grid - l[0], difference_keys(wd.gaps, l[1])
            case And():
                return l[0] & r[0], intersect_keys(l[1], r[1])
            case Until(_, w, _):
                return _until_mixed(wd, l, r, interval_keys(w, D))
    return fold(f, visit), D


def sat_sets_mx(cw: CompactTimedWord, f: Formula) -> dict:
    """The fold table: Sat(g) per subformula g, in `subformulas` order."""
    table, D = _mx_table(cw, f)
    return {key: MixedSet(points, from_keys(gap, D)) for key, (points, gap) in table.items()}


def sat_set_mx(cw: CompactTimedWord, f: Formula) -> MixedSet:
    """Exactly the in-domain pairs (t, j) where the compact word satisfies f."""
    table, D = _mx_table(cw, f)
    points, gap = table[f]
    return MixedSet(points, from_keys(gap, D))


def eval_mx(cw: CompactTimedWord, t, j: int, f: Formula) -> bool:
    t = t if isinstance(t, Fraction) else rational(t)
    seq = compact_at(cw, t)  # domain-checks t
    if not (0 <= j < len(seq)):
        raise IndexError(f"position {j} out of range at time {t}")
    got = sat_set_mx(cw, f)
    k = block_index_at(cw, t)
    return (k, j) in got.points if k is not None else got.gap.member(t)


def eval_mx_lasso(l: Lasso, f: Formula) -> Verdict3:
    """Exact verdict at (0, 0) of the unrolled infinite word."""
    rho, g = lasso_instance(l, f)
    return Verdict3.of((0, 0) in sat_set_mx(compact(rho), g).points)
