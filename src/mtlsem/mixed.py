"""Mixed satisfaction over compact timed words.

Evaluation points are lexicographic pairs (t, j): at a block timestamp, j
ranges over the ordered simultaneous actions; anywhere else the word reads as
the one-element no-action sequence, so only j = 0 exists there.  This is the
dense time line with each block timestamp widened into its ordered positions,
and the engine evaluates it as one: the fold is `interval_based._sat_dense`
over lex keys.

Lex keys.  Let J be the largest block size.  Each dense time key T (see
`intervals`) owns the J slots T*J to T*J + J - 1.  At a block of size s at time
v, position j < s - 1 is slot 3vJ + j, and the last position owns the spare
slots 3vJ + s - 1 to 3vJ + J - 1.  Every other time key, a gap time or an open
side of one, keeps all J of its slots.  Lex points with nothing between them
then get adjacent slots, so the key sweeps run on lex keys as on time keys, and
every set is a union of whole lex points.  Atoms are the slots of their
positions, merged as one walk over the blocks appends them: an (a, a) pair
inside a block takes adjacent slots, and slots of two blocks never touch, since
a block's lie in its stamp's time key 3v and the open keys 3v +- 1 between
blocks keep their own J slots each.  A result reads its grid from that walk,
and its points and gaps in one walk of its own.  `beta` is the complement of
the slots 3vJ + 1 to 3vJ + J - 1 of every block with s >= 2.  When the window
holds 0, an Until's base (v, j) also holds if a later position of its own block
holds g with f at every position strictly between them
(`intervals._same_block_bases`).
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import cached_property

from .errors import PositionError
from .formulas import Formula, atoms, fold_base
from .intervals import IntervalSet, rational, time_key
from .structures import CompactTimedWord, Lasso
from .encodings import block_index_at, compact, lasso_instance
from .interval_based import _sat_dense

NO_ACTION = "⊢"  # the internal no-action sentinel filling gap times


def compact_at(cw: CompactTimedWord, t) -> tuple:
    """The action sequence read at time t: a block's actions or the no-action mark."""
    k = block_index_at(cw, t)  # domain-checks t
    return cw.actions[k] if k is not None else (NO_ACTION,)


class MixedSet:
    """Satisfaction set for the mixed semantics: grid points plus gap intervals.

    A set holds its `points` and `gap`, or `lex`: its lex-key list and its
    table's grid (D, J, block starts, blocks), read on first use in one walk."""

    def __init__(self, points: frozenset, gap: IntervalSet):
        self.__dict__.update(points=points, _read=(sorted(points), gap))

    @classmethod
    def on_grid(cls, keys: list, grid: tuple) -> "MixedSet":
        s = object.__new__(cls)
        s.__dict__["lex"] = (keys, grid)
        return s

    @cached_property
    def _read(self) -> tuple:
        """(point_list, gap): each part's points, and its time keys [lo // J,
        hi // J] less the block stamps in it.  A gap time key holds all J slots
        or none and parts never touch: the pieces come sorted and disjoint."""
        keys, (D, J, starts, blocks) = self.lex
        points, gap, k = [], [], 0
        for lo, hi in keys:
            k = bisect_right(starts, lo - J, k)  # the first block whose slots reach lo
            T = lo // J  # the part's first time key not yet read
            for k in range(k, bisect_right(starts, hi, k)):
                s = starts[k]
                points += [(k, j) for j in range(max(lo - s, 0), min(hi - s + 1, len(blocks[k])))]
                if T < s // J:
                    gap.append((T, s // J - 1))
                T = s // J + 1
            if T <= hi // J:
                gap.append((T, hi // J))
        return points, IntervalSet.on_base(D, gap)

    point_list = property(lambda self: self._read[0])
    points = cached_property(lambda self: frozenset(self.point_list))
    gap = property(lambda self: self._read[1])

    def __eq__(self, other):
        return (isinstance(other, MixedSet)
                and self.points == other.points and self.gap == other.gap)

    def __hash__(self):
        return hash((self.points, self.gap))

    def __repr__(self):
        pts = sorted(self.points)
        return f"MixedSet(points={pts}, gap={self.gap})"


def _mx_table(cw: CompactTimedWord, f: Formula):
    """The lex-key table of f over cw, and its grid (D, J, block starts, blocks),
    from one walk over the blocks (see the module docstring for the atom slots)."""
    D0, ticks = cw.ticks
    D, J = fold_base(D0, f), max(map(len, cw.actions))
    n = 3 * J * (D // D0)  # slot 0 of a stamp's closed time key on D, per tick
    starts, multi = [], []  # each block's slot of position 0; (start, size) of size >= 2
    slots = {name: [] for name in atoms(f)}  # the slots of each atom the formula names
    for v, acts in zip(ticks, cw.actions):
        s = n * v
        starts.append(s)
        if len(acts) == 1:  # one position owns the whole time key
            if acts[0] in slots:
                slots[acts[0]].append((s, s + J - 1))
            continue
        multi.append((s, len(acts)))
        for j, a in enumerate(acts, s):
            if a in slots:
                keys, hi = slots[a], (j if j < s + len(acts) - 1 else s + J - 1)
                if keys and keys[-1][1] == j - 1:  # a at position j - 1 too
                    keys[-1] = (keys[-1][0], hi)
                else:
                    keys.append((j, hi))
    table = _sat_dense(slots, (starts[0], starts[-1] + J - 1), D, f, J, multi)
    return table, (D, J, starts, cw.actions)


def sat_sets_mx(cw: CompactTimedWord, f: Formula) -> dict:
    """The fold table: Sat(g) per subformula g, in `subformulas` order."""
    table, grid = _mx_table(cw, f)
    return {key: MixedSet.on_grid(keys, grid) for key, keys in table.items()}


def sat_set_mx(cw: CompactTimedWord, f: Formula) -> MixedSet:
    """Exactly the in-domain pairs (t, j) where the compact word satisfies f."""
    table, grid = _mx_table(cw, f)
    return MixedSet.on_grid(table[f], grid)


def eval_mx(cw: CompactTimedWord, t, j: int, f: Formula) -> bool:
    t = t if isinstance(t, Fraction) else rational(t)
    k = block_index_at(cw, t)  # domain-checks t
    size = len(cw.actions[k]) if k is not None else 1
    if not 0 <= j < size:
        raise PositionError(f"position {j} out of range at time {t}")
    table, (D, J, starts, _) = _mx_table(cw, f)
    # the slot of position j; at a gap time its time key's first (a set holds all J or none)
    return table.holds(f, starts[k] + j if k is not None else time_key(t, D) * J)


def eval_mx_lasso(l: Lasso, f: Formula) -> bool:
    """Exact verdict at (0, 0) of the unrolled infinite word."""
    rho, g = lasso_instance(l, f)
    return eval_mx(compact(rho), 0, 0, g)
