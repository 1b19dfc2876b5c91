"""Mixed satisfaction over compact timed words.

Evaluation points are lexicographic pairs (t, j): at a block timestamp, j
ranges over the ordered simultaneous actions; anywhere else the word reads as
the one-element no-action sequence, so only j = 0 exists there.  This is the
dense time line with each block timestamp widened into its ordered positions,
and the engine evaluates it as one: every set is a key list (see `intervals`)
over lex keys, and the fold runs the dense algebra of `interval_based`.

Lex keys.  Let J be the largest block size.  Each dense time key T (3vD for
the point v, +1 just after it, -1 just before it) owns the J slots T*J to
T*J + J - 1.  At a block of size s at time v, position j < s - 1 is slot
3vJ + j, and the last position owns the spare slots 3vJ + s - 1 to
3vJ + J - 1.  Every other time key, a gap time or an open side of one, keeps
all J of its slots.  Lex points with nothing between them then get adjacent
slots, so `normalize_keys`, `intersect_keys` and `difference_keys` work
unchanged.  Atoms are the slots of their positions; negation is the
difference from the domain (3J*t0, 3J*t_end + J - 1); the position-zero atom
`beta` is the domain minus the slots 3vJ + 1 to 3vJ + J - 1 of every block
with s >= 2.

Until.  `interval_based._until_bases` decomposes by the maximal parts of the
left operand's set, with J and the last-point offsets of the block time keys.
A part's bases start at the point right before it (the floor), its witness
window ends at the point right after it, and distances are read off the time
keys k // J.  This covers every witness at a strictly later time.  When the
window holds 0, a base (v, j) also holds if some later position of its own
block holds g with f at every position strictly between them: one backward
scan per block (`_same_block_bases`).

The engine runs on an integer time base (see `intervals`): `sat_sets_mx` and
`sat_set_mx` read the block ticks `cw.ticks` and take D once, from their base
and `finite_window_bounds(f)`.  A `MixedSet` is built only for a returned
set: its grid points from one sweep over each grid point's first slot, its
gap from the time keys k // J minus the block stamps.

A lasso verdict is an exact boolean: `encodings.lasso_instance` bounds the
formula and unrolls the lasso, and the verdict is whether (0, 0) lies in the
root's grid points.  The paper promises only sound three-valued verdicts here.
"""

from __future__ import annotations

from fractions import Fraction

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
    IntervalSet,
    difference_keys,
    from_keys,
    intersect_keys,
    interval_keys,
    normalize_keys,
    rational,
    rebased,
)
from .structures import CompactTimedWord, Lasso
from .encodings import block_index_at, compact, lasso_instance
from .interval_based import _until_bases

NO_ACTION = "⊢"  # the internal no-action sentinel filling gap times


def compact_at(cw: CompactTimedWord, t) -> tuple:
    """The action sequence read at time t: a block's actions or the no-action mark."""
    k = block_index_at(cw, t)  # domain-checks t
    return cw.blocks[k][0] if k is not None else (NO_ACTION,)


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


def _members(keys: list, slots: list) -> list:
    """Whether the key list covers each slot of an ascending list, in one sweep."""
    out = []
    i, n = 0, len(keys)
    for s in slots:
        while i < n and keys[i][1] < s:
            i += 1
        out.append(i < n and keys[i][0] <= s)
    return out


def _same_block_bases(f: list, g: list, starts: list, sizes: list) -> list:
    """The slots (v, j) whose witness is a later position of their own block."""
    blocks = [(s, n) for s, n in zip(starts, sizes) if n > 1]
    slots = [s + j for s, n in blocks for j in range(n)]
    in_f, in_g = _members(f, slots), _members(g, slots)
    out = []
    i = 0
    for s, n in blocks:
        holds = False  # for the base right before position j
        for j in range(n - 1, 0, -1):
            holds = in_g[i + j] or (holds and in_f[i + j])
            if holds:
                out.append((s + j - 1, s + j - 1))
        i += n
    return out


def _mx_table(cw: CompactTimedWord, f: Formula):
    """The lex-key table of f over cw, and the conversion of one entry to a MixedSet."""
    D, times = rebased(cw.ticks, finite_window_bounds(f))
    sizes = [len(acts) for acts, _ in cw.blocks]
    J = max(sizes)
    starts = [3 * J * v for v in times]  # the slot of each block's position 0
    last = {3 * v: n - 1 for v, n in zip(times, sizes)}
    domain = (starts[0], starts[-1] + J - 1)
    atoms = {}
    for s, n, (acts, _) in zip(starts, sizes, cw.blocks):
        for j, a in enumerate(acts):
            atoms.setdefault(a, []).append((s + j, s + J - 1 if j == n - 1 else s + j))
    beta = difference_keys([domain], [(s + 1, s + J - 1) for s, n in zip(starts, sizes)
                                      if n > 1])

    def visit(node, l=None, r=None) -> list:
        match node:
            case Atom(name):
                return normalize_keys(atoms.get(name, ()))
            case Beta():
                return beta
            case Not():
                return difference_keys([domain], l)
            case And():
                return intersect_keys(l, r)
            case Until(_, w, _):
                w = interval_keys(w, D)
                bases = _until_bases(l, r, w, domain, J, last)
                if w[0] == 0:
                    bases += _same_block_bases(l, r, starts, sizes)
                return normalize_keys(bases)

    grid = [(k, j) for k, n in enumerate(sizes) for j in range(n)]
    grid_slots = [starts[k] + j for k, j in grid]
    stamps = [(3 * v, 3 * v) for v in times]

    def mixed_set(keys: list) -> MixedSet:
        points = frozenset(p for p, held in zip(grid, _members(keys, grid_slots)) if held)
        gap = difference_keys(normalize_keys((lo // J, hi // J) for lo, hi in keys), stamps)
        return MixedSet(points, from_keys(gap, D))
    return fold(f, visit), mixed_set


def sat_sets_mx(cw: CompactTimedWord, f: Formula) -> dict:
    """The fold table: Sat(g) per subformula g, in `subformulas` order."""
    table, mixed_set = _mx_table(cw, f)
    return {key: mixed_set(keys) for key, keys in table.items()}


def sat_set_mx(cw: CompactTimedWord, f: Formula) -> MixedSet:
    """Exactly the in-domain pairs (t, j) where the compact word satisfies f."""
    table, mixed_set = _mx_table(cw, f)
    return mixed_set(table[f])


def eval_mx(cw: CompactTimedWord, t, j: int, f: Formula) -> bool:
    t = t if isinstance(t, Fraction) else rational(t)
    k = block_index_at(cw, t)  # domain-checks t
    size = len(cw.blocks[k][0]) if k is not None else 1
    if not 0 <= j < size:
        raise IndexError(f"position {j} out of range at time {t}")
    got = sat_set_mx(cw, f)
    return (k, j) in got.points if k is not None else got.gap.member(t)


def eval_mx_lasso(l: Lasso, f: Formula) -> bool:
    """Exact verdict at (0, 0) of the unrolled infinite word."""
    rho, g = lasso_instance(l, f)
    return (0, 0) in sat_set_mx(compact(rho), g).points
