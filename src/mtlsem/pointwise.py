"""Pointwise satisfaction: formulas evaluated at event positions only.

The engine supplies an algebra to `formulas.fold`.  A subformula's value is one
int: position i of n is bit n-1-i, so `format(x, f"0{n}b")[i]` reads it and
`int(s, 2)` packs a bit string back.  An atom packs the action column once,
`!` is `full ^ x` with full = (1 << n) - 1, and `&` is `x & y`.

f U_w g holds at i when a later position j in the window satisfies g and f
holds strictly between i and j.  The window [0,inf) reads positions only, and
carry propagation answers it everywhere at once (bit-parallelism, Baeza-Yates
& Gonnet, CACM 1992): with F = f & ~g, the positions whose run of F reaches a
g are N = g | (F & ~(F + ((g << 1) & F))), since the carry from below a g
clears exactly the run above it, and the Until is `(N << 1) & full`.  That
covers G, plain U and F, and the nested unbounded windows of a lasso unroll.

Every other window, (0,inf) included (simultaneous events make it depend on
time), is one forward scan over the operands' bit strings (the sliding window
of Donzé, Ferrère & Maler, "Efficient Robust Monitoring for STL", CAV 2013).
Times never decrease, so a base's window is one run of positions whose ends
only move forward.  The first g at or after the run's start is the best
witness: it holds when it lies in the run and no f-failure comes first.
`str.find` gives the next g and the next f-failure, again only once the scan
has passed the last hit, so the scan stays linear.  The scan compares ints:
`sat_positions` takes the time base D once (see `intervals`) from the word's
ticks and `finite_window_bounds(f)`, and hands it 3tD per event time t.
"""

from __future__ import annotations

from itertools import compress

from .encodings import lasso_instance
from .formulas import And, Atom, Formula, Not, Until, finite_window_bounds, fold, require_beta_free
from .intervals import INF, interval_keys, rebased
from .structures import Lasso, TimedWord


def _until(w, l: int, r: int, times) -> int:
    """f U_w g at every position, from the operand values l, r.

    `w` is the window's key pair and event i occurs at times[i] / 3D.  Base
    i's window holds the positions first <= j < last after i; it holds when
    its first g-position j at or after `first` has j < last and the first
    f-failure k after i is not before j.
    """
    n = len(times)
    if w == (0, INF):
        F = l & ~r
        return ((r | (F & ~(F + ((r << 1) & F)))) << 1) & ((1 << n) - 1)
    w_lo, w_hi = w
    fs, gs = format(l, f"0{n}b") + "0", format(r, f"0{n}b") + "1"  # a missing j or k is n
    out = bytearray(b"0" * n)
    first, last = 0, n if w_hi == INF else 0
    j = k = -1
    for i, t in enumerate(times):
        if first <= i:
            first = i + 1
        while first < n and times[first] - t < w_lo:
            first += 1
        while last < n and times[last] - t <= w_hi:
            last += 1
        if j < first:
            j = gs.find("1", first)
        if k <= i:
            k = fs.find("0", i + 1)
        if j < last and j <= k:
            out[i] = 49  # ord("1")
    return int(out, 2)


def sat_positions(rho: TimedWord, f: Formula) -> frozenset:
    """All positions i with rho, i satisfying f."""
    require_beta_free(f, "pointwise")
    acts = rho.actions
    n = len(acts)
    full = (1 << n) - 1
    D, ticks = rebased(rho.ticks, finite_window_bounds(f))
    times = [3 * t for t in ticks]

    def visit(node, l=None, r=None) -> int:
        match node:
            case Atom(name):
                return int("".join(["1" if a == name else "0" for a in acts]), 2)
            case Not():
                return full ^ l
            case And():
                return l & r
            case Until(_, w, _):
                return _until(interval_keys(w, D), l, r, times)

    bits = format(fold(f, visit)[f], f"0{n}b").encode()
    return frozenset(compress(range(n), bits.translate(bytes.maketrans(b"01", b"\0\1"))))


def eval_pw(rho: TimedWord, i: int, f: Formula) -> bool:
    if not (0 <= i < len(rho)):
        raise IndexError(f"position {i} out of range")
    return i in sat_positions(rho, f)


def eval_pw_lasso(l: Lasso, f: Formula) -> bool:
    """Exact verdict at position 0: `lasso_instance` closes every unbounded window
    at the lasso's period and unrolls far enough for a finite word to decide it."""
    rho, g = lasso_instance(l, f)
    return 0 in sat_positions(rho, g)
