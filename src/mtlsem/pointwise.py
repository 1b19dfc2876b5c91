"""Pointwise satisfaction: formulas evaluated at event positions only.

The engine supplies an algebra to `formulas.fold`.  A subformula's value is one
int, position i of n at bit n-1-i: an atom is the word's `action_bits`, packed
once per word and action name, `!` is `full ^ x` with full = (1 << n) - 1, and
`&` is `x & y`.  `sat_positions` unpacks the root's int; `eval_pw` and
`eval_pw_lasso` read the one bit they need.

f U_w g holds at i when a later position j in the window satisfies g and f
holds strictly between i and j.  The window [0,inf) reads positions only, and
carry propagation answers it everywhere at once (bit-parallelism, Baeza-Yates
& Gonnet, CACM 1992): with F = f & ~g, the positions whose run of F reaches a
g are N = g | (F & ~(F + ((g << 1) & F))), since the carry from below a g
clears exactly the run above it, and the Until is `(N << 1) & full`.  That
covers G, plain U and F, and the nested unbounded windows of a lasso unroll.

Every other window, (0,inf) included (simultaneous events make it depend on
time), is one forward scan over the operands' bit strings and the word's own
ticks that steps through the bases that hold and jumps over the rest (`_until`,
after the sliding window of Donzé, Ferrère & Maler, CAV 2013).  With D the
fold's base (`formulas.fold_base`) and m = 3D / D0, a tick distance e is 3dD =
em for a time distance d, so a window's keys lifted onto D (see `intervals`),
(lo, hi), become ceil(lo / m) <= e <= floor(hi / m).
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import compress

from .encodings import lasso_instance
from .errors import PositionError
from .formulas import And, Atom, Formula, Not, Until, fold, fold_base, require_beta_free
from .intervals import INF, scaled_keys
from .structures import Lasso, TimedWord


def _until(w, l: int, r: int, times) -> int:
    """f U_w g at every position, from the operand values l, r.  For `w` = (lo, hi),
    let `first` be the first position after base i with lo <= times[first] -
    times[i], j the first g-position at or after it and k the first f-failure
    after i: base i holds when times[j] - times[i] <= hi and j <= k.  Times
    never decrease, so all three only move forward, and `str.find` gives j and
    k.  The scan visits the bases that hold; a base that fails starts a run of
    failing bases that one jump clears, to the first base whose window reaches
    j (`bisect_left`) or to k, and with no j left no later base holds.  So it
    pays for the bases that hold and one jump per run of bases that fail, plus
    the positions `first` walks over, each once."""
    n = len(times)
    if w == (0, INF):
        F = l & ~r
        return ((r | (F & ~(F + ((r << 1) & F)))) << 1) & ((1 << n) - 1)
    w_lo, w_hi = w
    fs, gs = format(l, f"0{n}b") + "0", format(r, f"0{n}b") + "1"  # a missing j or k is n
    out = bytearray(b"0" * n)
    first = i = 0
    j = k = -1
    while i < n:
        t = times[i]
        if first <= i:
            first = i + 1
        while first < n and times[first] - t < w_lo:
            first += 1
        if j < first:
            j = gs.find("1", first)
            if j == n:
                break
            tj = times[j]
        if k <= i:
            k = fs.find("0", i + 1)
        if tj - t > w_hi:
            i = bisect_left(times, tj - w_hi, i + 1, j)
        elif j > k:
            i = k
        else:
            out[i] = 49  # ord("1")
            i += 1
    return int(out, 2)


def _root(rho: TimedWord, f: Formula) -> int:
    require_beta_free(f, "pointwise")
    D0, ticks = rho.ticks
    full = (1 << len(ticks)) - 1
    D = fold_base(D0, f)
    m = 3 * D // D0

    def visit(node, l=None, r=None) -> int:
        match node:
            case Atom(name):
                return rho.action_bits(name)
            case Not():
                return full ^ l
            case And():
                return l & r
            case Until(_, w, _):
                d, pair = w.keys
                (lo, hi), = scaled_keys([pair], D // d)  # the window lifted onto D
                return _until((-(-lo // m), hi if hi == INF else hi // m), l, r, ticks)

    return fold(f, visit)[f]


def sat_positions(rho: TimedWord, f: Formula) -> frozenset:
    """All positions i with rho, i satisfying f."""
    bits = format(_root(rho, f), f"0{len(rho)}b").encode()
    return frozenset(compress(range(len(bits)), bits.translate(bytes.maketrans(b"01", b"\0\1"))))


def eval_pw(rho: TimedWord, i: int, f: Formula) -> bool:
    if not (0 <= i < len(rho)):
        raise PositionError(f"position {i} out of range")
    return bool(_root(rho, f) >> (len(rho) - 1 - i) & 1)


def eval_pw_lasso(l: Lasso, f: Formula) -> bool:
    """Exact verdict at position 0: `lasso_instance` closes every unbounded window
    at the lasso's period and unrolls far enough for a finite word to decide it."""
    rho, g = lasso_instance(l, f)
    return eval_pw(rho, 0, g)
