"""Independent brute-force evaluators and fuzz generators.

The dense oracles know nothing of the engines' interval algebra.  They slice
the time axis into pieces at critical points (timestamps, or state-sequence
endpoints, shifted by signed sums of window bounds up to the temporal nesting
depth), on which every subformula is piecewise constant, and then decide each
quantifier by scanning pieces: a piece is a critical point or the open interval
between two neighbours, represented by the point itself or the midpoint.  The
only arithmetic is comparing a candidate piece with the base's shifted window;
witnesses are never sampled, so window endpoints that fall strictly inside a
piece are still found.

The pointwise oracle reads one point piece per event, in word order: a later
position is a later piece.  The mixed oracle reads the dense pieces from the
first block on, one point per block position (its offset j) in place of each
block's timestamp.  One piece scan decides every Until of all four relations;
a later position at the same time lies at distance 0.  Piecewise constancy
itself is checked empirically by double sampling in the test suite.

A table costs one frontier closure for the critical values (each round
shifts only the values the last one added), one step lookup per piece (its:
one walk, pieces and steps both in time order), per Until and base the
window's absolute ends once, then the scan: still the literal quantifier
over later pieces, on `Fraction`s.  `differential` reads a table in piece
order; a single lookup (oracle_eval_*) builds the table and reads one entry.

The tables, and the depth and window bounds of the critical values, are read
off the oracle's own post-order of the formula (`_post_order`, an explicit
stack), not the engines' `fold` or `subformulas`, so a fault there cannot hide
in both.  They compare `Fraction`s and flags, never the engines' integer keys.
Only `differential`, which compares an engine with its oracle, calls the engines.
"""

from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction

from .errors import OutOfDomainError
from .formulas import (
    And,
    Atom,
    Beta,
    Formula,
    Not,
    Until,
    alphabet,
    f_true,
)
from .interval_based import sat_set_its, sat_set_itw
from .intervals import INF, Interval, interval, punctual, rat_str, rational
from .mixed import sat_set_mx
from .pointwise import sat_positions
from .structures import (
    CompactTimedWord,
    Lasso,
    TimedStateSequence,
    TimedWord,
    lasso,
    validate_tss,
    word,
)


# ---------------------------------------------------------------------------
# critical points

def _base_values(structure):
    if isinstance(structure, (TimedWord, CompactTimedWord)):
        return sorted(set(structure.times)), Fraction(0), structure.times[-1]
    if isinstance(structure, TimedStateSequence):
        vals = set()
        for _, iv in structure.steps:
            vals.add(iv.lo.value)
            if iv.hi.value != INF:
                vals.add(iv.hi.value)
        return sorted(vals), structure.steps[0][1].lo.value, structure.steps[-1][1].hi.value
    raise TypeError(f"no critical points for {structure!r}")


def critical_values(structure, f: Formula):
    """The depth-closed critical values (no midpoints), domain endpoints included.

    Each round shifts only the values new since the last: an older value's
    shifts are in the set already.  A bound 0 shifts nothing and is skipped.
    """
    vals, lo, hi = _base_values(structure)
    current = frontier = set(vals) | {lo, hi}
    depth, bounds = {}, set()  # each node's temporal depth; the window bounds
    for node in _post_order(f):
        depth[node] = (type(node) is Until) + max(map(depth.__getitem__, node.children), default=0)
        if type(node) is Until:
            bounds.update((node.window.lo.value, node.window.hi.value))
    bounds -= {0, INF}
    for _ in range(depth[f]):
        frontier = ({c for c in (t + b for t in frontier for b in bounds) if c <= hi}
                    | {c for c in (t - b for t in frontier for b in bounds) if c >= lo}) - current
        if not frontier:
            break
        current = current | frontier
    return sorted(current)


def critical_points(structure, f: Formula):
    """Critical values plus the midpoint of every neighbouring pair, sorted."""
    return [p.rep for p in _pieces(critical_values(structure, f))]


# ---------------------------------------------------------------------------
# pieces: points and open intervals between consecutive critical values

class _Piece:
    __slots__ = ("lo", "hi", "is_point", "j", "rep")

    def __init__(self, lo, hi, is_point, j=0):
        self.lo = lo
        self.hi = hi
        self.is_point = is_point
        self.j = j  # the position within a block (mixed pieces only)
        self.rep = lo if is_point else (lo + hi) / 2


def _pieces(values) -> list:
    out = [_Piece(values[0], values[0], True)]
    for a, b in zip(values, values[1:]):
        out += (_Piece(a, b, False), _Piece(b, b, True))
    return out


def _truth_at(pieces, truth, t, j=0):
    """The truth at (t, j) in a piece table: at the point piece (t, j), else
    (j = 0 only) in the open piece around t.  One scan: each oracle_eval_*
    reads one point, and `differential` reads the table in piece order."""
    for p, v in zip(pieces, truth):
        if p.j == j and (p.lo == t if p.is_point else p.lo < t < p.hi):
            return v
    raise OutOfDomainError(f"({t}, {j}) is not on the piece grid")


def _post_order(f: Formula) -> list:
    """Every distinct subformula of `f` once, after its operands, found on an
    explicit stack: nesting depth costs no Python recursion, and a shared
    subformula is visited once."""
    order, seen, stack = [], set(), [(f, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif node not in seen:
            seen.add(node)
            stack.append((node, True))
            match node:
                case Not(arg):
                    stack.append((arg, False))
                case And(l, r) | Until(l, _, r):
                    stack += ((r, False), (l, False))
    return order


def _piece_truth(pieces, holds, f: Formula, beta: bool = False):
    """Bottom-up truth arrays over pieces; Until scans pieces with exact windows.

    `holds[i]` holds the atoms true on piece i.  `beta` admits the
    position-zero atom, which holds at every piece with j = 0.
    """
    n = len(pieces)

    def _until(w, lv, rv):
        """Per base: a later t' with t' - base in w where r holds, and l on
        (base, t')?  The scan starts at an open base's own piece, which l must
        cross.  A point piece, at or after the base, is tested against the
        window's absolute ends with their flags; an open piece (a, b) meets
        the window past the base iff a < hi and lo < b, when w holds a time
        past 0."""
        lo_w, hi_w, bounded = w.lo.value, w.hi.value, w.hi.value != INF
        opens = hi_w > 0

        def hits(p, lo, hi):
            if not p.is_point:
                return opens and lo < p.hi and (not bounded or p.lo < hi)
            return ((lo < p.lo or w.lo.closed and lo == p.lo)
                    and (not bounded or p.lo < hi or w.hi.closed and p.lo == hi))

        def at(i):
            base = pieces[i].rep
            lo, hi = base + lo_w, (base + hi_w if bounded else None)
            for ip in range(i + pieces[i].is_point, n):
                p = pieces[ip]
                if rv[ip] and (p.is_point or lv[ip]) and hits(p, lo, hi):
                    return True
                if not lv[ip] or bounded and p.lo > hi:
                    return False
            return False

        return [at(i) for i in range(n)]

    sat = {}
    for node in _post_order(f):
        match node:
            case Atom(name):
                sat[node] = [name in h for h in holds]
            case Beta() if beta:
                sat[node] = [p.j == 0 for p in pieces]
            case Not(arg):
                sat[node] = [not v for v in sat[arg]]
            case And(l, r):
                sat[node] = [a and b for a, b in zip(sat[l], sat[r])]
            case Until(l, w, r):
                sat[node] = _until(w, sat[l], sat[r])
            case _:
                raise TypeError(f"not a formula: {node!r}")
    return sat[f]


# ---------------------------------------------------------------------------
# oracles

def _itw_oracle(rho: TimedWord, f: Formula, pieces):
    stamp_acts = {}
    for a, ts in rho.events:
        stamp_acts.setdefault(ts, set()).add(a)
    holds = [stamp_acts.get(p.lo, ()) if p.is_point else () for p in pieces]
    return _piece_truth(pieces, holds, f)


def _its_oracle(kappa: TimedStateSequence, f: Formula, pieces):
    """Each piece's step found in one walk: pieces and steps are in time order,
    and every step's ends are critical values, so every step holds a piece and
    the walk moves at most one step per piece.  A piece that no step covers
    (the start of a left-open first step) holds no atoms."""
    def covers(iv, t):  # the step's end values and flags against t
        lo, hi = iv.lo, iv.hi
        return ((lo.value < t or lo.closed and lo.value == t)
                and (t < hi.value or hi.closed and t == hi.value))

    steps, k, holds = kappa.steps, 0, []
    for p in pieces:
        if k + 1 < len(steps) and covers(steps[k + 1][1], p.rep):
            k += 1
        holds.append(steps[k][0] if covers(steps[k][1], p.rep) else frozenset())
    return _piece_truth(pieces, holds, f)


def oracle_eval_itw(rho: TimedWord, t, f: Formula) -> bool:
    t = t if isinstance(t, Fraction) else rational(t)
    if t < 0 or t > rho.times[-1]:
        raise OutOfDomainError(f"time {t} outside [0, {rho.times[-1]}]")
    pieces = _pieces(critical_values(rho, f))
    return _truth_at(pieces, _itw_oracle(rho, f, pieces), t)


def oracle_eval_its(kappa: TimedStateSequence, t, f: Formula) -> bool:
    t = t if isinstance(t, Fraction) else rational(t)
    if t < kappa.steps[0][1].lo.value or t > kappa.steps[-1][1].hi.value:
        raise OutOfDomainError(f"time {t} outside the covered span")
    pieces = _pieces(critical_values(kappa, f))
    return _truth_at(pieces, _its_oracle(kappa, f, pieces), t)


def _pw_oracle(rho: TimedWord, f: Formula):
    """One point piece per event, in word order: a later position is a later piece."""
    return _piece_truth([_Piece(t, t, True) for t in rho.times],
                        [(a,) for a in rho.actions], f)


def oracle_eval_pw(rho: TimedWord, i: int, f: Formula) -> bool:
    if not (0 <= i < len(rho)):
        raise IndexError(f"position {i} out of range")
    return _pw_oracle(rho, f)[i]


def _mx_oracle(cw: CompactTimedWord, f: Formula, dense):
    """The `dense` pieces from the first block on, one point per block position."""
    blocks = {t: acts for acts, t in cw.blocks}
    pieces, holds = [], []
    for p in dense:
        if p.is_point and p.lo in blocks:
            for j, act in enumerate(blocks[p.lo]):
                pieces.append(_Piece(p.lo, p.lo, True, j))
                holds.append((act,))
        elif p.lo >= cw.times[0]:
            pieces.append(p)
            holds.append(())
    return pieces, _piece_truth(pieces, holds, f, beta=True)


def oracle_eval_mx(cw: CompactTimedWord, t, j: int, f: Formula) -> bool:
    t = t if isinstance(t, Fraction) else rational(t)
    times = cw.times
    if t < times[0] or t > times[-1]:
        raise OutOfDomainError(f"time {t} outside [{times[0]}, {times[-1]}]")
    size = next((len(acts) for acts, s in cw.blocks if s == t), 1)
    if not 0 <= j < size:
        raise IndexError(f"position {j} out of range at time {t}")
    return _truth_at(*_mx_oracle(cw, f, _pieces(critical_values(cw, f))), t, j)


# ---------------------------------------------------------------------------
# differential check

def differential(engine: str, structure, f: Formula):
    """The first sample where an engine disagrees with its oracle, or None.

    `engine` is pw, itw, its or mx; `structure` is the timed word, state
    sequence or compact word it reads.  The samples are every position (pw),
    every piece (itw, its), or every grid position and then every piece off
    the block times (mx), each at its representative and read off the oracle
    table in piece order.
    A divergence is {"at": sample, "engine": verdict, "oracle": verdict}.
    """
    if engine == "pw":
        got = sat_positions(structure, f)
        checks = ((i, i in got, v) for i, v in enumerate(_pw_oracle(structure, f)))
    elif engine in ("itw", "its"):
        sat_set, oracle = ((sat_set_itw, _itw_oracle) if engine == "itw"
                           else (sat_set_its, _its_oracle))
        pieces = _pieces(critical_values(structure, f))
        got, truth = sat_set(structure, f), oracle(structure, f, pieces)
        checks = ((rat_str(p.rep), got.member(p.rep), v) for p, v in zip(pieces, truth))
    else:
        got = sat_set_mx(structure, f)
        table = list(zip(*_mx_oracle(structure, f, _pieces(critical_values(structure, f)))))
        block = {t: k for k, (_, t) in enumerate(structure.blocks)}
        grid = (([rat_str(p.lo), p.j], (block[p.lo], p.j) in got.points, v)
                for p, v in table if p.rep in block)
        gaps = (([rat_str(p.rep), 0], got.gap.member(p.rep), v)
                for p, v in table if p.rep not in block)
        checks = itertools.chain(grid, gaps)
    for at, mine, want in checks:
        if mine != want:
            return {"at": at, "engine": mine, "oracle": want}
    return None


# ---------------------------------------------------------------------------
# deterministic fuzz generators: the fuzz corpus and criterion 8 are their
# draws per seed, pinned by digest in the tests

_ACTIONS = ("a", "b", "c")  # the actions of gen_word and gen_lasso
_KA_PROPS = ("a", "b", "c", "d")
_KA_MAX_BLOCKS = 5
_STEP_POOL = [Fraction(0), Fraction(0), Fraction(1, 2), Fraction(1), Fraction(1),
              Fraction(3, 2), Fraction(2)]


def gen_word(seed: int, max_len: int = 8, stutter_free: bool = False) -> TimedWord:
    rng = random.Random(seed)
    n = rng.randint(1, max_len)
    events = []
    t = Fraction(0)
    for _ in range(n):
        step = rng.choice(_STEP_POOL)
        if events:
            t = t + step
        if stutter_free:
            used = {a for a, ts in events if ts == t}
            free = [a for a in _ACTIONS if a not in used]
            if not free:
                t = t + rng.choice([s for s in _STEP_POOL if s > 0])
                free = list(_ACTIONS)
            events.append((rng.choice(free), t))
        else:
            events.append((rng.choice(_ACTIONS), t))
    return word(events)


_LO_POOL = [Fraction(0), Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)]
_SPAN_POOL = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), INF]
# each window a draw can name, built and validated once: at most 5 x 5 x 2 x 2
_window = functools.cache(lambda lo, span, lo_closed, hi_closed: interval(
    lo, INF if span is INF else lo + span, lo_closed, hi_closed))


def _gen_window(rng) -> Interval:
    lo, span = rng.choice(_LO_POOL), rng.choice(_SPAN_POOL)
    if span is INF:
        return _window(lo, span, rng.random() < 0.5, False)
    if not span:
        return _window(lo, span, True, True)
    return _window(lo, span, rng.random() < 0.5, rng.random() < 0.5)


def gen_formula(seed: int, sigma, max_depth: int = 4,
                bounded_only: bool = False, allow_beta: bool = False) -> Formula:
    sigma = alphabet(sigma)
    rng = random.Random(seed)
    true = f_true(sigma)

    def build(depth) -> Formula:
        if depth >= max_depth or rng.random() < 0.3:
            if allow_beta and rng.random() < 0.15:
                return Beta()
            return Atom(rng.choice(sigma.symbols))
        roll = rng.random()
        if roll < 0.25:
            return Not(build(depth + 1))
        if roll < 0.5:
            return And(build(depth + 1), build(depth + 1))
        w = _gen_window(rng)
        while bounded_only and w.hi.value == INF:
            w = _gen_window(rng)
        left = build(depth + 1)
        if rng.random() < 0.5:
            left = true  # plain eventually, the common shape
        return Until(left, w, build(depth + 1))

    return build(0)


def gen_ka(seed: int) -> TimedStateSequence:
    """A random action-based timed state sequence (alternating punctual/open steps)."""
    rng = random.Random(seed)
    t = Fraction(0)
    steps = []
    for i in range(rng.randint(1, _KA_MAX_BLOCKS)):
        if i > 0:
            nxt = t + rng.choice([Fraction(1, 2), Fraction(1), Fraction(2)])
            steps.append((frozenset(), interval(t, nxt, False, False)))
            t = nxt
        props = frozenset(rng.sample(_KA_PROPS, rng.randint(1, 3)))
        steps.append((props, punctual(t)))
    return validate_tss(steps)


def gen_lasso(seed: int, max_prefix: int = 5) -> Lasso:
    rng = random.Random(seed)
    prefix = gen_word(seed * 31 + 7, max_len=max_prefix)
    dur = rng.choice([Fraction(1), Fraction(3, 2), Fraction(2)])
    n = rng.randint(1, 3)
    offsets = sorted(
        rng.choice([o for o in (Fraction(0), Fraction(1, 2), Fraction(1), dur)
                    if o <= dur])
        for _ in range(n))
    acts = [rng.choice(_ACTIONS) for _ in range(n)]
    return lasso(prefix, acts, offsets, dur)
