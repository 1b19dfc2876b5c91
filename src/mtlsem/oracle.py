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

The mixed oracle reads the same pieces from the first block on, with one
point per block position (its offset j) in place of each block's timestamp.
One piece scan then decides every dense and mixed Until; a later position of
the base's own block lies at distance 0 from it.

Piecewise constancy itself is checked empirically by double sampling in the
test suite, not assumed silently.

A table costs one frontier closure for the critical values (each round
shifts only the values the last one added), one step lookup per piece (its:
one walk, pieces and steps both in time order), per Until and base the
window's absolute ends once, then the scan: still the literal quantifier
over later pieces, on `Fraction`s.  `differential` reads a table in piece
order; a single lookup (oracle_eval_*) is one scan over the pieces.

The oracles keep two traversals of their own, one over positions (pw),
evaluated on demand, and one over pieces (itw, its, mx).  Both run on the
oracle's own explicit stack (`_demand`), not on the engines' `formulas.fold`,
so a fault there cannot hide in both, and they compute on `Fraction`s, not on
the engines' integer time base.  Only `differential`, which compares an engine
with its oracle, calls the engines.
"""

from __future__ import annotations

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
    finite_window_bounds,
    temporal_depth,
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
    bounds = [b for b in finite_window_bounds(f) if b]
    for _ in range(temporal_depth(f)):
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


def _demand(clauses, root, memo: dict):
    """The value of query `root`, evaluated on an explicit stack.

    `clauses(query)` is a generator: it yields each sub-query whose value it
    needs, receives that value, and returns its own.  Sub-queries are asked
    only when needed, every value is kept in `memo`, and nesting depth costs
    no Python recursion.
    """
    if root in memo:
        return memo[root]
    stack = [(root, clauses(root))]
    value = None
    while stack:
        query, steps = stack[-1]
        try:
            sub = steps.send(value)
        except StopIteration as done:
            memo[query] = value = done.value
            stack.pop()
            continue
        if sub in memo:
            value = memo[sub]
        else:
            stack.append((sub, clauses(sub)))
            value = None
    return memo[root]


def _piece_truth(pieces, holds, f: Formula, beta: bool = False):
    """Bottom-up truth arrays over pieces; Until scans pieces with exact windows.

    `holds[i]` holds the atoms true on piece i.  `beta` admits the
    position-zero atom, which holds at every piece with j = 0.
    """
    n = len(pieces)

    def sat(node):
        match node:
            case Atom(name):
                return [name in h for h in holds]
            case Beta() if beta:
                return [p.j == 0 for p in pieces]
            case Not(arg):
                return [not v for v in (yield arg)]
            case And(l, r):
                lv, rv = (yield l), (yield r)
                return [a and b for a, b in zip(lv, rv)]
            case Until(l, w, r):
                lv, rv = (yield l), (yield r)
                return _until(w, lv, rv)
            case _:
                raise TypeError(f"not a formula: {node!r}")

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

    return _demand(sat, f, {})


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
    steps, k, holds = kappa.steps, 0, []
    for p in pieces:
        if k + 1 < len(steps) and steps[k + 1][1].contains(p.rep):
            k += 1
        holds.append(steps[k][0] if steps[k][1].contains(p.rep) else frozenset())
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
    """Literal quantifier evaluation over positions, on demand and memoized per word."""
    times, acts = rho.times, rho.actions

    def ev(query):
        node, k = query
        match node:
            case Atom(name):
                return acts[k] == name
            case Not(arg):
                return not (yield arg, k)
            case And(l, r):
                return (yield l, k) and (yield r, k)
            case Until(l, w, r):
                end = times[k] + w.hi.value if w.hi.value != INF else None
                for j in range(k + 1, len(times)):
                    if end is not None and times[j] > end:
                        break  # past the window: no later witness
                    if not (w.contains(times[j] - times[k]) and (yield r, j)):
                        continue
                    for m in range(k + 1, j):
                        if not (yield l, m):
                            break
                    else:
                        return True
                return False
            case _:
                raise TypeError(f"not a formula: {node!r}")

    memo: dict = {}
    return lambda i: _demand(ev, (f, i), memo)


def oracle_eval_pw(rho: TimedWord, i: int, f: Formula) -> bool:
    if not (0 <= i < len(rho)):
        raise IndexError(f"position {i} out of range")
    return _pw_oracle(rho, f)(i)


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
        got, truth = sat_positions(structure, f), _pw_oracle(structure, f)
        checks = ((i, i in got, truth(i)) for i in range(len(structure)))
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
# deterministic fuzz generators

_STEP_POOL = [Fraction(0), Fraction(0), Fraction(1, 2), Fraction(1), Fraction(1),
              Fraction(3, 2), Fraction(2)]


def gen_word(seed: int, max_len: int = 8, alphabet_=("a", "b", "c"),
             stutter_free: bool = False) -> TimedWord:
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
            free = [a for a in alphabet_ if a not in used]
            if not free:
                t = t + rng.choice([s for s in _STEP_POOL if s > 0])
                free = list(alphabet_)
            events.append((rng.choice(free), t))
        else:
            events.append((rng.choice(alphabet_), t))
    return word(events)


_LO_POOL = [Fraction(0), Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)]
_SPAN_POOL = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), INF]


def _gen_window(rng) -> Interval:
    lo = rng.choice(_LO_POOL)
    span = rng.choice(_SPAN_POOL)
    if span == INF:
        return interval(lo, INF, rng.random() < 0.5, False)
    hi = lo + span
    if lo == hi:
        return interval(lo, hi, True, True)
    return interval(lo, hi, rng.random() < 0.5, rng.random() < 0.5)


def gen_formula(seed: int, sigma, max_depth: int = 4,
                bounded_only: bool = False, allow_beta: bool = False) -> Formula:
    sigma = alphabet(sigma)
    rng = random.Random(seed)

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
            left = f_true(sigma)  # plain eventually, the common shape
        return Until(left, w, build(depth + 1))

    return build(0)


def gen_ka(seed: int, alphabet_=("a", "b", "c", "d"), max_blocks: int = 5) -> TimedStateSequence:
    """A random action-based timed state sequence (alternating punctual/open steps)."""
    rng = random.Random(seed)
    t = Fraction(0)
    steps = []
    for i in range(rng.randint(1, max_blocks)):
        if i > 0:
            nxt = t + rng.choice([Fraction(1, 2), Fraction(1), Fraction(2)])
            steps.append((frozenset(), interval(t, nxt, False, False)))
            t = nxt
        props = frozenset(rng.sample(alphabet_, rng.randint(1, min(3, len(alphabet_)))))
        steps.append((props, punctual(t)))
    return validate_tss(steps)


def gen_lasso(seed: int, max_prefix: int = 5, alphabet_=("a", "b", "c")) -> Lasso:
    rng = random.Random(seed)
    prefix = gen_word(seed * 31 + 7, max_len=max_prefix, alphabet_=alphabet_)
    dur = rng.choice([Fraction(1), Fraction(3, 2), Fraction(2)])
    n = rng.randint(1, 3)
    offsets = sorted(
        rng.choice([o for o in (Fraction(0), Fraction(1, 2), Fraction(1), dur)
                    if o <= dur])
        for _ in range(n))
    acts = [rng.choice(alphabet_) for _ in range(n)]
    return lasso(prefix, acts, offsets, dur)
