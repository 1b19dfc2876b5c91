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

A table lives on one number type: ints at the oracle's scale, twice the lcm
of the denominators of the base values and the window bounds, where every
critical value, window end and midpoint is an int.  A piece is (lo, hi, j),
a point when lo == hi, with (lo + hi) // 2 its point or exact midpoint.
`Fraction` appears only at the edges: the values `critical_values` and
`critical_points` return, the oracle_eval_* domain checks and lookups, and
`differential`'s engine queries and divergence labels.

A table costs one walk of the formula, one frontier closure for the critical
values (each round shifts only the values the last one added), one step lookup
per piece (its: one walk, pieces and steps both in time order), per Until and
base the window's absolute ends once, then the scan: still the literal
quantifier over later pieces.  `differential` labels only the divergence it
reports; a single lookup (oracle_eval_*) builds the table and reads one entry.

The tables, the critical values and the scale are read off the oracle's own
post-order of the formula (`_post_order`, an explicit stack), not the engines'
`fold` or `subformulas`, and the base values' `Fraction`s, not the engines'
integer time base or key helpers: no fault there can hide in both.  Only
`differential`, which compares an engine with its oracle, calls the engines.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction

from .errors import OutOfDomainError, PositionError
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
        return set(structure.times), Fraction(0), structure.times[-1]
    if isinstance(structure, TimedStateSequence):
        steps = [iv for _, iv in structure.steps]
        vals = {b.value for iv in steps for b in (iv.lo, iv.hi)} - {INF}
        return vals, steps[0].lo.value, steps[-1].hi.value
    raise TypeError(f"no critical points for {structure!r}")


def _walk(f: Formula, values):
    """A table's one walk of `f`: its post-order, temporal depth and finite
    nonzero window bounds, and the scale, twice the lcm of the denominators of
    `values` and the bounds: times it, every critical value, window end and
    midpoint is an int."""
    order, depth, bounds = _post_order(f), {}, set()
    for node in order:
        depth[node] = (type(node) is Until) + max(map(depth.__getitem__, node.children), default=0)
        if type(node) is Until:
            bounds.update((node.window.lo.value, node.window.hi.value))
    bounds -= {0, INF}
    return order, depth[f], bounds, 2 * math.lcm(*{v.denominator for v in (*values, *bounds)})


def _scaled(v: Fraction, scale: int) -> int:
    return v.numerator * (scale // v.denominator)


def _critical(structure, f: Formula):
    """The post-order of `f`, the scale and the depth-closed critical values
    times the scale, sorted ints.  Each closure round shifts only the new values."""
    vals, lo, hi = _base_values(structure)
    order, depth, bounds, scale = _walk(f, vals)
    lo, hi, shifts = _scaled(lo, scale), _scaled(hi, scale), [_scaled(b, scale) for b in bounds]
    current = frontier = {_scaled(v, scale) for v in vals} | {lo, hi}
    for _ in range(depth):
        frontier = {c for t in frontier for b in shifts for c in (t + b, t - b)
                    if lo <= c <= hi} - current
        current |= frontier
    return order, scale, sorted(current)


def critical_values(structure, f: Formula):
    """The depth-closed critical values (no midpoints), domain endpoints included."""
    _, scale, values = _critical(structure, f)
    return [Fraction(c, scale) for c in values]


def critical_points(structure, f: Formula):
    """Critical values plus the midpoint of every neighbouring pair, sorted."""
    _, scale, values = _critical(structure, f)
    return [Fraction((lo + hi) // 2, scale) for lo, hi, _ in _pieces(values)]


# ---------------------------------------------------------------------------
# pieces: (lo, hi, j) on the scale, a point (lo == hi) or the open interval
# between consecutive critical values; j is the position within a block (mixed
# pieces only)

def _pieces(values) -> list:
    out = [(values[0], values[0], 0)]
    for a, b in zip(values, values[1:]):
        out += ((a, b, 0), (b, b, 0))
    return out


def _truth_at(pieces, truth, scale, t, j=0):
    """The truth at (t, j) in a piece table: at the point piece (t, j), else
    (j = 0 only) in the open piece around t.  One scan: each oracle_eval_*
    reads one point, and `differential` reads the table in piece order."""
    x = t * scale
    for (lo, hi, pj), v in zip(pieces, truth):
        if pj == j and (lo == x if lo == hi else lo < x < hi):
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


def _piece_truth(pieces, holds, order, scale, beta: bool = False):
    """Bottom-up truth arrays over pieces; Until scans them on ints at the scale.

    `holds[i]` holds the atoms true on piece i.  `beta` admits the
    position-zero atom, which holds at every piece with j = 0.
    """
    def _until(w, lv, rv):
        """Per base: a later t' with t' - base in w where r holds, and l on
        (base, t')?  The scan starts at an open base's own piece, which l must
        cross.  A point piece, at or after the base, lies within the window's
        absolute ends, an open end moved one inward (on ints, lo < x iff
        lo + 1 <= x); an open piece (a, b) meets the window past the base iff
        a < hi and lo < b, when w holds a time past 0."""
        lo_w, bounded = _scaled(w.lo.value, scale), w.hi.value != INF
        hi_w = _scaled(w.hi.value, scale) if bounded else INF
        lo_open, hi_open, opens = not w.lo.closed, not w.hi.closed, hi_w > 0

        def at(i):
            a, b, _ = pieces[i]
            base = (a + b) // 2  # exact: the scale is even
            lo, hi = base + lo_w, (base + hi_w if bounded else INF)
            first, last = lo + lo_open, hi - hi_open
            for ip in range(i + (a == b), len(pieces)):
                x, y, _ = pieces[ip]
                if rv[ip] and (first <= x <= last if x == y
                               else lv[ip] and opens and lo < y and x < hi):
                    return True
                if not lv[ip] or x > hi:
                    return False
            return False

        return [at(i) for i in range(len(pieces))]

    sat = {}
    for node in order:
        match node:
            case Atom(name):
                sat[node] = [name in h for h in holds]
            case Beta() if beta:
                sat[node] = [j == 0 for _, _, j in pieces]
            case Not(arg):
                sat[node] = [not v for v in sat[arg]]
            case And(l, r):
                sat[node] = [a and b for a, b in zip(sat[l], sat[r])]
            case Until(l, w, r):
                sat[node] = _until(w, sat[l], sat[r])
            case _:
                raise TypeError(f"not a formula: {node!r}")
    return sat[order[-1]]


# ---------------------------------------------------------------------------
# oracles: each table is (pieces, truth, scale)

def _itw_oracle(rho: TimedWord, f: Formula):
    order, scale, values = _critical(rho, f)
    pieces, stamp_acts = _pieces(values), {}
    for a, ts in rho.events:
        stamp_acts.setdefault(_scaled(ts, scale), set()).add(a)
    holds = [stamp_acts.get(lo, ()) if lo == hi else () for lo, hi, _ in pieces]
    return pieces, _piece_truth(pieces, holds, order, scale), scale


def _its_oracle(kappa: TimedStateSequence, f: Formula):
    """Each piece's step found in one walk: pieces and steps are in time order,
    and every step's ends are critical values, so every step holds a piece and
    the walk moves at most one step per piece.  A step holds the midpoints
    between its ends on the scale, an open end moved one inward; a piece that
    no step holds (the start of a left-open first step) holds no atoms."""
    order, scale, values = _critical(kappa, f)
    steps = [(props, _scaled(iv.lo.value, scale) + (not iv.lo.closed),
              _scaled(iv.hi.value, scale) - (not iv.hi.closed)) for props, iv in kappa.steps]
    pieces, k, holds = _pieces(values), 0, []
    for lo, hi, _ in pieces:
        m = (lo + hi) // 2
        if k + 1 < len(steps) and steps[k + 1][1] <= m <= steps[k + 1][2]:
            k += 1
        props, first, last = steps[k]
        holds.append(props if first <= m <= last else frozenset())
    return pieces, _piece_truth(pieces, holds, order, scale), scale


def oracle_eval_itw(rho: TimedWord, t, f: Formula) -> bool:
    t = t if isinstance(t, Fraction) else rational(t)
    if t < 0 or t > rho.times[-1]:
        raise OutOfDomainError(f"time {t} outside [0, {rho.times[-1]}]")
    return _truth_at(*_itw_oracle(rho, f), t)


def oracle_eval_its(kappa: TimedStateSequence, t, f: Formula) -> bool:
    t = t if isinstance(t, Fraction) else rational(t)
    if t < kappa.steps[0][1].lo.value or t > kappa.steps[-1][1].hi.value:
        raise OutOfDomainError(f"time {t} outside the covered span")
    return _truth_at(*_its_oracle(kappa, f), t)


def _pw_oracle(rho: TimedWord, f: Formula):
    """One point piece per event, in word order: a later position is a later piece."""
    order, *_, scale = _walk(f, rho.times)
    return _piece_truth([(s, s, 0) for s in (_scaled(t, scale) for t in rho.times)],
                        [(a,) for a in rho.actions], order, scale)


def oracle_eval_pw(rho: TimedWord, i: int, f: Formula) -> bool:
    if not (0 <= i < len(rho)):
        raise PositionError(f"position {i} out of range")
    return _pw_oracle(rho, f)[i]


def _mx_oracle(cw: CompactTimedWord, f: Formula):
    """The dense pieces from the first block on, one point per block position."""
    order, scale, values = _critical(cw, f)
    blocks = {_scaled(t, scale): acts for acts, t in cw.blocks}
    start, pieces, holds = _scaled(cw.times[0], scale), [], []
    for lo, hi, _ in _pieces(values):
        if lo == hi and lo in blocks:
            for j, act in enumerate(blocks[lo]):
                pieces.append((lo, lo, j))
                holds.append((act,))
        elif lo >= start:
            pieces.append((lo, hi, 0))
            holds.append(())
    return pieces, _piece_truth(pieces, holds, order, scale, beta=True), scale


def oracle_eval_mx(cw: CompactTimedWord, t, j: int, f: Formula) -> bool:
    t = t if isinstance(t, Fraction) else rational(t)
    times = cw.times
    if t < times[0] or t > times[-1]:
        raise OutOfDomainError(f"time {t} outside [{times[0]}, {times[-1]}]")
    size = next((len(acts) for acts, s in cw.blocks if s == t), 1)
    if not 0 <= j < size:
        raise PositionError(f"position {j} out of range at time {t}")
    return _truth_at(*_mx_oracle(cw, f), t, j)


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
        label = int  # a position is its own label
    else:
        sat_set, oracle = {"itw": (sat_set_itw, _itw_oracle), "its": (sat_set_its, _its_oracle),
                           "mx": (sat_set_mx, _mx_oracle)}[engine]
        got, (pieces, truth, scale) = sat_set(structure, f), oracle(structure, f)
        at = lambda m: Fraction(m, scale)  # a representative's time, queried and labelled
        # each piece's representative on the scale, its position and its truth
        table = [((lo + hi) // 2, j, v) for (lo, hi, j), v in zip(pieces, truth)]
        if engine == "mx":
            block = {_scaled(t, scale): k for k, (_, t) in enumerate(structure.blocks)}
            grid = (((m, j), (block[m], j) in got.points, v) for m, j, v in table if m in block)
            gaps = (((m, j), got.gap.member(at(m)), v) for m, j, v in table if m not in block)
            checks = itertools.chain(grid, gaps)
            label = lambda s: [rat_str(at(s[0])), s[1]]
        else:
            checks = ((m, got.member(at(m)), v) for m, _, v in table)
            label = lambda m: rat_str(at(m))
    for sample, mine, want in checks:
        if mine != want:  # only the divergence is labelled
            return {"at": label(sample), "engine": mine, "oracle": want}
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
