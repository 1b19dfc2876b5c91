"""Independent brute-force evaluators and fuzz generators.

The dense oracles know nothing of the engines' interval algebra.  They slice
the time axis into pieces at critical points (timestamps, or state-sequence
endpoints, shifted by signed sums of window bounds up to the temporal nesting
depth), on which every subformula is piecewise constant, and then decide each
quantifier by scanning pieces: a piece is a critical point or the open interval
between two neighbours, represented by the point itself or the midpoint.  The
only arithmetic is intersecting a candidate piece with the base's shifted
window; witnesses are never sampled, so window endpoints that fall strictly
inside a piece are still found.

The mixed oracle reads the same pieces from the first block on, with one
point per block position (its offset j) in place of each block's timestamp.
One piece scan then decides every dense and mixed Until; a later position of
the base's own block lies at distance 0 from it.

Piecewise constancy itself is checked empirically by double sampling in the
test suite, not assumed silently.

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
    duration,
    lasso,
    validate_tss,
    word,
)


# ---------------------------------------------------------------------------
# critical points

def _base_values(structure):
    if isinstance(structure, TimedWord):
        return sorted(set(structure.times)), Fraction(0), duration(structure)
    if isinstance(structure, CompactTimedWord):
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
    """The depth-closed critical values (no midpoints), domain endpoints included."""
    vals, lo, hi = _base_values(structure)
    current = set(vals) | {lo, hi}
    bounds = finite_window_bounds(f)
    for _ in range(temporal_depth(f)):
        nxt = set(current)
        for t in current:
            for b in bounds:
                for cand in (t + b, t - b):
                    if lo <= cand <= hi:
                        nxt.add(cand)
        if nxt == current:
            break
        current = nxt
    return sorted(current)


def critical_points(structure, f: Formula):
    """Critical values plus the midpoint of every neighbouring pair, sorted."""
    return _with_midpoints(critical_values(structure, f))


def _with_midpoints(vals) -> list:
    out = list(vals)
    for a, b in zip(vals, vals[1:]):
        out.append((a + b) / 2)
    return sorted(out)


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

    def window_hits(self, base: Fraction, w: Interval) -> bool:
        """Does this piece, met after the base, hold a time t' with t' - base in w?

        A point met after the base lies at or after it: at it exactly for a
        later position of the base's own block, which is a hit when w holds 0.
        An open piece is intersected with the window and with (base, inf).
        """
        if self.is_point:
            return w.contains(self.lo - base)
        w_lo = base + w.lo.value
        w_hi = INF if w.hi.value == INF else base + w.hi.value
        lo_k = max((self.lo, 1), (base, 1), (w_lo, 0 if w.lo.closed else 1))
        hi_k = min((self.hi, -1), (w_hi, 0 if w.hi.closed else -1))
        return lo_k <= hi_k


def _pieces(values) -> list:
    out = []
    for i, v in enumerate(values):
        out.append(_Piece(v, v, True))
        if i + 1 < len(values):
            out.append(_Piece(v, values[i + 1], False))
    return out


def _piece_index(pieces, t, j=0) -> int:
    for i, p in enumerate(pieces):
        if p.j == j and (p.lo == t if p.is_point else p.lo < t < p.hi):
            return i
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


def _piece_truth(pieces, atom_truth, f: Formula, beta: bool = False):
    """Bottom-up truth arrays over pieces; Until scans pieces with exact windows.

    `beta` admits the position-zero atom, which holds at every piece with j = 0.
    """
    n = len(pieces)

    def sat(node):
        match node:
            case Atom(name):
                return [atom_truth(name, p) for p in pieces]
            case Beta() if beta:
                return [p.j == 0 for p in pieces]
            case Not(arg):
                return [not v for v in (yield arg)]
            case And(l, r):
                lv, rv = (yield l), (yield r)
                return [a and b for a, b in zip(lv, rv)]
            case Until(l, w, r):
                lv, rv = (yield l), (yield r)
                return [_until_at(i, w, lv, rv) for i in range(n)]
            case _:
                raise TypeError(f"not a formula: {node!r}")

    def _until_at(i, w, lv, rv):
        base = pieces[i].rep
        ok = True
        if not pieces[i].is_point:
            if lv[i] and rv[i] and pieces[i].window_hits(base, w):
                return True
            ok = lv[i]  # the rest of the base piece must be crossed
        for ip in range(i + 1, n):
            pc = pieces[ip]
            if not ok:
                return False
            if rv[ip] and (pc.is_point or lv[ip]) and pc.window_hits(base, w):
                return True
            ok = ok and lv[ip]
            if w.hi.value != INF and pc.lo > base + w.hi.value:
                return False
        return False

    return _demand(sat, f, {})


# ---------------------------------------------------------------------------
# oracles

def _dense_oracle(values, f: Formula, atom_truth):
    """Truth of f at any time on the grid of the critical `values`, from one piece table."""
    pieces = _pieces(values)
    truth = _piece_truth(pieces, atom_truth, f)
    return lambda t: truth[_piece_index(pieces, t)]


def _itw_oracle(rho: TimedWord, f: Formula, values):
    stamp_acts = {}
    for a, ts in rho.events:
        stamp_acts.setdefault(ts, set()).add(a)

    def atom_truth(name, p):
        return p.is_point and name in stamp_acts.get(p.lo, ())

    return _dense_oracle(values, f, atom_truth)


def _its_oracle(kappa: TimedStateSequence, f: Formula, values):
    def atom_truth(name, p):
        for props, iv in kappa.steps:
            if iv.contains(p.rep):
                return name in props
        return False

    return _dense_oracle(values, f, atom_truth)


def oracle_eval_itw(rho: TimedWord, t, f: Formula) -> bool:
    t = t if isinstance(t, Fraction) else rational(t)
    if t < 0 or t > duration(rho):
        raise OutOfDomainError(f"time {t} outside [0, {duration(rho)}]")
    return _itw_oracle(rho, f, critical_values(rho, f))(t)


def oracle_eval_its(kappa: TimedStateSequence, t, f: Formula) -> bool:
    t = t if isinstance(t, Fraction) else rational(t)
    if t < kappa.steps[0][1].lo.value or t > kappa.steps[-1][1].hi.value:
        raise OutOfDomainError("time outside the covered span")
    return _its_oracle(kappa, f, critical_values(kappa, f))(t)


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
                for j in range(k + 1, len(times)):
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


def _mx_oracle(cw: CompactTimedWord, f: Formula, values):
    """The dense pieces from the first block on, one point per block position."""
    blocks = {t: acts for acts, t in cw.blocks}
    pieces = []
    for p in _pieces(values):
        if p.is_point and p.lo in blocks:
            pieces.extend(_Piece(p.lo, p.lo, True, j) for j in range(len(blocks[p.lo])))
        elif p.lo >= cw.times[0]:
            pieces.append(p)

    def atom_truth(name, p):
        return p.is_point and p.lo in blocks and blocks[p.lo][p.j] == name

    truth = _piece_truth(pieces, atom_truth, f, beta=True)
    return lambda t, j: truth[_piece_index(pieces, t, j)]


def oracle_eval_mx(cw: CompactTimedWord, t, j: int, f: Formula) -> bool:
    t = t if isinstance(t, Fraction) else rational(t)
    return _mx_oracle(cw, f, critical_values(cw, f))(t, j)


# ---------------------------------------------------------------------------
# differential check

def differential(engine: str, structure, f: Formula):
    """The first sample where an engine disagrees with its oracle, or None.

    `engine` is pw, itw, its or mx; `structure` is the timed word, state
    sequence or compact word it reads.  The samples are every position (pw),
    every critical point (itw, its), or every grid position and every critical
    point off the block times (mx).  The critical values are computed once,
    for the oracle table and the samples, and each oracle table is built once.
    A divergence is {"at": sample, "engine": verdict, "oracle": verdict}.
    """
    if engine == "pw":
        got, truth = sat_positions(structure, f), _pw_oracle(structure, f)
        checks = ((i, i in got, truth(i)) for i in range(len(structure)))
    elif engine in ("itw", "its"):
        sat_set, oracle = ((sat_set_itw, _itw_oracle) if engine == "itw"
                           else (sat_set_its, _its_oracle))
        vals = critical_values(structure, f)
        got, truth = sat_set(structure, f), oracle(structure, f, vals)
        checks = ((rat_str(t), got.member(t), truth(t)) for t in _with_midpoints(vals))
    else:
        vals = critical_values(structure, f)
        got, truth = sat_set_mx(structure, f), _mx_oracle(structure, f, vals)
        stamps = set(structure.times)
        grid = (([rat_str(t), j], (k, j) in got.points, truth(t, j))
                for k, (acts, t) in enumerate(structure.blocks) for j in range(len(acts)))
        gaps = (([rat_str(t), 0], got.gap.member(t), truth(t, 0))
                for t in _with_midpoints(vals) if t not in stamps)
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
