"""What the tests compare against: every frozen copy of replaced code, each with
what it pins and the change it guards (`git log -S <name>` finds it), and every
corpus or constant that more than one test reads, each corpus built once per
session.  Test modules import from here and from no other file in `tests/`.
Not `references.py`: `bench/workloads.py` imports a `references` of its own,
which that name here would shadow in a session that collects both directories."""

import functools
import math
import random
from bisect import bisect_left, bisect_right
from fractions import Fraction

from mtlsem.encodings import word_to_tss
from mtlsem.errors import (AdjacencyError, EmptyWordError, FirstTimestampError, MtlsemError,
                           OutOfDomainError)
from mtlsem.formulas import (FULL, And, Atom, Beta, Not, Until, alphabet, atoms, f_globally, f_or,
                             fold, parse, subformulas)
from mtlsem.gallery import ABC, WORD_SWAP_AB, WORD_SWAP_BA, no_simultaneous
from mtlsem.intervals import (_INTERVAL, INF, Bound, Interval, IntervalSet, _pair, _until_bases,
                              difference_keys, interval, intersect_keys,
                              key_column, merge_keys, normalize_keys, punctual, scaled_keys,
                              time_base)
from mtlsem.mixed import MixedSet, _mx_table
from mtlsem.oracle import gen_formula, gen_ka, gen_word
from mtlsem.structures import (CompactTimedWord, TimedWord, mfs_decompose, validate_tss,
                               validate_word, word)

# the swap pair, (b, a) and (a, b) at time 1, and the state sequence of both
RHO1, RHO2 = WORD_SWAP_BA, WORD_SWAP_AB
KAPPA1 = validate_tss([[["a"], "[0,0]"], [[], "(0,1)"], [["a", "b"], "[1,1]"], [[], "(1,3.3)"],
                       [["c"], "[3.3,3.3]"]])

# ---------------------------------------------------------------------------
# seeded corpora, each built once per session

@functools.cache
def seeded_pairs(count, mul=1, add=0, max_len=8, **options):
    """Per seed below count: gen_word(seed, max_len), gen_formula(seed * mul + add, ABC, ...)."""
    return tuple((gen_word(seed, max_len=max_len), gen_formula(seed * mul + add, ABC, **options))
                 for seed in range(count))


@functools.cache
def corpus():
    """gen_word seeds 0-499 and one 300-event word with runs and gaps."""
    rng = random.Random(26)
    t = Fraction(0)
    events = []
    for _ in range(300):
        events.append((rng.choice("abc"), t))
        t += rng.choice([Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2)])
    return (*[gen_word(seed) for seed in range(500)], word(events))


SCALES = (Fraction(1), Fraction(1, 3), Fraction(7, 10), Fraction(5, 6), Fraction(11, 4))


@functools.cache
def scaled_words():
    """(seed, gen_word(seed) with its stamps scaled by SCALES[seed % 5]) for seeds 0-499."""
    words = [gen_word(seed) for seed in range(500)]
    return tuple((seed, validate_word([(a, t * SCALES[seed % len(SCALES)]) for a, t in w.events]))
                 for seed, w in enumerate(words))


def _moved(kappa, scale, shift):
    """kappa with every endpoint v moved to v * scale + shift."""
    return validate_tss([(props, interval(iv.lo.value * scale + shift,
                                          iv.hi.value * scale + shift,
                                          iv.lo.closed, iv.hi.closed))
                         for props, iv in kappa.steps], allow_nonzero_start=True)


@functools.cache
def tss_corpus():
    """gen_ka seeds, word_to_tss images, both moved to nonzero starts and bases above 2^64."""
    kappas = [gen_ka(seed) for seed in range(150)]
    kappas += [word_to_tss(gen_word(seed)) for seed in range(150)]
    kappas += [word_to_tss(RHO1)]
    big = 2**64 + 13
    return (*kappas, *[_moved(k, Fraction(s, d), Fraction(o, d))
                       for i, k in enumerate(kappas[::5])
                       for s, d, o in [(1, 3, 2), (7, big, 1), (big, 1, i)]])


# ---------------------------------------------------------------------------
# wide alphabets, deep nesting and long chains

WIDE = alphabet([f"s{i}" for i in range(200)])
S1_S2 = word([("s1", "0"), ("s2", "1/2"), ("s1", "1/2"), ("s2", "2"), ("s1", "7/2")])
S0_S1 = word([("s0", "0"), ("s1", "1"), ("s0", "1"), ("s1", "3/2"), ("s0", "4")])
NEGATIONS = "!" * 600 + "s0"

CASES = [(S1_S2, "F sigma", "F (s1 | s2)"), (S0_S1, NEGATIONS, "s0")]
LASSO_CASES = [("G F " * 50 + "s2", "G F s2", True), ("G F " * 50 + "s3", "G F s3", False),
               ("F sigma", "F (s1 | s2)", True)]


def _right_fold(join, operands):
    f = operands[-1]
    for g in reversed(operands[:-1]):
        f = join(g, f)
    return f


def _negations(n, f):
    for _ in range(n):
        f = Not(f)
    return f


def _no_simultaneous_built(sigma):
    syms = sigma.symbols
    pairs = [And(Atom(x), Atom(y)) for i, x in enumerate(syms) for y in syms[i + 1:]]
    clause = Not(_right_fold(f_or, pairs))
    return And(clause, f_globally(FULL, clause, sigma))


FIFTY = alphabet([f"s{i}" for i in range(50)])
CONJUNCTS = [f"s{i % 200}" for i in range(2000)]
CHAINS = {
    "no-simultaneous-50": (lambda: no_simultaneous(FIFTY), lambda: _no_simultaneous_built(FIFTY)),
    "and-2000": (lambda: parse(" & ".join(CONJUNCTS), WIDE),
                 lambda: _right_fold(And, [Atom(a) for a in CONJUNCTS])),
    "not-1000": (lambda: parse("!" * 1000 + "s0", WIDE),
                 lambda: _negations(1000, Atom("s0"))),
}


def mfs_runs(ends):
    """(start, end) index pairs, inclusive, one per flat run, from `mfs_decompose`'s run ends."""
    return list(zip((0, *[e + 1 for e in ends[:-1]]), ends))


# ---------------------------------------------------------------------------
# frozen copies: a window read to keys on any base, and a formula's window
# bounds, pinning `Interval.keys` and `formulas.fold_base` since each window
# converts once, on its own base, and every other base is a `scaled_keys` lift

def interval_keys(iv, D) -> tuple:
    """Pins `intervals.interval_keys`: the (lo, hi) key pair of iv on the time
    base D, read off its Bounds."""
    lo, hi = iv.lo, iv.hi
    lo_key = 3 * (lo.value.numerator * (D // lo.value.denominator)) + (not lo.closed)
    if isinstance(hi.value, float):  # inf, the one float a bound holds
        return lo_key, INF
    return lo_key, 3 * (hi.value.numerator * (D // hi.value.denominator)) - (not hi.closed)


def finite_window_bounds(f) -> tuple:
    """Pins `formulas.finite_window_bounds`: the finite endpoint values of f's
    Until windows, sorted."""
    return tuple(sorted({v for node in subformulas(f) if type(node) is Until
                         for v in (node.window.lo.value, node.window.hi.value)
                         if not isinstance(v, float)}))


# ---------------------------------------------------------------------------
# frozen copies: the dense Until and the dense fold (`intervals`, `interval_based`)

def complement_keys(domain, keys):
    """Pins `_Table.walk` since it is `difference_keys` from the domain: a walk over the gaps."""
    lo, hi = domain
    out = []
    for k_lo, k_hi in keys:
        if lo < k_lo:
            out.append((lo, k_lo - 1))
        lo = k_hi + 1
    if lo <= hi:
        out.append((lo, hi))
    return out


def back_shift_keys(lo, hi, w_lo, w_hi):
    """Pins `back_shift` since it reads `_until_bases`: one witness key pair (lo,
    hi) back-shifted through the window (w_lo, w_hi), as before `_until_bases` took it inline."""
    if w_lo == 0:  # a witness lies strictly in the future: drop 0 from the window
        if w_hi < 1:
            return None
        w_lo = 1
    if w_hi == INF:
        b_lo = 0
    else:
        b_lo = lo - w_hi  # the offsets of two ends add; two open ends make one open end
        if b_lo % 3 == 2:
            b_lo -= 1
        if b_lo < 0:
            b_lo = 0
    b_hi = hi - w_lo
    if b_hi != INF and b_hi % 3 == 1:
        b_hi += 1
    return (b_lo, b_hi) if b_lo <= b_hi else None


def _reference_until_bases(f, g, w, domain, J=1, last=None):
    """Pins `_until_bases` since it is one pass: a back_shift_keys call per
    witness, then one normalize_keys over every part's bases."""
    w_lo, w_hi = w
    d_hi = domain[1]
    J3 = 3 * J
    out = []
    j, ng = 0, len(g)
    for f_lo, f_hi in f:
        r = f_lo % J3
        if r == 0:
            floor = f_lo
        elif r == J:
            floor = f_lo - J + (last.get(f_lo // J - 1, 0) if last else 0)
        else:
            floor = f_lo - 1
        z_lo = floor - floor % J + J
        z_hi = f_hi if (f_hi + 1) % J3 == J else f_hi + 1
        if z_lo > z_hi:
            continue
        while j < ng and g[j][1] < z_lo:
            j += 1
        k = j
        while k < ng and g[k][0] <= z_hi:
            g_lo, g_hi = g[k]
            base = back_shift_keys(max(g_lo, z_lo) // J, min(g_hi, z_hi) // J, w_lo, w_hi)
            if base is not None:
                lo, hi = max(base[0] * J, floor), min(base[1] * J + J - 1, d_hi)
                if lo <= hi:
                    out.append((lo, hi))
            k += 1
    return normalize_keys(out)


def _rebased(column, values):
    """Pins `intervals.rebased`, gone since each dense builder scales its ticks as
    it walks them: a tick column (D0, ticks) on the time base D of D0 and the
    values, (D, ticks * D // D0)."""
    D0, ticks = column
    D = math.lcm(D0, time_base(values))
    return D, (ticks if D == D0 else [v * (D // D0) for v in ticks])


def _per_event_atoms(engine, model, f):
    """Pins the atom lists since the fold gets them merged: each atom's key
    pairs as one append per event, step or position, in model order."""
    parts = {}
    if engine == "its":
        D0, keys, props = model.columns
        D = math.lcm(D0, time_base(finite_window_bounds(f)))
        keys = scaled_keys(keys, D // D0) if D > D0 else keys
        for k, p in zip(keys, props):
            for name in p:
                parts.setdefault(name, []).append(k)
    elif engine == "itw":
        _, times = _rebased(model.ticks, finite_window_bounds(f))
        for a, t in zip(model.actions, times):
            parts.setdefault(a, []).append((3 * t, 3 * t))
    else:
        _, times = _rebased(model.ticks, finite_window_bounds(f))
        J = max(len(acts) for acts in model.actions)
        for v, acts in zip(times, model.actions):
            for j, a in enumerate(acts):
                last = j == len(acts) - 1
                parts.setdefault(a, []).append((3 * J * v + j, 3 * J * v + (J - 1 if last else j)))
    return {name: parts.get(name, []) for name in atoms(f)}


def _reference_same_block_bases(f, g, multi):
    """Pins `_same_block_bases` since complements are pending: its eager form."""
    inner = [(s + 1, s + n - 1) for s, n in multi]
    runs = intersect_keys(f, inner)
    out = []
    i = 0
    for lo, hi in intersect_keys(g, inner):
        while i < len(runs) and runs[i][1] < lo - 1:
            i += 1
        if i < len(runs) and runs[i][0] < lo:
            lo = runs[i][0]
        out.append((lo - 1, hi - 1))
    return out


class _EagerTable(dict):
    """The eager fold's table, on its base D."""


def _reference_sat_dense(atom_keys, domain, D, f, J=1, multi=()):
    """Pins `_sat_dense` since its complements are pending: the eager fold, where
    every `!` and `beta` walks its complement as it is met, and every And intersects."""
    last = {s // J: n - 1 for s, n in multi}
    negated = {}

    def visit(node, l=None, r=None):
        match node:
            case Atom(name):
                return atom_keys[name]
            case Beta():
                return complement_keys(domain, [(s + 1, s + J - 1) for s, _ in multi])
            case Not(arg):
                negated[node] = l
                return negated[arg] if arg in negated else complement_keys(domain, l)
            case And(x, Not(y)) if x is y:
                return []
            case And():
                return intersect_keys(l, r)
            case Until(_, w, _):
                w = interval_keys(w, D)
                bases = _until_bases(l, r, w, J, last)
                if w[0] == 0 and multi:
                    return normalize_keys(bases + _reference_same_block_bases(l, r, multi))
                return bases
    table = _EagerTable(fold(f, visit))
    table.D = D
    return table


def _parent_its_table(kappa, f):
    """Pins `_its_table` since it rescales only the atoms' lists: every step key
    rescaled first, then each atom's steps picked and merged."""
    D0, keys, props = kappa.columns
    D = math.lcm(D0, time_base(finite_window_bounds(f)))
    if D > D0:
        keys = scaled_keys(keys, D // D0)
    parts = {name: merge_keys([k for k, p in zip(keys, props) if name in p]) for name in atoms(f)}
    domain = (3 * ((keys[0][0] + 1) // 3), 3 * ((keys[-1][1] + 1) // 3))
    return _reference_sat_dense(parts, domain, D, f), D


# ---------------------------------------------------------------------------
# frozen copies: the mixed table and its reads (`mixed`)

def _members(keys, slots):
    """Whether the key list covers each slot of an ascending list, in one sweep."""
    out = []
    i, n = 0, len(keys)
    for s in slots:
        while i < n and keys[i][1] < s:
            i += 1
        out.append(i < n and keys[i][0] <= s)
    return out


def _reference_sets(cw, f):
    """Pins `MixedSet`'s reads since they skip the grid: each lex-key set through the grid,
    the points whose slot a part covers, the gap the time keys k // J less every stamp."""
    table, _ = _mx_table(cw, f)
    D, times = _rebased(cw.ticks, finite_window_bounds(f))
    sizes = [len(acts) for acts, _ in cw.blocks]
    J = max(sizes)
    grid = [(k, j) for k, n in enumerate(sizes) for j in range(n)]
    grid_slots = [3 * J * times[k] + j for k, j in grid]
    stamps = [(3 * v, 3 * v) for v in times]
    out = {}
    for node, keys in table.items():
        points = frozenset(p for p, held in zip(grid, _members(keys, grid_slots)) if held)
        gap = difference_keys(normalize_keys((lo // J, hi // J) for lo, hi in keys), stamps)
        out[node] = MixedSet(points, IntervalSet.on_base(D, gap))
    return out


def _two_pass_inputs(cw, f):
    """Pins `_mx_table` since it walks the blocks once: the fold's inputs and grid by
    a slot loop over the block sizes, then one merge pass per atom."""
    D, times = _rebased(cw.ticks, finite_window_bounds(f))
    sizes = [len(acts) for acts in cw.actions]
    J = max(sizes)
    starts = [3 * J * v for v in times]
    slots = {name: [] for name in atoms(f)}
    for s, n, acts in zip(starts, sizes, cw.actions):
        for j, a in enumerate(acts):
            if a in slots:
                slots[a].append((s + j, s + J - 1 if j == n - 1 else s + j))
    slots = {name: merge_keys(keys) for name, keys in slots.items()}
    multi = [(s, n) for s, n in zip(starts, sizes) if n > 1]
    return slots, (starts[0], starts[-1] + J - 1), D, J, multi, starts, sizes


def _two_walk_point_list(keys, grid):
    """Pins `MixedSet._read` since it is one walk: the point list as its own walk
    built it, per part the blocks from the last start <= lo to the last start <= hi."""
    _, _, starts, blocks = grid
    points = []
    for lo, hi in keys:
        points += [(k, j) for k in range(bisect_right(starts, lo) - 1, bisect_right(starts, hi))
                   for j in range(max(lo - starts[k], 0), min(hi - starts[k] + 1, len(blocks[k])))]
    return points


def _two_walk_gap(keys, grid):
    """Pins `MixedSet._read` since it is one walk: the gap as its own walk built
    it, the time keys k // J merged, less the block stamps inside each merged part."""
    D, J, starts, _ = grid
    parts = []
    for lo, hi in merge_keys((lo // J, hi // J) for lo, hi in keys):
        for k in range(bisect_left(starts, lo * J), bisect_right(starts, hi * J)):
            stamp = starts[k] // J
            if lo < stamp:
                parts.append((lo, stamp - 1))
            lo = stamp + 1
        if lo <= hi:
            parts.append((lo, hi))
    return IntervalSet.on_base(D, parts)


# ---------------------------------------------------------------------------
# frozen copies: the encodings (`encodings`)

def compact_by_runs(w):
    """Pins `compact`: compact through the maximal flat runs of the time column."""
    acts, times = w.actions, w.times
    return CompactTimedWord(tuple(
        (acts[start:end + 1], times[start]) for start, end in mfs_runs(mfs_decompose(times))))


def compact_by_run_pairs(w):
    """Pins `compact` since it cuts blocks at the run ends: compact through the
    (start, end) run pairs of the tick column, the slices, then each run's first tick."""
    D0, ticks = w.ticks
    runs = mfs_runs(mfs_decompose(ticks))
    return CompactTimedWord.on_base(tuple([w.actions[i:j + 1] for i, j in runs]), D0,
                                    [ticks[i] for i, _ in runs])


def tss_by_intervals(w):
    """Pins `word_to_tss` since it builds on ticks: w's image from `Fraction` intervals."""
    blocks = compact_by_runs(w).blocks
    steps = []
    for k, (acts, t) in enumerate(blocks):
        if k:
            steps.append(([], interval(blocks[k - 1][1], t, False, False)))
        steps.append((acts, punctual(t)))
    return validate_tss(steps)


# ---------------------------------------------------------------------------
# frozen copies: interval sets on keys (`intervals`)

class _Bounds(dict):
    """The earlier conversion's memo: the Bound of each key on the time base
    D, the open ends on either side of a value sharing one."""

    def __init__(self, D):
        self.D = D
        self[INF] = Bound(INF, False)

    def __missing__(self, key):
        v = (key + 1) // 3
        b = self[key] = Bound(Fraction(v, self.D), key == 3 * v)
        if key != 3 * v:
            self[6 * v - key] = b
        return b


def _reference_parts(D, keys):
    """Pins sets held as keys until read: the Intervals of a key list, through one memo."""
    bounds = _Bounds(D)
    return tuple(Interval(bounds[lo], bounds[hi]) for lo, hi in keys)


# ---------------------------------------------------------------------------
# frozen copies: the oracle's literal piece scan (`oracle`), pinning its tables
# since they skip repeated Fraction work: the window ends rebuilt for every
# scanned piece, a linear piece search, and a scan over every step for each piece

# the `Fraction` pieces the scan reads (`_Piece`), pinning the oracle's (lo, hi, j)
# ints since its tables moved onto its own integer scale
class _Piece:
    __slots__ = ("lo", "hi", "is_point", "j", "rep")

    def __init__(self, lo, hi, is_point, j=0):
        self.lo = lo
        self.hi = hi
        self.is_point = is_point
        self.j = j  # the position within a block (mixed pieces only)
        self.rep = lo if is_point else (lo + hi) / 2


def _pieces(values) -> list:
    """The points of the sorted `values` and the open intervals between neighbours."""
    out = [_Piece(values[0], values[0], True)]
    for a, b in zip(values, values[1:]):
        out += (_Piece(a, b, False), _Piece(b, b, True))
    return out


def _reference_window_hits(p, base, w):
    """Whether piece p meets the window w shifted to base, rebuilt per piece."""
    if p.is_point:
        return w.contains(p.lo - base)
    w_lo = base + w.lo.value
    w_hi = INF if w.hi.value == INF else base + w.hi.value
    lo_k = max((p.lo, 1), (base, 1), (w_lo, 0 if w.lo.closed else 1))
    hi_k = min((p.hi, -1), (w_hi, 0 if w.hi.closed else -1))
    return lo_k <= hi_k


def _reference_until_at(pieces, i, w, lv, rv):
    """The Until at piece i by a scan over every later piece."""
    base = pieces[i].rep
    ok = True
    if not pieces[i].is_point:
        if lv[i] and rv[i] and _reference_window_hits(pieces[i], base, w):
            return True
        ok = lv[i]
    for ip in range(i + 1, len(pieces)):
        pc = pieces[ip]
        if not ok:
            return False
        if rv[ip] and (pc.is_point or lv[ip]) and _reference_window_hits(pc, base, w):
            return True
        ok = ok and lv[ip]
        if w.hi.value != INF and pc.lo > base + w.hi.value:
            return False
    return False


def _reference_table(pieces, atoms, f, beta=False):
    """The pieces and every piece's truth; `atoms[i]` holds the atoms true on piece i."""
    sat = {}
    for node in [*subformulas(f), f]:
        match node:
            case Atom(name):
                sat[node] = [name in a for a in atoms]
            case Beta() if beta:
                sat[node] = [p.j == 0 for p in pieces]
            case Not(arg):
                sat[node] = [not v for v in sat[arg]]
            case And(l, r):
                sat[node] = [a and b for a, b in zip(sat[l], sat[r])]
            case Until(l, w, r):
                sat[node] = [_reference_until_at(pieces, i, w, sat[l], sat[r])
                             for i in range(len(pieces))]
            case _:
                raise TypeError(f"not a formula: {node!r}")
    return pieces, sat[f]


def _reference_piece_index(pieces, t, j=0):
    """The index of the piece that holds (t, j), by a linear search."""
    for i, p in enumerate(pieces):
        if p.j == j and (p.lo == t if p.is_point else p.lo < t < p.hi):
            return i
    raise OutOfDomainError(f"({t}, {j}) is not on the piece grid")


def _reference_itw(rho, f, vals):
    """The itw table over the pieces of vals."""
    stamp_acts = {}
    for a, ts in rho.events:
        stamp_acts.setdefault(ts, set()).add(a)
    pieces = _pieces(vals)
    return _reference_table(
        pieces, [stamp_acts.get(p.lo, ()) if p.is_point else () for p in pieces], f)


def _reference_step_props(kappa, p):
    """The propositions of the first step that holds piece p, by a scan over every step."""
    for props, iv in kappa.steps:
        if iv.contains(p.rep):
            return props
    return ()


def _reference_its(kappa, f, vals):
    """The its table over the pieces of vals."""
    pieces = _pieces(vals)
    return _reference_table(pieces, [_reference_step_props(kappa, p) for p in pieces], f)


def _reference_mx(cw, f, vals):
    """The mx table: the pieces of vals from the first block on, one point per block position."""
    blocks = {t: acts for acts, t in cw.blocks}
    pieces = []
    for p in _pieces(vals):
        if p.is_point and p.lo in blocks:
            pieces.extend(_Piece(p.lo, p.lo, True, j) for j in range(len(blocks[p.lo])))
        elif p.lo >= cw.times[0]:
            pieces.append(p)
    atoms = [(blocks[p.lo][p.j],) if p.is_point and p.lo in blocks else () for p in pieces]
    return _reference_table(pieces, atoms, f, beta=True)


def _reference_pw(rho, f):
    """Every position's truth, every later position tried for each Until."""
    times, n, sat = rho.times, len(rho), {}
    for node in [*subformulas(f), f]:
        match node:
            case Atom(name):
                sat[node] = [a == name for a in rho.actions]
            case Not(arg):
                sat[node] = [not v for v in sat[arg]]
            case And(l, r):
                sat[node] = [a and b for a, b in zip(sat[l], sat[r])]
            case Until(l, w, r):
                sat[node] = [any(w.contains(times[j] - times[k]) and sat[r][j]
                                 and all(sat[l][k + 1:j]) for j in range(k + 1, n))
                             for k in range(n)]
    return sat[f]


# ---------------------------------------------------------------------------
# frozen copies: the list-of-bools pointwise engine (`pointwise`), pinning the
# int bitsets: one truth value per position, and the Until as a forward scan
# over two arrays of next positions, on times rebased to 3tD

def _next_true(flags) -> list:
    """out[i] is the first index >= i whose flag is set, len(flags) if there is none."""
    out = [len(flags)] * (len(flags) + 1)
    for i in range(len(flags) - 1, -1, -1):
        out[i] = i if flags[i] else out[i + 1]
    return out


def _reference_until(w, lv, rv, times) -> list:
    """The Until of the window keys w over the list operands, at each time."""
    w_lo, w_hi = w
    n = len(times)
    fail = _next_true([not v for v in lv])
    good = _next_true(rv)
    out = []
    first, last = 0, n if w_hi == INF else 0
    for i, t in enumerate(times):
        first = max(first, i + 1)
        while first < n and times[first] - t < w_lo:
            first += 1
        while last < n and times[last] - t <= w_hi:
            last += 1
        j = good[first]
        out.append(j < last and j <= fail[i + 1])
    return out


def _reference_positions(rho, f) -> frozenset:
    """The positions by the list scan on 3tD per event time t, D the time base
    of the word and the windows, with the windows' own keys on D."""
    acts = rho.actions
    D, ticks = _rebased(rho.ticks, finite_window_bounds(f))
    times = [3 * t for t in ticks]

    def visit(node, l=None, r=None) -> list:
        match node:
            case Atom(name):
                return [a == name for a in acts]
            case Not():
                return [not v for v in l]
            case And():
                return [a and b for a, b in zip(l, r)]
            case Until(_, w, _):
                return _reference_until(interval_keys(w, D), l, r, times)

    return frozenset(i for i, v in enumerate(fold(f, visit)[f]) if v)


# ---------------------------------------------------------------------------
# frozen copies: the atoms as each evaluation built them before a word indexed
# its actions (`TimedWord.action_bits`, `action_ticks`)

def _parent_atom_bits(rho, name) -> int:
    """`pointwise._root`'s atom: the action column packed, position i of n at bit n-1-i."""
    return int("".join(["1" if a == name else "0" for a in rho.actions]), 2)


def _parent_atom_points(rho, name, times) -> list:
    """`interval_based._itw_table`'s atom: one point key per stamp of name on the rebased times."""
    return [(k, k) for k in dict.fromkeys([3 * t for a, t in zip(rho.actions, times)
                                           if a == name])]


# ---------------------------------------------------------------------------
# frozen copies: the models (`structures`)

def _adjacent(a, b) -> bool:
    """Disjoint, union is one interval, and a lies entirely before b."""
    return a.hi.value == b.lo.value and a.hi.closed != b.lo.closed


def _reference_verdict(steps, allow_nonzero_start):
    """Pins `validate_tss` since it reads keys: (error class, position) that the
    Interval rules give the steps, or None."""
    if not steps:
        return EmptyWordError, None
    for pos in range(1, len(steps)):
        if not _adjacent(steps[pos - 1][1], steps[pos][1]):
            return AdjacencyError, pos
    first = steps[0][1]
    if not allow_nonzero_start and not (first.lo.value == 0 and first.lo.closed):
        return FirstTimestampError, None
    if not steps[-1][1].hi.closed:
        return MtlsemError, None
    return None


def _reference_action_based(steps) -> bool:
    """Pins `is_action_based` since it reads keys: the rule on Intervals."""
    first = steps[0][1]
    if not (first.lo.value == 0 and first.lo.closed and first.lo == first.hi):
        return False
    if steps[-1][1].lo != steps[-1][1].hi:
        return False
    return all((bool(props) and iv.lo == iv.hi) if i % 2 == 0
               else not (props or iv.lo == iv.hi)
               for i, (props, iv) in enumerate(steps))


def _interval_loader_parse(text):
    """Pins `interval_pair`: a step text read to an Interval through Fractions."""
    m = _INTERVAL.fullmatch(text)
    if not m:
        raise MtlsemError(f"not an interval: {text!r}")
    lbr, lo, lw, lf, ld, hi, hw, hf, hd, rbr = m.groups("")
    if hi == "inf" and rbr == "]":
        raise MtlsemError(f"infinite upper bound must be open: {text!r}")
    return interval(Fraction(*_pair(lo, lw, lf, ld)),
                    INF if hi == "inf" else Fraction(*_pair(hi, hw, hf, hd)),
                    lbr == "[", rbr == "]")


def _interval_loader_columns(obj):
    """Pins `tss_from_json` since it reads keys: each step an Interval, then one `key_column`."""
    steps = [(frozenset(props), _interval_loader_parse(text)) for props, text in obj["steps"]]
    D0, keys = key_column([iv for _, iv in steps])
    return D0, tuple(keys), tuple(props for props, _ in steps)


def _reference_unroll(l, horizon: Fraction) -> TimedWord:
    """Pins `unroll` since it runs on ticks: Fraction arithmetic, event by event."""
    base = l.prefix.events[-1][1]
    events = list(l.prefix.events)
    copy = 0
    while base + copy * l.period_duration + l.period_offsets[0] <= horizon:
        for a, o in zip(l.period_actions, l.period_offsets):
            t = base + copy * l.period_duration + o
            if t <= horizon:
                events.append((a, t))
        copy += 1
    return TimedWord(tuple(events))
