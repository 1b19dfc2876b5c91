"""The brute-force grid: critical points, piecewise constancy, generators."""

import ast
import inspect
from fractions import Fraction

import pytest

from mtlsem import oracle
from mtlsem.encodings import compact, word_to_tss
from mtlsem.errors import OutOfDomainError
from mtlsem.formulas import (
    And,
    Atom,
    Beta,
    Not,
    Until,
    alphabet,
    finite_window_bounds,
    is_bounded,
    parse,
    subformulas,
    temporal_depth,
)
from mtlsem.intervals import INF, punctual
from mtlsem.oracle import (
    critical_points,
    critical_values,
    gen_formula,
    gen_ka,
    gen_lasso,
    gen_word,
    oracle_eval_its,
    oracle_eval_itw,
    oracle_eval_pw,
)
from mtlsem.structures import (
    duration,
    is_action_based,
    unroll,
    validate_compact,
    validate_tss,
    validate_word,
    word,
)

ABC = alphabet("a,b,c")
ALPHABET_ABCD = alphabet("a,b,c,d")
RHO1 = word([("a", "0"), ("b", "1"), ("a", "1"), ("c", "3.3")])
WINDOWED_C = parse("F(0,1) F[0,3.5] c", ABC)


def closure_by_hand(times, bounds, depth, lo, hi):
    """The stated recurrence, written independently of the implementation."""
    vals = set(times) | {lo, hi}
    for _ in range(depth):
        for t in list(vals):
            for b in bounds:
                for c in (t + b, t - b):
                    if lo <= c <= hi:
                        vals.add(c)
    return sorted(vals)


class TestCriticalPoints:
    def test_golden_windowed_formula(self):
        got = critical_points(RHO1, WINDOWED_C)
        expect = [Fraction(v) for v in
                  ["0", "1/2", "1", "23/20", "13/10", "33/20", "2",
                   "43/20", "23/10", "53/20", "3", "63/20", "33/10"]]
        assert got == expect

    def test_matches_hand_recurrence(self):
        for seed in range(100):
            rho = gen_word(seed)
            f = gen_formula(seed * 23 + 5, ABC)
            from mtlsem.formulas import finite_window_bounds, temporal_depth

            vals = closure_by_hand(
                rho.times, finite_window_bounds(f), temporal_depth(f),
                Fraction(0), duration(rho))
            assert critical_values(rho, f) == vals

    F_NOW_A, A_UNTIL_B = parse("F[0,0] a", ABC), parse("a U[0,2] b", ABC)

    def test_matches_hand_recurrence_on_every_structure(self):
        # compact words and state sequences too, and windows with a 0 or
        # punctual bound around a random formula
        for seed in range(300):
            rho, g = gen_word(seed), gen_formula(seed * 23 + 5, ABC)
            formulas = [g, And(g, self.F_NOW_A), Until(self.A_UNTIL_B, punctual(1), g)]
            for structure in (rho, compact(rho), word_to_tss(rho), gen_ka(seed)):
                if hasattr(structure, "steps"):
                    ends = [iv.lo.value for _, iv in structure.steps]
                    lo, hi = ends[0], structure.steps[-1][1].hi.value
                    times = ends + [hi]
                else:
                    times, lo, hi = structure.times, Fraction(0), structure.times[-1]
                for f in formulas:
                    vals = closure_by_hand(
                        times, finite_window_bounds(f), temporal_depth(f), lo, hi)
                    assert critical_values(structure, f) == vals, (str(structure), f)

    def test_no_windows_gives_timestamps(self):
        got = critical_points(RHO1, parse("a", ABC))
        assert [v for v in got if v in set(RHO1.times)] == sorted(set(RHO1.times))

    def test_single_event(self):
        assert critical_points(word([("a", 0)]), parse("a", ABC)) == [0]


# ---------------------------------------------------------------------------
# the literal piece scan, kept as the reference for the oracle's tables: the
# window ends rebuilt for every scanned piece, a linear piece search, and a
# scan over every step for each piece

def _reference_window_hits(p, base, w):
    if p.is_point:
        return w.contains(p.lo - base)
    w_lo = base + w.lo.value
    w_hi = INF if w.hi.value == INF else base + w.hi.value
    lo_k = max((p.lo, 1), (base, 1), (w_lo, 0 if w.lo.closed else 1))
    hi_k = min((p.hi, -1), (w_hi, 0 if w.hi.closed else -1))
    return lo_k <= hi_k


def _reference_until_at(pieces, i, w, lv, rv):
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
    """The pieces and every piece's truth; `atoms[i]` holds the atoms true on
    piece i."""
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
    for i, p in enumerate(pieces):
        if p.j == j and (p.lo == t if p.is_point else p.lo < t < p.hi):
            return i
    raise OutOfDomainError(f"({t}, {j}) is not on the piece grid")


def _reference_itw(rho, f, vals):
    stamp_acts = {}
    for a, ts in rho.events:
        stamp_acts.setdefault(ts, set()).add(a)
    pieces = oracle._pieces(vals)
    return _reference_table(
        pieces, [stamp_acts.get(p.lo, ()) if p.is_point else () for p in pieces], f)


def _reference_step_props(kappa, p):
    for props, iv in kappa.steps:
        if iv.contains(p.rep):
            return props
    return ()


def _reference_its(kappa, f, vals):
    pieces = oracle._pieces(vals)
    return _reference_table(pieces, [_reference_step_props(kappa, p) for p in pieces], f)


def _reference_mx(cw, f, vals):
    blocks = {t: acts for acts, t in cw.blocks}
    pieces = []
    for p in oracle._pieces(vals):
        if p.is_point and p.lo in blocks:
            pieces.extend(oracle._Piece(p.lo, p.lo, True, j) for j in range(len(blocks[p.lo])))
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


def _outcome(lookup, t, j):
    try:
        return lookup(t, j)
    except OutOfDomainError:
        return OutOfDomainError


def _assert_tables_agree(got, reference, vals, lookups):
    """The same pieces and the same truth on every piece.  With `lookups`,
    also `_truth_at` against the linear search, at every piece's
    representative and a second interior point of every open piece, and off
    the grid: before the first value, past the last, j < 0, before the
    table's first piece (a mixed word's first block), j past a block's size
    and j > 0 inside an open piece."""
    (pieces, truth), (ref_pieces, ref_truth) = got, reference
    assert ([(p.lo, p.hi, p.is_point, p.j) for p in pieces]
            == [(p.lo, p.hi, p.is_point, p.j) for p in ref_pieces])
    assert truth == ref_truth
    if not lookups:
        return
    samples = [(p.rep, p.j) for p in pieces]
    samples += [(p.lo + (p.hi - p.lo) / 3, 0) for p in pieces if not p.is_point]
    off = [(vals[0] - 1, 0), (vals[-1] + 1, 0), (vals[0], -1), (pieces[-1].rep, -1)]
    off += [(p.rep, 0) for p in oracle._pieces(vals) if p.lo < pieces[0].lo]
    must_raise = len(off)
    off += [(p.lo, p.j + 1) for p in pieces if p.is_point]
    off += [(p.rep, 1) for p in pieces if not p.is_point]
    for t, j in samples + off:
        mine = _outcome(lambda t, j: oracle._truth_at(pieces, truth, t, j), t, j)
        want = _outcome(lambda t, j: ref_truth[_reference_piece_index(ref_pieces, t, j)], t, j)
        assert mine == want, (t, j)
        assert (t, j) not in off[:must_raise] or mine is OutOfDomainError, (t, j)


def _left_open_start(kappa):
    """A gen_ka sequence of two steps or more with its first two, [0,0] and
    (0,t), replaced by (0,t) holding the first's atoms: the critical value 0
    is then a point that no step covers."""
    if len(kappa.steps) < 2:
        return None
    (props, _), (_, second) = kappa.steps[:2]
    return validate_tss([(props, second), *kappa.steps[2:]], allow_nonzero_start=True)


class TestTablesAgainstTheLiteralScan:
    """The oracle's tables against the literal scan above, on larger words
    and deeper formulas than the fuzzer draws; the lookups on every
    LOOKUP_EVERY-th seed (each is a scan over the pieces, as the reference's)."""

    SEEDS = range(1500)
    LOOKUP_EVERY = 5

    def test_itw(self):
        for seed in self.SEEDS:
            rho, f = gen_word(seed, max_len=10), gen_formula(seed * 7 + 3, ABC, max_depth=5)
            vals = critical_values(rho, f)
            pieces = oracle._pieces(vals)
            _assert_tables_agree((pieces, oracle._itw_oracle(rho, f, pieces)),
                                 _reference_itw(rho, f, vals), vals,
                                 seed % self.LOOKUP_EVERY == 0)

    def test_its(self):
        # gen_ka and word_to_tss start closed; on odd seeds a gen_ka also
        # runs with a left-open first step
        for seed in self.SEEDS:
            f = gen_formula(seed * 7 + 3, ALPHABET_ABCD, max_depth=5)
            ka = gen_ka(seed)
            kappas = [ka, word_to_tss(gen_word(seed, max_len=10)),
                      seed % 2 and _left_open_start(ka)]
            for kappa in filter(None, kappas):
                vals = critical_values(kappa, f)
                pieces = oracle._pieces(vals)
                _assert_tables_agree((pieces, oracle._its_oracle(kappa, f, pieces)),
                                     _reference_its(kappa, f, vals), vals,
                                     seed % self.LOOKUP_EVERY == 0)

    def test_its_left_open_start(self):
        # the first critical value lies in no step: it holds no atoms
        kappa = validate_tss([({"p"}, "(1,2]")], allow_nonzero_start=True)
        for text, want in [("p", False), ("!p", True), ("F[0,1] p", True)]:
            f = parse(text, alphabet("p"))
            assert oracle_eval_its(kappa, 1, f) is want, text
            assert oracle.differential("its", kappa, f) is None, text

    def test_mx(self):
        for seed in self.SEEDS:
            cw = compact(gen_word(seed, max_len=10))
            if seed % 2:  # a first block past 0: the pieces before it are off the grid
                cw = validate_compact([(acts, t + Fraction(1, 2)) for acts, t in cw.blocks],
                                      allow_nonzero_start=True)
            f = gen_formula(seed * 7 + 3, ABC, max_depth=5, allow_beta=True)
            vals = critical_values(cw, f)
            _assert_tables_agree(oracle._mx_oracle(cw, f, oracle._pieces(vals)),
                                 _reference_mx(cw, f, vals), vals,
                                 seed % self.LOOKUP_EVERY == 1)

    def test_pw(self):
        for seed in self.SEEDS:
            rho, f = gen_word(seed, max_len=10), gen_formula(seed * 7 + 3, ABC, max_depth=5)
            truth = oracle._pw_oracle(rho, f)
            assert [truth(i) for i in range(len(rho))] == _reference_pw(rho, f), seed


class TestGridSoundness:
    def test_double_sampling(self):
        # subformula truth must be constant on each open inter-critical gap:
        # the midpoint and a second interior point must agree
        for seed in range(120):
            rho = gen_word(seed + 700)
            f = gen_formula(seed * 29 + 11, ABC)
            vals = critical_values(rho, f)
            for a, b in zip(vals, vals[1:]):
                mid = (a + b) / 2
                second = a + (b - a) / 3
                assert oracle_eval_itw(rho, mid, f) == oracle_eval_itw(rho, second, f), (
                    rho, f, a, b)


class TestGenerators:
    def test_words_valid_and_deterministic(self):
        for seed in range(100):
            w = gen_word(seed)
            validate_word(w.events)
            assert gen_word(seed) == w

    def test_stutter_free_flag(self):
        from mtlsem.structures import is_stutter_free

        for seed in range(100):
            assert is_stutter_free(gen_word(seed, stutter_free=True))

    def test_ka_elements(self):
        for seed in range(100):
            assert is_action_based(gen_ka(seed))

    def test_bounded_only_formulas(self):
        for seed in range(100):
            f = gen_formula(seed, ABC, bounded_only=True)
            assert is_bounded(f)

    def test_lassos_unroll(self):
        for seed in range(50):
            l = gen_lasso(seed)
            w = unroll(l, duration(l.prefix) + 3 * l.period_duration)
            validate_word(w.events)


class TestPwOracleShape:
    def test_matches_direct_clauses_on_tiny_case(self):
        w = word([("a", 0), ("b", 1)])
        f = parse("a U b", ABC)
        assert oracle_eval_pw(w, 0, f)
        assert not oracle_eval_pw(w, 1, f)


class TestIndependence:
    ENGINE_NAMES = {"fold", "IntervalSet", "back_shift", "sat_positions", "lasso_instance",
                    # the engines' integer time base
                    "ticks", "time_base", "tick_column", "rebased", "time_key",
                    "interval_keys", "key_column", "scaled_keys", "on_base"}

    def test_no_oracle_function_names_engine_code(self):
        # only `differential`, which compares an engine with its oracle, may
        tree = ast.parse(inspect.getsource(oracle))
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef) or fn.name == "differential":
                continue
            for node in ast.walk(fn):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute) else None)
                assert name not in self.ENGINE_NAMES, (fn.name, name)
                assert not (name or "").startswith("sat_set"), (fn.name, name)
                assert not (name or "").endswith("_keys"), (fn.name, name)  # key sweeps

    def test_dense_oracles_reject_beta(self):
        f = parse("F beta", ABC, allow_beta=True)
        with pytest.raises(TypeError):
            oracle_eval_itw(RHO1, 0, f)
        with pytest.raises(TypeError):
            oracle_eval_its(word_to_tss(RHO1), 0, f)
