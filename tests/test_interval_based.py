"""Dense-time satisfaction sets over words and state sequences."""

import random
from fractions import Fraction
from functools import cached_property

import pytest

from mtlsem.encodings import compact, uncompact, word_to_tss
from mtlsem.errors import BetaNotAllowedError, MtlsemError, OutOfDomainError
from mtlsem.formulas import And, Atom, Not, alphabet, parse
from mtlsem.gallery import ABC, B_THEN_A, WINDOWED_C
from mtlsem.interval_based import (
    _its_table,
    _itw_table,
    eval_its,
    eval_itw,
    eval_itw_lasso,
    sat_set_its,
    sat_set_itw,
    sat_sets_its,
    sat_sets_itw,
)
from mtlsem.intervals import (
    INF,
    IntervalSet,
    _until_bases,
    back_shift,
    intersect_keys,
    interval,
    key_column,
    key_intervals,
    normalize_keys,
)
from mtlsem.mixed import _mx_table
from mtlsem.oracle import (
    critical_points,
    critical_values,
    differential,
    gen_formula,
    gen_word,
    oracle_eval_its,
    oracle_eval_itw,
    oracle_eval_mx,
)
from mtlsem.pointwise import eval_pw_lasso
from mtlsem.structures import lasso, validate_compact, validate_tss, word
from shared import (KAPPA1, RHO1, RHO2, _parent_its_table, _per_event_atoms, _reference_sat_dense,
                    _reference_until_bases, back_shift_keys, seeded_pairs)


class TestWordSets:
    def test_windowed_start_holds_densely(self):
        got = sat_set_itw(RHO1, WINDOWED_C)
        assert got.member(Fraction(1, 2))
        assert eval_itw(RHO1, 0, WINDOWED_C)

    def test_order_lost_at_equal_times(self):
        got = sat_set_itw(RHO1, B_THEN_A)
        assert not got.member(Fraction(0))
        assert got.is_empty  # nothing can follow at distance exactly 0

    def test_simultaneity_visible_to_conjunction(self):
        both = parse("F(a & b)", ABC)
        assert eval_itw(RHO1, 0, both)
        assert eval_itw(RHO2, 0, both)

    def test_atom_clause(self):
        assert eval_itw(RHO1, 1, parse("a", ABC))
        assert eval_itw(RHO1, 1, parse("b", ABC))
        assert not eval_itw(RHO1, "1/2", parse("sigma", ABC))

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomainError):
            eval_itw(RHO1, 4, parse("a", ABC))

    def test_beta_rejected(self):
        with pytest.raises(BetaNotAllowedError):
            sat_set_itw(RHO1, parse("beta", ABC, allow_beta=True))


class TestStateSequenceSets:
    def test_collapsed_image_loses_order(self):
        assert not eval_its(KAPPA1, 0, B_THEN_A)

    def test_plain_atom_on_raw_sequence(self):
        kappa = validate_tss(
            [[["p"], "[1,2)"], [["p", "q"], "[2,3)"], [["q"], "[3,3]"],
             [["p"], "(3,3.4]"]],
            allow_nonzero_start=True)
        assert eval_its(kappa, "1.2", parse("p", alphabet("p,q")))
        assert not eval_its(kappa, 3, parse("p", alphabet("p,q")))

    def test_gap_step_has_no_action(self):
        assert not eval_its(KAPPA1, "1/2", parse("sigma", ABC))

    def test_domain_runs_from_a_closed_start_to_the_last_end(self):
        kappa = validate_tss([[["p"], "[1/4,1]"], [["q"], "(1,2]"]], allow_nonzero_start=True)
        p = parse("p", alphabet("p,q"))
        assert [eval_its(kappa, t, p) for t in ("1/4", "1/2", "1", "3/2", "2")] == [
            True, True, True, False, False]
        for t in ("0", "1/5", "201/100"):
            with pytest.raises(OutOfDomainError, match=f"time {t} outside the covered span"):
                eval_its(kappa, t, p)


class TestAgreementWithWordSemantics:
    def test_image_agrees_on_swap_pair(self):
        for rho in (RHO1, RHO2):
            kappa = word_to_tss(rho)
            for f in (B_THEN_A, WINDOWED_C, parse("F(a & b)", ABC)):
                for t in critical_points(rho, f):
                    assert eval_itw(rho, t, f) == eval_its(kappa, t, f)

    def test_image_agrees_fuzzed(self):
        for seed in range(150):
            rho = gen_word(seed)
            f = gen_formula(seed * 7 + 1, ABC)
            kappa = word_to_tss(rho)
            sat_w = sat_set_itw(rho, f)
            sat_k = sat_set_its(kappa, f)
            assert sat_w == sat_k, (rho, f)


class TestOracleAgreement:
    def test_fuzzed(self):
        for seed in range(300):
            rho = gen_word(seed + 5000)
            f = gen_formula(seed * 11 + 2, ABC)
            assert differential("itw", rho, f) is None, (rho, f)

    def test_endpoints_lie_on_critical_values(self):
        for seed in range(200):
            rho = gen_word(seed + 9000)
            f = gen_formula(seed * 5 + 4, ABC)
            allowed = set(critical_values(rho, f))
            for part in sat_set_itw(rho, f).parts:
                assert part.lo.value in allowed
                assert part.hi.value in allowed


class TestReorderInvariance:
    def test_permuting_one_flat_run_preserves_sets(self):
        rng = random.Random(77)
        for seed in range(150):
            rho = gen_word(seed + 300)
            f = gen_formula(seed * 3 + 11, ABC)
            from mtlsem.structures import CompactTimedWord

            cw = compact(rho)
            k = rng.randrange(len(cw.blocks))
            acts = list(cw.blocks[k][0])
            rng.shuffle(acts)
            other = uncompact(CompactTimedWord(
                cw.blocks[:k] + ((tuple(acts), cw.blocks[k][1]),) + cw.blocks[k + 1:]))
            assert sat_set_itw(rho, f) == sat_set_itw(other, f)


class TestLassoVerdicts:
    def test_bounded_witness_word(self):
        gamma2 = parse("F[0,1](F[0,1) b & F[1,1] c)", ABC)
        l = lasso(word([("a", "0"), ("b", "3/2"), ("c", "2")]), ["c"], ["1"], "1")
        assert eval_itw_lasso(l, gamma2) is True

    def test_bounded_vacuous(self):
        gamma2 = parse("F[0,1](F[0,1) b & F[1,1] c)", ABC)
        l = lasso(word([("a", "0")]), ["c"], ["1"], "1")
        assert eval_itw_lasso(l, gamma2) is False

    def test_unbounded_refutation_is_false(self):
        # X[0,0] a never holds in the dense semantics, since the strict Until
        # needs a witness t' > t at distance 0, so F(b & X[0,0] a) is false on
        # every word; pointwise, the one b is followed by c
        l = lasso(RHO2, ["c"], ["1"], "1")
        assert eval_itw_lasso(l, B_THEN_A) is False
        assert eval_pw_lasso(l, B_THEN_A) is False

    def test_unbounded_never_definitely_wrong(self):
        # the dense language of this formula is empty, so the engine must
        # never answer True
        l = lasso(word([("b", 0), ("b", 1), ("c", 1)]), ["c"], ["1"], "1")
        f = parse("F(b & X[0,0] c)", ABC)
        assert eval_itw_lasso(l, f) is not True

    def test_first_order_characterization_cross_check(self):
        # language shape: some b in (0,2), some c in (1,2], c after b within (0,1)
        gamma2 = parse("F[0,1](F[0,1) b & F[1,1] c)", ABC)
        for seed in range(120):
            from mtlsem.oracle import gen_lasso
            from mtlsem.structures import unroll

            l = gen_lasso(seed)
            got = eval_itw_lasso(l, gamma2)
            w = unroll(l, max(Fraction(4), l.prefix.times[-1]) + 2 * l.period_duration)
            expect = any(
                w.actions[i] == "b" and Fraction(0) < w.times[i] < 2
                and w.actions[j] == "c" and Fraction(1) < w.times[j] <= 2
                and Fraction(0) < w.times[j] - w.times[i] < 1
                for i in range(len(w)) for j in range(len(w)))
            assert got is expect, (l,)


# every library entry point that takes a time reads it with the one rational grammar
B_SOON = parse("F[0,1] b", ABC)
TIME_ENTRY_POINTS = {
    "eval_itw": lambda t: eval_itw(RHO1, t, B_SOON),
    "eval_its": lambda t: eval_its(KAPPA1, t, B_SOON),
    "oracle_eval_itw": lambda t: oracle_eval_itw(RHO1, t, B_SOON),
    "oracle_eval_its": lambda t: oracle_eval_its(KAPPA1, t, B_SOON),
    "oracle_eval_mx": lambda t: oracle_eval_mx(compact(RHO1), t, 0, B_SOON),
}


@pytest.mark.parametrize("entry", TIME_ENTRY_POINTS)
@pytest.mark.parametrize("t", [0.1, "1/0"], ids=["float", "zero-denominator"])
def test_time_outside_the_grammar_is_an_input_error(entry, t):
    with pytest.raises(MtlsemError):
        TIME_ENTRY_POINTS[entry](t)


@pytest.mark.parametrize("entry", TIME_ENTRY_POINTS)
def test_time_with_spaces_around_the_slash_is_accepted(entry):
    assert TIME_ENTRY_POINTS[entry](" 1 / 2 ") is TIME_ENTRY_POINTS[entry](Fraction(1, 2)) is True


class TestConvertedOnRead:
    """A result builds its Intervals once per set, and only when a caller reads
    its parts: printing, membership, equality and the grid points build none.
    Each build of a set's `parts` is counted by the key list it converts."""

    F = "G(a -> F[1/3,3] b) & !((a | b) U(1/2,2] c)"

    @pytest.fixture
    def conversions(self, monkeypatch):
        calls, real = [], IntervalSet.parts.func

        def counted(s):
            calls.append(s.keys[1])
            return real(s)
        parts = cached_property(counted)
        parts.__set_name__(IntervalSet, "parts")
        monkeypatch.setattr(IntervalSet, "parts", parts)
        return calls

    @staticmethod
    def _read(sets, calls):
        for s in sets:
            str(s)
            s.member(Fraction(1, 3))
            assert s == s and hash(s) == hash(s)
        assert calls == []
        for s in sets:
            seen = {}  # one Bound per endpoint key within a set
            for p in s.parts + s.parts:
                for side, b in (("lo", p.lo), ("hi", p.hi)):
                    assert seen.setdefault((b.value, b.closed, b.closed or side), b) is b
        assert [id(keys) for keys in calls] == [id(s.keys[1]) for s in sets]
        calls.clear()

    def test_itw_and_its_tables(self, conversions):
        f = parse(self.F, ABC)
        for seed in range(200):
            rho = gen_word(seed)
            for table in (sat_sets_itw(rho, f), sat_sets_its(word_to_tss(rho), f)):
                self._read(list(table.values()), conversions)

    def test_mx_table_gaps(self, conversions):
        from mtlsem.mixed import sat_sets_mx

        f = parse(self.F, ABC, allow_beta=True)
        for seed in range(200):
            table = sat_sets_mx(compact(gen_word(seed)), f)
            for s in table.values():
                s.points
            self._read([s.gap for s in table.values()], conversions)

    def test_verdicts_build_no_set(self, monkeypatch):
        from mtlsem.intervals import IntervalSet
        from mtlsem.mixed import MixedSet, eval_mx, eval_mx_lasso, sat_set_mx

        f = parse(self.F, ABC, allow_beta=True)
        l = lasso(RHO1, ["c"], ["1"], "1")
        times = [Fraction(t) for t in ("0", "1/3", "1", "33/10")]
        itw, mx = sat_set_itw(RHO1, f), sat_set_mx(compact(RHO1), f)
        want = ([itw.member(t) for t in times] * 2 + [(1, 0) in mx.points, mx.gap.member(times[1])]
                + [eval_itw_lasso(l, f), eval_mx_lasso(l, f)])

        def refuse(*_):
            raise AssertionError("a verdict built a set")
        monkeypatch.setattr(IntervalSet, "on_base", refuse)
        monkeypatch.setattr(MixedSet, "on_grid", refuse)
        got = ([eval_itw(RHO1, t, f) for t in times]
               + [eval_its(word_to_tss(RHO1), t, f) for t in times]
               + [eval_mx(compact(RHO1), 1, 0, f), eval_mx(compact(RHO1), times[1], 0, f)]
               + [eval_itw_lasso(l, f), eval_mx_lasso(l, f)])
        assert got == want


# ---------------------------------------------------------------------------
# the one-pass Until against the per-witness back-shift it replaced

def test_back_shift_equals_the_frozen_keys_on_the_half_grid():
    """Every pair of intervals with ends in {0, 1/2, ..., 4} or at inf."""
    ends = [Fraction(k, 2) for k in range(9)]
    ivs = [interval(lo, hi, lc, hc) for lo in ends for hi in ends + [INF]
           for lc in (True, False) for hc in (True, False)
           if (lo < hi or lo == hi and lc and hc) and (hi != INF or not hc)]
    assert len(ivs) == 171
    for q in ivs:
        for i in ivs:
            D, (q_keys, i_keys) = key_column((q, i))
            keys = back_shift_keys(*q_keys, *i_keys)
            assert back_shift(q, i) == (None if keys is None else key_intervals(D, [keys])[0]), (
                str(q), str(i))


def _line(rng, t0, t1, J):
    """The points of the lex line with J slots per time key over the stamps
    t0..t1 (J = 1: the dense line), as slot pairs in order, and the last-point
    offset of each block of two or more positions."""
    points, last = [], {}
    for T in range(3 * t0, 3 * t1 + 1):
        s = rng.randint(1, J) if T % 3 == 0 and rng.random() < 0.7 else 1
        if s > 1:
            last[T] = s - 1
        points += [(T * J + i, T * J + i) for i in range(s - 1)]
        points.append((T * J + s - 1, T * J + J - 1))
    return points, last


def _random_set(rng, points):
    """A normalized key list: runs of the points, drawn with random odds."""
    p, held, keys = rng.uniform(0.2, 0.8), False, []
    for point in points:
        if rng.random() < 0.4:
            held = rng.random() < p
        if held:
            keys.append(point)
    return normalize_keys(keys)


def _window_keys(lo, span, lo_closed, hi_closed):
    """The key pair of a window on the base 1; span None is unbounded."""
    if span is None:
        return 3 * lo + (not lo_closed), INF
    return 3 * lo + (not lo_closed), 3 * (lo + span) - (not hi_closed)


WINDOWS = [_window_keys(lo, span, lc, hc)
           for lo in (0, 1, 2) for span in (0, 1, 2, 5, None)
           for lc in (True, False) for hc in (True, False)
           if (span != 0 or lc and hc) and (span is not None or not hc)]


class TestOnePassUntil:
    def test_windows_cover_every_kind(self):
        assert (0, 0) in WINDOWS and (0, INF) in WINDOWS and (1, INF) in WINDOWS
        assert {(lo % 3, hi % 3) for lo, hi in WINDOWS if hi != INF} == {
            (0, 0), (0, 2), (1, 0), (1, 2)}

    @pytest.mark.parametrize("J", [1, 2, 3])
    def test_equals_the_reference_and_is_normalized(self, J):
        rng = random.Random(40 + J)
        for _ in range(400):
            t0 = rng.choice((0, 0, 2))
            points, last = _line(rng, t0, t0 + rng.randint(0, 12), J)
            if J == 1:
                last = None
            elif not last:
                continue  # a lex line has a block of two or more positions
            domain = (points[0][0], points[-1][1])
            f, g = _random_set(rng, points), _random_set(rng, points)
            for w in WINDOWS:
                got = _until_bases(f, g, w, J, last)
                assert got == _reference_until_bases(f, g, w, domain, J, last), (f, g, w, last)
                assert all(lo <= hi for lo, hi in got)
                assert all(a[1] + 1 < b[0] for a, b in zip(got, got[1:]))


# ---------------------------------------------------------------------------
# the tables on long words, pinned by digest

def _long_word(seed):
    """300-600 events with steps on the grid of 1/2 (odd seeds) or 1/3."""
    rng = random.Random(seed)
    step = Fraction(1, 2 if seed % 2 else 3)
    t, events = Fraction(0), []
    for i in range(rng.randint(300, 600)):
        if i:
            t += step * rng.choice((0, 0, 1, 1, 2, 3, 5))
        events.append((rng.choice("abc"), t))
    return word(events)


class TestLongWordTablesAreUnchanged:
    """Every set of the fold table of each engine, as its base and key list,
    hashed over six formulas on seeded words of 300-600 events.  A word's
    `its` table is its state sequence's, so the two share their digests."""

    FORMULAS = ("G(a -> F[1,3] b)", "(a | b) U(1/2,2] c", "F[0,1) (b & X[0,0] a)",
                "G[0,2] F(1/3,1] (a | c)", "!(!c U[1/2,inf) (b & F[0,1] a))", "F[1,2) G[0,1/2] !b")
    DIGESTS = {
        ("itw", 1): "c477835615cafec2", ("itw", 2): "28bc0f0bc0233eae",
        ("itw", 3): "a2a8de50cf3056bc",
        ("its", 1): "c477835615cafec2", ("its", 2): "28bc0f0bc0233eae",
        ("its", 3): "a2a8de50cf3056bc",
        ("mx", 1): "d6fa243450ee82f3", ("mx", 2): "200a64fca1ee5498",
        ("mx", 3): "4bf68396cb8a37e4",
    }

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("engine", ["itw", "its", "mx"])
    def test_digest(self, engine, seed):
        import hashlib

        from mtlsem.mixed import sat_sets_mx

        rho = _long_word(seed)
        digest = hashlib.sha256()
        for text in self.FORMULAS:
            f = parse(text, ABC)
            if engine == "itw":
                sets = [s.keys for s in sat_sets_itw(rho, f).values()]
            elif engine == "its":
                sets = [s.keys for s in sat_sets_its(word_to_tss(rho), f).values()]
            else:
                sets = [(s.lex[1][0], s.lex[0]) for s in sat_sets_mx(compact(rho), f).values()]
            digest.update(repr(sets).encode())
        assert digest.hexdigest()[:16] == self.DIGESTS.get((engine, seed)), len(rho.events)


# ---------------------------------------------------------------------------
# the atom lists each entry point hands the fold, and x & !x

ABCD = alphabet("a,b,c,d")
# the same action twice at one stamp, simultaneous events, and no d
REPEATED = word([("a", "0"), ("b", "1/2"), ("a", "1/2"), ("a", "1/2"), ("c", "2"), ("a", "2"),
                 ("b", "3")])
# adjacent steps sharing a proposition
SHARED_STEPS = validate_tss([({"a"}, "[0,0]"), ({"a", "b"}, "(0,1)"), ({"a"}, "[1,1]"),
                             (set(), "(1,5/2)"), ({"b", "c"}, "[5/2,5/2]"), ({"c"}, "(5/2,3]")])
# the blocks (a, a) and (a, b, a)
BLOCKS = validate_compact([(("a", "a"), "0"), (("b",), "1/3"), (("a", "b", "a"), "1"),
                           (("c", "c", "b"), "2")])
TABLES = {"itw": _itw_table, "its": _its_table, "mx": lambda cw, f: _mx_table(cw, f)[0]}
MODELS = [("itw", REPEATED), ("its", SHARED_STEPS), ("mx", BLOCKS), ("mx", compact(REPEATED))]
MODEL_IDS = ["itw-word", "its-shared-steps", "mx-blocks", "mx-word"]


class TestAtomListsArriveMerged:
    """Each dense entry point hands `_sat_dense` every atom's list already
    normalized: the fold's Atom case takes it as is."""

    F = parse("F[0,1/2] (a & !b) | (c U(1/2,2] d)", ABCD)

    @pytest.mark.parametrize("engine, model", MODELS, ids=MODEL_IDS)
    def test_atoms_are_the_normalized_per_event_lists(self, engine, model):
        table = TABLES[engine](model, self.F)
        raw = _per_event_atoms(engine, model, self.F)
        want = {name: normalize_keys(keys) for name, keys in raw.items()}
        assert {name: table[Atom(name)] for name in want} == want
        assert want["d"] == []  # an atom the model never holds
        assert raw != want  # each model has keys to merge


class TestEmptyAndOfNegation:
    """x & !x is empty with no sweep, the And inside every `true` among them;
    every other And is still the intersection of its operands."""

    F = parse("(F[0,1] a | G b | true) & ((a & !a) | (a & !b) | (!a & a) | (b & !a))", ABC)

    @pytest.mark.parametrize("engine, model", MODELS, ids=MODEL_IDS)
    def test_values(self, engine, model):
        table = TABLES[engine](model, self.F)
        ands = [node for node in table if type(node) is And]
        for node in ands:
            assert table[node] == intersect_keys(table[node.left], table[node.right]), node
        a = parse("a", ABC)
        assert And(Not(a), Not(Not(a))) in ands  # the And of `true`
        assert table[And(Not(a), Not(Not(a)))] == table[parse("a & !a", ABC)] == []
        assert table[parse("!a & a", ABC)] == []
        assert table[parse("a & !b", ABC)] or table[parse("b & !a", ABC)]

    @pytest.mark.parametrize("engine, model", MODELS, ids=MODEL_IDS)
    def test_no_sweep_inside_true(self, engine, model, monkeypatch):
        import mtlsem.interval_based as ib

        calls = []
        monkeypatch.setattr(ib, "intersect_keys", lambda a, b: calls.append((a, b)) or [])
        f = parse("F(0,1] G[1,2] (a & !a)", ABC)  # no window holds 0: no block sweep in mx
        TABLES[engine](model, f)
        assert calls == []


# ---------------------------------------------------------------------------
# pending complements: the tables against the eager fold

def _key_lists(engine, model, f):
    """Each entry of the engine's `sat_sets_*` table: its node, base and key list."""
    from mtlsem.mixed import sat_sets_mx

    if engine == "mx":
        return [(node, s.lex[1][0], s.lex[0]) for node, s in sat_sets_mx(model, f).items()]
    sets = (sat_sets_itw if engine == "itw" else sat_sets_its)(model, f)
    return [(node, *s.keys) for node, s in sets.items()]


def _against_the_eager_fold(engine, model, f, monkeypatch):
    import mtlsem.interval_based as ib
    import mtlsem.mixed as mixed

    got = _key_lists(engine, model, f)
    with monkeypatch.context() as m:
        m.setattr(ib, "_sat_dense", _reference_sat_dense)
        m.setattr(mixed, "_sat_dense", _reference_sat_dense)
        want = _key_lists(engine, model, f)
    assert got == want, (engine, model, f)


def _model(engine, rho):
    return rho if engine == "itw" else word_to_tss(rho) if engine == "its" else compact(rho)


SUGAR = ("(a | b) U c", "G(a -> F[1,3] b)", "true U[1,2] (a -> false)", "X[0,1] !!a",
         "!!(a & !a) | (!a & !b)", "!(!a & !b) & !(a | c)", "(noact -> X b) U(0,2] !!!c",
         "!(a & !a) U(1/2,2] !(!b & !c)", "G[0,2] (!a & !b) | false", "!a & !a & (b | !b)",
         "F[0,1/2] noact & G(1,2] !(a & !c)")
BETA_SUGAR = ("beta -> !(a & !beta)", "!beta & !a", "(a & !beta) U[0,1] (!beta & !c)",
              "!(!beta & !b) U (beta | !noact)", "G[0,1] (beta -> !X[0,0] a)")


class TestPendingComplements:
    """Every entry of each dense table equals the eager fold's, which walked a
    complement at every negation."""

    @pytest.mark.parametrize("engine", ["itw", "its", "mx"])
    def test_fuzzed_formulas(self, engine, monkeypatch):
        for rho, f in seeded_pairs(600, allow_beta=engine == "mx"):
            _against_the_eager_fold(engine, _model(engine, rho), f, monkeypatch)

    @pytest.mark.parametrize("engine", ["itw", "its", "mx"])
    def test_sugar(self, engine, monkeypatch):
        texts = SUGAR + (BETA_SUGAR if engine == "mx" else ())
        fs = [parse(text, ABC, allow_beta=True) for text in texts]
        for rho in [gen_word(seed) for seed in range(150)] + [_long_word(1), REPEATED]:
            for f in fs:
                _against_the_eager_fold(engine, _model(engine, rho), f, monkeypatch)

    @pytest.mark.parametrize("text, walks", [("(a | b) U c", 0), ("F[0,2] a", 0),
                                             ("G(a -> F[1,3] b)", 1)])
    def test_a_root_only_read_walks_only_the_root(self, text, walks, monkeypatch):
        import mtlsem.interval_based as ib

        walked = []
        real = ib._Table.walk
        monkeypatch.setattr(ib._Table, "walk", lambda t, k: walked.append(real(t, k)) or walked[-1])
        got = sat_set_itw(_long_word(1), parse(text, ABC))
        assert len(walked) == walks
        assert walked == walked[:1] and all(keys is got.keys[1] for keys in walked)


# ---------------------------------------------------------------------------
# point queries on a pending root

def _sample_times(rho):
    """Every event time, every midpoint between two, and one off the base."""
    times = sorted(set(rho.times))
    return times + [(u + v) / 2 for u, v in zip(times, times[1:])] + [times[-1] * Fraction(5, 7)]


class TestPointQueriesOnPendingRoots:
    """eval_* answer at a pending root with one bisect of its operand's list,
    and agree with membership in the walked set."""

    WORDS = [gen_word(seed, max_len=30) for seed in (11, 29)]
    FORMULAS = ("G(a -> F[1,3] b)", "!F[0,1] c", "!(a U c)")

    @staticmethod
    def _no_walk(monkeypatch):
        import mtlsem.interval_based as ib

        def refuse(*_):
            raise AssertionError("a point query walked a complement")
        monkeypatch.setattr(ib._Table, "walk", refuse)

    @pytest.mark.parametrize("engine", ["itw", "its"])
    def test_dense(self, engine, monkeypatch):
        eval_, sat_set = (eval_itw, sat_set_itw) if engine == "itw" else (eval_its, sat_set_its)
        seen = set()
        for rho in self.WORDS:
            model = _model(engine, rho)
            for text in self.FORMULAS:
                f = parse(text, ABC)
                assert f in TABLES[engine](model, f).co  # the root is pending
                want = [sat_set(model, f).member(t) for t in _sample_times(rho)]
                with monkeypatch.context() as m:
                    self._no_walk(m)
                    got = [eval_(model, t, f) for t in _sample_times(rho)]
                assert got == want, (text, rho)
                seen.update(got)
        assert seen == {True, False}

    def test_mx(self, monkeypatch):
        from mtlsem.mixed import eval_mx, sat_set_mx

        for rho in self.WORDS:
            cw = compact(rho)
            assert any(len(acts) > 1 for acts in cw.actions)
            blocks = [(k, t, j) for k, (acts, t) in enumerate(cw.blocks) for j in range(len(acts))]
            stamps = [t for _, t in cw.blocks]
            gaps = [(u + v) / 2 for u, v in zip(stamps, stamps[1:])]
            for text in self.FORMULAS + ("beta", "!beta"):
                f = parse(text, ABC, allow_beta=True)
                s = sat_set_mx(cw, f)
                want = [(k, j) in s.points for k, _, j in blocks] + [s.gap.member(t) for t in gaps]
                with monkeypatch.context() as m:
                    self._no_walk(m)
                    got = [eval_mx(cw, t, j, f) for _, t, j in blocks] + [eval_mx(cw, t, 0, f) for t in gaps]
                assert got == want, (text, rho)

    def test_lassos(self, monkeypatch):
        from mtlsem.encodings import lasso_instance
        from mtlsem.mixed import eval_mx_lasso, sat_set_mx
        from mtlsem.oracle import gen_lasso

        fs = [parse(text, ABC) for text in self.FORMULAS]
        for seed in range(150):
            l = gen_lasso(seed)
            for f in fs:
                rho, g = lasso_instance(l, f)
                want = (sat_set_itw(rho, g).member(0), (0, 0) in sat_set_mx(compact(rho), g).points)
                with monkeypatch.context() as m:
                    self._no_walk(m)
                    assert (eval_itw_lasso(l, f), eval_mx_lasso(l, f)) == want, (seed, f)


# ---------------------------------------------------------------------------
# `_its_table` rescales only the atoms' lists and the domain's ends

OFF_BASE_START = validate_tss([({"a"}, "(1/4,1)"), ({"b"}, "[1,1]"), ({"a", "b"}, "(1,7/4)"),
                               ({"c"}, "[7/4,7/4]"), (set(), "(7/4,3]")], allow_nonzero_start=True)


class TestItsRescalesOnlyTheAtoms:
    FORMULAS = ("F[0,1/3] a", "a U(1/2,5/3] b", "G[0,2/7](a -> F(1/3,1] b)")

    @pytest.mark.parametrize("kappa", [word_to_tss(_long_word(1)), SHARED_STEPS, OFF_BASE_START],
                             ids=["word-image", "shared-steps", "nonzero-start"])
    def test_tables_are_the_parent_ones(self, kappa):
        for text in self.FORMULAS:
            f = parse(text, ABC)
            table, D = _parent_its_table(kappa, f)
            assert D > kappa.columns[0]  # the windows leave the sequence's base
            assert [(node, *s.keys) for node, s in sat_sets_its(kappa, f).items()] == \
                [(node, D, keys) for node, keys in table.items()]
