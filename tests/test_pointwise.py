"""Pointwise evaluation: position sets, single verdicts, and exact lasso verdicts
through `lasso_instance` (bounded windows on a finite unroll).

`TestBitsets` pins the int bitsets to the list-of-bools engine of `shared`."""

import random
from fractions import Fraction

import pytest

from mtlsem import pointwise
from mtlsem.encodings import lasso_instance
from mtlsem.errors import BetaNotAllowedError
from mtlsem.formulas import parse
from mtlsem.gallery import ABC, B_THEN_A, WINDOWED_C
from mtlsem.intervals import INF, interval
from mtlsem.oracle import differential, gen_formula, gen_lasso, oracle_eval_pw
from mtlsem.pointwise import eval_pw, eval_pw_lasso, sat_positions
from mtlsem.structures import lasso, unroll, word
from shared import (RHO1, RHO2, _reference_positions, _reference_until, interval_keys,
                    seeded_pairs)


class TestFinite:
    def test_order_sensitive_distinguishes_swap_pair(self):
        assert 0 in sat_positions(RHO1, B_THEN_A)
        assert 0 not in sat_positions(RHO2, B_THEN_A)

    def test_windowed_start_fails_pointwise(self):
        assert 0 not in sat_positions(RHO1, WINDOWED_C)

    def test_single_evals(self):
        assert eval_pw(RHO1, 0, B_THEN_A)
        assert eval_pw(RHO1, 3, parse("c", ABC))
        assert not eval_pw(RHO1, 0, parse("!a", ABC))

    def test_beta_rejected(self):
        with pytest.raises(BetaNotAllowedError):
            sat_positions(RHO1, parse("beta", ABC, allow_beta=True))

    def test_oracle_agreement(self):
        for w, f in seeded_pairs(1000, 17, 3)[:400]:
            assert differential("pw", w, f) is None, (w, f)


class TestLasso:
    def lassos(self):
        tail = (["c"], ["1"], "1")
        return lasso(RHO1, *tail), lasso(RHO2, *tail)

    def test_order_sensitive_on_infinite_words(self):
        rho_inf, rho_inf_swapped = self.lassos()
        assert eval_pw_lasso(rho_inf, B_THEN_A) is True
        assert eval_pw_lasso(rho_inf_swapped, B_THEN_A) is False

    def test_trivially_true(self):
        rho_inf, _ = self.lassos()
        assert eval_pw_lasso(rho_inf, parse("true", ABC)) is True

    def test_bounded_formulas_match_unrolled_word(self):
        from mtlsem.formulas import horizon
        from mtlsem.structures import duration

        for seed in range(200):
            l = gen_lasso(seed)
            f = gen_formula(seed * 13 + 5, ABC, bounded_only=True)
            deep = max(duration(l.prefix), horizon(f)) + 2 * l.period_duration
            w = unroll(l, deep)
            assert eval_pw_lasso(l, f) == eval_pw(w, 0, f), (l, f)

    def test_unbounded_globally_style(self):
        # a holds at every position of the loop but not of a modified loop
        base = word([("a", 0)])
        all_a = lasso(base, ["a", "a"], ["1/2", "1"], "1")
        with_b = lasso(base, ["a", "b"], ["1/2", "1"], "1")
        always_a = parse("a & G a", ABC)
        assert eval_pw_lasso(all_a, always_a) is True
        assert eval_pw_lasso(with_b, always_a) is False
        assert eval_pw_lasso(with_b, parse("G F b", ABC)) is True
        assert eval_pw_lasso(all_a, parse("G F b", ABC)) is False

    def test_unbounded_release_shape(self):
        # b U a with the a far in the periodic zone
        l = lasso(word([("b", 0), ("b", 1)]), ["b", "a"], ["1", "2"], "2")
        assert eval_pw_lasso(l, parse("b U a", ABC)) is True
        l2 = lasso(word([("b", 0), ("c", 1)]), ["b", "a"], ["1", "2"], "2")
        assert eval_pw_lasso(l2, parse("b U a", ABC)) is False

    def test_fixpoint_agrees_with_compiled_mixed_verdicts(self):
        # an independent path to the same infinite-word verdict: compile to
        # the mixed semantics and take its answer
        from mtlsem.compilers import compile_pw
        from mtlsem.mixed import eval_mx_lasso

        for seed in range(150):
            l = gen_lasso(seed + 1234)
            f = gen_formula(seed * 97 + 11, ABC)
            exact = eval_pw_lasso(l, f)
            via_mx = eval_mx_lasso(l, compile_pw(f, ABC))
            assert via_mx is exact, (l, f)


# ---------------------------------------------------------------------------
# the bitsets against the list-of-bools engine

def _pack(values) -> int:
    """Position i of n at bit n-1-i."""
    return int("".join("1" if v else "0" for v in values), 2)


def _unpack(x: int, n: int) -> list:
    return [c == "1" for c in format(x, f"0{n}b")]


WINDOWS = {
    "[0,inf)": interval(0, INF, True, False),
    "(0,inf)": interval(0, INF, False, False),
    "[0,0]": interval(0, 0),
    "[1,3]": interval(1, 3),
    "(0,2)": interval(0, 2, False, False),
    "[0,1000]": interval(0, 1000),
}
SIZES = [1, 2, 63, 64, 65, 4000, 8000]  # 8,000 digits is past the default str-to-int limit


def _times(rng, n) -> list:
    """3t for n non-decreasing integer times t, about a third of them simultaneous."""
    t, out = 0, []
    for _ in range(n):
        t += rng.choice((0, 0, 1, 1, 2, 5))
        out.append(3 * t)
    return out


def _operands(rng, n) -> dict:
    alternating = [i % 2 == 0 for i in range(n)]
    return {
        "random": ([rng.random() < 0.7 for _ in range(n)], [rng.random() < 0.2 for _ in range(n)]),
        "dense-g": ([rng.random() < 0.5 for _ in range(n)], [rng.random() < 0.8 for _ in range(n)]),
        "all-f": ([True] * n, [rng.random() < 0.05 for _ in range(n)]),
        "no-g": ([rng.random() < 0.9 for _ in range(n)], [False] * n),
        "alternating": (alternating, [not v for v in alternating]),
        "all-f-no-g": ([True] * n, [False] * n),
    }


# shapes that drive each jump of the scan, on key pairs of the ticks: empty
# after rounding, lower ends above 0 with hi = INF, and ticks in steps of 50
JUMP_WINDOWS = [(1, 0), (4, 3), (3, INF), (151, INF), (0, 3), (3, 9), (0, 15),
                (50, 150), (150, 150), (0, 1500)]


def _jump_times(rng, n) -> dict:
    t, steps_of_50 = 0, []
    for _ in range(n):
        t += rng.choice((0, 50, 50, 100))
        steps_of_50.append(t)
    return {"thirds": _times(rng, n), "steps of 50 ticks": steps_of_50}


def _jump_operands(rng, n) -> dict:
    """Witnesses 1 in 500, under an f that mostly holds, always holds, or
    fails at most positions ahead of them."""
    rare = [rng.randrange(500) == 0 for _ in range(n)]
    return {
        "sparse-g": ([rng.random() < 0.95 for _ in range(n)], rare),
        "sparse-g-all-f": ([True] * n, rare),
        "f-failing-ahead": ([rng.random() < 0.1 for _ in range(n)], rare),
    }


class _CountedTicks(tuple):
    """Ticks that count their reads through `__getitem__`, as `bisect` makes them."""
    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


class TestBitsets:
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("window", WINDOWS)
    def test_until_matches_the_list_scan(self, n, window):
        rng = random.Random(f"{n}/{window}")
        times = _times(rng, n)
        keys = interval_keys(WINDOWS[window], 1)
        for name, (lv, rv) in _operands(rng, n).items():
            got = pointwise._until(keys, _pack(lv), _pack(rv), times)
            assert 0 <= got < 1 << n, name
            assert _unpack(got, n) == _reference_until(keys, lv, rv, times), name

    @pytest.mark.parametrize("n", [1, 2, 500, 6000])
    @pytest.mark.parametrize("w", JUMP_WINDOWS)
    def test_jumps_match_the_list_scan(self, n, w):
        rng = random.Random(f"jumps/{n}/{w}")
        for ticks, times in _jump_times(rng, n).items():
            for name, (lv, rv) in _jump_operands(rng, n).items():
                got = pointwise._until(w, _pack(lv), _pack(rv), times)
                assert _unpack(got, n) == _reference_until(w, lv, rv, times), (ticks, name)

    @pytest.mark.parametrize("w", [(3, 9), (0, 15)])
    def test_ticks_read_follow_the_bases_that_hold(self, w):
        # the scan reads ticks near the bases that hold and bisects past the
        # rest; a scan that visits every base reads about 60,000 here
        n = 20_000
        times = _CountedTicks(_times(random.Random(n), n))
        spread = [i % 500 == 250 for i in range(n)]  # 40 witnesses
        for rv, most in (([False] * n, 10), (spread, 2_000)):
            times.reads = 0
            got = pointwise._until(w, (1 << n) - 1, _pack(rv), times)
            assert times.reads <= most, times.reads
            assert _unpack(got, n) == _reference_until(w, [True] * n, rv, times)

    def test_positions_match_the_oracle(self):
        for seed, (w, f) in enumerate(seeded_pairs(1000, 31, 7)):
            want = {i for i in range(len(w)) if oracle_eval_pw(w, i, f)}
            assert sat_positions(w, f) == want, (seed, w, f)

    def test_positions_match_the_list_engine(self):
        for seed, (w, f) in enumerate(seeded_pairs(1000, 17, 3)):
            assert sat_positions(w, f) == _reference_positions(w, f), (seed, w, f)

    @pytest.mark.parametrize("k", [1, 2, 8])
    def test_nested_unbounded_lasso_matches_the_list_engine(self, k):
        # a 51-event prefix over [0,50] and a 20-event period of duration 1:
        # the unroll at k = 8 has 15,391 events
        prefix = word([("abc"[i % 3], i) for i in range(51)])
        l = lasso(prefix, ["abca"[i % 4] for i in range(20)],
                  [f"{i + 1}/20" for i in range(20)], "1")
        for body, verdict in (("b", True), ("(c & !a)", True), ("(a & b)", False)):
            f = parse("G F " * k + body, ABC)
            rho, g = lasso_instance(l, f)
            want = _reference_positions(rho, g)
            assert sat_positions(rho, g) == want
            assert eval_pw_lasso(l, f) is (0 in want) is verdict


# ---------------------------------------------------------------------------
# windows off the half grid: the engine compares tick distances on the word's
# own base D0 against the thresholds ceil(lo / m) and floor(hi / m)

GRIDS = (2, 3, 6)  # the words' events lie on multiples of 1/g
DENOMINATORS = (1, 2, 3, 5, 7)


def _grid_word(g: int, n: int, seed: int):
    """n events on the grid 1/g; steps of 0, 1, 2, g and g + 1 ticks make
    distances of 1/g, 2/g, 1 and 2 common."""
    rng = random.Random(f"{g}/{n}/{seed}")
    t, events = 0, []
    for _ in range(n):
        events.append((rng.choice("abc"), Fraction(t, g)))
        t += rng.choice((0, 1, 1, 2, g, g + 1))
    return word(events)


def _grid_windows() -> list:
    """Windows a/q to b/q (or inf) for each denominator q, under every open and
    closed combination; the bounds 0, 1 and 2 and, with q | g, 1/q and 2/q
    land exactly on distances of the words."""
    out = []
    for q in DENOMINATORS:
        for a, b in ((0, 0), (0, 1), (1, 2), (0, q), (1, q), (q, q), (q, 2 * q), (2, 3 * q + 1),
                     (0, INF), (1, INF), (q, INF)):
            for lo_closed in (True, False):
                for hi_closed in ((False,) if b == INF else (True, False)):
                    if a == b and not (lo_closed and hi_closed):
                        continue
                    hi = INF if b == INF else Fraction(b, q)
                    out.append(interval(Fraction(a, q), hi, lo_closed, hi_closed))
    return out


def _grid_formulas(w) -> list:
    return [parse(text.replace("W", str(w)), ABC)
            for text in ("FW b", "a UW b", "!(b UW !a)", "FW (a & FW c)")]


class TestThresholdsOffTheHalfGrid:
    @pytest.mark.parametrize("g", GRIDS)
    def test_positions_match_the_list_engine(self, g):
        words = [_grid_word(g, 40, seed) for seed in range(2)]
        on_lo = on_hi = 0
        for w in _grid_windows():
            for rho in words:
                times = rho.times
                gaps = {b - a for i, a in enumerate(times) for b in times[i + 1:]}
                on_lo += w.lo.value in gaps
                on_hi += w.hi.value in gaps
                for f in _grid_formulas(w):
                    assert sat_positions(rho, f) == _reference_positions(rho, f), (rho, f)
        assert on_lo > 100 and on_hi > 100  # the data reaches both ends exactly

    @pytest.mark.parametrize("g", GRIDS)
    def test_positions_match_the_oracle(self, g):
        words = [_grid_word(g, 9, seed) for seed in range(2)]
        for w in _grid_windows():
            for rho in words:
                for f in _grid_formulas(w):
                    want = {i for i in range(len(rho)) if oracle_eval_pw(rho, i, f)}
                    assert sat_positions(rho, f) == want, (rho, f)

    # from position 0 of END_WORD the c's lie at distances 1/2 and 7/6
    END_WORD = word([("a", 0), ("b", "1/3"), ("c", "1/2"), ("b", 1), ("c", "7/6")])

    @pytest.mark.parametrize("window, want", [
        ("[1/2,7/6]", True), ("(1/2,7/6)", False), ("[1/2,7/6)", True), ("(1/2,7/6]", True),
        ("[1/3,1/2)", False), ("(1/3,1/2]", True), ("(1/2,7/10]", False), ("(1/2,6/5)", True),
        ("[0,1/2)", False), ("[5/7,8/7]", False), ("[5/7,7/6]", True), ("(1/2,inf)", True),
        ("(7/6,inf)", False),
    ])
    def test_witnesses_on_and_off_the_window_ends(self, window, want):
        f = parse(f"F{window} c", ABC)
        assert eval_pw(self.END_WORD, 0, f) is want
        assert oracle_eval_pw(self.END_WORD, 0, f) is want


# ---------------------------------------------------------------------------
# one-bit verdicts: eval_pw and eval_pw_lasso read the bit sat_positions unpacks

class TestOneBitVerdicts:
    def test_eval_pw_at_every_position(self):
        for seed, (rho, f) in enumerate(seeded_pairs(1000, 31, 7)):
            got = sat_positions(rho, f)
            assert [eval_pw(rho, i, f) for i in range(len(rho))] == [
                i in got for i in range(len(rho))], (seed, rho, f)

    def test_eval_pw_lasso_reads_position_zero(self):
        for seed in range(600):
            l = gen_lasso(seed)
            f = gen_formula(seed * 13 + 5, ABC)
            assert eval_pw_lasso(l, f) is (0 in sat_positions(*lasso_instance(l, f))), (l, f)

    @pytest.mark.parametrize("i", [-1, 4])
    def test_positions_outside_the_word_raise(self, i):
        with pytest.raises(IndexError, match=f"^position {i} out of range$"):
            eval_pw(RHO1, i, parse("a", ABC))
