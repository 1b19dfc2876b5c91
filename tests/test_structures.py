"""Timed words, state sequences, lassos and their class predicates."""

import hashlib
import json
import math
import pickle
import random
from fractions import Fraction

import pytest

from mtlsem.cli import main
from mtlsem.errors import (
    AdjacencyError,
    EmptyWordError,
    FirstTimestampError,
    MtlsemError,
    NonMonotoneError,
    OutOfDomainError,
)
from mtlsem.encodings import compact, uncompact
from mtlsem.formulas import Atom, alphabet, parse
from mtlsem.interval_based import _itw_table, sat_set_itw
from mtlsem.intervals import (
    INF,
    interval,
    interval_pair,
    key_column,
    parse_interval,
    rat_str,
    tick_column,
)
from mtlsem.oracle import gen_formula, gen_lasso, gen_word
from mtlsem.pointwise import sat_positions
from mtlsem.structures import (
    CompactTimedWord,
    Lasso,
    TimedWord,
    duration,
    is_action_based,
    is_strictly_monotone,
    is_stutter_free,
    lasso,
    lasso_to_json,
    mfs_decompose,
    tss_at,
    tss_from_json,
    tss_to_json,
    unroll,
    validate_compact,
    validate_tss,
    validate_word,
    word,
    word_or_lasso_from_json,
    word_to_json,
)
from shared import (SCALES, _interval_loader_columns, _interval_loader_parse,
                    _parent_atom_bits, _parent_atom_points, _rebased, _reference_action_based,
                    _reference_unroll, _reference_verdict, finite_window_bounds, mfs_runs,
                    scaled_words, tss_corpus)

RHO1 = [("a", "0"), ("b", "1"), ("a", "1"), ("c", "3.3")]
RAW_4 = [("a", "1"), ("b", "1.3"), ("c", "3.5"), ("b", "3.5")]


class TestValidateWord:
    def test_raw_word_needs_flag(self):
        w = validate_word(RAW_4, allow_nonzero_start=True)
        assert len(w) == 4
        with pytest.raises(FirstTimestampError):
            validate_word(RAW_4)

    def test_non_monotone_position(self):
        with pytest.raises(NonMonotoneError) as exc:
            validate_word([("a", "1"), ("b", "1.3"), ("c", "1.2"), ("b", "3.5")],
                          allow_nonzero_start=True)
        assert exc.value.position == 2

    def test_swap_word_accepted(self):
        w = word(RHO1)
        assert w.actions == ("a", "b", "a", "c")
        assert w.times[-1] == Fraction(33, 10)

    def test_empty(self):
        with pytest.raises(EmptyWordError):
            validate_word([])


class TestValidateCompact:
    @pytest.mark.parametrize("blocks, position", [
        ([(("a",), "0"), (("b",), "1"), (("c",), "1")], 2),
        ([(("a",), "0"), (("b",), "0")], 1),
        ([(("a",), "0"), (("b",), "2"), (("c",), "3/2"), (("a",), "4")], 2),
        ([(("a",), "0"), (("b",), "1/2"), (("c",), "0.50")], 2),
    ], ids=["equal", "equal-first", "decreasing", "equal-padded"])
    def test_block_times_strictly_increase(self, blocks, position):
        with pytest.raises(NonMonotoneError) as exc:
            validate_compact(blocks)
        assert exc.value.position == position

    @pytest.mark.parametrize("blocks, allow, error, message", [
        ([], False, EmptyWordError, "empty compact timed word"),
        ([(("a",), "0"), ((), "1")], False, EmptyWordError, "empty action block"),
        ([(("a",), "1/2")], False, FirstTimestampError, "first block timestamp must be 0"),
    ], ids=["empty", "empty-block", "nonzero-start"])
    def test_rejections(self, blocks, allow, error, message):
        with pytest.raises(error) as exc:
            validate_compact(blocks, allow)
        assert str(exc.value) == message

    def test_nonzero_start_with_flag(self):
        cw = validate_compact([(("a", "b"), "1/2"), (("c",), "1")], allow_nonzero_start=True)
        assert cw.blocks == ((("a", "b"), Fraction(1, 2)), (("c",), Fraction(1)))

    def test_word_rejection_messages(self):
        with pytest.raises(EmptyWordError, match="^empty timed word$"):
            validate_word([])
        with pytest.raises(FirstTimestampError, match="^first timestamp is 2/3, expected 0$"):
            validate_word([("a", "4/6")])


class TestNegativeStamps:
    """A negative first stamp is rejected under `allow_nonzero_start` too,
    whether it comes as text, int or `Fraction` (which skips `rational`)."""

    @pytest.mark.parametrize("stamp, message", [
        ("-1", "not a nonnegative rational: '-1'"),
        (-1, "negative value not allowed: -1"),
        (Fraction(-1), "negative value not allowed: -1"),
        (Fraction(-1, 2), "negative value not allowed: -1/2"),
    ], ids=["text", "int", "fraction", "fraction-half"])
    def test_both_validators(self, stamp, message):
        with pytest.raises(MtlsemError) as exc:
            validate_word([("a", stamp), ("b", 0)], allow_nonzero_start=True)
        assert str(exc.value) == message
        with pytest.raises(MtlsemError) as exc:
            validate_compact([(("a",), stamp), (("b",), 1)], allow_nonzero_start=True)
        assert str(exc.value) == message

    def test_without_the_flag_the_start_is_named(self):
        with pytest.raises(FirstTimestampError, match="^first timestamp is -1, expected 0$"):
            validate_word([("a", Fraction(-1)), ("b", 0)])

    def test_a_raw_word_starting_at_one_still_loads(self):
        w = validate_word([("a", Fraction(1)), ("b", 2)], allow_nonzero_start=True)
        assert w.times == (Fraction(1), Fraction(2))
        cw = validate_compact([(("a",), Fraction(1))], allow_nonzero_start=True)
        assert cw.blocks == ((("a",), Fraction(1)),)


class TestDuration:
    def test_values(self):
        assert duration(word(RHO1)) == Fraction(33, 10)
        assert duration(word([("a", 0)])) == 0
        assert duration(validate_word(RAW_4, allow_nonzero_start=True)) == Fraction(7, 2)


def brute_mfs(times):
    """Independent maximal-run scan used as the oracle for mfs_decompose."""
    bounds = []
    i = 0
    while i < len(times):
        j = i
        while j + 1 < len(times) and times[j + 1] == times[i]:
            j += 1
        bounds.append(j)
        i = j + 1
    return tuple(bounds)


class TestMfs:
    def test_swap_word_runs(self):
        times = word(RHO1).times
        assert brute_mfs(times) == (0, 2, 3)
        assert mfs_decompose(times) == (0, 2, 3)
        assert mfs_decompose(word(RHO1).ticks[1]) == (0, 2, 3)  # (0, 10, 10, 33) on D0 = 10

    def test_strictly_increasing_all_trivial(self):
        assert mfs_decompose([Fraction(0), Fraction(1), Fraction(2)]) == (0, 1, 2)
        assert mfs_decompose([0, 1, 2]) == (0, 1, 2)

    def test_constant_pair(self):
        assert mfs_decompose([Fraction(0), Fraction(0)]) == (1,)
        assert mfs_decompose((0, 0)) == (1,)

    def test_empty(self):
        with pytest.raises(EmptyWordError, match="^empty time sequence$"):
            mfs_decompose([])
        with pytest.raises(EmptyWordError, match="^empty time sequence$"):
            mfs_decompose(iter(()))

    def test_an_iterator_is_read_once(self):
        assert mfs_decompose(iter([3, 3, 5])) == (1, 2)
        assert mfs_decompose(t for t in [Fraction(1, 2)]) == (0,)

    def test_runs_partition_fuzzed(self):
        rng = random.Random(5)
        for _ in range(300):
            times = []
            t = Fraction(0)
            for _ in range(rng.randint(1, 10)):
                times.append(t)
                t += rng.choice([Fraction(0), Fraction(1, 2), Fraction(1)])
            ends = mfs_decompose(times)
            assert type(ends) is tuple and ends == brute_mfs(times)
            assert mfs_decompose([int(2 * t) for t in times]) == ends  # the ticks on D0 = 2
            runs = mfs_runs(ends)
            flat = [i for s, e in runs for i in range(s, e + 1)]
            assert flat == list(range(len(times)))
            for s, e in runs:
                assert len({times[i] for i in range(s, e + 1)}) == 1
                if s > 0:
                    assert times[s - 1] < times[s]
                if e + 1 < len(times):
                    assert times[e] < times[e + 1]


class TestWordClasses:
    def test_examples(self):
        assert is_strictly_monotone(word([("a", 0), ("c", 3)]))
        assert is_stutter_free(word([("a", 0), ("c", 3)]))
        w = word([("a", 0), ("b", 1), ("a", 1), ("c", 3)])
        assert is_stutter_free(w) and not is_strictly_monotone(w)
        assert not is_stutter_free(word([("a", 0), ("b", 1), ("a", 1), ("b", 1), ("c", 3)]))

    def test_strict_implies_stutter_free_fuzzed(self):
        rng = random.Random(6)
        for _ in range(300):
            events = []
            t = Fraction(0)
            for _ in range(rng.randint(1, 8)):
                events.append((rng.choice("abc"), t))
                t += rng.choice([Fraction(0), Fraction(1, 2), Fraction(1)])
            w = word(events)
            if is_strictly_monotone(w):
                assert is_stutter_free(w)


KAPPA_OK = [
    [["p"], "[1,2)"],
    [["p", "q"], "[2,3)"],
    [["q"], "[3,3]"],
    [["p"], "(3,3.4]"],
]


class TestTss:
    def test_lookup(self):
        k = validate_tss(KAPPA_OK, allow_nonzero_start=True)
        assert tss_at(k, "1.2") == {"p"}
        assert tss_at(k, "2.2") == {"p", "q"}
        assert tss_at(k, 3) == {"q"}
        assert tss_at(k, "3.1") == {"p"}

    def test_adjacency_violation(self):
        with pytest.raises(AdjacencyError) as exc:
            validate_tss(
                [[["p"], "[1,2)"], [["p", "q"], "[2,3]"], [["p"], "[3,3.4]"]],
                allow_nonzero_start=True,
            )
        assert exc.value.position == 2

    def test_out_of_domain(self):
        k = validate_tss(KAPPA_OK, allow_nonzero_start=True)
        with pytest.raises(OutOfDomainError):
            tss_at(k, "1/2")

    def test_empty_props_step(self):
        k = validate_tss([[["a"], "[0,0]"], [[], "(0,1)"], [["a", "b"], "[1,1]"]])
        assert tss_at(k, "1/2") == frozenset()

    def test_last_interval_must_close(self):
        with pytest.raises(MtlsemError):
            validate_tss([[["a"], "[0,1)"]])


class TestActionBased:
    def test_examples(self):
        good = validate_tss([[["a"], "[0,0]"], [[], "(0,1)"], [["a", "b"], "[1,1]"]])
        assert is_action_based(good)
        bad1 = validate_tss([[["a"], "[0,0]"], [["a", "b"], "(0,1)"], [[], "[1,1]"]])
        assert not is_action_based(bad1)
        bad2 = validate_tss([[[], "[0,0]"], [["b"], "(0,1)"], [["a", "b"], "[1,1]"]])
        assert not is_action_based(bad2)

    def test_roundtrip_json(self):
        k = validate_tss(KAPPA_OK, allow_nonzero_start=True)
        assert tss_from_json(tss_to_json(k), allow_nonzero_start=True) == k


def _random_steps(rng):
    """Steps that are mostly adjacent, with flipped end flags, gaps, overlaps,
    an `inf` end and nonzero starts mixed in, on bases up to above 2^64."""
    den = rng.choice([1, 2, 3, 7, 10, 2**64 + 13])
    value = Fraction(rng.choice([0, 0, 0, 1, rng.randrange(1, 9)]), den)
    closed = rng.random() < 0.8
    steps = []
    for i in range(rng.randint(0, 7)):
        punct = closed and rng.random() < (0.7 if i % 2 == 0 else 0.2)
        if punct:
            hi, hi_closed = value, True
        elif rng.random() < 0.08:
            hi, hi_closed = math.inf, False
        else:
            hi, hi_closed = value + Fraction(rng.randint(1, 4), den), rng.random() < 0.5
        props = (frozenset("p" * (i % 2 == 0)) if rng.random() < 0.7  # action-based-like
                 else frozenset(rng.sample("pq", rng.randint(0, 2))))
        steps.append((props, interval(value, hi, closed, hi_closed)))
        if hi == math.inf:
            break
        r = rng.random()
        value = (hi + Fraction(1, den) if r < 0.05          # a gap
                 else max(0, hi - Fraction(1, den)) if r < 0.1  # an overlap
                 else hi)
        closed = (not hi_closed) if rng.random() < 0.9 else hi_closed  # a flag kept
    return steps


class TestKeyedRules:
    """`validate_tss` and `is_action_based` read keys; each must give what the
    Interval rules give."""

    def test_validation_matches_the_interval_rules(self):
        rng = random.Random(31)
        outcomes = set()
        for _ in range(4000):
            steps = _random_steps(rng)
            allow = rng.random() < 0.3
            want = _reference_verdict(steps, allow)
            try:
                kappa = validate_tss(steps, allow_nonzero_start=allow)
            except MtlsemError as exc:
                got = type(exc), getattr(exc, "position", None)
            else:
                got = None
                assert kappa.steps == tuple(steps)
                assert is_action_based(kappa) is _reference_action_based(steps)
                outcomes.add(("action based", is_action_based(kappa)))
            assert got == want, steps
            outcomes.add(want and want[0])
        assert outcomes == {None, EmptyWordError, AdjacencyError, FirstTimestampError,
                            MtlsemError, ("action based", True), ("action based", False)}


def _scan_at(kappa, t):
    """The propositions of the first step whose Interval contains t, or None."""
    for props, iv in kappa.steps:
        if iv.contains(t):
            return props
    return None


def _spelled(rng, iv) -> str:
    """iv's text with each end in one of the accepted forms (see `_texts`)."""
    return (("[" if iv.lo.closed else "(") + str(_texts(rng, iv.lo.value)) + ","
            + ("inf)" if iv.hi.value == INF else
               str(_texts(rng, iv.hi.value)) + ("]" if iv.hi.closed else ")")))


LONG = "9" * 5000  # past int's digit limit
INTERVAL_SPELLINGS = [
    "[0.50,1]", "[2/4,0.75]", "[1 / 2,3/4)", "( 1 / 2 , 2 )", " [0 ,1] ", "[00.250,7/4)",
    "[0,inf)", "(1/3, inf)", "[0,0]", "(3,3.4]", "[3.10,31/10]", "[6/4,3/2]",
    f"[1/{2**64 + 13},1]", f"[0,{2**70}/{3**40})",
    # errors, each with its message
    "[1,inf]", "[2,1/2]", "(1,1]", "[1,1)", "(1/2,2/4)", "[1,2", "[a,1]", "[1/0,2]",
    "[-1,2]", "[inf,inf)", f"[0,{LONG}]", f"[0.5,{LONG}/3)", f"[0,1/{LONG})",
]


class TestLoadedStateSequences:
    def test_padded_and_unreduced_texts_load_on_the_least_base(self):
        """`tss_from_json` reads each step text straight to its keys: written
        in any accepted form, the steps load to the columns `validate_tss`
        gives their Intervals."""
        rng = random.Random(19)
        for kappa in tss_corpus():
            steps = [[sorted(props), _spelled(rng, iv)] for props, iv in kappa.steps]
            assert tss_from_json({"steps": steps}, allow_nonzero_start=True).columns \
                == kappa.columns, steps

    def test_texts_load_as_the_interval_loader_did(self):
        rng = random.Random(20)
        for kappa in tss_corpus():
            steps = [[sorted(props), _spelled(rng, iv)] for props, iv in kappa.steps]
            obj = {"steps": steps}
            assert tss_from_json(obj, allow_nonzero_start=True).columns \
                == _interval_loader_columns(obj), steps

    @pytest.mark.parametrize("text", INTERVAL_SPELLINGS)
    def test_interval_pair_reads_as_the_interval_loader_did(self, text):
        try:
            want = key_column([_interval_loader_parse(text)])
        except MtlsemError as exc:
            with pytest.raises(MtlsemError) as got:
                interval_pair(text)
            assert str(got.value) == str(exc)
            with pytest.raises(MtlsemError) as got:
                parse_interval(text)
            assert str(got.value) == str(exc)
        else:
            D, (pair,) = want
            assert interval_pair(text) == (D, pair)
            assert parse_interval(text) == _interval_loader_parse(text)

    def test_loading_builds_no_interval(self, monkeypatch):
        """A state-sequence JSON loads to keys: no `interval` and no
        `key_intervals` call, in any module that holds the names."""
        import sys

        calls = []
        for name in ("interval", "key_intervals"):
            for module in [m for n, m in sys.modules.items() if n.startswith("mtlsem")]:
                if hasattr(module, name):
                    real = getattr(module, name)
                    monkeypatch.setattr(module, name,
                                        lambda *a, real=real, name=name: calls.append(name) or real(*a))
        kappa = tss_from_json({"steps": [[["a"], "[0,0]"], [[], "(0, 0.50)"], [["b"], "[2/4,1/2]"],
                                         [[], "(1/2, 1)"], [[], "[1,1]"]]})
        assert kappa.columns == (2, ((0, 0), (1, 2), (3, 3), (4, 5), (6, 6)),
                                 (frozenset("a"), frozenset(), frozenset("b"), frozenset(),
                                  frozenset()))
        assert calls == []
        kappa.steps  # the view is built on first read, through the patched name
        assert calls == ["key_intervals"]


class TestKeyedLookupAndRendering:
    def test_lookup_matches_a_linear_scan(self):
        rng = random.Random(32)
        for kappa in tss_corpus():
            ends = sorted({v for _, iv in kappa.steps for v in (iv.lo.value, iv.hi.value)})
            first, last = ends[0], ends[-1]
            times = ends + [(a + b) / 2 for a, b in zip(ends, ends[1:])]
            times += [last + 1, last + Fraction(1, 10**30), first / 2, Fraction(0)]
            times += [first + (last - first) * Fraction(rng.randrange(1, 10**6),
                                                       rng.choice([10**6 + 3, 2**67 + 1]))
                      for _ in range(10)]
            for t in times:
                want = _scan_at(kappa, t)
                if want is None:
                    with pytest.raises(OutOfDomainError):
                        tss_at(kappa, t)
                else:
                    assert tss_at(kappa, t) == want, (str(kappa), t)
            assert _scan_at(kappa, last + Fraction(1, 10**30)) is None

    def test_repr_names_the_class(self):
        rho = word([("a", "0"), ("b", "1/2"), ("c", "1/2")])
        assert repr(rho) == "TimedWord((a,0)(b,1/2)(c,1/2))"
        assert repr(compact(rho)) == "CompactTimedWord(((a),0)((b,c),1/2))"

    def test_rendering_matches_str_of_the_intervals(self):
        for kappa in tss_corpus():
            want = {"steps": [[sorted(props), str(iv)] for props, iv in kappa.steps]}
            assert json.dumps(tss_to_json(kappa)) == json.dumps(want)
            assert str(kappa) == "".join("({" + ",".join(sorted(props)) + "}," + str(iv) + ")"
                                         for props, iv in kappa.steps)


class TestLasso:
    def lasso1(self):
        return lasso(word(RHO1), ["c"], ["1"], "1")

    def test_unroll_example(self):
        w = unroll(self.lasso1(), 6)
        assert w.events[4:] == (("c", Fraction(43, 10)), ("c", Fraction(53, 10)))

    def test_unroll_to_prefix_duration(self):
        assert unroll(self.lasso1(), "3.3") == word(RHO1)

    def test_two_periods_counting(self):
        l = lasso(word([("a", 0)]), ["a", "b"], ["1/2", "1"], "2")
        w = unroll(l, 4)
        assert len(w) == 1 + 4  # two full copies fit below the horizon
        assert w.times == (0, Fraction(1, 2), 1, Fraction(5, 2), 3)

    def test_prefix_consistency(self):
        rng = random.Random(12)
        for _ in range(100):
            n = rng.randint(1, 3)
            offs = sorted(rng.choice([Fraction(0), Fraction(1, 2), Fraction(1)]) for _ in range(n))
            l = lasso(word([("a", 0), ("b", 1)]),
                      [rng.choice("abc") for _ in range(n)],
                      offs, Fraction(3, 2))
            h1 = Fraction(rng.randint(2, 6))
            h2 = h1 + Fraction(rng.randint(0, 4))
            big = unroll(l, h2)
            small = unroll(l, h1)
            assert tuple(e for e in big.events if e[1] <= h1) == small.events

    def test_unroll_never_splits_a_flat_run(self):
        # equal timestamps are included or excluded together by a timestamp cut
        l = lasso(word([("a", 0)]), ["a", "b"], ["1", "1"], "2")
        assert unroll(l, 3).times[-2:] == (3, 3)
        assert unroll(l, "5/2").times[-1] == 1

    def test_zero_duration_rejected(self):
        with pytest.raises(MtlsemError):
            lasso(word([("a", 0)]), ["a"], ["0"], "0")

    def test_json_roundtrip(self):
        l = self.lasso1()
        assert word_or_lasso_from_json(lasso_to_json(l)) == l
        w = word(RHO1)
        assert word_or_lasso_from_json(word_to_json(w)) == w

    def test_equal_values_written_apart_give_equal_lassos(self):
        lassos = [word_or_lasso_from_json({"events": [["a", "0"], ["b", "1/3"]], "period": {
            "actions": ["c", "a"], "offsets": [half, "1"], "duration": whole}})
            for half, whole in (("1/2", "3/2"), ("0.5", "1.5"), ("2/4", "6/4"))]
        lassos.append(lasso(word([("a", 0), ("b", "1/3")]), ["c", "a"],
                            [Fraction(1, 2), 1], Fraction(3, 2)))
        assert len(set(lassos)) == 1
        assert len({hash(l) for l in lassos}) == 1

    # The SHA-256 of the period views and the JSON form of gen_lasso seeds
    # 0-2,999, one line per seed: the views stay Fractions of the same values.
    VIEWS_DIGEST = "7694c6e9d179434b6cc97c5ef2f9adaa811c1766ffb4ca403267f50731dcce86"

    def test_views_and_json_of_generated_lassos_are_pinned(self):
        lines = []
        for seed in range(3000):
            l = gen_lasso(seed)
            lines.append(repr((l.period_offsets, l.period_duration))
                         + json.dumps(lasso_to_json(l)))
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == self.VIEWS_DIGEST

    def test_a_period_below_the_prefix_base_unrolls_on_the_prefix_base(self):
        # the period is given on base 1, the prefix needs base 2
        w = word([("a", 0), ("b", "1/2")])
        l = Lasso(w, ("c",), (1, (0,), 1))
        assert l.period == (2, (0,), 2)
        assert unroll(l, 2) == word([("a", 0), ("b", "1/2"), ("c", "1/2"), ("c", "3/2")])

    def test_equal_periods_on_other_bases_give_equal_lassos(self):
        w = word([("a", 0), ("b", "1/2")])
        want = lasso(w, ["c"], ["1/2"], "1")
        assert want.period == (2, (1,), 2)
        for period in ((4, (2,), 4), (12, (6,), 12), (1, (0,), 1)):
            l = Lasso(w, ("c",), period)
            assert (l == want) is (period[1] != (0,))
            if l == want:
                assert hash(l) == hash(want)
                assert l.period == want.period
                assert (l.period_offsets, l.period_duration) == (
                    want.period_offsets, want.period_duration)
                assert lasso_to_json(l) == lasso_to_json(want)
        w3 = word([("a", 0), ("b", "1/3")])  # base 3 and a period on 4: least base 6
        assert Lasso(w3, ("c",), (4, (2,), 6)).period == (6, (3,), 9)
        assert Lasso(w3, ("c",), (4, (2,), 6)) == lasso(w3, ["c"], ["1/2"], "3/2")

    @pytest.mark.parametrize("base", [0, -2])
    def test_a_period_on_a_base_below_one_is_rejected(self, base):
        with pytest.raises(MtlsemError, match="^period: the time base must be positive$"):
            Lasso(word([("a", 0)]), ("c",), (base, (1,), 2))


# ---------------------------------------------------------------------------
# words on the integer base from construction

def _texts(rng, q: Fraction):
    """q written as JSON in one of the forms the wire format accepts: reduced,
    unreduced, spaced, padded decimal, leading zeros or a plain int."""
    p, r = q.numerator, q.denominator
    forms = [str(q), f"{2 * p}/{2 * r}", f" {p} / {r} ", f"0{p}/{r}"]
    if r == 1:
        forms += [p, f"{p}.0"]
    k = next((k for k in range(1, 7) if 10 ** k % r == 0), None)
    if k is not None:  # a terminating decimal, padded with a zero
        digits = str(p * 10 ** k // r).rjust(k + 1, "0")
        forms.append(f"{digits[:-k]}.{digits[-k:]}0")
    return rng.choice(forms)


def _reference_value(text) -> Fraction:
    """The standard library's reading, independent of `intervals`."""
    return Fraction(text) if isinstance(text, int) else Fraction(text.replace(" ", ""))


def stored(w):
    """The columns w holds before any view is read: only its actions and its
    ticks, on the least base that holds them."""
    assert set(vars(w)) == {"actions", "ticks"}, vars(w).keys()
    D0, ticks = w.ticks
    assert type(ticks) is tuple and math.gcd(D0, *ticks) == 1
    return w.actions, w.ticks


class TestLoadedWordsCarryTicks:
    def test_loaded_words_equal_validated_fraction_words(self):
        rng = random.Random(15)
        for seed, w in scaled_words():
            for obj in (word_to_json(w),
                        {"events": [[a, _texts(rng, t)] for a, t in w.events]}):
                got = word_or_lasso_from_json(obj)
                want = validate_word([(a, _reference_value(t)) for a, t in obj["events"]])
                assert stored(got) == stored(want)
                assert stored(got) == (tuple(a for a, _ in w.events),
                                       tick_column([t for _, t in w.events]))
                assert got == want == w, (seed, obj)
                assert got.times == tuple(t for _, t in w.events)

    def test_unreduced_and_padded_texts_read_as_their_value(self):
        padded = word_or_lasso_from_json(
            {"events": [["a", 0], ["b", "2/4"], ["c", "0.50"], ["a", 1], ["b", "3.30"]]})
        plain = word([("a", "0"), ("b", "1/2"), ("c", "1/2"), ("a", "1"), ("b", "33/10")])
        assert stored(padded) == stored(plain)
        assert padded.ticks == (10, (0, 5, 5, 10, 33)) == tick_column(plain.times)
        assert padded == plain
        assert word_to_json(padded) == word_to_json(plain)

    def test_nonzero_start_words_keep_their_base(self):
        rng = random.Random(16)
        for seed, w in scaled_words():
            shift = Fraction(seed % 7, 3)
            events = [[a, _texts(rng, t + shift)] for a, t in w.events]
            got = word_or_lasso_from_json({"events": events}, allow_nonzero_start=True)
            assert stored(got)[1] == tick_column([t + shift for _, t in w.events])
            assert got.times == tuple(t + shift for _, t in w.events)

    def test_loaded_lassos_equal_their_source(self):
        rng = random.Random(17)
        for seed in range(500):
            l = gen_lasso(seed)
            obj = lasso_to_json(l)
            assert word_or_lasso_from_json(obj) == l
            obj["events"] = [[a, _texts(rng, _reference_value(t))] for a, t in obj["events"]]
            obj["period"]["offsets"] = [_texts(rng, _reference_value(o))
                                        for o in obj["period"]["offsets"]]
            got = word_or_lasso_from_json(obj)
            assert stored(got.prefix) == stored(l.prefix)
            assert got == l, seed

    def test_validated_words_read_their_ticks(self):
        for seed, w in scaled_words():
            got = validate_word(w.events)
            assert stored(got) == (tuple(a for a, _ in w.events),
                                   tick_column(tuple(t for _, t in w.events)))


# ---------------------------------------------------------------------------
# words and compact words on their columns, against their Fraction pairs

BIG = 2**64 + 13  # a prime denominator past 64 bits
BASES = (1, 3, 10, BIG, 3 * BIG)


def _random_events(rng, start=Fraction(0)):
    """Up to 12 events on a random base of BASES, with stutters and repeats."""
    D = rng.choice(BASES)
    t, out = start, []
    for _ in range(rng.randint(1, 12)):
        out.append((rng.choice("abc"), t))
        t += Fraction(rng.choice((0, 0, 1, 2, D, 3 * D + 1)), D)
    return out


def _blocks_of(events):
    """The compact blocks of events, by Fraction comparison."""
    blocks = []
    for a, t in events:
        if blocks and blocks[-1][1] == t:
            blocks[-1] = (blocks[-1][0] + (a,), t)
        else:
            blocks.append(((a,), t))
    return blocks


def _texts_of(events):
    return [(a, rat_str(t)) for a, t in events]


class TestWordColumns:
    def test_events_and_blocks_round_trip(self):
        rng = random.Random(18)
        for _ in range(400):
            events = _random_events(rng, rng.choice((Fraction(0), Fraction(5, BIG))))
            blocks = _blocks_of(events)
            allow = events[0][1] != 0
            for w in (TimedWord(events), validate_word(events, allow),
                      validate_word(_texts_of(events), allow),
                      word_or_lasso_from_json(word_to_json(TimedWord(events)), allow)):
                assert w.events == tuple(events) and w.actions == tuple(a for a, _ in events)
                assert w.times == tuple(t for _, t in events)
            for cw in (CompactTimedWord(blocks), validate_compact(blocks, allow),
                       compact(TimedWord(events))):
                assert cw.blocks == tuple(blocks)
                assert uncompact(cw).events == tuple(events)

    def test_equality_and_hash_across_constructors(self):
        rng = random.Random(19)
        for _ in range(400):
            events = _random_events(rng)
            tail = rng.choice(("a", "b"))
            l = lasso(TimedWord(events), [tail], ["1"], "2")
            whole = events + [(tail, events[-1][1] + 1)]
            words = [TimedWord(whole), validate_word(whole), validate_word(_texts_of(whole)),
                     word_or_lasso_from_json({"events": [list(e) for e in _texts_of(whole)]}),
                     unroll(l, events[-1][1] + 1), unroll(l, events[-1][1] + Fraction(5, 2)),
                     uncompact(compact(TimedWord(whole))),
                     uncompact(validate_compact(_blocks_of(whole)))]
            for w in words:
                assert w == words[0] and hash(w) == hash(words[0])
                assert stored(w) == stored(words[0])
            cws = [CompactTimedWord(_blocks_of(whole)), validate_compact(_blocks_of(whole)),
                   compact(words[0]), compact(words[3])]
            for cw in cws:
                assert cw == cws[0] and hash(cw) == hash(cws[0]) and stored(cw) == stored(cws[0])
            assert cws[0] != words[0]
            moved = TimedWord([(a, t + Fraction(1, BIG)) for a, t in whole])
            assert moved != words[0] and moved.ticks != words[0].ticks

    def test_rendering_matches_the_fraction_rendering(self):
        rng = random.Random(20)
        for _ in range(400):
            events = _random_events(rng, rng.choice((Fraction(0), Fraction(7, 3 * BIG))))
            allow = events[0][1] != 0
            want = "".join(f"({a},{rat_str(t)})" for a, t in events)
            want_json = json.dumps({"events": [[a, rat_str(t)] for a, t in events]})
            blocks = _blocks_of(events)
            want_compact = "".join("((" + ",".join(acts) + f"),{rat_str(t)})"
                                   for acts, t in blocks)
            for w in (TimedWord(events), validate_word(_texts_of(events), allow),
                      word_or_lasso_from_json({"events": [list(e) for e in _texts_of(events)]},
                                              allow)):
                assert str(w) == want
                assert json.dumps(word_to_json(w)) == want_json
                assert str(compact(w)) == want_compact
                assert compact(w).time_texts() == [rat_str(t) for _, t in blocks]
                assert set(vars(w)) == {"actions", "ticks"}  # rendered without a view


def _index_inputs():
    """gen_word seeds 0-299, one-event words, and a 200-event word over 20 symbols
    in the bench's `wide` style: each with the names to ask for, one of them absent."""
    rng = random.Random(37)
    t, wide = Fraction(0), []
    for _ in range(200):
        wide.append((f"s{rng.randrange(20)}", t))
        t += rng.choice((Fraction(0), Fraction(1, 3), Fraction(1), Fraction(5, 2)))
    words = [gen_word(seed) for seed in range(300)]
    words += [word([(a, "0")]) for a in "abc"] + [TimedWord([("b", Fraction(7, 2))])]
    return ([(w, ("a", "b", "c", "d")) for w in words]
            + [(TimedWord(wide), tuple(f"s{i}" for i in range(21)))])


class TestActionIndex:
    """Each entry of a word's per-action index equals the atom the evaluations
    built before the index (`shared`), on names present and absent alike."""

    @pytest.mark.parametrize("window", ["", "F[0,1/7] "])
    def test_entries_equal_the_parent_atoms(self, window):
        for rho, names in _index_inputs():
            n = len(rho)
            f = parse(window + "(" + " | ".join(names) + ")", alphabet(names))
            table = _itw_table(rho, f)
            times = _rebased(rho.ticks, finite_window_bounds(f))[1]
            for name in names:
                bits = _parent_atom_bits(rho, name)
                assert rho.action_bits(name) == bits
                assert rho.action_ticks(name) == tuple(dict.fromkeys(
                    rho.ticks[1][i] for i in range(n) if bits >> (n - 1 - i) & 1))
                assert table[Atom(name)] == _parent_atom_points(rho, name, times)

    def test_ticks_equal_a_plain_scan(self):
        """Each entry holds the distinct ticks of its action in increasing order,
        on words that repeat an action at one stamp and names that do not occur."""
        repeats = 0
        for rho, names in _index_inputs():
            D0, ticks = rho.ticks
            pairs = list(zip(rho.actions, ticks))
            repeats += len(set(pairs)) < len(pairs)
            for name in names:
                want = sorted({v for a, v in pairs if a == name})
                assert list(rho.action_ticks(name)) == want
                assert [Fraction(v, D0) for v in want] == sorted(
                    {t for a, t in rho.events if a == name})
        assert repeats > 50

    def test_a_filled_index_keeps_equality_hash_and_pickle(self):
        for rho, names in _index_inputs()[::25]:
            for name in names:
                rho.action_bits(name), rho.action_ticks(name)
            fresh = TimedWord(rho.events)
            back = pickle.loads(pickle.dumps(rho))
            for w in (rho, back):
                assert w == fresh and fresh == w and hash(w) == hash(fresh)
            assert [back.action_bits(a) for a in names] == [fresh.action_bits(a) for a in names]
            assert pickle.loads(pickle.dumps(fresh)) == rho

    def test_a_second_formula_reads_no_action_column(self):
        """Once a formula has filled the index, another over the same atoms
        evaluates on a word whose action column can be counted but not read."""
        inputs = _index_inputs()
        for seed, (rho, names) in enumerate(inputs[:300:3] + inputs[300:]):
            fresh = TimedWord(rho.events)
            sigma = alphabet(names)
            first = parse(" & ".join(names), sigma)
            sat_positions(rho, first), sat_set_itw(rho, first)
            rho.actions = _Unread(rho.actions)
            for g in (gen_formula(seed, sigma), gen_formula(seed, sigma, bounded_only=True)):
                assert sat_positions(rho, g) == sat_positions(fresh, g)
                assert sat_set_itw(rho, g) == sat_set_itw(fresh, g)
            with pytest.raises(AssertionError):
                rho.action_bits("e")  # a name the index has not met reads the column


class _Unread(tuple):
    """An action column whose length can be read and nothing else."""

    def __iter__(self):
        raise AssertionError("the action column was read")

    def __getitem__(self, i):
        raise AssertionError("the action column was read")


class TestUnrollOnTicks:
    def test_unroll_equals_the_fraction_reference(self):
        for seed in range(500):
            src = gen_lasso(seed)
            k = SCALES[seed % len(SCALES)]
            l = lasso(validate_word([(a, t * k) for a, t in src.prefix.events]),
                      src.period_actions, [o * k for o in src.period_offsets],
                      src.period_duration * k)
            p, P = duration(l.prefix), l.period_duration
            # horizons on the lasso's base and off it: sevenths and elevenths
            # are no denominator of any lasso here
            for h in (p, p + P, p + 3 * P, p + Fraction(1, 7), p + 2 * P + Fraction(5, 11),
                      p + 4 * P - Fraction(1, 7)):
                got, want = unroll(l, h), _reference_unroll(l, h)
                assert stored(got) == stored(want)
                assert got == want, (seed, h)
                assert got.events == want.events

    def test_horizon_below_the_prefix_is_rejected(self):
        l = lasso(word(RHO1), ["c"], ["1"], "1")
        with pytest.raises(MtlsemError, match="horizon must cover"):
            unroll(l, Fraction(329, 100))


# ---------------------------------------------------------------------------
# the loader's error paths: exact messages, exit 3

LOADER_ERRORS = [
    ("bool time", {"events": [["a", "0"], ["b", True]]}, False,
     "malformed input: events[1][1] must be a rational string or integer"),
    ("float time", {"events": [["a", 0.5]]}, False,
     "malformed input: events[0][1] must be a rational string or integer"),
    ("negative int", {"events": [["a", 0], ["b", -1]]}, False,
     "malformed input: events[1][1]: negative value not allowed: -1"),
    ("zero denominator", {"events": [["a", "0"], ["b", "1/0"]]}, False,
     "malformed input: events[1][1]: zero denominator: '1/0'"),
    ("spaced zero denominator", {"events": [["a", "0"], ["b", " 1 / 0 "]]}, False,
     "malformed input: events[1][1]: zero denominator: '1 / 0'"),
    ("bad text", {"events": [["a", "0"], ["b", "x"]]}, False,
     "malformed input: events[1][1]: not a nonnegative rational: 'x'"),
    ("signed text", {"events": [["a", "0"], ["b", "-1"]]}, False,
     "malformed input: events[1][1]: not a nonnegative rational: '-1'"),
    ("short pair", {"events": [["a", "0"], ["b"]]}, False,
     "malformed input: events[1] must be an [action, time] pair"),
    ("long pair", {"events": [["a", "0", "1"]]}, False,
     "malformed input: events[0] must be an [action, time] pair"),
    ("action not a string", {"events": [[1, "0"]]}, False,
     "malformed input: events[0] must be an [action, time] pair"),
    ("events not a list", {"events": "a"}, False,
     "malformed input: events must be a list of [action, time] pairs"),
    ("empty events", {"events": []}, False, "empty timed word"),
    ("decrease at 2", {"events": [["a", "0"], ["b", "2"], ["c", "3/2"], ["a", "1"]]}, False,
     "timestamps decrease at position 2"),
    ("padded decrease at 3", {"events": [["a", "0"], ["b", "0.50"], ["c", "2/4"],
                                         ["a", "0.4"]]}, True,
     "timestamps decrease at position 3"),
    ("nonzero start", {"events": [["a", "1/2"], ["b", "1"]]}, False,
     "first timestamp is 1/2, expected 0"),
    ("padded nonzero start", {"events": [["a", "0.50"], ["b", "1"]]}, False,
     "first timestamp is 1/2, expected 0"),
    ("period offset", {"events": [["a", "0"]], "period": {
        "actions": ["b", "c"], "offsets": ["1", "1/0"], "duration": "2"}}, False,
     "malformed input: period.offsets[1]: zero denominator: '1/0'"),
    ("period duration", {"events": [["a", "0"]], "period": {
        "actions": ["b"], "offsets": ["1"], "duration": True}}, False,
     "malformed input: period.duration must be a rational"),
    # the first bad field is named, whatever comes after it
    ("stamp ahead of a shape", {"events": [["a", "x"], ["b"]]}, False,
     "malformed input: events[0][1]: not a nonnegative rational: 'x'"),
    ("shape ahead of a stamp", {"events": [["a", "0"], ["b"], ["c", "x"]]}, False,
     "malformed input: events[1] must be an [action, time] pair"),
    ("two bad stamps", {"events": [["a", "0"], ["b", "1/0"], ["c", "y"]]}, False,
     "malformed input: events[1][1]: zero denominator: '1/0'"),
    ("two bad stamps swapped", {"events": [["a", "0"], ["b", "y"], ["c", "1/0"]]}, False,
     "malformed input: events[1][1]: not a nonnegative rational: 'y'"),
    ("same bad text twice", {"events": [["a", "0"], ["b", "z"], ["c", "1"], ["a", "z"]]},
     False, "malformed input: events[1][1]: not a nonnegative rational: 'z'"),
    ("one then true", {"events": [["a", 0], ["b", 1], ["c", True]]}, False,
     "malformed input: events[2][1] must be a rational string or integer"),
    ("zero then false", {"events": [["a", 0], ["b", False]]}, False,
     "malformed input: events[1][1] must be a rational string or integer"),
    ("list then dict", {"events": [["a", "0"], ["b", [1]], ["c", {"x": 1}]]}, False,
     "malformed input: events[1][1] must be a rational string or integer"),
    ("dict then list", {"events": [["a", "0"], ["b", {}], ["c", []]]}, False,
     "malformed input: events[1][1] must be a rational string or integer"),
    ("bad offset ahead of a bad duration", {"events": [["a", "0"]], "period": {
        "actions": ["b", "c"], "offsets": ["1", "q"], "duration": "1/0"}}, False,
     "malformed input: period.offsets[1]: not a nonnegative rational: 'q'"),
    ("offset of the wrong type", {"events": [["a", "0"]], "period": {
        "actions": ["b", "c"], "offsets": [1, 1.5], "duration": "2"}}, False,
     "malformed input: period.offsets[1] must be a rational string or integer"),
    ("zero duration denominator", {"events": [["a", "0"]], "period": {
        "actions": ["b"], "offsets": ["1"], "duration": " 2 / 0 "}}, False,
     "malformed input: period.duration: zero denominator: '2 / 0'"),
    ("empty period", {"events": [["a", "0"]], "period": {
        "actions": [], "offsets": [], "duration": "1"}}, False, "empty lasso period"),
    # the order of the period checks: a decrease is named before an offset out of range
    ("offset past the duration after a decrease at 1", {"events": [["a", "0"]], "period": {
        "actions": ["b", "c"], "offsets": ["2", "1/2"], "duration": "1"}}, False,
     "period.offsets[1] is below period.offsets[0]"),
    ("offset off the base past the duration", {"events": [["a", "0"]], "period": {
        "actions": ["b"], "offsets": ["1/3"], "duration": "1/4"}}, False,
     "period.offsets[0] must lie in [0, period.duration]"),
]


class TestLoaderErrors:
    @pytest.mark.parametrize("name,obj,allow,message", LOADER_ERRORS,
                             ids=[c[0] for c in LOADER_ERRORS])
    def test_message_and_exit_code(self, name, obj, allow, message, tmp_path, capsys):
        with pytest.raises(MtlsemError) as exc:
            word_or_lasso_from_json(obj, allow_nonzero_start=allow)
        assert str(exc.value) == message
        if "decrease" in name:
            assert exc.value.position == int(name.split()[-1])
        path = tmp_path / "w.json"
        path.write_text(json.dumps(obj))
        argv = ["eval", "--semantics", "itw", "--formula", "F a", "--alphabet", "a,b,c",
                "--word", str(path)] + (["--allow-nonzero-start"] if allow else [])
        assert main(argv) == 3
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_nonzero_start_is_admitted_when_allowed(self, tmp_path, capsys):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"events": [["a", "0.50"], ["b", "1"]]}))
        argv = ["eval", "--semantics", "itw", "--formula", "F b", "--time", "1/2",
                "--word", str(path), "--allow-nonzero-start"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "true"

    def test_validate_word_reports_the_first_decrease(self):
        for k in range(1, 6):
            times = [Fraction(i + 1) for i in range(6)]
            times[k] -= Fraction(3, 2)  # below its predecessor, above 0
            with pytest.raises(NonMonotoneError) as exc:
                validate_word([("a", t) for t in times], allow_nonzero_start=True)
            assert exc.value.position == k
