"""Maps between timed words, compact timed words and state sequences."""

import random
from bisect import bisect_left
from fractions import Fraction

import pytest

from mtlsem.encodings import (
    block_index_at,
    block_position,
    compact,
    compact_lasso,
    stutter_free_preimages,
    to_tss,
    uncompact,
    word_position,
    word_to_tss,
)
from mtlsem.errors import (
    EmptyWordError,
    MtlsemError,
    NonMonotoneError,
    OutOfDomainError,
    SeamStutterError,
)
from mtlsem.oracle import gen_word
from mtlsem.structures import (
    CompactTimedWord,
    TimedWord,
    is_action_based,
    lasso,
    tss_from_json,
    tss_to_json,
    validate_compact,
    validate_tss,
    word,
)
from shared import (KAPPA1, RHO1, RHO2, compact_by_run_pairs, compact_by_runs, corpus,
                    tss_by_intervals)


def cblocks(cw):
    return [(acts, t) for acts, t in cw.blocks]


# a repeated action inside a block and ending the last one, J = 1, one block,
# and blocks of J positions
HAND_WORDS = [word([("a", 0), ("b", 1), ("a", 1), ("a", 1), ("c", 2)]),
              word([("c", 0), ("b", "1/2"), ("a", "1/2"), ("a", "1/2")]),
              word([("a", 0), ("b", "1/3"), ("a", 1), ("c", 2)]), word([("b", 0)]),
              word([("a", 0), ("a", 0), ("b", 0), ("a", 0)]),
              uncompact(validate_compact([(("a", "a", "b"), 0), (("c",), 1), (("b", "a", "a"), 3)])),
              uncompact(validate_compact([(("c", "c"), "1/2"), (("a", "b"), 1)],
                                         allow_nonzero_start=True))]


class TestCompact:
    def test_matches_the_run_pairs(self):
        for w in [gen_word(seed) for seed in range(600)] + HAND_WORDS:
            got, want = compact(w), compact_by_run_pairs(w)
            assert got == want and got.ticks == want.ticks and got.actions == want.actions, str(w)
            assert type(got.actions) is tuple and all(type(a) is tuple for a in got.actions)

    def test_swap_pair_images(self):
        assert cblocks(compact(RHO1)) == [
            (("a",), 0), (("b", "a"), 1), (("c",), Fraction(33, 10))]
        assert cblocks(compact(RHO2)) == [
            (("a",), 0), (("a", "b"), 1), (("c",), Fraction(33, 10))]

    def test_empty_word(self):
        with pytest.raises(EmptyWordError, match="^empty timed word$"):
            compact(TimedWord([]))

    def test_strictly_monotone_gives_singletons(self):
        cw = compact(word([("a", 0), ("b", 1), ("c", 2)]))
        assert all(len(acts) == 1 for acts, _ in cw.blocks)

    def test_uncompact_examples(self):
        assert uncompact(compact(RHO1)) == RHO1
        assert uncompact(validate_compact([(("a",), 0)])) == word([("a", 0)])
        assert uncompact(validate_compact([(("a", "b", "c"), 0)])) == word(
            [("a", 0), ("b", 0), ("c", 0)])

    def test_roundtrips_fuzzed(self):
        rng = random.Random(21)
        for _ in range(300):
            events = []
            t = Fraction(0)
            for _ in range(rng.randint(1, 8)):
                events.append((rng.choice("abc"), t))
                t += rng.choice([Fraction(0), Fraction(1, 2), Fraction(1)])
            w = word(events)
            cw = compact(w)
            assert uncompact(cw) == w
            assert compact(uncompact(cw)) == cw

    def test_matches_the_flat_runs(self):
        for w in corpus():
            assert w.times is w.times and w.actions is w.actions
            cw = compact(w)
            assert cw == compact_by_runs(w)
            assert cw.times is cw.times
            assert cw.ticks == compact_by_runs(w).ticks  # held from compact, or computed


class TestToTss:
    def test_shared_image(self):
        assert to_tss(compact(RHO1)) == KAPPA1
        assert to_tss(compact(RHO2)) == KAPPA1
        assert word_to_tss(RHO1) == word_to_tss(RHO2) == KAPPA1

    def test_single_block(self):
        got = to_tss(validate_compact([(("a",), 0)]))
        assert got == validate_tss([[["a"], "[0,0]"]])

    def test_always_action_based_and_odd(self):
        rng = random.Random(22)
        for _ in range(200):
            events = []
            t = Fraction(0)
            for _ in range(rng.randint(1, 8)):
                events.append((rng.choice("abc"), t))
                t += rng.choice([Fraction(0), Fraction(1)])
            k = word_to_tss(word(events))
            assert is_action_based(k)
            assert len(k) % 2 == 1
            assert len(k) == 2 * len(compact(word(events))) - 1

    def test_permutation_collapse(self):
        rng = random.Random(23)
        for _ in range(200):
            events = []
            t = Fraction(0)
            for _ in range(rng.randint(2, 8)):
                events.append((rng.choice("abc"), t))
                t += rng.choice([Fraction(0), Fraction(0), Fraction(1)])
            w = word(events)
            cw = compact(w)
            k = rng.randrange(len(cw.blocks))
            acts = list(cw.blocks[k][0])
            rng.shuffle(acts)
            shuffled = CompactTimedWord(
                cw.blocks[:k] + ((tuple(acts), cw.blocks[k][1]),) + cw.blocks[k + 1:])
            assert word_to_tss(uncompact(shuffled)) == word_to_tss(w)

    def test_trusted_steps_equal_validated_ones(self):
        for w in corpus():
            kappa = word_to_tss(w)
            checked = tss_from_json(tss_to_json(kappa))
            assert kappa == checked
            assert [hash(iv) for _, iv in kappa.steps] == [hash(iv) for _, iv in checked.steps]

    @pytest.mark.parametrize("times, k", [((0, 1, 1), 2), ((0, 2, 1), 2), ((0, 0, 1), 1),
                                          ((0, 1, "1/2"), 2)],
                             ids=["equal", "decreasing", "equal-first", "decreasing-half"])
    def test_non_increasing_blocks_rejected(self, times, k):
        cw = CompactTimedWord(tuple(((a,), Fraction(t)) for a, t in zip("abc", times)))
        with pytest.raises(NonMonotoneError) as exc:
            to_tss(cw)
        assert exc.value.position == k


class TestStateSequenceView:
    def test_image_equals_the_validated_interval_steps(self):
        for w in corpus() + (RHO1,):
            got, want = word_to_tss(w), tss_by_intervals(w)
            assert got == want and hash(got) == hash(want)
            assert str(got) == str(want)
            assert tss_to_json(got) == tss_to_json(want)
            assert is_action_based(got) and is_action_based(want)

    def test_reading_the_columns_keeps_equality_and_hash(self):
        for w in corpus() + (RHO1,):
            twin, hashed = TimedWord(w.events), hash(w)
            assert w.ticks[0] >= 1 and len(w.ticks[1]) == len(w)
            assert w == twin and hash(w) == hash(twin) == hashed
            kappa, checked = word_to_tss(w), tss_by_intervals(w)
            hashed = hash(checked)
            assert kappa.columns == checked.columns  # built by to_tss and by validate_tss
            assert kappa == checked and hash(kappa) == hash(checked) == hashed


class TestSurjectivityRecipe:
    def test_recipe_reproduces_element(self):
        # build an action-based sequence, read blocks off alphabetically, map back
        rng = random.Random(24)
        for _ in range(200):
            t = Fraction(0)
            blocks = []
            for _ in range(rng.randint(1, 5)):
                syms = rng.sample("abcd", rng.randint(1, 3))
                blocks.append((tuple(sorted(syms)), t))
                t += rng.choice([Fraction(1, 2), Fraction(1), Fraction(2)])
            cw = validate_compact(blocks)
            kappa = to_tss(cw)
            rebuilt = validate_compact(
                [(tuple(sorted(props)), iv.lo.value)
                 for props, iv in kappa.steps if props])
            assert to_tss(rebuilt) == kappa


class TestIndexHelpers:
    def test_word_position(self):
        cw = compact(RHO1)
        assert word_position(cw, 0, 0) == 0
        assert word_position(cw, 1, 0) == 1
        assert word_position(cw, 1, 1) == 2
        assert word_position(cw, 2, 0) == 3

    def test_block_position(self):
        cw = compact(RHO1)
        assert block_position(cw, 3) == (2, 0)
        assert block_position(cw, 0) == (0, 0)

    def test_mutually_inverse_and_consistent(self):
        rng = random.Random(25)
        for _ in range(200):
            events = []
            t = Fraction(0)
            for _ in range(rng.randint(1, 8)):
                events.append((rng.choice("abc"), t))
                t += rng.choice([Fraction(0), Fraction(1)])
            w = word(events)
            cw = compact(w)
            for i in range(len(w)):
                k, j = block_position(cw, i)
                assert word_position(cw, k, j) == i
                assert cw.blocks[k][0][j] == w.actions[i]
                assert cw.blocks[k][1] == w.times[i]

    def test_out_of_range(self):
        cw = compact(RHO1)
        with pytest.raises(IndexError, match="^position 2 out of range in block 1$"):
            word_position(cw, 1, 2)
        with pytest.raises(IndexError, match="^block index 3 out of range$"):
            word_position(cw, 3, 0)  # past the last block
        with pytest.raises(IndexError, match="^word position 4 out of range$"):
            block_position(cw, 4)

    def test_block_index_at(self):
        cw = compact(RHO1)
        assert block_index_at(cw, 1) == 1
        assert block_index_at(cw, "1/2") is None
        assert block_index_at(cw, 0) == 0
        with pytest.raises(OutOfDomainError):
            block_index_at(cw, 4)
        for w in corpus():
            cw = compact(w)
            for k, (_, t) in enumerate(cw.blocks):
                assert block_index_at(cw, t) == k
                if k:
                    assert block_index_at(cw, (cw.blocks[k - 1][1] + t) / 2) is None


    def test_block_index_at_against_a_fraction_bisection(self):
        """At every stamp, midpoint, time off the word's base and time outside
        the blocks, on bases up to 3 * (2^64 + 13) and with nonzero starts."""
        big = 2**64 + 13
        rng = random.Random(27)
        for _ in range(300):
            D = rng.choice((1, 3, 10, big, 3 * big))
            t = Fraction(rng.choice((0, 0, 1, 2 * big)), D)
            blocks = []
            for _ in range(rng.randint(1, 8)):
                blocks.append((tuple(rng.sample("abc", rng.randint(1, 3))), t))
                t += Fraction(rng.choice((1, 2, D, 3 * D + 1)), D)
            cw = validate_compact(blocks, allow_nonzero_start=True)
            times = [s for _, s in blocks]
            probes = set(times) | {(a + b) / 2 for a, b in zip(times, times[1:])}
            probes |= {s + Fraction(1, 7 * big) for s in times}
            probes |= {s - Fraction(1, 7 * big) for s in times if s > 0}
            probes |= {times[-1] + 1, times[-1] + Fraction(1, 3 * D)}
            if times[0] > 0:
                probes |= {Fraction(0), times[0] / 2}
            for s in probes:
                if s < times[0] or s > times[-1]:
                    with pytest.raises(OutOfDomainError) as exc:
                        block_index_at(cw, s)
                    assert str(exc.value) == f"time {s} outside [{times[0]}, {times[-1]}]"
                    continue
                k = bisect_left(times, s)
                assert block_index_at(cw, s) == (k if times[k] == s else None), (blocks, s)
            assert set(vars(cw)) == {"actions", "ticks"}  # no view was built


class TestLassoEncodings:
    def test_seam_stutter_rejected(self):
        l = lasso(word([("a", 0)]), ["b"], ["0"], "1")
        with pytest.raises(SeamStutterError):
            compact_lasso(l)

    def test_blockwise_period(self):
        l = lasso(RHO1, ["c", "a", "b"], ["1/2", "1", "1"], "2")
        prefix, period = compact_lasso(l)
        assert cblocks(prefix) == cblocks(compact(RHO1))
        assert period.actions == (("c",), ("a", "b")) and period.ticks == (2, (1, 2))
        assert period.blocks == ((("c",), Fraction(1, 2)), (("a", "b"), Fraction(1)))


class TestPreimages:
    def test_swap_image_has_two_stutter_free_preimages(self):
        kappa = validate_tss([
            [["a"], "[0,0]"], [[], "(0,1)"], [["a", "b"], "[1,1]"]])
        got = {w.events for w in stutter_free_preimages(kappa)}
        assert got == {
            (("a", Fraction(0)), ("a", Fraction(1)), ("b", Fraction(1))),
            (("a", Fraction(0)), ("b", Fraction(1)), ("a", Fraction(1))),
        }

    def test_limit_caps_the_words(self):
        kappa = word_to_tss(word([("a", 0), ("b", 0), ("c", 1)]))
        assert len(stutter_free_preimages(kappa)) == 2
        assert stutter_free_preimages(kappa, limit=0) == []
        assert [w.events for w in stutter_free_preimages(kappa, limit=1)] == [
            (("a", Fraction(0)), ("b", Fraction(0)), ("c", Fraction(1)))]

    def test_only_action_based_sequences_have_preimages(self):
        kappa = validate_tss([[["a"], "[0,1]"]])  # a non-punctual step holds an action
        assert not is_action_based(kappa)
        with pytest.raises(MtlsemError,
                           match="^only action-based state sequences have word preimages$"):
            stutter_free_preimages(kappa)
