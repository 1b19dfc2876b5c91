"""Mixed satisfaction over compact timed words: grid points plus gap intervals."""

import random
from fractions import Fraction

import pytest

from mtlsem.compilers import compile_itw, compile_pw
from mtlsem.encodings import block_index_at, compact
from mtlsem.errors import OutOfDomainError
from mtlsem.formulas import BETA, alphabet, parse
from mtlsem.gallery import ABC, B_THEN_A, WINDOWED_C
from mtlsem.interval_based import _sat_dense, eval_itw, sat_set_itw
from mtlsem.intervals import IntervalSet, interval, merge_keys
from mtlsem.mixed import (
    NO_ACTION,
    MixedSet,
    _mx_table,
    compact_at,
    eval_mx,
    eval_mx_lasso,
    sat_set_mx,
    sat_sets_mx,
)
from mtlsem.oracle import (
    critical_points,
    differential,
    gen_formula,
    gen_word,
    oracle_eval_mx,
)
from mtlsem.pointwise import eval_pw_lasso
from mtlsem.structures import lasso, validate_compact, word
from shared import (RHO1, _reference_sets, _two_pass_inputs, _two_walk_gap, _two_walk_point_list,
                    seeded_pairs)

CW1 = compact(RHO1)

GAMMA2 = parse("F[0,1](F[0,1) b & F[1,1] c)", ABC)
GAMMA3 = parse("F(0,1](F[0,1) b & F[1,1] c)", ABC)
GAMMA4 = parse("G(0,2] noact", ABC)
GAMMA5 = parse("F(0,1](F[0,1) b & F[1,1] c) | (F(b & X[0,0] a) & G(0,2] noact)", ABC)


class TestCompactAt:
    def test_block_and_gap(self):
        assert compact_at(CW1, 1) == ("b", "a")
        assert compact_at(CW1, "1/2") == (NO_ACTION,)
        assert compact_at(CW1, 0) == ("a",)

    def test_domain_check(self):
        with pytest.raises(OutOfDomainError):
            compact_at(CW1, 4)


class TestFiniteVerdicts:
    def test_order_recovered_inside_blocks(self):
        got = sat_set_mx(CW1, B_THEN_A)
        assert (0, 0) in got.points
        assert eval_mx(CW1, 0, 0, B_THEN_A)

    def test_windowed_start_also_works(self):
        assert eval_mx(CW1, 0, 0, WINDOWED_C)

    def test_strict_left_operand_at_interleaved_actions(self):
        # a c-event between the a's breaks (a or noact) U[1,2] b
        rho = word([("a", 0), ("a", "1/2"), ("c", "1/2"), ("c", "3/2"), ("b", "3/2")])
        f = parse("(a | noact) U[1,2] b", ABC)
        assert not eval_mx(compact(rho), 0, 0, f)
        assert eval_itw(rho, 0, f)

    def test_positional_witness_at_shared_time(self):
        rho = word([("c", 0), ("c", "1/2"), ("c", "3/2"), ("b", "3/2")])
        f = parse("(c | noact) U[1,2] (b & !c)", ABC)
        assert eval_mx(compact(rho), 0, 0, f)
        assert not eval_itw(rho, 0, f)

    def test_second_action_of_block(self):
        assert eval_mx(CW1, 1, 1, parse("a", ABC))
        assert not eval_mx(CW1, 1, 0, parse("a", ABC))

    def test_beta_at_gap_and_block_head(self):
        assert eval_mx(CW1, "1/2", 0, BETA)
        assert eval_mx(CW1, 1, 0, BETA)
        assert not eval_mx(CW1, 1, 1, BETA)

    def test_position_out_of_range(self):
        with pytest.raises(IndexError):
            eval_mx(CW1, 1, 2, parse("a", ABC))
        with pytest.raises(IndexError):
            eval_mx(CW1, "1/2", 1, BETA)


class TestOracleAgreement:
    def sample_points(self, cw, f):
        pts = []
        for k, (acts, t) in enumerate(cw.blocks):
            for j in range(len(acts)):
                pts.append((t, j))
        stamps = set(cw.times)
        for t in critical_points(cw, f):
            if t not in stamps:
                pts.append((t, 0))
        return pts

    def test_fuzzed(self):
        for seed in range(250):
            cw = compact(gen_word(seed + 2000))
            f = gen_formula(seed * 11 + 6, ABC, allow_beta=True)
            assert differential("mx", cw, f) is None, (cw, f)

    def test_gap_set_endpoints_lie_on_critical_values(self):
        # together with agreement at critical points and midpoints, this pins
        # the gap component everywhere: truth is piecewise constant between
        # critical values and the engine introduces no other breakpoints
        from mtlsem.oracle import critical_values

        for seed in range(150):
            cw = compact(gen_word(seed + 12_000))
            f = gen_formula(seed * 13 + 3, ABC, allow_beta=True)
            allowed = set(critical_values(cw, f))
            got = sat_set_mx(cw, f)
            for part in got.gap.parts:
                assert part.lo.value in allowed, (cw, f, str(part))
                assert part.hi.value in allowed, (cw, f, str(part))

    def test_negation_totality(self):
        for seed in range(80):
            cw = compact(gen_word(seed + 4000))
            f = gen_formula(seed * 7 + 9, ABC, allow_beta=True)
            got = sat_set_mx(cw, f)
            neg = sat_set_mx(cw, parse(f"!({_text(f)})", ABC, allow_beta=True))
            for t, j in self.sample_points(cw, f):
                k = block_index_at(cw, t)
                if k is not None:
                    assert ((k, j) in got.points) != ((k, j) in neg.points)
                else:
                    assert got.gap.member(t) != neg.gap.member(t)


def _text(f):
    from mtlsem.formulas import to_text

    return to_text(f)


class TestOpenStartRemark:
    def test_multi_action_block_at_zero_separates_them(self):
        # simultaneous b-later-than-start witnesses count for [0,1] but not (0,1]
        l = lasso(word([("a", 0), ("c", 0), ("b", 0), ("c", 1), ("c", 3)]),
                  ["c"], ["1"], "1")
        assert eval_mx_lasso(l, GAMMA2) is True
        assert eval_mx_lasso(l, GAMMA3) is False

    def test_itw_cannot_tell_them_apart(self):
        for seed in range(100):
            rho = gen_word(seed + 6000)
            s2 = sat_set_itw(rho, GAMMA2)
            s3 = sat_set_itw(rho, GAMMA3)
            assert s2 == s3, rho


class TestLassoVerdicts:
    def test_disjunction_with_prefix_witness(self):
        l = lasso(word([("c", 0), ("b", 0), ("a", 0), ("c", 5)]), ["c"], ["1"], "1")
        assert eval_mx_lasso(l, GAMMA5) is True

    def test_swapped_block_turns_false(self):
        # the only b is the last position of the time-0 block and the period
        # holds only c, so no b is followed at distance 0 by an a:
        # F(b & X[0,0] a) is false, and with it both disjuncts of GAMMA5
        l = lasso(word([("c", 0), ("a", 0), ("b", 0), ("c", 5)]), ["c"], ["1"], "1")
        assert eval_mx_lasso(l, GAMMA3) is False
        assert eval_mx_lasso(l, GAMMA4) is True
        assert eval_mx_lasso(l, B_THEN_A) is False
        assert eval_mx_lasso(l, GAMMA5) is False
        # pointwise the same argument holds: the position after the b is a c
        assert eval_pw_lasso(l, B_THEN_A) is False
        assert eval_pw_lasso(l, GAMMA5) is False

    def test_never_wrong_definite_on_bounded(self):
        for seed in range(100):
            from mtlsem.oracle import gen_lasso

            l = gen_lasso(seed + 50)
            f = gen_formula(seed * 19 + 7, ABC, bounded_only=True, allow_beta=True)
            got = eval_mx_lasso(l, f)
            assert type(got) is bool

    def test_silent_window_excludes_open_start_language(self):
        # a lasso satisfying both the order-sensitive conjunct and the silent
        # window can never also satisfy the open-start disjunct: the latter
        # needs an action strictly inside (0, 2)
        from mtlsem.oracle import gen_lasso

        conjunct = parse("F(b & X[0,0] a) & G(0,2] noact", ABC)
        both = 0
        for seed in range(150):
            l = gen_lasso(seed + 900)
            v3 = eval_mx_lasso(l, GAMMA3)
            vc = eval_mx_lasso(l, conjunct)
            if v3 is True and vc is True:
                both += 1
        assert both == 0


# ---------------------------------------------------------------------------
# window edges: window ends on block times, point windows, and unbounded
# windows with a positive start

EXIT_WORDS = [
    word([("a", 0), ("b", 0), ("a", 1), ("a", 2), ("b", 2), ("c", 3), ("a", 5), ("b", 5),
          ("b", 6)]),
    word([("a", 0), ("a", 1), ("a", 2), ("a", 3), ("b", 3), ("b", 4)]),
    word([("c", 0), ("a", "1/2"), ("b", "3/2"), ("a", 2), ("c", "5/2"), ("b", 4), ("a", 4)]),
    word([("a", 0), ("a", 1), ("a", "3/2"), ("a", 3), ("a", 3), ("a", 5)]),
    word([("a", 0), ("c", 1), ("b", 1), ("a", 2), ("b", 3), ("c", 3), ("a", 4), ("b", 4)]),
]


def _grid_and_gap_points(cw, f):
    """Every grid point, every gap midpoint, and every critical point inside a gap."""
    pts = [(t, j) for acts, t in cw.blocks for j in range(len(acts))]
    pts += [((a + b) / 2, 0) for a, b in zip(cw.times, cw.times[1:])]
    stamps = set(cw.times)
    pts += [(t, 0) for t in critical_points(cw, f) if t not in stamps]
    return pts


def _engine_at(cw, got, t, j):
    k = block_index_at(cw, t)
    return ((k, j) in got.points) if k is not None else got.gap.member(t)


@pytest.mark.parametrize("text", [
    # point windows [0,0]: only later positions of the same block can witness
    "F[0,0] b", "a U[0,0] b", "(a | noact) U[0,0] b", "G[0,0] a",
    # window ends landing exactly on block times, closed and open
    "(a | noact) U[1,2] b", "(a | noact) U[1,2) b", "!c U(0,2] b", "!c U(0,2) b",
    "F[2,2] b", "F(1,3] c", "F[1,3) c", "G[0,2] (a | noact)", "G(0,1) noact",
    # unbounded windows that start after 0
    "F[1,inf) c", "F(2,inf) b", "(a | noact) U[2,inf) b", "!c U(1,inf) b", "G[1,inf) !c",
    # nested windows
    "F[0,1] (b & F[1,2] a)", "G(a -> F[1,3] b)",
    # windows that meet no witness before the end of the word
    "G (a | noact)", "(a | noact) U c", "(a | noact) U[1,2] c",
])
def test_walk_exits_agree_with_oracle(text):
    f = parse(text, ABC)
    for rho in EXIT_WORDS:
        cw = compact(rho)
        got = sat_set_mx(cw, f)
        for t, j in _grid_and_gap_points(cw, f):
            assert _engine_at(cw, got, t, j) == oracle_eval_mx(cw, t, j, f), (text, rho, t, j)


# ---------------------------------------------------------------------------
# large blocks: a block's last position and every gap time own spare lex slots


def _large_block_word(seed):
    """Blocks of 5-10 simultaneous events mixed with single-event blocks."""
    rng = random.Random(f"large-blocks/{seed}")
    events, t = [], Fraction(0)
    for b in range(rng.randint(2, 6)):
        if b:
            t += rng.choice([Fraction(1, 2), Fraction(1), Fraction(3, 2)])
        size = rng.randint(5, 10) if rng.random() < 0.5 else 1
        events += [(rng.choice("abc"), t) for _ in range(size)]
    return word(events)


LARGE_BLOCK_FIXED = ["false U[0,0] b", "a U[0,1] b", "!a U (b & beta)", "a U[0,0] (b & !beta)",
                     "!beta U(0,1] (c & beta)", "(a | beta) U[0,inf) c", "G[0,1] (a | noact)"]


@pytest.mark.parametrize("text", LARGE_BLOCK_FIXED)
def test_large_blocks_fixed_formulas_agree_with_oracle(text):
    f = parse(text, ABC, allow_beta=True)
    for seed in range(40):
        cw = compact(_large_block_word(seed))
        assert differential("mx", cw, f) is None, (text, str(cw))


def test_large_blocks_fuzzed_agree_with_oracle():
    for seed in range(500):
        cw = compact(_large_block_word(seed + 1000))
        f = gen_formula(seed * 17 + 5, ABC, allow_beta=True)
        assert differential("mx", cw, f) is None, (str(cw), f)


# ---------------------------------------------------------------------------
# the MixedSet conversion, against the one-sweep-over-the-whole-grid reference


def _assert_converted_as_the_reference(cw, f):
    got, want = sat_sets_mx(cw, f), _reference_sets(cw, f)
    assert list(got) == list(want)
    for node, w in want.items():
        g = got[node]
        assert g.points == w.points, (str(cw), node)
        assert g.point_list == sorted(w.points), (str(cw), node)  # lex order, each point once
        assert g.gap == w.gap and str(g.gap) == str(w.gap), (str(cw), node)
        assert g.gap.parts == w.gap.parts, (str(cw), node)
        assert g == w and hash(g) == hash(w), (str(cw), node)


def test_conversion_matches_the_reference_on_fuzzed_words():
    for seed in range(1000):
        rho = gen_word(seed)
        f = gen_formula(seed * 2654435761 % (2**31), ABC)
        for g in (f, compile_pw(f, ABC), compile_itw(f, ABC),
                  gen_formula(seed * 5 + 3, ABC, allow_beta=True)):
            _assert_converted_as_the_reference(compact(rho), g)


def test_conversion_matches_the_reference_on_one_large_block():
    rng = random.Random("one-block")
    cw = compact(word([(rng.choice("abc"), 0) for _ in range(4000)]))
    for text in ("a", "G(a -> F[0,1] b)", "a U c", "F[0,0] b", "!beta U (c & beta)",
                 "(a | b) U[0,0] (c & !beta)"):
        _assert_converted_as_the_reference(cw, parse(text, ABC, allow_beta=True))


def test_conversion_matches_the_reference_on_nonzero_starts():
    for seed in range(200):
        shift = Fraction(seed % 7 + 1, seed % 3 + 1)
        cw = validate_compact([(acts, t + shift) for acts, t in compact(gen_word(seed)).blocks],
                              allow_nonzero_start=True)
        f = gen_formula(seed * 3 + 1, ABC, allow_beta=True)
        _assert_converted_as_the_reference(cw, f)


@pytest.mark.parametrize("text", ["d", "!d", "d U[1,2] a", "F[0,1] (a & !d)", "beta",
                                  "G(d -> F[1/3,3] b)", "(d | beta) U (c & beta)"])
def test_conversion_matches_the_reference_on_absent_atoms_and_beta(text):
    f = parse(text, alphabet("a,b,c,d"), allow_beta=True)
    for seed in range(100):
        _assert_converted_as_the_reference(compact(gen_word(seed + 7000)), f)
        _assert_converted_as_the_reference(compact(_large_block_word(seed)), f)


# ---------------------------------------------------------------------------
# the one-walk table, against the two-pass construction


def _assert_walked_as_the_two_pass_construction(cw, f, monkeypatch):
    import mtlsem.mixed as mixed

    handed = []
    with monkeypatch.context() as m:
        m.setattr(mixed, "_sat_dense", lambda *args: handed.append(args) or _sat_dense(*args))
        table, (D, J, starts, blocks) = _mx_table(cw, f)
    slots, domain, wD, wJ, multi, wstarts, sizes = _two_pass_inputs(cw, f)
    assert handed == [(slots, domain, wD, f, wJ, multi)], (str(cw), f)
    assert (D, J, starts) == (wD, wJ, wstarts) and list(map(len, blocks)) == sizes
    want = _sat_dense(slots, domain, wD, f, wJ, multi)
    assert list(table.items()) == list(want.items())
    got = sat_sets_mx(cw, f)
    assert [(node, s.lex[0]) for node, s in got.items()] == list(want.items()), (str(cw), f)


# blocks that repeat an action: (b, a, a) inside, and (a, a) ending the last block
REPEATS = [word([("a", 0), ("b", 1), ("a", 1), ("a", 1), ("c", 2)]),
           word([("c", 0), ("b", "1/2"), ("a", "1/2"), ("a", "1/2")]),
           word([("a", 0), ("a", 0), ("b", 0), ("a", 0), ("a", 0)])]  # one block
SINGLES = [word([("a", 0), ("b", "1/3"), ("a", 1), ("c", 2)]), word([("b", 0)])]  # J = 1
FULL_BLOCKS = [  # several blocks of J positions
    validate_compact([(("a", "a", "b"), 0), (("c",), 1), (("b", "a", "a"), "3/2")]),
    validate_compact([(("c", "c"), "1/2"), (("a", "b"), 1), (("a", "a"), 2)],
                     allow_nonzero_start=True)]
WALK_FORMULAS = ["a", "a U[0,1] c", "G[0,4](a -> F[1,3] b)", "F[0,0] (a & !beta)",
                 "(a | beta) U[0,0] b", "!a U (b & beta)", "d | F(1/2,2] c"]


class TestOneWalkTable:
    def test_fuzzed(self, monkeypatch):
        for rho, g in seeded_pairs(600, allow_beta=True):
            cw = compact(rho)
            for f in (g, compile_pw(parse("a U c", ABC), ABC)):
                _assert_walked_as_the_two_pass_construction(cw, f, monkeypatch)

    @pytest.mark.parametrize("text", WALK_FORMULAS)
    def test_hand_cases(self, text, monkeypatch):
        f = parse(text, alphabet("a,b,c,d"), allow_beta=True)
        for cw in [compact(w) for w in REPEATS + SINGLES] + FULL_BLOCKS:
            _assert_walked_as_the_two_pass_construction(cw, f, monkeypatch)

    def test_hand_cases_have_the_shapes_they_name(self):
        runs = [compact(w).actions for w in REPEATS]
        assert runs[0][1] == ("b", "a", "a") and runs[1][-1] == ("b", "a", "a")
        assert len(runs[2]) == 1
        assert all(len(acts) == 1 for w in SINGLES for acts in compact(w).actions)
        for cw in FULL_BLOCKS:
            sizes = list(map(len, cw.actions))
            assert sizes.count(max(sizes)) >= 2

    def test_a_root_only_read_merges_no_atom_list(self, monkeypatch):
        import mtlsem.mixed as mixed

        rng = random.Random("merge-guard")
        t, events = Fraction(0), []
        for _ in range(300):
            events.append((rng.choice("ab"), t))
            t += rng.choice([Fraction(0), Fraction(0), Fraction(1, 2), Fraction(1)])
        cw = compact(word(events))
        assert any(x == y for acts in cw.actions for x, y in zip(acts, acts[1:]))
        merged = []
        # `mixed` imports no `merge_keys`: the patched name counts one put back
        monkeypatch.setattr(mixed, "merge_keys", lambda keys: merged.append(1) or merge_keys(keys),
                            raising=False)
        got = sat_set_mx(cw, parse("(a | b) U[0,2] c", ABC))
        got.points
        assert merged == []
        got.gap
        assert merged == []  # the gap comes from the points' walk, with no pass of its own


# ---------------------------------------------------------------------------
# the one walk that reads an mx result, against the two walks it replaced


def _assert_read_as_the_two_walks(s):
    keys, grid = s.lex
    want = _two_walk_gap(keys, grid)
    assert s.point_list == _two_walk_point_list(keys, grid), keys
    assert s.gap.keys == want.keys and s.gap.part_texts() == want.part_texts(), keys


# four blocks on the base 1 with J = 3: time key T owns the slots 3T to 3T + 2,
# the blocks start at 0, 9, 18 and 27, and a block's last position owns its
# spare slots
HAND_CW = validate_compact([(("a", "b", "c"), 0), (("b",), 1), (("a", "a"), 2), (("c",), 3)])
HAND_READS = {  # lex keys: (points, gap keys)
    "starts inside a block": ([(1, 8)], ([(0, 1), (0, 2)], [(1, 2)])),
    "ends inside a block": ([(12, 18)], ([(2, 0)], [(4, 5)])),
    "starts in a gap past a block": ([(15, 17)], ([], [(5, 5)])),
    "spans several blocks": ([(2, 29)], ([(0, 2), (1, 0), (2, 0), (2, 1), (3, 0)],
                                         [(1, 2), (4, 5), (7, 8)])),
    "parts share a block": ([(0, 0), (2, 5), (19, 20)], ([(0, 0), (0, 2), (2, 1)], [(1, 1)])),
    "empty": ([], ([], [])),
    "whole domain": ([(0, 29)], ([(0, 0), (0, 1), (0, 2), (1, 0), (2, 0), (2, 1), (3, 0)],
                                 [(1, 2), (4, 5), (7, 8)])),
}


class TestOneWalkReads:
    def test_fuzzed(self):
        for rho, g in seeded_pairs(600, allow_beta=True):
            cw = compact(rho)
            for f in (g, compile_itw(parse("a U c", ABC), ABC)):
                for s in sat_sets_mx(cw, f).values():
                    _assert_read_as_the_two_walks(s)

    @pytest.mark.parametrize("case", HAND_READS)
    def test_hand_cases(self, case):
        keys, (points, gap) = HAND_READS[case]
        s = MixedSet.on_grid(keys, _mx_table(HAND_CW, parse("a", ABC))[1])
        assert (s.point_list, s.gap.keys) == (points, (1, gap))
        _assert_read_as_the_two_walks(s)

    def test_one_slot_per_time_key(self):
        cw = compact(word([("a", 0), ("b", "1/2"), ("c", 2)]))  # J = 1, base 2: stamps 0, 3, 12
        grid = _mx_table(cw, parse("a", ABC))[1]
        assert grid[1] == 1
        for keys, points, gap in [([(0, 12)], [(0, 0), (1, 0), (2, 0)], [(1, 2), (4, 11)]),
                                  ([(2, 5)], [(1, 0)], [(2, 2), (4, 5)]),
                                  ([(4, 11)], [], [(4, 11)])]:
            s = MixedSet.on_grid(keys, grid)
            assert (s.point_list, s.gap.keys) == (points, (2, gap))
            _assert_read_as_the_two_walks(s)

    def test_a_hand_made_set_reads_its_points_in_lex_order(self):
        gap = IntervalSet.of(interval("1/2", 1, False, False))
        s = MixedSet(frozenset({(2, 0), (0, 1), (1, 0), (0, 0)}), gap)
        assert s.point_list == [(0, 0), (0, 1), (1, 0), (2, 0)]
        assert s.gap is gap and s == MixedSet(frozenset(s.point_list), gap)
