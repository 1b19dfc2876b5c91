"""The brute-force grid: critical points, piecewise constancy, generators."""

import ast
import hashlib
import inspect
import json
from fractions import Fraction

import pytest

from mtlsem import oracle
from mtlsem.encodings import compact, word_to_tss
from mtlsem.errors import OutOfDomainError
from mtlsem.formulas import (
    And,
    Until,
    alphabet,
    is_bounded,
    parse,
    temporal_depth,
    to_text,
)
from mtlsem.gallery import ABC, WINDOWED_C
from mtlsem.intervals import IntervalSet, punctual
from mtlsem.mixed import MixedSet
from mtlsem.oracle import (
    critical_points,
    critical_values,
    gen_formula,
    gen_ka,
    gen_lasso,
    gen_word,
    oracle_eval_its,
    oracle_eval_itw,
    oracle_eval_mx,
    oracle_eval_pw,
)
from mtlsem.structures import (
    duration,
    is_action_based,
    lasso_to_json,
    tss_to_json,
    unroll,
    validate_compact,
    validate_tss,
    validate_word,
    word,
    word_to_json,
)
from shared import (RHO1, _pieces, _reference_its, _reference_itw, _reference_mx,
                    _reference_piece_index, _reference_pw, finite_window_bounds, scaled_words,
                    seeded_pairs, tss_corpus)

ALPHABET_ABCD = alphabet("a,b,c,d")


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


def _hand_values(structure, f):
    """closure_by_hand on a model's base values and domain."""
    if hasattr(structure, "steps"):
        ends = [iv.lo.value for _, iv in structure.steps]
        lo, hi = ends[0], structure.steps[-1][1].hi.value
        times = ends + [hi]
    else:
        times, lo, hi = structure.times, Fraction(0), structure.times[-1]
    return closure_by_hand(times, finite_window_bounds(f), temporal_depth(f), lo, hi)


# windows whose bounds have denominators 3, 5 and 7, for words and state
# sequences off the half grid; under F[0,1/3] a, the one-event word's only
# piece is 0, so no piece holds the window's denominator
OFF_GRID = tuple(parse(text, ABC) for text in (
    "F[0,1/3] a", "a U(2/5,5/7] b", "G[0,1/7](a -> F(0,1/3] b)",
    "!(b U[2/3,inf) c) & F[3/7,3/7] a", "(a | c) U[0,6/5) (b & F[0,2/7] c)"))
ONE_EVENT = word([("a", "0")])


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
                for f in formulas:
                    vals = _hand_values(structure, f)
                    assert critical_values(structure, f) == vals, (str(structure), f)

    def test_matches_hand_recurrence_off_the_half_grid(self):
        # stamps scaled by 1/3, 7/10, 5/6 and 11/4, state sequences with
        # bases above 2^64, windows with denominators 3, 5 and 7;
        # critical_points interleaves the values with their Fraction midpoints
        models = [rho for _, rho in scaled_words()] + list(tss_corpus())
        for i, structure in enumerate([ONE_EVENT, *models]):
            f = OFF_GRID[i % len(OFF_GRID)]
            vals = critical_values(structure, f)
            assert vals == _hand_values(structure, f), (str(structure), f)
            points = [vals[0], *(v for a, b in zip(vals, vals[1:]) for v in ((a + b) / 2, b))]
            assert critical_points(structure, f) == points, (str(structure), f)

    def test_a_non_model_is_a_type_error(self):
        with pytest.raises(TypeError, match="no critical points for 42"):
            critical_values(42, WINDOWED_C)

    def test_no_windows_gives_timestamps(self):
        got = critical_points(RHO1, parse("a", ABC))
        assert [v for v in got if v in set(RHO1.times)] == sorted(set(RHO1.times))

    def test_single_event(self):
        assert critical_points(word([("a", 0)]), parse("a", ABC)) == [0]


# ---------------------------------------------------------------------------
# the oracle's tables against the literal piece scan

def _outcome(lookup, t, j):
    try:
        return lookup(t, j)
    except OutOfDomainError:
        return OutOfDomainError


def _assert_tables_agree(got, reference, vals, lookups):
    """The same pieces, mapped back from the oracle's scale, and the same truth
    on every piece.  With `lookups`, also `_truth_at` against the linear
    search, at every piece's representative and a second interior point of
    every open piece, and off the grid: before the first value, past the last,
    j < 0, before the table's first piece (a mixed word's first block), j past
    a block's size and j > 0 inside an open piece."""
    (pieces, truth, scale), (ref_pieces, ref_truth) = got, reference
    assert ([(Fraction(lo, scale), Fraction(hi, scale), lo == hi, j) for lo, hi, j in pieces]
            == [(p.lo, p.hi, p.is_point, p.j) for p in ref_pieces])
    assert truth == ref_truth
    if not lookups:
        return
    samples = [(p.rep, p.j) for p in ref_pieces]
    samples += [(p.lo + (p.hi - p.lo) / 3, 0) for p in ref_pieces if not p.is_point]
    off = [(vals[0] - 1, 0), (vals[-1] + 1, 0), (vals[0], -1), (ref_pieces[-1].rep, -1)]
    off += [(p.rep, 0) for p in _pieces(vals) if p.lo < ref_pieces[0].lo]
    must_raise = len(off)
    off += [(p.lo, p.j + 1) for p in ref_pieces if p.is_point]
    off += [(p.rep, 1) for p in ref_pieces if not p.is_point]
    for t, j in samples + off:
        mine = _outcome(lambda t, j: oracle._truth_at(pieces, truth, scale, t, j), t, j)
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
    """The oracle's tables against the literal scan of `shared`, on larger words
    and deeper formulas than the fuzzer draws; the lookups on every
    LOOKUP_EVERY-th seed (each is a scan over the pieces, as the reference's)."""

    LOOKUP_EVERY = 5

    def test_itw(self):
        for seed, (rho, f) in enumerate(seeded_pairs(1500, 7, 3, max_len=10, max_depth=5)):
            vals = critical_values(rho, f)
            _assert_tables_agree(oracle._itw_oracle(rho, f), _reference_itw(rho, f, vals), vals,
                                 seed % self.LOOKUP_EVERY == 0)

    def test_its(self):
        # gen_ka and word_to_tss start closed; on odd seeds a gen_ka also
        # runs with a left-open first step
        for seed, (rho, _) in enumerate(seeded_pairs(1500, 7, 3, max_len=10, max_depth=5)):
            f = gen_formula(seed * 7 + 3, ALPHABET_ABCD, max_depth=5)
            ka = gen_ka(seed)
            kappas = [ka, word_to_tss(rho),
                      seed % 2 and _left_open_start(ka)]
            for kappa in filter(None, kappas):
                vals = critical_values(kappa, f)
                _assert_tables_agree(oracle._its_oracle(kappa, f), _reference_its(kappa, f, vals),
                                     vals, seed % self.LOOKUP_EVERY == 0)

    def test_its_left_open_start(self):
        # the first critical value lies in no step: it holds no atoms
        kappa = validate_tss([({"p"}, "(1,2]")], allow_nonzero_start=True)
        for text, want in [("p", False), ("!p", True), ("F[0,1] p", True)]:
            f = parse(text, alphabet("p"))
            assert oracle_eval_its(kappa, 1, f) is want, text
            assert oracle.differential("its", kappa, f) is None, text

    def test_mx(self):
        for seed, (rho, _) in enumerate(seeded_pairs(1500, 7, 3, max_len=10, max_depth=5)):
            cw = compact(rho)
            if seed % 2:  # a first block past 0: the pieces before it are off the grid
                cw = validate_compact([(acts, t + Fraction(1, 2)) for acts, t in cw.blocks],
                                      allow_nonzero_start=True)
            f = gen_formula(seed * 7 + 3, ABC, max_depth=5, allow_beta=True)
            vals = critical_values(cw, f)
            _assert_tables_agree(oracle._mx_oracle(cw, f),
                                 _reference_mx(cw, f, vals), vals,
                                 seed % self.LOOKUP_EVERY == 1)

    def test_off_the_half_grid(self):
        """Every relation on words scaled off the half grid and on state
        sequences with bases above 2^64, under windows with denominators 3, 5
        and 7: the oracle's scale must hold each window end and midpoint."""
        for i, rho in enumerate([ONE_EVENT, *(rho for _, rho in scaled_words())]):
            f, lookups = OFF_GRID[i % len(OFF_GRID)], i % self.LOOKUP_EVERY == 0
            vals = critical_values(rho, f)
            _assert_tables_agree(oracle._itw_oracle(rho, f), _reference_itw(rho, f, vals), vals,
                                 lookups)
            cw = compact(rho)
            vals = critical_values(cw, f)
            _assert_tables_agree(oracle._mx_oracle(cw, f), _reference_mx(cw, f, vals), vals,
                                 lookups)
            assert oracle._pw_oracle(rho, f) == _reference_pw(rho, f), (str(rho), f)
        for i, kappa in enumerate(tss_corpus()):
            f = OFF_GRID[i % len(OFF_GRID)]
            vals = critical_values(kappa, f)
            _assert_tables_agree(oracle._its_oracle(kappa, f), _reference_its(kappa, f, vals),
                                 vals, i % self.LOOKUP_EVERY == 0)

    def test_pw(self):
        for seed, (rho, f) in enumerate(seeded_pairs(1500, 7, 3, max_len=10, max_depth=5)):
            want = _reference_pw(rho, f)
            assert oracle._pw_oracle(rho, f) == want, seed
            if seed % self.LOOKUP_EVERY == 0:
                assert [oracle_eval_pw(rho, i, f) for i in range(len(rho))] == want, seed
                for i in (-1, len(rho)):
                    with pytest.raises(IndexError):
                        oracle_eval_pw(rho, i, f)


class TestTablesOnTheScale:
    ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                  "__truediv__", "__rtruediv__", "__floordiv__")
    ORDERING = ("__lt__", "__le__", "__gt__", "__ge__")

    def test_the_tables_do_no_fraction_arithmetic(self, monkeypatch):
        """The four table builders work on ints at the oracle's scale: with
        Fraction's arithmetic and ordering raising, they build the tables they
        build unpatched.  Each model's cached times, events, blocks and steps
        are read first, as a loaded model holds them."""
        cases = []
        for seed, (rho, f) in enumerate(seeded_pairs(300, 7, 3)):
            cw, kappa = compact(rho), gen_ka(seed) if seed % 2 else word_to_tss(rho)
            assert rho.times and rho.events and cw.times and cw.blocks and kappa.steps
            cases.append((rho, cw, kappa, f, gen_formula(seed * 7 + 3, ABC, allow_beta=True)))

        def build():
            return [(oracle._itw_oracle(rho, f), oracle._its_oracle(kappa, f),
                     oracle._mx_oracle(cw, g), oracle._pw_oracle(rho, f))
                    for rho, cw, kappa, f, g in cases]

        def refuse(*_):
            raise AssertionError("Fraction arithmetic or ordering in an oracle table")

        want = build()
        for name in self.ARITHMETIC + self.ORDERING:
            monkeypatch.setattr(Fraction, name, refuse)
        got = build()
        monkeypatch.undo()
        assert got == want


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


# The SHA-256 of each generator's renderings over seeds 0-2,999, one per line.
# The fuzz corpus and criterion 8 are defined by these streams: a faster
# generator must draw the same words, formulas, lassos and sequences.
GENERATOR_RENDERINGS = {
    "gen_word": lambda s: json.dumps(word_to_json(gen_word(s))),
    "gen_word stutter_free": lambda s: json.dumps(word_to_json(gen_word(s, stutter_free=True))),
    "gen_word max_len=30": lambda s: json.dumps(word_to_json(gen_word(s, max_len=30))),
    "gen_formula": lambda s: to_text(gen_formula(s, ABC)),
    "gen_formula allow_beta": lambda s: to_text(gen_formula(s, ABC, allow_beta=True)),
    "gen_formula bounded_only": lambda s: to_text(gen_formula(s, ABC, bounded_only=True)),
    "gen_formula allow_beta bounded_only": lambda s: to_text(
        gen_formula(s, ABC, bounded_only=True, allow_beta=True)),
    "gen_lasso max_prefix=30": lambda s: json.dumps(lasso_to_json(gen_lasso(s, max_prefix=30))),
    "gen_ka": lambda s: json.dumps(tss_to_json(gen_ka(s))),
}
GENERATOR_DIGESTS = {
    "gen_word": "5302582442ae82bd89f6f977e2894a1e7855bad786878a80e7cc1acff8ab7c38",
    "gen_word stutter_free": "40d7f840de58341e902b5c1ff9ee1501d4e0052c4ac70f70e1d76af6ea887b54",
    "gen_word max_len=30": "f4a6aa752389622f2eb5421f1ece9e00f769e7d69fb25ef8f68cf87b1b95c68e",
    "gen_formula": "df37deb7195dda3438000f93b93d9e6fb8af9609d604ed7067300d040f499eea",
    "gen_formula allow_beta": "6386d2c0bc2ef850788488c346c100baa6a74339e3fa3cf21b47354264e7d953",
    "gen_formula bounded_only":
        "e8487ccd32dbe8b02b8b9da1581e70ba3fb9f1a6e4d117ab413ecdea675d757d",
    "gen_formula allow_beta bounded_only":
        "2477bdd895ef40004cd8c65ded6692e6dff62d9060b167dd45de57f9486f1756",
    "gen_lasso max_prefix=30":
        "21aa7519462c6481ac3d6c5f020716c2a705d6091e09419290847414ead04ada",
    "gen_ka": "3625a5403e4701088a4b87af104f4a2ebc6431fc290109ceb56acdee4165fc17",
}


def generator_digest(name: str) -> str:
    render = GENERATOR_RENDERINGS[name]
    return hashlib.sha256("\n".join(map(render, range(3000))).encode()).hexdigest()


@pytest.mark.parametrize("name", GENERATOR_RENDERINGS)
def test_generator_streams_are_pinned(name):
    assert generator_digest(name) == GENERATOR_DIGESTS[name]


class TestPwOracleShape:
    def test_matches_direct_clauses_on_tiny_case(self):
        w = word([("a", 0), ("b", 1)])
        f = parse("a U b", ABC)
        assert oracle_eval_pw(w, 0, f)
        assert not oracle_eval_pw(w, 1, f)


class TestIndependence:
    ENGINE_NAMES = {"fold", "IntervalSet", "back_shift", "sat_positions", "lasso_instance",
                    # the engines' integer time base
                    "ticks", "time_base", "tick_column", "fold_base", "time_key",
                    "interval_keys", "key_column", "scaled_keys", "on_base",
                    "rational_ticks", "rational_pair", "interval_pair", "tick_text",
                    "key_texts", "key_intervals", "meets", "columns",
                    # a word's per-action index
                    "action_bits", "action_ticks", "_indexed", "_bitset",
                    "_distinct_ticks", "_bits", "_ticks"}

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

    def test_oracles_run_no_engine_code(self, monkeypatch):
        """At run time too: with the engines' formula walks and integer key
        helpers made to raise, at every binding of them in the package, and a
        state sequence's key columns and a word's per-action index unreadable,
        every oracle entry point and `critical_values` answer as they did
        before.  The second word's stamps have coprime denominators, so the
        oracle's own scale is not 2."""
        import sys

        from mtlsem import structures

        f = parse("G[0,4](a -> F[1,3] b) & !((a | b) U(1/2,2] c) & F[0,1/3] c", ABC)
        words = [(word([("a", "0"), ("b", "1/2"), ("a", "1"), ("c", "1"), ("a", "5/2"),
                        ("b", "7/2")]), ["0", "1/4", "1/2", "1", "3/2", "5/2", "3", "7/2"]),
                 (word([("a", "0"), ("b", "1/3"), ("c", "2/5"), ("c", "2/5"), ("b", "5/7")]),
                  ["0", "1/3", "2/5", "5/7", "1/2", "1/11"])]
        cases = []
        for rho, times in words:
            kappa, cw = word_to_tss(rho), compact(rho)
            # the Fraction views and the times, read before the helpers raise
            rho.events, rho.times, cw.blocks, cw.times, kappa.steps
            sizes = {t: len(acts) for acts, t in cw.blocks}
            points = [(t, sizes.get(t, 1)) for t in map(Fraction, times)]
            cases.append((rho, kappa, cw, points))

        def run():
            return [([critical_values(s, f) for s in (rho, kappa, cw)]
                     + [oracle_eval_pw(rho, i, f) for i in range(len(rho))]
                     + [oracle_eval_itw(rho, t, f) for t, _ in points]
                     + [oracle_eval_its(kappa, t, f) for t, _ in points]
                     + [oracle_eval_mx(cw, t, j, f) for t, size in points for j in range(size)])
                    for rho, kappa, cw, points in cases]
        want = run()

        def refuse(*_):
            raise AssertionError("an oracle ran engine code")
        names = ("fold", "subformulas", "time_key", "time_base", "interval_keys", "scaled_keys",
                 "key_column", "tick_column", "fold_base", "_until_bases", "rational_ticks",
                 "rational_pair", "interval_pair", "tick_text", "key_texts", "key_intervals",
                 "meets")
        for module in [m for name, m in sys.modules.items() if name.startswith("mtlsem.")]:
            for name in names:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        monkeypatch.setattr(structures.TimedStateSequence, "columns", property(refuse),
                            raising=False)
        for name in ("action_bits", "action_ticks"):
            monkeypatch.setattr(structures.TimedWord, name, refuse)
        assert run() == want


class TestDifferentialReportsADivergence:
    """With each engine patched to an empty result, `differential` names the
    first sample, in its sample order, where the engine says false and the
    oracle true."""

    W = word([("a", 0), ("b", 1)])
    EMPTY = {"sat_positions": lambda rho, f: frozenset(),
             "sat_set_itw": lambda rho, f: IntervalSet(()),
             "sat_set_its": lambda kappa, f: IntervalSet(()),
             "sat_set_mx": lambda cw, f: MixedSet(frozenset(), IntervalSet(()))}

    @pytest.mark.parametrize("text, engine, at", [
        ("a", "pw", 0), ("a", "itw", "0"), ("a", "its", "0"), ("a", "mx", ["0", 0]),
        ("!a", "pw", 1), ("!a", "itw", "1/2"), ("!a", "its", "1/2"),
        ("!a", "mx", ["1", 0]),  # the grid points come before the gaps
    ])
    def test_first_sample(self, text, engine, at, monkeypatch):
        for name, empty in self.EMPTY.items():
            monkeypatch.setattr(oracle, name, empty)
        structure = {"pw": self.W, "itw": self.W, "its": word_to_tss(self.W),
                     "mx": compact(self.W)}[engine]
        f = parse(text, ABC)
        assert oracle.differential(engine, structure, f) == {
            "at": at, "engine": False, "oracle": True}
