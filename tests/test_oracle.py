"""The brute-force grid: critical points, piecewise constancy, generators."""

import ast
import inspect
from fractions import Fraction

import pytest

from mtlsem import oracle
from mtlsem.encodings import word_to_tss
from mtlsem.formulas import alphabet, is_bounded, parse
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
    validate_word,
    word,
)

ABC = alphabet("a,b,c")
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

    def test_no_windows_gives_timestamps(self):
        got = critical_points(RHO1, parse("a", ABC))
        assert [v for v in got if v in set(RHO1.times)] == sorted(set(RHO1.times))

    def test_single_event(self):
        assert critical_points(word([("a", 0)]), parse("a", ABC)) == [0]


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
    ENGINE_NAMES = {"fold", "IntervalSet", "back_shift", "sat_positions", "lasso_instance"}

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

    def test_dense_oracles_reject_beta(self):
        f = parse("F beta", ABC, allow_beta=True)
        with pytest.raises(TypeError):
            oracle_eval_itw(RHO1, 0, f)
        with pytest.raises(TypeError):
            oracle_eval_its(word_to_tss(RHO1), 0, f)
