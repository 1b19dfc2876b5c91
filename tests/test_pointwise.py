"""Pointwise evaluation: position sets, single verdicts, and exact lasso verdicts
through `lasso_instance` (bounded windows on a finite unroll)."""

import pytest

from mtlsem.errors import BetaNotAllowedError
from mtlsem.formulas import alphabet, parse
from mtlsem.oracle import differential, gen_formula, gen_word
from mtlsem.pointwise import eval_pw, eval_pw_lasso, sat_positions
from mtlsem.structures import lasso, unroll, word

ABC = alphabet("a,b,c")
B_THEN_A = parse("F(b & X[0,0] a)", ABC)          # order-sensitive at equal times
WINDOWED_C = parse("F(0,1) F[0,3.5] c", ABC)      # needs a non-event start time

RHO1 = word([("a", "0"), ("b", "1"), ("a", "1"), ("c", "3.3")])
RHO2 = word([("a", "0"), ("a", "1"), ("b", "1"), ("c", "3.3")])


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
        for seed in range(400):
            w = gen_word(seed)
            f = gen_formula(seed * 17 + 3, ABC)
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
        from mtlsem.oracle import gen_lasso
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
        from mtlsem.oracle import gen_lasso

        for seed in range(150):
            l = gen_lasso(seed + 1234)
            f = gen_formula(seed * 97 + 11, ABC)
            exact = eval_pw_lasso(l, f)
            via_mx = eval_mx_lasso(l, compile_pw(f, ABC))
            assert via_mx is exact, (l, f)
