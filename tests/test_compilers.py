"""The two semantics-embedding compilers and their equivalence properties."""

import pytest

from mtlsem.compilers import compile_itw, compile_pw
from mtlsem.encodings import block_index_at, compact, word_position
from mtlsem.errors import BetaNotAllowedError
from mtlsem.formulas import (
    BETA,
    And,
    Atom,
    Not,
    Until,
    alphabet,
    f_eventually,
    f_implies,
    f_or,
    f_sigma,
    parse,
    to_text,
    uses_beta,
)
from mtlsem.interval_based import eval_itw, eval_itw_lasso, sat_set_itw
from mtlsem.intervals import interval
from mtlsem.mixed import eval_mx, eval_mx_lasso, sat_set_mx
from mtlsem.oracle import critical_points, gen_formula, gen_lasso, gen_word
from mtlsem.pointwise import eval_pw
from mtlsem.structures import lasso, word

ABC = alphabet("a,b,c")
SIGMA = f_sigma(ABC)


class TestPwClauses:
    def test_atom_is_identity(self):
        assert compile_pw(Atom("a"), ABC) == Atom("a")

    def test_negation_unfolds_once(self):
        assert compile_pw(Not(Atom("a")), ABC) == And(SIGMA, Not(Atom("a")))

    def test_until_clause_shape(self):
        f = Until(Atom("a"), interval(0, 1), Atom("b"))
        got = compile_pw(f, ABC)
        assert got == And(
            SIGMA, Until(f_or(Atom("a"), Not(SIGMA)), interval(0, 1),
                         And(Atom("b"), SIGMA)))

    def test_golden_order_sensitive_formula(self):
        got = compile_pw(parse("F(b & X[0,0] a)", ABC), ABC)
        assert not uses_beta(got)
        # frozen from the mechanical recursion, then verified to re-parse
        assert parse(to_text(got), ABC) == got

    def test_beta_rejected(self):
        with pytest.raises(BetaNotAllowedError):
            compile_pw(BETA, ABC)


class TestItwClauses:
    def test_atom_gains_position_scan(self):
        got = compile_itw(Atom("a"), ABC)
        assert got == f_or(Atom("a"), f_eventually(interval(0, 0), Atom("a"), ABC))

    def test_homomorphic_on_booleans(self):
        f = Not(And(Atom("a"), Atom("b")))
        got = compile_itw(f, ABC)
        assert got == Not(And(compile_itw(Atom("a"), ABC),
                              compile_itw(Atom("b"), ABC)))

    def test_until_introduces_position_zero_atom(self):
        f = Until(Atom("a"), interval(0, 1), Atom("b"))
        got = compile_itw(f, ABC)
        assert got == Until(
            f_implies(BETA, compile_itw(Atom("a"), ABC)), interval(0, 1),
            And(BETA, compile_itw(Atom("b"), ABC)))
        assert uses_beta(got)

    def test_windowed_formula_roundtrips(self):
        got = compile_itw(parse("F(0,1) F[0,3.5] c", ABC), ABC)
        assert parse(to_text(got), ABC, allow_beta=True) == got


class TestPointwiseEmbedding:
    def test_fuzzed_equivalence_at_start(self):
        for seed in range(250):
            rho = gen_word(seed + 1500)
            f = gen_formula(seed * 13 + 1, ABC)
            compiled = compile_pw(f, ABC)
            assert eval_pw(rho, 0, f) == eval_mx(compact(rho), 0, 0, compiled), (rho, f)

    def test_per_position_strengthening(self):
        for seed in range(120):
            rho = gen_word(seed + 1800)
            f = gen_formula(seed * 13 + 2, ABC)
            compiled = compile_pw(f, ABC)
            cw = compact(rho)
            got = sat_set_mx(cw, compiled)
            for k, (acts, t) in enumerate(cw.blocks):
                for j in range(len(acts)):
                    assert ((k, j) in got.points) == eval_pw(
                        rho, word_position(cw, k, j), f), (rho, f, k, j)

    def test_compiled_formula_forces_action_times(self):
        for seed in range(150):
            rho = gen_word(seed + 2500)
            f = gen_formula(seed * 17 + 3, ABC)
            got = sat_set_mx(compact(rho), compile_pw(f, ABC))
            assert got.gap.is_empty, (rho, f)


class TestIntervalEmbedding:
    def test_fuzzed_equivalence_at_start(self):
        for seed in range(250):
            rho = gen_word(seed + 3500)
            f = gen_formula(seed * 19 + 4, ABC)
            compiled = compile_itw(f, ABC)
            assert eval_itw(rho, 0, f) == eval_mx(compact(rho), 0, 0, compiled), (rho, f)

    def test_per_time_strengthening(self):
        for seed in range(60):
            rho = gen_word(seed + 3800)
            f = gen_formula(seed * 19 + 5, ABC)
            compiled = compile_itw(f, ABC)
            cw = compact(rho)
            itw_set = sat_set_itw(rho, f)
            mx_set = sat_set_mx(cw, compiled)
            for t in critical_points(rho, f):
                k = block_index_at(cw, t)
                at_mx = ((k, 0) in mx_set.points) if k is not None else mx_set.gap.member(t)
                assert itw_set.member(t) == at_mx, (rho, f, t)


class TestOpenStartLanguagesOnLassos:
    GAMMA2 = parse("F[0,1](F[0,1) b & F[1,1] c)", ABC)
    GAMMA3 = parse("F(0,1](F[0,1) b & F[1,1] c)", ABC)

    def test_interval_reading_implies_mixed_open_start(self):
        for seed in range(150):
            l = gen_lasso(seed + 600)
            lhs = eval_itw_lasso(l, self.GAMMA2)
            assert type(lhs) is bool
            if lhs is True:
                assert eval_mx_lasso(l, self.GAMMA3) is True, (l,)

    def test_inclusion_is_strict(self):
        # the inner eventually-within-[0,1) may pick a same-timestamp later
        # position under the mixed reading, so the two inner witnesses can be
        # exactly one time unit apart; the interval-based reading cannot see
        # that witness, and the two languages genuinely differ here
        l = lasso(word([("a", "0"), ("b", "1"), ("b", "1"), ("c", "2")]),
                  ["c"], ["1"], "1")
        assert eval_itw_lasso(l, self.GAMMA2) is False
        assert eval_mx_lasso(l, self.GAMMA3) is True
        stutter_free = lasso(word([("a", "0"), ("c", "1"), ("b", "1"), ("c", "2")]),
                             ["c"], ["1"], "1")
        assert eval_itw_lasso(stutter_free, self.GAMMA2) is False
        assert eval_mx_lasso(stutter_free, self.GAMMA3) is True
