"""Exact lasso verdicts: every unbounded window closed at the lasso's period.

`encodings.lasso_instance` rewrites each U_<l,inf) into U_<l, max(l,p)+P] and
unrolls the lasso past the rewritten formula's horizon.  These tests check
the verdicts it yields under pw, itw and mx against arguments written here,
and against the oracles on a formula closed at twice that bound.
"""

import pytest

from mtlsem.encodings import compact, lasso_instance
from mtlsem.formulas import Until, alphabet, fold, horizon, is_bounded, parse, subformulas
from mtlsem.interval_based import eval_itw_lasso
from mtlsem.intervals import INF, interval
from mtlsem.mixed import eval_mx_lasso
from mtlsem.oracle import gen_formula, gen_lasso, oracle_eval_itw, oracle_eval_mx, oracle_eval_pw
from mtlsem.pointwise import eval_pw_lasso
from mtlsem.structures import duration, lasso, unroll, word

ABC = alphabet("a,b,c")

# (a, 0), then the period (a, 0) (b, 1/2) of duration 1: an a at every integer
# time (two at 0), a b at every k + 1/2, and never a c
A_THEN_B = lasso(word([("a", "0")]), ["a", "b"], ["0", "1/2"], "1")


def _verdicts(l, f):
    return eval_pw_lasso(l, f), eval_itw_lasso(l, f), eval_mx_lasso(l, f)


@pytest.mark.parametrize("text", [
    # no c ever occurs, so !c holds at every position, time and lex point
    "G !c",
    # from any point, the next b at some k + 1/2 lies strictly later
    "G F b",
    # every a is at an integer k, and the b at k + 1/2 is 1/2 away, inside [0,1]
    "G(a -> F[0,1] b)",
])
def test_unbounded_safety_and_response_are_true(text):
    assert _verdicts(A_THEN_B, parse(text, ABC)) == (True,) * 3


def test_the_rewrite_closes_every_unbounded_window():
    # p = 0 and P = 1: [0,inf) becomes [0,1], (2,inf) becomes (2,3]
    rho, g = lasso_instance(A_THEN_B, parse("a U (b U(2,inf) a)", ABC))
    assert [str(n.window) for n in reversed(subformulas(g)) if type(n) is Until] == [
        "[0,1]", "(2,3]"]
    # the horizon is 4, and the unroll runs one period further: to 5
    assert horizon(g) == 4
    assert rho.times[-1] == 5


def _closed_twice(l, f):
    """f with each unbounded window closed at twice the rewrite's bound, and
    an unrolled word deep enough for it."""
    p, P = duration(l.prefix), l.period_duration

    def close(node, *kids):
        if type(node) is not Until:
            return type(node)(*kids) if kids else node
        w = node.window
        if w.hi.value == INF:
            w = interval(w.lo.value, 2 * (max(w.lo.value, p) + P), w.lo.closed, True)
        return Until(kids[0], w, kids[1])

    g = fold(f, close)[f]
    return unroll(l, max(p, horizon(g)) + P), g


def _unbounded_formula(seed):
    k = 0
    while is_bounded(f := gen_formula(seed * 1000 + k, ABC)):
        k += 1
    return f


def test_the_bound_is_large_enough():
    # a bound too small would lose a witness; twice the bound keeps it, and
    # the oracles know nothing of the rewrite
    for seed in range(100):
        l = gen_lasso(seed, max_prefix=4)
        f = _unbounded_formula(seed)
        rho, g = _closed_twice(l, f)
        want = (oracle_eval_pw(rho, 0, g), oracle_eval_itw(rho, 0, g),
                oracle_eval_mx(compact(rho), 0, 0, g))
        assert _verdicts(l, f) == want, (seed, l, f)


@pytest.mark.parametrize("verdict", [eval_pw_lasso, eval_itw_lasso, eval_mx_lasso],
                         ids=["pw", "itw", "mx"])
def test_every_lasso_verdict_is_a_bool(verdict):
    for seed in range(200):
        got = verdict(gen_lasso(seed), gen_formula(seed, ABC))
        assert type(got) is bool, (seed, got)


@pytest.mark.parametrize("text", ["F[0,2] a", "G[0,3](a -> F[0,2] b)", "!a U(1/2,2] (b & X[0,1] c)"])
def test_a_bounded_formula_is_its_own_instance(text):
    # nothing to close: f comes back as is, and the unroll reads horizon(f)
    f = parse(text, ABC)
    for seed in range(100):
        l = gen_lasso(seed, max_prefix=30)
        rho, g = lasso_instance(l, f)
        assert g is f
        assert rho == unroll(l, max(duration(l.prefix), horizon(f)) + l.period_duration)
