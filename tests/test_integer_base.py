"""The engines on their integer time base: denominators the word and the windows
do not share, lassos with offsets in thirds, and a base above 2**64.

Each engine scales its inputs by D, the lcm of their denominators, and converts
only its results back.  Every case is checked against the oracle with
`oracle.differential`, and every endpoint an engine returns must be a
`Fraction` again, never a bare int.
"""

import hashlib
import math
import random
from fractions import Fraction

import pytest

from mtlsem.encodings import compact, word_to_tss
from mtlsem.formulas import Until, alphabet, fold, fold_base, horizon, parse, to_text
from mtlsem.interval_based import (
    eval_its,
    eval_itw,
    eval_itw_lasso,
    sat_set_its,
    sat_set_itw,
    sat_sets_its,
    sat_sets_itw,
)
from mtlsem.intervals import INF, interval, time_base
from mtlsem.mixed import compact_at, eval_mx, eval_mx_lasso, sat_sets_mx
from mtlsem.oracle import (
    differential,
    gen_formula,
    gen_ka,
    gen_word,
    oracle_eval_its,
    oracle_eval_itw,
    oracle_eval_mx,
    oracle_eval_pw,
)
from mtlsem.pointwise import eval_pw_lasso, sat_positions
from mtlsem.structures import duration, is_action_based, lasso, unroll, validate_tss, word
from shared import finite_window_bounds, scaled_words

ABC = alphabet("a,b,c")

# timestamp denominators 3, 7 and 11
COPRIME = word([("a", "0"), ("b", "2/7"), ("a", "1/3"), ("c", "1/3"), ("b", "5/11"),
                ("a", "1"), ("c", "10/7"), ("b", "17/11"), ("a", "2")])
# denominators near 2**61, 2**31 and 2**19: D is far above 2**64
P61, P31, P19 = 2**61 - 1, 2**31 - 1, 2**19 - 1
HUGE = word([("a", 0), ("b", Fraction(1, P61)), ("a", Fraction(1, P31)),
             ("c", Fraction(1, 3)), ("b", Fraction(1, 3) + Fraction(1, P19))])
KAPPA = validate_tss([
    [["a"], "[0,2/7]"], [["b"], "(2/7,1/3)"], [["a", "c"], "[1/3,5/11)"],
    [[], "[5/11,1]"], [["b"], "(1,17/11]"]])

# windows in sixths and tenths, which no timestamp above uses
FORMULAS = [
    "F[1/6,5/4] b",
    "a U(0,7/10) c",
    "G(a -> F[1/6,5/4] (b | c))",
    "(a | b) U(2/7,inf) c",
    "F(0,7/10) (b & F[1/6,5/4] a)",
    "!(b U[1/3,1/3] a) & G[0,5/4) F(0,7/10] sigma",
]
HUGE_FORMULAS = [
    f"F[0,1/{P19}] b",
    f"a U({Fraction(1, P61)},1/3] c",
    f"G(a -> F[1/{P31},1/2] b)",
]
MIXED_ONLY = ["F[1/6,5/4] (beta & b)", "!beta U(0,7/10) (a & !beta)"]

CASES = ([(COPRIME, text) for text in FORMULAS]
         + [(HUGE, text) for text in HUGE_FORMULAS])


def _fractions_only(table):
    for s in table.values():
        parts = getattr(s, "gap", s).parts
        for p in parts:
            for v in (p.lo.value, p.hi.value):
                assert type(v) is Fraction, (str(s), v)


def test_the_huge_case_needs_a_base_above_2_to_the_64():
    f = parse(HUGE_FORMULAS[1], ABC)
    assert time_base([*HUGE.times, *finite_window_bounds(f)]) > 2**64


@pytest.mark.parametrize("rho, text", CASES)
def test_word_engines_agree_with_the_oracle(rho, text):
    f = parse(text, ABC)
    for engine, structure in (("pw", rho), ("itw", rho), ("its", word_to_tss(rho)),
                              ("mx", compact(rho))):
        assert differential(engine, structure, f) is None, (engine, text)
    _fractions_only(sat_sets_itw(rho, f))
    _fractions_only(sat_sets_its(word_to_tss(rho), f))
    _fractions_only(sat_sets_mx(compact(rho), f))


@pytest.mark.parametrize("text", FORMULAS)
def test_state_sequence_agrees_with_the_oracle(text):
    f = parse(text, ABC)
    assert differential("its", KAPPA, f) is None
    _fractions_only(sat_sets_its(KAPPA, f))


@pytest.mark.parametrize("text", MIXED_ONLY)
def test_mixed_position_zero_atom_agrees_with_the_oracle(text):
    f = parse(text, ABC, allow_beta=True)
    for rho in (COPRIME, HUGE):
        assert differential("mx", compact(rho), f) is None, text
        _fractions_only(sat_sets_mx(compact(rho), f))


# a period of 4/3 with offsets in thirds, behind a prefix in sevenths
THIRDS = lasso(word([("a", "0"), ("b", "2/7"), ("c", "5/7")]),
               ["c", "a", "b"], ["1/3", "2/3", "4/3"], "4/3")
BOUNDED = [text for text in FORMULAS if horizon(parse(text, ABC)) != INF]


@pytest.mark.parametrize("text", FORMULAS)
def test_lasso_unroll_agrees_with_the_oracle(text):
    f = parse(text, ABC)
    reach = max(finite_window_bounds(f), default=Fraction(0)) + 1
    if horizon(f) != INF:
        reach = max(reach, horizon(f))
    w = unroll(THIRDS, duration(THIRDS.prefix) + 2 * THIRDS.period_duration + reach)
    for engine, structure in (("pw", w), ("itw", w), ("mx", compact(w))):
        assert differential(engine, structure, f) is None, (engine, text)


@pytest.mark.parametrize("text", BOUNDED)
def test_bounded_lasso_verdicts_match_the_oracle(text):
    f = parse(text, ABC)
    deep = unroll(THIRDS, duration(THIRDS.prefix) + horizon(f) + 2 * THIRDS.period_duration)
    assert eval_pw_lasso(THIRDS, f) == oracle_eval_pw(deep, 0, f)
    assert eval_itw_lasso(THIRDS, f) is oracle_eval_itw(deep, 0, f)
    assert eval_mx_lasso(THIRDS, f) is oracle_eval_mx(compact(deep), 0, 0, f)


def test_period_offsets_enter_the_base():
    # the window ends 1/210 before the first period event, at 5/7 + 1/3 = 22/21;
    # on a base without the offset's 3 that event would round into the window
    l = lasso(word([("a", "0"), ("b", "5/7")]), ["c"], ["1/3"], "2")
    f = parse("F[0,73/70] c", ABC)
    deep = unroll(l, 5)
    assert oracle_eval_pw(deep, 0, f) is False
    assert eval_pw_lasso(l, f) is False
    assert eval_itw_lasso(l, f) is False
    assert eval_mx_lasso(l, f) is False


# windows that add a denominator the generated words (halves) and state
# sequences lack, so every model's column is moved onto a larger base
RESCALED = ["F[0,1/7] a", "a U(1/3,5/2] b", "G(a -> F[2/11,3] b)",
            f"F(0,1/{P61 * P31}] b"]


@pytest.mark.parametrize("text", RESCALED)
def test_rescaled_columns_agree_with_the_other_engines_and_the_oracles(text):
    f = parse(text, ABC)
    for seed in range(300):
        w = gen_word(seed)
        assert sat_set_its(word_to_tss(w), f) == sat_set_itw(w, f), seed
        assert differential("pw", w, f) is None, seed
        assert differential("mx", compact(w), f) is None, seed


def _fold_base_cases():
    """(D0, f): criterion 8's corpus, the scaled words with gen_formula of their
    seed, and every gen_word seed 0-299 under each `RESCALED` formula."""
    for case in range(2000):
        yield gen_word(case + 60_000).ticks[0], gen_formula(case * 61 + 37, ABC)
        yield gen_word(case + 70_000).ticks[0], gen_formula(case * 67 + 41, ABC)
        kappa = gen_ka(case) if case % 2 else word_to_tss(gen_word(case + 80_000))
        yield kappa.columns[0], gen_formula(case * 71 + 43, ABC)
        yield (compact(gen_word(case + 90_000)).ticks[0],
               gen_formula(case * 73 + 47, ABC, allow_beta=True))
    for seed, rho in scaled_words():
        yield rho.ticks[0], gen_formula(seed, ABC)
    for text in RESCALED:
        for seed in range(300):
            yield gen_word(seed).ticks[0], parse(text, ABC)


def test_fold_base_is_the_lcm_of_d0_and_the_window_bounds():
    """Each window's own base, lifted: the base of the frozen bound list."""
    for D0, f in _fold_base_cases():
        assert fold_base(D0, f) == math.lcm(D0, time_base(finite_window_bounds(f))), to_text(f)


def _thirds_with_open_props(seed):
    """gen_ka's sequence with every endpoint divided by 3 and propositions on
    some open steps: a validated sequence that is not action-based."""
    rng = random.Random(seed)
    steps = []
    for props, iv in gen_ka(seed).steps:
        if not props and rng.random() < 0.7:
            props = frozenset(rng.sample("abc", rng.randint(1, 2)))
        steps.append((props, interval(iv.lo.value / 3, iv.hi.value / 3,
                                      iv.lo.closed, iv.hi.closed)))
    return validate_tss(steps)


@pytest.mark.parametrize("text", RESCALED)
def test_rescaled_validated_sequences_agree_with_the_oracle(text):
    f = parse(text, ABC)
    kappas = [_thirds_with_open_props(seed) for seed in range(100)]
    assert sum(not is_action_based(kappa) for kappa in kappas) > 50
    for seed, kappa in enumerate(kappas):
        assert differential("its", kappa, f) is None, seed
        for t in (0, kappa.steps[-1][1].hi.value):  # the ends of the covered span
            assert eval_its(kappa, t, f) is oracle_eval_its(kappa, t, f), seed


def _scaled(rho, m: Fraction):
    return word([(a, t * m) for a, t in rho.events])


@pytest.mark.parametrize("m", [Fraction(2, 3), Fraction(6, 5)], ids=str)
@pytest.mark.parametrize("engine", ["itw", "its", "mx"])
def test_fuzz_words_off_the_half_grid_agree_with_the_oracle(engine, m):
    """Criterion 8's words with their stamps scaled by m, so that the base D
    of the half-grid windows lies above the word's own base D0."""
    model = {"itw": lambda rho: rho, "its": word_to_tss, "mx": compact}[engine]
    for s in range(500):
        rho = _scaled(gen_word(s), m)
        f = gen_formula(s, ABC, max_depth=3, allow_beta=engine == "mx")
        assert differential(engine, model(rho), f) is None, (s, rho, f)


# ---------------------------------------------------------------------------
# windows off the word's base, against outputs pinned before the dense fold
# took its base from the windows itself

WINDOW_SCALES = (Fraction(1), Fraction(1, 3), Fraction(2, 7), Fraction(5, 11))
OFF_BASE_DIGEST = "dd04ec04326cbc99f3d1a5d7b2c26eed5d381dbab48b4a2f1b9a6685dce4d276"


def _windows_scaled(f, m: Fraction):
    """f with each window's ends times m."""
    def visit(node, *kids):
        if type(node) is Until:
            w = node.window
            hi = w.hi.value if w.hi.value == INF else w.hi.value * m
            return Until(kids[0], interval(w.lo.value * m, hi, w.lo.closed, w.hi.closed), kids[1])
        return type(node)(*kids) if kids else node
    return fold(f, visit)[f]


def _off_base_lines():
    """Per gen_word seed 0-399 and window scale: every dense set, the positions,
    and eval_itw and eval_mx at each stamp, each midpoint and one time off the base."""
    for seed in range(400):
        rho = gen_word(seed)
        cw, kappa = compact(rho), word_to_tss(rho)
        stamps = sorted(set(rho.times))
        times = stamps + [(u + v) / 2 for u, v in zip(stamps, stamps[1:])] + [stamps[-1] * Fraction(5, 7)]
        for m in WINDOW_SCALES:
            f = _windows_scaled(gen_formula(seed, ABC), m)
            yield f"{seed} {m} {to_text(f)} {sorted(sat_positions(rho, f))}"
            for sets in (sat_sets_itw(rho, f), sat_sets_its(kappa, f), sat_sets_mx(cw, f)):
                yield " ".join(str(s) for s in sets.values())
            yield "".join("1" if eval_itw(rho, t, f) else "0" for t in times)
            yield "".join("1" if eval_mx(cw, t, j, f) else "0"
                          for t in times for j in range(len(compact_at(cw, t))))


def test_windows_off_the_words_base_give_the_pinned_outputs():
    digest = hashlib.sha256("\n".join(_off_base_lines()).encode()).hexdigest()
    assert digest == OFF_BASE_DIGEST
