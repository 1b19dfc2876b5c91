"""Acceptance suite: one test per criterion, exact arithmetic, zero tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line per
criterion.  Every comparison is exact rational equality; the fuzz counts are
the contract, not a budget.
"""

import random
from fractions import Fraction

from mtlsem import gallery
from mtlsem.compilers import compile_itw, compile_pw
from mtlsem.encodings import (
    compact,
    to_tss,
    uncompact,
    word_position,
    word_to_tss,
)
from mtlsem.formulas import alphabet
from mtlsem.gallery import (
    B_THEN_A,
    OPEN_END_B_C,
    OPEN_START_B_C,
    MIX_ONLY,
    WORD_SWAP_AB,
    WORD_SWAP_BA,
    no_echo_after_a,
    no_simultaneous,
)
from mtlsem.interval_based import sat_set_its, sat_set_itw
from mtlsem.mixed import eval_mx_lasso, sat_set_mx
from mtlsem.oracle import (
    critical_points,
    differential,
    gen_formula,
    gen_ka,
    gen_word,
    oracle_eval_itw,
)
from mtlsem.pointwise import eval_pw, eval_pw_lasso
from mtlsem.structures import (
    is_strictly_monotone,
    lasso,
    validate_compact,
    word,
)

ABC = alphabet("a,b,c")
AB = alphabet("a,b")


def report(criterion: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_worked_examples():
    """Every bundled worked-example check reproduces its recorded outcome."""
    results = gallery.run_all()
    bad = [r for r in results if not r.passed]
    core = {
        "pointwise-sees-order-ba", "pointwise-sees-order-ab",
        "pointwise-misses-windowed-start", "interval-accepts-windowed-start",
        "interval-misses-order", "interval-sees-simultaneity-on-both",
        "compact-swap-ba", "compact-swap-ab", "state-image-collapses-the-swap",
        "mixed-recovers-order", "mixed-accepts-windowed-start",
        "mixed-rejects-interleaved-left-operand",
        "interval-accepts-interleaved-left-operand",
        "mixed-separates-shared-time-conjunct",
        "interval-rejects-shared-time-conjunct",
    }
    names = {r.name for r in results}
    report("1: paper fixture gallery",
           not bad and core <= names,
           f"{len(results)} checks, {len(bad)} failures")


def test_criterion_2_word_and_state_semantics_coincide():
    """Dense truth is invariant under the word-to-state-sequence encoding."""
    rng = random.Random(2024)
    divergences = 0
    for case in range(2000):
        rho = gen_word(case)
        f = gen_formula(case * 37 + 13, ABC)
        pts = critical_points(rho, f)
        t = rng.choice(pts)
        lhs = sat_set_itw(rho, f).member(t)
        rhs = sat_set_its(word_to_tss(rho), f).member(t)
        if lhs != rhs:
            divergences += 1
    report("2: itw equals its after encoding", divergences == 0,
           f"2000 cases, {divergences} divergences")


def test_criterion_3_compiler_equivalences():
    """Both compilers preserve their source semantics over the mixed engine."""
    bad_pw = bad_itw = bad_strength = 0
    for case in range(2000):
        rho = gen_word(case + 10_000)
        f = gen_formula(case * 41 + 17, ABC)
        if eval_pw(rho, 0, f) != (
                (0, 0) in sat_set_mx(compact(rho), compile_pw(f, ABC)).points):
            bad_pw += 1
    for case in range(2000):
        rho = gen_word(case + 20_000)
        f = gen_formula(case * 43 + 19, ABC)
        cw = compact(rho)
        mx = sat_set_mx(cw, compile_itw(f, ABC))
        if sat_set_itw(rho, f).member(Fraction(0)) != ((0, 0) in mx.points):
            bad_itw += 1
    for case in range(500):
        rho = gen_word(case + 30_000)
        f = gen_formula(case * 47 + 23, ABC)
        cw = compact(rho)
        mx = sat_set_mx(cw, compile_pw(f, ABC))
        for k, (acts, t) in enumerate(cw.blocks):
            for j in range(len(acts)):
                if ((k, j) in mx.points) != eval_pw(rho, word_position(cw, k, j), f):
                    bad_strength += 1
    report("3: semantics-preserving compilation",
           bad_pw == bad_itw == bad_strength == 0,
           f"pw 2000/{bad_pw} bad, itw 2000/{bad_itw} bad, "
           f"per-position 500/{bad_strength} bad")


def test_criterion_4_pointwise_compilation_forces_action_times():
    """A pointwise-compiled formula is unsatisfiable at no-action times."""
    rng = random.Random(4096)
    violations = 0
    for case in range(2000):
        rho = gen_word(case + 40_000)
        f = gen_formula(case * 53 + 29, ABC)
        cw = compact(rho)
        mx = sat_set_mx(cw, compile_pw(f, ABC))
        if not mx.gap.is_empty:
            violations += 1
            continue
        # sample one definite gap time when one exists
        if len(cw.blocks) > 1:
            k = rng.randrange(len(cw.blocks) - 1)
            mid = (cw.times[k] + cw.times[k + 1]) / 2
            if mx.gap.member(mid):
                violations += 1
    report("4: compiled-formula satisfaction implies an action time",
           violations == 0, f"2000 cases, {violations} violations")


def test_criterion_5_incomparability_witness_structure():
    """The swap pair separates the semantics exactly as recorded."""
    cw_ba, cw_ab = compact(WORD_SWAP_BA), compact(WORD_SWAP_AB)
    ok = cw_ba != cw_ab
    ok &= word_to_tss(WORD_SWAP_BA) == word_to_tss(WORD_SWAP_AB)
    ok &= eval_pw(WORD_SWAP_BA, 0, B_THEN_A) is True
    ok &= eval_pw(WORD_SWAP_AB, 0, B_THEN_A) is False
    mismatches = 0
    for case in range(500):
        f = gen_formula(case * 59 + 31, ABC)
        s1 = sat_set_itw(WORD_SWAP_BA, f)
        s2 = sat_set_itw(WORD_SWAP_AB, f)
        if s1 != s2:
            mismatches += 1
    report("5: incomparability witnesses", ok and mismatches == 0,
           f"500 formulas, {mismatches} dense differences")


def test_criterion_6_strictness_and_dense_only_language():
    """The no-simultaneity formula characterizes strict monotonicity, and the
    one-unit-echo language matches the oracle on hand-built words."""
    phi_s = no_simultaneous(ABC)
    bad = 0
    for case in range(1000):
        rho = gen_word(case + 50_000, stutter_free=True)
        if sat_set_itw(rho, phi_s).member(Fraction(0)) != is_strictly_monotone(rho):
            bad += 1
    phi_dp = no_echo_after_a(AB)
    hand_built = [
        [("a", 0)],
        [("b", 0)],
        [("a", 0), ("a", 1)],
        [("a", 0), ("b", 1)],                        # echo exactly one unit after a
        [("a", 0), ("a", "1/2"), ("b", "3/2")],
        [("a", 0), ("a", "1/2"), ("b", 2)],
        [("a", 0), ("b", "1/2"), ("a", 1)],
        [("a", 0), ("a", 2), ("b", 3)],
        [("a", 0), ("a", 2), ("b", "5/2")],
        [("a", 0), ("b", "3/4"), ("a", "3/2"), ("b", "7/4")],
        [("a", 0), ("a", 1), ("a", 2)],
        [("a", 0), ("b", 0), ("a", 1)],
        [("a", 0), ("a", "1/3"), ("b", "4/3")],
        [("b", 0), ("a", "1/2"), ("a", "3/2"), ("b", "5/2")],
        [("a", 0), ("a", "3/2"), ("b", "5/2")],
        [("b", 0), ("b", 1), ("b", 2)],
        [("a", 0), ("a", 1), ("b", 1)],
        [("a", 0), ("b", 1), ("b", 1)],
        [("a", 0), ("a", "1/2"), ("a", 1), ("b", "3/2")],
        [("a", 0), ("b", "1/2"), ("b", 1), ("a", "3/2")],
    ]
    bad_dp = 0
    for events in hand_built:
        rho = word(events)
        if sat_set_itw(rho, phi_dp).member(Fraction(0)) != oracle_eval_itw(
                rho, Fraction(0), phi_dp):
            bad_dp += 1
    report("6: strict-monotonicity formula and echo language",
           bad == 0 and bad_dp == 0,
           f"1000 stutter-free words ({bad} bad), 20 hand-built ({bad_dp} bad)")


def test_criterion_7_infinite_word_fixtures():
    """The recorded lasso verdicts, pointwise and mixed, each decided exactly on
    the finite word and bounded formula of `lasso_instance`."""
    tail = (["c"], ["1"], "1")
    ok = eval_pw_lasso(lasso(WORD_SWAP_BA, *tail), B_THEN_A) is True
    ok &= eval_pw_lasso(lasso(WORD_SWAP_AB, *tail), B_THEN_A) is False
    probe = lasso(word([("a", 0), ("c", 0), ("b", 0), ("c", 1), ("c", 3)]), *tail)
    ok &= eval_mx_lasso(probe, OPEN_END_B_C) is True
    ok &= eval_mx_lasso(probe, OPEN_START_B_C) is False
    witness = lasso(word([("c", 0), ("b", 0), ("a", 0), ("c", 5)]), *tail)
    ok &= eval_mx_lasso(witness, MIX_ONLY) is True
    report("7: infinite-word verdicts", ok)


def test_criterion_8_differential_fuzzing_and_roundtrips():
    """Engines against the brute-force oracle, and the encoding identities."""
    cases = {
        "pw": lambda case: (gen_word(case + 60_000), gen_formula(case * 61 + 37, ABC)),
        "itw": lambda case: (gen_word(case + 70_000), gen_formula(case * 67 + 41, ABC)),
        "its": lambda case: (gen_ka(case) if case % 2 else word_to_tss(gen_word(case + 80_000)),
                             gen_formula(case * 71 + 43, ABC)),
        "mx": lambda case: (compact(gen_word(case + 90_000)),
                            gen_formula(case * 73 + 47, ABC, allow_beta=True)),
    }
    bad = {engine: sum(differential(engine, *make(case)) is not None for case in range(2000))
           for engine, make in cases.items()}

    bad_round = 0
    for case in range(1000):
        rho = gen_word(case + 100_000)
        cw = compact(rho)
        if uncompact(cw) != rho or compact(uncompact(cw)) != cw:
            bad_round += 1
    bad_recipe = 0
    for case in range(1000):
        kappa = gen_ka(case + 5000)
        rebuilt = validate_compact(
            [(tuple(sorted(props)), iv.lo.value)
             for props, iv in kappa.steps if props])
        if to_tss(rebuilt) != kappa:
            bad_recipe += 1

    ok = not any(bad.values()) and bad_round == 0 and bad_recipe == 0
    report("8: differential fuzzing and encodings",
           ok,
           f"pw/itw/its/mx bad cases {bad['pw']}/{bad['itw']}/{bad['its']}/{bad['mx']}, "
           f"roundtrip {bad_round} bad, recipe {bad_recipe} bad")
