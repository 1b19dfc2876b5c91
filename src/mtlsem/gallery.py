"""The bundled gallery of worked examples.

Every named check builds its inputs from scratch, runs one evaluation or
encoding, and compares against the expected outcome.  The gallery doubles as
executable documentation of what each satisfaction relation can and cannot
see; `run_all` powers the command-line `paper` subcommand and the acceptance
suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .compilers import compile_itw, compile_pw
from .encodings import compact, word_to_tss
from .errors import MtlsemError, NonMonotoneError
from .formulas import Alphabet, Formula, alphabet, parse, to_text
from .interval_based import eval_its, eval_itw
from .mixed import NO_ACTION, compact_at, eval_mx, eval_mx_lasso
from .pointwise import eval_pw, eval_pw_lasso
from .structures import (
    duration,
    is_action_based,
    is_strictly_monotone,
    is_stutter_free,
    lasso,
    tss_at,
    validate_tss,
    validate_word,
    word,
)

ABC = alphabet("a,b,c")
AB = alphabet("a,b")
PQ = alphabet("p,q")

# the swap pair: identical except for the order of the two actions at time 1
WORD_SWAP_BA = word([("a", "0"), ("b", "1"), ("a", "1"), ("c", "3.3")])
WORD_SWAP_AB = word([("a", "0"), ("a", "1"), ("b", "1"), ("c", "3.3")])

# order-sensitive: eventually b immediately followed by a at the same time
B_THEN_A = parse("F(b & X[0,0] a)", ABC)
# needs an off-event start: from somewhere in (0,1), c within 3.5
WINDOWED_C = parse("F(0,1) F[0,3.5] c", ABC)
# simultaneity without order
SIMUL_AB = parse("F(a & b)", ABC)

OPEN_END_B_C = parse("F[0,1](F[0,1) b & F[1,1] c)", ABC)      # closed outer start
OPEN_START_B_C = parse("F(0,1](F[0,1) b & F[1,1] c)", ABC)    # open outer start
MIX_ONLY = parse(
    "F(0,1](F[0,1) b & F[1,1] c) | (F(b & X[0,0] a) & G(0,2] noact)", ABC)


def no_simultaneous(sigma: Alphabet) -> Formula:
    """No two distinct letters ever share a timestamp (strict monotonicity,
    over stutter-free words)."""
    syms = sigma.symbols
    pairs = [f"({x} & {y})" for i, x in enumerate(syms) for y in syms[i + 1:]]
    clause = "(" + " | ".join(pairs) + ")"
    return parse(f"!{clause} & G !{clause}", sigma)


def no_echo_after_a(sigma: Alphabet = AB) -> Formula:
    """Between consecutive a's, nothing may happen exactly one unit after the
    first; the classic dense-only language over {a, b}."""
    return parse("!F(a & (!sigma U a) & (!a U (!a & F[1,1](a | b))))", sigma)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _checks():
    swap_image = validate_tss([
        [["a"], "[0,0]"], [[], "(0,1)"], [["a", "b"], "[1,1]"],
        [[], "(1,3.3)"], [["c"], "[3.3,3.3]"]])

    raw_word = [("a", "1"), ("b", "1.3"), ("c", "3.5"), ("b", "3.5")]
    broken_word = [("a", "1"), ("b", "1.3"), ("c", "1.2"), ("b", "3.5")]

    plain_tss = validate_tss(
        [[["p"], "[1,2)"], [["p", "q"], "[2,3)"], [["q"], "[3,3]"],
         [["p"], "(3,3.4]"]],
        allow_nonzero_start=True)

    interleaved = word([("a", 0), ("a", "1/2"), ("c", "1/2"),
                        ("c", "3/2"), ("b", "3/2")])
    interleave_f = parse("(a | noact) U[1,2] b", ABC)
    shared_tail = word([("c", 0), ("c", "1/2"), ("c", "3/2"), ("b", "3/2")])
    shared_tail_f = parse("(c | noact) U[1,2] (b & !c)", ABC)

    swap_ba_inf = lasso(WORD_SWAP_BA, ["c"], ["1"], "1")
    swap_ab_inf = lasso(WORD_SWAP_AB, ["c"], ["1"], "1")
    open_start_probe = lasso(word([("a", 0), ("c", 0), ("b", 0), ("c", 1), ("c", 3)]),
                             ["c"], ["1"], "1")
    mix_witness = lasso(word([("c", 0), ("b", 0), ("a", 0), ("c", 5)]),
                        ["c"], ["1"], "1")

    def accepts(fn):
        try:
            fn()
            return True
        except MtlsemError:
            return False

    yield ("raw-word-accepted-with-flag",
           lambda: accepts(lambda: validate_word(raw_word, allow_nonzero_start=True)),
           True)
    yield ("raw-word-rejected-by-default",
           lambda: accepts(lambda: validate_word(raw_word)), False)

    def monotone_violation_position():
        try:
            validate_word(broken_word, allow_nonzero_start=True)
            return -1
        except NonMonotoneError as exc:
            return exc.position

    yield ("monotonicity-violation-at-2", monotone_violation_position, 2)
    yield ("swap-word-is-valid",
           lambda: accepts(lambda: validate_word(WORD_SWAP_BA.events)), True)

    yield ("swap-word-duration",
           lambda: duration(WORD_SWAP_BA), Fraction(33, 10))
    yield ("raw-word-duration",
           lambda: duration(validate_word(raw_word, allow_nonzero_start=True)),
           Fraction(7, 2))

    yield ("two-events-strictly-monotone",
           lambda: is_strictly_monotone(word([("a", 0), ("c", 3)])), True)
    yield ("swap-at-one-not-strictly-monotone",
           lambda: (is_stutter_free(word([("a", 0), ("b", 1), ("a", 1), ("c", 3)])),
                    is_strictly_monotone(word([("a", 0), ("b", 1), ("a", 1), ("c", 3)]))),
           (True, False))
    yield ("repeated-pair-stutters",
           lambda: is_stutter_free(
               word([("a", 0), ("b", 1), ("a", 1), ("b", 1), ("c", 3)])), False)

    yield ("state-lookup-inside-steps",
           lambda: (tss_at(plain_tss, "1.2"), tss_at(plain_tss, "2.2"),
                    tss_at(plain_tss, 3), tss_at(plain_tss, "3.1")),
           (frozenset("p"), frozenset("pq"), frozenset("q"), frozenset("p")))
    yield ("overlapping-steps-rejected",
           lambda: accepts(lambda: validate_tss(
               [[["p"], "[1,2)"], [["p", "q"], "[2,3]"], [["p"], "[3,3.4]"]],
               allow_nonzero_start=True)), False)

    yield ("action-shape-accepted",
           lambda: is_action_based(validate_tss(
               [[["a"], "[0,0]"], [[], "(0,1)"], [["a", "b"], "[1,1]"]])), True)
    yield ("action-shape-needs-punctual-actions",
           lambda: is_action_based(validate_tss(
               [[["a"], "[0,0]"], [["a", "b"], "(0,1)"], [[], "[1,1]"]])), False)
    yield ("action-shape-needs-nonempty-start",
           lambda: is_action_based(validate_tss(
               [[[], "[0,0]"], [["b"], "(0,1)"], [["a", "b"], "[1,1]"]])), False)

    yield ("compact-swap-ba",
           lambda: str(compact(WORD_SWAP_BA)), "((a),0)((b,a),1)((c),33/10)")
    yield ("compact-swap-ab",
           lambda: str(compact(WORD_SWAP_AB)), "((a),0)((a,b),1)((c),33/10)")
    yield ("state-image-collapses-the-swap",
           lambda: (word_to_tss(WORD_SWAP_BA) == swap_image,
                    word_to_tss(WORD_SWAP_AB) == swap_image), (True, True))

    yield ("block-read-at-shared-time",
           lambda: compact_at(compact(WORD_SWAP_BA), 1), ("b", "a"))
    yield ("gap-read-is-no-action",
           lambda: compact_at(compact(WORD_SWAP_BA), "1/2"), (NO_ACTION,))

    yield ("pointwise-sees-order-ba",
           lambda: eval_pw(WORD_SWAP_BA, 0, B_THEN_A), True)
    yield ("pointwise-sees-order-ab",
           lambda: eval_pw(WORD_SWAP_AB, 0, B_THEN_A), False)
    yield ("pointwise-misses-windowed-start",
           lambda: eval_pw(WORD_SWAP_BA, 0, WINDOWED_C), False)

    yield ("interval-accepts-windowed-start",
           lambda: eval_itw(WORD_SWAP_BA, 0, WINDOWED_C), True)
    yield ("interval-misses-order",
           lambda: eval_itw(WORD_SWAP_BA, 0, B_THEN_A), False)
    yield ("interval-sees-simultaneity-on-both",
           lambda: (eval_itw(WORD_SWAP_BA, 0, SIMUL_AB),
                    eval_itw(WORD_SWAP_AB, 0, SIMUL_AB)), (True, True))

    yield ("state-semantics-agrees-on-collapsed-image",
           lambda: eval_its(swap_image, 0, B_THEN_A), False)
    yield ("state-semantics-atom-lookup",
           lambda: eval_its(plain_tss, "1.2", parse("p", PQ)), True)

    yield ("mixed-recovers-order",
           lambda: eval_mx(compact(WORD_SWAP_BA), 0, 0, B_THEN_A), True)
    yield ("mixed-accepts-windowed-start",
           lambda: eval_mx(compact(WORD_SWAP_BA), 0, 0, WINDOWED_C), True)
    yield ("mixed-rejects-interleaved-left-operand",
           lambda: eval_mx(compact(interleaved), 0, 0, interleave_f), False)
    yield ("interval-accepts-interleaved-left-operand",
           lambda: eval_itw(interleaved, 0, interleave_f), True)
    yield ("mixed-separates-shared-time-conjunct",
           lambda: eval_mx(compact(shared_tail), 0, 0, shared_tail_f), True)
    yield ("interval-rejects-shared-time-conjunct",
           lambda: eval_itw(shared_tail, 0, shared_tail_f), False)

    yield ("compile-pointwise-atom-is-identity",
           lambda: to_text(compile_pw(parse("a", ABC), ABC)), "a")
    yield ("compile-interval-atom-gains-position-scan",
           lambda: compile_itw(parse("a", ABC), ABC) ==
           parse("a | F[0,0] a", ABC), True)

    yield ("infinite-pointwise-sees-order-ba",
           lambda: eval_pw_lasso(swap_ba_inf, B_THEN_A), True)
    yield ("infinite-pointwise-sees-order-ab",
           lambda: eval_pw_lasso(swap_ab_inf, B_THEN_A), False)

    yield ("closed-start-counts-head-block",
           lambda: eval_mx_lasso(open_start_probe, OPEN_END_B_C), True)
    yield ("open-start-skips-head-block",
           lambda: eval_mx_lasso(open_start_probe, OPEN_START_B_C), False)
    yield ("mixed-only-disjunction-witness",
           lambda: eval_mx_lasso(mix_witness, MIX_ONLY), True)

    yield ("strictness-test-formula-on-swap-word",
           lambda: eval_itw(WORD_SWAP_BA, 0, no_simultaneous(ABC)), False)
    yield ("strictness-test-formula-on-sparse-word",
           lambda: eval_itw(word([("a", 0), ("c", 3)]), 0, no_simultaneous(ABC)), True)

    def order_sensitive_ast():
        from .formulas import And, Atom, f_eventually, f_next, FULL
        from .intervals import interval as iv

        inner = And(Atom("b"), f_next(iv(0, 0), Atom("a"), ABC))
        return B_THEN_A == f_eventually(FULL, inner, ABC)

    def windowed_ast():
        from .formulas import f_eventually
        from .intervals import interval as iv

        inner = f_eventually(iv(0, "7/2"), parse("c", ABC), ABC)
        return WINDOWED_C == f_eventually(iv(0, 1, False, False), inner, ABC)

    yield ("parse-order-sensitive-formula", order_sensitive_ast, True)
    yield ("parse-windowed-formula", windowed_ast, True)

    from .oracle import oracle_eval_itw, oracle_eval_mx, oracle_eval_pw

    yield ("oracle-confirms-windowed-start",
           lambda: oracle_eval_itw(WORD_SWAP_BA, Fraction(0), WINDOWED_C), True)
    yield ("oracle-confirms-mixed-order",
           lambda: oracle_eval_mx(compact(WORD_SWAP_BA), Fraction(0), 0, B_THEN_A),
           True)
    yield ("oracle-confirms-pointwise-refutation",
           lambda: oracle_eval_pw(WORD_SWAP_AB, 0, B_THEN_A), False)


def run_all():
    out = []
    for name, thunk, expect in _checks():
        try:
            got = thunk()
            passed = got == expect
            detail = f"got {_fmt(got)}, expected {_fmt(expect)}"
        except Exception as exc:  # a crashed check is a failed check
            passed = False
            detail = f"raised {type(exc).__name__}: {exc}"
        out.append(CheckResult(name, passed, detail))
    return out


def _fmt(v) -> str:
    if isinstance(v, frozenset):
        return "{" + ",".join(sorted(v)) + "}"
    if isinstance(v, tuple):
        return "(" + ", ".join(_fmt(x) for x in v) + ")"
    return str(v)
