"""Formula parsing, printing, and structural metrics."""

import math
import pickle
import random
import re
from fractions import Fraction

import pytest

from mtlsem.errors import BetaNotAllowedError, FormulaSyntaxError, MtlsemError, UnknownAtomError
from mtlsem.formulas import (
    BETA,
    FULL,
    And,
    Atom,
    Beta,
    Not,
    Until,
    alphabet,
    f_eventually,
    f_implies,
    f_next,
    f_or,
    f_sigma,
    f_true,
    fold,
    fold_base,
    horizon,
    is_bounded,
    parse,
    temporal_depth,
    to_text,
    uses_beta,
)
from mtlsem.encodings import compact, word_to_tss
from mtlsem.interval_based import sat_sets_its, sat_sets_itw
from mtlsem.intervals import (
    INF,
    interval,
    parse_interval,
    rat_str,
    rational,
    rational_pair,
    rational_ticks,
)
from mtlsem.mixed import sat_sets_mx
from mtlsem.oracle import _gen_window, gen_formula, gen_word
from mtlsem.pointwise import sat_positions
from shared import CASES, CHAINS, LASSO_CASES, S1_S2, WIDE

ABC = alphabet("a,b,c")


class TestInterning:
    def test_parse_returns_one_object(self):
        for text in ("F[0,2] a", "G(a -> F[1,3] b)", "(a | b) U(1,3] !c", "X[0,1/2] !sigma"):
            assert parse(text, ABC) is parse(text, ABC)

    def test_sugar_and_spelled_out_forms_are_one_object(self):
        assert parse("a | b", ABC) is parse("!(!a & !b)", ABC)
        assert parse("a -> b", ABC) is Not(And(Atom("a"), Not(Atom("b"))))
        assert parse("F[0,2] a", ABC) is Until(f_true(ABC), interval(0, 2), Atom("a"))
        assert parse("G b", ABC) is parse("!(true U !b)", ABC)
        assert parse("noact", ABC) is Not(f_sigma(ABC))

    def test_beta_is_one_object(self):
        assert Beta() is BETA
        assert parse("beta", ABC, allow_beta=True) is BETA

    def test_equal_windows_give_one_node(self):
        a, b = Atom("a"), Atom("b")
        assert Until(a, interval(0, "1/2"), b) is Until(a, interval(0, Fraction(1, 2)), b)
        assert Until(a, interval(0, 1), b) is not Until(a, interval(0, 1, True, False), b)

    def test_a_wrong_field_count_is_a_type_error(self):
        with pytest.raises(TypeError, match=r"Until takes fields \('left', 'window', 'right'\)"):
            Until(Atom("a"), Atom("b"))

    def test_nodes_are_immutable(self):
        with pytest.raises(AttributeError):
            Atom("a").name = "b"

    def test_repr_is_the_field_listing(self):
        assert repr(Not(Atom("a"))) == "Not(arg=Atom(name='a'))"
        assert repr(BETA) == "Beta()"


class TestFold:
    def test_each_distinct_node_once_children_first(self):
        f = parse("(a & b) U (a & b)", ABC)
        seen = []
        table = fold(f, lambda node, *kids: seen.append(node) or len(seen))
        assert [to_text(n) for n in seen] == ["a", "b", "(a & b)", "((a & b) U[0,inf) (a & b))"]
        assert list(table.values()) == [1, 2, 3, 4]

    def test_deep_nesting_needs_no_recursion(self):
        f = Atom("a")
        for _ in range(5000):
            f = Not(f)
        assert temporal_depth(f) == 0
        assert to_text(f).count("!") == 5000


def _explicit_order(f):
    """Distinct subformulas, children first: a walk over child iterators."""
    order, seen, stack = [], {f}, [(f, iter(f.children))]
    while stack:
        node, kids = stack[-1]
        kid = next((c for c in kids if c not in seen), None)
        if kid is None:
            stack.pop()
            order.append(node)
        else:
            seen.add(kid)
            stack.append((kid, iter(kid.children)))
    return order


def _all_sets(rho, f):
    """Every engine's table of f on rho, with its sets as text; the beta-free
    engines only when f is beta-free."""
    tables = {"mx": sat_sets_mx(compact(rho), f)}
    if not uses_beta(f):
        tables.update(itw=sat_sets_itw(rho, f), its=sat_sets_its(word_to_tss(rho), f),
                      pw={f: sorted(sat_positions(rho, f))})
    return {name: [(g, str(s)) for g, s in table.items()] for name, table in tables.items()}


ORDER_CASES = (
    [(gen_word(seed), gen_formula(seed, ABC, allow_beta=seed % 2 == 1)) for seed in range(500)]
    + [(rho, parse(deep, WIDE)) for rho, deep, _ in CASES]
    + [(S1_S2, parse(deep, WIDE)) for deep, _, _ in LASSO_CASES]
    + [(S1_S2, build()) for _, build in CHAINS.values()])


class TestCachedOrder:
    """`fold` and the metrics read one order cached on the node."""

    def test_fold_order_is_the_explicit_walk(self):
        for _, f in ORDER_CASES:
            want = _explicit_order(f)
            assert list(fold(f, lambda *_: None)) == want
            assert list(fold(f, lambda *_: None)) == want  # read from the cache

    def test_fold_base_is_the_lcm_of_the_window_denominators(self):
        for _, f in ORDER_CASES:
            want = math.lcm(*{v.denominator for g in _explicit_order(f) if type(g) is Until
                              for v in (g.window.lo.value, g.window.hi.value) if v != INF})
            for D0 in (1, 6, 35):
                assert fold_base(D0, f) == math.lcm(D0, want)
                assert fold_base(D0, f) == math.lcm(D0, want)  # read from the cache

    def test_pickle_round_trip_is_the_same_formula(self):
        for rho, f in ORDER_CASES:
            want = _all_sets(rho, f)
            back = pickle.loads(pickle.dumps(f))
            assert back is f
            assert _all_sets(rho, back) == want

    def test_an_unpickled_formula_builds_its_own_order(self):
        data = pickle.dumps(parse("G(a -> F[1/3,3] (b U c))", ABC))
        f = pickle.loads(data)
        assert f is parse("G(a -> F[1/3,3] (b U c))", ABC)
        assert list(fold(f, lambda *_: None)) == _explicit_order(f)
        assert fold_base(1, f) == 3 and fold_base(10, f) == 30  # windows [1/3,3] and [0,inf)


class TestParse:
    def test_b_then_a(self):
        got = parse("F(b & X[0,0] a)", ABC)
        inner = And(Atom("b"), f_next(interval(0, 0), Atom("a"), ABC))
        assert got == f_eventually(FULL, inner, ABC)

    def test_nested_eventually(self):
        got = parse("F(0,1) F[0,3.5] c", ABC)
        inner = f_eventually(interval(0, "7/2"), Atom("c"), ABC)
        assert got == f_eventually(interval(0, 1, False, False), inner, ABC)

    def test_sigma_expands(self):
        assert parse("sigma", ABC) == f_or(Atom("a"), f_or(Atom("b"), Atom("c")))

    def test_noact_is_not_sigma(self):
        assert parse("noact", ABC) == Not(f_sigma(ABC))

    def test_until_binds_like_and(self):
        got = parse("a U b & c", ABC)
        assert got == Until(Atom("a"), FULL, And(Atom("b"), Atom("c")))
        got = parse("a & b U c", ABC)
        assert got == And(Atom("a"), Until(Atom("b"), FULL, Atom("c")))

    def test_until_right_associative(self):
        got = parse("a U b U c", ABC)
        assert got == Until(Atom("a"), FULL, Until(Atom("b"), FULL, Atom("c")))

    def test_interval_suffix_forms(self):
        assert parse("a U(1,2] b", ABC) == Until(
            Atom("a"), interval(1, 2, False, True), Atom("b"))
        assert parse("a U[1,inf) b", ABC) == Until(
            Atom("a"), interval(1, INF, True, False), Atom("b"))

    def test_implies_lowest(self):
        got = parse("a -> b | c", ABC)
        assert got == Not(And(Atom("a"), Not(f_or(Atom("b"), Atom("c")))))
        a, b, c = Atom("a"), Atom("b"), Atom("c")
        assert parse("a & b | c -> a | b U c -> c", ABC) is f_implies(
            f_or(And(a, b), c), f_implies(f_or(a, Until(b, FULL, c)), c))

    def test_unknown_atom(self):
        with pytest.raises(UnknownAtomError):
            parse("d", ABC)

    def test_beta_needs_mode(self):
        with pytest.raises(BetaNotAllowedError):
            parse("beta", ABC)
        assert parse("beta", ABC, allow_beta=True) == BETA

    def test_syntax_error_position(self):
        with pytest.raises(FormulaSyntaxError):
            parse("a &", ABC)
        with pytest.raises(FormulaSyntaxError):
            parse("a b", ABC)
        with pytest.raises(FormulaSyntaxError):
            parse("F[2,1] a", ABC)


class TestPrint:
    def test_roundtrip_fixtures(self):
        for text in ["F(b & X[0,0] a)", "F(0,1) F[0,3.5] c",
                     "F[0,1](F[0,1) b & F[1,1] c)"]:
            f = parse(text, ABC)
            assert parse(to_text(f), ABC) == f

    def test_roundtrip_fuzzed(self):
        rng = random.Random(31)
        for _ in range(1000):
            f = _rand_formula(rng, 0)
            assert parse(to_text(f), ABC, allow_beta=True) == f


class TestTextGrammar:
    """Formula windows, `rational` and `parse_interval` read one rational and
    interval grammar."""

    def test_round_trip(self):
        rng = random.Random(53)
        for _ in range(2000):
            q = Fraction(rng.randrange(10**6), rng.randrange(1, 10**3))
            assert rational(rat_str(q)) == q
            n, d = rng.randrange(100), rng.randrange(1000)
            assert rational(f"{n}.{d:03}") == n + Fraction(d, 1000)
            w = _gen_window(rng)
            assert parse_interval(str(w)) == w
            assert parse(f"a U{w} b", ABC).window == w

    @pytest.mark.parametrize("text", ["007", "0.050", "1.000", "0.0", "00.10",
                                      "123456789012345678901234567890"])
    def test_integers_and_decimals_read_as_fraction_does(self, text):
        assert rational(text) == Fraction(text)
        assert parse_interval(f"[{text},{text}]") == interval(Fraction(text), Fraction(text))

    def test_spaces_around_the_slash(self):
        half = parse_interval("[0, 1 / 2]")
        assert half == interval(0, Fraction(1, 2))
        assert parse("F[0, 1 / 2] a", ABC) is f_eventually(half, Atom("a"), ABC)
        assert parse("F[0,1\t/2] a", ABC) is parse("F[0,1/2] a", ABC)
        assert rational(" 1 / 2 ") == Fraction(1, 2)

    def test_empty_alphabet_rejected(self):
        with pytest.raises(MtlsemError, match="^alphabet must be non-empty$"):
            alphabet([])

    def test_parenthesised_atom_named_like_inf(self):
        sigma = alphabet("a,inf_x")
        assert parse("F(inf_x)", sigma) is f_eventually(FULL, Atom("inf_x"), sigma)

    @pytest.mark.parametrize("text", ["1/0", "1 / 0", "1.5/2", "1/", ".5", "-1", "inf"])
    def test_malformed_rational_rejected_everywhere(self, text):
        with pytest.raises(MtlsemError):
            rational(text)
        with pytest.raises(MtlsemError):
            parse_interval(f"[0,{text}]")
        with pytest.raises(FormulaSyntaxError):
            parse(f"F[0,{text}] a", ABC)



# The grammar as a reference: a rational, its denominator (None for a decimal
# or an int), and an interval of two of them.
_REF_RATIONAL = r"\s*(\d+(?:\.\d+|\s*/\s*(\d+))?)\s*"
_REF_INTERVAL = r"\s*([\[(])\s*(\d+(?:\.\d+|\s*/\s*(\d+))?)\s*,\s*(\d+(?:\.\d+|\s*/\s*(\d+))?|inf)\s*([\])])\s*"


def _rational_texts(rng, k):
    """k rational texts, most in the grammar: padded decimals, leading zeros,
    spaced slashes, numerators past 2^64, and near misses."""
    out = []
    for _ in range(k):
        n = rng.choice([rng.randrange(100), rng.randrange(10**6), rng.randrange(2**64, 2**80)])
        d = rng.choice([1, 2, 3, 8, 10, 12, 10**rng.randrange(1, 4), 2**64 + 13, 0])
        pad = rng.choice(["", " ", "  ", "\t", "\n"])
        form = rng.randrange(9)
        if form == 0:
            text = str(n)
        elif form == 1:
            text = "0" * rng.randrange(1, 4) + str(n)
        elif form == 2:
            text = f"{n}.{rng.randrange(1000):03}" + "0" * rng.randrange(3)
        elif form == 3:
            text = f"{n}{pad}/{pad}{d}"
        elif form == 4:
            text = f"{n}/{d:0{rng.randrange(1, 5)}}"
        else:
            text = rng.choice([f"-{n}", f"+{n}", f".{n}", f"{n}.", f"{n}/", f"/{d}", f"{n}e3",
                               f"{n}_0", f"{n} {d}", f"{n}//{d}", f"{n}.5/{d}", "inf", "", pad,
                               f"0x{n}", f"{n}/-{d}"])
        out.append(rng.choice(["", " ", "\t "]) + text + rng.choice(["", " ", " \n"]))
    return out


class TestReaderAgainstFraction:
    """`rational_pair`, `rational_ticks` and their wrappers, `rational` and
    `parse_interval`, against the standard library's reading, on a fixed
    corpus of about 2,000 texts."""

    def test_rationals(self):
        texts = _rational_texts(random.Random(71), 1400)
        read = 0
        for text in texts:
            m = re.fullmatch(_REF_RATIONAL, text)
            if m and (m[2] is None or int(m[2])):
                D, (v,) = rational_ticks([text])
                assert Fraction(v, D) == Fraction("".join(text.split())) == rational(text)
                assert Fraction(*rational_pair(text)) == rational(text)
                read += 1
                continue
            want = (f"zero denominator: {m[1]!r}" if m else
                    f"not a nonnegative rational: {text!r}")
            for call in (rational_ticks, lambda t: rational(t[0]), lambda t: rational_pair(t[0])):
                with pytest.raises(MtlsemError) as exc:
                    call([text])
                assert str(exc.value) == want
        assert 700 < read < 1300  # both sides of the grammar are exercised
        # a batch, plain ("p", "p/q") or not, reads as its texts one by one
        good = [t for t in texts if re.fullmatch(_REF_RATIONAL, t) and "/0" not in t
                and not re.search(r"/\s*0+\s*$", t)]
        plain = [t.strip() for t in good if re.fullmatch(r"\s*\d+(/\d+)?\s*", t)]
        assert 100 < len(plain) < len(good)
        for batch in (good, plain):
            D, ticks = rational_ticks(batch)
            assert D == math.lcm(*{rational_ticks([t])[0] for t in batch})
            assert [Fraction(v, D) for v in ticks] == [rational(t) for t in batch]
        # it raises for its first bad text
        with pytest.raises(MtlsemError, match="zero denominator: '1/0'"):
            rational_ticks(good[:5] + ["1/0", "x"] + good)
        with pytest.raises(MtlsemError, match="not a nonnegative rational: 'x'"):
            rational_ticks(good[:5] + ["x", "1/0"] + good)
        with pytest.raises(MtlsemError, match="zero denominator: '3/0'"):
            rational_ticks(plain[:5] + ["3/0", "2/00"] + plain)
        assert rational_ticks([]) == (1, [])

    def test_intervals(self):
        rng = random.Random(73)
        ends = _rational_texts(rng, 1200)
        for lo, hi in zip(ends[::2], ends[1::2]):
            hi = "inf" if rng.random() < 0.15 else hi
            text = f"{rng.choice('[(')}{lo},{hi}{rng.choice(')]')}"
            if rng.random() < 0.05:
                text = text[:-1]
            m = re.fullmatch(_REF_INTERVAL, text)
            if not m:
                want = f"not an interval: {text!r}"
            elif m[4] == "inf" and m[6] == "]":
                want = f"infinite upper bound must be open: {text!r}"
            elif m[3] is not None and not int(m[3]):
                want = f"zero denominator: {m[2]!r}"
            elif m[5] is not None and not int(m[5]):
                want = f"zero denominator: {m[4]!r}"
            else:
                lo_v = Fraction("".join(m[2].split()))
                hi_v = INF if m[4] == "inf" else Fraction("".join(m[4].split()))
                lo_closed, hi_closed = m[1] == "[", m[6] == "]"
                if lo_v < hi_v or lo_v == hi_v and lo_closed and hi_closed:
                    assert parse_interval(text) == interval(lo_v, hi_v, lo_closed, hi_closed)
                    continue
                want = f"empty interval: {m[1]}{rat_str(lo_v)},{rat_str(hi_v)}{m[6]}"
            with pytest.raises(MtlsemError) as exc:
                parse_interval(text)
            assert str(exc.value) == want


def _rand_formula(rng, depth):
    if depth >= 6 or rng.random() < 0.3:
        return rng.choice([Atom("a"), Atom("b"), Atom("c"), BETA])
    kind = rng.randrange(3)
    if kind == 0:
        return Not(_rand_formula(rng, depth + 1))
    if kind == 1:
        return And(_rand_formula(rng, depth + 1), _rand_formula(rng, depth + 1))
    lo = rng.choice([Fraction(0), Fraction(1, 2), Fraction(1)])
    hi = rng.choice([lo, lo + 1, INF])
    lo_c = rng.random() < 0.5
    hi_c = rng.random() < 0.5 and hi != INF
    if lo == hi:
        lo_c = hi_c = True
    return Until(_rand_formula(rng, depth + 1),
                 interval(lo, hi, lo_c, hi_c),
                 _rand_formula(rng, depth + 1))


class TestMetrics:
    def test_horizon_nested(self):
        assert horizon(parse("F(0,1) F[0,3.5] c", ABC)) == Fraction(9, 2)

    def test_horizon_atom(self):
        assert horizon(Atom("a")) == 0

    def test_horizon_unbounded(self):
        assert horizon(parse("F(b & X[0,0] a)", ABC)) == INF
        assert not is_bounded(parse("F(b & X[0,0] a)", ABC))

    def test_bounded(self):
        gamma2 = parse("F[0,1](F[0,1) b & F[1,1] c)", ABC)
        assert is_bounded(gamma2)
        assert horizon(gamma2) == 2

    def test_uses_beta(self):
        assert not uses_beta(parse("F(b & X[0,0] a)", ABC))
        assert uses_beta(parse("a U (beta & b)", ABC, allow_beta=True))

    def test_temporal_depth(self):
        assert temporal_depth(Atom("a")) == 0
        assert temporal_depth(parse("F(0,1) F[0,3.5] c", ABC)) == 2


class TestDesugarEquivalences:
    """Sugar is definitional, so sugared and spelled-out forms are one AST and
    one verdict under every engine."""

    PAIRS = [
        ("F[0,1] a", "true U[0,1] a"),
        ("G[0,2] a", "!(true U[0,2] !a)"),
        ("X[0,0] a", "noact U[0,0] a"),
        ("a | b", "!(!a & !b)"),
        ("a -> b", "!(a & !b)"),
        ("false", "!true"),
    ]

    def test_structural_identity(self):
        for sugared, spelled in self.PAIRS:
            assert parse(sugared, ABC) == parse(spelled, ABC)

    def test_same_verdicts_everywhere(self):
        from mtlsem.encodings import compact
        from mtlsem.interval_based import eval_itw
        from mtlsem.mixed import eval_mx
        from mtlsem.oracle import gen_word
        from mtlsem.pointwise import eval_pw

        for seed in range(40):
            rho = gen_word(seed + 11_000)
            for sugared, spelled in self.PAIRS:
                f, g = parse(sugared, ABC), parse(spelled, ABC)
                assert eval_pw(rho, 0, f) == eval_pw(rho, 0, g)
                assert eval_itw(rho, 0, f) == eval_itw(rho, 0, g)
                assert eval_mx(compact(rho), 0, 0, f) == eval_mx(compact(rho), 0, 0, g)
