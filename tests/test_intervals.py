"""Interval algebra: construction, boolean ops, and the back_shift quantifier check."""

import random
from fractions import Fraction
from functools import cached_property

import pytest

import mtlsem.intervals
from mtlsem.errors import MtlsemError
from mtlsem.intervals import (
    INF,
    Bound,
    Interval,
    IntervalSet,
    back_shift,
    difference_keys,
    interval,
    normalize_keys,
    parse_interval,
    punctual,
    rat_str,
    rational,
    time_base,
)
from shared import _reference_parts, complement_keys, interval_keys


def iv(text):
    return parse_interval(text)


def iset(*texts):
    return IntervalSet.from_intervals(iv(t) for t in texts)


class TestRational:
    def test_decimal_parses_exactly(self):
        assert rational("3.3") == Fraction(33, 10)

    def test_fraction_form(self):
        assert rational("33/10") == Fraction(33, 10)
        assert rat_str(Fraction(33, 10)) == "33/10"

    def test_negative_rejected(self):
        with pytest.raises(MtlsemError):
            rational("-1")


class TestInterval:
    def test_punctual(self):
        assert punctual(0) == iv("[0,0]")
        assert punctual("33/10") == iv("[33/10,33/10]")
        assert punctual(1).lo == punctual(1).hi

    def test_empty_forms_rejected(self):
        with pytest.raises(MtlsemError):
            interval(1, 1, True, False)
        with pytest.raises(MtlsemError):
            interval(2, 1)

    def test_infinite_upper(self):
        u = iv("[0,inf)")
        assert u.contains(Fraction(10**9))
        with pytest.raises(MtlsemError):
            parse_interval("[0,inf]")

    def test_constructor_rejections(self):
        with pytest.raises(MtlsemError, match="^an infinite bound cannot be closed$"):
            interval(0, INF, True, True)
        with pytest.raises(MtlsemError, match="^intervals live over nonnegative values$"):
            Interval(Bound(Fraction(-1), True), Bound(Fraction(1), True))
        with pytest.raises(MtlsemError, match="^lower bound must be finite$"):
            Interval(Bound(INF, False), Bound(INF, False))

    def test_membership_flags(self):
        assert not iv("(1,2]").contains(Fraction(1))
        assert iv("(1,2]").contains(Fraction(2))

    def test_str_roundtrip(self):
        for text in ["[0,1]", "(0,1]", "[0,1)", "(1/2,33/10)", "[2,inf)"]:
            assert str(iv(text)) == text

    def test_keys_are_converted_once(self, monkeypatch):
        """`keys` is the one place an Interval becomes keys: equality, hashing,
        printing and membership read it, and it is computed once."""
        calls, real = [], Interval.keys.func

        def counted(x):
            calls.append(x)
            return real(x)
        keys = cached_property(counted)
        keys.__set_name__(Interval, "keys")
        monkeypatch.setattr(Interval, "keys", keys)
        x, other = interval(Fraction(1, 3), Fraction(5, 7), False, True), iv("(1/3,5/7]")
        for _ in range(2):
            assert x.keys == (21, (22, 45))
            assert hash(x) == hash(other)
            assert str(x) == "(1/3,5/7]"
            assert x == other and x.contains(Fraction(1, 2)) and not x.contains(Fraction(1, 3))
        assert sum(c is x for c in calls) == 1

    def test_parse_builds_no_interval_through_the_constructor(self, monkeypatch):
        texts = ["[0,0]", "(0,1]", "[1/3,5/7)", "(0.25,inf)", "[2/4,6/8]", "[ 10 / 15 , inf)"]
        want = [interval(Fraction(0), Fraction(0)), interval(0, 1, False, True),
                interval(Fraction(1, 3), Fraction(5, 7), True, False),
                interval(Fraction(1, 4), INF, False, False),
                interval(Fraction(1, 2), Fraction(3, 4)), interval(Fraction(2, 3), INF, True, False)]

        def refuse(*_):
            raise AssertionError("parse_interval built through the constructor")
        monkeypatch.setattr(mtlsem.intervals, "interval", refuse)
        monkeypatch.setattr(Interval, "__post_init__", refuse)
        got = [parse_interval(text) for text in texts]
        assert got == want
        assert [(x.lo, x.hi) for x in got] == [(x.lo, x.hi) for x in want]
        assert [x.keys for x in got] == [x.keys for x in want]


class TestSetOps:
    def test_union_keeps_point_gap(self):
        got = iset("[0,1)").union(iset("(1,2]"))
        assert got.parts == (iv("[0,1)"), iv("(1,2]"))

    def test_union_merges_adjacent(self):
        got = iset("[0,1]").union(iset("(1,2]"))
        assert got.parts == (iv("[0,2]"),)

    def test_union_identity(self):
        assert IntervalSet.empty().union(iset("[0,0]")) == iset("[0,0]")

    def test_intersect(self):
        assert iset("[0,2]").intersect(iset("(1,3]")) == iset("(1,2]")

    def test_complement_removes_points(self):
        got = iset("[1,1]", "[33/10,33/10]").complement(iv("[0,33/10]"))
        assert got == iset("[0,1)", "(1,33/10)")

    def test_complement_of_empty(self):
        assert IntervalSet.empty().complement(iv("[0,5]")) == iset("[0,5]")

    def test_complement_requires_containment(self):
        with pytest.raises(MtlsemError):
            iset("[0,2]").complement(iv("[0,1]"))

    def test_repr_is_the_set_text(self):
        assert repr(iset("[0,1/2)", "(2,inf)")) == "IntervalSet({[0,1/2), (2,inf)})"
        assert repr(IntervalSet.empty()) == "IntervalSet({})"

    def test_member(self):
        assert not iset("[0,1)").member(Fraction(1))
        assert iset("(1,2]").member(Fraction(2))
        assert not IntervalSet.empty().member(Fraction(0))

    def test_the_constructor_normalizes_its_parts(self):
        got = IntervalSet((iv("[1,3]"), iv("[0,2]")))
        assert got.complement(iv("[0,5]")) == iset("(3,5]")
        assert str(IntervalSet((iv("[0,2]"), iv("[1,3]")))) == "{[0,3]}"
        assert str(IntervalSet((iv("(1,2]"), iv("[0,1]"), iv("[3,3]")))) == "{[0,2], [3,3]}"
        rng = random.Random(6)
        for _ in range(400):
            parts = [_rand_interval(rng) for _ in range(rng.randint(0, 5))]
            rng.shuffle(parts)
            s = IntervalSet(parts)
            assert s == IntervalSet.of(*parts) == IntervalSet.from_intervals(parts)
            assert str(s) == str(IntervalSet(parts[::-1]))
            assert IntervalSet(s.parts).parts == s.parts
            for t in _probes(*parts):
                assert s.member(t) == any(p.contains(t) for p in parts), (parts, t)


# ---------------------------------------------------------------------------
# fuzzed algebra laws

_VALS = [Fraction(n, d) for n in range(0, 9) for d in (1, 2, 3)]


def _rand_interval(rng, vals=_VALS):
    lo = rng.choice(vals)
    hi = rng.choice([v for v in vals if v >= lo] or [lo])
    lo_c = rng.random() < 0.5
    hi_c = rng.random() < 0.5
    if lo == hi:
        lo_c = hi_c = True
    if rng.random() < 0.1:
        return interval(lo, INF, lo_c, False)
    return interval(lo, hi, lo_c, hi_c)


def _rand_set(rng, domain=None):
    s = IntervalSet.from_intervals([_rand_interval(rng) for _ in range(rng.randint(0, 4))])
    return s if domain is None else s.intersect(IntervalSet.of(domain))


def test_normalization_idempotent():
    rng = random.Random(7)
    for _ in range(400):
        s = _rand_set(rng)
        assert IntervalSet.from_intervals(s.parts) == s


def test_normal_form_invariants():
    rng = random.Random(8)
    for _ in range(400):
        s = _rand_set(rng)
        for a, b in zip(s.parts, s.parts[1:]):
            assert IntervalSet.of(a).intersect(IntervalSet.of(b)).is_empty
            assert a.hi.value <= b.lo.value
            # no two parts whose union is one interval
            assert not (a.hi.value == b.lo.value and (a.hi.closed or b.lo.closed))


def test_boolean_laws_in_domain():
    rng = random.Random(9)
    dom = iv("[0,8]")
    for _ in range(300):
        a = _rand_set(rng, dom)
        b = _rand_set(rng, dom)
        ca, cb = a.complement(dom), b.complement(dom)
        # De Morgan, exact equality of normal forms
        assert a.union(b).complement(dom) == ca.intersect(cb)
        assert a.intersect(b).complement(dom) == ca.union(cb)
        assert a.union(ca) == IntervalSet.of(dom)
        assert a.intersect(ca).is_empty


# ---------------------------------------------------------------------------
# back_shift against direct quantifier enumeration

def _witness_exists(t, q, i):
    """exists t' in q : t' - t in i and t' > t, decided on a complete candidate grid.

    The valid witnesses form one interval with endpoints among the bounds of q
    and t + bounds of i, so probing those plus all pairwise midpoints decides
    emptiness exactly.
    """
    cands = [q.lo.value, q.hi.value]
    for b in (i.lo.value, i.hi.value):
        if b != INF:
            cands.append(t + b)
    cands = [c for c in cands if c != INF]
    for x in list(cands):
        for y in list(cands):
            cands.append((x + y) / 2)
    if i.hi.value == INF and q.hi.value == INF:
        cands.append(max(c for c in cands) + 1)
    seen = set()
    for tp in cands:
        if tp in seen:
            continue
        seen.add(tp)
        if tp > t and q.contains(tp) and i.contains(tp - t):
            return True
    return False


def _sample_points(q, i):
    pts = [Fraction(0), q.lo.value]
    if q.hi.value != INF:
        pts.append(q.hi.value)
    for b in (i.lo.value, i.hi.value):
        if b == INF:
            continue
        for base in [q.lo.value] + ([q.hi.value] if q.hi.value != INF else []):
            if base - b >= 0:
                pts.append(base - b)
            pts.append(base + b)
    pts = sorted(set(pts))
    out = list(pts)
    for a, b in zip(pts, pts[1:]):
        out.append((a + b) / 2)
    out.append(pts[-1] + 1)
    return out


def test_back_shift_spec_examples():
    assert back_shift(iv("[1,1]"), iv("[0,1)")) == iv("(0,1)")
    assert back_shift(iv("[33/10,33/10]"), iv("[0,7/2]")) == iv("[0,33/10)")
    assert back_shift(iv("[2,2]"), iv("[1,1]")) == iv("[1,1]")


def test_back_shift_of_an_unbounded_witness_window():
    assert back_shift(iv("[1,inf)"), iv("[0,inf)")) == iv("[0,inf)")
    assert back_shift(iv("(2,inf)"), iv("[1,1]")) == iv("(1,inf)")
    assert back_shift(iv("[0,inf)"), iv("[0,0]")) is None
    assert back_shift(iv("(0,inf)"), iv("(3/2,5/2]")) == iv("[0,inf)")


def test_back_shift_punctual_zero_constraint_is_empty():
    assert back_shift(iv("[5,5]"), iv("[0,0]")) is None


def test_back_shift_against_quantifier_enumeration():
    rng = random.Random(11)
    for _ in range(1000):
        q = _rand_interval(rng)
        i = _rand_interval(rng)
        got = back_shift(q, i)
        got_set = IntervalSet.empty() if got is None else IntervalSet.of(got)
        for t in _sample_points(q, i):
            assert got_set.member(t) == _witness_exists(t, q, i), (
                f"back_shift({q}, {i}) wrong at t={t}"
            )


# ---------------------------------------------------------------------------
# the linear sweeps against membership, endpoint by endpoint

def _rand_normal_set(rng):
    return IntervalSet.from_intervals(_rand_interval(rng) for _ in range(rng.randint(0, 8)))


def _probes(*sets_and_intervals):
    """Every finite endpoint, every midpoint between neighbours, and a point past them all.

    Membership in any of the given sets is constant between neighbouring
    endpoints, so these probes decide set equality and containment exactly.
    """
    vals = {Fraction(0)}
    for x in sets_and_intervals:
        for p in (x.parts if isinstance(x, IntervalSet) else (x,)):
            vals.add(p.lo.value)
            if p.hi.value != INF:
                vals.add(p.hi.value)
    vals = sorted(vals)
    return vals + [(a + b) / 2 for a, b in zip(vals, vals[1:])] + [vals[-1] + 1]


def _assert_normal(s):
    for p in s.parts:
        assert p.lo.value != INF
    assert IntervalSet.from_intervals(s.parts) == s


def test_flag_combinations_and_unbounded_parts_are_drawn():
    rng = random.Random(21)
    kinds = set()
    for _ in range(300):
        for p in _rand_normal_set(rng).parts:
            kinds.add((p.lo.closed, p.hi.closed, p.lo == p.hi, p.hi.value == INF))
    for lo_c in (True, False):
        for hi_c in (True, False):
            assert (lo_c, hi_c, False, False) in kinds
    assert (True, True, True, False) in kinds
    assert any(k[3] for k in kinds)


def test_intersect_and_difference_by_membership():
    rng = random.Random(22)
    for _ in range(600):
        a, b = _rand_normal_set(rng), _rand_normal_set(rng)
        both, only_a = a.intersect(b), a.difference(b)
        _assert_normal(both)
        _assert_normal(only_a)
        for t in _probes(a, b):
            assert both.member(t) == (a.member(t) and b.member(t)), (str(a), str(b), t)
            assert only_a.member(t) == (a.member(t) and not b.member(t)), (str(a), str(b), t)


def test_covers_by_membership():
    rng = random.Random(23)
    for _ in range(600):
        s, probe = _rand_normal_set(rng), _rand_interval(rng)
        expect = all(s.member(t) for t in _probes(s, probe) if probe.contains(t))
        assert s.covers(probe) == expect, (str(s), str(probe))


def test_clip_by_membership():
    rng = random.Random(25)
    for _ in range(600):
        s, domain = _rand_normal_set(rng), _rand_interval(rng)
        clipped = s.clip(domain)
        for t in _probes(s, domain):
            assert clipped.member(t) == (s.member(t) and domain.contains(t)), (str(s), str(domain), t)


def test_complement_walk_equals_the_difference_from_the_domain():
    domain = (3, 30)
    cases = [[], [(3, 5)], [(28, 30)], [(3, 4), (28, 30)], [domain], [(4, 29)]]
    rng = random.Random(24)
    for _ in range(600):
        keys = []
        for _ in range(rng.randint(0, 4)):
            lo = rng.randint(domain[0], domain[1])
            keys.append((lo, rng.randint(lo, domain[1])))
        cases.append(normalize_keys(keys))
    for keys in cases:
        assert difference_keys([domain], keys) == complement_keys(domain, keys), keys


# ---------------------------------------------------------------------------
# the integer time base: coprime denominators, and a base above 2**64

_ODD_VALS = ([Fraction(n, d) for n in range(0, 9) for d in (3, 7, 11)]
             + [Fraction(1, 6), Fraction(5, 4), Fraction(7, 10),
                Fraction(1, 2**61 - 1), Fraction(2**64 + 1, 2**31 - 1)])


def _assert_fraction_endpoints(s):
    for p in s.parts:
        assert type(p.lo.value) is Fraction, str(s)
        assert type(p.hi.value) is Fraction or p.hi.value == INF, str(s)


def test_time_base_is_the_lcm_of_the_denominators():
    assert time_base([Fraction(1, 3), Fraction(2, 7), Fraction(5, 11), INF]) == 231
    assert time_base([Fraction(4), Fraction(0)]) == 1
    assert time_base(_ODD_VALS) > 2**64


def test_keys_are_the_least_base_of_the_ends_and_decide_equality():
    rng = random.Random(40)
    drawn = [_rand_interval(rng, _ODD_VALS) for _ in range(300)]
    for x in drawn:
        d, pair = x.keys
        assert d == time_base([x.lo.value, x.hi.value])
        assert pair == interval_keys(x, d)
    for x, y in zip(drawn, drawn[1:] + drawn[:1]):
        same = (x.lo, x.hi) == (y.lo, y.hi)
        assert (x == y) is same and (x == Interval(x.lo, x.hi)) and hash(x) == hash(Interval(x.lo, x.hi))


def test_keys_round_trip_through_the_base():
    D = time_base(_ODD_VALS)
    rng = random.Random(26)
    for _ in range(300):
        x = _rand_interval(rng, _ODD_VALS)
        lo, hi = interval_keys(x, D)
        assert (lo % 3 == 0) == x.lo.closed and (hi == INF or (hi % 3 == 0) == x.hi.closed)
        back = IntervalSet.on_base(D, [(lo, hi)])
        assert back.parts == (x,)
        _assert_fraction_endpoints(back)


def test_bounds_share_one_bound_per_key_and_one_per_open_value():
    parts = IntervalSet.on_base(6, [(0, 3 * 5 - 1), (3 * 5 + 1, 3 * 7), (3 * 7 + 1, INF)]).parts
    before, after, closed = parts[0].hi, parts[1].lo, parts[1].hi
    assert (after.value, after.closed) == (Fraction(5, 6), False)
    assert (closed.value, closed.closed) == (Fraction(7, 6), True)
    assert after is before and parts[2].lo is not closed
    assert (parts[2].lo.value, parts[2].lo.closed) == (Fraction(7, 6), False)
    assert parts[2].hi == Bound(INF, False)


def test_sweeps_and_back_shift_on_coprime_and_huge_denominators():
    rng = random.Random(25)
    for _ in range(400):
        a, b = (IntervalSet.from_intervals(_rand_interval(rng, _ODD_VALS)
                                           for _ in range(rng.randint(0, 6)))
                for _ in range(2))
        union, both, only_a = a.union(b), a.intersect(b), a.difference(b)
        for s in (a, union, both, only_a):
            _assert_normal(s)
            _assert_fraction_endpoints(s)
        for t in _probes(a, b):
            assert union.member(t) == (a.member(t) or b.member(t)), (str(a), str(b), t)
            assert both.member(t) == (a.member(t) and b.member(t)), (str(a), str(b), t)
            assert only_a.member(t) == (a.member(t) and not b.member(t)), (str(a), str(b), t)
        q, i = _rand_interval(rng, _ODD_VALS), _rand_interval(rng, _ODD_VALS)
        got = back_shift(q, i)
        got_set = IntervalSet.empty() if got is None else IntervalSet.of(got)
        _assert_fraction_endpoints(got_set)
        for t in _sample_points(q, i):
            assert got_set.member(t) == _witness_exists(t, q, i), (str(q), str(i), t)


# ---------------------------------------------------------------------------
# sets held as keys, against the earlier conversion of a key list to Intervals

_FACTORS = (1, 2, 3, 7, 10, 2**61 - 1, 2**67 + 3)


def _on_finer_base(s, rng):
    """s as keys on its least base times a random factor, and that base."""
    D = time_base(v for p in s.parts for v in (p.lo.value, p.hi.value)) * rng.choice(_FACTORS)
    return IntervalSet.on_base(D, [interval_keys(p, D) for p in s.parts]), D


def test_sets_on_different_bases_are_equal_and_hash_alike():
    rng = random.Random(31)
    bases = []
    for _ in range(400):
        s = IntervalSet.from_intervals(_rand_interval(rng, _ODD_VALS)
                                       for _ in range(rng.randint(0, 6)))
        (a, Da), (b, Db) = _on_finer_base(s, rng), _on_finer_base(s, rng)
        bases += [Da, Db]
        by_parts = IntervalSet(_reference_parts(*a.keys))
        for x in (a, b, by_parts):
            assert x == s and hash(x) == hash(s), (str(s), Da, Db)
        assert a.parts == b.parts == s.parts
        if s.parts:  # one end moved by one key: a different set
            D, keys = a.keys
            lo, hi = keys[-1]
            other = IntervalSet.on_base(D, keys[:-1] + [(lo + 1, hi) if lo < hi else (lo, hi + 1)])
            assert other != a and other.parts != a.parts
    assert sum(D > 2**64 for D in bases) > 100


def test_member_on_and_off_the_base():
    rng = random.Random(32)
    for _ in range(400):
        s, D = _on_finer_base(_rand_normal_set(rng), rng)
        ref = _reference_parts(*s.keys)
        probes = _probes(s) + [Fraction(rng.randint(0, 90), rng.choice((7, 11, 13, 2**61 - 1)))
                               for _ in range(20)]
        for t in probes:
            assert s.member(t) == any(p.contains(t) for p in ref), (str(s), D, t)


def test_key_rendering_prints_as_fraction_str():
    rng = random.Random(33)
    for _ in range(400):
        s, D = _on_finer_base(IntervalSet.from_intervals(
            _rand_interval(rng, _ODD_VALS) for _ in range(rng.randint(0, 6))), rng)
        ref = _reference_parts(*s.keys)
        assert s.part_texts() == [str(p) for p in ref], D
        assert str(s) == "{" + ", ".join(str(p) for p in ref) + "}"
        assert s.parts == ref


def test_set_operations_between_parts_and_keys():
    rng = random.Random(34)
    for _ in range(400):
        a, b = _rand_normal_set(rng), _rand_normal_set(rng)
        ka, kb = _on_finer_base(a, rng)[0], _on_finer_base(b, rng)[0]
        pa, pb = IntervalSet(a.parts), IntervalSet(b.parts)
        for op in ("union", "intersect", "difference"):
            want = getattr(pa, op)(pb)
            for x, y in ((pa, kb), (ka, pb), (ka, kb)):
                got = getattr(x, op)(y)
                assert got == want and got.parts == want.parts, (op, str(a), str(b))
                assert got.parts == _reference_parts(*got.keys)
            for t in _probes(a, b):
                assert want.member(t) == {"union": a.member(t) or b.member(t),
                                          "intersect": a.member(t) and b.member(t),
                                          "difference": a.member(t) and not b.member(t)}[op]
