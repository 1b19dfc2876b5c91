"""Relations between two runs of the engines that hold by the semantics, checked
on a word far past what the oracles can read.

Time scaling: multiplying every stamp and every window bound by m > 0 leaves
the pointwise positions as they are and scales every dense set by m; under
`mx` the points (block, position) stay and the gap scales.  The word has 4,000
events on integer stamps, so each engine runs its folds on long key lists, a
window in halves lies off the word's base before and after scaling, and each m
moves the windows and the stamps onto a new base.

The paper's embeddings: `compile_pw(f)` holds under `mx` exactly at the block
positions of f's `pw` positions, `compile_itw(f)` holds at (k, 0) exactly when
f holds under `itw` at block k's time, and `itw` on the word equals `its` on
its state sequence.  Window splitting: for windows I1 and I2 that meet,
`(x U_I1 y) | (x U_I2 y)` is `x U_(I1 u I2) y` under every relation.  The word
repeats actions at one stamp, so these relations read simultaneous events.
"""

import functools
import random
from fractions import Fraction

import pytest

from mtlsem.compilers import compile_itw, compile_pw
from mtlsem.encodings import block_position, compact, uncompact, word_to_tss
from mtlsem.formulas import Until, alphabet, fold, parse
from mtlsem.interval_based import sat_set_its, sat_set_itw
from mtlsem.intervals import INF, IntervalSet, interval
from mtlsem.mixed import sat_set_mx
from mtlsem.pointwise import sat_positions
from mtlsem.structures import is_stutter_free, word

ABC = alphabet("a,b,c")
SCALES = (Fraction(2, 3), Fraction(7, 5), Fraction(1, 11))
FORMULAS = ("G(a -> F[1,3] b)", "a U(1/2,5/2] c", "F[0,2](b & F(0,1] c)", "!a U b")
EMBEDDED = FORMULAS + ("F[0,0] b",)
# windows that meet, and their union
SPLITS = (("(0,1/3]", "(1/3,5/2)", "(0,5/2)"), ("[0,1/2)", "[1/2,2]", "[0,2]"),
          ("[0,0]", "[0,1]", "[0,1]"), ("[1,2]", "[2,inf)", "[1,inf)"),
          ("[0,2/7)", "[2/7,3/7]", "[0,3/7]"), ("(1/2,1]", "[1,3/2]", "(1/2,3/2]"),
          ("[0,1/3]", "(1/3,inf)", "[0,inf)"))
SHAPES = ("F{} b", "a U{} c", "!a U{} b")


def _long_word(n: int = 4000):
    rng = random.Random("metamorphic/4000")
    t, events = Fraction(0), []
    for i in range(n):
        t += rng.choice((0, 1, 1, 2)) if i else 0
        events.append((rng.choice("abc"), t))
    return word(events)


RHO = _long_word()


def _scaled(v, m):
    return v if v == INF else v * m


def _scaled_set(s: IntervalSet, m) -> IntervalSet:
    return IntervalSet.from_intervals(
        interval(p.lo.value * m, _scaled(p.hi.value, m), p.lo.closed, p.hi.closed) for p in s.parts)


def _windows_scaled(f, m):
    def visit(node, *kids):
        if type(node) is Until:
            w = node.window
            return Until(kids[0], interval(w.lo.value * m, _scaled(w.hi.value, m),
                                           w.lo.closed, w.hi.closed), kids[1])
        return type(node)(*kids) if kids else node
    return fold(f, visit)[f]


def _results(rho, f):
    mx = sat_set_mx(compact(rho), f)
    return (sat_positions(rho, f), sat_set_itw(rho, f), sat_set_its(word_to_tss(rho), f),
            mx.point_list, mx.gap)


@pytest.mark.parametrize("text", FORMULAS)
def test_scaling_time_scales_every_set(text):
    f = parse(text, ABC)
    positions, itw, its, points, gap = _results(RHO, f)
    for m in SCALES:
        rho = word([(a, t * m) for a, t in RHO.events])
        got = _results(rho, _windows_scaled(f, m))
        assert got[0] == positions, m
        assert got[1] == _scaled_set(itw, m), m
        assert got[2] == _scaled_set(its, m), m
        assert got[3] == points, m
        assert got[4] == _scaled_set(gap, m), m


def test_the_word_gives_every_relation_parts_to_scale():
    """Two of the formulas give each relation hundreds of positions, points or
    parts on the word, so the relation reads more than empty sets."""
    for text in FORMULAS[2:]:
        positions, itw, its, points, gap = _results(RHO, parse(text, ABC))
        assert min(len(positions), len(itw.keys[1]), len(its.keys[1]), len(points),
                   len(gap.keys[1])) > 200, text


@functools.cache
def _blocks():
    """The compact word of RHO and the (block, offset) of each of its positions."""
    cw = compact(RHO)
    return cw, [block_position(cw, i) for i in range(len(RHO))]


def test_the_word_repeats_actions_at_one_stamp():
    assert not is_stutter_free(RHO)
    assert uncompact(compact(RHO)) == RHO


@pytest.mark.parametrize("text", EMBEDDED)
def test_the_embeddings_hold_at_every_block(text):
    f = parse(text, ABC)
    cw, block_of = _blocks()
    pw_points = sorted(block_of[i] for i in sat_positions(RHO, f))
    assert sat_set_mx(cw, compile_pw(f, ABC)).point_list == pw_points
    itw = sat_set_itw(RHO, f)
    at_zero = {k for k, j in sat_set_mx(cw, compile_itw(f, ABC)).point_list if j == 0}
    assert at_zero == {k for k, t in enumerate(cw.times) if itw.member(t)}
    assert sat_set_its(word_to_tss(RHO), f) == itw


def _all_relations(text):
    f = parse(text, ABC)
    cw, _ = _blocks()
    return (sat_positions(RHO, f), sat_set_itw(RHO, f), sat_set_its(word_to_tss(RHO), f),
            sat_set_mx(cw, f))


@pytest.mark.parametrize("shape", SHAPES)
def test_windows_that_meet_split_an_until(shape):
    for w1, w2, joined in SPLITS:
        split = "(" + shape.format(w1) + ") | (" + shape.format(w2) + ")"
        assert _all_relations(split) == _all_relations(shape.format(joined)), (shape, w1, w2)
