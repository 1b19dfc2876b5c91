"""Relations between two runs of the engines that hold by the semantics, checked
on a word far past what the oracles can read.

Time scaling: multiplying every stamp and every window bound by m > 0 leaves
the pointwise positions as they are and scales every dense set by m; under
`mx` the points (block, position) stay and the gap scales.  The word has 4,000
events on integer stamps, so each engine runs its folds on long key lists, a
window in halves lies off the word's base before and after scaling, and each m
moves the windows and the stamps onto a new base.
"""

import random
from fractions import Fraction

import pytest

from mtlsem.encodings import compact, word_to_tss
from mtlsem.formulas import Until, alphabet, fold, parse
from mtlsem.interval_based import sat_set_its, sat_set_itw
from mtlsem.intervals import INF, IntervalSet, interval
from mtlsem.mixed import sat_set_mx
from mtlsem.pointwise import sat_positions
from mtlsem.structures import word

ABC = alphabet("a,b,c")
SCALES = (Fraction(2, 3), Fraction(7, 5), Fraction(1, 11))
FORMULAS = ("G(a -> F[1,3] b)", "a U(1/2,5/2] c", "F[0,2](b & F(0,1] c)", "!a U b")


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
