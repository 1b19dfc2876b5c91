"""Every relation against its oracle off the half grid.

`gen_word`, `gen_formula` and `gen_ka` draw every step and window bound from
the half grid, and their streams are pinned by digest, so this module draws
with a seeded generator of its own: steps and window bounds are 0 or p/q with
q in {1, 2, 3, 5, 7}, windows are open, closed, punctual or unbounded, words
have 1-7 events and formulas depth at most 3.  Each word goes through
`oracle.differential` under `pw`, `itw`, `its` (on `word_to_tss`) and `mx` (on
`compact`, with `beta`), and each drawn action-based state sequence under `its`.
"""

import functools
import random
from fractions import Fraction

import pytest

from mtlsem.encodings import compact, word_to_tss
from mtlsem.formulas import BETA, And, Atom, Not, Until, alphabet, f_true, subformulas
from mtlsem.intervals import INF, interval, punctual
from mtlsem.oracle import differential
from mtlsem.structures import validate_tss, word

ABC = alphabet("a,b,c")
DENOMINATORS = (1, 2, 3, 5, 7)
CASES = 1500


def _value(rng, top: int = 2) -> Fraction:
    """p/q in [0, top], q drawn from `DENOMINATORS`."""
    q = rng.choice(DENOMINATORS)
    return Fraction(rng.randint(0, top * q), q)


def _length(rng) -> Fraction:
    """A positive p/q of at most 2."""
    q = rng.choice(DENOMINATORS)
    return Fraction(rng.randint(1, 2 * q), q)


def _step(rng) -> Fraction:
    """0 a quarter of the time, else a `_length`."""
    return Fraction(0) if rng.random() < 0.25 else _length(rng)


def draw_word(rng):
    t, events = Fraction(0), []
    for i in range(rng.randint(1, 7)):
        t += _step(rng) if i else 0
        events.append((rng.choice("abc"), t))
    return word(events)


def draw_ka(rng):
    """An action-based state sequence: punctual steps holding actions, and open
    steps of positive off-grid length holding none between them."""
    t, steps = Fraction(0), []
    for i in range(rng.randint(1, 5)):
        if i:
            nxt = t + _length(rng)
            steps.append((frozenset(), interval(t, nxt, False, False)))
            t = nxt
        steps.append((frozenset(rng.sample("abc", rng.randint(1, 3))), punctual(t)))
    return validate_tss(steps)


def draw_window(rng):
    lo, roll = _value(rng), rng.random()
    if roll < 0.2:
        return punctual(lo)
    if roll < 0.4:
        return interval(lo, INF, rng.random() < 0.5, False)
    return interval(lo, lo + _length(rng), rng.random() < 0.5, rng.random() < 0.5)


def draw_formula(rng, beta: bool = False, depth: int = 0):
    if depth >= 3 or rng.random() < 0.3:
        return BETA if beta and rng.random() < 0.15 else Atom(rng.choice(ABC.symbols))
    roll = rng.random()
    if roll < 0.25:
        return Not(draw_formula(rng, beta, depth + 1))
    if roll < 0.5:
        return And(draw_formula(rng, beta, depth + 1), draw_formula(rng, beta, depth + 1))
    w = draw_window(rng)
    left = f_true(ABC) if rng.random() < 0.5 else draw_formula(rng, beta, depth + 1)
    return Until(left, w, draw_formula(rng, beta, depth + 1))


@functools.cache
def corpus():
    """Per seed: a word, a formula, a formula that may use beta, and a state sequence."""
    out = []
    for seed in range(CASES):
        rng = random.Random(f"off-grid/{seed}")
        out.append((draw_word(rng), draw_formula(rng), draw_formula(rng, beta=True),
                    draw_ka(rng)))
    return tuple(out)


MODELS = {
    "pw": lambda rho, f, g, kappa: (rho, f),
    "itw": lambda rho, f, g, kappa: (rho, f),
    "its": lambda rho, f, g, kappa: (word_to_tss(rho), f),
    "its-ka": lambda rho, f, g, kappa: (kappa, f),
    "mx": lambda rho, f, g, kappa: (compact(rho), g),
}


@pytest.mark.parametrize("relation", MODELS)
def test_engines_agree_with_their_oracles_off_the_half_grid(relation):
    engine = relation.split("-")[0]
    for seed, case in enumerate(corpus()):
        model, f = MODELS[relation](*case)
        assert differential(engine, model, f) is None, (seed, str(model), f)


def test_the_corpus_leaves_the_half_grid():
    """Most words and most windows need a base with a 3, 5 or 7 in it, and
    every window shape is drawn."""
    words = [rho.ticks[0] for rho, *_ in corpus()]
    windows = [node.window for _, f, g, _ in corpus() for h in (f, g)
               for node in subformulas(h) if type(node) is Until]
    kappas = [kappa.columns[0] for *_, kappa in corpus()]
    off = lambda d: d % 3 == 0 or d % 5 == 0 or d % 7 == 0
    assert sum(map(off, words)) > len(words) / 2
    assert sum(map(off, kappas)) > len(kappas) / 2
    assert sum(off(w.keys[0]) for w in windows) > len(windows) / 2
    assert {(w.lo.closed, w.hi.closed, w.hi.value == INF, w.lo == w.hi) for w in windows} >= {
        (True, True, False, True), (False, False, True, False),
        (True, False, False, False), (False, True, False, False)}
