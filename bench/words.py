"""Seeded timed words of exactly n events.

`mtlsem.gen_word` draws its length at random, so the benchmark keeps its own
generator.  The same (seed, n, family) always yields the same events, because
`random.Random` seeded with a string hashes it with SHA-512, independently of
PYTHONHASHSEED.

The draw is stratified: each action and each step value occurs equally often
(within one) in a seeded order, and the rare `c` of the runs family falls
once in each of equal segments.  Evaluation cost depends on these counts and
gaps, so a plain random draw would move the benchmark's figures from seed to
seed by more than the bounds it has to hold.
"""

from __future__ import annotations

import random
from fractions import Fraction

STEPS = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2))
RUNS_C_SHARE = 0.002  # the rare `c` of the runs family
WIDE = tuple(f"s{i}" for i in range(20))
FAMILIES = ("uniform", "runs", "wide")


def _balanced(rng, values, k) -> list:
    out = [values[i % len(values)] for i in range(k)]
    rng.shuffle(out)
    return out


def events(seed, n: int, family: str = "uniform") -> list:
    """(action, Fraction) pairs starting at time 0 with non-decreasing stamps.

    uniform: actions from {a, b, c}, steps from {0, 1/2, 1, 3/2}.
    runs: the same steps, every action `a` but about 0.2% `c`;
    the pointwise worst case for unbounded Until.
    wide: the same steps, actions from the 20 symbols s0..s19.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown word family: {family!r}")
    if n < 1:
        raise ValueError("a timed word has at least one event")
    rng = random.Random(f"{family}/{seed}/{n}")
    steps = [Fraction(0)] + _balanced(rng, STEPS, n - 1)
    if family == "runs":
        acts = ["a"] * n
        m = max(1, round(n * RUNS_C_SHARE))
        for k in range(m):
            acts[int((k + rng.random()) * n / m)] = "c"
    else:
        acts = _balanced(rng, WIDE if family == "wide" else "abc", n)
    out = []
    t = Fraction(0)
    for act, step in zip(acts, steps):
        t += step
        out.append((act, t))
    return out
