"""Independent references for the benchmark's output checks.

Nothing here is timed.  The brute-force oracles are exact but slow on long
words, so a sampled point is checked on the shortest input its verdict can
depend on.  MTL here is future-only and shift-invariant, so the verdict at a
time t depends only on events at or after the last event time t0 <= t, and
the input can be shifted to start at 0.  A bounded formula with horizon h
looks no further than t + h, so the input can stop at the first event time at
or after t + h; keeping that event keeps [t, t + h] inside the time domain.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from math import inf


def _cut(times, t, h):
    """Index range [lo, hi) of the events the verdict at time t depends on."""
    t0 = times[bisect_right(times, t) - 1]
    lo = bisect_left(times, t0)
    if h == inf:
        return lo, len(times), t0
    j = bisect_left(times, t + h)
    hi = len(times) if j == len(times) else bisect_right(times, times[j])
    return lo, hi, t0


def pw_truth(mt, rho, i, f) -> bool:
    """oracle_eval_pw at position i, on the events from i to its horizon."""
    times = rho.times
    h = mt.horizon(f)
    hi = len(times) if h == inf else bisect_right(times, times[i] + h)
    sub = tuple((a, t - times[i]) for a, t in rho.events[i:hi])
    return mt.oracle_eval_pw(mt.TimedWord(sub), 0, f)


def itw_truth(mt, rho, t, f) -> bool:
    lo, hi, t0 = _cut(rho.times, t, mt.horizon(f))
    sub = tuple((a, s - t0) for a, s in rho.events[lo:hi])
    return mt.oracle_eval_itw(mt.TimedWord(sub), t - t0, f)


def mx_truth(mt, cw, t, j, f) -> bool:
    lo, hi, t0 = _cut(cw.times, t, mt.horizon(f))
    sub = tuple((acts, s - t0) for acts, s in cw.blocks[lo:hi])
    return mt.oracle_eval_mx(mt.CompactTimedWord(sub), t - t0, j, f)


def dense_samples(rng, times, k: int) -> list:
    """k seeded times: alternately an event time and a point inside a gap."""
    out = []
    for m in range(k):
        i = rng.randrange(len(times))
        if m % 2 and i + 1 < len(times) and times[i] < times[i + 1]:
            out.append((times[i] + times[i + 1]) / 2)
        else:
            out.append(times[i])
    return out


def check_pw(mt, rng, rho, f, got, k: int):
    for i in rng.sample(range(len(rho)), min(k, len(rho))):
        if (i in got) != pw_truth(mt, rho, i, f):
            return f"pw disagrees with the oracle at position {i}"
    return None


def check_itw(mt, rng, rho, f, got, k: int):
    for t in dense_samples(rng, rho.times, k):
        if got.member(t) != itw_truth(mt, rho, t, f):
            return f"itw disagrees with the oracle at time {t}"
    return None


def mx_member(cw, got, t, j) -> bool:
    k = bisect_left(cw.times, t)
    if k < len(cw.times) and cw.times[k] == t:
        return (k, j) in got.points
    return got.gap.member(t)


def check_mx(mt, rng, cw, f, got, k: int):
    for t in dense_samples(rng, cw.times, k):
        b = bisect_left(cw.times, t)
        j = 0
        if b < len(cw.times) and cw.times[b] == t:
            j = rng.randrange(len(cw.blocks[b][0]))
        if mx_member(cw, got, t, j) != mx_truth(mt, cw, t, j, f):
            return f"mx disagrees with the oracle at ({t}, {j})"
    return None


def check_compiled_pw(cw, rho_positions, got):
    """compile_pw: the mixed set on the grid equals the pointwise positions."""
    pos = 0
    for k, (acts, _) in enumerate(cw.blocks):
        for j in range(len(acts)):
            if ((k, j) in got.points) != (pos in rho_positions):
                return f"compile_pw disagrees at grid point ({k}, {j})"
            pos += 1
    if not got.gap.is_empty:
        return "compile_pw holds at a time without an action"
    return None


def check_compiled_itw(cw, itw_set, got):
    """compile_itw: the mixed set at offset 0 equals the interval-based set."""
    for k, (_, t) in enumerate(cw.blocks):
        if ((k, 0) in got.points) != itw_set.member(t):
            return f"compile_itw disagrees at block {k}"
    return None


# ---------------------------------------------------------------------------
# CLI outputs rebuilt without the package

def word_json(events) -> dict:
    return {"events": [[a, str(t)] for a, t in events]}


def _blocks(events):
    blocks = []
    for a, t in events:
        if blocks and blocks[-1][1] == t:
            blocks[-1][0].append(a)
        else:
            blocks.append(([a], t))
    return blocks


def compact_json(events) -> dict:
    return {"blocks": [[acts, str(t)] for acts, t in _blocks(events)]}


def tss_json(events) -> dict:
    steps = []
    prev = None
    for acts, t in _blocks(events):
        if prev is not None:
            steps.append([[], f"({prev},{t})"])
        steps.append([sorted(set(acts)), f"[{t},{t}]"])
        prev = t
    return {"steps": steps}


def check_json(events) -> dict:
    times = [t for _, t in events]
    return {
        "kind": "word",
        "valid": True,
        "length": len(events),
        "stutter_free": len(set(events)) == len(events),
        "strictly_monotone": all(a < b for a, b in zip(times, times[1:])),
    }


def same_json(stdout: str, expected) -> bool:
    try:
        return json.loads(stdout) == expected
    except ValueError:
        return False
