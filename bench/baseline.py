"""Re-measure the ROADMAP baseline table through the harness.

    python3 bench/baseline.py          # about a minute; prints a Markdown table

One untimed warm-up pass, then one timed pass over the table's cells, each a
closed-loop request on a uniform word of exactly n events (seed 1).  The
pointwise worst case, `a U c` over a word of only `a`, follows the table.
Not one of the benchmark's workloads: the n = 1000 mixed cells alone take
tens of seconds.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import words  # noqa: E402
from workloads import Request  # noqa: E402

CELLS = ((250, "F[0,2] a"), (500, "F[0,2] a"), (1000, "F[0,2] a"),
         (1000, "G(a -> F[1,3] b)"), (2000, "F[0,2] a"))
ENGINES = ("sat_positions", "sat_set_itw", "sat_set_mx")
WORST = (1000, 2000, 4000)


def requests(mt):
    sigma = mt.alphabet("a,b,c")
    reqs = []
    for n, text in CELLS:
        w = mt.validate_word(words.events(1, n))
        f = mt.parse(text, sigma)
        reqs.append(Request(f"{n}|{text}|sat_positions", lambda w=w, f=f: mt.sat_positions(w, f)))
        reqs.append(Request(f"{n}|{text}|sat_set_itw", lambda w=w, f=f: mt.sat_set_itw(w, f)))
        if n <= 1000:
            reqs.append(Request(f"{n}|{text}|sat_set_mx",
                                lambda w=w, f=f: mt.sat_set_mx(mt.compact(w), f)))
    a_u_c = mt.parse("a U c", sigma)
    for n in WORST:
        w = mt.validate_word([("a", t) for _, t in words.events(1, n)])
        reqs.append(Request(f"worst|{n}", lambda w=w: mt.sat_positions(w, a_u_c)))
    return reqs


def main():
    mt = harness.fresh_import()
    reqs = requests(mt)
    harness.run_pass([r for r in reqs if r.label.startswith("250|")])  # warm-up
    timed = harness.run_pass(reqs)
    if any(timed.errors):
        raise SystemExit(f"a request raised: {timed.errors}")
    t = {r.label: s for r, s in zip(reqs, timed.times)}
    print("| n | formula | `sat_positions` | `sat_set_itw` | `sat_set_mx` |")
    print("|---|---------|-----------------|---------------|--------------|")
    for n, text in CELLS:
        cells = [f"{t[f'{n}|{text}|{e}']:.3f} s" if f"{n}|{text}|{e}" in t else "not run"
                 for e in ENGINES]
        print(f"| {n} | `{text}` | " + " | ".join(cells) + " |")
    print()
    print("`a U c` over an all-`a` word: " + ", ".join(
        f"{t[f'worst|{n}']:.3f} s at n = {n}" for n in WORST))


if __name__ == "__main__":
    main()
