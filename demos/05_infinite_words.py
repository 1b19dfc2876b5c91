"""Infinite words as lassos: exact verdicts in every relation.

A lasso is a finite prefix plus a repeating timed period.  Past the prefix
the word repeats one period apart, so a witness of an unbounded Until can
always be found within one period past its window's start and the prefix:
every unbounded window closes at a finite bound, and the lasso unrolls to a
finite word deep enough for the bounded formula.  Pointwise, dense and mixed
verdicts are then all exact booleans, even for unbounded formulas.  The paper
promises only sound three-valued (true/false/unknown) dense and mixed
verdicts; exact ones go beyond it.

Run with: python3 demos/05_infinite_words.py
"""

from mtlsem import (
    alphabet,
    eval_itw_lasso,
    eval_mx_lasso,
    eval_pw_lasso,
    lasso,
    parse,
    unroll,
    word,
)

ABC = alphabet("a,b,c")
b_then_a = parse("F(b & X[0,0] a)", ABC)

swap_ba = word([("a", "0"), ("b", "1"), ("a", "1"), ("c", "3.3")])
swap_ab = word([("a", "0"), ("a", "1"), ("b", "1"), ("c", "3.3")])
inf_ba = lasso(swap_ba, ["c"], ["1"], "1")
inf_ab = lasso(swap_ab, ["c"], ["1"], "1")

print("the two lassos extend the swap pair by a c every time unit:")
print("  ", unroll(inf_ba, 6))
print("  ", unroll(inf_ab, 6))

print("\npointwise, the unbounded b-then-a tells the two lassos apart:")
print("  b-then-a on the ba-lasso:", eval_pw_lasso(inf_ba, b_then_a))
print("  b-then-a on the ab-lasso:", eval_pw_lasso(inf_ab, b_then_a))

print("\nthe dense reading refutes it on both: X[0,0] needs a later time at distance 0")
print("  itw verdict on the ba-lasso:", eval_itw_lasso(inf_ba, b_then_a))
print("  itw verdict on the ab-lasso:", eval_itw_lasso(inf_ab, b_then_a))

print("\nunbounded safety and response properties are decided too:")
ab_period = lasso(word([("a", "0")]), ["a", "b"], ["0", "1/2"], "1")
for text in ("G !c", "G F b", "G(a -> F[0,1] b)"):
    f = parse(text, ABC)
    print(f"  {text:18s} pw {eval_pw_lasso(ab_period, f)}, itw {eval_itw_lasso(ab_period, f)},"
          f" mx {eval_mx_lasso(ab_period, f)}")

gamma2 = parse("F[0,1](F[0,1) b & F[1,1] c)", ABC)
gamma3 = parse("F(0,1](F[0,1) b & F[1,1] c)", ABC)
probe = lasso(word([("a", 0), ("c", 0), ("b", 0), ("c", 1), ("c", 3)]),
              ["c"], ["1"], "1")
print("\nthe closed-start variant counts positions inside the block at time 0,")
print("the open-start variant does not:")
print("  closed start:", eval_mx_lasso(probe, gamma2))
print("  open start:  ", eval_mx_lasso(probe, gamma3))

mix_only = parse(
    "F(0,1](F[0,1) b & F[1,1] c) | (F(b & X[0,0] a) & G(0,2] noact)", ABC)
witness = lasso(word([("c", 0), ("b", 0), ("a", 0), ("c", 5)]), ["c"], ["1"], "1")
print("\na disjunction whose unbounded part has its witness in the prefix:",
      eval_mx_lasso(witness, mix_only))
