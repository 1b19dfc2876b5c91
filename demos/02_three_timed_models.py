"""Timed words, compact timed words and timed state sequences, and the maps
between them.

The central phenomenon: two words that differ only in the order of
simultaneous events have different compact forms but the SAME state-sequence
image, because a set of propositions cannot remember a sequence's order.

Run with: python3 demos/02_three_timed_models.py
"""

from mtlsem import (
    block_position,
    compact,
    is_action_based,
    is_strictly_monotone,
    is_stutter_free,
    mfs_decompose,
    stutter_free_preimages,
    to_tss,
    uncompact,
    word,
    word_position,
)

swap_ba = word([("a", "0"), ("b", "1"), ("a", "1"), ("c", "3.3")])
swap_ab = word([("a", "0"), ("a", "1"), ("b", "1"), ("c", "3.3")])

print("two timed words differing only at the shared timestamp 1:")
print("  ", swap_ba)
print("  ", swap_ab)
print("stutter free:", is_stutter_free(swap_ba),
      "| strictly monotone:", is_strictly_monotone(swap_ba))

print("\nmaximal flat runs of the first word's time sequence:",
      mfs_decompose(swap_ba.times))

cw_ba, cw_ab = compact(swap_ba), compact(swap_ab)
print("\ncompaction groups each flat run into an ordered block:")
print("  ", cw_ba)
print("  ", cw_ab)
print("compaction is lossless:", uncompact(cw_ba) == swap_ba)

print("\nblock coordinates relate to word positions both ways:")
print("  block 1, offset 1 ->", word_position(cw_ba, 1, 1))
print("  word position 3   ->", block_position(cw_ba, 3))

k_ba, k_ab = to_tss(cw_ba), to_tss(cw_ab)
print("\nthe state-sequence image fills the holes with empty open steps:")
print("  ", k_ba)
print("the two different words collapse to the same image:", k_ba == k_ab)
print("the image is action-based (alternating punctual/open):",
      is_action_based(k_ba))

print("\nall stutter-free words mapping onto that image:")
for w in stutter_free_preimages(k_ba):
    print("  ", w)
