"""Named mutations of `src/mtlsem`: each one exact (file, old text, new text)
replacement that a correct test suite must notice.

Each old text occurs exactly once in its file (`tests/test_mutations.py`
checks that, so the list follows the code as it moves).  `run.py` applies one
mutation at a time to a copy of the repository and records which Tier-1 tests
fail.  A mutation no test kills is a gap in the tests, not in the list.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/mtlsem
    old: str
    new: str
    what: str


MUTANTS = (
    Mutant("fold_base_drops_the_root_window", "formulas.py",
           "for node in subformulas(f) if type(node) is Until})",
           "for node in subformulas(f)[:-1] if type(node) is Until})",
           "`fold_base` leaves out the window of an Until at the root"),
    Mutant("time_key_rounds_down", "intervals.py",
           "    return 3 * q + (r > 0)\n",
           "    return 3 * q\n",
           "a time off the base gets the key of the closed time below it"),
    Mutant("scaled_keys_drops_the_open_offset", "intervals.py",
           "    return [(lo + m * ((lo + 1) // 3), hi if hi == INF else hi + m * ((hi + 1) // 3))\n",
           "    return [(lo + m * ((lo + 1) // 3) - (f > 1) * (lo % 3 == 1),\n"
           "             hi if hi == INF else hi + m * ((hi + 1) // 3) + (f > 1) * (hi % 3 == 2))\n",
           "a lift onto a finer base closes every open end"),
    Mutant("open_lower_end_off_grid_read_closed", "intervals.py",
           '3 * a * (d // p) + (lbr == "(")',
           '3 * a * (d // p) + (lbr == "(" and p == 1)',
           "a parsed open lower end whose denominator is not 1 reads as closed"),
    Mutant("until_scan_j_ge_k", "pointwise.py",
           "        elif j > k:\n",
           "        elif j >= k:\n",
           "a witness at the first f-failure is refused"),
    Mutant("until_scan_jumps_to_j", "pointwise.py",
           "            i = bisect_left(times, tj - w_hi, i + 1, j)\n",
           "            i = j\n",
           "a base too far from its witness jumps to the witness, skipping bases that hold"),
    Mutant("until_scan_bisect_right", "pointwise.py",
           "            i = bisect_left(times, tj - w_hi, i + 1, j)\n",
           '            i = __import__("bisect").bisect_right(times, tj - w_hi, i + 1, j)\n',
           "the jump passes the first base whose window reaches the witness"),
    Mutant("until_scan_failure_jump_past_k", "pointwise.py",
           "        elif j > k:\n            i = k\n",
           "        elif j > k:\n            i = k + 1\n",
           "a failure jump skips the base at the f-failure"),
    Mutant("mx_block_starts_not_scaled", "mixed.py",
           "    n = 3 * J * (D // D0)",
           "    n = 3 * J",
           "`_mx_table` puts the block starts on D0, not on the fold's base"),
    Mutant("itw_domain_end_not_scaled", "interval_based.py",
           "(0, m * ticks[-1])",
           "(0, 3 * ticks[-1])",
           "`_itw_table`'s domain ends on D0, not on the fold's base"),
    Mutant("until_bases_open_lower_fix_dropped", "intervals.py",
           "                b = (b - 1 if b % 3 == 2 else b) * J\n",
           "                b = b * J\n",
           "a back-shifted open upper end stays open as a lower end"),
    Mutant("until_bases_drops_the_last_witness", "intervals.py",
           "        while k < ng:\n",
           "        while k < ng - 1:\n",
           "`_until_bases` never reads g's last part as a witness"),
    Mutant("part_texts_reads_parts", "intervals.py",
           "        return key_texts(*self.keys)\n",
           "        return [str(p) for p in self.parts]\n",
           "printing a set builds its Interval parts"),
    Mutant("action_ticks_keeps_repeats", "structures.py",
           "    return tuple(dict.fromkeys([v for a, v in zip(word.actions, word.ticks[1]) if a == name]))\n",
           "    return tuple([v for a, v in zip(word.actions, word.ticks[1]) if a == name])\n",
           "a word's index keeps an action repeated at one stamp twice"),
    Mutant("interval_set_does_not_normalize", "intervals.py",
           "        self.keys = (D, normalize_keys(keys))\n",
           "        self.keys = (D, keys)\n",
           "`IntervalSet(parts)` keeps its parts as given"),
)
