"""Exact-arithmetic MTL evaluation over timed words.

Three timed models (timed words, compact timed words, timed state sequences),
four satisfaction relations (pointwise, interval-based over words and state
sequences, mixed), the structural encodings between the models, and the two
semantics-embedding formula compilers.  All timestamps and interval bounds are
exact rationals; satisfaction sets are normalized unions of rational-endpoint
intervals.
"""

from .compilers import compile_itw, compile_pw
from .encodings import (
    block_index_at,
    block_position,
    compact,
    compact_lasso,
    lasso_instance,
    stutter_free_preimages,
    to_tss,
    uncompact,
    word_position,
    word_to_tss,
)
from .formulas import (
    Alphabet,
    And,
    Atom,
    BETA,
    Beta,
    Formula,
    Not,
    Until,
    alphabet,
    horizon,
    is_bounded,
    parse,
    subformulas,
    temporal_depth,
    to_text,
    uses_beta,
)
from .interval_based import eval_its, eval_itw, eval_itw_lasso, sat_set_its, sat_set_itw
from .intervals import (
    INF,
    Bound,
    Interval,
    IntervalSet,
    back_shift,
    interval,
    parse_interval,
    punctual,
    rat_str,
    rational,
)
from .mixed import MixedSet, compact_at, eval_mx, eval_mx_lasso, sat_set_mx
from .oracle import (
    critical_points,
    critical_values,
    gen_formula,
    gen_ka,
    gen_lasso,
    gen_word,
    oracle_eval_its,
    oracle_eval_itw,
    oracle_eval_mx,
    oracle_eval_pw,
)
from .pointwise import eval_pw, eval_pw_lasso, sat_positions
from .structures import (
    CompactTimedWord,
    Lasso,
    TimedStateSequence,
    TimedWord,
    duration,
    is_action_based,
    is_strictly_monotone,
    is_stutter_free,
    lasso,
    mfs_decompose,
    tss_at,
    unroll,
    validate_compact,
    validate_tss,
    validate_word,
    word,
)

__all__ = [name for name in dir() if not name.startswith("_")]
