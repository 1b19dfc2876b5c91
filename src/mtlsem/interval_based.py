"""Interval-based satisfaction over timed words and timed state sequences.

Each subformula gets an exact satisfaction set over the covered time domain:
atoms are the event points (or the state-sequence steps), negation is the
complement in the domain, conjunction is intersection, and the strict dense
Until is `intervals._until_bases`.  `_sat_dense` is the one loop of `itw`,
`its` and `mx` (which runs it over lex keys, see `mixed`).  A complement waits
in its `_Table` until a list is read, which walks it from the domain.

Sets are key lists on an integer time base, and every sweep over them is in
`intervals`.  Each entry point reads the model's integer columns, takes D once,
`fold_base` of its base D0 and the windows, and scales its atoms onto D as it
builds them; the fold runs on ints only.  `sat_set_*` returns the root's key
list as an `IntervalSet` on D, `sat_sets_*` every set of the table.  `eval_*`
and the lasso verdict, whether 0 lies in the set of `encodings.lasso_instance`,
bisect the root's keys at one key.
"""

from __future__ import annotations

from fractions import Fraction

from .encodings import lasso_instance
from .errors import OutOfDomainError
from .formulas import (
    And,
    Atom,
    Beta,
    Formula,
    Not,
    Until,
    atoms,
    fold_base,
    require_beta_free,
    subformulas,
)
from .intervals import (
    IntervalSet,
    _same_block_bases,
    _until_bases,
    difference_keys,
    intersect_keys,
    meets,
    merge_keys,
    normalize_keys,
    rational,
    scaled_keys,
    tick_text,
    time_key,
)
from .structures import Lasso, TimedStateSequence, TimedWord


class _Table(dict):
    """A fold table on base D: each node's key list, or, for the nodes in `co`,
    the list whose complement in the domain is the node's set, walked (`walk`)
    when a subscript or `items` first reads it (`get` reads the list as it is)."""

    def __init__(self, domain: tuple, D: int):
        self.domain, self.D, self.co = domain, D, set()

    def __getitem__(self, node) -> list:
        keys = dict.__getitem__(self, node)
        if node in self.co:
            self.co.remove(node)
            self[node] = keys = self.walk(keys) if keys else [self.domain]
        return keys

    def walk(self, keys: list) -> list:
        return difference_keys([self.domain], keys)

    def items(self) -> list:
        return [(node, self[node]) for node in self]

    def holds(self, node, key) -> bool:
        """Whether node's set holds the key, with no walk: a complement holds
        it where its list does not."""
        return meets(self.get(node), key) != (node in self.co)


def _sat_dense(atom_keys: dict, domain: tuple, D: int, f: Formula, J: int = 1, multi=()) -> _Table:
    """The dense algebra on keys on base D, filling a `_Table` in `subformulas` order.

    Negation is pending: a `!` node's value is its operand's list, read as its
    complement in the domain (!!x is x's own list).  And reads pending operands
    by De Morgan: x & !x is empty with no sweep, x & !y is one difference sweep,
    and !x & !y the pending complement of one union.  A complement is walked
    over its list's gaps only where the list is read: by an Until, and from the
    table.  Its sorts are `normalize_keys` on two sorted runs (the union, and
    the lex line's bases of a window holding 0): each is one linear run merge.

    On the lex line (see `mixed`) each time key owns J slots, and `multi` lists
    the blocks of two or more positions as (start slot, size)."""
    last = {s // J: n - 1 for s, n in multi}  # the offset of each block's last point
    later = [(s + 1, s + J - 1) for s, _ in multi]  # each block's slots past position 0
    table = _Table(domain, D)
    co, get = table.co, table.get  # get reads a node's list as it is: no walk
    for node in subformulas(f):
        match node:
            case Atom(name):
                keys = atom_keys[name]
            case Beta():
                co.add(node)
                keys = later
            case Not(arg):
                keys = get(arg)
                if arg not in co:
                    co.add(node)
            case And(x, y):
                l, r = get(x), get(y)
                if x in co and y in co:  # !x & !y is !(x | y)
                    co.add(node)
                    keys = l if l is r else normalize_keys(l + r)
                elif x in co or y in co:  # x & !y; x & !x, the And of `true`, is empty
                    p, q = (r, l) if x in co else (l, r)
                    keys = [] if l is r else difference_keys(p, q)
                else:
                    keys = l if l is r else intersect_keys(l, r)
            case Until(x, w, y):
                l, r = table[x], table[y]
                d, w = w.keys
                w, = scaled_keys([w], D // d)  # the window lifted onto D
                keys = _until_bases(l, r, w, J, last)
                if w[0] == 0 and multi:
                    keys = normalize_keys(keys + _same_block_bases(l, r, later, J, last))
        table[node] = keys
    return table


def _sets(table: _Table) -> dict:
    return {node: IntervalSet.on_base(table.D, keys) for node, keys in table.items()}


def _holds_at(table: _Table, t, f: Formula, span: str = "") -> bool:
    t = t if isinstance(t, Fraction) else rational(t)
    key, (lo, hi) = time_key(t, table.D), table.domain
    if not lo <= key <= hi:
        raise OutOfDomainError(f"time {t} outside {span or f'[0, {tick_text(hi // 3, table.D)}]'}")
    return table.holds(f, key)


# ---------------------------------------------------------------------------
# timed words

def _itw_table(rho: TimedWord, f: Formula) -> _Table:
    """The key table of f over rho: only the atoms' ticks and the last are read."""
    require_beta_free(f, "interval-based")
    D0, ticks = rho.ticks
    D = fold_base(D0, f)
    m = 3 * (D // D0)  # a tick's key on D
    points = {name: [(m * v, m * v) for v in rho.action_ticks(name)] for name in atoms(f)}
    return _sat_dense(points, (0, m * ticks[-1]), D, f)


def sat_sets_itw(rho: TimedWord, f: Formula) -> dict:
    """The fold table: Sat(g) per subformula g, in `subformulas` order."""
    return _sets(_itw_table(rho, f))


def sat_set_itw(rho: TimedWord, f: Formula) -> IntervalSet:
    """Exactly the times t in [0, duration] where rho, t satisfies f."""
    table = _itw_table(rho, f)
    return IntervalSet.on_base(table.D, table[f])


def eval_itw(rho: TimedWord, t, f: Formula) -> bool:
    return _holds_at(_itw_table(rho, f), t, f)


# ---------------------------------------------------------------------------
# timed state sequences

def _its_table(kappa: TimedStateSequence, f: Formula) -> _Table:
    require_beta_free(f, "interval-based")
    D0, keys, props = kappa.columns
    D = fold_base(D0, f)
    parts = {name: merge_keys([k for k, p in zip(keys, props) if name in p]) for name in atoms(f)}
    m = D // D0  # rescale only what the fold reads: the atoms' lists and the span's ends
    if m > 1:
        parts = {name: scaled_keys(keys, m) for name, keys in parts.items()}
    # the span's end values, closed (a left-open first step's start is in it)
    return _sat_dense(parts, (m * (keys[0][0] - keys[0][0] % 3), m * keys[-1][1]), D, f)


def sat_sets_its(kappa: TimedStateSequence, f: Formula) -> dict:
    """The fold table: Sat(g) per subformula g, in `subformulas` order."""
    return _sets(_its_table(kappa, f))


def sat_set_its(kappa: TimedStateSequence, f: Formula) -> IntervalSet:
    table = _its_table(kappa, f)
    return IntervalSet.on_base(table.D, table[f])


def eval_its(kappa: TimedStateSequence, t, f: Formula) -> bool:
    return _holds_at(_its_table(kappa, f), t, f, "the covered span")


# ---------------------------------------------------------------------------
# lassos

def eval_itw_lasso(l: Lasso, f: Formula) -> bool:
    """Exact verdict at time 0 of the unrolled infinite word."""
    rho, g = lasso_instance(l, f)
    return eval_itw(rho, 0, g)
