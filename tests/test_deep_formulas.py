"""Wide alphabets and deep nesting parse, and evaluate in every engine and in the CLI.

`F sigma` over 200 symbols desugars into an or-chain about 600 nodes deep, and
600 nested negations are as deep.  Each must give the same result as a
shallow formula with the same meaning on the word at hand.  A formula that
shares its subformulas 2,000 levels deep must cost the oracles its distinct
nodes only.  On a lasso, 50 alternating `G F` pairs add 100 nested unbounded
windows, each of which the lasso verdict closes at a bound of its own.  Long
operator chains and long runs of prefix operators must parse into the formula
built directly.
"""

import json

import pytest

from mtlsem import oracle
from mtlsem.cli import main
from mtlsem.encodings import compact, word_to_tss
from mtlsem.formulas import And, Atom, parse, to_text
from mtlsem.interval_based import eval_itw_lasso, sat_set_its, sat_set_itw, sat_sets_itw
from mtlsem.mixed import eval_mx_lasso, sat_set_mx
from mtlsem.oracle import oracle_eval_its, oracle_eval_itw, oracle_eval_mx, oracle_eval_pw
from mtlsem.pointwise import eval_pw_lasso, sat_positions
from mtlsem.structures import lasso, word, word_to_json
from shared import CASES, CHAINS, CONJUNCTS, LASSO_CASES, S0_S1, WIDE

ENGINES = {
    "pw": sat_positions,
    "itw": sat_set_itw,
    "its": lambda rho, f: sat_set_its(word_to_tss(rho), f),
    "mx": lambda rho, f: sat_set_mx(compact(rho), f),
}


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("rho, deep, shallow", CASES, ids=["F-sigma", "negations"])
def test_engines_match_the_shallow_formula(engine, rho, deep, shallow):
    sat = ENGINES[engine]
    assert sat(rho, parse(deep, WIDE)) == sat(rho, parse(shallow, WIDE))


# s1 at 1/2 and an s2 at every integer from 1 on; never s3
LASSO = lasso(word([("s0", "0"), ("s1", "1/2")]), ["s1", "s2"], ["1/2", "1"], "1")
LASSO_ENGINES = {
    "pw": eval_pw_lasso,
    "itw": eval_itw_lasso,
    "mx": eval_mx_lasso,
}


@pytest.mark.parametrize("engine", LASSO_ENGINES)
@pytest.mark.parametrize("deep, shallow, verdict", LASSO_CASES,
                         ids=["G-F-50-true", "G-F-50-false", "F-sigma"])
def test_lasso_verdicts_match_the_shallow_formula(engine, deep, shallow, verdict):
    # G F is idempotent on infinite words, so 50 pairs mean what one pair means
    holds = LASSO_ENGINES[engine]
    assert holds(LASSO, parse(deep, WIDE)) is holds(LASSO, parse(shallow, WIDE)) is verdict


def _cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


@pytest.mark.parametrize("sem, where", [("pw", ["--position", "1"]),
                                        ("itw", ["--time", "1/4"]),
                                        ("mx", ["--time", "0"])])
def test_cli_oracle_evaluates_deep_negations(tmp_path, capsys, sem, where):
    path = tmp_path / "w.json"
    path.write_text(json.dumps(word_to_json(S0_S1)))
    common = ["--word", str(path), "--alphabet", ",".join(WIDE.symbols), *where]
    verdicts = []
    for text in ("!" * 1000 + "s0", "s0"):
        code, out = _cli(capsys, "oracle", "--semantics", sem, "--formula", text, *common)
        verdicts.append((code, json.loads(out)["verdict"]))
    assert verdicts[0] == verdicts[1], sem


@pytest.mark.parametrize("rho, deep, shallow", CASES, ids=["F-sigma", "negations"])
def test_cli_matches_the_shallow_formula(tmp_path, capsys, rho, deep, shallow):
    path = tmp_path / "w.json"
    path.write_text(json.dumps(word_to_json(rho)))
    common = ["--word", str(path), "--alphabet", ",".join(WIDE.symbols)]
    for sem in ("itw", "its", "mx"):
        roots = []
        for text in (deep, shallow):
            code, out = _cli(capsys, "satset", "--semantics", sem, "--formula", text, *common)
            assert code == 0
            root = json.loads(out)["sets"][-1]
            roots.append({k: v for k, v in root.items() if k != "formula"})
        assert roots[0] == roots[1], sem
    for sem, where in (("pw", ["--position", "1"]), ("itw", ["--time", "1/4"]),
                       ("its", ["--time", "1"]), ("mx", ["--time", "0"])):
        verdicts = []
        for text in (deep, shallow):
            code, out = _cli(capsys, "eval", "--semantics", sem, "--formula", text, *where, *common)
            verdicts.append((code, json.loads(out)["verdict"]))
        assert verdicts[0] == verdicts[1], sem


def test_nested_parentheses_parse():
    assert parse("(" * 2000 + "s0" + ")" * 2000, WIDE) is Atom("s0")


def test_canonical_text_of_a_deep_chain_parses_back():
    f = CHAINS["not-1000"][1]()
    assert parse(to_text(f), WIDE) is f


@pytest.mark.parametrize("name", CHAINS)
def test_long_chains_parse_into_the_built_formula(name):
    parsed, built = CHAINS[name]
    assert parsed() is built()


def test_cli_parses_long_chains(capsys):
    assert main(["parse", "--alphabet", ",".join(WIDE.symbols),
                 "--formula", " & ".join(CONJUNCTS)]) == 0
    assert json.loads(capsys.readouterr().out)["canonical"] == to_text(CHAINS["and-2000"][1]())
    assert main(["parse", "--alphabet", ",".join(WIDE.symbols), "--formula", "!" * 1000 + "s0"]) == 0


def test_cli_satset_prints_every_text_of_a_long_chain(tmp_path, capsys):
    # one text per subformula: rendering each with a fold of its own was
    # quadratic in the chain's length
    path = tmp_path / "w.json"
    path.write_text(json.dumps(word_to_json(S0_S1)))
    f = CHAINS["and-2000"][1]()
    assert main(["satset", "--semantics", "itw", "--word", str(path),
                 "--alphabet", ",".join(WIDE.symbols), "--formula", " & ".join(CONJUNCTS)]) == 0
    sets = json.loads(capsys.readouterr().out)["sets"]
    table = sat_sets_itw(S0_S1, f)
    assert len(sets) == len(table)
    for i, (sub, got) in enumerate(table.items()):
        if i % 97 == 0 or i >= len(table) - 3:
            assert sets[i] == {"formula": to_text(sub), "parts": [str(p) for p in got.parts]}


def _doubled(levels):
    """`a` with `g = And(g, g)` applied `levels` times: levels + 1 distinct
    nodes, though its tree has 2 ** levels leaves."""
    g = Atom("a")
    for _ in range(levels):
        g = And(g, g)
    return g


def test_oracles_visit_shared_subformulas_once():
    # the post-order holds each distinct node once, so a 2,000-level DAG costs
    # 2,001 steps of the oracle's stack, not 2 ** 2000
    assert len(oracle._post_order(_doubled(10))) == 11
    deep, a = _doubled(2000), Atom("a")
    rho = word([("a", "0"), ("b", "1"), ("a", "1"), ("c", "5/2")])
    kappa, cw = word_to_tss(rho), compact(rho)
    for i in range(len(rho)):
        assert oracle_eval_pw(rho, i, deep) is oracle_eval_pw(rho, i, a), i
    for t in ("0", "1/2", "1", "5/2"):
        assert oracle_eval_itw(rho, t, deep) is oracle_eval_itw(rho, t, a), t
        assert oracle_eval_its(kappa, t, deep) is oracle_eval_its(kappa, t, a), t
    for t, j in (("0", 0), ("1", 0), ("1", 1), ("5/2", 0)):
        assert oracle_eval_mx(cw, t, j, deep) is oracle_eval_mx(cw, t, j, a), (t, j)
    for engine, structure in (("pw", rho), ("itw", rho), ("its", kappa), ("mx", cw)):
        assert oracle.differential(engine, structure, deep) is None, engine
