"""The console contract, in process: each hand-written check of the CI "Console
script" step, run through `cli.main` with the same argv and inputs and the same
byte and exit-code comparisons.  The CI step keeps what needs the installed
entry point."""

import copy
import json
import random

import pytest

from mtlsem.cli import main

LASSO = ('{"events": [["a", "0"], ["b", "1/2"]], "period": {"actions": ["c", "a"], '
         '"duration": "3/2", "offsets": ["1/3", "1"]}}\n')
STAMPS = ('{"events": [["a", "0"], ["b", "1/2"], ["a", "1/2"], ["a", "1/2"], ["c", "2"], '
          '["a", "2"], ["b", "3"]]}\n')

# argv, and the bytes it prints
PRINTS = [
    # a lasso prints back byte for byte
    (["encode", "--to", "word", "--word", "lasso.json"], LASSO),
    # its compact form groups the period's blocks on the period's own ticks
    (["encode", "--to", "compact", "--word", "lasso.json"],
     '{"period": {"blocks": [[["c"], "1/3"], [["a"], "1"]], "duration": "3/2"}, '
     '"prefix": {"blocks": [[["a"], "0"], [["b"], "1/2"]]}}\n'),
    # its state sequence is the image of the prefix and two periods
    (["encode", "--to", "tss", "--word", "lasso.json"],
     '{"steps": [[["a"], "[0,0]"], [[], "(0,1/2)"], [["b"], "[1/2,1/2]"], [[], "(1/2,5/6)"], '
     '[["c"], "[5/6,5/6]"], [[], "(5/6,3/2)"], [["a"], "[3/2,3/2]"], [[], "(3/2,7/3)"], '
     '[["c"], "[7/3,7/3]"], [[], "(7/3,3)"], [["a"], "[3,3]"]]}\n'),
]

# argv, and a text its output holds
HOLDS = [
    (["check", "--word", "lasso.json"], '"kind": "lasso"'),
    # the one-bit pointwise verdict of a lasso
    (["eval", "--semantics", "pw", "--formula", "F c", "--word", "lasso.json"],
     '"verdict": "true"'),
]

G = "G[0,4](a -> F[1,3] b)"
# the options after `eval` or `oracle` whose verdicts must exit alike: the root
# of a G formula is a pending complement, answered without a walk; mx merges the
# (a, a) slots of the block (b, a, a) at 1/2 as it appends them
VERDICTS = ([["--semantics", s, "--time", "5/2", "--formula", G] for s in ("itw", "its", "mx")]
            + [["--semantics", "mx", *at.split(), "--formula", f]
               for f in ("a U[0,1] c", G)
               for at in ("--time 1/2 --pos 0", "--time 1/2 --pos 1", "--time 1/2 --pos 2",
                          "--time 1")])


# formula, and the bytes `satset --semantics mx` prints for it on stamps.json:
# points in lex order, gaps cut at the block stamps inside each part
MX_SETS = {
    "!a U(0,1] b":
        '{"semantics": "mx", "sets": [{"formula": "a", "gaps": [], "points": [[0, 0], [1, 1], '
        '[1, 2], [2, 1]]}, {"formula": "!a", "gaps": ["(0,1/2)", "(1/2,2)", "(2,3)"], "points": '
        '[[1, 0], [2, 0], [3, 0]]}, {"formula": "b", "gaps": [], "points": [[1, 0], [3, 0]]}, '
        '{"formula": "(!a U(0,1] b)", "gaps": ["(0,1/2)", "(2,3)"], "points": [[0, 0], [2, 1]]}]}\n',
    "F(0,1] !beta":
        '{"semantics": "mx", "sets": [{"formula": "a", "gaps": [], "points": [[0, 0], [1, 1], '
        '[1, 2], [2, 1]]}, {"formula": "!a", "gaps": ["(0,1/2)", "(1/2,2)", "(2,3)"], "points": '
        '[[1, 0], [2, 0], [3, 0]]}, {"formula": "!(!a)", "gaps": [], "points": [[0, 0], [1, 1], '
        '[1, 2], [2, 1]]}, {"formula": "(!a & !(!a))", "gaps": [], "points": []}, {"formula": '
        '"!(!a & !(!a))", "gaps": ["(0,1/2)", "(1/2,2)", "(2,3)"], "points": [[0, 0], [1, 0], '
        '[1, 1], [1, 2], [2, 0], [2, 1], [3, 0]]}, {"formula": "beta", "gaps": ["(0,1/2)", '
        '"(1/2,2)", "(2,3)"], "points": [[0, 0], [1, 0], [2, 0], [3, 0]]}, {"formula": "!beta", '
        '"gaps": [], "points": [[1, 1], [1, 2], [2, 1]]}, {"formula": "(!(!a & !(!a)) U(0,1] '
        '!beta)", "gaps": ["(0,1/2)", "[1,2)"], "points": [[0, 0]]}]}\n',
}

# the state sequence of stamps.json, as `encode --to tss` prints it
STAMPS_TSS = ('{"steps": [[["a"], "[0,0]"], [[], "(0,1/2)"], [["a", "b"], "[1/2,1/2]"], '
              '[[], "(1/2,2)"], [["a", "c"], "[2,2]"], [[], "(2,3)"], [["b"], "[3,3]"]]}\n')
ITS_FORMULA = "G[0,1] (a -> F(0,2] b) | (a U(1/2,2] c)"
CHECKED_TSS = '{"action_based": true, "kind": "state-sequence", "length": 7, "valid": true}\n'


@pytest.fixture(autouse=True)
def inputs(tmp_path, monkeypatch):
    (tmp_path / "lasso.json").write_text(LASSO)
    (tmp_path / "stamps.json").write_text(STAMPS)
    monkeypatch.chdir(tmp_path)


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("argv, want", PRINTS, ids=[argv[2] for argv, _ in PRINTS])
def test_prints_the_pinned_bytes(capsys, argv, want):
    assert run(capsys, argv) == (0, want)


@pytest.mark.parametrize("argv, text", HOLDS, ids=[argv[0] for argv, _ in HOLDS])
def test_output_holds(capsys, argv, text):
    code, out = run(capsys, argv)
    assert code == 0 and text in out


def test_itw_and_its_print_the_same_sets(capsys):
    # itw and its build their atoms apart: on simultaneous events and an action
    # repeated at one stamp they print the same sets
    itw, its = (json.loads(run(capsys, ["satset", "--semantics", s, "--formula", ITS_FORMULA,
                                        "--word", "stamps.json"])[1])["sets"]
                for s in ("itw", "its"))
    assert itw == its


@pytest.mark.parametrize("options", VERDICTS, ids=" ".join)
def test_eval_exits_as_the_oracle_does(capsys, options):
    tail = [*options, "--word", "stamps.json"]
    code = run(capsys, ["eval", *tail])[0]
    assert code in (0, 1) and code == run(capsys, ["oracle", *tail])[0]


@pytest.mark.parametrize("formula", MX_SETS)
def test_mx_sets_print_the_pinned_bytes(capsys, formula):
    argv = ["satset", "--semantics", "mx", "--formula", formula, "--word", "stamps.json"]
    assert run(capsys, argv) == (0, MX_SETS[formula])


def test_the_encoded_state_sequence_reads_as_the_word(capsys, tmp_path):
    assert run(capsys, ["encode", "--to", "tss", "--word", "stamps.json"]) == (0, STAMPS_TSS)
    (tmp_path / "tss.json").write_text(STAMPS_TSS)
    satset = ["satset", "--semantics", "its", "--formula", ITS_FORMULA, "--word"]
    assert run(capsys, [*satset, "tss.json"]) == run(capsys, [*satset, "stamps.json"])
    assert run(capsys, ["check", "--word", "tss.json"]) == (0, CHECKED_TSS)


@pytest.mark.parametrize("half", ["0.50", "2/4", " 1 / 2 "])
def test_a_step_spelled_otherwise_loads_to_the_same_bytes(capsys, tmp_path, half):
    spelled = (STAMPS_TSS.replace('"(0,1/2)"', f'"(0,{half})"')
               .replace('"[1/2,1/2]"', f'"[{half},{half}]"').replace('"(1/2,2)"', f'"({half}, 2)"'))
    assert spelled.count(half) == 4
    (tmp_path / "spelled.json").write_text(spelled)
    satset = ["satset", "--semantics", "its", "--formula", ITS_FORMULA, "--word"]
    assert run(capsys, [*satset, "spelled.json"]) == run(capsys, [*satset, "stamps.json"])
    assert run(capsys, ["check", "--word", "spelled.json"]) == (0, CHECKED_TSS)


# the mutation probe (Miller, Fredriksen & So, CACM 1990; Zeller et al., The
# Fuzzing Book, "Mutation-Based Fuzzing"): each console fixture with one to three
# fields dropped, duplicated or retyped, run through every command that loads it
MUTANT_SEED, MUTANT_CASES = 17, 1200  # about 2 s
FIXTURES = (STAMPS, LASSO, STAMPS_TSS)
HUGE = "<a JSON integer past int's digit limit>"  # written into the text raw
RETYPED = (None, True, 0, -1, 2, 1.5, 1e308, "", "x", "a", "\u00e9", "-1", "1/0", "1e999", "nan",
           "(0,1", "9" * 5000, HUGE, [], {}, ["a"], [["a", "0"]], {"a": 1})
PROBES = ([["check"]]
          + [["eval", "--semantics", s, "--formula", f] for s, f in
             (("pw", "F[0,1] a"), ("itw", G), ("its", "a U(0,2] b"), ("mx", "!a U b"))]
          + [["satset", "--semantics", s, "--formula", ITS_FORMULA] for s in ("itw", "its", "mx")]
          + [["encode", "--to", to] for to in ("word", "compact", "tss")])


def _fields(node) -> list:
    """Every (container, key) pair in a JSON tree, the containers' own first."""
    items = (node.items() if isinstance(node, dict) else enumerate(node)
             if isinstance(node, list) else ())
    return [pair for key, value in items for pair in [(node, key), *_fields(value)]]


def _mutant(rng) -> str:
    """A fixture with one to three fields dropped, duplicated (a list item in
    place, a dict field onto a sibling key) or retyped, as JSON text."""
    obj = json.loads(rng.choice(FIXTURES))
    for _ in range(rng.randint(1, 3)):
        fields = _fields(obj)
        if not fields:
            break
        parent, key = rng.choice(fields)
        op = rng.choice(("drop", "duplicate", "retype"))
        if op == "drop":
            del parent[key]
        elif op == "duplicate" and isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        elif op == "duplicate":
            parent[rng.choice(list(parent))] = copy.deepcopy(parent[key])
        else:
            kind = type(parent[key])
            parent[key] = copy.deepcopy(rng.choice([v for v in RETYPED if type(v) is not kind]))
    return json.dumps(obj, ensure_ascii=False).replace(json.dumps(HUGE), "9" * 5000)


def test_mutated_inputs_exit_as_input_errors_or_answers(capsys, tmp_path):
    """Exit 0, or 1 from an `eval` verdict, printing one JSON object; else exit 3
    with one `error:` line or argparse usage text.  No exception escapes `main`."""
    rng = random.Random(MUTANT_SEED)
    for case in range(MUTANT_CASES):
        text = _mutant(rng)
        (tmp_path / "mutant.json").write_text(text, encoding="utf-8")
        for argv in PROBES:
            code = main([*argv, "--word", "mutant.json"])
            out, err = capsys.readouterr()
            where = (case, argv, text, err)
            assert code in (0, 1, 3), where
            if code == 3:
                assert (err.startswith("error: ") and err.count("\n") == 1
                        or err.startswith("usage: ")), where
            else:
                assert code == 0 or argv[0] == "eval", where
                assert isinstance(json.loads(out), dict) and not err, where
