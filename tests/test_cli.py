"""End-to-end command-line checks, one per subcommand."""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import mtlsem.cli
from mtlsem.cli import main
from mtlsem.structures import load_input, validate_word, word_to_json

RHO1 = {"events": [["a", "0"], ["b", "1"], ["a", "1"], ["c", "3.3"]]}
LASSO_SWAP_AB = {"events": [["a", "0"], ["a", "1"], ["b", "1"], ["c", "3.3"]],
                 "period": {"actions": ["c"], "offsets": ["1"], "duration": "1"}}
KAPPA1 = {"steps": [[["a"], "[0,0]"], [[], "(0,1)"], [["a", "b"], "[1,1]"],
                    [[], "(1,3.3)"], [["c"], "[3.3,3.3]"]]}


@pytest.fixture
def rho1(tmp_path):
    p = tmp_path / "rho1.json"
    p.write_text(json.dumps(RHO1))
    return str(p)


@pytest.fixture
def swap_lasso(tmp_path):
    p = tmp_path / "lasso.json"
    p.write_text(json.dumps(LASSO_SWAP_AB))
    return str(p)


@pytest.fixture
def kappa1(tmp_path):
    p = tmp_path / "kappa1.json"
    p.write_text(json.dumps(KAPPA1))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestEval:
    def test_pointwise_true_is_exit_zero(self, rho1, capsys):
        code, out = run(capsys, "eval", "--semantics", "pw",
                        "--formula", "F(b & X[0,0] a)", "--word", rho1)
        assert code == 0
        assert json.loads(out)["verdict"] == "true"

    def test_interval_false_is_exit_one(self, rho1, capsys):
        code, out = run(capsys, "eval", "--semantics", "itw",
                        "--formula", "F(b & X[0,0] a)", "--word", rho1)
        assert code == 1

    def test_dense_refutation_on_a_lasso_is_exit_one(self, swap_lasso, capsys):
        # X[0,0] a never holds in the dense semantics, since the strict Until
        # needs a witness t' > t at distance 0
        code, out = run(capsys, "eval", "--semantics", "itw",
                        "--formula", "F(b & X[0,0] a)", "--word", swap_lasso)
        assert code == 1
        assert json.loads(out)["verdict"] == "false"
        # pointwise, the one b is followed by c: false there too
        code, out = run(capsys, "eval", "--semantics", "pw",
                        "--formula", "F(b & X[0,0] a)", "--word", swap_lasso)
        assert code == 1

    def test_mixed_with_time_and_pos(self, rho1, capsys):
        code, out = run(capsys, "eval", "--semantics", "mx", "--time", "1",
                        "--pos", "1", "--formula", "a", "--word", rho1)
        assert code == 0

    def test_state_sequence_input(self, kappa1, capsys):
        code, out = run(capsys, "eval", "--semantics", "its", "--time", "1",
                        "--formula", "a & b", "--word", kappa1)
        assert code == 0

    def test_missing_file_is_input_error(self, capsys):
        code, _ = run(capsys, "eval", "--semantics", "pw",
                      "--formula", "a", "--word", "/nonexistent.json")
        assert code == 3

    def test_bad_formula_is_input_error(self, rho1, capsys):
        code, _ = run(capsys, "eval", "--semantics", "pw",
                      "--formula", "a &", "--word", rho1)
        assert code == 3

    # `a` holds at the origin of the README word, so an option that were
    # dropped would answer true there and exit 0
    @pytest.mark.parametrize("command", ["eval", "oracle"])
    @pytest.mark.parametrize("semantics, option, value", [
        ("pw", "--time", "1"),
        ("pw", "--pos", "0"),
        ("mx", "--position", "3"),
        ("its", "--position", "2"),
        ("its", "--pos", "1"),
        ("itw", "--pos", "1"),
        ("itw", "--position", "0"),
    ])
    def test_point_option_the_relation_does_not_read_is_input_error(
            self, rho1, capsys, command, semantics, option, value):
        code = main([command, "--semantics", semantics, option, value,
                     "--formula", "a", "--word", rho1])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert option in captured.err and semantics in captured.err

    @pytest.mark.parametrize("command", ["eval", "oracle"])
    @pytest.mark.parametrize("semantics", ["itw", "its", "mx"])
    def test_an_empty_time_is_input_error(self, rho1, capsys, command, semantics):
        code = main([command, "--semantics", semantics, "--time", "",
                     "--formula", "a", "--word", rho1])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == "" and "not a nonnegative rational: ''" in captured.err


class TestLassoSurface:
    """What the CLI does with a lasso input, pinned on the swap lasso."""

    @pytest.mark.parametrize("semantics", ["pw", "itw", "mx"])
    @pytest.mark.parametrize("formula", ["F(b & X[0,0] a)", "G F c", "a", "G !c"])
    def test_eval_is_a_plain_verdict(self, swap_lasso, capsys, semantics, formula):
        code, out = run(capsys, "eval", "--semantics", semantics,
                        "--formula", formula, "--word", swap_lasso)
        assert code in (0, 1)
        assert json.loads(out)["verdict"] == ("true", "false")[code]

    # the swap lasso is the README lasso: `a` at 0 and 1, `c` from 3.3 on, so
    # an answer at the origin would be true and exit 0
    @pytest.mark.parametrize("semantics, option, value", [
        ("itw", "--time", "2"),
        ("itw", "--time", "1/2"),
        ("pw", "--position", "3"),
        ("mx", "--time", "1"),
        ("mx", "--pos", "1"),
    ])
    def test_a_point_other_than_the_origin_is_input_error(
            self, swap_lasso, capsys, semantics, option, value):
        code = main(["eval", "--semantics", semantics, option, value,
                     "--formula", "a", "--word", swap_lasso])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == "" and option in captured.err

    @pytest.mark.parametrize("command", ["eval", "oracle"])
    @pytest.mark.parametrize("semantics", ["itw", "mx"])
    def test_an_empty_time_on_a_lasso_is_input_error(self, swap_lasso, capsys, command,
                                                     semantics):
        code = main([command, "--semantics", semantics, "--time", "",
                     "--formula", "a", "--word", swap_lasso])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == "" and "not a nonnegative rational: ''" in captured.err

    @pytest.mark.parametrize("semantics, options", [
        ("itw", ["--time", "0"]),
        ("itw", ["--time", "0/7"]),
        ("pw", ["--position", "0"]),
        ("mx", ["--time", "0", "--pos", "0"]),
    ])
    def test_the_origin_still_answers(self, swap_lasso, capsys, semantics, options):
        code, out = run(capsys, "eval", "--semantics", semantics, *options,
                        "--formula", "a", "--word", swap_lasso)
        assert (code, json.loads(out)["verdict"]) == (0, "true")

    @pytest.mark.parametrize("argv", [
        ("eval", "--semantics", "its"),
        ("oracle", "--semantics", "pw"),
        ("oracle", "--semantics", "itw"),
        ("oracle", "--semantics", "mx"),
        ("satset", "--semantics", "itw"),
        ("satset", "--semantics", "its"),
        ("satset", "--semantics", "mx"),
    ], ids=lambda argv: "-".join(argv[::2]))
    def test_finite_only_commands_are_input_errors(self, swap_lasso, capsys, argv):
        code = main([*argv, "--formula", "a", "--word", swap_lasso])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == "" and captured.err.startswith("error:")

    @pytest.mark.parametrize("to, want", [
        ("word", '{"events": [["a", "0"], ["a", "1"], ["b", "1"], ["c", "33/10"]], '
                 '"period": {"actions": ["c"], "duration": "1", "offsets": ["1"]}}'),
        ("compact", '{"period": {"blocks": [[["c"], "1"]], "duration": "1"}, '
                    '"prefix": {"blocks": [[["a"], "0"], [["a", "b"], "1"], '
                    '[["c"], "33/10"]]}}'),
        ("tss", '{"steps": [[["a"], "[0,0]"], [[], "(0,1)"], [["a", "b"], "[1,1]"], '
                '[[], "(1,33/10)"], [["c"], "[33/10,33/10]"], [[], "(33/10,43/10)"], '
                '[["c"], "[43/10,43/10]"], [[], "(43/10,53/10)"], '
                '[["c"], "[53/10,53/10]"]]}'),
    ])
    def test_encode(self, swap_lasso, capsys, to, want):
        assert run(capsys, "encode", "--to", to, "--word", swap_lasso) == (0, want + "\n")

    def test_encode_compact_on_two_bases(self, tmp_path, capsys):
        """A prefix on halves, and a period with a two-action block on thirds
        and sixths: the blocks print on the least base of each part."""
        p = tmp_path / "lasso.json"
        p.write_text(json.dumps({"events": [["a", "0"], ["b", "1/2"], ["c", "1/2"]], "period": {
            "actions": ["c", "a", "b", "c"], "duration": "3/2",
            "offsets": ["1/3", "5/6", "5/6", "3/2"]}}))
        assert run(capsys, "encode", "--to", "compact", "--word", str(p)) == (0, (
            '{"period": {"blocks": [[["c"], "1/3"], [["a", "b"], "5/6"], [["c"], "3/2"]], '
            '"duration": "3/2"}, "prefix": {"blocks": [[["a"], "0"], [["b", "c"], "1/2"]]}}\n'))

    SEAM = {"events": [["a", "0"], ["b", "1"]], "period": {
        "actions": ["a"], "offsets": ["0"], "duration": "1"}}

    def test_encode_rejects_a_seam_stutter(self, tmp_path, capsys):
        """Only the compact encoding keeps blocks apart at the seam."""
        p = tmp_path / "seam.json"
        p.write_text(json.dumps(self.SEAM))
        assert main(["encode", "--to", "compact", "--word", str(p)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "coincides with the prefix end" in captured.err

    def test_encode_tss_reads_a_seam_stutter(self, tmp_path, capsys):
        from mtlsem.encodings import word_to_tss
        from mtlsem.structures import duration, tss_to_json, unroll, word_or_lasso_from_json

        p = tmp_path / "seam.json"
        p.write_text(json.dumps(self.SEAM))
        l = word_or_lasso_from_json(self.SEAM)
        want = tss_to_json(word_to_tss(unroll(l, duration(l.prefix) + 2 * l.period_duration)))
        assert run(capsys, "encode", "--to", "tss", "--word", str(p)) == (
            0, json.dumps(want, sort_keys=True) + "\n")
        assert want["steps"][2] == [["a", "b"], "[1,1]"]  # the seam's two events, one step
        code, out = run(capsys, "eval", "--semantics", "itw", "--formula", "F[1,1] (a & b)",
                        "--word", str(p))
        assert (code, json.loads(out)["verdict"]) == (0, "true")


class TestOtherCommands:
    def test_parse_reports_metrics(self, capsys):
        code, out = run(capsys, "parse", "--alphabet", "a,b,c",
                        "--formula", "F(0,1) F[0,3.5] c")
        assert code == 0
        got = json.loads(out)
        assert got["horizon"] == "9/2"
        assert got["bounded"] is True

    @pytest.mark.parametrize("symbols, message", [
        ("a,a", "alphabet symbols must be distinct"),
        ("a,true", "invalid alphabet symbol: 'true'"),
    ])
    def test_parse_rejects_a_bad_alphabet(self, capsys, symbols, message):
        assert main(["parse", "--alphabet", symbols, "--formula", "a"]) == 3
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")

    def test_compile_targets(self, capsys):
        code, out = run(capsys, "compile", "--target", "itw2mx",
                        "--alphabet", "a,b,c", "--formula", "a U[0,1] b")
        assert code == 0
        assert "beta" in json.loads(out)["compiled"]

    def test_encode_compact(self, rho1, capsys):
        code, out = run(capsys, "encode", "--to", "compact", "--word", rho1)
        assert code == 0
        assert json.loads(out)["blocks"] == [
            [["a"], "0"], [["b", "a"], "1"], [["c"], "33/10"]]

    def test_encode_tss(self, rho1, capsys):
        assert run(capsys, "encode", "--to", "tss", "--word", rho1) == (0, (
            '{"steps": [[["a"], "[0,0]"], [[], "(0,1)"], [["a", "b"], "[1,1]"], '
            '[[], "(1,33/10)"], [["c"], "[33/10,33/10]"]]}\n'))

    def test_satset_lists_subformulas(self, rho1, capsys):
        code, out = run(capsys, "satset", "--semantics", "itw",
                        "--formula", "F(0,1) F[0,3.5] c", "--word", rho1)
        assert code == 0
        got = json.loads(out)
        assert got["sets"][-1]["parts"] == ["[0,33/10)"]

    def test_satset_mixed_points_and_gaps(self, rho1, capsys):
        code, out = run(capsys, "satset", "--semantics", "mx",
                        "--formula", "beta", "--word", rho1)
        assert code == 0
        got = json.loads(out)
        assert got["sets"][-1]["points"] == [[0, 0], [1, 0], [2, 0]]
        assert got["sets"][-1]["gaps"] == ["(0,1)", "(1,33/10)"]

    # every set of one formula's table, byte for byte
    RHO1_MX_SETS = (
        '{"semantics": "mx", "sets": [{"formula": "a", "gaps": [], "points": [[0, 0], [1, 1]]}'
        ', {"formula": "!a", "gaps": ["(0,1)", "(1,33/10)"], "points": [[1, 0], [2, 0]]}'
        ', {"formula": "!(!a)", "gaps": [], "points": [[0, 0], [1, 1]]}'
        ', {"formula": "(!a & !(!a))", "gaps": [], "points": []}'
        ', {"formula": "!(!a & !(!a))", "gaps": ["(0,1)", "(1,33/10)"], "points": [[0, 0], [1, 0], [1, 1], [2, 0]]}'
        ', {"formula": "b", "gaps": [], "points": [[1, 0]]}'
        ', {"formula": "(!(!a & !(!a)) U[1/3,3] b)", "gaps": ["(0,2/3]"], "points": [[0, 0]]}'
        ', {"formula": "!(!(!a & !(!a)) U[1/3,3] b)", "gaps": ["(2/3,1)", "(1,33/10)"], "points": [[1, 0], [1, 1], [2, 0]]}'
        ', {"formula": "(a & !(!(!a & !(!a)) U[1/3,3] b))", "gaps": [], "points": [[1, 1]]}'
        ', {"formula": "!(a & !(!(!a & !(!a)) U[1/3,3] b))", "gaps": ["(0,1)", "(1,33/10)"], "points": [[0, 0], [1, 0], [2, 0]]}'
        ', {"formula": "!(!(a & !(!(!a & !(!a)) U[1/3,3] b)))", "gaps": [], "points": [[1, 1]]}'
        ', {"formula": "(!(!a & !(!a)) U[0,inf) !(!(a & !(!(!a & !(!a)) U[1/3,3] b))))", "gaps": ["(0,1)"], "points": [[0, 0], [1, 0]]}'
        ', {"formula": "!(!(!a & !(!a)) U[0,inf) !(!(a & !(!(!a & !(!a)) U[1/3,3] b))))", "gaps": ["(1,33/10)"], "points": [[1, 1], [2, 0]]}]}')

    def test_satset_mx_prints_the_sets_of_rho1(self, rho1, capsys):
        code, out = run(capsys, "satset", "--semantics", "mx",
                        "--formula", "G(a -> F[1/3,3] b)", "--word", rho1)
        assert code == 0
        assert out == self.RHO1_MX_SETS + "\n"

    def test_satset_itw_and_its_print_equal_sets(self, rho1, capsys):
        sets = []
        for sem in ("itw", "its"):
            code, out = run(capsys, "satset", "--semantics", sem,
                            "--formula", "G(a -> F[1/3,3] b)", "--word", rho1)
            assert code == 0
            sets.append(json.loads(out)["sets"])
        assert sets[0] == sets[1]

    def test_check_word(self, rho1, capsys):
        code, out = run(capsys, "check", "--word", rho1)
        assert code == 0
        got = json.loads(out)
        assert got["stutter_free"] is True
        assert got["strictly_monotone"] is False

    def test_oracle_mirrors_eval(self, rho1, capsys):
        code, out = run(capsys, "oracle", "--semantics", "itw", "--time", "1/2",
                        "--formula", "F(0,1) F[0,3.5] c", "--word", rho1)
        assert code == 0

    @pytest.mark.parametrize("position", range(4))
    @pytest.mark.parametrize("formula", ["(a | b) U c", "G(a -> F[1,3] b)"])
    def test_pw_eval_and_oracle_exit_alike(self, rho1, capsys, formula, position):
        codes = [run(capsys, command, "--semantics", "pw", "--position", str(position),
                     "--formula", formula, "--word", rho1)[0] for command in ("eval", "oracle")]
        assert codes[0] == codes[1] and codes[0] in (0, 1)

    def test_fuzz_small_run(self, capsys):
        code, out = run(capsys, "fuzz", "--cases", "5", "--seed", "3",
                        "--engine", "itw")
        assert code == 0
        assert json.loads(out)["divergence"] is None

    def test_fuzz_no_cases(self, capsys):
        assert run(capsys, "fuzz", "--cases", "0") == (
            0, '{"cases_run": 0, "divergence": null}\n')

    def test_fuzz_reports_the_first_divergence(self, capsys, monkeypatch):
        from mtlsem.formulas import to_text
        from mtlsem.oracle import gen_word

        calls = []

        def diverges_on_the_seventh_call(engine, structure, f):
            calls.append((engine, to_text(f)))
            return {"at": 0, "engine": True, "oracle": False} if len(calls) == 7 else None

        monkeypatch.setattr(mtlsem.cli, "differential", diverges_on_the_seventh_call)
        code, out = run(capsys, "fuzz", "--cases", "5", "--seed", "10", "--engine", "all")
        report = json.loads(out)
        assert code == 4
        # five pw cases, then itw's second case (seed 11); its and mx never run
        assert report["cases_run"] == 7
        assert [engine for engine, _ in calls] == ["pw"] * 5 + ["itw"] * 2
        divergence = report["divergence"]
        assert sorted(divergence) == ["at", "engine", "engine_name", "formula", "oracle",
                                      "seed", "word"]
        assert (divergence["engine_name"], divergence["seed"]) == ("itw", 11)
        assert (divergence["at"], divergence["engine"], divergence["oracle"]) == (0, True, False)
        assert divergence["word"] == word_to_json(gen_word(11))
        assert divergence["formula"] == calls[-1][1]

    def test_fuzz_negative_cases_is_input_error(self, capsys):
        code = main(["fuzz", "--cases", "-1"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == "" and "--cases" in captured.err

    def test_paper_all(self, capsys):
        code, out = run(capsys, "paper", "--all")
        assert code == 0
        assert "FAIL" not in out

    def test_a_crashed_check_is_a_failed_check(self, capsys, monkeypatch):
        from mtlsem import gallery

        names = [name for name, _, _ in gallery._checks()]

        def crash(*_):
            raise ValueError("no mixed engine")
        monkeypatch.setattr(gallery, "eval_mx", crash)  # the mx checks read it at call time
        code, out = run(capsys, "paper", "--all")
        lines = out.splitlines()
        assert code == 4
        assert [line.split(":")[0].split()[1] for line in lines[:-1]] == names
        failed = [line for line in lines if line.startswith("FAIL")]
        assert failed == [f"FAIL  {name}: raised ValueError: no mixed engine"
                          for name in ("mixed-recovers-order", "mixed-accepts-windowed-start",
                                       "mixed-rejects-interleaved-left-operand",
                                       "mixed-separates-shared-time-conjunct")]
        assert lines[-1] == f"{len(names) - len(failed)}/{len(names)} checks passed"

    def test_paper_name_filter(self, capsys):
        code, out = run(capsys, "paper", "--name", "mixed-recovers-order")
        assert code == 0
        assert "1/1 checks passed" in out

    def test_only_paper_imports_the_gallery(self):
        src = str(Path(mtlsem.cli.__file__).resolve().parents[1])
        probe = "import sys, mtlsem.cli; print('mtlsem.gallery' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=60)
        assert done.stdout.strip() == "False", done.stderr[-2000:]


class TestExitCodes:
    @pytest.mark.parametrize("payload, field", [
        ([1, 2], "JSON object"),
        ({"evnts": []}, "events"),
        ({"events": [["a"]]}, "events[0]"),
        ({"events": [["a", 0.5]]}, "events[0][1]"),
        ({"events": [["a", "0"]], "period": {"actions": ["c"], "offsets": ["1"]}},
         "period.duration"),
        ({"events": [["a", "0"]], "period": {"actions": ["c"], "offsets": "1",
                                             "duration": "1"}}, "period.offsets"),
        ({"steps": [["a", "[0,0]"]]}, "steps[0]"),
        ({"steps": [[["a"], "[0,0]"], [[], "(0,1/0)"]]},
         "steps[1][1]: zero denominator: '1/0'"),
        ({"steps": [[["a"], "[0,0]"], [[], "(0,1"]]}, "steps[1][1]: not an interval: '(0,1'"),
        # the period's own checks name its fields, not the prefix's positions
        ({"events": [["a", "0"]], "period": {"actions": ["b", "c"], "offsets": ["1", "1/2"],
                                             "duration": "1"}}, "error: period.offsets[1]"),
        ({"events": [["a", "0"]], "period": {"actions": ["b", "c"], "offsets": ["1/2", "2"],
                                             "duration": "1"}}, "error: period.offsets[1]"),
        ({"events": [["a", "0"]], "period": {"actions": ["b"], "offsets": ["0"],
                                             "duration": "0"}}, "error: period.duration"),
        ({"events": [["a", "0"]], "period": {"actions": ["b", "c"], "offsets": ["0"],
                                             "duration": "1"}}, "error: period: "),
        # the first bad field is named, whatever comes after it
        ({"events": [["a", "x"], ["b"]]}, "events[0][1]: not a nonnegative rational: 'x'"),
        ({"events": [["a", "0"], ["b", "1/0"], ["c", "y"]]},
         "events[1][1]: zero denominator: '1/0'"),
        ({"events": [["a", "0"], ["b", "z"], ["c", "1"], ["a", "z"]]},
         "events[1][1]: not a nonnegative rational: 'z'"),
        ({"events": [["a", 0], ["b", 1], ["c", True]]},
         "events[2][1] must be a rational string or integer"),
        ({"events": [["a", "0"], ["b", [1]], ["c", {"x": 1}]]},
         "events[1][1] must be a rational string or integer"),
        ({"events": [["a", "0"], ["b", {}], ["c", []]]},
         "events[1][1] must be a rational string or integer"),
        # every step text is read before the steps are checked for adjacency
        ({"steps": [[["a"], "[0,0]"], [[], "(1,2)"], [[], "(2,x)"]]},
         "steps[2][1]: not an interval: '(2,x)'"),
        ({"steps": [[["a"], "[0,0]"], [[], "(1,2)"], [[], "[3,2]"]]},
         "steps[2][1]: empty interval: [3,2]"),
        ({"steps": [[["a"], "[0,1/0]"], [[], "(0,1)"], "x"]},
         "steps[0][1]: zero denominator: '1/0'"),
        ({"steps": [[["a"], "[0,0]"], [[], "(0,1)"], "x", [[], "[2,x]"]]},
         "steps[2] must be a [propositions, interval] pair"),
        ({"steps": [[["a"], "[0,0]"], [[1], "(0,1)"], [[], "[1,x]"]]},
         "steps[1][0][0] must be a string"),
        ({"steps": [[["a"], "[0,0]"], [[], "(0,inf]"]]},
         "steps[1][1]: infinite upper bound must be open: '(0,inf]'"),
    ])
    def test_malformed_shape_is_input_error_naming_the_field(
            self, tmp_path, capsys, payload, field):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(payload))
        code = main(["eval", "--semantics", "pw", "--alphabet", "a,b,c",
                     "--formula", "a", "--word", str(p)])
        err = capsys.readouterr().err
        assert code == 3
        assert field in err

    @pytest.mark.parametrize("payload, semantics", [
        ({"events": [["a", "0"], ["z", "1"]]}, "itw"),
        ({"events": [["a", "0"]], "period": {"actions": ["z"], "offsets": ["1"],
                                             "duration": "1"}}, "itw"),
        ({"steps": [[["a"], "[0,0]"], [["z"], "(0,1]"]]}, "its"),
    ])
    def test_action_outside_the_alphabet_is_input_error(
            self, tmp_path, capsys, payload, semantics):
        p = tmp_path / "outside.json"
        p.write_text(json.dumps(payload))
        code = main(["eval", "--semantics", semantics, "--alphabet", "a,b", "--time", "1",
                     "--formula", "F (a | b)", "--word", str(p)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "'z'" in captured.err

    @pytest.mark.parametrize("payload, semantics, time, formula", [
        ({"events": [["a", "0"], ["b", "1/0"]]}, "itw", "0", "a"),
        (RHO1, "itw", "1/0", "a"),
        (RHO1, "itw", "0", "F[0, 1/0] a"),
        ({"steps": [[["a"], "[0,0]"], [[], "(0,1/0)"]]}, "its", "0", "a"),
    ], ids=["json-time", "time-option", "formula-window", "state-interval"])
    def test_zero_denominator_is_input_error(
            self, tmp_path, capsys, payload, semantics, time, formula):
        p = tmp_path / "zero.json"
        p.write_text(json.dumps(payload))
        code = main(["eval", "--semantics", semantics, "--alphabet", "a,b,c", "--time", time,
                     "--formula", formula, "--word", str(p)])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error:") and "zero denominator" in err

    @pytest.mark.parametrize("payload, time", [
        ({"events": [["a", "0"], ["b", "1 / 2"]]}, "0"),
        (RHO1, "1 / 2"),
    ], ids=["json-time", "time-option"])
    def test_spaces_around_the_slash_are_accepted(self, tmp_path, capsys, payload, time):
        p = tmp_path / "spaced.json"
        p.write_text(json.dumps(payload))
        code = main(["eval", "--semantics", "itw", "--alphabet", "a,b,c", "--time", time,
                     "--formula", "F[0, 1 / 2] b", "--word", str(p)])
        assert code == 0

    @pytest.mark.parametrize("events, field", [
        ([["a", 0], ["b", -1]], "events[1][1]"),
        ([["a", "0"], ["b", True]], "events[1][1]"),
        ([["a", 0], ["b", 1], ["c", True]], "events[2][1]"),  # True == 1
        ([["a", "0"], ["b", ["1"]]], "events[1][1]"),
        ([["a", "0"], ["b", "2"], ["c", "3/2"]], "position 2"),
    ], ids=["negative", "bool", "bool-after-one", "list", "decrease"])
    def test_bad_timestamp_is_input_error_naming_the_field(self, tmp_path, capsys, events, field):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"events": events}))
        code = main(["eval", "--semantics", "itw", "--formula", "a", "--word", str(p)])
        err = capsys.readouterr().err
        assert code == 3
        assert field in err

    LONG = "1" * 5000  # past int's default limit of 4,300 digits read from text

    @pytest.mark.parametrize("word, time, formula, message", [
        ('{"events": [["a", "0"], ["b", "%s"]]}' % LONG, "0", "a",
         "error: malformed input: events[1][1]: numeral too long to read: '1111"),
        # json.loads itself fails, before any field is read: the file is named
        ('{"events": [["a", 0], ["b", %s]]}' % LONG, "0", "a",
         "error: malformed input: {path}: an integer too long to read\n"),
        ('{"events": [["a", "0"]], "period": {"actions": ["b"], "offsets": ["%s"], '
         '"duration": "1"}}' % LONG, "0", "a",
         "error: malformed input: period.offsets[0]: numeral too long to read: '1111"),
        ('{"events": [["a", "0"]]}', "0", f"F[0, {LONG}] a",
         "error: syntax error at 1: numeral too long to read: '1111"),
        ('{"events": [["a", "0"]]}', LONG, "a", "error: numeral too long to read: '1111"),
    ], ids=["json-stamp-string", "json-stamp-integer", "lasso-offset", "formula-window",
            "time-option"])
    def test_a_numeral_past_the_digit_limit_is_input_error(
            self, tmp_path, capsys, word, time, formula, message):
        p = tmp_path / "long.json"
        p.write_text(word)
        code = main(["eval", "--semantics", "itw", "--alphabet", "a,b", "--time", time,
                     "--formula", formula, "--word", str(p)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith(message.format(path=p)) and len(captured.err) < 200

    @pytest.mark.parametrize("argv, message", [
        (("eval", "--semantics", "itw", "--formula", "a", "--word", "{kappa}"),
         "cannot be read under itw"),
        (("encode", "--to", "word", "--word", "{kappa}"), "encoding targets"),
        (("eval", "--semantics", "pw", "--word", "{rho}"), "no formula given"),
        (("eval", "--semantics", "its", "--formula", "true", "--word", "{empty}"),
         "none inferable"),
        (("paper", "--name", "nosuch"), "no gallery check matches 'nosuch'"),
        (("parse", "--formula", "(a"), "expected ')'"),
    ], ids=["tss-under-itw", "encode-tss", "no-formula", "no-alphabet", "paper-name",
            "parse-paren"])
    def test_input_errors(self, tmp_path, capsys, rho1, kappa1, argv, message):
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"steps": [[[], "[0,0]"], [[], "(0,1]"]]}))
        code = main([a.format(kappa=kappa1, rho=rho1, empty=empty) for a in argv])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("error:") and message in captured.err

    NINES = "9" * 4300  # a value printable alone whose double is not

    @pytest.mark.parametrize("argv, payload", [
        (("parse", "--formula", f"F[0,{NINES}] F[0,{NINES}] b"), None),
        (("encode", "--to", "tss"), {"events": [["a", "0"]], "period": {
            "actions": ["b"], "offsets": ["1"], "duration": NINES}}),
    ], ids=["parse-horizon", "encode-tss-lasso"])
    def test_a_value_too_long_to_print_is_input_error(self, tmp_path, capsys, argv, payload):
        if payload is not None:
            p = tmp_path / "long.json"
            p.write_text(json.dumps(payload))
            argv = (*argv, "--word", str(p))
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == "error: value too long to print\n"

    def test_padded_and_reduced_stamps_print_the_same(self, tmp_path, capsys):
        outputs = []
        for stamps in (("0", "0.50", "2/4", "3.30"), ("0", "1/2", "1/2", "33/10")):
            p = tmp_path / "w.json"
            p.write_text(json.dumps({"events": [list(e) for e in zip("abac", stamps)]}))
            outputs.append((run(capsys, "eval", "--semantics", "itw", "--word", str(p),
                                "--formula", "G(a -> F[1/2,3] c)"),
                            run(capsys, "encode", "--to", "word", "--word", str(p))))
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0][1][1])["events"][1] == ["b", "1/2"]

    @pytest.mark.parametrize("time, code", [("0", 3), ("1/2", 3), ("1", 0)])
    @pytest.mark.parametrize("command", ["eval", "oracle"])
    def test_mx_time_before_the_first_block_is_input_error(
            self, tmp_path, capsys, command, time, code):
        # a word that starts at 1: the mixed domain starts at its first block
        p = tmp_path / "late.json"
        p.write_text(json.dumps({"events": [["a", "1"], ["b", "2"]]}))
        got = main([command, "--semantics", "mx", "--time", time, "--allow-nonzero-start",
                    "--formula", "a", "--word", str(p)])
        captured = capsys.readouterr()
        assert got == code
        assert (captured.out == "") is (code == 3)

    def test_unknown_option_exits_three_with_usage(self):
        src = str(Path(mtlsem.cli.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-m", "mtlsem", "eval", "--bogus"],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=60)
        assert done.returncode == 3
        assert done.stdout == ""
        assert done.stderr.startswith("usage: mtlsem eval")
        assert "mtlsem eval: error:" in done.stderr

    @pytest.mark.parametrize("option", [("--alphabet", "x,y"), ("--formula", "(((("),
                                        ("--formula-file", "f.txt")], ids=lambda o: o[0])
    @pytest.mark.parametrize("command", [("check",), ("encode", "--to", "tss")],
                             ids=lambda c: c[0])
    def test_check_and_encode_take_no_formula_options(self, rho1, capsys, command, option):
        assert main([*command, "--word", rho1]) == 0
        capsys.readouterr()
        assert main([*command, "--word", rho1, *option]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"usage: mtlsem {command[0]} ")
        assert f"unrecognized arguments: {' '.join(option)}" in err

    def test_unexpected_exception_is_exit_four_in_one_line(self, rho1, capsys, monkeypatch):
        import mtlsem.cli as cli

        def boom(*_):
            raise ZeroDivisionError("boom\nsecond line")

        monkeypatch.setattr(cli, "eval_pw", boom)
        code = main(["eval", "--semantics", "pw", "--formula", "a", "--word", rho1])
        err = capsys.readouterr().err
        assert code == 4
        assert err.strip() == "internal error: ZeroDivisionError: boom"

    def test_an_engine_index_error_is_exit_four_a_bad_position_exit_three(self, rho1, capsys,
                                                                         monkeypatch):
        # only a position the input names is an input error: a plain
        # IndexError from inside an engine is an internal failure
        import mtlsem.cli as cli

        code = main(["eval", "--semantics", "pw", "--position", "99", "--formula", "a",
                     "--word", rho1])
        assert (code, capsys.readouterr().err) == (3, "error: position 99 out of range\n")
        monkeypatch.setattr(cli, "eval_pw", lambda *_: [][0])
        code = main(["eval", "--semantics", "pw", "--formula", "a", "--word", rho1])
        err = capsys.readouterr().err
        assert code == 4
        assert err.splitlines() == ["internal error: IndexError: list index out of range"]

    @pytest.mark.parametrize("point", [
        ("its", "--time", "4"),
        ("mx", "--time", "4"),
        ("mx", "--time", "1", "--pos", "2"),
        ("mx", "--time", "1", "--pos", "-1"),
        ("mx", "--time", "1/2", "--pos", "1"),
        ("itw", "--time", "4"),
        ("pw", "--position", "4"),
    ], ids=" ".join)
    def test_oracle_rejects_a_point_off_the_domain_as_eval_does(self, rho1, capsys, point):
        sem, *where = point
        got = []
        for command in ("eval", "oracle"):
            code = main([command, "--semantics", sem, *where, "--formula", "a", "--word", rho1])
            got.append((code, capsys.readouterr().err))
        assert got[0][0] == 3 and got[0][1].startswith("error: ")
        assert got[1] == got[0]

    @pytest.mark.parametrize("point", [("its", "1/2", "0"), ("mx", "1/2", "0"),
                                       ("mx", "2", "2")], ids=" ".join)
    def test_oracle_rejects_a_point_before_a_late_start_as_eval_does(
            self, tmp_path, capsys, point):
        sem, t, j = point
        p = tmp_path / "late.json"
        p.write_text(json.dumps({"events": [["a", "1"], ["b", "2"], ["b", "2"]]}))
        got = []
        for command in ("eval", "oracle"):
            code = main([command, "--semantics", sem, "--time", t, "--formula", "a",
                         "--allow-nonzero-start", "--word", str(p)]
                        + (["--pos", j] if sem == "mx" else []))
            got.append((code, capsys.readouterr().err))
        assert got[0][0] == 3 and got[0][1].startswith("error: ")
        assert got[1] == got[0]

    @pytest.mark.parametrize("t", ["1", "3/2", "2"])
    @pytest.mark.parametrize("formula", ["p", "!p", "F[0,1] p"])
    def test_oracle_agrees_with_eval_on_a_left_open_start(self, tmp_path, capsys, formula, t):
        # time 1 starts the span but lies in no step: no atom holds there
        p = tmp_path / "left_open.json"
        p.write_text(json.dumps({"steps": [[["p"], "(1,2]"]]}))
        got = []
        for command in ("eval", "oracle"):
            code = main([command, "--semantics", "its", "--time", t, "--formula", formula,
                         "--allow-nonzero-start", "--word", str(p)])
            got.append((code, *capsys.readouterr()))
        assert got[0][0] in (0, 1) and got[0][2] == ""
        assert got[1] == got[0]
        if t == "1" and formula != "F[0,1] p":
            assert json.loads(got[0][1])["verdict"] == ("true" if formula == "!p" else "false")


    @pytest.mark.parametrize("t, code", [
        ("0", 3), ("1/4", 0), ("1/2", 1), ("2", 0), ("5/2", 3), ("201/100", 3)])
    def test_its_domain_runs_from_a_left_open_start_to_the_last_end(
            self, tmp_path, capsys, t, code):
        # the span is [1/4, 2]: at 1/4 no step holds, so !p holds there
        p = tmp_path / "left_open.json"
        p.write_text(json.dumps({"steps": [[["p"], "(1/4,1]"], [["q"], "(1,2]"]]}))
        assert main(["eval", "--semantics", "its", "--time", t, "--formula", "!p",
                     "--allow-nonzero-start", "--word", str(p)]) == code
        err = capsys.readouterr().err
        assert err == (f"error: time {t} outside the covered span\n" if code == 3 else "")


class TestDomainsOfALateStart:
    """A raw word that starts after 0: `itw` reads it over [0, end], `its`
    over its image's span, which starts at the first event."""

    @pytest.fixture
    def late(self, tmp_path):
        p = tmp_path / "late.json"
        p.write_text(json.dumps({"events": [["a", "1"], ["b", "2"]]}))
        return str(p)

    @pytest.mark.parametrize("semantics, parts", [
        ("itw", ["[0,1)", "(1,2]"]), ("its", ["(1,2]"])])
    def test_satset(self, late, capsys, semantics, parts):
        code, out = run(capsys, "satset", "--semantics", semantics, "--formula", "!a",
                        "--allow-nonzero-start", "--word", late)
        assert code == 0
        assert json.loads(out)["sets"][-1] == {"formula": "!a", "parts": parts}

    @pytest.mark.parametrize("semantics, code, err", [
        ("itw", 0, ""), ("its", 3, "error: time 1/2 outside the covered span\n")])
    def test_eval_before_the_first_event(self, late, capsys, semantics, code, err):
        assert main(["eval", "--semantics", semantics, "--time", "1/2", "--formula", "!a",
                     "--allow-nonzero-start", "--word", late]) == code
        assert capsys.readouterr().err == err


class TestOneParser:
    """`main` parses every argv against the one parser built at import."""

    PLAIN = ("eval", "--semantics", "pw", "--formula", "X c")

    def test_options_do_not_carry_over(self, rho1, capsys):
        first = run(capsys, *self.PLAIN, "--word", rho1)
        code, out = run(capsys, *self.PLAIN, "--word", rho1, "--pretty", "--position", "2")
        # position 2 is the a right before c; position 0 is followed by b
        assert code == 0 and json.loads(out)["verdict"] == "true"
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
        assert first[0] == 1 and json.loads(first[1])["verdict"] == "false"
        assert first[1] == json.dumps(json.loads(first[1]), sort_keys=True) + "\n"
        assert run(capsys, *self.PLAIN, "--word", rho1) == first

    @pytest.mark.parametrize("bad, code", [
        (("eval", "--bogus"), 3),
        (("eval", "--formula", "a"), 3),
        (("eval", "--help"), 0),
    ], ids=["unknown-option", "missing-semantics", "help"])
    def test_a_parse_exit_leaves_the_next_call_alone(self, rho1, capsys, bad, code):
        first = run(capsys, *self.PLAIN, "--word", rho1)
        assert main(list(bad)) == code
        capsys.readouterr()
        assert run(capsys, *self.PLAIN, "--word", rho1) == first

    def test_no_parser_is_built_per_call(self, rho1, capsys, monkeypatch):
        import mtlsem.cli as cli

        def boom():
            raise AssertionError("build_parser called after import")

        monkeypatch.setattr(cli, "build_parser", boom)
        assert run(capsys, *self.PLAIN, "--word", rho1)[0] == 1
        assert main(["eval", "--bogus"]) == 3


class TestDispatch:
    """`main` hands an argv that starts with a command name to that command's
    sub-parser: one argparse pass, with the Namespace and the exits of the
    top parser's two."""

    @staticmethod
    def top_parser(capsys, argv):
        """What the top parser alone makes of argv: (Namespace or exit code, stdout, stderr)."""
        try:
            got = mtlsem.cli.build_parser().parse_args(argv)
        except SystemExit as exc:
            got = 0 if exc.code in (0, None) else 3
        return (got, *capsys.readouterr())

    @pytest.mark.parametrize("argv", [
        ("parse", "--formula", "F[0,1] a", "--beta", "--pretty"),
        ("eval", "--semantics", "mx", "--time", "1/2", "--pos", "1", "--formula", "a"),
        ("eval", "--sem", "pw", "--formula", "a"),  # an abbreviated option
        ("oracle", "--semantics", "itw", "--alphabet", "a,b,c", "--formula", "a",
         "--allow-nonzero-start"),
        ("satset", "--semantics", "its", "--formula-file", "f.txt"),
        ("compile", "--target", "itw2mx", "--formula", "a U b"),
        ("encode", "--to", "tss"),
        ("check",),
        ("fuzz", "--cases", "3", "--seed", "7", "--engine", "mx"),
        ("paper", "--name", "lasso"),
    ], ids=lambda argv: " ".join(argv[:2]))
    @pytest.mark.parametrize("from_sys_argv", [False, True], ids=["argv", "sys.argv"])
    def test_the_namespace_is_the_top_parsers(
            self, rho1, capsys, monkeypatch, argv, from_sys_argv):
        argv = [*argv, "--word", rho1] if argv[0] in ("eval", "oracle", "satset", "encode",
                                                      "check") else list(argv)
        seen = []
        for name in ("cmd_parse", "cmd_eval", "cmd_satset", "cmd_compile", "cmd_encode",
                     "cmd_check", "cmd_fuzz", "cmd_paper"):
            monkeypatch.setattr(mtlsem.cli, name, lambda args: seen.append(args) or 0)
        if from_sys_argv:  # the installed entry point's path
            monkeypatch.setattr(sys, "argv", ["mtlsem", *argv])
            assert main() == 0
        else:
            assert main(argv) == 0
        want, out, err = self.top_parser(capsys, argv)
        assert out == err == ""
        assert ({k: v for k, v in vars(seen[0]).items() if k != "command"}
                == {k: v for k, v in vars(want).items() if k != "command"})

    @pytest.mark.parametrize("argv", [
        (),
        ("-h",),
        ("bogus",),
        ("bogus", "--formula", "a"),
        ("eval", "-h"),
        ("eval", "--formula", "a", "--word", "w.json"),  # no --semantics
        ("eval", "--semantics", "ltl", "--formula", "a", "--word", "w.json"),
        ("satset", "--semantics", "pw", "--formula", "a", "--word", "w.json"),
        ("fuzz", "--cases", "x"),
    ], ids=lambda argv: " ".join(argv) or "empty")
    def test_parse_exits_are_the_top_parsers(self, capsys, argv):
        want = self.top_parser(capsys, list(argv))
        assert want[0] in (0, 3)
        assert (main(list(argv)), *capsys.readouterr()) == want

    def test_unrecognized_arguments_print_the_command_usage(self, rho1, capsys):
        argv = ["eval", "--semantics", "pw", "--formula", "a", "--word", rho1, "extra"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (mtlsem.cli._COMMANDS["eval"].format_usage()
                                + "mtlsem eval: error: unrecognized arguments: extra\n")
        assert captured.err.startswith("usage: mtlsem eval [-h]")


class TestSatsetOutputIsUnchanged:
    """`satset` prints the same bytes as before its tables shared their bounds:
    the digests are of the three formulas' outputs in order, as the earlier
    per-set conversion printed them."""

    FORMULAS = ("G(a -> F[1/3,3] b)", "(a | b) U(1/2,2] c", "!F[0,1) (b & X[0,0] a)")
    DIGESTS = {
        ("rho1", "itw"): "4724410639b4d6a7", ("rho1", "its"): "8dde20e18f60d9ad",
        ("rho1", "mx"): "6323466128dd31dd",
        (3, "itw"): "49abf4a478dc2712", (3, "its"): "eaa6e2d5d4e2e8a8",
        (3, "mx"): "1a7a8e7858e15740",
        (17, "itw"): "18b3914596e59c81", (17, "its"): "ba7c044179237e9e",
        (17, "mx"): "a11eae30329801b7",
        (42, "itw"): "c501f582e91db939", (42, "its"): "7e22ec8355383372",
        (42, "mx"): "e18ff2283435f406",
    }

    @pytest.mark.parametrize("name,sem", sorted(DIGESTS, key=str))
    def test_bytes(self, name, sem, tmp_path, capsys):
        import hashlib

        from mtlsem.oracle import gen_word
        from mtlsem.structures import word_to_json

        path = tmp_path / "w.json"
        path.write_text(json.dumps(RHO1 if name == "rho1" else word_to_json(gen_word(name))))
        digest = hashlib.sha256()
        for f in self.FORMULAS:
            code, out = run(capsys, "satset", "--semantics", sem, "--formula", f,
                            "--alphabet", "a,b,c", "--word", str(path))
            assert code == 0
            digest.update(out.encode())
        assert digest.hexdigest()[:16] == self.DIGESTS[name, sem]


class TestStateSequencesBuildNoSteps:
    """The CLI reads a state sequence's key columns: evaluating, printing the
    sets of, encoding into and checking a state sequence build no step
    Intervals.  Counted: each build of a sequence's `steps` or a set's `parts`."""

    @pytest.fixture
    def conversions(self, monkeypatch):
        from functools import cached_property

        from mtlsem.intervals import IntervalSet
        from mtlsem.structures import TimedStateSequence

        calls = []
        for cls, name in ((TimedStateSequence, "steps"), (IntervalSet, "parts")):
            def counted(obj, real=getattr(cls, name).func):
                calls.append(obj)
                return real(obj)
            prop = cached_property(counted)
            prop.__set_name__(cls, name)
            monkeypatch.setattr(cls, name, prop)
        return calls

    @pytest.mark.parametrize("argv", [
        ("eval", "--semantics", "its", "--time", "1/2", "--formula", "F[0,1] b"),
        ("satset", "--semantics", "its", "--formula", "(a | b) U(1/2,2] c"),
        ("check",),
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("source", ["rho1", "kappa1"])
    def test_commands(self, conversions, capsys, request, argv, source):
        assert main([*argv, "--word", request.getfixturevalue(source)]) == 0
        capsys.readouterr()
        assert conversions == []

    @pytest.mark.parametrize("source", ["rho1", "swap_lasso"])
    def test_encode_tss(self, conversions, capsys, request, source):
        assert main(["encode", "--to", "tss", "--word", request.getfixturevalue(source)]) == 0
        capsys.readouterr()
        assert conversions == []

    def test_reading_the_steps_is_counted(self, conversions, kappa1):
        from mtlsem.structures import load_input

        load_input(kappa1).steps
        assert len(conversions) == 1


class TestWordsBuildNoViews:
    """The CLI reads a word's columns, its actions and ticks: evaluating,
    printing the sets of, encoding and checking a word or lasso build none of
    its `Fraction` views (`times`, `events`, `blocks`)."""

    @pytest.fixture
    def views(self, monkeypatch):
        from mtlsem.structures import CompactTimedWord, TimedWord, _OnTicks

        calls = []
        for cls, name in ((_OnTicks, "times"), (TimedWord, "events"),
                          (CompactTimedWord, "blocks")):
            prop = vars(cls)[name]

            def counted(model, real=prop.func, name=name):
                calls.append(name)
                return real(model)
            monkeypatch.setattr(prop, "func", counted)
        return calls

    @pytest.mark.parametrize("argv", [
        ("eval", "--semantics", "pw", "--position", "1", "--formula", "F[0,3] c"),
        ("eval", "--semantics", "itw", "--time", "1/2", "--formula", "a U(0,3] c"),
        ("eval", "--semantics", "its", "--time", "1/2", "--formula", "F[0,1] b"),
        ("eval", "--semantics", "mx", "--time", "1", "--pos", "1", "--formula", "beta U[0,1] c"),
        ("satset", "--semantics", "itw", "--formula", "(a | b) U(1/2,2] c"),
        ("satset", "--semantics", "its", "--formula", "(a | b) U(1/2,2] c"),
        ("satset", "--semantics", "mx", "--formula", "(a | b) U[0,2] c"),
        ("encode", "--to", "word"),
        ("encode", "--to", "compact"),
        ("encode", "--to", "tss"),
        ("check",),
    ], ids=lambda argv: "-".join(argv[:3]))
    def test_word_commands(self, views, capsys, rho1, argv):
        assert main([*argv, "--word", rho1]) in (0, 1)
        capsys.readouterr()
        assert views == []

    @pytest.mark.parametrize("argv", [
        ("eval", "--semantics", "pw", "--formula", "G F c"),
        ("eval", "--semantics", "itw", "--formula", "G F c"),
        ("eval", "--semantics", "mx", "--formula", "G F c"),
        ("encode", "--to", "word"),
        ("encode", "--to", "compact"),
        ("encode", "--to", "tss"),
        ("check",),
    ], ids=lambda argv: "-".join(argv[:3]))
    def test_lasso_commands(self, views, capsys, swap_lasso, argv):
        assert main([*argv, "--word", swap_lasso]) in (0, 1)
        capsys.readouterr()
        assert views == []

    def test_reading_a_view_builds_it_once(self, views, rho1):
        from mtlsem.encodings import compact
        from mtlsem.structures import load_input

        w = load_input(rho1)
        assert w.events == w.events and w.times == w.times
        assert sorted(views) == ["events", "times"]
        cw = compact(w)
        assert cw.blocks == cw.blocks
        assert sorted(views) == ["blocks", "events", "times", "times"]



class TestFilesAreReadAsUtf8:
    """Input files are decoded as UTF-8 whatever the locale; a file that is
    not UTF-8 is an input error naming the file."""

    def test_undecodable_word_file(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_bytes(b'{"events": [["a", "0"]]}\xff')
        assert main(["check", "--word", str(p)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {p}: not UTF-8 text")

    def test_undecodable_formula_file(self, tmp_path, rho1, capsys):
        f = tmp_path / "bad.mtl"
        f.write_bytes(b"F a\xff")
        assert main(["eval", "--semantics", "pw", "--formula-file", str(f), "--word", rho1]) == 3
        assert capsys.readouterr().err.startswith(f"error: {f}: not UTF-8 text")

    def test_a_utf8_word_under_the_c_locale(self, tmp_path):
        p = tmp_path / "accent.json"
        p.write_bytes('{"events": [["\u00e9", "0"], ["b", "1/2"]]}'.encode("utf-8"))
        src = str(Path(mtlsem.cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "LC_ALL": "C", "PYTHONUTF8": "0",
               "PYTHONCOERCECLOCALE": "0"}
        done = subprocess.run([sys.executable, "-m", "mtlsem", "check", "--word", str(p)],
                              capture_output=True, env=env, timeout=60)
        assert done.returncode == 0, done.stderr[-2000:]
        assert json.loads(done.stdout)["length"] == 2

    def test_a_byte_order_mark_stays_an_input_error(self, tmp_path, capsys):
        # pinned: JSON text has no byte order mark, and none is skipped
        p = tmp_path / "bom.json"
        p.write_bytes(b"\xef\xbb\xbf" + json.dumps(RHO1).encode("utf-8"))
        assert main(["check", "--word", str(p)]) == 3
        assert capsys.readouterr().err.startswith("error: Unexpected UTF-8 BOM")

    def test_line_ends_are_read_as_in_text_mode(self, tmp_path, rho1, capsys):
        # "\r\n" and "\r" read as "\n", so an error's position counts no "\r"
        errors = []
        for end in ("\n", "\r\n", "\r"):
            f = tmp_path / "f.mtl"
            f.write_bytes(f"F a{end}&{end}& b{end}".encode())
            w = tmp_path / "w.json"
            w.write_bytes(f'{{"events":{end}[["a", "0"],{end}x]}}'.encode())
            argv = ["eval", "--semantics", "pw", "--formula-file", str(f), "--word", rho1]
            assert main(argv) == 3
            assert main(["check", "--word", str(w)]) == 3
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] == errors[2]
        assert "syntax error at 6:" in errors[0] and "line 3 column 1 (char 24)" in errors[0]


def _primes(k: int) -> list:
    out, n = [], 2
    while len(out) < k:
        if all(n % q for q in out if q * q <= n):
            out.append(n)
        n += 1
    return out


class TestCoprimeDenominators:
    """Event i of the word is at time i + 1/p_i, p_i the i-th prime (event 0 at
    time 0): 299 pairwise coprime denominators, so the loader's lcm runs over
    every distinct denominator and the time base has about 2,700 bits."""

    def test_loaded_word_and_satset_match_the_validated_word(self, tmp_path, capsys, monkeypatch):
        primes = _primes(299)
        events = [("abc"[i % 3], Fraction(i * p + 1, p) if i else Fraction(0))
                  for i, p in enumerate([1] + primes)]
        want = validate_word(events)
        assert want.ticks[0] == math.prod(primes)
        path = tmp_path / "coprime.json"
        path.write_text(json.dumps(word_to_json(want)))
        loaded = load_input(str(path))
        assert loaded == want and loaded.ticks == want.ticks
        for sem in ("itw", "its", "mx"):
            for formula in ("G(a -> F[1,3] b)", "(a | b) U[0,5/7] c"):
                argv = ["satset", "--semantics", sem, "--formula", formula,
                        "--alphabet", "a,b,c", "--word", str(path)]
                assert main(argv) == 0
                from_json = capsys.readouterr().out
                with monkeypatch.context() as m:
                    m.setattr(mtlsem.cli, "load_input", lambda *_: want)
                    assert main(argv) == 0
                assert capsys.readouterr().out == from_json, (sem, formula)
