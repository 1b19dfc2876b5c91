"""End-to-end command-line checks, one per subcommand."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mtlsem.cli
from mtlsem.cli import main

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

    def test_paper_all(self, capsys):
        code, out = run(capsys, "paper", "--all")
        assert code == 0
        assert "FAIL" not in out

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

    def test_unexpected_exception_is_exit_four_in_one_line(self, rho1, capsys, monkeypatch):
        import mtlsem.cli as cli

        def boom(*_):
            raise ZeroDivisionError("boom\nsecond line")

        monkeypatch.setattr(cli, "eval_pw", boom)
        code = main(["eval", "--semantics", "pw", "--formula", "a", "--word", rho1])
        err = capsys.readouterr().err
        assert code == 4
        assert err.strip() == "internal error: ZeroDivisionError: boom"

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
    Intervals."""

    @pytest.fixture
    def conversions(self, monkeypatch):
        import mtlsem.intervals as intervals

        calls, real = [], intervals.key_intervals

        def counted(D, keys):
            calls.append(keys)
            return real(D, keys)
        for name, module in list(sys.modules.items()):
            if name.startswith("mtlsem") and hasattr(module, "key_intervals"):
                monkeypatch.setattr(module, "key_intervals", counted)
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
