"""Command-line surface.

Exit codes: 0 verdict true / success, 1 verdict false, 3 input error
(malformed JSON shapes name the offending field), 4 internal failure (any
unexpected exception, reported in one line).  Every verdict, lasso verdicts
included, is exact, so it is true or false.  Machine output is JSON on stdout;
--pretty switches to an indented human layout.

`eval`, `oracle`, `satset` and `fuzz` dispatch on the relation through one
table, `_relations`: per relation, how it reads a timed word, its engine and
oracle at one point, its lasso verdict and its satisfaction sets.

`main(argv)` is reentrant: the one argument parser is built at import.  An
argv that starts with a command name is parsed by that command's sub-parser
alone (an unrecognized argument prints the command's usage), any other by the
top parser: one argparse pass.  The library (`import mtlsem`) does not import it.
"""

from __future__ import annotations

import argparse
import json
import sys

from .compilers import compile_itw, compile_pw
from .encodings import compact, compact_lasso, word_to_tss
from .errors import MtlsemError
from .formulas import (
    _text,
    alphabet,
    atoms,
    fold,
    horizon,
    is_bounded,
    parse,
    temporal_depth,
    to_text,
    uses_beta,
)
from .interval_based import eval_its, eval_itw, eval_itw_lasso, sat_sets_its, sat_sets_itw
from .intervals import rat_str, rational
from .mixed import eval_mx, eval_mx_lasso, sat_sets_mx
from .oracle import (
    differential,
    gen_formula,
    gen_word,
    oracle_eval_its,
    oracle_eval_itw,
    oracle_eval_mx,
    oracle_eval_pw,
)
from .pointwise import eval_pw, eval_pw_lasso
from .structures import (
    Lasso,
    TimedStateSequence,
    TimedWord,
    duration,
    is_action_based,
    is_strictly_monotone,
    is_stutter_free,
    lasso_to_json,
    load_input,
    read_text,
    tss_to_json,
    unroll,
    word_to_json,
)

OK, FALSE, INPUT_ERROR, INVARIANT = 0, 1, 3, 4
_FUZZ_SIGMA = alphabet("a,b,c")  # the actions of oracle.gen_word


def _emit(obj, pretty: bool):
    print(json.dumps(obj, indent=2 if pretty else None, sort_keys=True))


def _the_alphabet(args, loaded):
    if isinstance(loaded, TimedWord):
        symbols = set(loaded.actions)
    elif isinstance(loaded, Lasso):
        symbols = set(loaded.prefix.actions) | set(loaded.period_actions)
    else:  # a state sequence
        symbols = set().union(*loaded.columns[2])
    if args.alphabet:
        sigma = alphabet(args.alphabet)
        outside = sorted(symbols.difference(sigma.symbols))
        if outside:
            raise MtlsemError(f"action {outside[0]!r} is not in the alphabet {args.alphabet}")
        return sigma
    if not symbols:
        raise MtlsemError("no --alphabet given and none inferable from the input")
    return alphabet(sorted(symbols))


def _formula(args, sigma, allow_beta: bool):
    text = args.formula
    if text is None and args.formula_file:
        text = read_text(args.formula_file).strip()
    if text is None:
        raise MtlsemError("no formula given (use --formula or --formula-file)")
    return parse(text, sigma, allow_beta=allow_beta)


def _relations() -> dict:
    """Per relation: how it reads a timed word, the point options it is
    evaluated at (each given or 0), its engine and oracle at that point, its
    lasso verdict and its satisfaction sets.

    Built per call, so a name rebound after import (a test double, a tracing
    wrapper) is the one that runs."""
    return {
        "pw": (lambda rho: rho, ("position",), eval_pw, oracle_eval_pw, eval_pw_lasso, None),
        "itw": (lambda rho: rho, ("time",), eval_itw, oracle_eval_itw, eval_itw_lasso,
                sat_sets_itw),
        "its": (word_to_tss, ("time",), eval_its, oracle_eval_its, None, sat_sets_its),
        "mx": (compact, ("time", "pos"), eval_mx, oracle_eval_mx, eval_mx_lasso, sat_sets_mx),
    }


def _point(args, sem: str, options: tuple) -> list:
    """The point from the options the relation reads; any other is an input error."""
    for name in ("position", "time", "pos"):
        if name not in options and getattr(args, name) is not None:
            raise MtlsemError(f"--{name} does not apply to the {sem} semantics")
    return [(rational("0" if args.time is None else args.time) if name == "time"
             else getattr(args, name) or 0) for name in options]


def _finite(loaded, sem: str, read):
    """A finite input as relation `sem` reads it: only `its` reads a state sequence."""
    if not isinstance(loaded, TimedStateSequence):
        return read(loaded)
    if sem != "its":
        raise MtlsemError(f"a state sequence cannot be read under {sem}")
    return loaded


# ---------------------------------------------------------------------------
# subcommands

def cmd_parse(args) -> int:
    sigma = alphabet(args.alphabet or "a,b,c")
    f = _formula(args, sigma, allow_beta=args.beta)
    _emit({
        "canonical": to_text(f),
        "atoms": sorted(atoms(f)),
        "horizon": rat_str(horizon(f)),
        "bounded": is_bounded(f),
        "uses_beta": uses_beta(f),
        "temporal_depth": temporal_depth(f),
    }, args.pretty)
    return OK


def cmd_eval(args) -> int:
    loaded = load_input(args.word, args.allow_nonzero_start)
    sigma = _the_alphabet(args, loaded)
    sem = args.semantics
    f = _formula(args, sigma, allow_beta=sem == "mx")
    read, options, engine, oracle, on_lasso, _ = _relations()[sem]
    point = _point(args, sem, options)
    if isinstance(loaded, Lasso):
        if args.via_oracle:
            raise MtlsemError("the oracle evaluates finite inputs only")
        if on_lasso is None:
            raise MtlsemError("state-sequence semantics takes no lasso input")
        for name, value in zip(options, point):
            if value:
                raise MtlsemError(f"--{name} is not 0: a lasso verdict is decided at the origin")
        verdict = on_lasso(loaded, f)
    else:
        structure = _finite(loaded, sem, read)
        verdict = (oracle if args.via_oracle else engine)(structure, *point, f)
    _emit({"semantics": sem, "formula": to_text(f), "verdict": "true" if verdict else "false"},
          args.pretty)
    return OK if verdict else FALSE


def cmd_satset(args) -> int:
    loaded = load_input(args.word, args.allow_nonzero_start)
    if isinstance(loaded, Lasso):
        raise MtlsemError("satisfaction sets are computed over finite inputs")
    sigma = _the_alphabet(args, loaded)
    sem = args.semantics
    f = _formula(args, sigma, allow_beta=sem == "mx")
    read, *_, sat_sets = _relations()[sem]
    texts = fold(f, _text)  # every text from one fold, not one fold per entry
    sets = []
    for sub, got in sat_sets(_finite(loaded, sem, read), f).items():
        shown = ({"points": got.point_list, "gaps": got.gap.part_texts()} if sem == "mx"
                 else {"parts": got.part_texts()})
        sets.append({"formula": texts[sub], **shown})
    _emit({"semantics": sem, "sets": sets}, args.pretty)
    return OK


def cmd_compile(args) -> int:
    sigma = alphabet(args.alphabet or "a,b,c")
    f = _formula(args, sigma, allow_beta=False)
    compiled = compile_pw(f, sigma) if args.target == "pw2mx" else compile_itw(f, sigma)
    _emit({"target": args.target, "source": to_text(f), "compiled": to_text(compiled)},
          args.pretty)
    return OK


def _blocks_json(cw) -> dict:
    return {"blocks": [[list(a), text] for a, text in zip(cw.actions, cw.time_texts())]}


def cmd_encode(args) -> int:
    loaded = load_input(args.word, args.allow_nonzero_start)
    if isinstance(loaded, TimedStateSequence):
        raise MtlsemError("state sequences are encoding targets, not sources")
    lasso = isinstance(loaded, Lasso)
    if args.to == "word":
        out = lasso_to_json(loaded) if lasso else word_to_json(loaded)
    elif args.to == "compact":
        if lasso:
            prefix, period = compact_lasso(loaded)
            out = {"prefix": _blocks_json(prefix),
                   "period": {**_blocks_json(period), "duration": rat_str(loaded.period_duration)}}
        else:
            out = _blocks_json(compact(loaded))
    else:
        out = tss_to_json(word_to_tss(unroll(
            loaded, duration(loaded.prefix) + 2 * loaded.period_duration) if lasso else loaded))
    _emit(out, args.pretty)
    return OK


def cmd_check(args) -> int:
    loaded = load_input(args.word, args.allow_nonzero_start)
    if isinstance(loaded, Lasso):
        out = {"kind": "lasso", "valid": True,
               "prefix_length": len(loaded.prefix),
               "period_length": len(loaded.period_actions),
               "period_duration": rat_str(loaded.period_duration)}
    elif isinstance(loaded, TimedStateSequence):
        out = {"kind": "state-sequence", "valid": True, "length": len(loaded),
               "action_based": is_action_based(loaded)}
    else:
        out = {"kind": "word", "valid": True, "length": len(loaded),
               "stutter_free": is_stutter_free(loaded),
               "strictly_monotone": is_strictly_monotone(loaded)}
    _emit(out, args.pretty)
    return OK


def _fuzz_one(engine: str, seed: int):
    """Compare one fuzzed case against the oracle; return a divergence or None."""
    rho = gen_word(seed)
    f = gen_formula(seed * 2654435761 % (2**31), _FUZZ_SIGMA, allow_beta=engine == "mx")
    read, *_ = _relations()[engine]
    diverged = differential(engine, read(rho), f)
    if diverged:
        diverged.update({"word": word_to_json(rho), "formula": to_text(f)})
    return diverged


def cmd_fuzz(args) -> int:
    if args.cases < 0:
        raise MtlsemError(f"--cases must be nonnegative, not {args.cases}")
    engines = ["pw", "itw", "its", "mx"] if args.engine == "all" else [args.engine]
    ran = 0
    for engine in engines:
        for case in range(args.cases):
            seed = args.seed + case
            diverged = _fuzz_one(engine, seed)
            ran += 1
            if diverged:
                diverged.update({"engine_name": engine, "seed": seed})
                _emit({"cases_run": ran, "divergence": diverged}, args.pretty)
                return INVARIANT
    _emit({"cases_run": ran, "divergence": None}, args.pretty)
    return OK


def cmd_paper(args) -> int:
    from . import gallery

    results = gallery.run_all()
    if args.name:
        results = [r for r in results if args.name in r.name]
        if not results:
            raise MtlsemError(f"no gallery check matches {args.name!r}")
    failed = 0
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        print(f"{mark}  {r.name}: {r.detail}")
        failed += 0 if r.passed else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return OK if failed == 0 else INVARIANT


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="mtlsem",
        description="Exact MTL evaluation over timed words: pointwise, "
                    "interval-based, and mixed semantics.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, word_input=True, formula=True):
        p.add_argument("--pretty", action="store_true", help="indented output")
        if formula:
            p.add_argument("--alphabet", help="comma-separated action symbols")
            p.add_argument("--formula", help="formula in concrete syntax")
            p.add_argument("--formula-file", help="file holding the formula")
        if word_input:
            p.add_argument("--word", required=True,
                           help="JSON file: timed word, lasso, or state sequence")
            p.add_argument("--allow-nonzero-start", action="store_true",
                           help="accept raw inputs that do not start at time 0")

    p = sub.add_parser("parse", help="echo the canonical form and metrics")
    common(p, word_input=False)
    p.add_argument("--beta", action="store_true", help="allow the position-zero atom")
    p.set_defaults(handler="cmd_parse")

    for name, oracle_flag in (("eval", False), ("oracle", True)):
        p = sub.add_parser(
            name, help="evaluate a formula" + (" with the brute-force oracle"
                                               if oracle_flag else ""))
        common(p)
        p.add_argument("--semantics", required=True, choices=["pw", "itw", "its", "mx"])
        p.add_argument("--position", type=int, help="event position (pw)")
        p.add_argument("--time", help="evaluation time (itw/its/mx)")
        p.add_argument("--pos", type=int, help="intra-timestamp position (mx)")
        p.set_defaults(handler="cmd_eval", via_oracle=oracle_flag)

    p = sub.add_parser("satset", help="dump per-subformula satisfaction sets")
    common(p)
    p.add_argument("--semantics", required=True, choices=["itw", "its", "mx"])
    p.set_defaults(handler="cmd_satset")

    p = sub.add_parser("compile", help="compile into the mixed semantics")
    common(p, word_input=False)
    p.add_argument("--target", required=True, choices=["pw2mx", "itw2mx"])
    p.set_defaults(handler="cmd_compile")

    p = sub.add_parser("encode", help="translate between the timed models")
    common(p, formula=False)
    p.add_argument("--to", required=True, choices=["compact", "tss", "word"])
    p.set_defaults(handler="cmd_encode")

    p = sub.add_parser("check", help="validate an input and report its classes")
    common(p, formula=False)
    p.set_defaults(handler="cmd_check")

    p = sub.add_parser("fuzz", help="differential-test the engines against the oracle")
    p.add_argument("--cases", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--engine", default="all", choices=["pw", "itw", "its", "mx", "all"])
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(handler="cmd_fuzz")

    p = sub.add_parser("paper", help="replay the bundled worked-example checks")
    p.add_argument("--all", action="store_true", help="run every check (default)")
    p.add_argument("--name", help="run only checks whose name contains this")
    p.set_defaults(handler="cmd_paper")

    return top


# argparse keeps no state between parse_args calls (each returns a fresh
# Namespace), so one parser serves every call of `main`.
_PARSER = build_parser()
_COMMANDS = next(a.choices for a in _PARSER._actions if a.dest == "command")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = _COMMANDS.get(argv[0]) if argv else None
    try:
        args = command.parse_args(argv[1:]) if command else _PARSER.parse_args(argv)
    except SystemExit as exc:
        return INPUT_ERROR if exc.code not in (0, None) else 0
    try:
        # looked up by name per call: a cmd_* rebound after import (a test double,
        # a tracing wrapper) is the one that runs
        return globals()[args.handler](args)
    except (MtlsemError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except Exception as exc:  # a crash is never a verdict: keep it off exit 1
        first = str(exc).splitlines()[0] if str(exc) else ""
        print(f"internal error: {type(exc).__name__}: {first}", file=sys.stderr)
        return INVARIANT


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
