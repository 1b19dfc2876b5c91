"""The four workloads: seeded requests plus the reference check of each.

A request is one closed-loop call into the package.  Its `call` looks every
function up on the package at call time, so the traced run sees the wrapped
bindings.  Its `check` runs outside the timed region on the warm-up pass's
output and returns a failure message or None; it may read the outputs of
other requests of the same pass by label.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import references as ref
import words

ABC = "a,b,c"
WIDE = ",".join(words.WIDE)
SHAPES = ("F[0,2] a", "G(a -> F[1,3] b)", "(a | b) U c")
NESTED = "F[0,2](a & F[1,2] b)"
RESPONSE = "G(a -> F[1,3] b)"


@dataclass
class Request:
    label: str
    call: Callable[[], object]
    check: Callable[[object, dict], str | None] | None = None
    relation: str | None = None  # pw / itw / its / mx: counted in that rate
    events: int = 0              # input events, for the per-relation rates
    group: str | None = None     # same inputs but size; sizes n and 2n give scale_2x
    lasso: bool = False


@dataclass
class Workload:
    requests: list
    layers: tuple  # layers whose calls the traced run must see


def cli_call(mt, argv):
    """(exit code, stdout) of one in-process `mtlsem` command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = mt.cli.main(argv)
    return rc, out.getvalue()


def _rng(seed, label) -> random.Random:
    return random.Random(f"check/{seed}/{label}")


def _word(mt, seed, n, family="uniform", copy=0):
    return mt.validate_word(words.events(f"{seed}.{copy}" if copy else seed, n, family))


# ---------------------------------------------------------------------------
# dense-long: interval-based evaluation on long words

DENSE_SIZES = {"itw": (300, 600), "its": 300, "pw": (2000, 4000), "mx": 64}
DENSE_SMALL = {"itw": (20, 40), "its": 20, "pw": (40, 80), "mx": 12}
# dense requests run on this many words of each size, so that the figures
# average over word contents instead of following one word
DENSE_WORDS = {"itw": 2, "its": 3, "mx": 4}


def dense_long(mt, seed: int, tmp: Path, small: bool = False) -> Workload:
    sizes = DENSE_SMALL if small else DENSE_SIZES
    sigma = mt.alphabet(ABC)
    fs = {s: mt.parse(s, sigma) for s in SHAPES + ("a U c",)}
    reqs = []
    for n in sizes["pw"]:
        for fam in ("uniform", "runs"):
            w = _word(mt, seed, n, fam)
            for s, f in fs.items():
                label = f"pw {fam} n={n} {s}"
                reqs.append(Request(
                    label, lambda w=w, f=f: mt.sat_positions(w, f),
                    lambda out, _o, w=w, f=f, r=_rng(seed, label): ref.check_pw(mt, r, w, f, out, 2),
                    "pw", n, f"pw {fam} {s}"))
    for n in sizes["itw"]:
        for copy in range(DENSE_WORDS["itw"]):
            w = _word(mt, seed, n, copy=copy)
            for s in SHAPES:
                f = fs[s]
                label = f"itw n={n} #{copy} {s}"
                reqs.append(Request(
                    label, lambda w=w, f=f: mt.sat_set_itw(w, f),
                    lambda out, _o, w=w, f=f, r=_rng(seed, label):
                        ref.check_itw(mt, r, w, f, out, 2),
                    "itw", n, f"itw #{copy} {s}"))
    n = sizes["its"]
    for copy in range(DENSE_WORDS["its"]):
        w = _word(mt, seed, n, copy=copy)
        for s in SHAPES:
            f = fs[s]
            reqs.append(Request(
                f"its n={n} #{copy} {s}", lambda w=w, f=f: mt.sat_set_its(mt.word_to_tss(w), f),
                lambda out, _o, w=w, f=f: None if out == mt.sat_set_itw(w, f)
                else "sat_set_its(word_to_tss(w)) differs from sat_set_itw(w)",
                "its", n, f"its #{copy} {s}"))
    n = sizes["mx"]
    for copy in range(DENSE_WORDS["mx"]):
        w = _word(mt, seed, n, copy=copy)
        for s in SHAPES:
            f = fs[s]
            label = f"mx n={n} #{copy} {s}"
            reqs.append(Request(
                label, lambda w=w, f=f: mt.sat_set_mx(mt.compact(w), f),
                lambda out, _o, w=w, f=f, r=_rng(seed, label):
                    ref.check_mx(mt, r, mt.compact(w), f, out, 2),
                "mx", n, f"mx #{copy} {s}"))
    return Workload(reqs, ("formulas", "structures", "encodings", "intervals",
                           "pointwise", "interval_based", "mixed"))


# ---------------------------------------------------------------------------
# mixed-compiled: the mixed relation, with and without the compilers

MIXED_SIZES = {"mx": (64, 128), "itw": (192, 384), "pw": (2048, 4096)}
NATIVE_WORDS = 2  # words per size for the native itw and its controls
MIXED_SMALL = {"mx": (6, 12), "itw": (12, 24), "pw": (24, 48)}


def mixed_compiled(mt, seed: int, tmp: Path, small: bool = False) -> Workload:
    sizes = MIXED_SMALL if small else MIXED_SIZES
    top = sizes["mx"][-1]
    sigma = mt.alphabet(ABC)
    fs = {s: mt.parse(s, sigma) for s in SHAPES[:2] + (NESTED,)}
    g = fs[RESPONSE]
    reqs = []
    for n in sizes["mx"]:
        w = _word(mt, seed, n)
        for s in SHAPES[:2] + ((NESTED,) if n == top else ()):
            f = fs[s]
            label = f"mx n={n} {s}"
            reqs.append(Request(
                label, lambda w=w, f=f: mt.sat_set_mx(mt.compact(w), f),
                lambda out, _o, w=w, f=f, r=_rng(seed, label):
                    ref.check_mx(mt, r, mt.compact(w), f, out, 2),
                "mx", n, f"mx {s}"))
    # the compiled sources read natively, at sizes where each relation costs
    # about one mx request
    for n_pw, n_itw in zip(sizes["pw"], sizes["itw"]):
        for s in SHAPES[:2]:
            f = fs[s]
            w, n = _word(mt, seed, n_pw), n_pw
            label = f"pw n={n} {s}"
            reqs.append(Request(
                label, lambda w=w, f=f: mt.sat_positions(w, f),
                lambda out, _o, w=w, f=f, r=_rng(seed, label): ref.check_pw(mt, r, w, f, out, 3),
                "pw", n, f"pw {s}"))
            n = n_itw
            for copy in range(NATIVE_WORDS):
                w = _word(mt, seed, n, copy=copy)
                label = f"itw n={n} #{copy} {s}"
                reqs.append(Request(
                    label, lambda w=w, f=f: mt.sat_set_itw(w, f),
                    lambda out, _o, w=w, f=f, r=_rng(seed, label):
                        ref.check_itw(mt, r, w, f, out, 2),
                    "itw", n, f"itw #{copy} {s}"))
                twin = label
                reqs.append(Request(
                    f"its n={n} #{copy} {s}", lambda w=w, f=f: mt.sat_set_its(mt.word_to_tss(w), f),
                    lambda out, outs, twin=twin: None if out == outs[twin]
                    else "sat_set_its(word_to_tss(w)) differs from sat_set_itw(w)",
                    "its", n, f"its #{copy} {s}"))
    w = _word(mt, seed, top)
    reqs.append(Request(
        f"mx n={top} compile_pw({RESPONSE})",
        lambda w=w: mt.sat_set_mx(mt.compact(w), mt.compile_pw(g, sigma)),
        lambda out, _o, w=w: ref.check_compiled_pw(mt.compact(w), mt.sat_positions(w, g), out),
        "mx", top))
    reqs.append(Request(
        f"mx n={top} compile_itw({RESPONSE})",
        lambda w=w: mt.sat_set_mx(mt.compact(w), mt.compile_itw(g, sigma)),
        lambda out, _o, w=w: ref.check_compiled_itw(mt.compact(w), mt.sat_set_itw(w, g), out),
        "mx", top))
    return Workload(reqs, ("formulas", "structures", "encodings", "intervals", "pointwise",
                           "interval_based", "mixed", "compilers"))


# ---------------------------------------------------------------------------
# fuzz: the differential fuzzer through the CLI, one case per call

FUZZ_ENGINES = ("pw", "itw", "its", "mx")
FUZZ_CASES = 75
FUZZ_SMALL = 3
FUZZ_OK = {"cases_run": 1, "divergence": None}


def fuzz(mt, seed: int, tmp: Path, small: bool = False) -> Workload:
    """A fixed corpus, fuzz seeds 0..cases-1 of each engine, in a seeded order.

    Per-case cost is heavy-tailed (one case can cost 100 times the median),
    so a seed-dependent range of 75 cases per engine moves the pass time by
    about 20% between benchmark seeds.  The seed therefore only interleaves
    the engines.
    """
    cases = FUZZ_SMALL if small else FUZZ_CASES
    reqs = []
    for e in FUZZ_ENGINES:
        for s in range(cases):
            argv = ["fuzz", "--cases", "1", "--seed", str(s), "--engine", e]
            reqs.append(Request(
                f"fuzz {e} seed={s}", lambda argv=argv: cli_call(mt, argv),
                lambda out, _o: None if out[0] == 0 and ref.same_json(out[1], FUZZ_OK)
                else f"fuzz exited {out[0]}: {out[1][:200]}",
                e, len(mt.gen_word(s))))
    random.Random(f"fuzz/{seed}").shuffle(reqs)
    return Workload(reqs, ("cli", "oracle", "formulas", "structures", "encodings", "intervals",
                           "pointwise", "interval_based", "mixed"))


# ---------------------------------------------------------------------------
# cli-requests: every subcommand, in process, with its fixed per-call costs

EVAL_FORMULAS = ("F[0,2] a", "G[0,4](a -> F[1,3] b)", "(a | b) U[0,5] c", NESTED,
                 RESPONSE, "a U c", "!F[0,1] c", "X[0,2] b")
LASSO_BOUNDED = ("F[0,2] a", "G[0,3](a -> F[0,2] b)", "X[0,2] b", "(a | b) U[0,4] c")
LASSO_UNBOUNDED = ("F c", "G F a", "G(a -> F b)", "a U c")
PARSE_FORMULAS = {ABC: ("F[0,2] a", RESPONSE, "(a | b) U(1,3] c", "X[0,1/2] !sigma",
                        "true U[1,2] (a & beta)", "G(a -> F[0,1) (b | noact))"),
                  WIDE: ("F[0,2] s3", "G(s1 -> F[1,3] s7)", "sigma U[0,2] s19",
                         "F(s2 & X[0,1] s5)", "!noact U s4", "true U[1,2] (s0 | s9)")}
CLI_COUNTS = {"eval": 16, "eval_pw": 40, "eval_its": 10, "eval_mx": 32, "satset": 8, "lasso": 96,
              "per_alphabet": 6}
CLI_SMALL = {"eval": 2, "eval_pw": 2, "eval_its": 1, "eval_mx": 2, "satset": 1, "lasso": 6,
             "per_alphabet": 1}
# request m of a kind takes size m % 5 and formula m % 8 of these: the mix of
# sizes and formulas is the same for every seed, only the word contents vary
CLI_SIZES = {"dense": (20, 65, 110, 155, 200), "mx": (5, 16, 27, 38, 50)}
CLI_SIZES_SMALL = {"dense": (12, 24), "mx": (5, 10)}


def _lasso_json(l) -> dict:
    return {"events": [[a, str(t)] for a, t in l.prefix.events],
            "period": {"actions": list(l.period_actions),
                       "offsets": [str(o) for o in l.period_offsets],
                       "duration": str(l.period_duration)}}


def cli_requests(mt, seed: int, tmp: Path, small: bool = False) -> Workload:
    counts = CLI_SMALL if small else CLI_COUNTS
    sizes = CLI_SIZES_SMALL if small else CLI_SIZES
    rng = random.Random(f"cli/{seed}")
    tmp.mkdir(parents=True, exist_ok=True)
    reqs = []

    def write(name, obj) -> str:
        path = tmp / f"{name}.json"
        path.write_text(json.dumps(obj))
        return str(path)

    def finite(i, m, kind="dense", family="uniform"):
        grid = sizes[kind]
        evs = words.events(seed * 1000 + i, grid[m % len(grid)], family)
        return evs, write(f"w{i}-{family}", ref.word_json(evs))

    def oracle_agrees(argv):
        # its is checked against the itw oracle on the same word: the identity
        # itw(w) = its(word_to_tss(w)) spares the its oracle, seconds per point
        oracle_argv = ["oracle"] + [("itw" if a == "its" else a) for a in argv[1:]]

        def check(out, _o):
            want = cli_call(mt, oracle_argv)
            if out[0] not in (0, 1) or out[0] != want[0]:
                return f"exit {out[0]} where the oracle gives {want[0]}: {' '.join(argv)}"
            return None
        return check

    def time_arg(evs):
        times = [t for _, t in evs]
        return ref.dense_samples(rng, times, 2)[rng.randrange(2)]

    sigma = mt.alphabet(ABC)
    i = 0
    for sem in ("pw", "itw", "its", "mx"):
        count = counts.get(f"eval_{sem}", counts["eval"])
        for m in range(count):
            i += 1
            evs, path = finite(i, m, "mx" if sem == "mx" else "dense")
            f = EVAL_FORMULAS[m % len(EVAL_FORMULAS)]
            argv = ["eval", "--semantics", sem, "--word", path, "--formula", f, "--alphabet", ABC]
            if sem == "pw":
                argv += ["--position", str(rng.randrange(len(evs)))]
            else:
                argv += ["--time", str(time_arg(evs))]
            if sem == "mx" and argv[-1] in {str(t) for _, t in evs}:
                t = Fraction(argv[-1])
                argv += ["--pos", str(rng.randrange(sum(1 for _, s in evs if s == t)))]
            reqs.append(Request(f"eval {sem} #{i}", lambda argv=argv: cli_call(mt, argv),
                                oracle_agrees(argv), sem, len(evs)))

    def itw_root_check(path_evs, f_text, label):
        def check(out, _o):
            rc, text = out
            if rc != 0:
                return f"satset exited {rc}"
            root = json.loads(text)["sets"][-1]["parts"]
            parts = [mt.parse_interval(p) for p in root]
            got = mt.IntervalSet(tuple(parts))
            rho = mt.validate_word(path_evs)
            return ref.check_itw(mt, _rng(seed, label), rho, mt.parse(f_text, sigma), got, 2)
        return check

    def mx_root_check(path_evs, f_text, label):
        def check(out, _o):
            rc, text = out
            if rc != 0:
                return f"satset exited {rc}"
            root = json.loads(text)["sets"][-1]
            got = mt.MixedSet(frozenset(tuple(p) for p in root["points"]),
                              mt.IntervalSet(tuple(mt.parse_interval(p) for p in root["gaps"])))
            cw = mt.compact(mt.validate_word(path_evs))
            f = mt.parse(f_text, sigma, allow_beta=True)
            return ref.check_mx(mt, _rng(seed, label), cw, f, got, 2)
        return check

    for m in range(counts["satset"]):
        i += 1
        evs, path = finite(i, m)
        f = EVAL_FORMULAS[m % len(EVAL_FORMULAS)]
        label = f"satset itw #{i}"
        argv = ["satset", "--semantics", "itw", "--word", path, "--formula", f, "--alphabet", ABC]
        reqs.append(Request(label, lambda argv=argv: cli_call(mt, argv),
                            itw_root_check(evs, f, label), "itw", len(evs)))
        argv = ["satset", "--semantics", "its", "--word", path, "--formula", f, "--alphabet", ABC]
        reqs.append(Request(
            f"satset its #{i}", lambda argv=argv: cli_call(mt, argv),
            lambda out, outs, twin=label: None
            if out[0] == 0 and json.loads(out[1])["sets"] == json.loads(outs[twin][1])["sets"]
            else "its satset differs from itw satset", "its", len(evs)))
        i += 1
        evs, path = finite(i, m, "mx")
        label = f"satset mx #{i}"
        argv = ["satset", "--semantics", "mx", "--word", path, "--formula", f, "--alphabet", ABC]
        reqs.append(Request(label, lambda argv=argv: cli_call(mt, argv),
                            mx_root_check(evs, f, label), "mx", len(evs)))

    def lasso_check(l, f_text, sem):
        f = mt.parse(f_text, sigma)
        h = mt.horizon(f)

        def check(out, _o):
            rc, text = out
            if rc not in (0, 1, 2) or (sem == "pw" and rc == 2):
                return f"lasso eval exited {rc}"
            if json.loads(text)["verdict"] != ("true", "false", "unknown")[rc]:
                return "verdict text disagrees with the exit code"
            if h == float("inf"):
                return None
            cut = max(mt.duration(l.prefix), h) + l.period_duration
            rho = mt.unroll(l, cut)
            truth = {"pw": lambda: mt.oracle_eval_pw(rho, 0, f),
                     "itw": lambda: mt.oracle_eval_itw(rho, 0, f),
                     "mx": lambda: mt.oracle_eval_mx(mt.compact(rho), 0, 0, f)}[sem]()
            if rc != (0 if truth else 1):
                return f"lasso verdict exit {rc} where the unrolled oracle gives {truth}"
            return None
        return check

    for m in range(counts["lasso"]):
        sem = ("pw", "itw", "mx")[m % 3]
        l = mt.gen_lasso(seed * 1000 + m, max_prefix=30)
        path = write(f"lasso{m}", _lasso_json(l))
        f = (LASSO_BOUNDED if m % 2 else LASSO_UNBOUNDED)[m // 2 % 4]
        argv = ["eval", "--semantics", sem, "--word", path, "--formula", f, "--alphabet", ABC]
        reqs.append(Request(f"lasso {sem} #{m}", lambda argv=argv: cli_call(mt, argv),
                            lasso_check(l, f, sem), lasso=True))

    for sig, family in ((ABC, "uniform"), (WIDE, "wide")):
        sig_a = mt.alphabet(sig)
        for f in PARSE_FORMULAS[sig][:counts["per_alphabet"]]:
            argv = ["parse", "--alphabet", sig, "--formula", f, "--beta"]

            def parse_check(out, _o, f=f, sig_a=sig_a):
                got = json.loads(out[1])
                same = (mt.parse(got["canonical"], sig_a, allow_beta=True)
                        == mt.parse(f, sig_a, allow_beta=True))
                ok = (out[0] == 0 and same and set(got["atoms"]) <= set(sig_a.symbols)
                      and got["bounded"] == (got["horizon"] != "inf"))
                return None if ok else f"parse output wrong for {f}"
            reqs.append(Request(f"parse {f}", lambda argv=argv: cli_call(mt, argv), parse_check))
        tiny = words.events(seed, 3, family)
        for f in PARSE_FORMULAS[sig][:counts["per_alphabet"]]:
            if "beta" in f:
                continue
            for target in ("pw2mx", "itw2mx"):
                argv = ["compile", "--target", target, "--alphabet", sig, "--formula", f]
                reqs.append(Request(f"compile {target} {f}", lambda argv=argv: cli_call(mt, argv),
                                    _compile_check(mt, tiny, f, sig_a, target,
                                                   _rng(seed, f"{target} {f}"))))
        for m in range(counts["per_alphabet"]):
            i += 1
            evs, path = finite(i, m, family=family)
            reqs.append(Request(
                f"check #{i}", lambda path=path: cli_call(mt, ["check", "--word", path]),
                lambda out, _o, evs=evs: None if out[0] == 0 and ref.same_json(out[1], ref.check_json(evs))
                else "check output wrong"))
            to = ("word", "compact", "tss")[m % 3]
            expect = {"word": ref.word_json, "compact": ref.compact_json, "tss": ref.tss_json}[to](evs)
            reqs.append(Request(
                f"encode {to} #{i}",
                lambda path=path, to=to: cli_call(mt, ["encode", "--word", path, "--to", to]),
                lambda out, _o, expect=expect: None if out[0] == 0 and ref.same_json(out[1], expect)
                else "encode output wrong"))
    return Workload(reqs, ("cli", "formulas", "structures", "encodings", "intervals", "pointwise",
                           "interval_based", "mixed", "compilers"))


def _compile_check(mt, tiny_events, f_text, sigma, target, rng, k=1):
    """The compiled formula agrees with its source on a tiny word, by the oracles,
    at k seeded grid points (offset 0 only for itw2mx)."""
    rho = mt.validate_word(tiny_events)
    cw = mt.compact(rho)
    src = mt.parse(f_text, sigma)
    grid = [(pos, t, j) for pos, (t, j) in enumerate(
        (t, j) for acts, t in cw.blocks for j in range(len(acts)))
        if target == "pw2mx" or j == 0]
    points = rng.sample(grid, min(k, len(grid)))

    def check(out, _o):
        if out[0] != 0:
            return f"compile exited {out[0]}"
        compiled = mt.parse(json.loads(out[1])["compiled"], sigma, allow_beta=True)
        for pos, t, j in points:
            want = (mt.oracle_eval_pw(rho, pos, src) if target == "pw2mx"
                    else mt.oracle_eval_itw(rho, t, src))
            if mt.oracle_eval_mx(cw, t, j, compiled) != want:
                return f"{target} of {f_text} disagrees with its source at ({t}, {j})"
        return None
    return check


WORKLOADS = {
    "dense-long": dense_long,
    "mixed-compiled": mixed_compiled,
    "fuzz": fuzz,
    "cli-requests": cli_requests,
}
