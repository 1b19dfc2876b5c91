"""Set-up, warm-up, checks, timed passes and the metrics of one workload run.

Load model: one process, one thread, closed loop; each request starts when
the previous one has returned.  A pass runs every request of the workload
once, in a fixed order.  The warm-up pass is untimed and is the one whose
outputs the references check; each timed pass must reproduce its outputs.
Times are reference seconds from the speed probe (see probe.py); the raw
perf_counter figures are kept alongside for the report.
"""

from __future__ import annotations

import gc
import importlib
import math
import resource
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import tracing
from probe import SpeedProbe
from workloads import WORKLOADS

RELATIONS = ("pw", "itw", "its", "mx")
SETUP_REPEATS = 5


@dataclass
class Pass:
    times: list    # per request, reference seconds
    raw: list      # per request, perf_counter seconds
    outputs: list
    errors: list

    @property
    def wall(self) -> float:
        return sum(self.times)


def fresh_import():
    """Import mtlsem (and its CLI) anew, so that set-up includes the import."""
    for name in [m for m in sys.modules if m == "mtlsem" or m.startswith("mtlsem.")]:
        del sys.modules[name]
    mt = importlib.import_module("mtlsem")
    importlib.import_module("mtlsem.cli")
    return mt


def run_pass(requests, tracer=None) -> Pass:
    spans, outputs, errors = [], [], []
    with SpeedProbe() as probe:
        for i, r in enumerate(requests):
            t0 = perf_counter()
            try:
                out, err = (tracer.request(i, r.call) if tracer else r.call()), None
            except Exception as exc:  # a failed request is counted; the loop goes on
                out, err = None, f"{type(exc).__name__}: {exc}"
            spans.append((t0, perf_counter()))
            outputs.append(out)
            errors.append(err)
    return Pass([probe.reference(a, b) for a, b in spans], [b - a for a, b in spans],
                outputs, errors)


def check_pass(requests, p: Pass) -> list:
    """Failure messages of the warm-up pass against the references."""
    outs = {r.label: out for r, out in zip(requests, p.outputs)}
    failures = []
    for r, out, err in zip(requests, p.outputs, p.errors):
        if err is not None:
            failures.append(f"{r.label}: raised {err}")
            continue
        if r.check is None:
            continue
        try:
            msg = r.check(out, outs)
        except Exception as exc:  # a malformed output fails its check
            msg = f"check raised {type(exc).__name__}: {exc}"
        if msg:
            failures.append(f"{r.label}: {msg}")
    return failures


def repeat_failures(requests, reference: Pass, p: Pass) -> list:
    """Requests of a later pass that raised or changed their output."""
    return [f"{r.label}: {err or 'output differs from the checked pass'}"
            for r, ref_out, out, err in zip(requests, reference.outputs, p.outputs, p.errors)
            if err is not None or out != ref_out]


def percentile(sorted_samples, q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_samples[max(0, math.ceil(q * len(sorted_samples)) - 1)]


def end_to_end(requests, passes, setup_times) -> dict:
    m = {"setup_s": statistics.median(setup_times),
         "wall_s": statistics.median(p.wall for p in passes)}
    for rel in RELATIONS:
        idx = [i for i, r in enumerate(requests) if r.relation == rel]
        if idx:
            events = sum(requests[i].events for i in idx)
            m[f"{rel}_events_per_s"] = statistics.median(
                events / sum(p.times[i] for i in idx) for p in passes)
    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return m


def report_only(name, requests, passes) -> dict:
    """Workload-specific figures printed with the result but not in its metrics."""
    samples = sorted(t for p in passes for t in p.times)
    m = {"request_p50_ms": 1000 * percentile(samples, 0.50),
         "request_p98_ms": 1000 * percentile(samples, 0.98),
         "request_samples": len(samples),
         "raw_wall_s": statistics.median(sum(p.raw) for p in passes)}
    if name == "fuzz":
        m["fuzz_cases_per_s"] = statistics.median(len(requests) / p.wall for p in passes)
    idx = [i for i, r in enumerate(requests) if r.lasso]
    if idx:
        m["lasso_verdicts_per_s"] = statistics.median(
            len(idx) / sum(p.times[i] for i in idx) for p in passes)
    return m


def run(name: str, seed: int, seconds: float, trace: bool, tmp: Path,
        small: bool = False, spans_path: Path | None = None) -> dict:
    """One run of a workload; returns metrics, counts and failure messages."""
    build = WORKLOADS[name]
    setup_times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        with SpeedProbe() as probe:
            t0 = perf_counter()
            mt = fresh_import()
            wl = build(mt, seed, tmp, small)
            t1 = perf_counter()
        setup_times.append(probe.reference(t0, t1))
    reqs = wl.requests

    gc.collect()
    warm = run_pass(reqs)
    failures = check_pass(reqs, warm)
    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        gc.collect()
        p = run_pass(reqs)
        failures += repeat_failures(reqs, warm, p)
        p.outputs = None  # so that later passes collect garbage over the same heap
        passes.append(p)

    executed = 1 + len(passes) + trace
    result = {"attempted": len(reqs) * executed, "passes": len(passes), "requests": len(reqs)}
    if not trace:
        result["metrics"] = end_to_end(reqs, passes, setup_times)
        result["report"] = report_only(name, reqs, passes)
    else:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            gc.collect()
            traced = run_pass(reqs, tracer)
        finally:
            tracer.uninstall()
        failures += [f"traced pass: {b}" for b in repeat_failures(reqs, warm, traced)]
        factors = [t / r for t, r in zip(traced.times, traced.raw)]
        m = tracing.layer_metrics(tracer, traced.outputs, factors)
        med = [statistics.median(p.times[i] for p in passes) for i in range(len(reqs))]
        m["interval_based.scale_2x"] = tracing.scale_2x(reqs, med, "itw")
        m["mixed.scale_2x"] = tracing.scale_2x(reqs, med, "mx")
        m["pointwise.scale_2x"] = tracing.scale_2x(reqs, med, "pw")
        m["trace.overhead"] = traced.wall / statistics.median(p.wall for p in passes)
        result["metrics"] = m
        result["silent_layers"] = [layer for layer in wl.layers if not m[f"{layer}.calls"]]
        if spans_path is not None:
            tracer.write(spans_path, {"workload": name, "seed": seed,
                                      "labels": [r.label for r in reqs]})
    result["failed"] = len(failures)
    result["failures"] = failures
    return result
