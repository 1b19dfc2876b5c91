"""Tests of the benchmark itself, on small inputs.

    python -m pytest -q bench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import tracing  # noqa: E402
import words  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("family", words.FAMILIES)
def test_same_seed_gives_the_same_word_of_length_n(family):
    a = words.events(7, 300, family)
    assert a == words.events(7, 300, family)
    assert len(a) == 300
    assert a[0][1] == 0
    assert all(s <= t for (_, s), (_, t) in zip(a, a[1:]))
    assert a != words.events(8, 300, family)


def test_runs_family_is_almost_all_a():
    acts = [a for a, _ in words.events(1, 20000, "runs")]
    assert set(acts) == {"a", "c"}
    assert 0.001 < acts.count("c") / len(acts) < 0.004


def _run(name, tmp_path, trace=False):
    return harness.run(name, 3, 0.0, trace, tmp_path / "inputs", small=True)


@pytest.mark.parametrize("name", WORKLOADS)
def test_each_workload_reports_every_metric(name, tmp_path):
    plain = _run(name, tmp_path)
    assert plain["failed"] == 0, plain["failures"]
    assert {m["name"] for m in SPEC["end_to_end"]} == set(plain["metrics"])
    assert all(v > 0 for v in plain["metrics"].values())
    traced = _run(name, tmp_path, trace=True)
    assert traced["failed"] == 0, traced["failures"]
    assert {m["name"] for m in SPEC["per_layer"]} == set(traced["metrics"])


@pytest.mark.parametrize("name", WORKLOADS)
def test_span_coverage(name, tmp_path):
    """Every layer the workload exercises records calls in the traced run."""
    traced = _run(name, tmp_path, trace=True)
    assert traced["silent_layers"] == []


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_and_untraced_passes_give_identical_outputs(name, tmp_path):
    mt = harness.fresh_import()
    wl = WORKLOADS[name](mt, 5, tmp_path, small=True)
    plain = harness.run_pass(wl.requests)
    original = mt.sat_set_itw
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert mt.sat_set_itw is not original
        traced = harness.run_pass(wl.requests, tracer)
    finally:
        tracer.uninstall()
    assert mt.sat_set_itw is original
    assert plain.errors == traced.errors == [None] * len(wl.requests)
    assert plain.outputs == traced.outputs
    assert {s[4] for s in tracer.spans} == set(range(len(wl.requests)))


def _inject(monkeypatch, name, corrupt):
    build = WORKLOADS[name]

    def broken(mt, seed, tmp, small=False):
        wl = build(mt, seed, tmp, small)
        corrupt(mt)
        return wl
    monkeypatch.setitem(harness.WORKLOADS, name, broken)


def test_wrong_library_answer_raises_failed_share(monkeypatch, tmp_path):
    _inject(monkeypatch, "dense-long", lambda mt: setattr(
        mt, "sat_positions",
        lambda rho, f, right=mt.sat_positions: frozenset(range(len(rho))) - right(rho, f)))
    res = _run("dense-long", tmp_path)
    assert res["failed"] > 0
    assert all(msg.startswith("pw ") for msg in res["failures"])


def test_wrong_cli_verdict_raises_failed_share(monkeypatch, tmp_path):
    _inject(monkeypatch, "cli-requests", lambda mt: setattr(
        mt.cli, "eval_itw",
        lambda rho, t, f, right=mt.cli.eval_itw: not right(rho, t, f)))
    res = _run("cli-requests", tmp_path)
    assert res["failed"] > 0
    assert all(msg.startswith("eval itw") for msg in res["failures"])


def test_printed_units_match_the_spec():
    import run
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert run.unit(m["name"]) == m["unit"], m["name"]
