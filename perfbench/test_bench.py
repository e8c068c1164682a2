"""Self-checks for the benchmark, on small rounds.

    python3 -m pytest perfbench/test_bench.py -q
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import shutil
import subprocess
import sys
from math import isqrt
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from tracer import BINDING_KEYS, BINDINGS, Tracer, two_squares_steps  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def scratch(request) -> Path:
    """An empty directory under the checkout's ignored output directory."""
    path = run.TRACE_DIR / "test" / request.node.name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path

# Reduced rounds have other outputs than the full ones, so the tests use
# seeds that digests.json does not record.
SEED = 100_000

SMALL = {
    "represent-ceiling": lambda seed: run.RepresentCeiling(SEED + seed, 2, population=40),
    "verify-range-constructive": lambda seed: run.VerifyRangeConstructive(
        SEED + seed, 2, block=64, blocks=2
    ),
    "survey-oracle": lambda seed: run.SurveyOracle(SEED + seed, 2, block=4, blocks=1),
    "negative-control": lambda seed: run.NegativeControl(SEED + seed, 2, block=64, blocks=2),
}

COMPUTED_COUNTS = (
    "three_squares.calls",
    "three_squares.x_candidates",
    "three_squares.two_squares_calls",
    "three_squares.inner_steps",
    "jacobi.calls",
    "oracle.exists.calls",
    "arith.classifier.calls",
)


def _loop_steps(m: int) -> tuple[int, tuple[int, int] | None]:
    """The ``a`` loop of two_squares, counted by running it."""
    a = isqrt(m)
    steps = 0
    while 2 * a * a >= m:
        steps += 1
        b2 = m - a * a
        b = isqrt(b2)
        if b * b == b2:
            return steps, (a, b)
        a -= 1
    return steps, None


def test_two_squares_steps_match_the_loop():
    from mixedsums.three_squares import two_squares

    for m in [*range(3000), *range(10**12, 10**12 + 300)]:
        steps, pair = _loop_steps(m)
        assert two_squares(m) == pair
        assert two_squares_steps(m, pair) == steps, m


def test_workload_names_match_the_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)
    assert sorted(SMALL) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_wrappers_see_the_predicted_calls(name):
    workload = SMALL[name](0)
    originals = [getattr(importlib.import_module(m), a) for m, a, _ in BINDINGS]
    tracer = Tracer()
    with tracer:
        for req in workload.round():
            workload.traced_call(req, tracer)
    for key in BINDING_KEYS:
        assert (tracer.calls[key] > 0) == (key in workload.exercises), key
    assert [getattr(importlib.import_module(m), a) for m, a, _ in BINDINGS] == originals


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_run_reports_every_layer_metric_and_repeats_counts(name, scratch, monkeypatch):
    monkeypatch.setattr(run, "TRACE_DIR", scratch)
    runs = []
    for _ in range(2):
        tally = run.Tally()
        runs.append(run.traced(SMALL[name](3), tally, lambda line: None))
        assert tally.failed == 0, tally.notes
    first, second = runs
    assert sorted(first) == sorted(m["name"] for m in SPEC["per_layer"])
    for key in COMPUTED_COUNTS:
        assert first[key] == second[key], key
    assert (scratch / f"{name}.spans.jsonl").stat().st_size > 0
    if name in ("survey-oracle", "negative-control"):
        assert first["three_squares.calls"][0] == 0
    else:
        assert first["three_squares.calls"][0] > 0


@pytest.mark.parametrize("name", sorted(SMALL))
def test_end_to_end_reports_every_metric(name):
    tally = run.Tally()
    metrics = run.end_to_end(SMALL[name](5), 0.01, tally, lambda line: None)
    assert tally.failed == 0, tally.notes
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["end_to_end"])
    assert all(value > 0 for value, _ in metrics.values())


def test_round_zero_matches_recorded_digest():
    tally = run.Tally()
    workload = run.VerifyRangeConstructive(0, 1)
    _, _, digest = run.serve_round(workload, lambda r: workload.call(r, 1), tally)
    assert run.check_digest(workload, digest, tally) == "matches digests.json"
    assert tally.failed == 0


def test_checks_reject_wrong_outputs():
    from mixedsums import Certificate

    workload = SMALL["represent-ceiling"](0)
    form, n = req = workload.round()[0]
    cert = workload.call(req, 1)
    with pytest.raises(run.CheckFailed):
        workload.check(req, Certificate(form, n, cert.x + 1, cert.y, cert.z))

    control = SMALL["negative-control"](0)
    req = control.round()[0]
    (report,) = control.call(req, 1)
    short = dataclasses.replace(report, counterexamples=report.counterexamples[1:])
    with pytest.raises(run.CheckFailed):
        control.check(req, [short])


def test_fails_without_the_library(scratch):
    shutil.copytree(HERE, scratch / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", scratch)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "survey-oracle", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=scratch, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
