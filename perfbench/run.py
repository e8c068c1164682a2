#!/usr/bin/env python3
"""Benchmark for mixedsums: four closed-loop workloads over the library's
public functions, with every output checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the library is imported from ``src/`` next to this
directory.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it, each starting with ``#``, describe the run (environment, sample
counts, error rate, output digest).

``--trace 0`` measures the end-to-end metrics.  One client sends requests
back to back (a closed loop) in rounds: a round is a fixed list of requests
made from the seed, and another round starts only while the previous one's
duration still fits in ``--seconds``, so a run always measures whole rounds.
The set-up time is then taken from fresh interpreters running the
workload's own CLI command on a one-value input.

``--trace 1`` measures the per-layer metrics on one round.  Each request
is served untraced and then traced (see tracer.py), both with ``jobs=1``;
the range workloads then serve the round again untraced with
``jobs=min(nproc, units)`` for the pool figures.  The spans are written to
``.bench_out/<workload>.spans.jsonl``.

Every certificate is re-evaluated by this file's own copy of the five
forms, every report is checked against counts and exclusion sets computed
here, and the sha256 of round 0's canonical output (certificates in
``Certificate.to_json`` form, reports as the CLI's ``--json`` with
``wall_ms`` zeroed) must match ``digests.json`` for the seeds listed there.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
TRACE_DIR = ROOT / ".bench_out"
SETUP_RUNS = 7
IMPORT_RUNS = 5

# A shared 2-core virtual machine changed speed by up to a quarter within
# tens of seconds: a fixed pure-Python loop timed once a second for a minute
# ran 111 to 173 times per second, and CPU time tracked wall time throughout.  No statistic taken within one run removes a slow
# spell as long as the run, so the end-to-end times are scaled to a fixed
# machine speed.  The reference loop is timed between requests, at most
# SLICE_S apart, and each time is multiplied by REFERENCE_S over the median
# of the loop's times taken within WINDOW_S of it.  On 2 cores this cut the
# run-to-run spread of negative-control's throughput from 0.16 to 0.05 of
# its median.  The '#' lines give the loop times measured.
REFERENCE_LOOPS = 60_000
REFERENCE_S = 0.005
SLICE_S = 0.25
WINDOW_S = 1.0


def _tri(i: int) -> int:
    return i * (i + 1) // 2


# The five forms as the paper states them, kept apart from forms.evaluate.
FORM_VALUE = {
    "x2+3y2+t": lambda x, y, z: x * x + 3 * y * y + _tri(z),
    "x2+3t+t": lambda x, y, z: x * x + 3 * _tri(y) + _tri(z),
    "x2+6t+t": lambda x, y, z: x * x + 6 * _tri(y) + _tri(z),
    "3x2+2t+t": lambda x, y, z: 3 * x * x + 2 * _tri(y) + _tri(z),
    "4x2+2t+t": lambda x, y, z: 4 * x * x + 2 * _tri(y) + _tri(z),
}


def three_square_excluded(n: int) -> bool:
    """n has the shape 4^k(8l+7), i.e. is not a sum of three squares."""
    if n == 0:
        return False
    while n % 4 == 0:
        n //= 4
    return n % 8 == 7


class CheckFailed(Exception):
    """A library output disagreed with the benchmark's own check."""


def report_json(reports) -> str:
    """Reports as the CLI's ``--json`` prints them, wall time zeroed."""
    return json.dumps(
        [
            {
                "entry": r.entry.entry_id,
                "status": r.entry.status,
                "lo": r.lo,
                "hi": r.hi,
                "verified": r.verified_count,
                "counterexamples": list(r.counterexamples),
                "mode": r.mode,
                "wall_ms": 0,
            }
            for r in reports
        ],
        separators=(",", ":"),
    )


# ── workloads ──────────────────────────────────────────────────────────────


class Workload:
    """A seeded round of requests, the library call serving one, and its check.

    ``exercises`` names the tracer bindings the workload must call; every
    other binding must see no call in the traced run.
    """

    name = ""
    exercises: frozenset[str] = frozenset()

    def __init__(self, seed: int, nproc: int) -> None:
        self.seed = seed
        self.nproc = nproc
        self.rng = random.Random(f"{self.name}:{seed}")
        self.requests: list = []

    def round(self) -> list:
        return self.requests

    def call(self, req, jobs: int):
        raise NotImplementedError

    def traced_call(self, req, tracer):
        return tracer.request(self.name, self.call, req, 1)

    def check(self, req, result) -> tuple[int, str]:
        """Raise CheckFailed, or return (work units, canonical output)."""
        raise NotImplementedError

    def pool_units(self, req) -> int:
        """Work units the scan engine would hand to its pool (0: no pool)."""
        return 0

    def jobs(self, req) -> int:
        return max(1, min(self.nproc, self.pool_units(req)))

    def cli(self) -> tuple[list[str], int, str]:
        """A one-value CLI invocation, its exit code and its stdout."""
        raise NotImplementedError


class RepresentCeiling(Workload):
    """One certificate per request near the 2^55 ceiling.

    The population of requests is fixed: n log-uniform by octave over
    [2^30, 2^55), forms cycling.  The seed orders it.  Search cost is
    number-theoretic and heavy-tailed (p99/p50 near 150), so freshly drawn
    inputs would move p99 by about a tenth from one seed to the next; a
    fixed population keeps every run measuring the same requests.
    """

    name = "represent-ceiling"
    exercises = frozenset(
        {
            "mixedsums.forms.three_squares",
            "mixedsums.forms.align_mod3",
            "mixedsums.forms.jacobi_transform",
            "mixedsums.three_squares.two_squares",
            "mixedsums.three_squares.is_three_square_feasible",
        }
    )

    def __init__(self, seed: int, nproc: int, population: int = 1024) -> None:
        super().__init__(seed, nproc)
        from mixedsums import MixedForm, represent

        self.represent = represent
        forms = list(MixedForm)
        pop_rng = random.Random(self.name)
        for i in range(population):
            octave = pop_rng.randrange(31, 56)
            n = pop_rng.randrange(1 << (octave - 1), 1 << octave)
            self.requests.append((forms[i % len(forms)], n))
        self.rng.shuffle(self.requests)

    def call(self, req, jobs: int):
        return self.represent(*req)

    def traced_call(self, req, tracer):
        return tracer.request(self.name, tracer.wrap("forms.represent", self.represent), *req)

    def check(self, req, cert) -> tuple[int, str]:
        form, n = req
        if cert.form is not form or cert.n != n:
            raise CheckFailed(f"asked {form.value} n={n}, got {cert.to_json()}")
        if FORM_VALUE[form.value](cert.x, cert.y, cert.z) != n:
            raise CheckFailed(f"certificate does not evaluate to n: {cert.to_json()}")
        return 1, cert.to_json()

    def cli(self) -> tuple[list[str], int, str]:
        form, n = self.requests[0]
        n %= 10**6
        return ["represent", form.value, str(n), "--json"], 0, self.represent(form, n).to_json()


class RangeWorkload(Workload):
    """Requests are consecutive blocks of ``block`` values from a seeded start.

    The start moves by at most ``spread`` above ``base`` so that every seed
    scans numbers of about the same size and cost.  A round is ``blocks``
    blocks; later rounds repeat them and must reproduce their output.
    """

    base = 0
    spread = 0
    block = 0
    blocks = 8
    mode = "oracle"
    command = ""
    cli_extra: list[str] = []

    def __init__(self, seed: int, nproc: int, block: int | None = None, blocks: int | None = None):
        super().__init__(seed, nproc)
        self.survey = importlib.import_module("mixedsums.survey")
        self.block = block or self.block
        self.blocks = blocks or self.blocks
        lo = self.base + self.rng.randrange(self.spread)
        self.requests = [
            (lo + k * self.block, lo + (k + 1) * self.block - 1) for k in range(self.blocks)
        ]

    def entries(self) -> tuple:
        raise NotImplementedError

    def chunks(self, req) -> int:
        lo, hi = req
        return -(-(hi - lo + 1) // self.survey.DEFAULT_CHUNK)

    def pool_units(self, req) -> int:
        return len(self.entries()) * self.chunks(req)

    def cli(self) -> tuple[list[str], int, str]:
        lo = self.requests[0][0]
        req = (lo, lo)
        reports = self.call(req, 1)
        code = 1 if any(r.counterexamples for r in reports) else 0
        args = [self.command, str(lo), str(lo), "--jobs", str(self.jobs(req)), "--json"]
        return args + self.cli_extra, code, report_json(reports)

    def check(self, req, reports) -> tuple[int, str]:
        lo, hi = req
        if [r.entry for r in reports] != list(self.entries()):
            raise CheckFailed(f"reports cover {[r.entry.entry_id for r in reports]}")
        for r in reports:
            if (r.lo, r.hi, r.mode) != (lo, hi, self.mode):
                raise CheckFailed(f"{r.entry.entry_id}: report for {r.lo}..{r.hi} {r.mode}")
            if r.counterexamples:
                raise CheckFailed(f"{r.entry.entry_id}: counterexamples {r.counterexamples}")
            if r.verified_count != in_domain(r.entry.domain, lo, hi):
                raise CheckFailed(f"{r.entry.entry_id}: verified {r.verified_count} values")
        return sum(r.verified_count for r in reports), report_json(reports)


def in_domain(domain: str, lo: int, hi: int) -> int:
    """How many n in [lo, hi] a catalog domain admits."""
    if domain == "all":
        return hi - lo + 1
    if domain == "positive":
        return hi - max(lo, 1) + 1
    return sum(1 for n in range(max(lo, 1), hi + 1) if n % 2 == 1)


class VerifyRangeConstructive(RangeWorkload):
    name = "verify-range-constructive"
    exercises = RepresentCeiling.exercises | {
        "mixedsums.survey.represent",
        "mixedsums.survey.verify",
    }
    base, spread, block = 900_000, 65_536, 1024
    mode = "constructive"
    command = "verify-range"
    cli_extra = ["--mode", "constructive"]

    def entries(self) -> tuple:
        return self.survey.catalog_entries("theorem2")

    def call(self, req, jobs: int):
        return self.survey.verify_theorem2_range(*req, mode="constructive", jobs=jobs)


class SurveyOracle(RangeWorkload):
    name = "survey-oracle"
    exercises = frozenset({"mixedsums.survey.exists"})
    base, spread, block = 16_384, 256, 128
    command = "survey"

    def entries(self) -> tuple:
        return self.survey.CATALOG

    def call(self, req, jobs: int):
        return self.survey.verify_catalog(None, *req, jobs=jobs)

    def traced_call(self, req, tracer):
        # one request per source, in catalog order, so oracle time splits by source
        out = []
        for source in self.survey.SOURCES:
            reports = tracer.request(source, self.survey.verify_catalog, source, *req, 1)
            # a predicate entry makes no oracle.exists call; its report's
            # chunk time stands in for the oracle time it spent
            for r in reports:
                if r.entry.predicate is not None:
                    tracer.counts[f"predicate_ms.{source}"] += r.wall_ms
            out += reports
        return out


class NegativeControl(RangeWorkload):
    name = "negative-control"
    exercises = frozenset({"mixedsums.survey.exists", "mixedsums.survey.is_three_square_feasible"})
    base, spread, block = 8192, 256, 256
    command = "negative-control"

    def pool_units(self, req) -> int:
        return self.chunks(req)

    def call(self, req, jobs: int):
        return [self.survey.negative_control(*req, jobs=jobs)]

    def check(self, req, reports) -> tuple[int, str]:
        lo, hi = req
        (r,) = reports
        expected = tuple(n for n in range(lo, hi + 1) if three_square_excluded(n))
        if (r.lo, r.hi, r.mode) != (lo, hi, "oracle"):
            raise CheckFailed(f"control report for {r.lo}..{r.hi} {r.mode}")
        if r.counterexamples != expected:
            raise CheckFailed(f"control found {r.counterexamples}, expected {expected}")
        if r.verified_count != hi - lo + 1 - len(expected):
            raise CheckFailed(f"control verified {r.verified_count} values")
        return hi - lo + 1, report_json(reports)


WORKLOADS = {
    w.name: w for w in (RepresentCeiling, VerifyRangeConstructive, SurveyOracle, NegativeControl)
}


# ── measurement ────────────────────────────────────────────────────────────


class Speed:
    """The reference loop's times, taken between requests of a run."""

    def __init__(self) -> None:
        self.ended: list[float] = []  # perf_counter() at the end of each sample
        self.samples: list[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        acc = 0
        for i in range(REFERENCE_LOOPS):
            acc += i * i
        self.ended.append(time.perf_counter())
        self.samples.append(self.ended[-1] - t0)

    def due(self) -> None:
        """Sample if SLICE_S has passed since the last sample."""
        if not self.ended or time.perf_counter() - self.ended[-1] >= SLICE_S:
            self.sample()

    def scaled(self, start: float, elapsed: float) -> float:
        """``elapsed``, measured from ``start``, at the reference speed."""
        lo = bisect.bisect_left(self.ended, start - WINDOW_S)
        hi = bisect.bisect_right(self.ended, start + elapsed + WINDOW_S)
        return elapsed * REFERENCE_S / statistics.median(self.samples[max(0, lo - 1) : hi + 1])


class Tally:
    """Attempted and failed operations plus round-0 output digests."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(what)


def serve_round(
    workload: Workload, call, tally: Tally, speed: Speed | None = None
) -> tuple[list[tuple[float, float]], int, str]:
    """Send one round; return each request's (start, latency) in seconds,
    the work units done and the sha256 of the round's canonical output.
    With ``speed``, the reference loop is sampled between requests."""
    timings: list[tuple[float, float]] = []
    units = 0
    digest = hashlib.sha256()
    for req in workload.round():
        if speed:
            speed.due()
        tally.attempted += 1
        t0 = time.perf_counter()
        try:
            result = call(req)
        except Exception:
            timings.append((t0, time.perf_counter() - t0))
            tally.fail(f"{req}: {traceback.format_exc(limit=3)}")
            continue
        timings.append((t0, time.perf_counter() - t0))
        try:
            done, canonical = workload.check(req, result)
        except CheckFailed as e:
            tally.fail(f"{req}: {e}")
            continue
        units += done
        digest.update(canonical.encode() + b"\n")
    if speed:
        speed.sample()
    return timings, units, digest.hexdigest()


def check_digest(workload: Workload, digest: str, tally: Tally) -> str:
    """Compare round 0's digest with the recorded one for this seed."""
    try:
        recorded = json.loads(DIGESTS.read_text()).get(workload.name, {}).get(str(workload.seed))
    except FileNotFoundError:
        recorded = None
    if recorded is None:
        return "not recorded for this seed"
    if recorded != digest:
        # every request of round 0 is covered by the digest
        tally.failed += len(workload.round())
        tally.notes.append(f"round 0 digest {digest} != recorded {recorded}")
        return "MISMATCH"
    return "matches digests.json"


def quantile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_cli(args: list[str], timeout: float = 120) -> tuple[int, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "mixedsums.cli", *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    return proc.returncode, proc.stdout


def measure_setup(workload: Workload, tally: Tally, speed: Speed) -> tuple[float, list[str]]:
    """Median wall time of fresh interpreters running the one-value CLI
    command, scaled to the reference speed."""
    args, code, expected = workload.cli()
    timings = []
    for i in range(SETUP_RUNS + 1):
        speed.sample()
        tally.attempted += 1
        start = time.perf_counter()
        try:
            got_code, out = run_cli(args)
        except subprocess.TimeoutExpired:
            tally.fail(f"mixedsums {' '.join(args)}: timed out")
            continue
        if i:  # the first run only warms the file cache
            timings.append((start, time.perf_counter() - start))
        if got_code != code or out != expected + "\n":
            tally.fail(f"mixedsums {' '.join(args)}: exit {got_code}, stdout {out!r}")
    speed.sample()
    return statistics.median(speed.scaled(*t) for t in timings), args


def measure_import() -> float:
    code = "import time; t = time.perf_counter(); import mixedsums.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(IMPORT_RUNS):
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=120, check=True,
        ).stdout
        times.append(float(out))
    return statistics.median(times)


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children holds the largest pool worker
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024


def end_to_end(workload: Workload, seconds: float, tally: Tally, say) -> dict:
    # each request's latency is its median over the rounds, which keeps
    # short slow or fast spells of a shared machine out of the figures
    timings: list[list[tuple[float, float]]] = [[] for _ in workload.round()]
    speed = Speed()
    units = 0
    rounds = 0
    first_digest = None
    started = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        got, done, digest = serve_round(
            workload, lambda r: workload.call(r, workload.jobs(r)), tally, speed
        )
        took = time.perf_counter() - t0
        for request_timings, timing in zip(timings, got):
            request_timings.append(timing)
        units += done
        rounds += 1
        if first_digest is None:
            first_digest = digest
            say(f"round 0 digest {digest} ({check_digest(workload, digest, tally)})")
        elif digest != first_digest:
            tally.fail(f"round {rounds - 1} digest {digest} differs from round 0")
        if time.perf_counter() - started + took > seconds:
            break
    rss = peak_rss_mb()
    latencies = [statistics.median(speed.scaled(*t) for t in x) for x in timings]
    busy = sum(latencies)
    say(
        f"{rounds} rounds of {len(latencies)} requests, {units // rounds} work units a round;"
        f" latency percentiles over {len(latencies)} per-request medians"
    )
    setup, args = measure_setup(workload, tally, speed)
    say(f"set-up: median of {SETUP_RUNS} fresh runs of: mixedsums {' '.join(args)}")
    q = statistics.quantiles(speed.samples, n=4)
    say(
        f"reference loop: {len(speed.samples)} samples, median {statistics.median(speed.samples) * 1e3:.3f} ms,"
        f" quartiles {q[0] * 1e3:.3f}/{q[2] * 1e3:.3f} ms; times are scaled to {REFERENCE_S * 1e3:g} ms"
    )
    return {
        "throughput_per_s": (units / rounds / busy, "1/s"),
        "latency_p50_ms": (quantile(latencies, 50) * 1e3, "ms"),
        "latency_p99_ms": (quantile(latencies, 99) * 1e3, "ms"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (rss, "MB"),
    }


def traced(workload: Workload, tally: Tally, say) -> dict:
    from tracer import BINDING_KEYS, Tracer

    survey = importlib.import_module("mixedsums.survey")
    forms = [f.value for f in importlib.import_module("mixedsums.forms").MixedForm]

    tracer = Tracer()
    plain_s = traced_s = 0.0

    def plain_then_traced(req):
        # both in turn, so that a change in machine speed hits both alike
        nonlocal plain_s, traced_s
        t0 = time.perf_counter()
        plain = workload.call(req, 1)
        t1 = time.perf_counter()
        with tracer:
            result = workload.traced_call(req, tracer)
        t2 = time.perf_counter()
        plain_s += t1 - t0
        traced_s += t2 - t1
        if workload.check(req, result) != workload.check(req, plain):
            raise CheckFailed("traced output differs from the untraced output")
        return plain

    _, _, digest = serve_round(workload, plain_then_traced, tally)
    say(f"round 0 digest {digest} ({check_digest(workload, digest, tally)})")

    metrics = tracer.layer_metrics(forms, survey.SOURCES)
    for source in survey.SOURCES:
        value, unit = metrics[f"oracle.exists_busy_s.{source}"]
        extra = tracer.counts[f"predicate_ms.{source}"] / 1e3
        metrics[f"oracle.exists_busy_s.{source}"] = (value + extra, unit)

    wall = busy = 0.0
    jobs = units = 0
    if isinstance(workload, RangeWorkload):
        jobs = workload.jobs(workload.round()[0])
        reports = []

        def pooled(req):
            out = workload.call(req, jobs)
            reports.extend(out)
            return out

        t0 = time.perf_counter()
        _, _, pool_digest = serve_round(workload, pooled, tally)
        wall = time.perf_counter() - t0
        if pool_digest != digest:
            tally.fail(f"jobs={jobs} output differs from jobs=1")
        busy = sum(r.wall_ms for r in reports) / 1e3
        units = sum(workload.pool_units(r) for r in workload.round())
        say(f"pool run: jobs={jobs}, {units} units, wall {wall:.3f} s")
    metrics["survey.units"] = (units, "count")
    metrics["survey.wall_s"] = (wall, "s")
    metrics["survey.chunk_busy_s"] = (busy, "s")
    metrics["survey.parallel_eff"] = (busy / (jobs * wall) if jobs else 0.0, "ratio")
    metrics["cli.import_s"] = (measure_import(), "s")
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    say(f"traced {traced_s:.3f} s vs untraced {plain_s:.3f} s (jobs=1), {len(tracer.spans)} spans")

    for key in BINDING_KEYS:
        seen = tracer.calls[key]
        if (seen > 0) != (key in workload.exercises):
            tally.fail(f"wrapper {key} saw {seen} calls, predicted {'some' if key in workload.exercises else 'none'}")
    say(
        "computed search counts: x_candidates={} two_squares_calls={} inner_steps={}".format(
            metrics["three_squares.x_candidates"][0],
            metrics["three_squares.two_squares_calls"][0],
            metrics["three_squares.inner_steps"][0],
        )
    )
    path = TRACE_DIR / f"{workload.name}.spans.jsonl"
    tracer.write(path)
    say(f"spans written to {os.path.relpath(path, ROOT)}")

    return metrics


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "mixedsums" / "__init__.py").is_file():
        print(f"error: no mixedsums sources under {SRC}", file=sys.stderr)
        return 2
    if sys.flags.optimize:
        # the proof-step assertions are part of what users run
        print("error: run without -O; the library's assertions must stay on", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    nproc = len(os.sched_getaffinity(0))
    lines = []
    say = lines.append
    say(
        "env "
        + json.dumps(
            {
                "python": platform.python_version(),
                "implementation": platform.python_implementation(),
                "nproc": nproc,
                "seed": args.seed,
                "optimize": sys.flags.optimize,
                "workload": args.workload,
                "seconds": args.seconds,
                "trace": args.trace,
            }
        )
    )
    tally = Tally()
    workload = WORKLOADS[args.workload](args.seed, nproc)
    if args.trace:
        metrics = traced(workload, tally, say)
    else:
        metrics = end_to_end(workload, args.seconds, tally, say)
    rate = tally.failed / tally.attempted
    say(f"error_rate {rate:.6g} ({tally.failed} failed of {tally.attempted} attempted)")
    for name, (value, unit) in metrics.items():
        say(f"{name} {value:.6g} {unit}")
    lines += [f"FAILURE {note}" for note in tally.notes]
    for line in lines:
        for part in line.splitlines():
            print(f"# {part}")
    correct = tally.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
