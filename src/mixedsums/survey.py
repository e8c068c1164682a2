"""Range verification over the built-in form catalogs.

A catalog entry (`CatalogEntry`) is defined by its name and grouped under a
source label, which the CLI's --source filters on.  Its status tag says
what a clean scan means: "constructive" entries are backed by the
decomposers, "established" ones re-check complete statements, and
"empirical" ones are evidence, not proof.  Only the theorem2 group, the
five named forms, can be scanned constructively, and only the oracle
reports counterexamples.

The scan engine: `_run_scans` plans each entry on the one path `_path`
chooses from the estimates of `_price`, and merges each report from its
own units; `_plan_workers` decides whether a pool pays for itself, and
`_pool_scan` runs it; `_scan_unit` scans one unit; `negative_control`
demands the classical exclusion set of plain three squares.
"""

from __future__ import annotations

import math
import os
import re
import time
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Iterator, Sequence

from .arith import _check_natural, is_three_square_feasible
from .forms import MixedForm, represent, verify
from .oracle import (
    MAX_WINDOW_HI,
    FormSpec,
    _by_density,
    _check_enumerable,
    check_range,
    constrained_two_squares_triangular_window,
    exists,
    exists_constrained_two_squares_triangular,
    forget_pair,
    representable_window,
    spec_of,
)

DEFAULT_CHUNK = 1 << 14

# An entry that is not sieved is planned as at most this many chunks:
# DEFAULT_CHUNK values wide up to 2^26 values, wider past that.
MAX_UNITS = MAX_WINDOW_HI // DEFAULT_CHUNK

# The price list of _price, in seconds.  Decomposing and verifying a value n
# costs CONSTRUCTIVE_S + CONSTRUCTIVE_ROOT3_S * n^(1/3); the figures are in
# BENCH_two_squares_filter.json.
CONSTRUCTIVE_S = 8.5e-6
CONSTRUCTIVE_ROOT3_S = 0.011e-6
# An exists hit near n, which the walk finds within a few outer values,
# costs EXISTS_HIT_S * n^(1/4); the figures are in BENCH_exists_one_walk.json.
EXISTS_HIT_S = 1.5e-6
# A window up to hi costs at most WINDOW_ROOT_S * sqrt(hi) + WINDOW_POW_S *
# hi^1.75, the price of sqrt(hi) shift-ORs of hi-bit integers that cost more
# per bit once they outgrow the caches; the figures are in
# BENCH_sumset_early_exit.json.
WINDOW_ROOT_S = 2.5e-6
WINDOW_POW_S = 2.5e-12

# A pool costs POOL_START_S to start, feed and stop when its children are
# forked from a fresh process, which first imports multiprocessing,
# POOL_SPAWN_S when they are spawned, and POOL_UNIT_S per unit it carries;
# the figures are in BENCH_pool_share.json.
POOL_START_S = 0.02
POOL_SPAWN_S = 0.2
POOL_UNIT_S = 3e-6

DOMAINS = ("all", "positive", "positive_odd")

# the one oracle predicate a catalog entry may name instead of a term list
_PREDICATE = "mixed-parity-two-squares"


@dataclass(frozen=True)
class CatalogEntry:
    """One scannable claim, defined by its name.

    The name is a named form spelling ("x2+6t+t"), a canonical term list
    ("1*sq+2*sq+4*tri") or an oracle predicate ("mixed-parity-two-squares");
    `form`, `spec` and `predicate` are read from it.
    """

    source: str
    name: str
    domain: str
    status: str

    def __post_init__(self) -> None:
        if self.domain not in DOMAINS:
            raise ValueError(f"unknown domain {self.domain!r}")
        self.spec  # parsed once here: raises unless the name is a form or a term list

    @property
    def entry_id(self) -> str:
        return f"{self.source}:{self.name}"

    @cached_property
    def form(self) -> MixedForm | None:
        """The named form, the only kind of entry with a constructive scan."""
        try:
            return MixedForm(self.name)
        except ValueError:
            return None

    @property
    def predicate(self) -> str | None:
        return self.name if self.name == _PREDICATE else None

    @cached_property
    def spec(self) -> FormSpec | None:
        """The entry's term list (parsed on first read); None for a predicate."""
        return None if self.predicate is not None else spec_of(self.name)


@dataclass(frozen=True)
class RangeReport:
    """Outcome of scanning one entry over [lo, hi] (bounds inclusive)."""

    entry: CatalogEntry
    lo: int
    hi: int
    verified_count: int
    counterexamples: tuple[int, ...]
    mode: str
    wall_ms: int


# (source, status, domain, entry names); a term list is written in the
# canonical spelling str(spec_of(name)) == name
_TABLE = (
    ("theorem2", "constructive", "all", "x2+3y2+t x2+3t+t x2+6t+t 3x2+2t+t 4x2+2t+t"),
    ("theorem1_i", "established", "all", "4*sq+1*tri+1*tri"),
    ("theorem1_i", "established", "positive", "mixed-parity-two-squares"),
    (
        "theorem1_ii",
        "empirical",
        "all",
        "1*sq+1*sq+1*tri 1*sq+1*sq+2*tri 1*sq+2*sq+1*tri 1*sq+2*sq+2*tri"
        " 1*sq+2*sq+4*tri 1*sq+3*sq+1*tri 1*sq+4*sq+1*tri 1*sq+4*sq+2*tri"
        " 1*sq+8*sq+1*tri 2*sq+2*sq+1*tri",
    ),
    (
        "theorem1_iii",
        "empirical",
        "all",
        "1*sq+1*tri+1*tri 1*sq+2*tri+1*tri 1*sq+2*tri+2*tri 1*sq+3*tri+1*tri"
        " 1*sq+4*tri+1*tri 1*sq+4*tri+2*tri 1*sq+5*tri+2*tri 1*sq+6*tri+1*tri"
        " 1*sq+8*tri+1*tri 2*sq+1*tri+1*tri 2*sq+2*tri+1*tri 2*sq+4*tri+1*tri"
        " 3*sq+2*tri+1*tri 4*sq+1*tri+1*tri 4*sq+2*tri+1*tri",
    ),
    ("panaitopol", "established", "positive_odd", "1*sq+1*sq+2*sq 1*sq+2*sq+3*sq 1*sq+2*sq+4*sq"),
)

SOURCES = tuple(dict.fromkeys(source for source, *_ in _TABLE))

CATALOG = tuple(
    CatalogEntry(source, name, domain, status)
    for source, status, domain, names in _TABLE
    for name in names.split()
)

_CONTROL = CatalogEntry("control", "1*sq+1*sq+1*sq", "all", "control")


def catalog_entries(source_filter: str | None = None) -> tuple[CatalogEntry, ...]:
    """The catalog, optionally restricted to one source label."""
    if source_filter is None:
        return CATALOG
    if source_filter not in SOURCES:
        raise ValueError(f"unknown source {source_filter!r}, expected one of {SOURCES}")
    return tuple(e for e in CATALOG if e.source == source_filter)


# ── scan engine ────────────────────────────────────────────────────────────


def _domain_values(domain: str, lo: int, hi: int) -> range:
    """The n in [lo, hi] that an entry over this domain is scanned at."""
    if domain == "all":
        return range(lo, hi + 1)
    if domain == "positive":
        return range(max(lo, 1), hi + 1)
    return range(max(lo, 1) | 1, hi + 1, 2)


# A sieved unit lists its holes 2^16 bits (this many bytes) at a time, so
# no string it builds is longer, however wide its window is.
_HOLE_PIECE_BYTES = 1 << 13


def _set_bits(bits: int, lo: int) -> list[int]:
    """lo + k for every set bit k of bits, ascending."""
    data = bits.to_bytes(-(-bits.bit_length() // 8), "little")
    found = []
    for start in range(0, len(data), _HOLE_PIECE_BYTES):
        piece = int.from_bytes(data[start : start + _HOLE_PIECE_BYTES], "little")
        base = lo + 8 * start
        found += [base + m.start() for m in re.finditer("1", format(piece, "b")[::-1])]
    return found


_Unit = tuple[CatalogEntry, str, int, int]  # (entry, path, lo, hi): a whole range or one chunk
_Row = tuple[int, list[int], float]  # a unit's verified count, counterexamples and wall ms


def _price(path: str, lo: int, hi: int) -> float:
    """Estimated seconds for a unit [lo, hi] on this path, from the constants
    above: a value decomposed and verified, or an exists hit, per n; or a
    window and an exists hit per block."""
    width = hi - lo + 1
    if path == "constructive":
        return width * (CONSTRUCTIVE_S + CONSTRUCTIVE_ROOT3_S * hi ** (1 / 3))
    hit = EXISTS_HIT_S * hi**0.25
    if path == "pointwise":
        return width * hit
    window = WINDOW_ROOT_S * math.sqrt(hi) + WINDOW_POW_S * hi**1.75
    return -(-width // DEFAULT_CHUNK) * hit + window


def _path(entry: CatalogEntry, mode: str, lo: int, hi: int) -> str:
    """How entry's scan of [lo, hi] runs.  An oracle scan is read off a
    window when it is the control, or when hi <= MAX_WINDOW_HI and the
    window is the cheaper price; otherwise it is judged pointwise."""
    if mode == "constructive":
        return mode
    if entry is _CONTROL or (
        hi <= MAX_WINDOW_HI and _price("sieved", lo, hi) < _price("pointwise", lo, hi)
    ):
        return "sieved"
    return "pointwise"


def _scan_unit(unit: _Unit) -> _Row:
    """The unit's verified count, counterexamples and wall ms; a
    constructive unit has none, and raises AssertionError at the first n
    whose certificate does not verify.  Its judge (n -> is n represented?)
    and window ((lo, hi) -> bitset, bit k set iff lo + k is represented) are
    read from the module globals as it starts, so tracing and tests can
    rebind them."""
    entry, path, lo, hi = unit
    t0 = time.perf_counter()
    if path == "constructive":
        form = entry.form
        check = lambda n: verify(represent(form, n))
    elif entry.predicate is not None:
        check = exists_constrained_two_squares_triangular
        window = constrained_two_squares_triangular_window
    else:
        check = partial(exists, entry.spec)
        window = partial(representable_window, entry.spec)
    ns = _domain_values(entry.domain, lo, hi)
    if path != "sieved":
        bad = [n for n in ns if not check(n)]
        if bad and path == "constructive":
            raise AssertionError(f"{entry.entry_id}: certificate for n={bad[0]} does not verify")
    else:
        # read every verdict off the window, n at bit n - lo: the mask sets
        # the bit of every n in ns (len(ns) ones, ns.step apart), and the
        # counterexamples are the bits it sets that the window leaves clear
        sieve = window(lo, hi)
        mask = ((1 << len(ns) * ns.step) - 1) // ((1 << ns.step) - 1) << (ns.start - lo)
        bad = _set_bits(mask & ~sieve, lo)
        # then judge, each n once and in order: the first n of every block
        # and every counterexample, but only the control's first one, since
        # negative_control checks the rest against its enumeration
        blocks = range(lo, hi + 1, DEFAULT_CHUNK)
        firsts = (m for b in blocks for m in _domain_values(entry.domain, b, hi)[:1])
        misses = bad[:1] if entry is _CONTROL else bad
        for n in sorted({*firsts, *misses}):
            ok = sieve >> (n - lo) & 1
            if check(n) != ok:
                raise AssertionError(
                    f"{entry.entry_id}: the sieve says n={n} is"
                    f" {'' if ok else 'not '}represented, the pointwise oracle disagrees"
                )
    return len(ns) - len(bad), bad, (time.perf_counter() - t0) * 1000.0


def _usable_cpus() -> int:
    """The CPUs this process may run on, where the platform says."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _can_fork() -> bool:
    """Whether pool children can be forked.  Windows, the one platform whose
    multiprocessing offers no "fork" start method, has no os.fork; asking os
    loads no multiprocessing, which a one-process scan never needs."""
    return hasattr(os, "fork")


def _pool_size(jobs: int, units: int) -> int:
    """Worker processes for a scan, this one included: never more than the
    units or the CPUs."""
    return min(jobs, units, _usable_cpus())


def _plan_workers(jobs: int, units: Sequence[_Unit]) -> int:
    """The workers to scan these units, this process included; 1 runs them
    all in this process alone, w starts w - 1 children.

    A pool is estimated to take POOL_START_S (POOL_SPAWN_S where the
    platform cannot fork), POOL_UNIT_S per unit and the longer of its
    workers' even share of the work and the dearest unit.  It is started
    only when that beats the work's estimate here.
    """
    workers = _pool_size(jobs, len(units))
    if workers < 2:
        return 1
    costs = [_price(path, lo, hi) for _, path, lo, hi in units]
    here = sum(costs)
    start = POOL_START_S if _can_fork() else POOL_SPAWN_S
    pooled = start + POOL_UNIT_S * len(units) + max(here / workers, max(costs))
    return workers if pooled < here else 1


def _shared_pair(unit: _Unit) -> list:
    """The pair of slots a sieved term list's window sums first, which the
    oracle keeps for the next window; [] for any other unit."""
    entry, path, _, _ = unit
    return _by_density(entry.spec)[:2] if path == "sieved" and entry.predicate is None else []


def _take(counter, total: int) -> Iterator[int]:
    """Indices into a scan's units, each taken from the counter that every
    process of its pool shares, until none is left."""
    while True:
        with counter.get_lock():
            i = counter.value
            counter.value = i + 1
        if i >= total:
            return
        yield i


def _work(run: Sequence[_Unit], counter, writer) -> None:
    """A pool child: scan the units of run it takes from counter, then send
    its {index: row}, or the exception that stopped it, once.  An exception
    first exhausts the counter, so every worker stops after the unit it is
    scanning."""
    import traceback  # only a child that fails needs it

    try:
        result = {i: _scan_unit(run[i]) for i in _take(counter, len(run))}, None
    except Exception as e:
        with counter.get_lock():
            counter.value = len(run)
        result = {}, (e, traceback.format_exc())
    writer.send(result)


def _start_children(context, run: Sequence[_Unit], counter, workers: int) -> Iterator:
    """Start the workers - 1 children of a pool whose last worker is this
    process, yielding each with the reading end of its one-way pipe."""
    for _ in range(workers - 1):
        reader, writer = context.Pipe(duplex=False)
        child = context.Process(target=_work, args=(run, counter, writer), daemon=True)
        child.start()
        writer.close()  # so that the child's exit reads as EOF here
        yield child, reader


def _receive(reader):
    """What a child sent over its pipe, or None if it exited first."""
    with reader:
        try:
            return reader.recv()
        except EOFError:
            return None


def _pool_scan(run: Sequence[_Unit], workers: int) -> list[_Row]:
    """The rows of run's units, scanned by this process and workers - 1
    children, each taking the next unit from one shared counter.

    A child's exception is re-raised here, and a child that exits without
    reporting is an internal fault.  On every way out the counter is
    exhausted, every pipe drained and every child joined, so no child
    outlives the scan.
    """
    # imported here: it loads multiprocessing, which a one-process scan and
    # every other command never need
    import multiprocessing

    # forked where the platform can fork, whatever its default: a forked
    # child starts as cheaply as POOL_START_S prices it, inherits run and
    # sees this process's modules as they stand (fork copies only the
    # calling thread, and the pool starts no other); spawned, as
    # POOL_SPAWN_S prices it, elsewhere
    context = multiprocessing.get_context("fork" if _can_fork() else "spawn")
    counter = context.Value("q", 0)
    children = []
    rows: dict[int, _Row] = {}
    try:
        for child in _start_children(context, run, counter, workers):
            children.append(child)
        for i in _take(counter, len(run)):
            rows[i] = _scan_unit(run[i])
    finally:
        with counter.get_lock():
            counter.value = len(run)
        sent = [_receive(reader) for _, reader in children]
        for child, _ in children:
            child.join()
    for (child, _), got in zip(children, sent):
        if got is None:
            raise RuntimeError(
                f"scan worker {child.pid} exited with code {child.exitcode} before reporting"
            )
        found, error = got
        if error is not None:
            raise error[0] from RuntimeError(f"in scan worker {child.pid}:\n{error[1]}")
        rows.update(found)
    return [rows[i] for i in range(len(run))]


def _run_scans(
    entries: Sequence[CatalogEntry], mode: str, lo: int, hi: int, jobs: int
) -> list[RangeReport]:
    """One report per entry.  Each entry is planned once, on one path: a
    sieved entry is one unit, any other one unit per chunk, at most
    MAX_UNITS of them.  Each report is merged from its own entry's units in
    plan order, so no byte of it depends on the worker count."""
    check_range(lo, hi)
    if _check_natural(jobs, "jobs") < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    chunk = max(DEFAULT_CHUNK, -(-(hi - lo + 1) // MAX_UNITS))
    plans = []
    for entry in entries:
        path = _path(entry, mode, lo, hi)
        size = hi - lo + 1 if path == "sieved" else chunk
        plans.append([(entry, path, c, min(c + size - 1, hi)) for c in range(lo, hi + 1, size)])
    units = [unit for plan in plans for unit in plan]
    run = sorted(units, key=_shared_pair)  # so that each shared pair is built once
    workers = _plan_workers(jobs, units)
    try:
        scanned = _pool_scan(run, workers) if workers > 1 else [_scan_unit(u) for u in run]
    finally:
        forget_pair()
    ran = dict(zip(run, scanned))
    reports = []
    for entry, plan in zip(entries, plans):
        rows = [ran[unit] for unit in plan]
        bad = tuple(n for row in rows for n in row[1])
        wall = int(round(sum(row[2] for row in rows)))
        reports.append(
            RangeReport(entry, lo, hi, sum(row[0] for row in rows), bad, mode, wall)
        )
    return reports


def verify_theorem2_range(
    lo: int,
    hi: int,
    mode: str = "constructive",
    forms: Sequence[MixedForm | str] | None = None,
    jobs: int = 1,
) -> list[RangeReport]:
    """Scan the five named forms (forms, given as members or spellings,
    selects some) over [lo, hi]; one report per form, in catalog order."""
    if mode not in ("constructive", "oracle"):
        raise ValueError(f"unknown mode {mode!r}")
    wanted = tuple(MixedForm) if forms is None else {MixedForm(f) for f in forms}
    if not wanted:
        raise ValueError("no forms selected")
    entries = [e for e in catalog_entries("theorem2") if e.form in wanted]
    return _run_scans(entries, mode, lo, hi, jobs)


def verify_catalog(
    source_filter: str | None = None,
    lo: int = 0,
    hi: int = 10_000,
    jobs: int = 1,
) -> list[RangeReport]:
    """Oracle-scan every matching catalog entry over [lo, hi]."""
    return _run_scans(catalog_entries(source_filter), "oracle", lo, hi, jobs)


def negative_control(lo: int, hi: int, jobs: int = 1) -> RangeReport:
    """Scan plain three squares and demand the classical exclusion set.

    The form x^2 + y^2 + z^2 misses exactly the numbers 4^k(8l+7); finding
    precisely those as counterexamples shows the oracle cannot pass
    vacuously.  The scan's counterexamples must be exactly the 4^k(8l+7) in
    [lo, hi], enumerated directly, so a wrong bit of the scan's window
    anywhere is a disagreement; the independent classifier must exclude each
    of those and admit the first n of every block unless it is one of them.
    A disagreement raises AssertionError, as every failed internal check
    does, under python -O too.  The scan is always one sieved window, however
    narrow.  Its first counterexample is an O(lo) exists miss, so hi is
    capped by oracle._check_enumerable, as count's and witnesses' n are.
    """
    _check_enumerable(hi, "hi")
    report = _run_scans([_CONTROL], "oracle", lo, hi, jobs)[0]
    # the excluded n, enumerated as one range of step 8p for each p = 4^k
    expected, p = [], 1
    while 7 * p <= hi:
        expected += range(lo + (7 * p - lo) % (8 * p), hi + 1, 8 * p)
        p *= 4
    expected.sort()
    # the classifier judges each of them and, as a sample of represented n,
    # the first n of every block
    judged = sorted({*expected, *range(lo, hi + 1, DEFAULT_CHUNK)})
    excluded = [n for n in judged if not is_three_square_feasible(n)]
    if report.counterexamples != tuple(expected) or excluded != expected:
        first = min(set(report.counterexamples) ^ set(expected) | set(excluded) ^ set(expected))
        raise AssertionError(
            f"control scan found {len(report.counterexamples)} counterexamples but the"
            f" classifier excludes {len(excluded)} on [{lo}, {hi}];"
            f" first disagreement at n={first}"
        )
    return report
