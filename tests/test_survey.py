from __future__ import annotations

import contextlib
import json
import math
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import pytest

import mixedsums
import mixedsums.oracle as oracle
import mixedsums.survey as sv
from mixedsums.cli import main
from mixedsums.forms import MixedForm
from mixedsums.oracle import MAX_ENUMERATED_N, FormSpec, Term, spec_of
from mixedsums.survey import (
    CATALOG,
    SOURCES,
    CatalogEntry,
    catalog_entries,
    negative_control,
    verify_catalog,
    verify_theorem2_range,
    _pool_size,
)

from bruteforce import gauss_legendre_excluded


# ── catalog shape ──────────────────────────────────────────────────────────


def test_catalog_group_sizes():
    sizes = {src: len(catalog_entries(src)) for src in SOURCES}
    assert sizes == {
        "theorem2": 5,
        "theorem1_i": 2,
        "theorem1_ii": 10,
        "theorem1_iii": 15,
        "panaitopol": 3,
    }
    assert len(CATALOG) == 35


# every entry in catalog order as (entry_id, domain, status); the names are
# the definitions, so this pins every scanned claim
GOLDEN_CATALOG = [
    ("theorem2:x2+3y2+t", "all", "constructive"),
    ("theorem2:x2+3t+t", "all", "constructive"),
    ("theorem2:x2+6t+t", "all", "constructive"),
    ("theorem2:3x2+2t+t", "all", "constructive"),
    ("theorem2:4x2+2t+t", "all", "constructive"),
    ("theorem1_i:4*sq+1*tri+1*tri", "all", "established"),
    ("theorem1_i:mixed-parity-two-squares", "positive", "established"),
    ("theorem1_ii:1*sq+1*sq+1*tri", "all", "empirical"),
    ("theorem1_ii:1*sq+1*sq+2*tri", "all", "empirical"),
    ("theorem1_ii:1*sq+2*sq+1*tri", "all", "empirical"),
    ("theorem1_ii:1*sq+2*sq+2*tri", "all", "empirical"),
    ("theorem1_ii:1*sq+2*sq+4*tri", "all", "empirical"),
    ("theorem1_ii:1*sq+3*sq+1*tri", "all", "empirical"),
    ("theorem1_ii:1*sq+4*sq+1*tri", "all", "empirical"),
    ("theorem1_ii:1*sq+4*sq+2*tri", "all", "empirical"),
    ("theorem1_ii:1*sq+8*sq+1*tri", "all", "empirical"),
    ("theorem1_ii:2*sq+2*sq+1*tri", "all", "empirical"),
    ("theorem1_iii:1*sq+1*tri+1*tri", "all", "empirical"),
    ("theorem1_iii:1*sq+2*tri+1*tri", "all", "empirical"),
    ("theorem1_iii:1*sq+2*tri+2*tri", "all", "empirical"),
    ("theorem1_iii:1*sq+3*tri+1*tri", "all", "empirical"),
    ("theorem1_iii:1*sq+4*tri+1*tri", "all", "empirical"),
    ("theorem1_iii:1*sq+4*tri+2*tri", "all", "empirical"),
    ("theorem1_iii:1*sq+5*tri+2*tri", "all", "empirical"),
    ("theorem1_iii:1*sq+6*tri+1*tri", "all", "empirical"),
    ("theorem1_iii:1*sq+8*tri+1*tri", "all", "empirical"),
    ("theorem1_iii:2*sq+1*tri+1*tri", "all", "empirical"),
    ("theorem1_iii:2*sq+2*tri+1*tri", "all", "empirical"),
    ("theorem1_iii:2*sq+4*tri+1*tri", "all", "empirical"),
    ("theorem1_iii:3*sq+2*tri+1*tri", "all", "empirical"),
    ("theorem1_iii:4*sq+1*tri+1*tri", "all", "empirical"),
    ("theorem1_iii:4*sq+2*tri+1*tri", "all", "empirical"),
    ("panaitopol:1*sq+1*sq+2*sq", "positive_odd", "established"),
    ("panaitopol:1*sq+2*sq+3*sq", "positive_odd", "established"),
    ("panaitopol:1*sq+2*sq+4*sq", "positive_odd", "established"),
]


def test_catalog_golden():
    assert [(e.entry_id, e.domain, e.status) for e in CATALOG] == GOLDEN_CATALOG


def test_entry_is_defined_by_its_name():
    assert [f.name for f in fields(CatalogEntry)] == ["source", "name", "domain", "status"]
    for e in CATALOG:
        assert (e.form is not None) == (e.source == "theorem2")
        assert (e.predicate is not None) == (e.name == "mixed-parity-two-squares")
        assert e.spec == (None if e.predicate else spec_of(e.name))
        if e.form is None and e.predicate is None:
            assert str(spec_of(e.name)) == e.name  # a canonical term list


def test_entry_ids_unique():
    ids = [e.entry_id for e in CATALOG]
    assert len(set(ids)) == len(ids)


def test_entry_statuses():
    for e in catalog_entries("theorem1_ii") + catalog_entries("theorem1_iii"):
        assert e.status == "empirical"
    for e in catalog_entries("theorem2"):
        assert e.status == "constructive"
        assert e.form is not None
    for e in catalog_entries("panaitopol"):
        assert e.status == "established"
        assert e.domain == "positive_odd"


def test_unknown_source_rejected():
    with pytest.raises(ValueError):
        catalog_entries("theorem3")


# ── the "only if" half: escalation ─────────────────────────────────────────

# Escalation (Bhargava 2000) over sorted coefficients: a universal form's
# first coefficient is at most 1, the first n the empty form misses, and
# each next one is at most the truant (the first missed n) of the slots
# before it, since c is the least positive value of c*x^2 and of c*t_x.
# A candidate survives when it misses no n up to ESCALATION_HI, or no odd n
# for the x^2-only family, over Panaitopol's domain.
ESCALATION_HI = 3000

# Liouville's seven universal a*t_x + b*t_y + c*t_z
LIOUVILLE = [
    "1*tri+1*tri+1*tri", "1*tri+1*tri+2*tri", "1*tri+1*tri+4*tri", "1*tri+1*tri+5*tri",
    "1*tri+2*tri+2*tri", "1*tri+2*tri+3*tri", "1*tri+2*tri+4*tri",
]


def _truant(terms: tuple[Term, ...], odd: bool) -> int | None:
    """The first n in [1, ESCALATION_HI], odd n only if odd, that the one to
    three terms miss, or None.  A missing slot is a coefficient past the
    window, whose only value in it is 0."""
    pad = Term(ESCALATION_HI + 1, "sq")
    bits = oracle.representable_window(
        FormSpec(terms + (pad,) * (3 - len(terms))), 0, ESCALATION_HI
    )
    return next((n for n in range(1, ESCALATION_HI + 1, 1 + odd) if not bits >> n & 1), None)


def _escalate(kinds: tuple[str, ...], odd: bool) -> list[tuple[Term, ...]]:
    """Every term triple with these kinds, sorted by (coeff, kind) so each
    multiset comes once, whose coefficients escalation allows."""
    found = []

    def grow(terms: tuple[Term, ...], left: list[str]) -> None:
        if not left:
            found.append(terms)
            return
        bound = _truant(terms, odd)
        assert bound is not None  # fewer than three slots miss early
        for kind in dict.fromkeys(left):
            rest = list(left)
            rest.remove(kind)
            for c in range(1, bound + 1):
                if not terms or terms[-1] <= Term(c, kind):
                    grow(terms + (Term(c, kind),), rest)

    grow((), list(kinds))
    return found


@pytest.mark.parametrize(
    "kinds, odd, tried, survivors",
    [
        (("sq", "sq", "tri"), False, 20, [e.name for e in catalog_entries("theorem1_ii")]),
        (("sq", "tri", "tri"), False, 21, [e.name for e in catalog_entries("theorem1_iii")]),
        (("tri", "tri", "tri"), False, 8, LIOUVILLE),
        (("sq", "sq", "sq"), True, 10, [e.name for e in catalog_entries("panaitopol")]),
    ],
    ids=["sq2_tri", "sq_tri2", "tri3", "sq3_odd"],
)
def test_escalation_keeps_exactly_the_catalog(kinds, odd, tried, survivors):
    candidates = _escalate(kinds, odd)
    truants = {c: _truant(c, odd) for c in candidates}
    assert len(candidates) == tried
    kept = {c for c, t in truants.items() if t is None}
    assert kept == {tuple(sorted(spec_of(name).terms)) for name in survivors}
    # an exclusion rests on an exact miss, not on the window alone
    for c, t in truants.items():
        if t is not None:
            assert not oracle.exists(FormSpec(c), t), (c, t)


def test_escalated_triangular_forms_meet_the_theorem_of_eight():
    # Bosma and Kane (2013): a sum of triangular numbers with positive
    # coefficients is universal iff it represents 1, 2, 4, 5 and 8
    verdicts = [
        (_truant(c, False) is None, all(oracle.exists(FormSpec(c), n) for n in (1, 2, 4, 5, 8)))
        for c in _escalate(("tri", "tri", "tri"), False)
    ]
    assert all(universal == eight for universal, eight in verdicts)
    assert [universal for universal, _ in verdicts].count(False) == 1


def test_entry_validation():
    with pytest.raises(ValueError):
        CatalogEntry("theorem2", "x", "all", "constructive")  # names nothing
    with pytest.raises(ValueError):
        CatalogEntry("theorem2", "x2+3y2+t", "weekends", "constructive")
    with pytest.raises(ValueError):
        CatalogEntry("theorem1_i", "no-such-check", "all", "established")


# ── range scans ────────────────────────────────────────────────────────────


def test_theorem2_single_point_oracle():
    reports = verify_theorem2_range(0, 0, mode="oracle")
    assert len(reports) == 5
    for r in reports:
        assert r.verified_count == 1
        assert r.counterexamples == ()
        assert r.mode == "oracle"


def test_theorem2_constructive_range():
    for r in verify_theorem2_range(0, 400, mode="constructive"):
        assert r.verified_count == 401
        assert r.counterexamples == ()


def test_certificate_that_does_not_verify_is_a_fault(monkeypatch):
    # the five forms represent every n, so a constructive scan reports no
    # counterexample: a certificate that does not verify is the program's fault
    real = sv.verify
    monkeypatch.setattr(sv, "verify", lambda cert: cert.n not in (250, 260) and real(cert))
    with pytest.raises(AssertionError, match=r"theorem2:x2\+6t\+t: .*n=250 does not verify"):
        verify_theorem2_range(0, 500, forms=[MixedForm.X2_6T_T])


def test_theorem2_modes_agree():
    cons = verify_theorem2_range(0, 250, mode="constructive")
    orc = verify_theorem2_range(0, 250, mode="oracle")
    for a, b in zip(cons, orc):
        assert a.entry == b.entry
        assert (a.verified_count, a.counterexamples) == (b.verified_count, b.counterexamples)


def test_theorem2_form_subset():
    reports = verify_theorem2_range(0, 30, forms=[MixedForm.X2_6T_T])
    assert len(reports) == 1
    assert reports[0].entry.name == "x2+6t+t"


def test_theorem2_forms_by_spelling_or_member():
    (r,) = verify_theorem2_range(0, 10, forms=["x2+6t+t"])
    assert (r.entry.name, r.verified_count) == ("x2+6t+t", 11)
    (r,) = verify_theorem2_range(0, 10, forms=[MixedForm.X2_3T_T, "x2+3t+t"])
    assert (r.entry.name, r.verified_count) == ("x2+3t+t", 11)
    for forms in ([], ["x2+6t+t+t"]):
        with pytest.raises(ValueError):
            verify_theorem2_range(0, 10, forms=forms)


def test_unknown_form_names_the_valid_ones():
    valid = ", ".join(f.value for f in MixedForm)
    with pytest.raises(ValueError) as exc:
        verify_theorem2_range(0, 1, forms=["bogus"])
    assert str(exc.value) == f"unknown form 'bogus', expected one of {valid}"


def test_scan_accounting_invariant():
    for r in verify_catalog(None, 0, 160):
        candidates = sum(1 for n in range(0, 161) if _in(r.entry, n))
        assert r.verified_count + len(r.counterexamples) == candidates
        assert r.counterexamples == ()


def _in(entry, n):
    if entry.domain == "positive":
        return n >= 1
    if entry.domain == "positive_odd":
        return n >= 1 and n % 2 == 1
    return True


def test_catalog_sources_scan_clean():
    assert len(verify_catalog("theorem1_ii", 0, 120)) == 10
    reports = verify_catalog("panaitopol", 1, 199)
    assert len(reports) == 3
    for r in reports:
        assert r.verified_count == 100  # odd values in [1, 199]
        assert r.counterexamples == ()


def test_bad_ranges_rejected():
    with pytest.raises(ValueError):
        verify_theorem2_range(5, 2)
    with pytest.raises(ValueError):
        verify_theorem2_range(-1, 2)
    with pytest.raises(ValueError):
        verify_theorem2_range(0, 10, mode="psychic")
    # a bool bound would be reported as lo=True; a float reaches range()
    for lo, hi, name in (
        (True, 3, "lo"), (5.0, 6, "lo"), ("0", 5, "lo"),
        (0, 5.0, "hi"), (0, False, "hi"), (0, True, "hi"), (0, "5", "hi"),
    ):
        with pytest.raises(TypeError, match=f"^{name} must be an int"):
            verify_theorem2_range(lo, hi)
    with pytest.raises(ValueError):
        verify_catalog(None, 0, 10, jobs=0)


# ── determinism under partitioning ─────────────────────────────────────────


def _strip_wall(reports):
    return [
        (r.entry.entry_id, r.lo, r.hi, r.verified_count, r.counterexamples, r.mode)
        for r in reports
    ]


def _spy_on_pools(monkeypatch):
    """The worker count, this process included, of every pool a scan
    starts, in order."""
    started = []
    real = sv._start_children

    def spy(context, run, counter, workers):
        started.append(workers)
        return real(context, run, counter, workers)

    monkeypatch.setattr(sv, "_start_children", spy)
    return started


def _free_pool(monkeypatch):
    # a pool that costs nothing to start or feed always pays for itself
    monkeypatch.setattr(sv, "POOL_START_S", 0.0)
    monkeypatch.setattr(sv, "POOL_UNIT_S", 0.0)
    monkeypatch.setattr(sv, "_usable_cpus", lambda: 8)
    return _spy_on_pools(monkeypatch)


def _no_pool(*args, **kwargs):
    raise AssertionError("a process pool was started")


def test_worker_count_does_not_change_reports(monkeypatch):
    # the oracle scan is one sieved unit per form; the constructive one is
    # split into 64-value chunks, so a pool merges a partitioned range
    monkeypatch.setattr(sv, "DEFAULT_CHUNK", 64)
    started = _free_pool(monkeypatch)
    for mode in ("oracle", "constructive"):
        base = verify_theorem2_range(0, 700, mode=mode, jobs=1)
        for jobs in (2, 5):
            again = verify_theorem2_range(0, 700, mode=mode, jobs=jobs)
            assert _strip_wall(again) == _strip_wall(base)
    assert started == [2, 5, 2, 5]


def test_small_survey_runs_in_this_process(monkeypatch):
    # 35 sieved 128-value chunks take about 7 ms, less than a pool costs
    base = verify_catalog(None, 16384, 16511, jobs=1)
    monkeypatch.setattr(sv, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(sv, "_start_children", _no_pool)
    assert _strip_wall(verify_catalog(None, 16384, 16511, jobs=2)) == _strip_wall(base)


def test_wide_constructive_scan_starts_a_pool(monkeypatch):
    # five 1024-value constructive chunks take about 75 ms
    base = verify_theorem2_range(0, 1023, mode="constructive", jobs=1)
    monkeypatch.setattr(sv, "_usable_cpus", lambda: 2)
    started = _spy_on_pools(monkeypatch)
    pooled = verify_theorem2_range(0, 1023, mode="constructive", jobs=2)
    assert started == [2]
    assert _strip_wall(pooled) == _strip_wall(base)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork to take away")
def test_scan_that_cannot_fork_prices_a_spawned_pool(monkeypatch):
    # five constructive units of 2048 values near 9e5, priced at about 0.1 s:
    # a forked pool pays for itself at --jobs 2, a spawned one does not
    monkeypatch.setattr(sv, "_usable_cpus", lambda: 2)
    units = [(e, "constructive", 900_000, 902_047) for e in catalog_entries("theorem2")]
    assert 0.08 < sum(sv._price(*unit[1:]) for unit in units) < 0.12
    assert sv._can_fork() and sv._plan_workers(2, units) == 2
    monkeypatch.delattr(os, "fork")
    assert not sv._can_fork() and sv._plan_workers(2, units) == 1
    monkeypatch.setattr(sv, "_start_children", _no_pool)
    reports = verify_theorem2_range(900_000, 902_047, jobs=2)
    assert [r.verified_count for r in reports] == [2048] * 5


@contextlib.contextmanager
def _deadline(seconds):
    """Fail with TimeoutError, rather than hang, past seconds."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def _split_units(monkeypatch, child, here=None):
    """Scan every unit a pool child takes with child(unit), and every unit
    this process takes with here(unit) (the real scan by default), but only
    once a child has started one, so that both take some.  Returns the event
    a child sets, to be cleared before the next scan."""
    parent = os.getpid()
    began = multiprocessing.get_context("fork").Event()
    here = here or sv._scan_unit

    def scan(unit):
        if os.getpid() != parent:
            began.set()
            return child(unit)
        if not began.wait(60):
            raise TimeoutError("no pool child took a unit")
        return here(unit)

    monkeypatch.setattr(sv, "_scan_unit", scan)
    return began


# The next three pools are each this process and one forked child over the
# five one-form units of [0, 1023]; the patched scan reaches the child only
# by fork.
_needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="the child must inherit a patch")


@_needs_fork
def test_child_error_is_reraised_and_no_child_outlives_it(monkeypatch):
    started = _free_pool(monkeypatch)

    def child(unit):
        raise AssertionError(f"{unit[0].entry_id}: n={unit[2]} failed in a child")

    _split_units(monkeypatch, child)
    with _deadline(60), pytest.raises(AssertionError, match=r": n=0 failed in a child$"):
        verify_theorem2_range(0, 1023, jobs=2)
    assert started == [2]
    assert multiprocessing.active_children() == []


@_needs_fork
def test_child_that_dies_mid_unit_is_an_internal_fault(monkeypatch, capsys):
    started = _free_pool(monkeypatch)
    began = _split_units(monkeypatch, lambda unit: os._exit(1))
    with _deadline(60):
        with pytest.raises(RuntimeError, match="exited with code 1 before reporting"):
            verify_theorem2_range(0, 1023, jobs=2)
        began.clear()
        assert main(["verify-range", "0", "1023", "--jobs", "2"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "RuntimeError: scan worker" in err
    assert started == [2, 2]
    assert multiprocessing.active_children() == []


@_needs_fork
def test_fault_here_drains_a_child_blocked_on_a_large_result(monkeypatch):
    # the child's rows are more than a pipe holds, so it blocks sending them
    # until this process, whose own unit raised, reads them
    started = _free_pool(monkeypatch)
    row = (0, list(range(1 << 16)), 0.0)
    assert len(pickle.dumps({1: row})) > 64 * 1024

    def here(unit):
        raise AssertionError(f"{unit[0].entry_id}: n={unit[2]} failed here")

    _split_units(monkeypatch, lambda unit: row, here)
    with _deadline(60), pytest.raises(AssertionError, match=r": n=0 failed here$"):
        verify_theorem2_range(0, 1023, jobs=2)
    assert started == [2]
    assert multiprocessing.active_children() == []


@_needs_fork
def test_pool_scans_every_unit_once(monkeypatch):
    # five workers on at most two cores race for 2,000 one-value units; a
    # lost update of the shared counter would scan some unit twice
    scans = multiprocessing.get_context("fork").Value("q", 0)
    real = sv._scan_unit

    def counted(unit):
        with scans.get_lock():
            scans.value += 1
        return real(unit)

    monkeypatch.setattr(sv, "_scan_unit", counted)
    monkeypatch.setattr(sv, "DEFAULT_CHUNK", 1)
    started = _free_pool(monkeypatch)
    with _deadline(60):
        reports = verify_theorem2_range(0, 399, jobs=5)
    assert started == [5]
    assert scans.value == 2000
    assert [r.verified_count for r in reports] == [400] * 5
    assert multiprocessing.active_children() == []


# A pool that costs nothing, spawned as on a platform that cannot fork; the
# scan's stdout, then the pools it started and the children left running,
# on stderr.
_SPAWNED_POOL = """
import multiprocessing, sys
import mixedsums.cli, mixedsums.survey as sv

sv._can_fork = lambda: False
sv.POOL_SPAWN_S = sv.POOL_UNIT_S = 0.0
sv._usable_cpus = lambda: 2
started = []
real = sv._start_children

def spy(context, run, counter, workers):
    started.append((context.get_start_method(), workers))
    return real(context, run, counter, workers)

sv._start_children = spy
code = mixedsums.cli.main(["verify-range", "0", "1023", "--jobs", sys.argv[1], "--json"])
print(started, multiprocessing.active_children(), file=sys.stderr)
sys.exit(code)
"""


def test_spawned_pool_prints_the_same_bytes():
    outs = []
    for jobs, pools in (("1", []), ("2", [("spawn", 2)])):
        proc = _run_python("-c", _SPAWNED_POOL, jobs)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == f"{pools} []\n"
        outs.append(proc.stdout)
    assert outs[0] == outs[1] != ""


@pytest.mark.parametrize(
    "entries, hi, workers",
    [(CATALOG, 40_000, 1), (CATALOG, 262_143, 2), ((sv._CONTROL,), 100_000, 1)],
    ids=["survey", "wide-survey", "control"],
)
def test_wide_oracle_scans_plan_a_pool(monkeypatch, entries, hi, workers):
    # three scans CI compares at --jobs 1 and 2; each sieves, so it is one
    # unit per entry: 35 units of about 1 ms cost less than a pool, 35 of
    # about 9 ms pay for one, and the control's one unit runs in this process
    monkeypatch.setattr(sv, "_usable_cpus", lambda: 2)
    assert all(sv._path(e, "oracle", 0, hi) == "sieved" for e in entries)
    units = [(e, "sieved", 0, hi) for e in entries]
    assert sv._plan_workers(2, units) == workers


_LIST = catalog_entries("theorem1_ii")[0]


def _priced(entry, lo, hi, sieved):
    prefix = "control-" if entry is sv._CONTROL else ""
    return pytest.param(entry, lo, hi, sieved, id=f"{prefix}{lo}-{hi}-{sieved}")


@pytest.mark.parametrize(
    "entry, lo, hi, sieved",
    [
        _priced(_LIST, 16384, 16384, False),
        _priced(_LIST, 16497, 16500, False),
        _priced(_LIST, 16496, 16500, False),
        _priced(_LIST, 16477, 16500, True),
        _priced(_LIST, 999757, 10**6, False),
        _priced(_LIST, 10**6 - 1719, 10**6, False),
        _priced(_LIST, 10**6 - 1720, 10**6, True),
        _priced(_LIST, 10**9, 10**9 + 1, False),
        _priced(sv._CONTROL, 10**6 - 17, 10**6, True),
        _priced(sv._CONTROL, 999757, 10**6, True),
    ],
)
def test_sieve_choice_is_the_cheaper_estimate(entry, lo, hi, sieved):
    # sieved: the window and one exists hit per block; pointwise: one exists
    # hit per value.  A catalog entry takes the cheaper path; the control
    # sieves even where pointwise is priced cheaper
    width = hi - lo + 1
    hit = sv.EXISTS_HIT_S * hi**0.25
    window = sv.WINDOW_ROOT_S * math.sqrt(hi) + sv.WINDOW_POW_S * hi**1.75
    prices = (-(-width // sv.DEFAULT_CHUNK) * hit + window, width * hit)
    assert (sv._price("sieved", lo, hi), sv._price("pointwise", lo, hi)) == pytest.approx(prices)
    path = "sieved" if sieved else "pointwise"
    assert sv._path(entry, "oracle", lo, hi) == path
    if entry is sv._CONTROL:
        assert prices[0] > prices[1]
    else:
        assert sieved == (prices[0] < prices[1])


@pytest.mark.parametrize("bound", [sv.MAX_WINDOW_HI, -1], ids=["bounded", "no-window"])
def test_control_always_sieves(monkeypatch, bound):
    # however narrow the range and whatever the window bound, the control is
    # one window: one value, the 17 values up to the cap, the cap alone
    monkeypatch.setattr(sv, "MAX_WINDOW_HI", bound)
    calls = _count_calls(monkeypatch, "representable_window")
    ranges = [(8300, 8300), (999984, 10**6), (10**6, 10**6)]
    for lo, hi in ranges:
        assert sv._path(sv._CONTROL, "oracle", lo, hi) == "sieved"
        assert sv._path(_LIST, "oracle", lo, hi) == "pointwise"
        r = negative_control(lo, hi)
        assert r.counterexamples == ((999991, 999996, 999999) if lo == 999984 else ())
    assert calls == [(sv._CONTROL.spec, lo, hi) for lo, hi in ranges]


def test_sieved_unit_window_is_bounded():
    # a unit's window never reaches past 2^26, however cheap the model prices
    # it
    assert sv._path(_LIST, "oracle", 0, 1 << 26) == "sieved"
    assert sv._path(_LIST, "oracle", 0, (1 << 26) + 1) == "pointwise"
    hi = (1 << 26) + 1
    assert sv._price("sieved", 0, hi) < sv._price("pointwise", 0, hi)


def _record_units(monkeypatch):
    """Every unit a scan plans, in run order; each is answered as clean
    without being scanned."""
    units = []

    def recorded(unit):
        entry, _, lo, hi = unit
        units.append(unit)
        return len(sv._domain_values(entry.domain, lo, hi)), [], 0.0

    monkeypatch.setattr(sv, "_scan_unit", recorded)
    return units


def test_wide_scan_plans_a_bounded_number_of_units(monkeypatch):
    # 2^28 values plan 4096 chunks of 2^16, not 16384 of 2^14, and 10^12 + 1
    # values plan 4096 per entry, not 61 million
    units = _record_units(monkeypatch)
    (r,) = verify_theorem2_range(0, 2**28 - 1, forms=[MixedForm.X2_6T_T])
    assert [u[1:] for u in units] == [
        ("constructive", c, c + 2**16 - 1) for c in range(0, 2**28, 2**16)
    ]
    assert r.verified_count == 2**28
    units.clear()
    verify_catalog("theorem1_i", 0, 10**12)
    assert len(units) == 2 * 4096
    assert {u[1] for u in units} == {"pointwise"}


def test_entry_is_planned_once_on_one_path(monkeypatch):
    # from 10^6 across 2^26 the entry as a whole is judged pointwise, so
    # every chunk is, though a chunk below about 4.6e6 alone would sieve
    units = _record_units(monkeypatch)
    lo = 10**6
    hi = lo + 2**26 - 1
    assert sv._path(_LIST, "oracle", lo, hi) == "pointwise"
    assert sv._path(_LIST, "oracle", lo, lo + 2**14 - 1) == "sieved"
    (r,) = sv._run_scans([_LIST], "oracle", lo, hi, 1)
    assert units == [(_LIST, "pointwise", c, c + 2**14 - 1) for c in range(lo, hi, 2**14)]
    assert r.verified_count == 2**26


def test_pool_size_is_bounded(monkeypatch):
    monkeypatch.setattr(sv.os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    monkeypatch.setattr(sv.os, "cpu_count", lambda: 64)
    assert _pool_size(10**9, 10**6) == 8
    assert _pool_size(10**9, 3) == 3
    assert _pool_size(5, 10**6) == 5
    assert _pool_size(1, 100) == 1
    # without an affinity set, every CPU the machine has counts
    monkeypatch.delattr(sv.os, "sched_getaffinity")
    assert _pool_size(10**9, 10**6) == 64
    monkeypatch.setattr(sv.os, "cpu_count", lambda: None)
    assert _pool_size(10**9, 10**6) == 1


def test_clean_sieved_unit_keeps_no_per_value_copy():
    # a clean unit reads its verdicts as bits, so its peak is the window
    # build's bitsets (about 0.94 bytes per value), with no byte-per-value
    # copy of the verdicts beside them
    hi = 1 << 18
    oracle.forget_pair()
    tracemalloc.start()
    try:
        verified, bad, _ = sv._scan_unit((_LIST, "sieved", 0, hi))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        oracle.forget_pair()
    assert (verified, bad) == (hi + 1, [])
    assert peak < 1.5 * (hi + 1)


@pytest.mark.parametrize("lo, hi", [(0, 1200), (601, 1600)])
def test_pointwise_scan_equals_sieved_scan(monkeypatch, lo, hi):
    # one wide sieved chunk (the defaults) against 64-value chunks that a
    # negative window bound makes pointwise; an odd lo moves every domain's
    # chunk edges
    sieved = _strip_wall(verify_catalog(None, lo, hi))
    monkeypatch.setattr(sv, "DEFAULT_CHUNK", 64)
    monkeypatch.setattr(sv, "MAX_WINDOW_HI", -1)
    monkeypatch.setattr(sv, "representable_window", _no_sieve)
    assert _strip_wall(verify_catalog(None, lo, hi)) == sieved


# ── sieve path and pointwise judge ─────────────────────────────────────────


class SieveCalled(Exception):
    pass


def _no_sieve(spec, lo, hi):
    raise SieveCalled(f"{spec} [{lo}, {hi}]")


def test_narrow_window_at_large_n_stays_pointwise(monkeypatch):
    monkeypatch.setattr(sv, "representable_window", _no_sieve)
    (r,) = verify_theorem2_range(10**9, 10**9 + 1, mode="oracle", forms=[MixedForm.X2_6T_T])
    assert (r.verified_count, r.counterexamples) == (2, ())


def test_wide_window_uses_the_sieve(monkeypatch):
    monkeypatch.setattr(sv, "representable_window", _no_sieve)
    with pytest.raises(SieveCalled):
        verify_theorem2_range(0, 500, mode="oracle", forms=[MixedForm.X2_6T_T])


def test_constructive_scan_never_sieves(monkeypatch):
    monkeypatch.setattr(sv, "representable_window", _no_sieve)
    (r,) = verify_theorem2_range(0, 500, mode="constructive", forms=[MixedForm.X2_6T_T])
    assert r.verified_count == 501


def test_predicate_is_looked_up_when_called(monkeypatch):
    name = "mixed-parity-two-squares"
    monkeypatch.setattr(
        sv, "constrained_two_squares_triangular_window", lambda lo, hi: _no_sieve(name, lo, hi)
    )
    with pytest.raises(SieveCalled):
        verify_catalog("theorem1_i", 0, 100)
    # a one-value chunk at 10^6 is judged pointwise
    monkeypatch.setattr(
        sv, "exists_constrained_two_squares_triangular", lambda n: _no_sieve(name, n, n)
    )
    with pytest.raises(SieveCalled):
        verify_catalog("theorem1_i", 10**6, 10**6)


def _flip_window_bit(monkeypatch, k):
    real = sv.representable_window
    monkeypatch.setattr(
        sv, "representable_window", lambda spec, lo, hi: real(spec, lo, hi) ^ 1 << k
    )


def test_flipped_sieve_bit_is_caught(monkeypatch):
    _flip_window_bit(monkeypatch, 250)
    with pytest.raises(AssertionError, match=r"theorem2:x2\+6t\+t: .*n=250"):
        verify_theorem2_range(0, 500, mode="oracle", forms=[MixedForm.X2_6T_T])


def test_every_catalog_counterexample_is_judged(monkeypatch):
    # two spurious holes in a term list's window, and a pointwise judge that
    # wrongly agrees at the first: only judging the second one catches them
    real_window, real_exists = sv.representable_window, sv.exists
    monkeypatch.setattr(
        sv,
        "representable_window",
        lambda spec, lo, hi: real_window(spec, lo, hi) & ~(1 << 250 - lo | 1 << 260 - lo),
    )
    monkeypatch.setattr(sv, "exists", lambda spec, n: n != 250 and real_exists(spec, n))
    with pytest.raises(AssertionError, match=r"theorem2:x2\+6t\+t: .*n=260 is not represented"):
        verify_theorem2_range(0, 500, mode="oracle", forms=[MixedForm.X2_6T_T])


def test_flipped_first_bit_is_caught(monkeypatch):
    # a spurious "represented" mark is only re-judged at the chunk's first n
    _flip_window_bit(monkeypatch, 0)
    with pytest.raises(AssertionError, match=r"control:1\*sq\+1\*sq\+1\*sq: .*n=7"):
        negative_control(7, 300)


# Run under python -O: one bit of the sieve window is flipped, and the scan
# must still raise through the pointwise judge rather than report n=250 as a
# counterexample.
_FLIPPED_BIT = """
import json, sys
import mixedsums.survey as sv
from mixedsums.cli import main
from mixedsums.forms import MixedForm

real = sv.representable_window
sv.representable_window = lambda spec, lo, hi: real(spec, lo, hi) ^ 1 << 250
try:
    sv.verify_theorem2_range(0, 500, mode="oracle", forms=[MixedForm.X2_6T_T])
    outcome = "returned"
except AssertionError as exc:
    outcome = str(exc)
print(json.dumps({"optimize": sys.flags.optimize, "debug": __debug__, "outcome": outcome}))
"""


def _run_python(*args):
    src = str(Path(mixedsums.__file__).parents[1])
    path = [src, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [src]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def _run_under_python_O(script):
    proc = _run_python("-O", "-c", script)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_flipped_sieve_bit_is_caught_under_python_O():
    out = _run_under_python_O(_FLIPPED_BIT)
    assert out["optimize"] == 1 and out["debug"] is False
    assert out["outcome"].startswith("theorem2:x2+6t+t: ")
    assert "n=250" in out["outcome"]


# A worker that forkserver or spawn starts imports survey afresh and never
# sees a patch made in its parent.  The scan forks its workers wherever the
# platform can, whatever the default start method, so the flipped bit
# reaches them and the fault exits 3.
_FLIPPED_BIT_IN_A_WORKER = """
import multiprocessing, sys
import mixedsums.cli, mixedsums.survey as sv

multiprocessing.set_start_method("forkserver")
sv._usable_cpus = lambda: 2
real = sv.representable_window
sv.representable_window = lambda spec, lo, hi: real(spec, lo, hi) ^ 1 << 250
sys.exit(mixedsums.cli.main(["survey", "0", "262143", "--jobs", "2"]))
"""


@pytest.mark.skipif(
    "forkserver" not in multiprocessing.get_all_start_methods(), reason="no forkserver"
)
def test_flipped_bit_reaches_workers_under_any_default_start_method():
    proc = _run_python("-c", _FLIPPED_BIT_IN_A_WORKER)
    assert proc.returncode == 3, proc.stderr
    assert "n=250" in proc.stderr


# n=8 is represented, but the flipped bit reads it as the control's second
# counterexample, after the first one (n=7) was judged pointwise: the
# comparison with the classifier must catch it, under python -O too.
_FLIPPED_BIT_AFTER_MISS = """
import json, sys
import mixedsums.survey as sv

real = sv.representable_window
sv.representable_window = lambda spec, lo, hi: real(spec, lo, hi) ^ 1 << 8
try:
    sv.negative_control(0, 300)
    outcome = "returned"
except AssertionError as exc:
    outcome = str(exc)
print(json.dumps({"optimize": sys.flags.optimize, "debug": __debug__, "outcome": outcome}))
"""


def test_flipped_bit_after_first_miss_is_caught(monkeypatch):
    _flip_window_bit(monkeypatch, 8)
    with pytest.raises(
        AssertionError,
        match=r"control scan found 49 counterexamples but the classifier excludes 48"
        r" on \[0, 300\]; first disagreement at n=8$",
    ):
        negative_control(0, 300)


def test_flipped_bit_after_first_miss_is_caught_under_python_O():
    out = _run_under_python_O(_FLIPPED_BIT_AFTER_MISS)
    assert out["optimize"] == 1 and out["debug"] is False
    assert out["outcome"].startswith("control scan found ")
    assert out["outcome"].endswith("n=8")


def _count_calls(monkeypatch, name):
    """The arguments of every call the scan engine makes to sv.<name>."""
    calls = []
    real = getattr(sv, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(sv, name, counted)
    return calls


def test_later_misses_skip_exists(monkeypatch):
    calls = _count_calls(monkeypatch, "exists")
    r = negative_control(0, 10**5)
    assert len(r.counterexamples) == 16_664
    # one sieved unit judges the first n of each of its seven 2^14-value
    # blocks (hits) and its first counterexample pointwise
    blocks = [k * sv.DEFAULT_CHUNK for k in range(7)]
    assert sorted(n for _, n in calls) == sorted([*blocks, 7])


def test_control_judges_each_block_once(monkeypatch):
    # 21 blocks, the last one 41 values wide, and the first counterexample
    calls = _count_calls(monkeypatch, "exists")
    negative_control(0, 16384 * 20 + 40)
    assert len(calls) == 22


def test_sieved_scan_builds_one_window_per_entry(monkeypatch):
    calls = _count_calls(monkeypatch, "representable_window")
    assert len(verify_catalog("theorem1_ii", 0, 3 * 2**14 - 1)) == 10
    assert len(calls) == 10
    assert {(lo, hi) for _, lo, hi in calls} == {(0, 3 * 2**14 - 1)}


def _count_pair_builds(monkeypatch):
    """The (first, second, hi) of every pair sumset the oracle builds."""
    builds = []
    real = oracle._pair_sumset

    def counted(first, second, hi):
        builds.append((first, second, hi))
        return real(first, second, hi)

    monkeypatch.setattr(oracle, "_pair_sumset", counted)
    return builds


def test_sieved_scan_builds_each_shared_pair_once(monkeypatch):
    # the 34 term lists sum their windows' first two slots from only seven
    # distinct pairs; the units run grouped by pair, the reports come back
    # in catalog order
    builds = _count_pair_builds(monkeypatch)
    reports = verify_catalog(None, 16384, 16511, jobs=1)
    assert [r.entry for r in reports] == list(CATALOG)
    assert sum(e.predicate is None for e in CATALOG) == 34
    assert len(builds) == len(set(builds)) == 7
    assert oracle._last_pair is None


def test_no_pair_outlives_a_scan(monkeypatch):
    oracle.representable_window(sv._CONTROL.spec, 0, 500)
    negative_control(0, 300)
    assert oracle._last_pair is None
    # nor one that raised
    _flip_window_bit(monkeypatch, 250)
    with pytest.raises(AssertionError):
        verify_theorem2_range(0, 500, mode="oracle", forms=[MixedForm.X2_6T_T])
    assert oracle._last_pair is None


def test_one_value_survey_near_2_to_61_finishes():
    # n = t_(2^31), even: a one-value scan is judged pointwise, and every
    # judge must answer after a few outer values, since a walk that missed
    # there would try about n pairs
    n = 2305843010287435776
    reports = verify_catalog(None, n, n)
    assert [(r.verified_count, r.counterexamples) for r in reports] == [
        (r.entry.domain != "positive_odd", ()) for r in reports
    ]


def test_block_first_n_is_judged(monkeypatch):
    # 114688 = 4^7 * 7 is a counterexample and the first n of the unit's
    # eighth block; the window wrongly marks it represented, and the
    # pointwise judge at the block start must tell before the classifier does
    bad = 7 * sv.DEFAULT_CHUNK
    real = sv.representable_window
    monkeypatch.setattr(
        sv, "representable_window", lambda spec, lo, hi: real(spec, lo, hi) | 1 << (bad - lo)
    )
    with pytest.raises(AssertionError, match=rf"n={bad} is represented, the pointwise"):
        negative_control(0, 120_000)


# ── negative control ───────────────────────────────────────────────────────


def test_negative_control_exact_sets():
    r = negative_control(0, 100)
    assert r.counterexamples == (7, 15, 23, 28, 31, 39, 47, 55, 60, 63, 71, 79, 87, 92, 95)
    assert r.counterexamples == tuple(gauss_legendre_excluded(100))
    assert negative_control(0, 6).counterexamples == ()
    assert negative_control(7, 7).counterexamples == (7,)


def test_negative_control_is_bounded():
    assert negative_control(MAX_ENUMERATED_N, MAX_ENUMERATED_N).verified_count == 1
    with pytest.raises(ValueError, match=f"hi={MAX_ENUMERATED_N + 1} is above {MAX_ENUMERATED_N}"):
        negative_control(0, MAX_ENUMERATED_N + 1)


def test_negative_control_accounting():
    r = negative_control(0, 50)
    assert r.verified_count + len(r.counterexamples) == 51
    assert r.entry.source == "control"
    assert r.mode == "oracle"


def test_control_classifier_judges_the_exclusions_and_block_firsts(monkeypatch):
    calls = _count_calls(monkeypatch, "is_three_square_feasible")
    negative_control(0, 10**5)
    blocks = range(0, 10**5 + 1, sv.DEFAULT_CHUNK)
    assert sorted(m for (m,) in calls) == sorted({*gauss_legendre_excluded(10**5), *blocks})


def test_control_classifier_that_excludes_everything_is_caught(monkeypatch):
    # the block-first sample is what a classifier with no "feasible" fails on
    monkeypatch.setattr(sv, "is_three_square_feasible", lambda m: False)
    with pytest.raises(AssertionError, match=r"first disagreement at n=8$"):
        negative_control(8, 300)


def test_control_mismatch_is_loud(monkeypatch):
    monkeypatch.setattr(sv, "is_three_square_feasible", lambda m: True)
    with pytest.raises(AssertionError, match="control scan found"):
        negative_control(0, 20)


_CONTROL_MISMATCH = """
import json, sys
import mixedsums.survey as sv

sv.is_three_square_feasible = lambda m: True
try:
    sv.negative_control(0, 20)
    outcome = "returned"
except AssertionError as exc:
    outcome = str(exc)
print(json.dumps({"optimize": sys.flags.optimize, "debug": __debug__, "outcome": outcome}))
"""


def test_control_mismatch_is_loud_under_python_O():
    out = _run_under_python_O(_CONTROL_MISMATCH)
    assert out["optimize"] == 1 and out["debug"] is False
    assert out["outcome"].startswith("control scan found")
