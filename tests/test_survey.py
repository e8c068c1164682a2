from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import mixedsums
import mixedsums.survey as sv
from mixedsums.forms import MixedForm
from mixedsums.oracle import spec_of
from mixedsums.survey import (
    CATALOG,
    SOURCES,
    CatalogEntry,
    ControlMismatchError,
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
    with pytest.raises(ValueError):
        verify_catalog(None, 0, 10, jobs=0)


# ── determinism under partitioning ─────────────────────────────────────────


def _strip_wall(reports):
    return [
        (r.entry.entry_id, r.lo, r.hi, r.verified_count, r.counterexamples, r.mode)
        for r in reports
    ]


def test_worker_count_does_not_change_reports(monkeypatch):
    monkeypatch.setattr(sv, "DEFAULT_CHUNK", 64)
    base = verify_theorem2_range(0, 700, mode="oracle", jobs=1)
    for jobs in (2, 5):
        again = verify_theorem2_range(0, 700, mode="oracle", jobs=jobs)
        assert _strip_wall(again) == _strip_wall(base)


def test_control_partitioning_keeps_order(monkeypatch):
    monkeypatch.setattr(sv, "DEFAULT_CHUNK", 32)
    a = negative_control(0, 300, jobs=1)
    b = negative_control(0, 300, jobs=3)
    assert a.counterexamples == b.counterexamples
    assert list(a.counterexamples) == sorted(a.counterexamples)


def test_pool_size_is_bounded(monkeypatch):
    monkeypatch.setattr(sv.os, "cpu_count", lambda: 8)
    assert _pool_size(10**9, 10**6) == 8
    assert _pool_size(10**9, 3) == 3
    assert _pool_size(5, 10**6) == 5
    assert _pool_size(1, 100) == 1
    monkeypatch.setattr(sv.os, "cpu_count", lambda: None)
    assert _pool_size(10**9, 10**6) == 1


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


def _flip_window_bit(monkeypatch, k):
    real = sv.representable_window
    monkeypatch.setattr(
        sv, "representable_window", lambda spec, lo, hi: real(spec, lo, hi) ^ 1 << k
    )


def test_flipped_sieve_bit_is_caught(monkeypatch):
    _flip_window_bit(monkeypatch, 250)
    with pytest.raises(AssertionError, match=r"theorem2:x2\+6t\+t: .*n=250"):
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


def _run_under_python_O(script):
    src = str(Path(mixedsums.__file__).parents[1])
    path = [src, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [src]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_flipped_sieve_bit_is_caught_under_python_O():
    out = _run_under_python_O(_FLIPPED_BIT)
    assert out["optimize"] == 1 and out["debug"] is False
    assert out["outcome"].startswith("theorem2:x2+6t+t: ")
    assert "n=250" in out["outcome"]


# n=8 is represented, but the flipped bit reads it as the control's second
# counterexample, after the first one (n=7) was judged pointwise: the
# rebracketed window must catch it, under python -O too.
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
    with pytest.raises(AssertionError, match=r"control:1\*sq\+1\*sq\+1\*sq: .*rebracketed.*n=8\b"):
        negative_control(0, 300)


def test_flipped_bit_after_first_miss_is_caught_under_python_O():
    out = _run_under_python_O(_FLIPPED_BIT_AFTER_MISS)
    assert out["optimize"] == 1 and out["debug"] is False
    assert out["outcome"].startswith("control:1*sq+1*sq+1*sq: ")
    assert out["outcome"].endswith("n=8")


def test_later_misses_skip_exists(monkeypatch):
    calls = []
    real = sv.exists

    def counted(spec, n):
        calls.append(n)
        return real(spec, n)

    monkeypatch.setattr(sv, "exists", counted)
    r = negative_control(0, 10**5)
    assert len(r.counterexamples) == 16_664
    # seven chunks of at most 2^14 values, each judging its first n (a hit)
    # and its first counterexample pointwise
    chunks = [n // sv.DEFAULT_CHUNK for n in calls]
    assert len(calls) == 14
    assert all(chunks.count(c) == 2 for c in range(7))


# ── negative control ───────────────────────────────────────────────────────


def test_negative_control_exact_sets():
    r = negative_control(0, 100)
    assert r.counterexamples == (7, 15, 23, 28, 31, 39, 47, 55, 60, 63, 71, 79, 87, 92, 95)
    assert r.counterexamples == tuple(gauss_legendre_excluded(100))
    assert negative_control(0, 6).counterexamples == ()
    assert negative_control(7, 7).counterexamples == (7,)


def test_negative_control_accounting():
    r = negative_control(0, 50)
    assert r.verified_count + len(r.counterexamples) == 51
    assert r.entry.source == "control"
    assert r.mode == "oracle"


def test_control_mismatch_is_loud(monkeypatch):
    monkeypatch.setattr(sv, "is_three_square_feasible", lambda m: True)
    with pytest.raises(ControlMismatchError):
        negative_control(0, 20)
