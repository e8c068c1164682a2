"""Range verification over the built-in form catalogs.

Catalog entries are grouped under fixed source labels (theorem2, theorem1_i,
theorem1_ii, theorem1_iii, panaitopol); the CLI --source flag filters on
them.  The theorem2 group holds the five named mixed forms, which can be
scanned constructively (decompose, then re-verify the certificate) or
through the brute-force oracle; every other entry is oracle-only.  Each
entry carries a status tag: "constructive" when witnesses are built by the
decomposers, "established" for complete statements that are merely
re-checked here, and "empirical" for coefficient lists whose scan is
evidence, not proof.

Scans run in fixed-size chunks (default 2^14 values) so they can be spread
over a process pool; chunk results are merged in index order, which keeps
reports byte-for-byte identical whatever the worker count.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

from .arith import _check_natural, is_three_square_feasible
from .forms import MixedForm, represent, verify
from .oracle import (
    FormSpec,
    Term,
    exists,
    exists_constrained_two_squares_triangular,
    form_spec_of,
)

DEFAULT_CHUNK = 1 << 14

SOURCES = ("theorem2", "theorem1_i", "theorem1_ii", "theorem1_iii", "panaitopol")

DOMAINS = ("all", "positive", "positive_odd")

# oracle predicates a catalog entry may name instead of a term list
_PREDICATES: dict[str, Callable[[int], bool]] = {
    "mixed-parity-two-squares": exists_constrained_two_squares_triangular,
}


@dataclass(frozen=True)
class CatalogEntry:
    """One scannable claim: a named form, a term list, or a predicate."""

    source: str
    name: str
    domain: str
    status: str
    form: MixedForm | None = None
    spec: FormSpec | None = None
    predicate: str | None = None

    def __post_init__(self) -> None:
        if self.domain not in DOMAINS:
            raise ValueError(f"unknown domain {self.domain!r}")
        payloads = (self.form, self.spec, self.predicate)
        if sum(p is not None for p in payloads) != 1:
            raise ValueError("exactly one of form/spec/predicate must be set")
        if self.predicate is not None and self.predicate not in _PREDICATES:
            raise ValueError(f"unknown predicate {self.predicate!r}")

    @property
    def entry_id(self) -> str:
        return f"{self.source}:{self.name}"


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

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def _sst(a: int, b: int, c: int) -> FormSpec:
    return FormSpec((Term(a, "sq"), Term(b, "sq"), Term(c, "tri")))


def _stt(a: int, b: int, c: int) -> FormSpec:
    return FormSpec((Term(a, "sq"), Term(b, "tri"), Term(c, "tri")))


def _sss(a: int, b: int, c: int) -> FormSpec:
    return FormSpec((Term(a, "sq"), Term(b, "sq"), Term(c, "sq")))


def _spec_entry(source: str, status: str, spec: FormSpec, domain: str = "all") -> CatalogEntry:
    return CatalogEntry(source, str(spec), domain, status, spec=spec)


_THEOREM2 = tuple(
    CatalogEntry("theorem2", f.value, "all", "constructive", form=f) for f in MixedForm
)

_THEOREM1_I = (
    _spec_entry("theorem1_i", "established", _stt(4, 1, 1)),
    CatalogEntry(
        "theorem1_i",
        "mixed-parity-two-squares",
        "positive",
        "established",
        predicate="mixed-parity-two-squares",
    ),
)

_THEOREM1_II = tuple(
    _spec_entry("theorem1_ii", "empirical", _sst(a, b, c))
    for a, b, c in (
        (1, 1, 1),
        (1, 1, 2),
        (1, 2, 1),
        (1, 2, 2),
        (1, 2, 4),
        (1, 3, 1),
        (1, 4, 1),
        (1, 4, 2),
        (1, 8, 1),
        (2, 2, 1),
    )
)

_THEOREM1_III = tuple(
    _spec_entry("theorem1_iii", "empirical", _stt(a, b, c))
    for a, b, c in (
        (1, 1, 1),
        (1, 2, 1),
        (1, 2, 2),
        (1, 3, 1),
        (1, 4, 1),
        (1, 4, 2),
        (1, 5, 2),
        (1, 6, 1),
        (1, 8, 1),
        (2, 1, 1),
        (2, 2, 1),
        (2, 4, 1),
        (3, 2, 1),
        (4, 1, 1),
        (4, 2, 1),
    )
)

_PANAITOPOL = tuple(
    _spec_entry("panaitopol", "established", _sss(a, b, c), domain="positive_odd")
    for a, b, c in ((1, 1, 2), (1, 2, 3), (1, 2, 4))
)

CATALOG = _THEOREM2 + _THEOREM1_I + _THEOREM1_II + _THEOREM1_III + _PANAITOPOL

_CONTROL = CatalogEntry("control", "1*sq+1*sq+1*sq", "all", "control", spec=_sss(1, 1, 1))


def catalog_entries(source_filter: str | None = None) -> tuple[CatalogEntry, ...]:
    """The catalog, optionally restricted to one source label."""
    if source_filter is None:
        return CATALOG
    if source_filter not in SOURCES:
        raise ValueError(f"unknown source {source_filter!r}, expected one of {SOURCES}")
    return tuple(e for e in CATALOG if e.source == source_filter)


# ── scan engine ────────────────────────────────────────────────────────────


def _in_domain(domain: str, n: int) -> bool:
    if domain == "all":
        return True
    if domain == "positive":
        return n >= 1
    return n >= 1 and n % 2 == 1


def _resolve_check(entry: CatalogEntry, mode: str) -> Callable[[int], bool]:
    if entry.predicate is not None:
        return _PREDICATES[entry.predicate]
    if mode == "constructive":
        if entry.form is None:
            raise ValueError(f"{entry.entry_id} has no constructive decomposer")
        form = entry.form
        return lambda n: verify(represent(form, n))
    spec = entry.spec if entry.spec is not None else form_spec_of(entry.form)
    return lambda n: exists(spec, n)


def _scan_chunk(unit: tuple[CatalogEntry, str, int, int]) -> tuple[int, list[int], float]:
    entry, mode, lo, hi = unit
    t0 = time.perf_counter()
    check = _resolve_check(entry, mode)
    domain = entry.domain
    good = 0
    bad: list[int] = []
    for n in range(lo, hi + 1):
        if not _in_domain(domain, n):
            continue
        if check(n):
            good += 1
        else:
            bad.append(n)
    return good, bad, (time.perf_counter() - t0) * 1000.0


def _chunk_bounds(lo: int, hi: int, size: int) -> list[tuple[int, int]]:
    out = []
    c = lo
    while c <= hi:
        out.append((c, min(c + size - 1, hi)))
        c += size
    return out


def _check_range(lo: int, hi: int) -> None:
    _check_natural(lo, "lo")
    _check_natural(hi, "hi")
    if lo > hi:
        raise ValueError(f"empty range: lo={lo} > hi={hi}")


def _pool_size(jobs: int, units: int) -> int:
    """Worker processes for a scan: never more than the units or the CPUs."""
    return min(jobs, units, os.cpu_count() or 1)


def _run_scans(
    tasks: Sequence[tuple[CatalogEntry, str]],
    lo: int,
    hi: int,
    jobs: int,
    chunk_size: int,
) -> list[RangeReport]:
    _check_range(lo, hi)
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    chunks = _chunk_bounds(lo, hi, chunk_size)
    units = [(entry, mode, clo, chi) for entry, mode in tasks for clo, chi in chunks]
    workers = _pool_size(jobs, len(units))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_scan_chunk, units))
    else:
        results = [_scan_chunk(u) for u in units]
    reports = []
    per = len(chunks)
    for i, (entry, mode) in enumerate(tasks):
        rows = results[i * per : (i + 1) * per]
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
    forms: Sequence[MixedForm] | None = None,
    jobs: int = 1,
    chunk_size: int = DEFAULT_CHUNK,
) -> list[RangeReport]:
    """Scan the five named forms over [lo, hi]; one report per form."""
    if mode not in ("constructive", "oracle"):
        raise ValueError(f"unknown mode {mode!r}")
    wanted = tuple(MixedForm) if forms is None else tuple(forms)
    entries = [e for e in _THEOREM2 if e.form in wanted]
    return _run_scans([(e, mode) for e in entries], lo, hi, jobs, chunk_size)


def verify_catalog(
    source_filter: str | None = None,
    lo: int = 0,
    hi: int = 10_000,
    jobs: int = 1,
    chunk_size: int = DEFAULT_CHUNK,
) -> list[RangeReport]:
    """Oracle-scan every matching catalog entry over [lo, hi]."""
    entries = catalog_entries(source_filter)
    return _run_scans([(e, "oracle") for e in entries], lo, hi, jobs, chunk_size)


class ControlMismatchError(RuntimeError):
    """The oracle and the three-square classifier disagreed on the control."""


def negative_control(lo: int, hi: int, jobs: int = 1, chunk_size: int = DEFAULT_CHUNK) -> RangeReport:
    """Scan plain three squares and demand the classical exclusion set.

    The form x^2 + y^2 + z^2 misses exactly the numbers 4^k(8l+7); finding
    precisely those as counterexamples shows the oracle cannot pass
    vacuously.  A disagreement with the independent classifier raises.
    """
    report = _run_scans([(_CONTROL, "oracle")], lo, hi, jobs, chunk_size)[0]
    expected = tuple(m for m in range(lo, hi + 1) if not is_three_square_feasible(m))
    if report.counterexamples != expected:
        raise ControlMismatchError(
            f"control scan found {report.counterexamples} but the classifier"
            f" excludes {expected} on [{lo}, {hi}]"
        )
    return report
