"""Range verification over the built-in form catalogs.

Catalog entries are grouped under fixed source labels (theorem2, theorem1_i,
theorem1_ii, theorem1_iii, panaitopol); the CLI --source flag filters on
them.  An entry is defined by its name alone: a named form spelling
("x2+6t+t"), a canonical term list ("1*sq+2*sq+4*tri") or the one oracle
predicate ("mixed-parity-two-squares"), so every name but the predicate is
also a valid `mixedsums count`/`witnesses` SPEC.  The theorem2 group holds
the five named mixed forms, which can be scanned constructively (decompose,
then re-verify the certificate) or through the brute-force oracle; every
other entry is oracle-only.  Each entry carries a status tag:
"constructive" when witnesses are built by the decomposers, "established"
for complete statements that are merely re-checked here, and "empirical"
for coefficient lists whose scan is evidence, not proof.

Scans run in fixed-size chunks (default 2^14 values) so they can be spread
over a process pool; chunk results are merged in index order, which keeps
reports byte-for-byte identical whatever the worker count.

An oracle chunk whose width is not too small against its upper bound (see
SIEVE_RATIO) is read from one sumset bitset of the whole window instead of
one brute-force call per n.  The pointwise oracle stays the judge of the
chunk's first in-domain n and of its first counterexample.  From the second
counterexample on, a term-list entry's window is instead checked once, bit
for bit, against the same sumset bracketed the other way
(`rebracketed_window`), so each later counterexample costs O(1) and not an
O(n) `exists` miss; the predicate has no second window, and each of its
counterexamples is re-judged pointwise.  Any disagreement raises
AssertionError.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from .arith import is_three_square_feasible
from .forms import MixedForm, represent, verify
from .oracle import (
    FormSpec,
    check_range,
    constrained_two_squares_triangular_window,
    exists,
    exists_constrained_two_squares_triangular,
    rebracketed_window,
    representable_window,
    spec_of,
)

DEFAULT_CHUNK = 1 << 14

# An oracle chunk [lo, hi] is sieved iff hi <= SIEVE_RATIO * (hi - lo + 1),
# so a sieve's integers stay below 2 * SIEVE_RATIO * chunk_size bits (16 MiB
# at the default chunk).  A sieve costs about the same whatever the width; a
# pointwise scan costs the width times one exists call.  Averaged over the
# catalog entries (2-core x86 VM, Python 3.11), one exists call near hi and
# one sieve up to hi cost 149 us / 0.32 ms at hi = 1.65e4, 416 us / 2.4 ms
# at 1e5 and 1.3 ms / 82 ms at 1e6; on a sample of entries, 2.5 ms / 0.72 s
# at 4e6 and 5.5 ms / 3.6 s at 1e7.  They break even at widths of hi/7700
# to hi/17600, so 4096 sieves only where the sieve should be about twice as
# cheap or better, and it keeps one-value windows above 4096 pointwise.
SIEVE_RATIO = 4096

SOURCES = ("theorem2", "theorem1_i", "theorem1_ii", "theorem1_iii", "panaitopol")

DOMAINS = ("all", "positive", "positive_odd")

_Judge = Callable[[int], bool]  # n -> is n represented?
_Window = Callable[[int, int], int]  # (lo, hi) -> bitset, bit k set iff lo + k represented

# oracle predicates a catalog entry may name instead of a term list
_PREDICATES: dict[str, tuple[_Judge, _Window]] = {
    "mixed-parity-two-squares": (
        exists_constrained_two_squares_triangular,
        constrained_two_squares_triangular_window,
    ),
}


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
        if self.predicate is None:
            spec_of(self.name)  # raises unless the name is a form or a term list

    @property
    def entry_id(self) -> str:
        return f"{self.source}:{self.name}"

    @property
    def form(self) -> MixedForm | None:
        """The named form, the only kind of entry with a constructive scan."""
        try:
            return MixedForm(self.name)
        except ValueError:
            return None

    @property
    def predicate(self) -> str | None:
        return self.name if self.name in _PREDICATES else None

    @property
    def spec(self) -> FormSpec | None:
        """The entry's term list (parsed on each read); None for a predicate."""
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


def _in_domain(domain: str, n: int) -> bool:
    if domain == "all":
        return True
    if domain == "positive":
        return n >= 1
    return n >= 1 and n % 2 == 1


def _judges(
    entry: CatalogEntry, mode: str
) -> tuple[_Judge, _Window | None, _Window | None]:
    """The entry's pointwise judge, its window for an oracle scan and, for a
    term list, the rebracketed window that confirms the first.

    exists, represent, verify, representable_window and rebracketed_window
    are looked up in the module globals when called, so tracing and tests
    can rebind them.
    """
    if mode == "constructive":
        form = entry.form
        return (lambda n: verify(represent(form, n))), None, None
    if entry.predicate is not None:
        return (*_PREDICATES[entry.predicate], None)
    spec = entry.spec
    return (
        (lambda n: exists(spec, n)),
        (lambda lo, hi: representable_window(spec, lo, hi)),
        (lambda lo, hi: rebracketed_window(spec, lo, hi)),
    )


def _scan_chunk(unit: tuple[CatalogEntry, str, int, int]) -> tuple[int, list[int], float]:
    entry, mode, lo, hi = unit
    t0 = time.perf_counter()
    check, window, rebracketed = _judges(entry, mode)
    width = hi - lo + 1
    # a wide enough oracle chunk is read from its window as "0"/"1" marks
    # indexed by n - lo; a narrow one, or a constructive one, is pointwise
    marks = None
    if window is not None and hi <= SIEVE_RATIO * width:
        sieve = window(lo, hi)
        marks = format(sieve, "b").zfill(width)[::-1]
    domain = entry.domain
    judged = False  # the first in-domain n has been re-judged
    confirmed = False  # the whole sieve equals the rebracketed window
    good = 0
    bad: list[int] = []
    for n in range(lo, hi + 1):
        if not _in_domain(domain, n):
            continue
        if marks is None:
            ok = check(n)
        else:
            ok = marks[n - lo] == "1"
            if confirmed or (ok and judged):
                pass
            elif ok or not bad or rebracketed is None:
                # the first n and the first counterexample (every one, for
                # the predicate) are re-judged pointwise
                judged = True
                if check(n) != ok:
                    raise AssertionError(
                        f"{entry.entry_id}: the sieve says n={n} is"
                        f" {'' if ok else 'not '}represented, the pointwise oracle disagrees"
                    )
            else:
                # a second counterexample: confirm every bit of the window
                # once, rather than pay an O(n) exists miss for each
                confirmed = True
                diff = rebracketed(lo, hi) ^ sieve
                if diff:
                    raise AssertionError(
                        f"{entry.entry_id}: the sieve and the rebracketed sumset"
                        f" disagree at n={lo + (diff & -diff).bit_length() - 1}"
                    )
        if ok:
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


def _pool_size(jobs: int, units: int) -> int:
    """Worker processes for a scan: never more than the units or the CPUs."""
    return min(jobs, units, os.cpu_count() or 1)


def _run_scans(
    tasks: Sequence[tuple[CatalogEntry, str]],
    lo: int,
    hi: int,
    jobs: int,
) -> list[RangeReport]:
    check_range(lo, hi)
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    chunks = _chunk_bounds(lo, hi, DEFAULT_CHUNK)
    units = [(entry, mode, clo, chi) for entry, mode in tasks for clo, chi in chunks]
    workers = _pool_size(jobs, len(units))
    if workers > 1:
        # imported here: it loads multiprocessing, which a one-process scan
        # and every other command never need
        from concurrent.futures import ProcessPoolExecutor

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
) -> list[RangeReport]:
    """Scan the five named forms over [lo, hi]; one report per form."""
    if mode not in ("constructive", "oracle"):
        raise ValueError(f"unknown mode {mode!r}")
    wanted = tuple(MixedForm) if forms is None else tuple(forms)
    entries = [e for e in catalog_entries("theorem2") if e.form in wanted]
    return _run_scans([(e, mode) for e in entries], lo, hi, jobs)


def verify_catalog(
    source_filter: str | None = None,
    lo: int = 0,
    hi: int = 10_000,
    jobs: int = 1,
) -> list[RangeReport]:
    """Oracle-scan every matching catalog entry over [lo, hi]."""
    entries = catalog_entries(source_filter)
    return _run_scans([(e, "oracle") for e in entries], lo, hi, jobs)


class ControlMismatchError(RuntimeError):
    """The oracle and the three-square classifier disagreed on the control."""


def negative_control(lo: int, hi: int, jobs: int = 1) -> RangeReport:
    """Scan plain three squares and demand the classical exclusion set.

    The form x^2 + y^2 + z^2 misses exactly the numbers 4^k(8l+7); finding
    precisely those as counterexamples shows the oracle cannot pass
    vacuously.  A disagreement with the independent classifier raises.
    """
    report = _run_scans([(_CONTROL, "oracle")], lo, hi, jobs)[0]
    expected = tuple(m for m in range(lo, hi + 1) if not is_three_square_feasible(m))
    if report.counterexamples != expected:
        raise ControlMismatchError(
            f"control scan found {report.counterexamples} but the classifier"
            f" excludes {expected} on [{lo}, {hi}]"
        )
    return report
