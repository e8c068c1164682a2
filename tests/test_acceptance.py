"""Acceptance checklist: seven go/no-go criteria at full desk scale.

Each criterion emits one "[acceptance] <name>: PASS/FAIL" line; the lines
are printed immediately (visible with -s or on failure) and repeated in the
terminal summary via conftest, so the checklist shows up in any plain
`pytest -v` log.  Scales and time budgets are pinned here and nowhere else:

  1. constructive coverage      5 forms x [0, 10^5], < 120 s
  2. three-square exactness     classifier iff decomposition on [0, 10^5]
  3. rotation identity          10^4 seeded random parity-valid triples
  4. proof-step assertions      all decomposer congruences on [0, 10^4]
  5. oracle catalog scans       all 35 entries clean on [0, 10^4], < 5 min
  6. negative control           exact exclusion set on [0, 1000]
  7. determinism + interfaces   byte-identical output, round trip, exit codes
"""

from __future__ import annotations

import random
import time

import pytest

from mixedsums.arith import is_three_square_feasible
from mixedsums.cli import main
from mixedsums.forms import Certificate, MixedForm, represent, verify
from mixedsums.jacobi import jacobi_transform
from mixedsums.survey import negative_control, verify_catalog
from mixedsums.three_squares import NotRepresentableError, three_squares

import conftest
from bruteforce import gauss_legendre_excluded, three_square_representable

CONSTRUCTIVE_HI = 10**5
CONSTRUCTIVE_BUDGET_S = 120.0
CATALOG_HI = 10**4
CATALOG_BUDGET_S = 300.0
IDENTITY_TRIALS = 10**4
IDENTITY_SEED = 20260816


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    conftest.acceptance_lines.append(line)


def test_criterion_1_constructive_coverage():
    t0 = time.perf_counter()
    failures = 0
    for form in MixedForm:
        for n in range(CONSTRUCTIVE_HI + 1):
            if not verify(represent(form, n)):
                failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < CONSTRUCTIVE_BUDGET_S
    _report(
        "constructive coverage",
        ok,
        f"{5 * (CONSTRUCTIVE_HI + 1)} certificates, {failures} failures, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_2_three_square_exactness():
    bad = []
    for m in range(CONSTRUCTIVE_HI + 1):
        feasible = is_three_square_feasible(m)
        try:
            rep = three_squares(m)
        except NotRepresentableError:
            if feasible:
                bad.append(m)
            continue
        if not feasible or rep.x**2 + rep.y**2 + rep.z**2 != m:
            bad.append(m)
    sieve = three_square_representable(10**4)
    for m in range(10**4 + 1):
        if is_three_square_feasible(m) != (m in sieve):
            bad.append(m)
    ok = not bad
    _report("three-square exactness", ok, f"[0, {CONSTRUCTIVE_HI}], first bad: {bad[:3]}")
    assert ok


def test_criterion_3_rotation_identity():
    rng = random.Random(IDENTITY_SEED)
    bad = 0
    for _ in range(IDENTITY_TRIALS):
        x = rng.randint(-(10**6), 10**6)
        z = rng.randint(-(10**6), 10**6)
        y = 2 * rng.randint(-500_000, 499_999) + (x & 1)
        s, u, v = jacobi_transform(x, y, z)
        if 3 * (x * x + y * y + z * z) != s * s + 2 * u * u + 6 * v * v:
            bad += 1
    rejected = 0
    for _ in range(100):
        x = rng.randint(-(10**6), 10**6)
        y = 2 * rng.randint(-499_999, 499_999) + 1 - (x & 1)
        with pytest.raises(AssertionError, match="construction broke"):
            jacobi_transform(x, y, rng.randint(-(10**6), 10**6))
        rejected += 1
    ok = bad == 0 and rejected == 100
    _report(
        "rotation identity",
        ok,
        f"{IDENTITY_TRIALS} seeded triples exact, {rejected}/100 parity violations rejected",
    )
    assert ok


def test_criterion_4_proof_step_assertions():
    violations: list[tuple[str, int, str]] = []
    if not __debug__:  # pragma: no cover - the suite never runs under -O
        _report("proof-step assertions", False, "assertions disabled (-O)")
        assert False
    for form in MixedForm:
        for n in range(CATALOG_HI + 1):
            try:
                cert = represent(form, n)
            except AssertionError as e:
                violations.append((form.value, n, str(e)))
                continue
            if not verify(cert):
                violations.append((form.value, n, "certificate does not verify"))
    ok = not violations
    _report(
        "proof-step assertions",
        ok,
        f"5 x {CATALOG_HI + 1} decompositions, violations: {violations[:2]}",
    )
    assert ok


def test_criterion_5_oracle_catalog_scans():
    t0 = time.perf_counter()
    reports = verify_catalog(None, 0, CATALOG_HI)
    elapsed = time.perf_counter() - t0
    dirty = [r.entry.entry_id for r in reports if r.counterexamples]
    ok = len(reports) == 35 and not dirty and elapsed < CATALOG_BUDGET_S
    _report(
        "oracle catalog scans",
        ok,
        f"{len(reports)} entries on [0, {CATALOG_HI}], dirty: {dirty}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_6_negative_control():
    report = negative_control(0, 1000)
    expected = tuple(gauss_legendre_excluded(1000))
    ok = report.counterexamples == expected
    _report(
        "negative control",
        ok,
        f"{len(report.counterexamples)} exclusions on [0, 1000], expected {len(expected)}",
    )
    assert ok


def test_criterion_7_determinism_and_interfaces(capsys):
    problems = []

    def run(*argv):
        code = main(list(argv))
        out = capsys.readouterr().out
        return code, out

    # byte-identical repeats and worker-count independence, json and csv
    for fmt in ("--json", "--csv"):
        outs = set()
        for jobs in ("1", "3", "7"):
            code, out = run("verify-range", "0", "40000", "--jobs", jobs, fmt)
            if code != 0:
                problems.append(f"verify-range exit {code}")
            outs.add(out)
        if len(outs) != 1:
            problems.append(f"{fmt} output varies with --jobs")
    code, first = run("survey", "0", "600", "--json")
    code2, second = run("survey", "0", "600", "--json")
    if (code, code2) != (0, 0) or first != second:
        problems.append("repeated survey runs differ")

    # certificate json round trip, including the pinned golden line
    code, out = run("represent", "4x2+2t+t", "2", "--json")
    if out != '{"form":"4x2+2t+t","n":2,"x":0,"y":-2,"z":0}\n':
        problems.append(f"golden certificate line was {out!r}")
    for form in MixedForm:
        cert = represent(form, 98765)
        if Certificate.from_json(cert.to_json()) != cert:
            problems.append(f"round trip failed for {form.value}")

    # exit-code contract on crafted inputs
    crafted = [
        (("represent", "x2+3y2+t", "5", "--json"), 0),
        (("negative-control", "0", "100"), 1),
        (("count", "1*sq+", "5"), 2),
        (("represent", "bogus", "5"), 2),
        (("verify-range", "9", "2"), 2),
    ]
    for argv, want in crafted:
        code, _ = run(*argv)
        if code != want:
            problems.append(f"{' '.join(argv)} exited {code}, wanted {want}")

    ok = not problems
    _report("determinism and interfaces", ok, "; ".join(problems) or "all crafted runs agree")
    assert ok, problems


# ensure stray stderr from the crafted failure runs does not leak
@pytest.fixture(autouse=True)
def _swallow_stderr(capsys):
    yield
    capsys.readouterr()
