"""The mutation gate of the scan engine and the two-square filter: every
mutant below must fail the tests.

Run it as `python tests/mutants.py [NAME...]`, from any directory.  With
names, only those mutants run; an unknown name exits 2 before any test runs.

Each mutant is one exact-string patch to one file under src/.  The runner
first checks that every patch's old text occurs exactly once in its file,
and stops before any test runs if one does not, so a refactor that moves
the code must update this list.  Then, for the unpatched tree and for each
mutant, it copies src/, tests/, pyproject.toml, README.md and the
BENCH_*.json files into a fresh temporary directory, applies the patch
there and runs `python -m pytest -x -q tests` in the copy; the checkout
itself is never modified.  The unpatched copy must pass, so that a
mutant's failure is the patch's doing.  A mutant is killed
when its run exits 1 (a test failed); a run that passes, errors in some
other way or times out leaves it alive.  The exit code is 0 when every
mutant is killed and 1 otherwise.

pytest does not collect this file, since its name does not start with
test_.  Each run takes as long as the tests take to fail.  The window-bound
mutant's is the slowest, since its killing test first builds a window past
2^26.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 900

SURVEY = "src/mixedsums/survey.py"
ORACLE = "src/mixedsums/oracle.py"
THREE_SQUARES = "src/mixedsums/three_squares.py"

# (name, file, old text, new text)
MUTANTS = (
    # a sieved unit's verdicts are no longer judged pointwise
    ("judge-removed", SURVEY,
     "        for n in sorted({*firsts, *misses}):",
     "        for n in ():"),
    # an oracle range sieves whenever hi allows it, whatever the prices
    ("price-ignored", SURVEY,
     '        hi <= MAX_WINDOW_HI and _price("sieved", lo, hi) < _price("pointwise", lo, hi)',
     "        hi <= MAX_WINDOW_HI"),
    # an oracle range sieves wherever it prices lower, past the window bound too
    ("window-bound-ignored-in-path", SURVEY,
     '        hi <= MAX_WINDOW_HI and _price("sieved", lo, hi) < _price("pointwise", lo, hi)',
     '        _price("sieved", lo, hi) < _price("pointwise", lo, hi)'),
    # the negative control is planned like any catalog entry
    ("control-rule-dropped", SURVEY,
     "    if entry is _CONTROL or (",
     "    if ("),
    # a sumset cancels a value reached twice
    ("xor-union", ORACLE,
     "        out |= bits >> (lo - v) & full",
     "        out ^= bits >> (lo - v) & full"),
    # a window stops shifting once its first bit is set, not every bit
    ("union-stops-before-full", ORACLE,
     "        if out == full:",
     "        if out & 1:"),
    # a one-slot window skips the values below lo/2, not lo/3
    ("one-slot-floor-too-high", ORACLE,
     "    floor = -(-lo // 3) if a == b == c else 0",
     "    floor = -(-lo // 2) if a == b == c else 0"),
    # the control no longer compares the classifier with its enumeration
    ("control-classifier-deleted", SURVEY,
     "    if report.counterexamples != tuple(expected) or excluded != expected:",
     "    if report.counterexamples != tuple(expected):"),
    # every entry, not only the control, judges just its first counterexample
    ("first-miss-only", SURVEY,
     "        misses = bad[:1] if entry is _CONTROL else bad",
     "        misses = bad[:1]"),
    # only a unit's first block has its first n judged
    ("block-firsts-cut", SURVEY,
     "        blocks = range(lo, hi + 1, DEFAULT_CHUNK)",
     "        blocks = range(lo, lo + 1)"),
    # chunks stay 2^14 values wide however many units that plans
    ("unit-cap-ignored", SURVEY,
     "    chunk = max(DEFAULT_CHUNK, -(-(hi - lo + 1) // MAX_UNITS))",
     "    chunk = DEFAULT_CHUNK"),
    # a sieved entry is split into chunks, one window each
    ("sieved-chunked", SURVEY,
     '        size = hi - lo + 1 if path == "sieved" else chunk',
     "        size = chunk"),
    # the oracle's windows accept any hi
    ("window-hi-bound-removed", ORACLE,
     "    if hi > MAX_WINDOW_HI:",
     "    if False:"),
    # a constructive certificate that does not verify is a counterexample again
    ("constructive-fault-reported", SURVEY,
     '        if bad and path == "constructive":',
     "        if False:"),
    # the two-square scan's filter clears 0 mod 65 and mod 11, squares of b
    ("filter-drops-a-square", THREE_SQUARES,
     "        squares = {s * s % q for s in range(q)}",
     "        squares = {s * s % q for s in range(1, q)}"),
    # a class mod 256 that lists no a still roots m and (m - 1) // 2
    ("scan-without-empty-class-return", THREE_SQUARES,
     "    if not residues:\n        return None\n",
     ""),
    # a pool child's exception is dropped instead of re-raised here
    ("child-error-dropped", SURVEY,
     "        if error is not None:",
     "        if False:"),
    # the shared counter steps by 2, so a pool skips every other unit
    ("counter-skips-units", SURVEY,
     "            counter.value = i + 1",
     "            counter.value = i + 2"),
    # a same-slot walk probes from one value past rb/2, missing v + v at even rb
    ("same-slot-probe-late", ORACLE,
     "rb - rb // 2",
     "rb // 2 + 1"),
    # a same-slot pair sumset stops one value short of hi/2
    ("same-slot-pair-short", ORACLE,
     "hi // 2",
     "hi // 2 - 1"),
)


def _patched(path: str, old: str, new: str) -> str:
    """path's text with old replaced by new; exits unless old occurs once."""
    text = (ROOT / path).read_text()
    found = text.count(old)
    if found != 1:
        sys.exit(f"mutants: {path} holds {found} copies of {old!r}, not exactly one")
    return text.replace(old, new)


def _run(patch: tuple[str, str] | None) -> tuple[int | None, str]:
    """Run the tests on a copy of the tree with patch = (file, text) applied:
    pytest's exit code (None on timeout) and its first failure line."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        for path in (ROOT / "pyproject.toml", ROOT / "README.md", *ROOT.glob("BENCH_*.json")):
            shutil.copy2(path, copy / path.name)
        if patch is not None:
            (copy / patch[0]).write_text(patch[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(copy / "src"), env.get("PYTHONPATH")) if p
        )
        where = subprocess.run(
            [sys.executable, "-c", "import mixedsums; print(mixedsums.__file__)"],
            cwd=copy, env=env, capture_output=True, text=True, check=True,
        ).stdout.strip()
        if not Path(where).resolve().is_relative_to(copy.resolve()):
            sys.exit(f"mutants: the copy imports mixedsums from {where}, not from {copy}")
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests"],
                cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return None, f"timed out after {TIMEOUT_S} s"
    lines = proc.stdout.splitlines()
    first = next((ln for ln in lines if ln.startswith(("FAILED ", "ERROR "))), None)
    return proc.returncode, first or (lines[-1] if lines else "")


def main(names: list[str]) -> int:
    # an unknown name exits before any file is read; then every patch is
    # checked before any test runs, and only the named mutants run, or all
    # of them when none is named
    unknown = sorted(set(names) - {name for name, *_ in MUTANTS})
    if unknown:
        print(f"mutants: no mutant named {', '.join(unknown)}", file=sys.stderr)
        return 2
    patches = [(name, path, _patched(path, old, new)) for name, path, old, new in MUTANTS]
    if names:
        patches = [patch for patch in patches if patch[0] in names]

    t0 = time.perf_counter()
    code, line = _run(None)
    print(f"unpatched tree: exit {code} in {time.perf_counter() - t0:.1f} s", flush=True)
    if code != 0:
        print(f"  {line}")
        return 1
    alive = []
    for name, path, text in patches:
        t0 = time.perf_counter()
        code, line = _run((path, text))
        verdict = "killed" if code == 1 else "ALIVE"
        print(f"{verdict} {name}: exit {code} in {time.perf_counter() - t0:.1f} s", flush=True)
        print(f"  {line}", flush=True)
        if code != 1:
            alive.append(name)
    print(f"{len(patches) - len(alive)} of {len(patches)} mutants killed")
    if alive:
        print(f"alive: {', '.join(alive)}")
    return 1 if alive else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
