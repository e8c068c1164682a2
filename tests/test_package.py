from __future__ import annotations

import ast
import json
import os
import re
import runpy
import subprocess
import sys
import types
from pathlib import Path

import pytest

import mixedsums


def test_submodules_are_not_shadowed():
    from mixedsums import three_squares

    assert isinstance(three_squares, types.ModuleType)
    assert three_squares.three_squares(3).x == 1
    for name in mixedsums.__all__:
        assert not isinstance(getattr(mixedsums, name), types.ModuleType), name


def test_src_has_no_assert_statement():
    # `python -O` strips assert statements; every proof-step check raises
    # AssertionError explicitly, so it still runs there
    found = []
    for path in sorted(Path(mixedsums.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


_POOL_MODULES = """
import json, sys
import mixedsums.cli
print(json.dumps([m for m in ("concurrent.futures.process", "multiprocessing") if m in sys.modules]))
"""


def test_cli_import_loads_no_process_pool():
    # only a scan that starts a pool should pay for importing one
    src = str(Path(mixedsums.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _POOL_MODULES],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_small_survey_loads_no_process_pool():
    # 35 one-value chunks cost far less than a pool, so --jobs 2 starts none
    # and never imports multiprocessing (-X importtime lists every import)
    src = str(Path(mixedsums.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "mixedsums.cli",
         "survey", "16384", "16384", "--jobs", "2", "--json"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads(proc.stdout)) == 35
    imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
    assert "mixedsums.survey" in imported
    assert not {m for m in imported if m.split(".")[0] == "multiprocessing"}
    assert "concurrent.futures.process" not in imported


_ROOT = Path(__file__).resolve().parents[1]
_SRC = _ROOT / "src" / "mixedsums"

# the tuned constants, each of which names the BENCH_*.json holding its
# measured figures in the comment above it (or above its group)
_TUNED = {
    "survey.py": (
        "CONSTRUCTIVE_S", "CONSTRUCTIVE_ROOT3_S", "EXISTS_HIT_S", "WINDOW_ROOT_S",
        "WINDOW_POW_S", "POOL_START_S", "POOL_SPAWN_S", "POOL_UNIT_S",
    ),
    "oracle.py": ("MAX_ENUMERATED_N", "MAX_WINDOW_HI"),
}
_BENCH_NAME = re.compile(r"BENCH_\w+\.json")


def _comment_above(lines: list[str], name: str) -> str:
    """The comment lines directly above the group of assignments that
    binds name at module level."""
    i = next(k for k, line in enumerate(lines) if line.startswith(f"{name} = "))
    while lines[i - 1].strip() and not lines[i - 1].startswith("#"):
        i -= 1
    j = i
    while lines[j - 1].startswith("#"):
        j -= 1
    return " ".join(lines[j:i])


@pytest.mark.parametrize(
    "module, name", [(module, name) for module, names in _TUNED.items() for name in names]
)
def test_tuned_constant_cites_its_bench_file(module, name):
    comment = _comment_above((_SRC / module).read_text().splitlines(), name)
    assert _BENCH_NAME.search(comment), f"{module}: the comment on {name} names no BENCH_*.json"


def test_cited_bench_files_exist_and_parse():
    texts = [path.read_text() for path in sorted(_SRC.glob("*.py"))]
    texts += [(_ROOT / "README.md").read_text(), (_ROOT / "tests" / "mutants.py").read_text()]
    cited = sorted({bench for text in texts for bench in _BENCH_NAME.findall(text)})
    assert cited
    for bench in cited:
        json.loads((_ROOT / bench).read_text())


def _mutants_main():
    return runpy.run_path(str(_ROOT / "tests" / "mutants.py"), run_name="mutants")["main"]


# These tests stub the runner's file reads and pytest runs: in a mutant's
# copy its own patch no longer matches, and a test that read src/ would fail
# there for that reason alone, killing every mutant itself.
def test_mutants_rejects_an_unknown_name_before_reading_a_file(capsys):
    def refuse(*args):
        raise AssertionError(f"called with {args}")

    main = _mutants_main()
    main.__globals__["_patched"] = main.__globals__["_run"] = refuse
    assert main(["counter-skips-units", "no-such-mutant"]) == 2
    assert "no mutant named no-such-mutant" in capsys.readouterr().err


def test_mutants_runs_only_the_named_mutants():
    main = _mutants_main()
    mutants = main.__globals__["MUTANTS"]
    names = [name for name, *_ in mutants]
    assert len(set(names)) == len(names)
    checked, ran = [], []
    main.__globals__["_patched"] = lambda path, old, new: checked.append(old) or new
    main.__globals__["_run"] = lambda patch: ran.append(patch) or (0 if patch is None else 1, "")
    assert main(["same-slot-pair-short", "xor-union"]) == 0
    # every patch is checked, but only the unpatched tree and the two named
    # mutants run, in the list's order
    assert checked == [old for _, _, old, _ in mutants]
    by_name = {name: (path, new) for name, path, _, new in mutants}
    assert ran == [None, by_name["xor-union"], by_name["same-slot-pair-short"]]
