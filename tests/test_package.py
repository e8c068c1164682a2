from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import types
from pathlib import Path

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
