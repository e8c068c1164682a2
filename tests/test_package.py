from __future__ import annotations

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
