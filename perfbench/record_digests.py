#!/usr/bin/env python3
"""Write digests.json: the sha256 of each workload's round-0 output per seed.

    python3 perfbench/record_digests.py [SEEDS] [WORKLOAD ...]

Records seeds 0..SEEDS-1 (default 64) for the named workloads (default all),
keeping what the file already holds for the others.  Re-record only when a
workload's inputs change: a library change that alters an output must
reproduce these digests, not replace them.
"""

from __future__ import annotations

import json
import sys

import run


def main(argv: list[str]) -> int:
    seeds = int(argv[0]) if argv else 64
    names = argv[1:] or sorted(run.WORKLOADS)
    sys.path.insert(0, str(run.SRC))
    recorded = {}
    for name in names:
        done: dict = {}  # request -> result; seeds of represent-ceiling share requests

        def call(req):
            if req not in done:
                done[req] = workload.call(req, 1)
            return done[req]

        recorded[name] = {}
        for seed in range(seeds):
            workload = run.WORKLOADS[name](seed, 1)
            tally = run.Tally()
            _, _, digest = run.serve_round(workload, call, tally)
            if tally.failed:
                print(f"{name} seed {seed}: {tally.notes}", file=sys.stderr)
                return 1
            recorded[name][str(seed)] = digest
        print(f"{name}: {seeds} seeds", file=sys.stderr)
    try:
        table = json.loads(run.DIGESTS.read_text())
    except FileNotFoundError:
        table = {}
    table.update(recorded)
    run.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
