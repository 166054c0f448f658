"""Opcode counts per module for one pass over a workload's pinned cases.

    python3 tools/opcount.py WORKLOAD [--cases N]

Runs the benchmark's ``run`` of each pinned case of WORKLOAD (``scope``,
``search`` or ``cli``, from ``perfbench/pins.json`` in pin order; the
first N only with ``--cases``) once to warm up, then once more under a
``sys.settrace`` hook that asks every frame for opcode events and counts
each event against the module of its frame.  Opcode counts do not move
between runs the way wall time does, so two trees compare on one pass.

The pass runs in two child interpreters against the ``src/`` of the tree
this script sits in, one under ``PYTHONHASHSEED=0`` and one under
``PYTHONHASHSEED=1``.  Prints the counts as one JSON object, with the
total and the modules by descending count, and exits 1 unless both
children counted the same.  Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HASH_SEEDS = ("0", "1")

# runs in each child: the tree's src/ and perfbench/ first on the path, a
# warm pass, then the counted pass; the counts go back as one JSON object
CHILD = """
import collections, json, sys
root = sys.argv[1]
sys.path[:0] = [root + "/src", root + "/perfbench"]
import workloads
workload, limit = sys.argv[2], int(sys.argv[3])
run = workloads.WORKLOADS[workload][0]
cases = [case for pool in workloads.load_pins()[workload].values() for case in pool]
cases = cases[:limit] if limit else cases
for case in cases:
    run(case)
counts = collections.Counter()

def local(frame, event, arg):
    if event == "opcode":
        counts[frame.f_globals.get("__name__", "?")] += 1
    return local

def start(frame, event, arg):
    frame.f_trace_opcodes = True
    return local

sys.settrace(start)
for case in cases:
    run(case)
sys.settrace(None)
json.dump({"cases": len(cases), "modules": counts}, sys.stdout)
"""


def count(workload: str, limit: int, hash_seed: str) -> dict:
    """{"cases": n, "modules": {module: opcodes}} from one child."""
    # -B writes no bytecode into the tree and -s keeps user site-packages
    # out; -I would also drop PYTHONHASHSEED, so the environment is set here
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONHASHSEED"] = hash_seed
    proc = subprocess.run(
        [sys.executable, "-B", "-s", "-c", CHILD, str(ROOT), workload, str(limit)],
        capture_output=True, text=True, env=env,
    )
    if proc.returncode:
        sys.exit(f"opcount: the child under PYTHONHASHSEED={hash_seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=["scope", "search", "cli"])
    parser.add_argument("--cases", type=int, default=0, metavar="N",
                        help="count the first N pinned cases only")
    ns = parser.parse_args(argv)
    if ns.cases < 0:
        parser.error("--cases must be at least 0")
    runs = [count(ns.workload, ns.cases, seed) for seed in HASH_SEEDS]
    first = runs[0]
    modules = sorted(first["modules"].items(), key=lambda kv: (-kv[1], kv[0]))
    print(json.dumps({
        "workload": ns.workload,
        "cases": first["cases"],
        "total": sum(first["modules"].values()),
        "modules": dict(modules),
    }, indent=1))
    if any(run != first for run in runs[1:]):
        print(f"opcount: the counts under PYTHONHASHSEED {' and '.join(HASH_SEEDS)} differ",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
