"""Differential run of the epshift CLI on two source trees.

    python3 tools/cli_diff.py OTHER_TREE [--calls FILE]

Runs each argv list through ``epshift.cli.main`` in process, once against
the ``src/`` of the tree this script sits in and once against OTHER_TREE's
``src/``, with one child interpreter per tree, and prints every call whose
exit code, stdout or stderr differs.  FILE holds one JSON argv list per
line; without it the calls are the benchmark's CLI corpus, read from
``perfbench/pins.json``.  A call still running after ``CALL_TIMEOUT_S``
seconds is stopped and recorded as ``"timed out"``, and the child goes on
to the next call.  Exits 1 if any call differs and 0 otherwise.  Stdlib
only.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALL_TIMEOUT_S = 30

# runs in each child: the tree's src/ first on the path, and every call's
# exit code and captured streams back as one JSON list; an exception that
# escapes main is recorded by its last traceback line, and a call that
# passes the timeout by "timed out" with empty streams
CHILD = """
import contextlib, io, json, signal, sys, traceback
sys.path.insert(0, sys.argv[1])
timeout = float(sys.argv[2])
from epshift.cli import main

class TimedOut(BaseException):
    pass

def alarm(signum, frame):
    raise TimedOut

signal.signal(signal.SIGALRM, alarm)
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            signal.setitimer(signal.ITIMER_REAL, timeout)
            try:
                code = main(argv)
            except Exception as exc:
                code = "raised " + traceback.format_exception_only(exc)[-1].strip()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
    except TimedOut:
        results.append(["timed out", "", ""])
        continue
    results.append([code, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""


def run_tree(src: Path, calls: list[list[str]], timeout: float = CALL_TIMEOUT_S) -> list[list]:
    """[exit code, stdout, stderr] of each call, run against ``src``; a call
    still running after ``timeout`` seconds reads ``["timed out", "", ""]``."""
    # -I keeps PYTHONPATH and user site-packages out; -B writes no bytecode
    # into either tree
    proc = subprocess.run(
        [sys.executable, "-I", "-B", "-c", CHILD, str(src), str(timeout)],
        input=json.dumps(calls), capture_output=True, text=True,
    )
    if proc.returncode:
        sys.exit(f"cli_diff: the child for {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def read_calls(path: Path | None) -> list[list[str]]:
    if path is None:
        pins = json.loads((ROOT / "perfbench" / "pins.json").read_text(encoding="utf-8"))
        return [case["argv"] for case in pins["cli"]["corpus"]]
    lines = path.read_text(encoding="utf-8").splitlines()
    calls = [json.loads(line) for line in lines if line.strip()]
    for call in calls:
        if not (isinstance(call, list) and all(isinstance(a, str) for a in call)):
            sys.exit(f"cli_diff: not an argv list of strings: {call!r}")
    return calls


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", type=Path, help="root of the tree to compare against")
    parser.add_argument("--calls", type=Path, help="file of JSON argv lists, one per line")
    ns = parser.parse_args(argv)
    if not (ns.other / "src" / "epshift").is_dir():
        parser.error(f"{ns.other} has no src/epshift")
    calls = read_calls(ns.calls)
    here, other = run_tree(ROOT / "src", calls), run_tree(ns.other / "src", calls)
    differ = 0
    for i, (argv, a, b) in enumerate(zip(calls, here, other)):
        if a == b:
            continue
        differ += 1
        print(f"call {i}: {json.dumps(argv)}")
        for name, x, y in zip(("exit", "stdout", "stderr"), a, b):
            if x != y:
                print(f"  {name} here:  {json.dumps(x)}")
                print(f"  {name} other: {json.dumps(y)}")
    print(f"{len(calls)} calls, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
