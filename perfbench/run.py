"""The epshift benchmark: end-to-end and per-layer metrics per workload.

    python3 perfbench/run.py --workload scope --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-check

Run from anywhere; epshift is imported from ``src/`` next to this
directory, so the benchmark measures the checkout it sits in.  One
process, one op at a time, no threads: a closed loop with one client.

``--trace 0`` runs whole passes over the seeded op list (workloads.py)
until ``--seconds`` is used up, and reports the end-to-end metrics of
BENCHMARK.json: an op's latency is its fastest pass, rescaled to the
nominal speed of a fixed reference timed after every op (``op_latencies``;
the unscaled figures are in the facts line), ``ops_per_s`` is the op
count over the sum of those latencies, and ``setup_s`` is the median
wall time of fresh interpreters that import epshift and epshift.cli,
build the parser and draw the op list.  ``--trace 1`` alternates untraced
and traced passes and reports the per-layer metrics from the spans of the
traced ones (tracer.py), each the median over traced passes.

Every op is checked against its pinned outputs and the library's
verifiers outside the timed region; a failed op is counted with its reason
and never stops the run.  The last stdout line is the JSON result; the
lines before it give each metric by name and unit, and a JSON line of run
facts (Python version, nproc, commit, seed, op count, failures, and for
``scope`` the 4096-member build held to its deadline in a child process).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DEFAULT_SEED = 1
SETUP_RUNS = 5
OP_DEADLINE_S = 10.0
REF_NOMINAL_S = 1.5e-3  # reference() on an unloaded 2-core x86 box, Python 3.11
LAYERS = ("epcore", "dynamics", "ipcore", "filters", "cli", "bench")


class OpTimeout(BaseException):
    """Raised in the benchmark's own process when an op passes its deadline."""


def _alarm(signum, frame):
    raise OpTimeout


# -- one op, one pass --------------------------------------------------------


def run_op(W, workload: str, case: dict, tracer=None, op_id: int = 0):
    """Time one op; return (seconds, failure reason or None)."""
    run, summary, verify, _ = W.WORKLOADS[workload]
    reason = None
    signal.setitimer(signal.ITIMER_REAL, OP_DEADLINE_S)
    if tracer:
        tracer.begin_op(op_id)
    t0 = time.perf_counter()
    try:
        raw = run(case)
    except OpTimeout:
        reason = "timeout"
    except W.E.CapacityError:
        reason = "cap"
    except W.E.ConstructionError:
        reason = "construction"
    except Exception as exc:  # any other raise is a failed op, not a crash
        reason = f"error: {type(exc).__name__}: {exc}"
    finally:
        elapsed = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        if tracer:
            tracer.end_op()
    if reason is None:
        try:
            if summary(raw) != case["expect"] or not verify(case, raw):
                reason = "mismatch"
        except Exception as exc:
            reason = f"mismatch: {type(exc).__name__}: {exc}"
    return elapsed, reason


def reference() -> float:
    """Time a fixed piece of integer arithmetic.  It allocates no container
    objects, so neither epshift's heap nor the garbage collector moves it;
    only the speed the machine lends this process does."""
    t0 = time.perf_counter()
    s = 0
    for i in range(20000):
        s += i * i % 7
    return time.perf_counter() - t0


def run_pass(W, workload, ops, stop_at: float, failures: list, tracer=None):
    """Run the op list once, timing the reference after every op; return
    the latencies of the ops it ran and the mean reference time."""
    latencies, refs = [], []
    for i, (stratum, case) in enumerate(ops):
        if time.perf_counter() > stop_at:
            break
        elapsed, reason = run_op(W, workload, case, tracer, i)
        latencies.append(elapsed)
        refs.append(reference())
        if reason:
            failures.append({"op": i, "stratum": stratum, "reason": reason})
    return latencies, statistics.fmean(refs)


# -- set-up and the failing probe ---------------------------------------------


def setup_probe(workload: str, seed: int) -> None:
    """What every fresh process pays before its first op."""
    import workloads as W
    from epshift import cli

    cli.build_parser()
    W.op_list(W.load_pins(), workload, seed)


def time_setup(workload: str, seed: int) -> float:
    """Wall time of one fresh interpreter that sets up and exits."""
    # no subprocess timeout: its wait polls in steps of up to 50 ms, which
    # would round the reading up; the op deadline alarm bounds a hung child
    # instead, and subprocess.run kills and reaps it when the alarm raises
    signal.setitimer(signal.ITIMER_REAL, OP_DEADLINE_S)
    try:
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            check=True, stdin=subprocess.DEVNULL,
        )
        return time.perf_counter() - t0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def run_probe(W) -> dict:
    """The 4096-member build, in a child process held to a deadline."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); from epshift.cli import main; sys.exit(main({W.PROBE_ARGV!r}))"
    probe = {"argv": W.PROBE_ARGV, "deadline_s": W.PROBE_DEADLINE_S}
    try:
        rc = subprocess.run([sys.executable, "-c", code], stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                            timeout=W.PROBE_DEADLINE_S).returncode
    except subprocess.TimeoutExpired:
        return {**probe, "reason": "timeout"}
    reasons = {0: None, 1: "construction", 3: "cap"}
    return {**probe, "reason": reasons.get(rc, f"exit {rc}")}


# -- metrics -----------------------------------------------------------------


def percentile(sorted_xs: list[float], q: float) -> float:
    return statistics.quantiles(sorted_xs, n=100, method="inclusive")[round(q * 100) - 1]


def op_latencies(passes: list[tuple[list[float], float]], scaled: bool) -> list[float]:
    """Each op's fastest pass, sorted; ``scaled`` rescales every pass to the
    reference's nominal speed first.

    Other tenants of a shared machine slow it, by up to half and for minutes
    at a time.  The minimum over passes spread across the run drops short
    slow stretches; rescaling by the pass's reference time removes the long
    ones, which slow the reference as much as the ops.
    """
    def scale(ref):
        return REF_NOMINAL_S / ref if scaled else 1.0

    n = len(passes[0][0])
    return sorted(min(p[i] * scale(ref) for p, ref in passes if i < len(p)) for i in range(n))


def latency_metrics(lat: list[float]) -> dict:
    return {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": (percentile(lat, 0.5) * 1e3, "ms"),
        "latency_p90_ms": (percentile(lat, 0.9) * 1e3, "ms"),
    }


def end_to_end(passes: list[tuple[list[float], float]], setup_s: float) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        **latency_metrics(op_latencies(passes, scaled=True)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(aggs: list[tuple[dict, dict]], walls: list[float], overhead: float) -> dict:
    """Per-layer metrics, each the median over the traced passes."""

    def med(fn, pick=statistics.median):
        return pick(fn(per, cnt) for per, cnt in aggs)

    def count(fn):
        # counts repeat exactly from pass to pass; median_low keeps them whole
        return med(fn, statistics.median_low)

    def calls(name):
        return count(lambda per, cnt: per.get(name, (0, 0))[0])

    def self_s(name):
        return med(lambda per, cnt: per.get(name, (0, 0))[1] / 1e9)

    def ratio(num, den):
        return med(lambda per, cnt: num(per, cnt) / max(1, den(per, cnt)))

    def share(layer):
        return statistics.median(
            sum(ns for name, (_, ns) in per.items() if name.split(".")[0] == layer) / 1e9 / wall
            for (per, _), wall in zip(aggs, walls)
        )

    m = {
        "epcore.generate_algebra.calls": (calls("epcore.generate_algebra"), "count"),
        "epcore.generate_algebra.self_s": (self_s("epcore.generate_algebra"), "s"),
        "epcore.algebra.members": (count(lambda p, c: c["epcore.algebra.members"]), "count"),
        "filters.build.self_s": (self_s("filters.build"), "s"),
        "filters.verify.calls": (calls("filters.verify"), "count"),
        "filters.verify.self_s": (self_s("filters.verify"), "s"),
        "filters.extend.self_s": (self_s("filters.extend"), "s"),
        "filters.member.calls": (calls("filters.member"), "count"),
        "filters.member.self_s": (self_s("filters.member"), "s"),
        "filters.member.cache_hit_ratio": (ratio(
            lambda p, c: c["filters.member.cache_hits"],
            lambda p, c: p.get("filters.member", (0, 0))[0]), "ratio"),
        "filters.filter_member.calls": (calls("filters.filter_member"), "count"),
        "filters.filter_member.self_s": (self_s("filters.filter_member"), "s"),
        "ipcore.search.calls": (calls("ipcore.search"), "count"),
        "ipcore.search.self_s": (self_s("ipcore.search"), "s"),
        "ipcore.search.found_ratio": (ratio(
            lambda p, c: c["ipcore.search.found"],
            lambda p, c: p.get("ipcore.search", (0, 0))[0]), "ratio"),
        "ipcore.certificate.calls": (calls("ipcore.certificate"), "count"),
        "ipcore.certificate.self_s": (self_s("ipcore.certificate"), "s"),
        "ipcore.pipeline.self_s": (self_s("ipcore.pipeline"), "s"),
        "dynamics.decide.self_s": (self_s("dynamics.decide"), "s"),
        "dynamics.solve.self_s": (self_s("dynamics.solve"), "s"),
        "dynamics.orbit.self_s": (self_s("dynamics.orbit"), "s"),
        "cli.main.calls": (calls("cli.main"), "count"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "cli.build_parser.calls": (calls("cli.build_parser"), "count"),
        "cli.build_parser.self_s": (self_s("cli.build_parser"), "s"),
        "bench.op.self_s": (self_s("bench.op"), "s"),
        "trace.wall_s": (statistics.median(walls), "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }
    for layer in LAYERS:
        m[f"share.{layer}"] = (share(layer), "ratio")
    return m


# -- a whole run ---------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Run one workload; return (metrics, facts, attempted, failures)."""
    import workloads as W

    ops = W.op_list(W.load_pins(), workload, seed, tiny=tiny)
    failures: list[dict] = []
    start = time.perf_counter()
    stop_at = start + max(3 * seconds, 30)
    facts: dict = {"ops_per_pass": len(ops)}
    signal.signal(signal.SIGALRM, _alarm)

    def more(pass_wall):
        # start another pass only if it should end near --seconds
        return time.perf_counter() - start + pass_wall / 2 < seconds

    if not trace:
        # set-up is timed SETUP_RUNS times spread over the run's passes, so
        # its median does not rest on one stretch of a shared machine
        passes, setups = [], []
        while True:
            if len(setups) * seconds <= SETUP_RUNS * (time.perf_counter() - start):
                setups.append(time_setup(workload, seed))
            t0 = time.perf_counter()
            passes.append(run_pass(W, workload, ops, stop_at, failures))
            if not more(time.perf_counter() - t0):
                break
        while len(setups) < SETUP_RUNS and not tiny:
            setups.append(time_setup(workload, seed))
        attempted = sum(len(p) for p, _ in passes)
        metrics = end_to_end(passes, statistics.median(setups))
        unscaled = latency_metrics(op_latencies(passes, scaled=False))
        facts.update(passes=len(passes), samples=attempted,
                     reference_ms=[round(ref * 1e3, 4) for _, ref in passes],
                     unscaled={name: value for name, (value, _) in unscaled.items()})
        if workload == "scope" and not tiny:
            facts["probe"] = run_probe(W)
        return metrics, facts, attempted, failures

    from tracer import Tracer

    tracer = Tracer()
    plain, walls, aggs = [], [], []
    attempted = 0
    while True:
        t0 = time.perf_counter()
        lat, _ = run_pass(W, workload, ops, stop_at, failures)
        plain.append(sum(lat))
        tracer.install()
        try:
            since = tracer.mark()
            traced, _ = run_pass(W, workload, ops, stop_at, failures, tracer)
            aggs.append(tracer.aggregate(since))
        finally:
            tracer.remove()
        walls.append(sum(traced))
        attempted += len(lat) + len(traced)
        if not more(time.perf_counter() - t0):
            break
    overhead = min(walls) / min(plain)
    metrics = per_layer(aggs, walls, overhead)
    shares = {layer: metrics[f"share.{layer}"][0] for layer in LAYERS}
    facts.update(passes=2 * len(walls), samples=attempted,
                 ranking=sorted(LAYERS, key=lambda k: -shares[k]))
    if not tiny:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{workload}-seed{seed}.csv.gz"
        tracer.write(path)
        facts["spans"] = str(path.relative_to(ROOT))
    return metrics, facts, attempted, failures


def commit() -> str | None:
    """The checkout's git commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def report(workload: str, seed: int, trace: bool, metrics, facts, attempted, failures) -> None:
    probe_failed = int(facts.get("probe", {}).get("reason") is not None)
    facts = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "commit": commit(), **facts,
        # fail_ratio counts the failing probe, which the result line leaves out
        "fail_ratio": (len(failures) + probe_failed) / (attempted + ("probe" in facts)),
        "failures": failures,
    }
    for name, (value, unit) in metrics.items():
        note = (f" (n={facts['ops_per_pass']} ops, each the best of {facts['passes']} passes)"
                if name.startswith("latency_") else "")
        print(f"{name} = {value:.6g} {unit}{note}")
    print(f"fail_ratio = {facts['fail_ratio']:.6g} ratio (n={attempted})")
    print(json.dumps(facts))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def self_check() -> int:
    """Tiny pass of every workload in both modes: outputs match, and every
    metric of BENCHMARK.json appears with its unit."""
    import workloads as W

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(W.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for workload in W.WORKLOADS:
        for trace in (0, 1):
            metrics, _, attempted, failures = measure(
                workload, DEFAULT_SEED, 0, bool(trace), tiny=True)
            got = {name: unit for name, (_, unit) in metrics.items()}
            if failures or not attempted:
                problems.append(f"{workload} trace={trace}: failed ops {failures}")
            if got != want[trace]:
                problems.append(f"{workload} trace={trace}: metrics {got} != {want[trace]}")
    for line in problems:
        print(line, file=sys.stderr)
    print("self-check", "failed" if problems else "ok")
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["scope", "search", "cli"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-check", action="store_true")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "epshift" / "__init__.py").is_file():
        print(f"perfbench: no epshift sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.self_check:
        return self_check()
    if args.workload is None:
        ap.error("--workload is required")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    report(args.workload, args.seed, bool(args.trace), *result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
