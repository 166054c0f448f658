"""Regenerate pins.json: the benchmark's case pools and their pinned outputs.

Run on the commit whose outputs are to be pinned:

    python3 perfbench/pin.py [workload ...]

Candidates are drawn from POOL_SEED and run once through their workload's
op, which records their cost and their outputs.  Each stratum keeps the
POOL_FACTOR x take candidates whose cost lies nearest the stratum's median
(for the search strata, among those inside a fixed cost band), sorted by
cost, so that workloads.op_list can draw every seed's inputs from the same
spread of costs.  Costs are timed on
the machine running this script, so a rerun elsewhere may keep other
cases; the pinned outputs are exact either way.  Takes about ten minutes
on a 2-core x86 box.
"""

from __future__ import annotations

import json
import math
import random
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import epshift as E  # noqa: E402
import workloads as W  # noqa: E402

POOL_SEED = 20130527
POOL_FACTOR = 3
FOREIGN = ["1,2+(3,1)", "2,4+(6)", "1+(2)", "3+(3)", "1,3+(2)", "2+(4)", "1,4+(5)"]

# tests/test_acceptance.py's CLI_CORPUS, then JOBS_CORPUS without --jobs
CLI_CORPUS = [
    ["set", "normalize", "110(010)"],
    ["set", "member", "(10)", "6"],
    ["set", "syndetic", "(10)"],
    ["set", "syndetic", "11(0)"],
    ["set", "algebra", "(10)", "(1100)", "--downward"],
    ["dyn", "shift", "1(10);(0011)", "2"],
    ["dyn", "ur", "(01);(0011)"],
    ["dyn", "ur", "10(01)"],
    ["dyn", "proximal", "00(01)", "(01)"],
    ["dyn", "proximal", "(10)", "(01)"],
    ["dyn", "ae", "1101(0110)"],
    ["dyn", "eaet", "(01)", "(01)", "(0011)"],
    ["dyn", "eaetp", "(01)", "--code", "1:1:1:01"],
    ["dyn", "cover", "(011)", "(011)", "1", "3"],
    ["dyn", "orbit", "(01);(001)"],
    ["ip", "fs", "1,2+(3,1)", "--terms", "3", "--bound", "30"],
    ["ip", "construct", "00(01)", "(01)", "--count", "5"],
    ["ip", "limit", "(10)", "--gen", "2+(2)", "--resolution", "6"],
    ["ip", "limit", "(10)", "--gen", "1+(2)", "--resolution", "6"],
    ["ip", "pipeline", "--coloring", "(10);(01)", "--terms", "4"],
    ["filter", "member", "--gen", "2+(2)", "--set", "(01)"],
    ["filter", "member", "--gen", "2,4+(6)", "--set", "(100)"],
    ["filter", "build", "(10)", "(100)"],
    ["filter", "verify", "--gen", "1,2+(3,1)", "--downward", "(10)"],
    ["filter", "dset", "--gen", "2+(2)", "--set", "(1000)"],
    ["filter", "ulimit", "--gen", "2+(2)", "(10);(01)"],
    ["filter", "extend", "--base", "(10)", "--new", "(1000)"],
    ["filter", "central", "(1100)"],
    ["scenario", "run", "aetmin.scn"],
    ["scenario", "run", "extend.scn"],
    ["ip", "hindman", "(10);(01)", "--terms", "3", "--bound", "24"],
    ["ip", "hindman", "(100);(010);(001)", "--terms", "3", "--bound", "48"],
    ["ip", "iht", "--coloring", "(10);(01)", "--coloring", "(1000);(0111)",
     "--terms", "3", "--bound", "64"],
]


def rand_set(rng, max_pre: int, max_per: int) -> E.EpSet:
    pre = "".join(rng.choice("01") for _ in range(rng.randint(0, max_pre)))
    per = "".join(rng.choice("01") for _ in range(rng.randint(1, max_per)))
    return E.EpSet(pre, per)


def measured(workload: str, case: dict) -> tuple[float, dict] | None:
    """Cost (best of three runs) and pinned outputs of one case, or None
    when the case fails its independent verifiers."""
    run, summary, verify, _ = W.WORKLOADS[workload]
    costs = []
    for _ in range(3):
        t0 = time.perf_counter()
        raw = run(case)
        costs.append(time.perf_counter() - t0)
    if not verify(case, raw):
        return None
    return min(costs), {**case, "expect": summary(raw)}


def nearest(cands: list[tuple[float, dict]], need: int) -> list[dict]:
    """The ``need`` cases whose cost is nearest the median, cheapest first,
    each with its cost in seconds."""
    if len(cands) < need:
        raise SystemExit(f"only {len(cands)} candidates for {need} pool slots")
    mid = statistics.median(c for c, _ in cands)
    kept = sorted(cands, key=lambda c: abs(math.log(c[0] / mid)))[:need]
    return [{**case, "cost_s": round(cost, 4)} for cost, case in sorted(kept, key=lambda c: c[0])]


def fill(workload: str, stratum: str, draw) -> list[dict]:
    """Draw twice the stratum's pool size and keep the half nearest the median."""
    need = POOL_FACTOR * dict(W.WORKLOADS[workload][3])[stratum]
    cands, seen = [], set()
    while len(cands) < 2 * need:
        case = draw()
        key = json.dumps(case, sort_keys=True)
        if case is None or key in seen:
            continue
        seen.add(key)
        got = measured(workload, case)
        if got is not None:
            cands.append(got)
    pool = nearest(cands, need)
    print(f"{workload}/{stratum}: kept {len(pool)} of {len(cands)}", file=sys.stderr)
    return pool


# -- scope -----------------------------------------------------------------


def scope_draw(rng, size: int):
    gens = [rand_set(rng, 4, 6) for _ in range(rng.choice([2, 3]))]
    try:
        sizes = [len(E.generate_algebra(gens[:k], downward=True, cap=size))
                 for k in range(1, len(gens) + 1)]
    except E.CapacityError:
        return None
    if sizes[-1] != size or any(a >= b for a, b in zip(sizes, sizes[1:])):
        return None
    alg = E.generate_algebra(gens, downward=True)
    for lit in rng.sample(FOREIGN, len(FOREIGN)):
        f = E.PartialUltrafilter.for_generator(E.IpGenerator.parse(lit))
        if not E.verify_filter(f, alg).all_pass:
            return {"gens": [g.literal for g in gens], "foreign": lit}
    return None


# -- search ----------------------------------------------------------------


def coloring(rng) -> list[str]:
    while True:
        p, r, m = rng.choice([2, 3, 4, 5, 6]), rng.choice([2, 2, 3]), rng.choice([0, 0, 1, 2])
        labels = [rng.randrange(r) for _ in range(m + p)]
        if len(set(labels[m:])) == r:
            break
    return [
        E.EpSet("".join("1" if c == k else "0" for c in labels[:m]),
                "".join("1" if c == k else "0" for c in labels[m:])).literal
        for k in range(r)
    ]


def least_bound(colorings, terms: int, limit_s: float = 3.0):
    """Least bound at which a witness exists, and that witness."""
    classes = [tuple(E.EpSet.parse(s) for s in c) for c in colorings]

    def search(bound):
        t0 = time.perf_counter()
        res = E.iht_search(classes, terms=terms, bound=bound)
        return res, time.perf_counter() - t0

    lo, hi = 0, 8
    while True:
        res, dt = search(hi)
        if res.found:
            break
        if dt > limit_s or hi > 4096:
            return None
        lo, hi = hi, 2 * hi
    best = res
    while hi - lo > 1:
        mid = (lo + hi) // 2
        res, _ = search(mid)
        if res.found:
            hi, best = mid, res
        else:
            lo = mid
    return hi, list(best.witness)


def search_pools(rng) -> dict:
    need = {s: POOL_FACTOR * t for s, t in W.WORKLOADS["search"][3]}
    # the costliest stratum holds the 90th percentile: draw it wider so
    # the cases kept nearest its median sit closer together
    spare = {"found": 2, "exhausted_mid": 2, "exhausted_heavy": 3}
    cands: dict[str, list] = {s: [] for s in need}
    seen = set()
    # an exhausted search joins a stratum when its cost, in seconds, is in band
    bands = {"exhausted_mid": (0.005, 0.08), "exhausted_heavy": (0.12, 0.8)}
    # (colorings, terms) shapes whose exhausted searches tend to land in
    # each band
    shapes = {"exhausted_mid": [(1, 5), (2, 4)], "exhausted_heavy": [(1, 6), (2, 5)]}
    while any(len(cands[s]) < spare[s] * need[s] for s in need):
        short = [s for s in shapes if len(cands[s]) < spare[s] * need[s]] or list(shapes)
        k, terms = rng.choice(shapes[rng.choice(short)])
        colorings = [coloring(rng) for _ in range(k)]
        key = json.dumps([colorings, terms])
        if key in seen:
            continue
        seen.add(key)
        got = least_bound(colorings, terms)
        if got is None:
            continue
        bound, witness = got
        base = {"colorings": colorings, "terms": terms}
        if len(cands["found"]) < spare["found"] * need["found"]:
            m = measured("search", {**base, "bound": 2 * bound, "least": []})
            if m:
                cands["found"].append(m)
        m = measured("search", {**base, "bound": bound - 1, "least": witness})
        if m is None:
            continue
        for stratum, (lo, hi) in bands.items():
            if lo <= m[0] <= hi and len(cands[stratum]) < spare[stratum] * need[stratum]:
                cands[stratum].append(m)
        print("search candidates:", {s: len(c) for s, c in cands.items()},
              k, terms, round(m[0], 4), file=sys.stderr)
    return {s: nearest(cands[s], need[s]) for s in need}


def main(argv: list[str]) -> None:
    """Regenerate the pools of the workloads named in argv (default: all),
    keeping the others from the current pins.json."""
    only = set(argv) or set(W.WORKLOADS)
    pins: dict = W.load_pins() if W.PINS.exists() else {}
    pins["pool_seed"] = POOL_SEED
    pools = {
        "scope": scope_pools, "search": search_pools, "cli": cli_pools,
    }
    for workload in W.WORKLOADS:
        if workload in only:
            # each workload draws from its own stream, so one can be redone alone
            pins[workload] = pools[workload](random.Random(f"{POOL_SEED}:{workload}"))
    with open(W.PINS, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")


def scope_pools(rng) -> dict:
    return {
        f"n{n}": fill("scope", f"n{n}", lambda n=n: scope_draw(rng, n))
        for n in (16, 32, 64)
    }


def cli_pools(rng) -> dict:
    corpus = []
    for argv in CLI_CORPUS:
        got = measured("cli", {"argv": argv})
        if got is None or got[1]["expect"]["exit"] != 0:
            raise SystemExit(f"corpus call failed: {argv}")
        corpus.append(got[1])
    return {"corpus": corpus}


if __name__ == "__main__":
    main(sys.argv[1:])
