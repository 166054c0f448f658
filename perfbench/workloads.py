"""Workloads of the epshift benchmark: pinned case pools, ops and checks.

A workload is a list of strata.  A seed's op list, run once per pass,
draws ``take`` cases from every stratum's pool in ``pins.json`` and
shuffles them.  The pools were filled by ``pin.py`` on the seed commit,
which kept in each stratum the cases whose cost sits nearest one target,
sorted by cost; the draw takes one case from each of ``take`` consecutive
cost blocks, so another seed gives other inputs at nearly the same cost.  The
``take`` counts put the median op in the middle of one large stratum and
the 90th-percentile op inside a costlier one, so neither percentile sits
on a boundary between strata or rests on one or two draws.

An op is ``run(case)``, the timed call into epshift through public names
only.  ``summary(raw)`` reduces its result to the values pinned in the
case's ``expect``; ``verify(case, raw)`` runs the library's independent
verifiers.  Both run outside the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

import epshift as E
from epshift import cli, ipcore

PINS = Path(__file__).with_name("pins.json")

# the ROADMAP's build that does not finish on the seed commit; it runs in a
# child process held to PROBE_DEADLINE_S and is reported as a failure
PROBE_ARGV = ["filter", "build", "(1101)", "(100)", "--cap", "4096"]
PROBE_DEADLINE_S = 3.0


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _literals(sets) -> list[str]:
    return [x.literal for x in sets]


def _colorings(case) -> list[tuple]:
    return [tuple(E.EpSet.parse(s) for s in c) for c in case["colorings"]]


# -- scope: closure, filter build, foreign audit, extension chain ----------


def scope_run(case):
    gens = [E.EpSet.parse(s) for s in case["gens"]]
    alg = E.generate_algebra(gens, downward=True)
    built = E.build_partial_ultrafilter(alg)
    foreign = E.PartialUltrafilter.for_generator(E.IpGenerator.parse(case["foreign"]))
    report = E.verify_filter(foreign, alg)
    chain = E.build_partial_ultrafilter(E.generate_algebra(gens[:1], downward=True))
    for k in range(2, len(gens)):
        chain = E.extend_filter(chain, E.generate_algebra(gens[:k], downward=True))
    chain = E.extend_filter(chain, alg)
    return alg, built, report, chain


def scope_summary(raw) -> dict:
    alg, built, report, chain = raw
    return {
        "size": len(alg),
        "members": digest(_literals(alg.members)),
        "generator": built.generator.literal,
        "selected": digest(_literals(built.members_of(alg))),
        "foreign_pass": report.all_pass,
        "foreign_report": digest(report.as_dict()),
        "chain_generator": chain.generator.literal,
        "chain_selected": digest(_literals(chain.members_of(alg))),
    }


def scope_verify(case, raw) -> bool:
    alg, built, _, _ = raw
    return E.verify_filter(built, alg).all_pass


# -- search: least witnesses, found early or exhausted at their bound ------


def search_run(case):
    colorings = _colorings(case)
    if len(colorings) == 1:
        res = E.hindman_search(colorings[0], terms=case["terms"], bound=case["bound"])
    else:
        res = E.iht_search(colorings, terms=case["terms"], bound=case["bound"])
    # an exhausted search is audited on the least witness one bound higher
    witness = res.witness if res.found else tuple(case["least"])
    return res, ipcore.verify_iht_witness(witness, colorings)


def search_summary(raw) -> dict:
    res, audit = raw
    return {
        "found": res.found,
        "witness": list(res.witness) if res.found else None,
        "audit": audit,
    }


def search_verify(case, raw) -> bool:
    res, audit = raw
    if not res.found:
        return not audit and sum(case["least"]) == case["bound"] + 1
    return not audit and max(res.sums) <= case["bound"]


# -- cli: the acceptance corpus through epshift.cli.main, in-process -------


def cli_run(case):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(case["argv"]))
    return code, out.getvalue()


def cli_summary(raw) -> dict:
    code, stdout = raw
    return {"exit": code, "stdout": stdout}


def cli_verify(case, raw) -> bool:
    return raw[0] == 0


# name -> (run, summary, verify, [(stratum, take per pass), ...])
WORKLOADS = {
    "scope": (scope_run, scope_summary, scope_verify,
              [("n16", 6), ("n32", 14), ("n64", 6)]),
    "search": (search_run, search_summary, search_verify,
               [("found", 4), ("exhausted_mid", 24), ("exhausted_heavy", 9)]),
    "cli": (cli_run, cli_summary, cli_verify, [("corpus", 33)]),
}


def load_pins() -> dict:
    with open(PINS, encoding="utf-8") as fh:
        return json.load(fh)


def op_list(pins: dict, workload: str, seed: int, tiny: bool = False) -> list[tuple[str, dict]]:
    """The seeded op list: (stratum, case) pairs, one pass of the workload.

    ``tiny`` keeps at most two cases per stratum, for the self-check.
    """
    rng = random.Random(f"{workload}:{seed}")
    ops = []
    for stratum, take in WORKLOADS[workload][3]:
        pool = pins[workload][stratum]  # cheapest first
        size = min(take, 2) if tiny else take
        # one case from each of `size` consecutive cost blocks, so every
        # seed draws the same spread of costs
        edges = [round(i * len(pool) / size) for i in range(size + 1)]
        ops += [(stratum, pool[rng.randrange(a, b)]) for a, b in zip(edges, edges[1:])]
    rng.shuffle(ops)
    return ops
