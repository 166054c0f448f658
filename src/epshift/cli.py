"""Command-line front door.

Every subcommand prints one line of JSON on stdout.  Verdicts live inside
the JSON (a failed search or a FAIL audit still exits 0); nonzero exits are
reserved for bad input (2), a blown resource cap (3), or an internal
consistency failure (1).  Output is deterministic: key order is fixed at
construction and no floating point is ever emitted.
"""

from __future__ import annotations

import argparse
import functools
import json
import shlex
import sys
from importlib import resources

from .epcore import (
    CapacityError,
    ConstructionError,
    EpSet,
    InputError,
    generate_algebra,
)
from .dynamics import (
    BlockCode,
    Cylinder,
    SymbolicPoint,
    ae_solve,
    are_proximal,
    covering_bound,
    eaet_extend,
    eaet_prime,
    is_uniformly_recurrent,
    orbit_closure,
    shift,
)
from .ipcore import (
    IpConstructionCertificate,
    IpGenerator,
    aet_to_iht_pipeline,
    fs_enumerate,
    hindman_search,
    iht_search,
    ip_limit_check,
    ip_sequence_construct,
)
from .filters import (
    PartialUltrafilter,
    build_partial_ultrafilter,
    central_check,
    extend_filter,
    filter_member,
    translate_membership_set,
    ultralimit,
    verify_filter,
)

__all__ = ["main", "build_parser"]


def _sets(texts: list[str]) -> list[EpSet]:
    return [EpSet.parse(t) for t in texts]


def _classes(text: str) -> tuple[EpSet, ...]:
    return tuple(EpSet.parse(part) for part in text.split(";"))


def _cert_dict(cert: IpConstructionCertificate) -> dict:
    return {
        "generator": cert.generator.literal,
        "neighborhoods": [[u.coord_depth, u.pos_depth] for u in cert.neighborhoods],
        "source": cert.source.literal,
        "target": cert.target.literal,
    }


# ---------------------------------------------------------------- set group


def _cmd_set_normalize(ns) -> dict:
    x = EpSet.parse(ns.set)
    return {"set": x.literal, "preperiod": len(x.pre), "period": len(x.per)}


def _cmd_set_member(ns) -> dict:
    x = EpSet.parse(ns.set)
    if ns.n < 0:
        raise InputError(f"position must be >= 0, got {ns.n}")
    return {"member": x.member(ns.n), "n": ns.n}


def _cmd_set_syndetic(ns) -> dict:
    cert = EpSet.parse(ns.set).is_syndetic()
    if cert.syndetic:
        return {"syndetic": True, "gap": cert.bound}
    return {"syndetic": False, "empty_from": cert.empty_from}


def _cmd_set_algebra(ns) -> dict:
    alg = generate_algebra(_sets(ns.sets), downward=ns.downward, cap=ns.cap)
    return {
        "size": len(alg),
        "downward": alg.downward_closed,
        "generators": [g.literal for g in alg.generators],
        "members": [m.literal for m in alg.members],
    }


# ---------------------------------------------------------------- dyn group


def _cmd_dyn_shift(ns) -> dict:
    if ns.n < 0:
        raise InputError(f"shift count must be >= 0, got {ns.n}")
    return {"point": shift(SymbolicPoint.parse(ns.point), ns.n).literal}


def _cmd_dyn_ur(ns) -> dict:
    rep = is_uniformly_recurrent(SymbolicPoint.parse(ns.point))
    if rep.recurrent:
        return {"recurrent": True, "gaps": list(rep.gaps)}
    return {
        "recurrent": False,
        "coord": rep.coord,
        "word": rep.word,
        "occurrences": list(rep.occurrences),
    }


def _cmd_dyn_proximal(ns) -> dict:
    rep = are_proximal(SymbolicPoint.parse(ns.x), SymbolicPoint.parse(ns.y))
    if rep.proximal:
        return {"proximal": True, "witness": rep.witness}
    return {"proximal": False, "exponent": rep.exponent}


def _cmd_dyn_ae(ns) -> dict:
    return {"point": ae_solve(SymbolicPoint.parse(ns.point)).literal}


def _cmd_dyn_eaet(ns) -> dict:
    y2 = eaet_extend(
        SymbolicPoint.parse(ns.x1),
        SymbolicPoint.parse(ns.y1),
        SymbolicPoint.parse(ns.x2),
    )
    return {"point": y2.literal}


def _cmd_dyn_eaetp(ns) -> dict:
    codes = [BlockCode.parse(c) for c in ns.code]
    ys = eaet_prime(SymbolicPoint.parse(ns.point), codes)
    return {"points": [y.literal for y in ys]}


def _cmd_dyn_cover(ns) -> dict:
    u = Cylinder(SymbolicPoint.parse(ns.reference), ns.coord_depth, ns.pos_depth)
    return {"bound": covering_bound(SymbolicPoint.parse(ns.point), u)}


def _cmd_dyn_orbit(ns) -> dict:
    pts = orbit_closure(SymbolicPoint.parse(ns.point))
    return {"size": len(pts), "points": [p.literal for p in pts]}


# ----------------------------------------------------------------- ip group


def _cmd_ip_fs(ns) -> dict:
    g = IpGenerator.parse(ns.gen)
    sums = fs_enumerate(g, from_index=ns.from_index, max_terms=ns.terms, bound=ns.bound)
    return {"count": len(sums), "sums": list(sums)}


def _cmd_ip_construct(ns) -> dict:
    cert = ip_sequence_construct(
        SymbolicPoint.parse(ns.x), SymbolicPoint.parse(ns.y), count=ns.count
    )
    d = _cert_dict(cert)
    return {
        "generator": d["generator"],
        "count": len(cert.generator.head),
        "neighborhoods": d["neighborhoods"],
        "source": d["source"],
        "target": d["target"],
    }


def _cmd_ip_limit(ns) -> dict:
    verdict = ip_limit_check(
        SymbolicPoint.parse(ns.point),
        IpGenerator.parse(ns.gen),
        resolution=ns.resolution,
        sum_terms=ns.terms,
        witness_count=ns.window,
    )
    out: dict = {"passed": verdict.passed, "kind": verdict.kind, "limit": verdict.limit.literal}
    if verdict.passed:
        out["offset"] = verdict.offset
    else:
        out["counterexamples"] = [list(c) for c in verdict.counterexamples]
    return out


def _search_payload(res) -> dict:
    if not res.found:
        return {"found": False, "bound": res.bound}
    return {
        "found": True,
        "bound": res.bound,
        "witness": list(res.witness),
        "sums": list(res.sums),
        "colors": list(res.colors),
    }


def _cmd_ip_hindman(ns) -> dict:
    res = hindman_search(_classes(ns.classes), terms=ns.terms, bound=ns.bound)
    return _search_payload(res)


def _cmd_ip_iht(ns) -> dict:
    colorings = [_classes(c) for c in ns.coloring]
    res = iht_search(colorings, terms=ns.terms, bound=ns.bound)
    return _search_payload(res)


def _cmd_ip_pipeline(ns) -> dict:
    colorings = [_classes(c) for c in ns.coloring]
    res = aet_to_iht_pipeline(colorings, terms=ns.terms)
    return {
        "witness": list(res.witness),
        "colors": list(res.colors),
        "stages": dict(res.stages),
        "certificate": _cert_dict(res.certificate),
    }


# ------------------------------------------------------------- filter group


def _cmd_filter_member(ns) -> dict:
    res = filter_member(IpGenerator.parse(ns.gen), EpSet.parse(ns.set))
    if res.member:
        return {"member": True, "tail_start": res.tail_start, "closure": list(res.closure)}
    return {"member": False, "witness_sum": res.witness_sum}


def _build_payload(f: PartialUltrafilter) -> dict:
    report = f.trace["report"]
    return {
        "all_pass": report.all_pass,
        "generator": f.generator.literal,
        "scope_size": len(f.scope),
        "members": [x.literal for x in f.members_of(f.scope)],
        "stages": {
            "encoded_point": f.trace["encoded_point"],
            "ae_point": f.trace["ae_point"],
            "certificate": _cert_dict(f.trace["certificate"]),
        },
    }


def _cmd_filter_build(ns) -> dict:
    alg = generate_algebra(_sets(ns.sets), downward=True, cap=ns.cap)
    return _build_payload(build_partial_ultrafilter(alg, count=ns.count))


def _cmd_filter_verify(ns) -> dict:
    f = PartialUltrafilter.for_generator(IpGenerator.parse(ns.gen))
    alg = generate_algebra(_sets(ns.sets), downward=ns.downward, cap=ns.cap)
    return verify_filter(f, alg).as_dict()


def _cmd_filter_dset(ns) -> dict:
    f = PartialUltrafilter.for_generator(IpGenerator.parse(ns.gen))
    return {"set": translate_membership_set(f, EpSet.parse(ns.set)).literal}


def _cmd_filter_ulimit(ns) -> dict:
    f = PartialUltrafilter.for_generator(IpGenerator.parse(ns.gen))
    return {"point": ultralimit(f, SymbolicPoint.parse(ns.point)).literal}


def _cmd_filter_extend(ns) -> dict:
    base = generate_algebra(_sets(ns.base), downward=True, cap=ns.cap)
    wider = generate_algebra(_sets(ns.base + ns.new), downward=True, cap=ns.cap)
    f = build_partial_ultrafilter(base, count=ns.count)
    g = extend_filter(f, wider, count=ns.count)
    report = g.trace["report"]
    return {
        "agreement": True,
        "all_pass": report.all_pass,
        "generator": g.generator.literal,
        "base_size": len(base),
        "new_size": len(wider),
        "members": [x.literal for x in g.members_of(wider)],
    }


def _cmd_filter_central(ns) -> dict:
    return central_check(EpSet.parse(ns.set), bound=ns.bound, cap=ns.cap).as_dict()


# ------------------------------------------------------------ scenario group


class _ScenarioError(InputError):
    pass


def _scenario_text(name: str) -> str:
    try:
        with open(name, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        pass
    ref = resources.files("epshift").joinpath("scenarios", name)
    try:
        return ref.read_text(encoding="utf-8")
    except (FileNotFoundError, ModuleNotFoundError):
        raise _ScenarioError(f"no scenario file or bundled scenario named {name!r}")


def _parse_scenario(text: str) -> list[tuple[str, str]]:
    steps: list[tuple[str, str]] = []
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, sep, command = line.partition(":")
        name = name.strip()
        if not sep or not name or not name.isidentifier():
            raise _ScenarioError(f"line {lineno}: expected 'name: command ...'")
        if name in seen:
            raise _ScenarioError(f"line {lineno}: duplicate step name {name!r}")
        seen.add(name)
        steps.append((name, command.strip()))
    return steps


def _lookup(results: dict[str, dict], ref: str) -> str:
    head, *path = ref.split(".")
    if head not in results:
        raise _ScenarioError(f"reference ${ref} does not name an earlier step")
    value: object = results[head]
    for seg in path:
        if isinstance(value, dict) and seg in value:
            value = value[seg]
        elif isinstance(value, (list, tuple)) and seg.lstrip("-").isdigit():
            try:
                value = value[int(seg)]
            except IndexError:
                raise _ScenarioError(f"reference ${ref}: index {seg} out of range")
        else:
            raise _ScenarioError(f"reference ${ref}: no field {seg!r}")
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return json.dumps(value)


def _substitute(token: str, results: dict[str, dict]) -> str:
    if token.startswith("$"):
        return _lookup(results, token[1:])
    return token


def _cmd_scenario_run(ns) -> dict:
    parser = build_parser()
    steps = _parse_scenario(_scenario_text(ns.file))
    results: dict[str, dict] = {}
    transcript = []
    for name, command in steps:
        argv = [_substitute(tok, results) for tok in shlex.split(command)]
        if argv[:1] == ["scenario"]:
            raise _ScenarioError(f"step {name!r}: scenarios cannot nest")
        try:
            sub = parser.parse_args(argv)
        except SystemExit:
            raise _ScenarioError(f"step {name!r}: cannot parse {command!r}")
        results[name] = sub.handler(sub)
        transcript.append({"name": name, "command": command, "result": results[name]})
    return {"steps": transcript}


# ------------------------------------------------------------------ parser


def _add_common(p: argparse.ArgumentParser, *flags: str) -> None:
    if "cap" in flags:
        p.add_argument("--cap", type=int, default=65536, help="algebra size cap")
    if "count" in flags:
        p.add_argument("--count", type=int, default=8, help="certificate length")


def build_parser() -> argparse.ArgumentParser:
    """The epshift parser, built once per process: argparse keeps no state
    between parses, each of which fills a fresh namespace."""
    # a plain function over a cached builder, because the benchmark's
    # tracer (perfbench/tracer.py) wraps plain functions only
    return _parser()


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epshift",
        description="Exact workbench for eventually periodic sets, shift dynamics, "
        "finite-sum searches, and partial ultrafilters.",
    )
    groups = parser.add_subparsers(dest="group", required=True, metavar="GROUP")

    g_set = groups.add_parser("set", help="eventually periodic set operations")
    set_cmds = g_set.add_subparsers(dest="command", required=True, metavar="CMD")

    p = set_cmds.add_parser("normalize", help="canonical literal and shape")
    p.add_argument("set")
    p.set_defaults(handler=_cmd_set_normalize)

    p = set_cmds.add_parser("member", help="is n in the set")
    p.add_argument("set")
    p.add_argument("n", type=int)
    p.set_defaults(handler=_cmd_set_member)

    p = set_cmds.add_parser("syndetic", help="exact gap bound or vanishing point")
    p.add_argument("set")
    p.set_defaults(handler=_cmd_set_syndetic)

    p = set_cmds.add_parser("algebra", help="closure under boolean ops and translation")
    p.add_argument("sets", nargs="+", metavar="set")
    p.add_argument("--downward", action="store_true", help="close under all X-n")
    _add_common(p, "cap")
    p.set_defaults(handler=_cmd_set_algebra)

    g_dyn = groups.add_parser("dyn", help="shift dynamics on symbolic points")
    dyn_cmds = g_dyn.add_subparsers(dest="command", required=True, metavar="CMD")

    p = dyn_cmds.add_parser("shift", help="apply the shift n times")
    p.add_argument("point")
    p.add_argument("n", type=int)
    p.set_defaults(handler=_cmd_dyn_shift)

    p = dyn_cmds.add_parser("ur", help="exact uniform recurrence decision")
    p.add_argument("point")
    p.set_defaults(handler=_cmd_dyn_ur)

    p = dyn_cmds.add_parser("proximal", help="exact proximality decision")
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(handler=_cmd_dyn_proximal)

    p = dyn_cmds.add_parser("ae", help="the uniformly recurrent proximal companion")
    p.add_argument("point")
    p.set_defaults(handler=_cmd_dyn_ae)

    p = dyn_cmds.add_parser("eaet", help="extend an AET pair over a second point")
    p.add_argument("x1")
    p.add_argument("y1")
    p.add_argument("x2")
    p.set_defaults(handler=_cmd_dyn_eaet)

    p = dyn_cmds.add_parser("eaetp", help="AET chain along block codes")
    p.add_argument("point")
    p.add_argument("--code", action="append", required=True, metavar="CODE")
    p.set_defaults(handler=_cmd_dyn_eaetp)

    p = dyn_cmds.add_parser("cover", help="orbit covering bound for a cylinder")
    p.add_argument("point")
    p.add_argument("reference")
    p.add_argument("coord_depth", type=int)
    p.add_argument("pos_depth", type=int)
    p.set_defaults(handler=_cmd_dyn_cover)

    p = dyn_cmds.add_parser("orbit", help="finite orbit closure")
    p.add_argument("point")
    p.set_defaults(handler=_cmd_dyn_orbit)

    g_ip = groups.add_parser("ip", help="IP sequences and finite-sum searches")
    ip_cmds = g_ip.add_subparsers(dest="command", required=True, metavar="CMD")

    p = ip_cmds.add_parser("fs", help="enumerate finite sums of a tail")
    p.add_argument("gen")
    p.add_argument("--from", dest="from_index", type=int, default=0, metavar="K")
    p.add_argument("--terms", type=int, default=3)
    p.add_argument("--bound", type=int, default=64)
    p.set_defaults(handler=_cmd_ip_fs)

    p = ip_cmds.add_parser("construct", help="certified IP sequence for an AET pair")
    p.add_argument("x")
    p.add_argument("y")
    _add_common(p, "count")
    p.set_defaults(handler=_cmd_ip_construct)

    p = ip_cmds.add_parser("limit", help="bounded IP-limit check")
    p.add_argument("point")
    p.add_argument("--gen", required=True)
    p.add_argument("--resolution", type=int, required=True, metavar="K")
    p.add_argument("--terms", type=int, default=3)
    p.add_argument("--window", type=int, default=6, help="tail offsets to try")
    p.set_defaults(handler=_cmd_ip_limit)

    p = ip_cmds.add_parser("hindman", help="least monochromatic FS witness")
    p.add_argument("classes", help='semicolon-joined classes, e.g. "(10);(01)"')
    p.add_argument("--terms", type=int, required=True)
    p.add_argument("--bound", type=int, required=True)
    p.set_defaults(handler=_cmd_ip_hindman)

    p = ip_cmds.add_parser("iht", help="iterated Hindman search over colorings")
    p.add_argument("--coloring", action="append", required=True, metavar="CLASSES")
    p.add_argument("--terms", type=int, required=True)
    p.add_argument("--bound", type=int, required=True)
    p.set_defaults(handler=_cmd_ip_iht)

    p = ip_cmds.add_parser("pipeline", help="witness from dynamics, not search")
    p.add_argument("--coloring", action="append", required=True, metavar="CLASSES")
    p.add_argument("--terms", type=int, required=True)
    p.set_defaults(handler=_cmd_ip_pipeline)

    g_filter = groups.add_parser("filter", help="partial ultrafilters over algebras")
    f_cmds = g_filter.add_subparsers(dest="command", required=True, metavar="CMD")

    p = f_cmds.add_parser("member", help="decide membership with certificate")
    p.add_argument("--gen", required=True)
    p.add_argument("--set", required=True)
    p.set_defaults(handler=_cmd_filter_member)

    p = f_cmds.add_parser("build", help="construct and audit a minimal idempotent filter")
    p.add_argument("sets", nargs="+", metavar="set", help="algebra generators")
    _add_common(p, "cap", "count")
    p.set_defaults(handler=_cmd_filter_build)

    p = f_cmds.add_parser("verify", help="audit a generator against an algebra")
    p.add_argument("--gen", required=True)
    p.add_argument("sets", nargs="+", metavar="set")
    p.add_argument("--downward", action="store_true")
    _add_common(p, "cap")
    p.set_defaults(handler=_cmd_filter_verify)

    p = f_cmds.add_parser("dset", help="translate-membership set D(X)")
    p.add_argument("--gen", required=True)
    p.add_argument("--set", required=True)
    p.set_defaults(handler=_cmd_filter_dset)

    p = f_cmds.add_parser("ulimit", help="coordinatewise ultralimit of a point")
    p.add_argument("--gen", required=True)
    p.add_argument("point")
    p.set_defaults(handler=_cmd_filter_ulimit)

    p = f_cmds.add_parser("extend", help="extend a built filter to a wider scope")
    p.add_argument("--base", action="append", required=True, metavar="SET")
    p.add_argument("--new", action="append", required=True, metavar="SET")
    _add_common(p, "cap", "count")
    p.set_defaults(handler=_cmd_filter_extend)

    p = f_cmds.add_parser("central", help="syndetic + IP + filter membership report")
    p.add_argument("set")
    p.add_argument("--bound", type=int, default=128, help="IP witness sum bound")
    _add_common(p, "cap")
    p.set_defaults(handler=_cmd_filter_central)

    g_scn = groups.add_parser("scenario", help="run a named-step scenario file")
    s_cmds = g_scn.add_subparsers(dest="command", required=True, metavar="CMD")

    p = s_cmds.add_parser("run", help="execute steps, print the transcript")
    p.add_argument("file", help="path, or the name of a bundled scenario")
    p.set_defaults(handler=_cmd_scenario_run)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        payload = ns.handler(ns)
    except InputError as exc:
        print(f"epshift: error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"epshift: cap exceeded: {exc}", file=sys.stderr)
        return 3
    except ConstructionError as exc:
        print(f"epshift: internal check failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
