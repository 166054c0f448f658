"""Acceptance suite: ten end-to-end criteria, one verdict line each.

Every criterion draws its instances from a fixed-seed RNG, checks the fast
decision procedures against independent brute-force oracles or re-verifies
emitted certificates from scratch, and prints a single PASS/FAIL line.
"""

from __future__ import annotations

import math
import random
from itertools import combinations

import pytest

from epshift.epcore import CapacityError, EpSet, generate_algebra
from epshift.dynamics import (
    SymbolicPoint,
    ae_solve,
    are_proximal,
    covering_bound,
    distance_exponent,
    encode_point,
    is_uniformly_recurrent,
    orbit_closure,
    shift,
)
from epshift.ipcore import (
    aet_to_iht_pipeline,
    color_of,
    ip_sequence_construct,
    verify_ip_certificate,
)
from epshift.filters import (
    build_partial_ultrafilter,
    extend_filter,
    filter_member,
    ultralimit,
    verify_filter,
)
from epshift.cli import main

from oracles import (
    brute_proximal,
    brute_ur,
    closed_form_member,
    first_member_at_least,
    periodic_part,
    pinned_cases,
)


def _report(n: int, claim: str, failures: list) -> None:
    verdict = "PASS" if not failures else "FAIL"
    print(f"[{verdict}] criterion {n}: {claim}")
    assert not failures, f"criterion {n}: {failures[:5]}"


def _rand_set(rng: random.Random, max_pre: int, max_per: int) -> EpSet:
    pre = "".join(rng.choice("01") for _ in range(rng.randrange(max_pre + 1)))
    per = "".join(rng.choice("01") for _ in range(rng.randrange(1, max_per + 1)))
    return EpSet(pre, per)


def _rand_point(rng: random.Random, max_coords: int, max_pre: int, max_per: int) -> SymbolicPoint:
    count = rng.randrange(1, max_coords + 1)
    return SymbolicPoint(tuple(_rand_set(rng, max_pre, max_per) for _ in range(count)))


def test_criterion_01_ae_solver_validity():
    rng = random.Random(0xEA701)
    failures = []
    for _ in range(200):
        x = _rand_point(rng, max_coords=3, max_pre=8, max_per=8)
        y = ae_solve(x)
        if not is_uniformly_recurrent(y)["recurrent"]:
            failures.append(("not UR", x.literal))
        elif not are_proximal(x, y)["proximal"]:
            failures.append(("not proximal", x.literal))
    _report(1, "ae_solve output is uniformly recurrent and proximal on 200 random points", failures)


def test_criterion_02_ip_certificates_and_fs_containment():
    rng = random.Random(0xEA702)
    failures = []
    for _ in range(50):
        x = _rand_point(rng, max_coords=2, max_pre=6, max_per=6)
        y = ae_solve(x)
        cert = ip_sequence_construct(x, y, count=12)
        problems = verify_ip_certificate(cert)
        if problems:
            failures.append((x.literal, problems[0]))
            continue
        terms = [cert.generator.term(i) for i in range(12)]
        for size in range(1, 5):
            for idx in combinations(range(12), size):
                s = sum(terms[i] for i in idx)
                if distance_exponent(shift(x, s), y) < idx[0]:
                    failures.append((x.literal, idx))
    _report(2, "IP certificates re-verify and FS sums of <=4 of 12 terms stay ball-contained", failures)


@pytest.fixture(scope="module")
def built_filters():
    rng = random.Random(0xEA703)
    built = []
    while len(built) < 50:
        gens = [_rand_set(rng, max_pre=4, max_per=6) for _ in range(rng.randrange(1, 3))]
        try:
            alg = generate_algebra(gens, downward=True, cap=128)
        except CapacityError:
            continue
        built.append((alg, build_partial_ultrafilter(alg)))
    return built


def test_criterion_03_build_and_audit_random_algebras(built_filters):
    failures = []
    for alg, f in built_filters:
        report = verify_filter(f, alg)
        if not report.all_pass:
            failures.append((f.generator.literal, report.as_dict()))
            continue
        want = [a.literal for a in alg.members if closed_form_member(a)]
        if [e["set"] for e in report.members] != want:
            failures.append(("closed form", f.generator.literal))
        for entry in report.members:
            d = periodic_part(EpSet.parse(entry["set"]))
            if (
                entry["translate_set"] != d.literal
                or entry["gap"] != d.is_syndetic().bound
                or entry["hirst_witness"] != first_member_at_least(d, 1)
                or not filter_member(f.generator, d).member
            ):
                failures.append((f.generator.literal, entry))
    _report(3, f"filters over {len(built_filters)} random downward algebras pass and match the closed form", failures)


def test_criterion_04_decision_procedure_vs_brute_force():
    np = pytest.importorskip("numpy")
    from epshift.ipcore import IpGenerator

    def subset_sums(terms, max_size):
        n = len(terms)
        masks = np.arange(1 << n, dtype=np.int64)
        sizes = np.zeros(1 << n, dtype=np.int64)
        sums = np.zeros(1 << n, dtype=np.int64)
        for b in range(n):
            bit = (masks >> b) & 1
            sizes += bit
            sums += bit * int(terms[b])
        return sums, sizes

    def members_mask(x: EpSet, s):
        mx, px = len(x.pre), len(x.per)
        per_bits = np.frombuffer(x.per.encode(), dtype=np.uint8) - ord("0")
        tail = per_bits[np.maximum(s - mx, 0) % px]
        if mx == 0:
            return tail == 1
        pre_bits = np.frombuffer(x.pre.encode(), dtype=np.uint8) - ord("0")
        head = pre_bits[np.minimum(s, mx - 1)]
        return np.where(s < mx, head, tail) == 1

    def brute_all_sums_in(g, x, start):
        # every sum of 1..6 distinct terms with indices in [start, start+25)
        terms = [g.term(i) for i in range(start, start + 25)]
        sa, ka = subset_sums(terms[:13], 6)
        sb, kb = subset_sums(terms[13:], 6)
        for k1 in range(7):
            a = sa[ka == k1]
            lo = 1 if k1 == 0 else 0
            b = sb[(kb >= lo) & (kb <= 6 - k1)]
            if not members_mask(x, (a[:, None] + b[None, :]).ravel()).all():
                return False
        return True

    gens = [
        IpGenerator(head, diffs)
        for head in [(1,), (2,), (3,), (5,), (1, 2), (2, 3), (1, 4), (2, 4)]
        for diffs in [(1,), (2,), (3,), (2, 1), (1, 3), (4,), (5,), (3, 2)]
    ]
    rng = random.Random(0xEA704)
    sets = {EpSet.parse(t) for t in ["(1)", "(0)", "(10)", "(01)", "(100)", "(110)", "1(0)", "0(1)"]}
    while len(sets) < 10:
        sets.add(_rand_set(rng, max_pre=4, max_per=5))
    sets = sorted(sets, key=lambda s: s.literal)

    failures = []
    pairs = 0
    for g in gens:
        for x in sets:
            pairs += 1
            res = filter_member(g, x)
            if res.tail_start > 5:
                failures.append(("tail start outside brute frame", g.literal, x.literal))
                continue
            brute = brute_all_sums_in(g, x, res.tail_start)
            if res.member != brute:
                failures.append(("disagrees with brute force", g.literal, x.literal))
            if not res.member:
                if x.member(res.witness_sum) or len(res.witness_indices) > 6:
                    failures.append(("bad certificate", g.literal, x.literal))
                elif sum(g.term(i) for i in res.witness_indices) != res.witness_sum:
                    failures.append(("certificate sum mismatch", g.literal, x.literal))
    assert pairs >= 500
    _report(4, f"filter_member matches brute FS checking on {pairs} (generator, set) pairs", failures)


def test_criterion_05_ultralimit_coherence(built_filters):
    failures = []
    for alg, f in built_filters:
        x = encode_point(alg.members)
        y = ultralimit(f, x)
        if not is_uniformly_recurrent(y)["recurrent"]:
            failures.append(("not UR", f.generator.literal))
        if not are_proximal(x, y)["proximal"]:
            failures.append(("not proximal", f.generator.literal))
        for a, c in zip(alg.members, y.coords):
            if f.member(a) != (c.window(0, 1) == "0"):
                failures.append(("biconditional", f.generator.literal, a.literal))
            if closed_form_member(a) != (c.window(0, 1) == "0"):
                failures.append(("closed form", f.generator.literal, a.literal))
    _report(5, "ultralimit of every built filter is UR, proximal, and tracks membership", failures)


def test_criterion_06_extension_chains():
    rng = random.Random(0xEA706)
    failures = []
    chains = 0
    while chains < 30:
        g1, g2, g3 = (_rand_set(rng, max_pre=2, max_per=4) for _ in range(3))
        try:
            a0 = generate_algebra([g1], downward=True, cap=64)
            a1 = generate_algebra([g1, g2], downward=True, cap=96)
            a2 = generate_algebra([g1, g2, g3], downward=True, cap=128)
        except CapacityError:
            continue
        if not (len(a0) < len(a1) < len(a2)):
            continue
        chains += 1
        f0 = build_partial_ultrafilter(a0)
        f1 = extend_filter(f0, a1)
        f2 = extend_filter(f1, a2)
        for a in a0.members:
            if f1.member(a) != f0.member(a):
                failures.append(("first extension", g1.literal, a.literal))
        for a in a1.members:
            if f2.member(a) != f1.member(a):
                failures.append(("second extension", g2.literal, a.literal))
        for a in a2.members:
            if f2.member(a) != closed_form_member(a):
                failures.append(("closed form", g3.literal, a.literal))
    _report(6, "30 extension chains agree with their predecessors on the full base scope", failures)


def test_criterion_07_pipeline_homogeneity():
    rng = random.Random(0xEA707)
    failures = []
    for _ in range(20):
        colorings = []
        for _ in range(rng.randrange(1, 4)):
            cls = _rand_set(rng, max_pre=2, max_per=6)
            colorings.append((cls, cls.complement()))
        g = aet_to_iht_pipeline(colorings, terms=max(4, len(colorings))).generator
        terms = [g.term(i) for i in range(10)]
        for j, coloring in enumerate(colorings):
            color = color_of(coloring, g.head[j])
            for size in range(1, 5):
                for idx in combinations(range(j, 10), size):
                    s = sum(terms[i] for i in idx)
                    if color_of(coloring, s) != color:
                        failures.append((g.literal, j, idx))
    _report(7, "20 pipeline witnesses are suffix-FS-homogeneous over 4-fold sums of 10 terms", failures)


def test_criterion_08_exact_decisions_vs_brute_scans():
    rng = random.Random(0xEA708)
    failures = []

    for _ in range(500):
        x = _rand_set(rng, max_pre=6, max_per=6)
        cert = x.is_syndetic()
        m, p = len(x.pre), len(x.per)
        members = [n for n in range(m + 3 * p) if x.member(n)]
        tail = [n for n in members if n >= m]
        if cert.syndetic != bool(tail):
            failures.append(("syndetic verdict", x.literal))
        elif cert.syndetic:
            # window [t, t+bound] must always meet the set: the stretch
            # before the first member costs members[0], interior gaps d-1
            want = max([members[0]] + [b - a - 1 for a, b in zip(members, members[1:])])
            if cert.bound != want:
                failures.append(("gap bound", x.literal, cert.bound, want))

    for _ in range(500):
        x = _rand_point(rng, max_coords=3, max_pre=6, max_per=6)
        if is_uniformly_recurrent(x)["recurrent"] != brute_ur(x):
            failures.append(("ur", x.literal))

    for _ in range(500):
        x = _rand_point(rng, max_coords=2, max_pre=6, max_per=4)
        if rng.random() < 0.5:
            # same tail, scrambled head: proximal by construction
            coords = tuple(
                EpSet("".join(rng.choice("01") for _ in range(rng.randrange(5))), c.per)
                for c in x.coords
            )
            y = SymbolicPoint(coords)
        else:
            y = _rand_point(rng, max_coords=x.coord_count, max_pre=6, max_per=4)
            y = SymbolicPoint(y.coords[: x.coord_count] + x.coords[y.coord_count :])
        if are_proximal(x, y)["proximal"] != brute_proximal(x, y):
            failures.append(("proximal", x.literal, y.literal))

    _report(8, "syndetic/UR/proximal exact decisions match brute scans, 500 instances each", failures)


def test_criterion_09_orbit_closure_and_covering_bounds():
    rng = random.Random(0xEA709)
    failures = []
    checked = 0
    while checked < 100:
        per_lens = [rng.randrange(1, 6) for _ in range(rng.randrange(1, 3))]
        if math.lcm(*per_lens) > 10:
            continue
        coords = tuple(
            EpSet("", "".join(rng.choice("01") for _ in range(k))) for k in per_lens
        )
        y = SymbolicPoint(coords)
        checked += 1
        closure = orbit_closure(y)
        want = {p.literal for p in closure}
        for z in closure:
            if {p.literal for p in orbit_closure(z)} != want:
                failures.append(("closure equality", y.literal, z.literal))

        ref = closure[rng.randrange(len(closure))]
        c, k = rng.randrange(1, y.coord_count + 1), rng.randrange(1, y.lcm_period + 2)
        bound = covering_bound(y, ref, c, k)
        # entry times by comparing each shifted copy's windows with ref's
        window = [ref.coords[j].window(0, k) for j in range(c)]
        entries = []
        for z in closure:
            first = next(
                (n for n in range(bound + 1)
                 if [shift(z, n).coords[j].window(0, k) for j in range(c)] == window),
                None,
            )
            if first is None:
                failures.append(("not covered within bound", y.literal, z.literal))
                break
            entries.append(first)
        else:
            if max(entries) != bound:
                failures.append(("bound not tight", y.literal, bound))
            if bound >= y.lcm_period:
                failures.append(("bound not below period", y.literal, bound))
    _report(9, "orbit closures are minimal and covering bounds are sufficient and tight, 100 points", failures)


# criterion 10 runs the benchmark's pinned CLI corpus; read here, never written
CLI_CORPUS = [case["argv"] for _, case in pinned_cases("cli")]


def test_criterion_10_cli_determinism(capsys):
    failures = []

    def run(argv) -> str:
        code = main(list(argv))
        out = capsys.readouterr().out
        if code != 0:
            failures.append(("nonzero exit", argv, code))
        return out

    for argv in CLI_CORPUS:
        outs = {run(argv) for _ in range(3)}
        if len(outs) != 1:
            failures.append(("unstable output", argv))

    with capsys.disabled():
        _report(10, f"{len(CLI_CORPUS)} CLI invocations byte-stable across runs", failures)
