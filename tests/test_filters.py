from __future__ import annotations

from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epshift.epcore import (
    EMPTY,
    FULL,
    ConstructionError,
    EpSet,
    InputError,
    generate_algebra,
)
from epshift.dynamics import SymbolicPoint, ae_solve, are_proximal, encode_point, is_uniformly_recurrent
from epshift.ipcore import IpGenerator
from epshift.filters import (
    FilterReport,
    MemberResult,
    PartialUltrafilter,
    build_partial_ultrafilter,
    central_check,
    extend_filter,
    filter_member,
    subsemigroup_closure,
    translate_membership_set,
    ultralimit,
    verify_filter,
)

EVENS = EpSet.parse("(10)")
ODDS = EpSet.parse("(01)")
MULT4 = EpSet.parse("(1000)")

generators = st.builds(
    IpGenerator,
    st.lists(st.integers(min_value=1, max_value=10), min_size=1, max_size=3).map(
        lambda ns: tuple(sorted(set(ns)))
    ),
    st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3).map(tuple),
)

ep_sets = st.builds(
    EpSet,
    st.text(alphabet="01", min_size=0, max_size=4),
    st.text(alphabet="01", min_size=1, max_size=6),
)


class TestSubsemigroupClosure:
    def test_frozen(self):
        assert subsemigroup_closure({2}, 6) == {0, 2, 4}
        assert subsemigroup_closure({3, 4}, 5) == {0, 1, 2, 3, 4}
        assert subsemigroup_closure({0}, 9) == {0}

    def naive(self, residues, p):
        # all k-fold sums with repetition, k up to p;
        # longer words cannot reach anything new
        reach = set()
        level = {0}
        for _ in range(p):
            level = {(a + r) % p for a in level for r in residues}
            reach |= level
        return reach

    @given(st.sets(st.integers(min_value=0, max_value=11), min_size=1, max_size=4), st.integers(min_value=1, max_value=12))
    def test_matches_naive(self, residues, p):
        residues = {r % p for r in residues}
        assert subsemigroup_closure(residues, p) == self.naive(residues, p)

    @given(st.sets(st.integers(min_value=0, max_value=11), min_size=1, max_size=3), st.integers(min_value=1, max_value=12))
    def test_is_closed_and_minimal(self, residues, p):
        residues = {r % p for r in residues}
        c = subsemigroup_closure(residues, p)
        assert residues <= c
        assert {(a + b) % p for a in c for b in c} <= c

    def test_validation(self):
        with pytest.raises(InputError):
            subsemigroup_closure(set(), 5)
        with pytest.raises(InputError):
            subsemigroup_closure({1}, 0)


def two_bfs_member(g: IpGenerator, x: EpSet) -> MemberResult:
    """Oracle: filter membership with the closure and the refuting word
    found by two separate searches (a saturation, then a breadth-first
    search that stops at the target residue)."""
    p, m_x = len(x.per), len(x.pre)
    start, cycle = g.residue_structure(p)
    m = start
    while g.term(m) < m_x:
        m += 1
    gens = set(cycle)
    closure = set(gens)
    frontier = list(gens)
    while frontier:
        r = frontier.pop()
        for c in gens:
            if (r + c) % p not in closure:
                closure.add((r + c) % p)
                frontier.append((r + c) % p)
    good = {r for r in range(p) if x.per[(r - m_x) % p] == "1"}
    if closure <= good:
        return MemberResult(member=True, tail_start=m, closure=tuple(sorted(closure)))
    target = min(closure - good)
    order = sorted(gens)
    parent = {c: (-1, c) for c in order}
    level = list(order)
    while target not in parent:
        nxt = []
        for r in level:
            for c in order:
                if (r + c) % p not in parent:
                    parent[(r + c) % p] = (r, c)
                    nxt.append((r + c) % p)
        level = nxt
    need = Counter()
    r = target
    while r != -1:
        r, c = parent[r]
        need[c] += 1
    indices = []
    i = m
    while sum(need.values()) > 0:
        if need[g.term(i) % p] > 0:
            need[g.term(i) % p] -= 1
            indices.append(i)
        i += 1
    return MemberResult(
        member=False,
        tail_start=m,
        closure=tuple(sorted(closure)),
        witness_sum=sum(g.term(j) for j in indices),
        witness_indices=tuple(indices),
    )


class TestFilterMember:
    def test_frozen(self):
        g = IpGenerator.parse("2+(2)")
        r = filter_member(g, EVENS)
        assert r.member and r.closure == (0,) and r.witness_sum is None
        r = filter_member(g, ODDS)
        assert not r.member and r.witness_sum == 2
        r = filter_member(g, MULT4)
        assert not r.member and r.witness_sum == 2 and r.closure == (0, 2)

    def test_full_and_empty(self):
        g = IpGenerator.parse("1,2+(3,1)")
        assert filter_member(g, FULL).member
        assert not filter_member(g, EMPTY).member

    def test_deep_residue_chain(self):
        # residues {5} mod 12: pair sums reach 10, triples 3, ...; the walk
        # leaves {n : n % 12 == 5} only after two terms
        five_mod12 = EpSet.parse("(000001000000)")
        g = IpGenerator.parse("5+(12)")
        r = filter_member(g, five_mod12)
        assert not r.member
        assert r.witness_sum % 12 != 5

    @given(generators, ep_sets)
    def test_member_has_no_small_counterexample(self, g, x):
        r = filter_member(g, x)
        if not r.member:
            return
        terms = [g.term(i) for i in range(r.tail_start, r.tail_start + 18)]
        for size in range(1, 6):
            for combo in combinations(terms, size):
                assert x.member(sum(combo)), (combo, sum(combo))

    @given(generators, ep_sets)
    def test_nonmember_certificate_reverifies(self, g, x):
        r = filter_member(g, x)
        if r.member:
            return
        assert r.witness_sum is not None and r.witness_indices
        assert not x.member(r.witness_sum)
        assert all(i >= r.tail_start for i in r.witness_indices)
        assert all(b > a for a, b in zip(r.witness_indices, r.witness_indices[1:]))
        assert sum(g.term(i) for i in r.witness_indices) == r.witness_sum

    @given(generators, st.builds(EpSet, st.text(alphabet="01", min_size=0, max_size=3), st.text(alphabet="01", min_size=1, max_size=4)))
    def test_nonmember_kills_every_tail(self, g, x):
        # small periods only: a refuting sum needs at most period-many terms
        r = filter_member(g, x)
        if r.member:
            return
        p = len(x.per)
        for m in (0, 1, 4):
            terms = [g.term(i) for i in range(m, m + 4 * p + 8)]
            found = any(
                not x.member(sum(combo))
                for size in range(1, p + 1)
                for combo in combinations(terms, size)
            )
            assert found, (g.literal, x.literal, m)

    @given(generators, ep_sets, st.integers(min_value=1, max_value=6))
    def test_verdict_is_tail_invariant(self, g, x, drop):
        # dropping head terms must not change membership
        shifted = IpGenerator(tuple(g.term(drop + i) for i in range(3)), g.tail_diffs)
        assert filter_member(g, x).member == filter_member(shifted, x).member

    @settings(max_examples=300)
    @given(
        generators,
        st.builds(
            EpSet,
            st.text(alphabet="01", min_size=0, max_size=4),
            st.text(alphabet="01", min_size=1, max_size=12),
        ),
    )
    def test_matches_two_bfs_oracle(self, g, x):
        assert filter_member(g, x) == two_bfs_member(g, x)


class TestPartialUltrafilter:
    def test_member_caches(self):
        f = PartialUltrafilter.for_generator(IpGenerator.parse("2+(2)"))
        assert f.member(EVENS) and f.member(EVENS)
        assert EVENS in f._cache
        assert not f.member(ODDS)

    def test_for_generator_scope(self):
        f = PartialUltrafilter.for_generator(IpGenerator.parse("2+(2)"))
        assert {m.literal for m in f.scope.members} == {"(0)", "(1)"}
        assert f.scope.downward_closed


class TestBuildFilter:
    def test_evens_algebra(self):
        alg = generate_algebra([EVENS], downward=True)
        f = build_partial_ultrafilter(alg)
        assert {x.literal for x in f.members_of(alg)} == {"(1)", "(10)"}
        assert f.trace["report"].all_pass
        assert f.trace["encoded_point"]

    def test_trivial_algebra(self):
        alg = generate_algebra([FULL], downward=True)
        f = build_partial_ultrafilter(alg)
        assert [x.literal for x in f.members_of(alg)] == ["(1)"]

    def test_mod3_selects_one_class(self):
        alg = generate_algebra([EpSet.parse("(100)")], downward=True)
        f = build_partial_ultrafilter(alg)
        selected = f.members_of(alg)
        assert len(selected) == 4
        singles = [x for x in selected if x in (EpSet.parse("(100)"), EpSet.parse("(010)"), EpSet.parse("(001)"))]
        assert len(singles) == 1
        for x in selected:
            assert any(s.issubset(x) for s in singles)

    def test_requires_downward(self):
        alg = generate_algebra([EVENS], downward=False)
        with pytest.raises(InputError, match="downward"):
            build_partial_ultrafilter(alg)

    @pytest.mark.parametrize("gens", [["(10)"], ["(100)"], ["1(10)"], ["(110)"], ["(10)", "(100)"]])
    def test_built_filters_verify(self, gens):
        alg = generate_algebra([EpSet.parse(t) for t in gens], downward=True)
        f = build_partial_ultrafilter(alg)
        report = verify_filter(f, alg)
        assert report.all_pass
        for entry in report.members:
            assert entry["idempotent"] and entry["minimal"] and entry["hirst"]
            assert entry["gap"] >= 0 and entry["hirst_witness"] >= 1


def brute_verify(f: PartialUltrafilter, algebra) -> FilterReport:
    """verify_filter with upward closure and pairwise intersection checked
    pair by pair over the algebra instead of taken as theorems."""
    selected = f.members_of(algebra)
    in_f = set(selected)

    both = []
    neither = []
    for x in algebra.members:
        a, b = x in in_f, f.member(x.complement())
        if a and b:
            both.append(x.literal)
        elif not a and not b:
            neither.append(x.literal)
    dichotomy = {"pass": not both and not neither}
    if both:
        dichotomy["both"] = both
    if neither:
        dichotomy["neither"] = neither

    up_fails = [
        {"subset": x.literal, "superset": y.literal}
        for x in selected
        for y in algebra.members
        if x.issubset(y) and not f.member(y)
    ]
    upward = {"pass": not up_fails}
    if up_fails:
        upward["witnesses"] = up_fails

    meet_fails = []
    for i, x in enumerate(selected):
        for y in selected[i:]:
            if not f.member(x.intersect(y)):
                meet_fails.append({"x": x.literal, "y": y.literal, "meet": x.intersect(y).literal})
    meets = {"pass": not meet_fails}
    if meet_fails:
        meets["witnesses"] = meet_fails

    finite_members = [x.literal for x in selected if not x.is_infinite()]
    infiniteness = {"pass": not finite_members}
    if finite_members:
        infiniteness["witnesses"] = finite_members

    member_reports = []
    ok = dichotomy["pass"] and upward["pass"] and meets["pass"] and infiniteness["pass"]
    for x in selected:
        d = translate_membership_set(f, x)
        idem = f.member(d)
        gap = d.is_syndetic()
        entry: dict = {
            "set": x.literal,
            "translate_set": d.literal,
            "idempotent": idem,
            "minimal": gap.syndetic,
        }
        if gap.syndetic:
            entry["gap"] = gap.bound
        n = d.first_member_at_least(1)
        hirst = n is not None and f.member(x.translate_down(n))
        entry["hirst"] = hirst
        if hirst:
            entry["hirst_witness"] = n
        ok = ok and idem and gap.syndetic and hirst
        member_reports.append(entry)

    return FilterReport(
        all_pass=ok,
        generator=f.generator.literal,
        scope_size=len(algebra),
        dichotomy=dichotomy,
        upward_closure=upward,
        finite_intersection=meets,
        infiniteness=infiniteness,
        members=tuple(member_reports),
    )


class TestVerifyFilter:
    def test_audit_failure_example(self):
        alg = generate_algebra([EVENS], downward=True)
        bad = PartialUltrafilter(generator=IpGenerator.parse("1,2+(3,1)"), scope=alg)
        rep = verify_filter(bad, alg)
        assert not rep.all_pass
        assert rep.dichotomy == {"pass": False, "neither": ["(01)", "(10)"]}
        assert rep.upward_closure["pass"] and rep.finite_intersection["pass"]
        assert rep.infiniteness["pass"]
        assert [m["set"] for m in rep.members] == ["(1)"]

    def test_trivial_scope_always_passes(self):
        triv = generate_algebra([FULL], downward=True)
        for text in ["2+(2)", "1,2+(3,1)", "7+(5,1)"]:
            f = PartialUltrafilter(generator=IpGenerator.parse(text), scope=triv)
            assert verify_filter(f, triv).all_pass

    def test_as_dict_key_order(self):
        triv = generate_algebra([FULL], downward=True)
        f = PartialUltrafilter(generator=IpGenerator.parse("2+(2)"), scope=triv)
        d = verify_filter(f, triv).as_dict()
        assert list(d) == [
            "all_pass",
            "generator",
            "scope_size",
            "dichotomy",
            "upward_closure",
            "finite_intersection",
            "infiniteness",
            "members",
        ]

    @pytest.mark.parametrize("gens", [["(10)"], ["(100)"], ["1(10)"], ["(110)"], ["(10)", "(100)"]])
    @pytest.mark.parametrize("gen", [None, "1,2+(3,1)", "1+(2)", "2,4+(6)", "3+(3)"])
    def test_matches_brute_verify(self, gens, gen):
        alg = generate_algebra([EpSet.parse(t) for t in gens], downward=True)
        g = build_partial_ultrafilter(alg).generator if gen is None else IpGenerator.parse(gen)
        got = verify_filter(PartialUltrafilter(generator=g, scope=alg), alg)
        want = brute_verify(PartialUltrafilter(generator=g, scope=alg), alg)
        assert got.as_dict() == want.as_dict()

    def test_report_member_entries(self):
        alg = generate_algebra([EVENS], downward=True)
        f = build_partial_ultrafilter(alg)
        rep = verify_filter(f, alg)
        evens_entry = next(m for m in rep.members if m["set"] == "(10)")
        assert evens_entry["translate_set"] == "(10)"
        assert evens_entry["gap"] == 1
        assert evens_entry["hirst_witness"] == 2


class TestTranslateMembershipSet:
    def test_frozen(self):
        alg = generate_algebra([EVENS], downward=True)
        f = build_partial_ultrafilter(alg)
        assert translate_membership_set(f, EVENS) == EVENS
        assert translate_membership_set(f, FULL) == FULL
        assert translate_membership_set(f, EMPTY) == EMPTY

    @given(generators, ep_sets)
    def test_pointwise_and_bounds(self, g, x):
        f = PartialUltrafilter.for_generator(g)
        d = translate_membership_set(f, x)
        for n in range(len(x.pre) + 2 * len(x.per) + 3):
            assert d.member(n) == filter_member(g, x.translate_down(n)).member
        assert len(d.pre) <= len(x.pre)
        assert len(x.per) % len(d.per) == 0


class TestUltralimit:
    def test_equals_ae_solve_on_built(self):
        for gens in (["(10)"], ["(100)"], ["(10)", "(1000)"]):
            alg = generate_algebra([EpSet.parse(t) for t in gens], downward=True)
            f = build_partial_ultrafilter(alg)
            x = encode_point(alg)
            y = ultralimit(f, x)
            assert y == ae_solve(x)
            assert is_uniformly_recurrent(y).recurrent
            assert are_proximal(x, y).proximal

    def test_biconditional(self):
        alg = generate_algebra([EpSet.parse("(100)")], downward=True)
        f = build_partial_ultrafilter(alg)
        y = ultralimit(f, encode_point(alg))
        for a, c in zip(alg.members, y.coords):
            assert (c.bit(0) == "0") == f.member(a)

    def test_incoherent_generator_raises(self):
        # 1,2+(3,1) decides neither evens nor odds, so the limit cannot
        # track the encoded point
        f = PartialUltrafilter.for_generator(IpGenerator.parse("1,2+(3,1)"))
        with pytest.raises(ConstructionError, match="proximal"):
            ultralimit(f, encode_point([EVENS]))


class TestExtendFilter:
    def test_evens_to_mult4(self):
        alg = generate_algebra([EVENS], downward=True)
        alg4 = generate_algebra([EVENS, MULT4], downward=True)
        f = build_partial_ultrafilter(alg)
        f4 = extend_filter(f, alg4)
        assert len(alg4) == 16
        for a in alg.members:
            assert f4.member(a) == f.member(a)
        assert f4.member(MULT4)
        assert verify_filter(f4, alg4).all_pass

    def test_same_scope(self):
        alg = generate_algebra([EVENS], downward=True)
        f = build_partial_ultrafilter(alg)
        f2 = extend_filter(f, alg)
        for a in alg.members:
            assert f2.member(a) == f.member(a)

    def test_chain_transitivity(self):
        a0 = generate_algebra([FULL], downward=True)
        a1 = generate_algebra([EVENS], downward=True)
        a2 = generate_algebra([EVENS, EpSet.parse("(100)")], downward=True)
        f0 = build_partial_ultrafilter(a0)
        f1 = extend_filter(f0, a1)
        f2 = extend_filter(f1, a2)
        for a in a0.members:
            assert f2.member(a) == f0.member(a)
        for a in a1.members:
            assert f2.member(a) == f1.member(a)

    def test_not_superset_rejected(self):
        alg = generate_algebra([EVENS], downward=True)
        triv = generate_algebra([FULL], downward=True)
        f = build_partial_ultrafilter(alg)
        with pytest.raises(InputError, match="missing"):
            extend_filter(f, triv)

    def test_not_downward_rejected(self):
        alg = generate_algebra([EVENS], downward=True)
        flat = generate_algebra([EVENS], downward=False)
        f = build_partial_ultrafilter(alg)
        with pytest.raises(InputError, match="downward"):
            extend_filter(f, flat)


class TestCentralCheck:
    def test_evens(self):
        d = central_check(EVENS).as_dict()
        assert d["syndetic"] == {"syndetic": True, "gap": 1}
        assert d["ip"]["ip"] is True
        assert d["ip"]["residue"] == 0
        assert d["ip"]["witness"] == [2, 4, 8, 16]
        assert d["filter"]["member"] is True

    def test_odds(self):
        d = central_check(ODDS).as_dict()
        assert d["syndetic"]["syndetic"] is True
        assert d["ip"]["ip"] is False
        ref = d["ip"]["refutations"][0]
        assert ref["residue"] == 1 and ref["count"] == 2
        assert len(ref["elements"]) == 2
        assert not ODDS.member(ref["sum"])
        assert d["filter"]["member"] is False

    def test_finite(self):
        d = central_check(EpSet.parse("1(0)")).as_dict()
        assert d["syndetic"]["syndetic"] is False
        assert d["ip"] == {"ip": False, "reason": "finite"}
        assert d["filter"]["member"] is False

    def test_period_four_halves(self):
        d = central_check(EpSet.parse("(1100)")).as_dict()
        assert d["ip"]["ip"] is True and d["ip"]["residue"] == 0
        assert d["ip"]["witness"] == [4, 8, 16, 32]

    def test_offset_halves_not_ip(self):
        # {n : n % 4 in {1, 2}}: no residue class closes up
        d = central_check(EpSet.parse("(0110)")).as_dict()
        assert d["syndetic"]["syndetic"] is True
        assert d["ip"]["ip"] is False
        for ref in d["ip"]["refutations"]:
            x = EpSet.parse("(0110)")
            assert all(x.member(e) for e in ref["elements"])
            assert not x.member(ref["sum"])
            assert sum(ref["elements"]) == ref["sum"]

    # the filter stage audits the whole generated algebra of x, so keep
    # periods short here; longer periods are covered by the frozen cases
    @given(st.builds(EpSet, st.text(alphabet="01", min_size=0, max_size=2), st.text(alphabet="01", min_size=1, max_size=4)))
    @settings(max_examples=25)
    def test_ip_verdict_certificates(self, x):
        d = central_check(x, bound=200).as_dict()
        ip = d["ip"]
        if ip["ip"]:
            r, p = ip["residue"], ip["modulus"]
            m = len(x.pre)
            good = {s for s in range(p) if x.per[(s - m) % p] == "1"}
            assert subsemigroup_closure({r}, p) <= good
            if "witness" in ip:
                w = ip["witness"]
                sums = [sum(c) for size in range(1, 5) for c in combinations(w, size)]
                assert all(x.member(s) for s in sums)
                assert len(set(sums)) == len(sums)
        elif ip.get("reason") != "finite":
            for ref in ip["refutations"]:
                assert all(x.member(e) for e in ref["elements"])
                assert not x.member(ref["sum"])

    def test_bound_validation(self):
        with pytest.raises(InputError):
            central_check(EVENS, bound=0)
