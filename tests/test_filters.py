from __future__ import annotations

import weakref
from collections import Counter
from dataclasses import fields, replace
from itertools import combinations, product
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from epshift import dynamics, epcore, filters, ipcore
from epshift.epcore import (
    EMPTY,
    FULL,
    Algebra,
    CapacityError,
    ConstructionError,
    EpSet,
    InputError,
    generate_algebra,
)
from epshift.dynamics import (
    AetPairError,
    ae_solve,
    are_proximal,
    encode_point,
    is_uniformly_recurrent,
)
from epshift.ipcore import IpGenerator, ip_sequence_construct
from epshift.filters import (
    FilterReport,
    MemberResult,
    PartialUltrafilter,
    build_partial_ultrafilter,
    central_check,
    extend_filter,
    filter_member,
    translate_membership_set,
    ultralimit,
    verify_filter,
)

from oracles import (
    EVENS,
    ODDS,
    canonical_sets,
    closed_form_member,
    first_member_at_least,
    intersect,
    issubset,
    periodic_part,
    pinned_cases,
    pinned_run,
    residue_cycle,
    stack_points,
)

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


scope_sets = st.builds(
    EpSet,
    st.text(alphabet="01", min_size=0, max_size=2),
    st.text(alphabet="01", min_size=1, max_size=4),
)


def small_algebra(gens, downward: bool, cap: int) -> Algebra:
    """The algebra of ``gens``, or a rejected example past ``cap`` members."""
    try:
        return generate_algebra(gens, downward=downward, cap=cap)
    except CapacityError:
        reject()


def raw_gap_and_hirst(d: EpSet) -> tuple[int, int]:
    """Oracle: the gap and least positive member of a set holding 0, from
    a raw member scan over m + 3p positions (``TestSyndetic.naive``)."""
    members = [n for n in range(len(d.pre) + 3 * len(d.per)) if d.member(n)]
    gaps = [b - a - 1 for a, b in zip(members, members[1:])]
    return max([members[0], *gaps]), next(n for n in members if n > 0)


def sweep_translate_set(g: IpGenerator, x: EpSet) -> EpSet:
    """Oracle: D(X) = {n : X − n ∈ F} from one filter_member decision per
    translate over a preperiod-plus-period sweep."""
    m, p = len(x.pre), len(x.per)
    bits = "".join(
        "1" if filter_member(g, x.translate_down(n)).member else "0" for n in range(m + p)
    )
    return EpSet(bits[:m], bits[m:])


def subsemigroup_closure(residues, p: int) -> set[int]:
    """Oracle: the least subset of Z_p holding ``residues`` and closed under
    addition, as all k-fold sums with repetition for k up to p; longer
    words cannot reach anything new."""
    reach = set()
    level = {0}
    for _ in range(p):
        level = {(a + r) % p for a in level for r in residues}
        reach |= level
    return reach


class TestSubsemigroupClosure:
    """The fact ``filters._closure_step`` rests on: in Z_p the additive
    closure of some residues is the multiples of their gcd with p."""

    def test_frozen(self):
        assert subsemigroup_closure({2}, 6) == {0, 2, 4}
        assert subsemigroup_closure({3, 4}, 5) == {0, 1, 2, 3, 4}
        assert subsemigroup_closure({0}, 9) == {0}

    @given(st.sets(st.integers(min_value=0, max_value=11), min_size=1, max_size=4), st.integers(min_value=1, max_value=12))
    def test_matches_naive(self, residues, p):
        residues = {r % p for r in residues}
        assert set(range(0, p, gcd(p, *residues))) == subsemigroup_closure(residues, p)

    @given(st.sets(st.integers(min_value=0, max_value=11), min_size=1, max_size=3), st.integers(min_value=1, max_value=12))
    def test_is_closed_and_minimal(self, residues, p):
        residues = {r % p for r in residues}
        c = subsemigroup_closure(residues, p)
        assert residues <= c
        assert {(a + b) % p for a in c for b in c} <= c


def two_bfs_member(g: IpGenerator, x: EpSet) -> MemberResult:
    """Oracle: filter membership with the closure and the refuting word
    found by two separate searches (a saturation, then a breadth-first
    search that stops at the target residue)."""
    p, m_x = len(x.per), len(x.pre)
    cycle = residue_cycle(g, p)
    m = len(g.head) - 1
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
        # a repeated query gives the same verdict; EVENS and ODDS share
        # C_2 = {0}, so they get opposite ones
        f = PartialUltrafilter.for_generator(IpGenerator.parse("2+(2)"))
        assert f.member(EVENS) and f.member(EVENS)
        assert not f.member(ODDS)

    @settings(max_examples=300)
    @given(
        st.builds(
            IpGenerator,
            st.lists(st.integers(min_value=1, max_value=24), min_size=1, max_size=3).map(
                lambda ns: tuple(sorted(set(ns)))
            ),
            st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=3).map(tuple),
        ),
        st.builds(
            EpSet,
            st.text(alphabet="01", min_size=0, max_size=4),
            st.text(alphabet="01", min_size=1, max_size=12),
        ),
    )
    def test_masks_match_filter_member(self, g, x):
        f = PartialUltrafilter.for_generator(g)
        assert f.member(x) == filter_member(g, x).member
        d = translate_membership_set(f, x)
        assert d == sweep_translate_set(g, x)
        assert d.pre == "" and len(x.per) % len(d.per) == 0
        assert gcd(len(x.per), g.head[-1], *g.tail_diffs) % len(d.per) == 0

    def test_for_generator_scope(self):
        f = PartialUltrafilter.for_generator(IpGenerator.parse("2+(2)"))
        assert {m.literal for m in f.scope.members} == {"(0)", "(1)"}
        assert f.scope.downward_closed
        # one scope serves every bare generator
        assert PartialUltrafilter.for_generator(IpGenerator.parse("1+(3)")).scope is f.scope


class TestBuildFilter:
    def test_evens_algebra(self):
        alg = generate_algebra([EVENS], downward=True)
        f = build_partial_ultrafilter(alg)
        assert {x.literal for x in f.members_of(alg)} == {"(1)", "(10)"}
        assert f.members == tuple(f.members_of(alg))
        assert f.certificate.source == encode_point(alg.members)

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
            assert any(issubset(s, x) for s in singles)

    def test_requires_downward(self):
        alg = generate_algebra([EVENS], downward=False)
        with pytest.raises(InputError, match="downward"):
            build_partial_ultrafilter(alg)

    @pytest.mark.parametrize("gens", [["(10)", "(100)"], ["01(10)", "(110)"], ["1(10)", "(1000)"]])
    def test_few_window_reads(self, gens):
        """The certificate replay compares agreeing words by their period
        words, so a build reads almost no windows; one window per word
        comparison would cost hundreds on these 64-256 member algebras."""
        alg = generate_algebra([EpSet.parse(t) for t in gens], downward=True)
        window = EpSet.window
        calls = []

        def counted(self, start, stop):
            calls.append(start)
            return window(self, start, stop)

        with mock.patch.object(EpSet, "window", counted):
            build_partial_ultrafilter(alg)
        assert len(calls) <= 8

    @pytest.mark.parametrize("gens", [["(10)", "(100)"], ["01(10)", "(110)"], ["1(10)", "(1000)"]])
    def test_builds_no_set(self, gens):
        """The encoded point and its companion are gathered from the
        algebra's members, so a build complements, canonicalizes and
        constructs no set."""
        alg = generate_algebra([EpSet.parse(t) for t in gens], downward=True)
        with mock.patch.object(EpSet, "complement", side_effect=AssertionError), \
                mock.patch.object(EpSet, "__init__", side_effect=AssertionError), \
                mock.patch.object(epcore, "_canonical", side_effect=AssertionError), \
                mock.patch.object(dynamics, "_canonical", side_effect=AssertionError), \
                mock.patch.object(filters, "_canonical", side_effect=AssertionError):
            f = build_partial_ultrafilter(alg)
        assert f.certificate.source == encode_point(alg.members)
        assert f.certificate.target == ae_solve(f.certificate.source)

    def test_memberless_mask_raises(self):
        """A downward algebra holds every complement and companion; an
        algebra missing one is a library fault."""
        alg = generate_algebra([EpSet.parse("1(10)")], downward=True)
        i = alg.members.index(EpSet.parse("(10)"))
        broken = replace(
            alg,
            members=alg.members[:i] + alg.members[i + 1:],
            masks=alg.masks[:i] + alg.masks[i + 1:],
        )
        with pytest.raises(ConstructionError, match="no member with window mask 0x"):
            build_partial_ultrafilter(broken)

    @pytest.mark.parametrize("gens", [["(10)"], ["(100)"], ["1(10)"], ["(110)"], ["(10)", "(100)"]])
    def test_built_filters_verify(self, gens):
        alg = generate_algebra([EpSet.parse(t) for t in gens], downward=True)
        f = build_partial_ultrafilter(alg)
        report = verify_filter(f, alg)
        assert report.all_pass
        for entry in report.members:
            assert entry["idempotent"] and entry["minimal"] and entry["hirst"]
            assert entry["gap"] >= 0 and entry["hirst_witness"] >= 1


def brute_verify(f: PartialUltrafilter, algebra) -> dict:
    """The dict ``verify_filter(f, algebra).as_dict()`` must equal, with
    upward closure and pairwise intersection checked pair by pair over the
    algebra instead of taken as theorems, every verdict read from
    filter_member and D(X) from the translate sweep."""

    def member(x: EpSet) -> bool:
        return filter_member(f.generator, x).member

    selected = [x for x in algebra.members if member(x)]
    in_f = set(selected)

    both = []
    neither = []
    for x in algebra.members:
        a, b = x in in_f, member(x.complement())
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
        if issubset(x, y) and not member(y)
    ]
    upward = {"pass": not up_fails}
    if up_fails:
        upward["witnesses"] = up_fails

    meet_fails = []
    for i, x in enumerate(selected):
        for y in selected[i:]:
            if not member(intersect(x, y)):
                meet_fails.append({"x": x.literal, "y": y.literal, "meet": intersect(x, y).literal})
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
        d = sweep_translate_set(f.generator, x)
        idem = member(d)
        gap = d.is_syndetic()
        entry: dict = {
            "set": x.literal,
            "translate_set": d.literal,
            "idempotent": idem,
            "minimal": gap.syndetic,
        }
        if gap.syndetic:
            entry["gap"] = gap.bound
        n = first_member_at_least(d, 1)
        hirst = n is not None and member(x.translate_down(n))
        entry["hirst"] = hirst
        if hirst:
            entry["hirst_witness"] = n
        ok = ok and idem and gap.syndetic and hirst
        member_reports.append(entry)

    return {
        "all_pass": ok,
        "generator": f.generator.literal,
        "scope_size": len(algebra),
        "dichotomy": dichotomy,
        "upward_closure": upward,
        "finite_intersection": meets,
        "infiniteness": infiniteness,
        "members": member_reports,
    }


def per_member_split(g: IpGenerator, algebra: Algebra) -> tuple[list[EpSet], list[str]]:
    """Oracle: the split read member by member off each residue word at its
    own closure step, with no window mask: X ∈ F iff the word is "1" at
    every multiple of the step, and X̄ ∈ F iff it is "0" at every one."""
    selected = []
    neither = []
    for x in algebra.members:
        w = x.res[:: gcd(len(x.res), g.head[-1], *g.tail_diffs)]
        if "0" not in w:
            selected.append(x)
        elif "1" in w:
            neither.append(x.literal)
    return selected, neither


# generators drawn by hand for audits: most split some period's residues
FOREIGN = ["1,2+(3,1)", "1+(2)", "2,4+(6)", "3+(3)", "1+(12)", "5+(4,6)"]


def opaque(algebra: Algebra) -> Algebra:
    """``algebra`` with each member replaced by a token that has no residue
    word, literal or window: any read of a member raises."""
    return replace(algebra, members=tuple(object() for _ in algebra.members))


class TestMaskSplit:
    """``_split`` decides each member by one bit test of its window mask
    against Z; ``per_member_split`` reads residue words instead."""

    def test_handmade_examples(self):
        alg = generate_algebra([EVENS], downward=True)
        assert filters._split(IpGenerator.parse("1,2+(3,1)"), alg) == (
            [FULL], ["(01)", "(10)"]
        )
        assert filters._split(IpGenerator.parse("2+(2)"), alg) == ([FULL, EVENS], [])

    @given(st.lists(scope_sets, min_size=1, max_size=3), st.booleans(), generators)
    def test_matches_per_member_split(self, gens, downward, g):
        alg = small_algebra(gens, downward, cap=64)
        assert filters._split(g, alg) == per_member_split(g, alg)

    @pytest.mark.parametrize("downward", [True, False], ids=["downward", "flat"])
    def test_pinned_scope_cases(self, downward):
        """Each pinned scope case's algebra, and its algebra without
        translates, under its built and its foreign generator."""
        cases, mismatches = pinned_cases("scope"), []
        for name, case in cases:
            alg = generate_algebra([EpSet.parse(t) for t in case["gens"]], downward=downward)
            for text in (case["expect"]["generator"], case["foreign"]):
                g = IpGenerator.parse(text)
                if filters._split(g, alg) != per_member_split(g, alg):
                    mismatches.append((name, text))
        assert len(cases) == 78 and mismatches == []

    @pytest.mark.parametrize("gens", [["(10)", "(100)"], ["01(10)", "(110)"], ["1(10)", "(1000)"]])
    def test_success_path_reads_no_member(self, gens):
        """On a scope the generator decides, the split picks members by
        position alone; only a "neither" literal needs its member."""
        alg = generate_algebra([EpSet.parse(t) for t in gens], downward=True)
        g = build_partial_ultrafilter(alg).generator
        tokens = opaque(alg)
        picked, neither = filters._split(g, tokens)
        assert neither == []
        want = per_member_split(g, alg)[0]
        assert [alg.members[tokens.members.index(t)] for t in picked] == want


class TestVerifyFilter:
    def test_audit_failure_example(self):
        alg = generate_algebra([EVENS], downward=True)
        bad = PartialUltrafilter(generator=IpGenerator.parse("1,2+(3,1)"), scope=alg)
        rep = verify_filter(bad, alg)
        assert not rep.all_pass
        assert rep.dichotomy == {"pass": False, "neither": ["(01)", "(10)"]}
        d = rep.as_dict()
        assert d["upward_closure"] == d["finite_intersection"] == d["infiniteness"] == {"pass": True}
        assert [m["set"] for m in rep.members] == ["(1)"]

    def test_trivial_scope_always_passes(self):
        triv = generate_algebra([FULL], downward=True)
        for text in ["2+(2)", "1,2+(3,1)", "7+(5,1)"]:
            f = PartialUltrafilter(generator=IpGenerator.parse(text), scope=triv)
            assert verify_filter(f, triv).all_pass

    def test_report_keeps_what_the_audit_decides(self):
        """The theorem flags are constants of ``as_dict``, not fields."""
        assert [x.name for x in fields(FilterReport)] == [
            "all_pass", "generator", "scope_size", "dichotomy", "members"
        ]

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

    # the last algebra is not closed under downward translation; its
    # built generator comes from the downward algebra of the same sets
    @pytest.mark.parametrize(
        "gens,downward",
        [(["(10)"], True), (["(100)"], True), (["1(10)"], True), (["(110)"], True),
         (["(10)", "(100)"], True), (["1(10)", "(100)"], False)],
        ids=["gens0", "gens1", "gens2", "gens3", "gens4", "flat"],
    )
    @pytest.mark.parametrize("gen", [None, "1,2+(3,1)", "1+(2)", "2,4+(6)", "3+(3)", "1+(12)"])
    def test_matches_brute_verify(self, gens, downward, gen):
        sets = [EpSet.parse(t) for t in gens]
        alg = generate_algebra(sets, downward=downward)
        if gen is None:
            g = build_partial_ultrafilter(generate_algebra(sets, downward=True)).generator
        else:
            g = IpGenerator.parse(gen)
        got = verify_filter(PartialUltrafilter(generator=g, scope=alg), alg)
        want = brute_verify(PartialUltrafilter(generator=g, scope=alg), alg)
        assert got.as_dict() == want

    @given(st.lists(scope_sets, min_size=1, max_size=2), st.booleans(), generators)
    def test_matches_brute_verify_on_drawn_generators(self, gens, downward, g):
        alg = small_algebra(gens, downward, cap=32)
        got = verify_filter(PartialUltrafilter(generator=g, scope=alg), alg)
        want = brute_verify(PartialUltrafilter(generator=g, scope=alg), alg)
        assert got.as_dict() == want
        # an FS-tail filter lies inside some idempotent, so where it
        # decides every member it agrees with the closed form
        if got.all_pass:
            selected = [x.literal for x in alg.members if closed_form_member(x)]
            assert [e["set"] for e in got.members] == selected

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
            x = encode_point(alg.members)
            y = ultralimit(f, x)
            assert y == ae_solve(x)
            assert is_uniformly_recurrent(y)["recurrent"]
            assert are_proximal(x, y)["proximal"]

    def test_biconditional(self):
        alg = generate_algebra([EpSet.parse("(100)")], downward=True)
        f = build_partial_ultrafilter(alg)
        y = ultralimit(f, encode_point(alg.members))
        for a, c in zip(alg.members, y.coords):
            assert (c.window(0, 1) == "0") == f.member(a)

    def test_incoherent_generator_raises(self):
        # 1,2+(3,1) decides neither evens nor odds, so the limit cannot
        # track the encoded point: bad input, not a library fault
        f = PartialUltrafilter.for_generator(IpGenerator.parse("1,2+(3,1)"))
        with pytest.raises(AetPairError, match="proximal"):
            ultralimit(f, encode_point([EVENS]))


def stacked_extend(f: PartialUltrafilter, new_scope: Algebra) -> PartialUltrafilter:
    """Oracle: the extension solved on stacked points, as EAET states it.

    The old scope's point x1, paired with its limit along f (``ultralimit``
    checks the pair), is stacked over the new scope's point and its AE
    solution, and the certified IP construction over the stack gives the
    generator.  Members are decided by ``filter_member``; a new member
    decided neither way, or an old one decided otherwise than by f, raises.
    """
    if not new_scope.downward_closed:
        raise InputError("filters need a downward-translation algebra")
    if any(x not in new_scope for x in f.scope.members):
        raise InputError("new scope must contain the old one")
    x1 = encode_point(f.scope.members)
    y1 = ultralimit(f, x1)
    x2 = encode_point(new_scope.members)
    cert = ip_sequence_construct(stack_points(x1, x2), stack_points(y1, ae_solve(x2)))
    g = cert.generator
    members = []
    for x in new_scope.members:
        if filter_member(g, x).member:
            members.append(x)
        elif not filter_member(g, x.complement()).member:
            raise ConstructionError(f"stacked filter decides neither way on {x.literal}")
    selected = set(members)
    for x in f.scope.members:
        if (x in selected) != filter_member(f.generator, x).member:
            raise ConstructionError(f"stacked filter changed the decision on {x.literal}")
    return PartialUltrafilter(g, new_scope, cert, tuple(members))


def extension_outcome(extend, f: PartialUltrafilter, new_scope: Algebra):
    """The generator and members ``extend`` installs, or the type it raises."""
    try:
        g = extend(f, new_scope)
    except (InputError, ConstructionError) as exc:
        return type(exc)
    return g.generator, g.members


# hand-made generators: drawn freely, most collapse some period's residues;
# with the last head term and the differences multiples of 12, every period
# up to 4 keeps closure step p and the extension builds
handmade_generators = st.one_of(
    generators,
    st.builds(
        IpGenerator,
        st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3).map(
            lambda ns: tuple(12 * n for n in sorted(set(ns)))
        ),
        st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=2).map(
            lambda ds: tuple(12 * d for d in ds)
        ),
    ),
)


def per_member_extend(f: PartialUltrafilter, new_scope: Algebra) -> PartialUltrafilter:
    """Oracle: ``extend_filter`` with each check a per-member list.  The
    old members missing from the new scope's member list, those whose
    closure step is below their period, and those the extension decides
    otherwise than f are listed, and a nonempty list raises."""
    if not new_scope.downward_closed:
        raise InputError("filters need a downward-translation algebra")
    listed = frozenset(new_scope.members)
    missing = [x.literal for x in f.scope.members if x not in listed]
    if missing:
        raise InputError("new scope must contain the old one; missing " + ", ".join(missing))
    g = f.generator
    collapsed = [
        x.literal for x in f.scope.members
        if gcd(len(x.res), g.head[-1], *g.tail_diffs) < len(x.res)
    ]
    if collapsed:
        raise AetPairError(
            "pair check failed: the old scope's point and its limit are not proximal on "
            + ", ".join(collapsed)
        )
    extended = filters.build_partial_ultrafilter(new_scope)
    changed = [
        x.literal for x in f.scope.members
        if filter_member(extended.generator, x).member != filter_member(g, x).member
    ]
    if changed:
        raise ConstructionError("extension changed old-scope decisions on " + ", ".join(changed))
    return extended


def extension_message(extend, f: PartialUltrafilter, new_scope: Algebra):
    """The generator and members ``extend`` installs, or the type and
    message of what it raises."""
    try:
        g = extend(f, new_scope)
    except (InputError, ConstructionError) as exc:
        return type(exc), str(exc)
    return g.generator, g.members


class TestExtendDecisions:
    """``extend_filter`` decides containment on the old generators and
    collapse and agreement by one gcd at the old period; it names the same
    members as the per-member lists of ``per_member_extend``."""

    def test_collapse_names_members(self):
        f = PartialUltrafilter(IpGenerator.parse("1,2+(3,1)"), generate_algebra([EVENS], downward=True))
        wider = generate_algebra([EVENS, MULT4], downward=True)
        got = extension_message(extend_filter, f, wider)
        assert got == extension_message(per_member_extend, f, wider)
        assert got == (AetPairError, "pair check failed: the old scope's point and its "
                       "limit are not proximal on (01), (10)")

    def test_missing_names_members(self):
        f = build_partial_ultrafilter(generate_algebra([EpSet.parse("(100)")], downward=True))
        other = generate_algebra([EVENS], downward=True)
        got = extension_message(extend_filter, f, other)
        assert got == extension_message(per_member_extend, f, other)
        assert got[0] is InputError and got[1].endswith("(001), (010), (011), (100), (101), (110)")

    def test_disagreement_names_members(self, monkeypatch):
        """A build that skipped its dichotomy check: the one gcd sees the
        extension's step 1 below the old period 2, and the walk names the
        evens, which f selects and the extension does not."""
        f = build_partial_ultrafilter(generate_algebra([EVENS], downward=True))
        wider = generate_algebra([EVENS, MULT4], downward=True)
        monkeypatch.setattr(
            filters, "build_partial_ultrafilter",
            lambda scope: PartialUltrafilter(IpGenerator.parse("1+(1)"), scope),
        )
        got = extension_message(extend_filter, f, wider)
        assert got == extension_message(per_member_extend, f, wider)
        assert got == (ConstructionError, "extension changed old-scope decisions on (10)")

    @settings(max_examples=300)
    @given(
        handmade_generators,
        st.lists(scope_sets, min_size=1, max_size=2),
        st.lists(scope_sets, min_size=1, max_size=2),
        st.sampled_from(["wider"] * 3 + ["unrelated"] * 2 + ["flat"]),
    )
    def test_matches_per_member_lists(self, g, old, extra, kind):
        f = PartialUltrafilter(g, small_algebra(old, True, cap=64))
        wider = small_algebra(extra if kind == "unrelated" else old + extra, kind != "flat", cap=64)
        assert extension_message(extend_filter, f, wider) == extension_message(
            per_member_extend, f, wider
        )

    @given(st.lists(scope_sets, min_size=2, max_size=3))
    def test_success_path_reads_no_old_member(self, gens):
        """A built filter's extension reads the old scope's generators and
        period, never its members."""
        a0, a1 = small_algebra(gens[:1], True, cap=64), small_algebra(gens, True, cap=64)
        f = build_partial_ultrafilter(a0)
        got = extend_filter(replace(f, scope=opaque(a0)), a1)
        assert (got.generator, got.members) == extension_message(per_member_extend, f, a1)


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

    def test_handmade_collapsed_generator_raises(self):
        # 1,2+(3,1) has closure step 1 at period 2, so its limit of the
        # evens algebra's point is not proximal to that point
        f = PartialUltrafilter(IpGenerator.parse("1,2+(3,1)"), generate_algebra([EVENS], downward=True))
        wider = generate_algebra([EVENS, MULT4], downward=True)
        with pytest.raises(AetPairError, match=r"proximal on .*\(10\)"):
            extend_filter(f, wider)
        with pytest.raises(AetPairError, match="proximal"):
            stacked_extend(f, wider)

    @given(st.lists(scope_sets, min_size=2, max_size=3))
    def test_built_chains_match_stacked_oracle(self, gens):
        algebras = [small_algebra(gens[:k], True, cap=64) for k in range(1, len(gens) + 1)]
        f = build_partial_ultrafilter(algebras[0])
        for alg in algebras[1:]:
            want = extension_outcome(stacked_extend, f, alg)
            assert extension_outcome(extend_filter, f, alg) == want
            f = extend_filter(f, alg)

    @settings(max_examples=300)
    @given(
        handmade_generators,
        st.lists(scope_sets, min_size=1, max_size=2),
        st.lists(scope_sets, min_size=1, max_size=2),
        st.sampled_from(["wider"] * 4 + ["unrelated", "flat"]),
    )
    def test_handmade_generators_match_stacked_oracle(self, g, old, extra, kind):
        f = PartialUltrafilter(g, small_algebra(old, True, cap=64))
        wider = small_algebra(extra if kind == "unrelated" else old + extra, kind != "flat", cap=64)
        assert extension_outcome(extend_filter, f, wider) == extension_outcome(
            stacked_extend, f, wider
        )


def replays():
    """Patch in a counted ``verify_ip_certificate``: every certificate
    replay of a build goes through it."""
    return mock.patch.object(ipcore, "verify_ip_certificate", wraps=ipcore.verify_ip_certificate)


class TestBuildOnce:
    """Each ``Algebra`` object is built once while its filter lives: a later
    build or an extension onto it returns that filter and replays no
    certificate."""

    def test_extend_onto_built_algebra_is_its_build(self):
        base = build_partial_ultrafilter(generate_algebra([EVENS], downward=True))
        alg = generate_algebra([EVENS, MULT4], downward=True)
        f = build_partial_ultrafilter(alg)
        assert extend_filter(base, alg) is f
        assert build_partial_ultrafilter(alg) is f

    def test_one_replay_per_algebra_object(self):
        a0 = generate_algebra([EVENS], downward=True)
        alg = generate_algebra([EVENS, MULT4], downward=True)
        with replays() as replay:
            f = build_partial_ultrafilter(alg)
            chain = extend_filter(build_partial_ultrafilter(a0), alg)
            assert build_partial_ultrafilter(alg) is f
        assert chain is f and replay.call_count == 2

    def test_equal_algebras_are_built_apart(self):
        a, b = (generate_algebra([EVENS, MULT4], downward=True) for _ in range(2))
        assert a == b and a is not b
        with replays() as replay:
            fa, fb = build_partial_ultrafilter(a), build_partial_ultrafilter(b)
            assert build_partial_ultrafilter(a) is fa and build_partial_ultrafilter(b) is fb
        assert fa.scope is a and fb.scope is b
        assert replay.call_count == 2

    def test_dropped_filter_is_built_again(self):
        alg = generate_algebra([EVENS, MULT4], downward=True)
        with replays() as replay:
            f = build_partial_ultrafilter(alg)
            dropped = weakref.ref(f)
            del f
            assert dropped() is None
            assert build_partial_ultrafilter(alg).scope is alg
        assert replay.call_count == 2

    def test_failed_build_is_not_kept(self, monkeypatch):
        alg = generate_algebra([EVENS], downward=True)
        real = filters.ip_sequence_construct
        monkeypatch.setattr(
            filters, "ip_sequence_construct",
            lambda x, y: replace(real(x, y), generator=IpGenerator.parse("1,2+(3,1)")),
        )
        for _ in range(2):
            with pytest.raises(ConstructionError, match="neither way"):
                build_partial_ultrafilter(alg)

    def test_pinned_scope_replays(self):
        """The pinned scope cases replay 164 certificates per pass, one per
        algebra object built: the chain's last link is the full algebra's
        build (242 when each link was built anew)."""
        cases = pinned_cases("scope")
        with replays() as replay:
            for _, case in cases:
                assert pinned_run("scope", case) == (case["expect"], True)
        assert len(cases) == 78
        assert replay.call_count == 164


class TestRecords:
    """A built or extended filter keeps its certificate and its members;
    a filter for a bare generator keeps neither."""

    @given(st.lists(scope_sets, min_size=1, max_size=2))
    def test_built(self, gens):
        alg = small_algebra(gens, True, cap=64)
        f = build_partial_ultrafilter(alg)
        assert f.certificate.generator == f.generator
        assert f.certificate.source == encode_point(alg.members)
        assert f.members == tuple(f.members_of(f.scope))

    @given(st.lists(scope_sets, min_size=2, max_size=2))
    def test_extended(self, gens):
        a0, a1 = (small_algebra(gens[:k], True, cap=64) for k in (1, 2))
        f = extend_filter(build_partial_ultrafilter(a0), a1)
        assert f.scope is a1
        assert f.certificate.generator == f.generator
        assert f.members == tuple(f.members_of(f.scope))

    def test_for_generator(self):
        f = PartialUltrafilter.for_generator(IpGenerator.parse("2+(2)"))
        assert f.certificate is None and f.members is None


class TestFailClosed:
    def test_neither_member_raises(self, monkeypatch):
        # 1,2+(3,1) decides neither evens nor odds; the trivial scope's
        # filter passes extend's pair check, so extend reaches the build's
        # dichotomy check on the wider scope
        base = build_partial_ultrafilter(generate_algebra([FULL], downward=True))
        real = filters.ip_sequence_construct

        def construct(x, y, count=8):
            return replace(real(x, y, count=count), generator=IpGenerator.parse("1,2+(3,1)"))

        monkeypatch.setattr(filters, "ip_sequence_construct", construct)
        alg = generate_algebra([EVENS], downward=True)
        with pytest.raises(ConstructionError, match=r"^built .*\(01\), \(10\)$"):
            build_partial_ultrafilter(alg)
        with pytest.raises(ConstructionError, match=r"^built .*\(01\), \(10\)$"):
            extend_filter(base, alg)


class TestClosedForm:
    """Every built filter is the one idempotent verdict on eventually
    periodic sets (see ``closed_form_member``)."""

    @given(st.lists(scope_sets, min_size=1, max_size=2))
    def test_build(self, gens):
        alg = small_algebra(gens, True, cap=64)
        f = build_partial_ultrafilter(alg)
        want = [x for x in alg.members if closed_form_member(x)]
        assert f.members_of(alg) == want
        assert f.members == tuple(want)

    @given(st.lists(scope_sets, min_size=3, max_size=3))
    def test_extend_chain(self, gens):
        a0, a1, a2 = (small_algebra(gens[:k], True, cap=64) for k in (1, 2, 3))
        f1 = extend_filter(build_partial_ultrafilter(a0), a1)
        f2 = extend_filter(f1, a2)
        for f, alg in ((f1, a1), (f2, a2)):
            want = [x for x in alg.members if closed_form_member(x)]
            assert f.members_of(alg) == want
            assert f.members == tuple(want)

    @given(st.lists(scope_sets, min_size=1, max_size=2))
    def test_ultralimit(self, gens):
        alg = small_algebra(gens, True, cap=64)
        x = encode_point(alg.members)
        y = ultralimit(build_partial_ultrafilter(alg), x)
        assert y == ae_solve(x)
        for a, c in zip(alg.members, y.coords):
            assert (c.window(0, 1) == "0") == closed_form_member(a)

    @given(st.lists(scope_sets, min_size=1, max_size=2))
    def test_audit_entries(self, gens):
        alg = small_algebra(gens, True, cap=64)
        f = build_partial_ultrafilter(alg)
        for entry in verify_filter(f, alg).members:
            d = periodic_part(EpSet.parse(entry["set"]))
            assert entry["translate_set"] == d.literal
            assert entry["gap"] == d.is_syndetic().bound
            assert entry["hirst_witness"] == first_member_at_least(d, 1)


# every algebra A of one canonical set with preperiod <= SCOPE_UNIVERSE_PRE
# and period <= SCOPE_UNIVERSE_PER, widened to A ∪ B by every other one
SCOPE_UNIVERSE_PRE = 2
SCOPE_UNIVERSE_PER = 3


class TestScopeUniverse:
    """Metamorphic relations from the equivalence of AET and minimal
    idempotent ultrafilters, on every pair of small scopes: the built
    filter's limit of its point is the AE solution, extending it is the
    stacked EAET extension and the build on the wider scope, every verdict
    is the closed form, and each wider build's audit entry reads the
    periodic part of its set.  Each wider build encodes its members in
    order, and the mask split equals the per-member split under its
    generator and the foreign ones."""

    def test_build_limit_and_extension(self):
        universe = canonical_sets(SCOPE_UNIVERSE_PRE, SCOPE_UNIVERSE_PER)
        assert len(universe) == 40
        # the build of each wider scope, with its closed-form members
        wider: dict[frozenset, tuple[PartialUltrafilter, tuple]] = {}
        mismatches = []
        # each selected set's audit entry, from its periodic part by raw scan
        audit: dict[EpSet, tuple] = {}
        audited = 0
        for a in universe:
            f = build_partial_ultrafilter(generate_algebra([a], downward=True))
            point = encode_point(f.scope.members)
            if ultralimit(f, point) != ae_solve(point):
                mismatches.append(("ultralimit", a.literal))
            for b in universe:
                key = frozenset((a, b))
                if key not in wider:
                    alg = generate_algebra(sorted(key, key=lambda x: x.literal), downward=True)
                    closed = tuple(x for x in alg.members if closed_form_member(x))
                    built = build_partial_ultrafilter(alg)
                    wider[key] = built, closed
                    source = built.certificate.source
                    if source != encode_point(alg.members) or built.certificate.target != ae_solve(source):
                        mismatches.append(("encode", a.literal, b.literal))
                    for g in [built.generator, *map(IpGenerator.parse, FOREIGN)]:
                        if filters._split(g, alg) != per_member_split(g, alg):
                            mismatches.append(("split", g.literal, a.literal, b.literal))
                    for x, entry in zip(built.members, verify_filter(built, alg).members, strict=True):
                        if x not in audit:
                            d = periodic_part(x)
                            audit[x] = (x.literal, d.literal, *raw_gap_and_hirst(d))
                        audited += 1
                        row = (entry["set"], entry["translate_set"], entry["gap"], entry["hirst_witness"])
                        if row != audit[x]:
                            mismatches.append(("audit", x.literal, a.literal, b.literal))
                built, closed = wider[key]
                # an equal algebra the build memo does not know, so the
                # extension is built apart from ``built``
                alg = generate_algebra(sorted(key, key=lambda x: x.literal), downward=True)
                got = extend_filter(f, alg)
                want = stacked_extend(f, alg)
                if (got.generator, got.members) != (want.generator, want.members):
                    mismatches.append(("stacked", a.literal, b.literal))
                if got is built or got.generator != built.generator or not (
                    got.members == built.members == closed
                ):
                    mismatches.append(("build", a.literal, b.literal))
        assert len(wider) == 820 and audited == 28655 and mismatches == []


# every generator with head terms from 1..MEMBER_UNIVERSE_HEAD and tail
# differences from 1..MEMBER_UNIVERSE_DIFF, at most MEMBER_UNIVERSE_LEN of
# each, against every canonical set with preperiod <= MEMBER_UNIVERSE_PRE and
# period <= MEMBER_UNIVERSE_PER
MEMBER_UNIVERSE_HEAD = 5
MEMBER_UNIVERSE_DIFF = 4
MEMBER_UNIVERSE_LEN = 2
MEMBER_UNIVERSE_PRE = 2
MEMBER_UNIVERSE_PER = 3


class TestMemberUniverse:
    def test_member_and_translate_set_match_oracles(self):
        """Every (generator, set) pair of the universe: ``filter_member``
        equals the two-search oracle, certificate included, and the translate
        set equals the sweep.  A preperiod of 2 moves the tail start past
        the head term 1, and over a thousand refuting words have more than
        one term."""
        gens = [
            IpGenerator(head, diffs)
            for n in range(1, MEMBER_UNIVERSE_LEN + 1)
            for head in combinations(range(1, MEMBER_UNIVERSE_HEAD + 1), n)
            for k in range(1, MEMBER_UNIVERSE_LEN + 1)
            for diffs in product(range(1, MEMBER_UNIVERSE_DIFF + 1), repeat=k)
        ]
        sets = canonical_sets(MEMBER_UNIVERSE_PRE, MEMBER_UNIVERSE_PER)
        assert (len(gens), len(sets)) == (300, 40)
        mismatches = []
        late_starts = multi_term = 0
        for g in gens:
            f = PartialUltrafilter.for_generator(g)
            for x in sets:
                got = filter_member(g, x)
                if got != two_bfs_member(g, x):
                    mismatches.append(("member", g.literal, x.literal))
                if translate_membership_set(f, x) != sweep_translate_set(g, x):
                    mismatches.append(("translate", g.literal, x.literal))
                late_starts += got.tail_start > len(g.head) - 1
                multi_term += len(got.witness_indices or ()) > 1
        assert mismatches == []
        assert late_starts > 0 and multi_term >= 1000


def residue_search_ip(x: EpSet, bound: int) -> dict:
    """Oracle: the IP report from a per-residue search, which tries each
    periodic residue r of x in order and takes the first whose closure
    lies in x's periodic residues; its witness steps from r by period."""
    p, m = len(x.per), len(x.pre)
    good = {r for r in range(p) if x.per[(r - m) % p] == "1"}
    if not x.is_infinite():
        return {"ip": False, "reason": "finite"}
    hit = next((r for r in sorted(good) if subsemigroup_closure({r}, p) <= good), None)
    if hit is None:
        refutations = []
        for r in sorted(good):
            k = next(k for k in range(1, p + 1) if (k * r) % p not in good)
            # k <= p members with residue r lie past max(m, 1) within k periods
            elems = [v for v in range(max(m, 1), m + 1 + p * p) if x.member(v) and v % p == r][:k]
            refutations.append({"residue": r, "count": k, "elements": elems, "sum": sum(elems)})
        return {"ip": False, "reason": "no residue class closes up", "refutations": refutations}

    def extend(chosen, total, sums):
        if len(chosen) == 4:
            return chosen
        v = chosen[-1] + p if chosen else (hit if hit >= 1 else hit + p)
        while total + v <= bound:
            if x.member(v):
                new = {v} | {s + v for s in sums}
                if not (new & sums) and all(x.member(s) for s in new):
                    got = extend(chosen + [v], total + v, sums | new)
                    if got is not None:
                        return got
            v += p
        return None

    ip = {"ip": True, "residue": hit, "modulus": p, "closure": sorted(subsemigroup_closure({hit}, p))}
    witness = extend([], 0, set())
    if witness is not None:
        ip["witness"] = witness
        ip["witness_bound"] = bound
    return ip


# every canonical set with preperiod <= CENTRAL_UNIVERSE_PRE and period
# <= CENTRAL_UNIVERSE_PER, compared with the downward-algebra build
CENTRAL_UNIVERSE_PRE = 3
CENTRAL_UNIVERSE_PER = 4
# the witness bounds at which the central search's cap is pinned
CENTRAL_PIN_BOUNDS = (1, 7, 40, 128, 1000)


class TestCentralCheck:
    def test_evens(self):
        d = central_check(EVENS)
        assert d["syndetic"] == {"syndetic": True, "gap": 1}
        assert d["ip"]["ip"] is True
        assert d["ip"]["residue"] == 0
        assert d["ip"]["witness"] == [2, 4, 8, 16]
        assert d["filter"]["member"] is True

    def test_odds(self):
        d = central_check(ODDS)
        assert d["syndetic"]["syndetic"] is True
        assert d["ip"]["ip"] is False
        ref = d["ip"]["refutations"][0]
        assert ref["residue"] == 1 and ref["count"] == 2
        assert len(ref["elements"]) == 2
        assert not ODDS.member(ref["sum"])
        assert d["filter"]["member"] is False

    def test_finite(self):
        d = central_check(EpSet.parse("1(0)"))
        assert d["syndetic"]["syndetic"] is False
        assert d["ip"] == {"ip": False, "reason": "finite"}
        assert d["filter"]["member"] is False

    def test_period_four_halves(self):
        d = central_check(EpSet.parse("(1100)"))
        assert d["ip"]["ip"] is True and d["ip"]["residue"] == 0
        assert d["ip"]["witness"] == [4, 8, 16, 32]

    def test_offset_halves_not_ip(self):
        # {n : n % 4 in {1, 2}}: no residue class closes up
        d = central_check(EpSet.parse("(0110)"))
        assert d["syndetic"]["syndetic"] is True
        assert d["ip"]["ip"] is False
        for ref in d["ip"]["refutations"]:
            x = EpSet.parse("(0110)")
            assert all(x.member(e) for e in ref["elements"])
            assert not x.member(ref["sum"])
            assert sum(ref["elements"]) == ref["sum"]

    @given(ep_sets)
    def test_ip_verdict_certificates(self, x):
        d = central_check(x, bound=200)
        assert d["filter"]["member"] == d["ip"]["ip"]
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

    @given(ep_sets, st.integers(min_value=1, max_value=300))
    def test_ip_report_matches_residue_search(self, x, bound):
        assert central_check(x, bound=bound)["ip"] == residue_search_ip(x, bound)

    @given(
        st.text(alphabet="01", max_size=40),
        st.text(alphabet="01", min_size=1, max_size=6),
    )
    def test_least_witness_total_is_capped(self, pre, per):
        # with residue 0 periodic, a 4-term witness in {k : k·p ∈ X} extends
        # greedily past ⌈m/p⌉, so its total is at most p·(8·max(⌈m/p⌉, 1) + 7)
        k = -len(pre) % len(per)
        x = EpSet(pre, per[:k] + "1" + per[k + 1:])
        p, m = len(x.per), len(x.pre)
        cap = p * (8 * max(-(-m // p), 1) + 7)
        witness = residue_search_ip(x, 10**4)["witness"]
        assert sum(witness) <= cap
        assert residue_search_ip(x, cap)["witness"] == witness

    def test_bound_validation(self):
        with pytest.raises(InputError):
            central_check(EVENS, bound=0)

    @pytest.mark.parametrize("bound", CENTRAL_PIN_BOUNDS)
    def test_search_bound_is_pinned(self, bound, monkeypatch):
        # a looser cap changes no answer (test_least_witness_total_is_capped),
        # only the work, so the bound handed to the search is pinned here
        real = filters._least_witness
        calls = []

        def record(colorings, length, b):
            calls.append((length, b))
            return real(colorings, length, b)

        monkeypatch.setattr(filters, "_least_witness", record)
        wrong = []
        for x in canonical_sets(CENTRAL_UNIVERSE_PRE, CENTRAL_UNIVERSE_PER):
            if x.res[0] == "1":
                calls.clear()
                central_check(x, bound=bound)
                p, m = len(x.res), len(x.pre)
                if calls != [(4, min(bound // p, 8 * max(-(-m // p), 1) + 7))]:
                    wrong.append((x.literal, calls[:]))
        assert wrong == []

    def test_filter_matches_downward_build(self):
        # the filter of X's own point is the one built over X's whole
        # downward-translation algebra: that algebra has period lcm p and
        # preperiod join m, the only inputs of the construction's terms
        universe = canonical_sets(CENTRAL_UNIVERSE_PRE, CENTRAL_UNIVERSE_PER)
        mismatches = []
        for x in universe:
            f = build_partial_ultrafilter(generate_algebra([x], downward=True))
            want = {"member": f.member(x), "generator": f.generator.literal}
            if central_check(x)["filter"] != want:
                mismatches.append(x.literal)
        assert len(universe) == 176 and not mismatches


@pytest.mark.parametrize("case", [c for _, c in pinned_cases("scope")], ids=[i for i, _ in pinned_cases("scope")])
def test_pinned_scope_summary(case):
    # closure, build, a foreign generator's audit, and the extension chain
    # through each prefix of the generating sets
    assert pinned_run("scope", case) == (case["expect"], True)
