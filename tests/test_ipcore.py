from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from dataclasses import replace
from itertools import combinations, product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epshift import dynamics, ipcore
from epshift.epcore import EpSet, InputError, LiteralError, generate_algebra
from epshift.dynamics import SymbolicPoint, ae_solve, distance_exponent, encode_point, shift
from epshift.ipcore import (
    FsSearchResult,
    IpConstructionCertificate,
    IpGenerator,
    PartitionError,
    aet_to_iht_pipeline,
    color_of,
    fs_enumerate,
    hindman_search,
    iht_search,
    ip_limit_check,
    ip_sequence_construct,
    validate_partition,
    verify_ip_certificate,
    verify_iht_witness,
)

from oracles import EVENS, ODDS, canonical_sets, outcome, pinned_cases, pinned_run, pt, residue_cycle

generators = st.builds(
    IpGenerator,
    st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=3).map(
        lambda ns: tuple(sorted(set(ns)))
    ),
    st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=3).map(tuple),
)

points = st.builds(
    SymbolicPoint,
    st.lists(
        st.builds(
            EpSet,
            st.text(alphabet="01", min_size=0, max_size=5),
            st.text(alphabet="01", min_size=1, max_size=5),
        ),
        min_size=1,
        max_size=3,
    ).map(tuple),
)


def naive_terms(head, diffs, count):
    terms = list(head)
    i = 0
    while len(terms) < count:
        terms.append(terms[-1] + diffs[i % len(diffs)])
        i += 1
    return terms[:count]


class TestGenerator:
    def test_frozen_sequences(self):
        assert IpGenerator.parse("2+(2)").terms(4) == [2, 4, 6, 8]
        assert IpGenerator.parse("1,2+(3,1)").terms(6) == [1, 2, 5, 6, 9, 10]

    def test_literal_roundtrip(self):
        for text in ["2+(2)", "1,2+(3,1)", "5+(1,2,3)"]:
            assert IpGenerator.parse(text).literal == text

    @pytest.mark.parametrize("bad", ["", "+(2)", "2+()", "2", "(2)", "2+2", "a+(2)", "2,+(1)"])
    def test_parse_rejects(self, bad):
        with pytest.raises(LiteralError):
            IpGenerator.parse(bad)

    # refused, not coerced: floats, digit strings, bools, then fields that are not sequences
    @pytest.mark.parametrize("head,diffs", [
        ((), (1,)), ((0,), (1,)), ((2, 2), (1,)), ((3, 1), (1,)), ((1,), ()), ((1,), (0,)),
        ((2.5, 3.9), (1.7,)), (("4",), ("2",)), ((True,), (True,)), (5, (1,)), ((1,), 5),
    ])
    def test_field_validation(self, head, diffs):
        with pytest.raises(InputError):
            IpGenerator(head, diffs)

    @given(generators, st.integers(min_value=0, max_value=60))
    def test_term_matches_naive(self, g, i):
        assert g.term(i) == naive_terms(g.head, g.tail_diffs, i + 1)[i]

    @given(generators)
    def test_strictly_increasing(self, g):
        ts = g.terms(30)
        assert all(b > a for a, b in zip(ts, ts[1:]))

    @given(generators, st.integers(min_value=1, max_value=12))
    def test_residue_structure(self, g, p):
        cycle = residue_cycle(g, p)
        start = len(g.head) - 1
        assert 1 <= len(cycle) <= p * len(g.tail_diffs)
        for j in range(3 * len(cycle) + 5):
            assert g.term(start + j) % p == cycle[j % len(cycle)]

    def test_residue_frozen(self):
        assert residue_cycle(IpGenerator.parse("2+(2)"), 2) == (0,)
        assert residue_cycle(IpGenerator.parse("1,2+(3,1)"), 2) == (0, 1)


class TestFsEnumerate:
    def test_frozen(self):
        assert fs_enumerate(IpGenerator.parse("1,2,4+(8)"), 0, 3, 10) == list(range(1, 8))
        assert fs_enumerate(IpGenerator.parse("2,4+(8)"), 0, 2, 10) == [2, 4, 6]
        assert fs_enumerate(IpGenerator.parse("2+(2)"), 3, 1, 7) == []

    @staticmethod
    def walk(g, k, t, bound):
        """Oracle: the recursive walk over every subset of tail indices."""
        sums = set()

        def step(i, acc, used):
            while acc + g.term(i) <= bound:
                s = acc + g.term(i)
                sums.add(s)
                if used + 1 < t:
                    step(i + 1, s, used + 1)
                i += 1

        step(k, 0, 0)
        return sorted(sums)

    @given(
        generators,
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=200),
    )
    def test_matches_recursive_walk(self, g, k, t, bound):
        # the walk visits every subset of up to t small terms below the
        # bound, so deep subsets are drawn only below 150
        if bound > 150:
            t = min(t, 4)
        assert fs_enumerate(g, k, t, bound) == self.walk(g, k, t, bound)

    def test_input_validation(self):
        g = IpGenerator.parse("2+(2)")
        with pytest.raises(InputError):
            fs_enumerate(g, 0, 0, 10)
        with pytest.raises(InputError):
            fs_enumerate(g, 0, 1, 0)
        with pytest.raises(InputError):
            fs_enumerate(g, -1, 1, 10)


class TestIpConstruction:
    def test_periodic_fixed_point(self):
        x = pt("(10)")
        cert = ip_sequence_construct(x, x, count=4)
        assert cert.generator.head == (2, 4, 6, 8)
        assert cert.generator.tail_diffs == (2,)
        assert verify_ip_certificate(cert) == []

    def test_transient_to_zero(self):
        x = pt("1(0)")
        cert = ip_sequence_construct(x, ae_solve(x), count=3)
        assert cert.generator.head == (1, 2, 3)
        for s in fs_enumerate(cert.generator, 0, 4, 40):
            assert distance_exponent(shift(x, s), cert.target) == math.inf

    def test_even_terms_past_preperiod(self):
        x = pt("1(10)")
        cert = ip_sequence_construct(x, ae_solve(x), count=5)
        assert all(n % 2 == 0 for n in cert.generator.head)
        assert cert.generator.head[0] >= 1

    def test_rejects_bad_pair(self):
        with pytest.raises(InputError):
            ip_sequence_construct(pt("(01)"), pt("(10)"), count=3)
        with pytest.raises(InputError):
            ip_sequence_construct(pt("1(0)"), pt("1(0)"), count=3)

    def test_count_validation(self):
        with pytest.raises(InputError):
            ip_sequence_construct(pt("(0)"), pt("(0)"), count=0)

    @given(points, st.integers(min_value=1, max_value=8))
    def test_certificate_reverifies(self, x, count):
        y = ae_solve(x)
        cert = ip_sequence_construct(x, y, count=count)
        assert verify_ip_certificate(cert) == []
        assert len(cert.generator.head) == count

    @given(points)
    def test_fs_containment(self, x):
        y = ae_solve(x)
        cert = ip_sequence_construct(x, y, count=6)
        heads = cert.generator.head
        for size in range(1, 5):
            for idxs in combinations(range(6), size):
                s = sum(heads[i] for i in idxs)
                assert distance_exponent(shift(x, s), y) >= idxs[0]

    @pytest.mark.parametrize("gens", [["(10)"], ["(100)"], ["01(10)", "(110)"]])
    def test_few_disagreement_calls(self, gens):
        """The pair check compares residue words and the replay builds one
        agreement profile per point and phase, so a certificate over the
        encoded point of a 4-256 member algebra costs at most 16 word
        comparisons; one per coordinate and check would cost 136."""
        x = encode_point(generate_algebra([EpSet.parse(t) for t in gens], downward=True).members)
        first = dynamics._first_disagreement
        calls = []

        def counted(*args):
            calls.append(args)
            return first(*args)

        with mock.patch.object(dynamics, "_first_disagreement", counted):
            ip_sequence_construct(x, ae_solve(x))
        assert len(calls) <= 16

    def test_verifier_catches_tampering(self):
        """Each failure message, from a tamper of one field."""
        x = pt("1(10)")
        cert = ip_sequence_construct(x, ae_solve(x), count=3)
        y = cert.target
        assert (cert.generator.head, y) == ((2, 4, 6), pt("(01)"))
        assert cert.neighborhoods == ((0, 0), (1, 2), (1, 6), (1, 12))

        def check(**fields):
            return verify_ip_certificate(replace(cert, **fields))

        def check_u(i, pair):
            us = list(cert.neighborhoods)
            us[i] = pair
            return check(neighborhoods=tuple(us))

        assert check(neighborhoods=cert.neighborhoods[:-1]) == [
            "expected 4 neighborhoods for 3 terms, got 3"
        ]
        # the same depths around another point: that point's shifts leave them
        assert check(target=x) == [
            "T^2 x misses U_1", "T^2 y misses U_1",
            "T^4 U_2 is not contained in U_1", "T^4 x misses U_2", "T^4 y misses U_2",
            "T^6 U_3 is not contained in U_2", "T^6 x misses U_3", "T^6 y misses U_3",
        ]
        assert check_u(2, (0, 6)) == [
            "U_2 is not contained in U_1",
            "T^4 U_2 is not contained in U_1",
            "U_2 is not inside the 2^-2 ball at y",
        ]
        assert check_u(2, (1, 5)) == ["T^4 U_2 is not contained in U_1"]
        assert check(source=shift(y, 1)) == [
            "T^2 x misses U_1", "T^4 x misses U_2", "T^6 x misses U_3"
        ]
        assert check(generator=IpGenerator((2, 3, 6), (2,))) == [
            "T^3 U_2 is not contained in U_1", "T^3 x misses U_2", "T^3 y misses U_2"
        ]
        assert check_u(1, (0, 2)) == ["U_1 is not inside the 2^-1 ball at y"]


    @pytest.mark.parametrize("pair", [(2, 1), (-1, 1), (1, -1)])
    def test_out_of_range_pair_raises(self, pair):
        """A depth pair outside the product of y's coordinates, or with a
        negative position depth, is bad input, as it is for ``covering_bound``."""
        cert = ip_sequence_construct(pt("(10)"), pt("(10)"), count=2)
        with pytest.raises(InputError):
            verify_ip_certificate(replace(cert, neighborhoods=((0, 0), pair, (1, 4))))


class TestIpLimitCheck:
    def test_pass_even_generator(self):
        v = ip_limit_check(pt("(10)"), IpGenerator.parse("2+(2)"), resolution=8)
        assert v["passed"] and v["offset"] == 0 and v["kind"] == "bounded"
        assert v["limit"] == "(10)"

    def test_fail_odd_generator(self):
        v = ip_limit_check(pt("(10)"), IpGenerator.parse("1+(2)"), resolution=8)
        assert not v["passed"] and "offset" not in v
        assert v["counterexamples"][0] == [0, 1, 0]
        assert len(v["counterexamples"]) == 7  # one refutation per tested offset

    def test_constant_point_passes(self):
        v = ip_limit_check(pt("(0)"), IpGenerator.parse("1,2+(3,1)"), resolution=10)
        assert v["passed"]

    @given(points)
    def test_constructed_generator_passes(self, x):
        cert = ip_sequence_construct(x, ae_solve(x), count=6)
        v = ip_limit_check(x, cert.generator, resolution=5, sum_terms=3, witness_count=5)
        assert v["passed"] and v["offset"] == 0

    def test_counterexample_reverifies(self):
        x = pt("(10)")
        g = IpGenerator.parse("1+(2)")
        v = ip_limit_check(x, g, resolution=8)
        limit = pt(v["limit"])
        for m, s, e in v["counterexamples"]:
            assert distance_exponent(shift(x, s), limit) == e < 8
            assert s in fs_enumerate(g, m, 3, s)

    def test_validation(self):
        with pytest.raises(InputError):
            ip_limit_check(pt("(0)"), IpGenerator.parse("2+(2)"), resolution=-1)
        with pytest.raises(InputError):
            ip_limit_check(pt("(0)"), IpGenerator.parse("2+(2)"), 3, sum_terms=0)


PARITY = [EVENS, ODDS]
MOD3 = [EpSet.parse("(100)"), EpSet.parse("(010)"), EpSet.parse("(001)")]
MOD4_ZERO = [EpSet.parse("(1000)"), EpSet.parse("(0111)")]


def brute_witnesses(colorings, terms, bound):
    """Reference scan: every witness with all sums <= bound, in
    lexicographic order, no pruning cleverness."""
    length = terms + len(colorings) - 1
    for combo in combinations(range(1, bound + 1), length):
        if sum(combo) > bound:
            continue
        sums = [
            sum(sub)
            for size in range(1, length + 1)
            for sub in combinations(combo, size)
        ]
        if len(set(sums)) != len(sums):
            continue
        if all(
            len({color_of(c, sum(sub)) for size in range(1, length - j + 1)
                 for sub in combinations(combo[j:], size)}) == 1
            for j, c in enumerate(colorings)
        ):
            yield combo


def brute_least_witness(colorings, terms, bound):
    return next(brute_witnesses(colorings, terms, bound), None)


def least_at_every_bound(colorings, terms, top):
    """The least witness at each bound 1..top, from one listing at top:
    at bound b it is the first listed witness whose total is <= b."""
    listed = list(brute_witnesses(colorings, terms, top))
    return {b: next((w for w in listed if sum(w) <= b), None) for b in range(1, top + 1)}


class TestHindmanSearch:
    def test_parity_frozen(self):
        for bound in (20, 3_000_000):
            r = hindman_search(PARITY, terms=3, bound=bound)
            assert r.found and r.witness == (2, 4, 8)
            assert r.sums == (2, 4, 6, 8, 10, 12, 14)
            assert r.colors == (0,)

    def test_single_class(self):
        r = hindman_search([EpSet.parse("(1)")], terms=4, bound=20)
        assert r.found and r.witness == (1, 2, 4, 8)

    def test_exhausted(self):
        r = hindman_search([MOD3[0], EpSet.parse("(011)")], terms=2, bound=3)
        assert not r.found and r.bound == 3 and r.witness is None

    def test_witness_sums_monochromatic_raw(self):
        r = hindman_search(MOD3, terms=3, bound=60)
        assert r.found
        colors = {color_of(MOD3, s) for s in r.sums}
        assert len(colors) == 1

    @pytest.mark.parametrize("classes,terms,bound", [
        (PARITY, 2, 12),
        (PARITY, 3, 20),
        (MOD3, 2, 15),
        (MOD3, 3, 40),
        ([EpSet.parse("(1)")], 3, 10),
        ([EpSet.parse("(1100)"), EpSet.parse("(0011)")], 2, 25),
    ])
    def test_lexicographic_minimality(self, classes, terms, bound):
        got = hindman_search(classes, terms, bound)
        want = brute_least_witness([classes], terms, bound)
        if want is None:
            assert not got.found
        else:
            assert got.found and got.witness == want

    def test_rejects_non_partition(self):
        with pytest.raises(PartitionError, match="position 0"):
            hindman_search([EVENS, EVENS], terms=2, bound=10)
        with pytest.raises(PartitionError):
            hindman_search([EVENS], terms=2, bound=10)

    def test_terms_validation(self):
        with pytest.raises(InputError):
            hindman_search(PARITY, terms=1, bound=10)


class TestIhtSearch:
    def test_single_coloring_is_hindman(self):
        a = iht_search([PARITY], terms=3, bound=20)
        b = hindman_search(PARITY, terms=3, bound=20)
        assert a == b

    def test_two_colorings_frozen(self):
        r = iht_search([PARITY, MOD4_ZERO], terms=2, bound=64)
        assert r.found and r.witness == (2, 4, 8)
        # suffix from the second coloring's index is multiples of 4
        assert all(s % 4 == 0 for s in [4, 8, 12])

    def test_exhausted_small_bound(self):
        r = iht_search([PARITY, MOD4_ZERO], terms=2, bound=6)
        assert not r.found

    @pytest.mark.parametrize("colorings,terms,bound", [
        ([PARITY, MOD4_ZERO], 2, 64),
        ([PARITY, PARITY], 2, 30),
        ([MOD3, PARITY], 2, 40),
    ])
    def test_matches_brute(self, colorings, terms, bound):
        got = iht_search(colorings, terms, bound)
        want = brute_least_witness(colorings, terms, bound)
        if want is None:
            assert not got.found
        else:
            assert got.found and got.witness == want

    def test_witness_verifies(self):
        r = iht_search([PARITY, MOD4_ZERO], terms=2, bound=64)
        assert verify_iht_witness(r.witness, [PARITY, MOD4_ZERO]) == []


@st.composite
def small_partitions(draw, max_period=4):
    """2-3 classes, preperiod <= 2, period <= max_period; a class may be empty."""
    k = draw(st.integers(min_value=2, max_value=3))
    labels = st.integers(min_value=0, max_value=k - 1)
    pre = draw(st.lists(labels, max_size=2))
    per = draw(st.lists(labels, min_size=1, max_size=max_period))

    def bits(ls, i):
        return "".join("1" if c == i else "0" for c in ls)

    return [EpSet(bits(pre, i), bits(per, i)) for i in range(k)]


def frozenset_search(colorings, terms, bound):
    """Reference search over frozenset suffixes: one colour table entry per
    n <= bound, and every candidate tested sum by sum."""
    colorings = [validate_partition(c) for c in colorings]
    if not colorings:
        raise InputError("need at least one coloring")
    if len(colorings) > 8 or any(len(c) > 8 for c in colorings):
        raise InputError("at most 8 colorings of at most 8 classes")
    if terms < 2:
        raise InputError("witness needs at least 2 terms")
    if bound < 1:
        raise InputError("bound must be positive")
    length = terms + len(colorings) - 1
    tables = [[color_of(c, n) for n in range(bound + 1)] for c in colorings]

    def extend(chosen, total, suffix, colors):
        d = len(chosen)
        if d == length:
            return FsSearchResult(
                found=True,
                bound=bound,
                witness=tuple(chosen),
                colors=tuple(colors),
                sums=tuple(sorted(suffix[0])),
            )
        opens = d < len(tables)
        if opens:
            suffix = suffix + [frozenset()]
        v = chosen[-1] + 1 if chosen else 1
        while total + v <= bound:
            cols = colors + [tables[d][v]] if opens else colors
            for j, old in enumerate(suffix):
                table, cj = tables[j], cols[j]
                if table[v] != cj or any(table[s + v] != cj for s in old):
                    break
            else:
                sums = suffix[0]
                if v not in sums and sums.isdisjoint(s + v for s in sums):
                    got = extend(
                        chosen + [v],
                        total + v,
                        [old.union([v], [s + v for s in old]) for old in suffix],
                        cols,
                    )
                    if got is not None:
                        return got
            v += 1
        return None

    got = extend([], 0, [], [])
    return got if got is not None else FsSearchResult(found=False, bound=bound)


class TestSearchVsBrute:
    @given(
        st.lists(small_partitions(), min_size=1, max_size=2),
        st.integers(min_value=2, max_value=3),
        st.integers(min_value=1, max_value=20),
    )
    def test_least_witness_sums_and_colors(self, colorings, terms, bound):
        got = iht_search(colorings, terms, bound)
        want = brute_least_witness(colorings, terms, bound)
        if want is None:
            assert got == FsSearchResult(found=False, bound=bound)
            return
        assert got.found and got.witness == want
        assert got.sums == tuple(sorted(
            sum(sub) for size in range(1, len(want) + 1) for sub in combinations(want, size)
        ))
        assert got.colors == tuple(color_of(c, want[j]) for j, c in enumerate(colorings))

    @settings(max_examples=200)
    @given(
        st.lists(small_partitions(max_period=6), min_size=1, max_size=3),
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=0, max_value=120),
    )
    def test_matches_frozenset_search(self, colorings, terms, bound):
        """Same result or exception text at the drawn bound, and one below
        the least witness's largest sum, where the search exhausts."""
        bounds = [bound]
        top = frozenset_search(colorings, terms, 120)
        if top.found:
            bounds.append(max(top.sums) - 1)
        for b in bounds:
            want = outcome(frozenset_search, colorings, terms, b)
            assert outcome(iht_search, colorings, terms, b) == want


class TestSearchBoundary:
    """The least witness fits at bound = its largest sum and nothing fits
    one below, so an off-by-one in either candidate bound shows here."""

    @pytest.mark.parametrize("colorings,terms,witness", [
        ([PARITY], 3, (2, 4, 8)),
        ([MOD3], 3, (3, 6, 12)),
        ([[EpSet.parse("(1)")]], 4, (1, 2, 4, 8)),
        ([[EpSet.parse("(1100)"), EpSet.parse("(0011)")]], 3, (1, 4, 8)),
        ([[EpSet.parse("01(011)"), EpSet.parse("10(100)")]], 3, (1, 3, 6)),
        ([PARITY, MOD4_ZERO], 2, (2, 4, 8)),
        ([MOD3, PARITY], 2, (3, 6, 12)),
        ([PARITY, PARITY], 3, (2, 4, 8, 16)),
    ])
    def test_found_at_largest_sum_exhausted_below(self, colorings, terms, witness):
        top = sum(witness)
        found = iht_search(colorings, terms, top)
        assert found.found and found.witness == witness and max(found.sums) == top
        assert found == frozenset_search(colorings, terms, top)
        below = iht_search(colorings, terms, top - 1)
        assert below == FsSearchResult(found=False, bound=top - 1)
        assert below == frozenset_search(colorings, terms, top - 1)

    @pytest.mark.parametrize("k", range(2, 13))
    def test_powers_of_two_are_the_tightest_witness(self, k):
        """Distinct subset sums need total >= 2**k - 1, reached only by
        1, 2, 4, …, 2**(k-1)."""
        got = hindman_search([EpSet.parse("(1)")], k, 2**k - 1)
        assert got.found and got.witness == tuple(2**i for i in range(k))
        below = hindman_search([EpSet.parse("(1)")], k, 2**k - 2)
        assert below == FsSearchResult(found=False, bound=2**k - 2)


class NodeBudgetExceeded(Exception):
    """A search visited more nodes than its test allows."""


@contextmanager
def search_nodes(budget: float = math.inf):
    """Count search nodes, the calls of ``_least_witness``'s ``extend``
    closure, with a profile hook; yields a one-item list holding the count.
    A search that visits more than ``budget`` nodes is stopped by raising
    :class:`NodeBudgetExceeded` from the hook."""
    extend = next(
        c for c in ipcore._least_witness.__code__.co_consts if getattr(c, "co_name", "") == "extend"
    )
    visited = [0]

    def count(frame, event, arg):
        if event == "call" and frame.f_code is extend:
            visited[0] += 1
            if visited[0] > budget:
                raise NodeBudgetExceeded(f"search visited more than {budget} nodes")

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        yield visited
    finally:
        sys.setprofile(previous)


# TestSearchPrunes' searches visit 3 to 55 nodes; one that passes this
# budget has lost a cut and is stopped at once rather than left to run
PRUNE_BUDGET = 200


class TestSearchPrunes:
    """Cases the Davenport opening rule or the counting floor decides.
    Without them the exhaustions take seconds and the large bounds give
    no answer in minutes, so each search runs under ``PRUNE_BUDGET``."""

    def test_preperiod_opener_is_not_cut(self):
        # the rule cuts (10)-residue openers of 011(10) only from its
        # preperiod length 3 on, so 1 still opens the least witness
        with search_nodes(PRUNE_BUDGET):
            r = hindman_search([EpSet.parse("011(10)"), EpSet.parse("100(01)")], 2, 20)
        assert r.found and r.witness == (1, 2)

    @pytest.mark.parametrize("classes,p", [("(100);(011)", 3), ("(1000);(0111)", 4)])
    def test_multiples_of_the_period_at_a_large_bound(self, classes, p):
        with search_nodes(PRUNE_BUDGET):
            r = hindman_search([EpSet.parse(s) for s in classes.split(";")], 8, 4194304)
        assert r.found and r.witness == tuple(p * 2**i for i in range(8))

    @pytest.mark.parametrize("classes,terms,bound", [
        ("(10);(01)", 9, 1021),
        ("(10);(01)", 8, 509),
        ("(100);(011)", 8, 764),
    ])
    def test_exhausted_one_below_the_least_total(self, classes, terms, bound):
        with search_nodes(PRUNE_BUDGET):
            got = hindman_search([EpSet.parse(s) for s in classes.split(";")], terms, bound)
        assert got == FsSearchResult(found=False, bound=bound)


# the small universe: every partition of the naturals into a canonical set
# and its complement, preperiod <= UNIVERSE_PRE and period <= UNIVERSE_PER,
# neither class empty, searched at every UNIVERSE_TERMS and UNIVERSE_BOUNDS
UNIVERSE_PRE = 3
UNIVERSE_PER = 4
UNIVERSE_TERMS = (2, 3)
UNIVERSE_BOUNDS = (12, 24)
# every bound 1..UNIVERSE_TOP for the partitions; every bound 1..PAIR_TOP at
# PAIR_TERMS for each ordered pair of the purely periodic ones as colorings
UNIVERSE_TOP = 24
PAIR_TERMS = 2
PAIR_TOP = 18
# every partition into three nonempty classes, preperiod <= THREE_PRE and
# period <= THREE_PER, at every UNIVERSE_TERMS and every bound 1..UNIVERSE_TOP
# as the only coloring, and at PAIR_TERMS and every bound 1..PAIR_TOP before
# and after PARITY
THREE_PRE = 2
THREE_PER = 4


def two_class_universe() -> list[tuple[EpSet, EpSet]]:
    flip = str.maketrans("01", "10")
    parts = {}
    for a in canonical_sets(UNIVERSE_PRE, UNIVERSE_PER):
        b = EpSet(a.pre.translate(flip), a.per.translate(flip))
        if "1" in a.pre + a.per and "1" in b.pre + b.per:
            parts.setdefault(frozenset((a, b)), (a, b))
    return list(parts.values())


def three_class_universe() -> list[tuple[EpSet, EpSet, EpSet]]:
    parts = {}
    for m in range(THREE_PRE + 1):
        for p in range(1, THREE_PER + 1):
            for labels in product(range(3), repeat=m + p):
                classes = tuple(
                    EpSet(*("".join("1" if c == i else "0" for c in w)
                            for w in (labels[:m], labels[m:])))
                    for i in range(3)
                )
                if all("1" in x.pre + x.res for x in classes):
                    parts.setdefault(frozenset(classes), classes)
    return list(parts.values())


class TestSearchSmallUniverse:
    def test_every_two_class_partition_matches_brute(self):
        universe = two_class_universe()
        assert len(universe) == 87
        wrong = [
            (a.literal, b.literal, terms, bound)
            for a, b in universe
            for terms in UNIVERSE_TERMS
            for bound in UNIVERSE_BOUNDS
            if hindman_search([a, b], terms, bound).witness
            != brute_least_witness([[a, b]], terms, bound)
        ]
        assert wrong == []

    def test_every_bound_matches_listed_witnesses(self):
        """The class masks keep bit ``bound``: a witness whose total is the
        bound is found there, and nothing is found below its total."""
        wrong = [
            (a.literal, b.literal, terms, bound)
            for a, b in two_class_universe()
            for terms in UNIVERSE_TERMS
            for bound, want in least_at_every_bound([[a, b]], terms, UNIVERSE_TOP).items()
            if hindman_search([a, b], terms, bound).witness != want
        ]
        assert wrong == []

    def test_two_periodic_colorings_every_bound(self):
        """Both colorings' Davenport rules cut openers, at every bound."""
        periodic = [c for c in two_class_universe() if not c[0].pre + c[1].pre]
        assert len(periodic) == 10
        wrong = [
            (";".join(x.literal for x in c), ";".join(x.literal for x in d), bound)
            for c, d in product(periodic, repeat=2)
            for bound, want in least_at_every_bound([c, d], PAIR_TERMS, PAIR_TOP).items()
            if iht_search([c, d], PAIR_TERMS, bound).witness != want
        ]
        assert wrong == []

    def test_three_class_partitions_every_bound(self):
        universe = three_class_universe()
        assert len(universe) == 114
        cases = [([c], terms, UNIVERSE_TOP) for c in universe for terms in UNIVERSE_TERMS] + [
            (colorings, PAIR_TERMS, PAIR_TOP)
            for c in universe
            for colorings in ([c, PARITY], [PARITY, c])
        ]
        wrong = [
            ([";".join(x.literal for x in c) for c in colorings], terms, bound)
            for colorings, terms, top in cases
            for bound, want in least_at_every_bound(colorings, terms, top).items()
            if iht_search(colorings, terms, bound).witness != want
        ]
        assert wrong == []


@pytest.mark.parametrize("case", [c for _, c in pinned_cases("search")], ids=[i for i, _ in pinned_cases("search")])
def test_pinned_search_answer(case):
    # an exhausted case is audited on its least witness, one above the bound
    assert pinned_run("search", case) == (case["expect"], True)


def test_pinned_search_nodes():
    """The pinned cases visit 6,482 search nodes: calls of the ``extend``
    closure of ``_least_witness``, counted by a profile hook.  A lost cut
    changes the work and no answer, so only this count sees it."""
    cases = pinned_cases("search")
    with search_nodes() as visited:
        for _, case in cases:
            colorings = [[EpSet.parse(s) for s in c] for c in case["colorings"]]
            iht_search(colorings, case["terms"], case["bound"])
    assert len(cases) == 66
    assert visited[0] == 6482


class TestVerifyIhtWitness:
    def test_accepts_good(self):
        assert verify_iht_witness((2, 4, 8), [PARITY]) == []
        assert verify_iht_witness((2, 4, 8), [PARITY, MOD4_ZERO]) == []

    def test_accepts_arithmetic_progression(self):
        # sums collide (2+4 = 6) but homogeneity is about values, not indices
        assert verify_iht_witness((2, 4, 6, 8), [PARITY]) == []

    def test_rejects_mixed_colors(self):
        fails = verify_iht_witness((1, 2), [PARITY])
        assert fails and "coloring 0" in fails[0]

    def test_rejects_shape_problems(self):
        assert verify_iht_witness((2,), [PARITY, MOD4_ZERO]) != []
        assert verify_iht_witness((4, 2), [PARITY]) != []
        assert verify_iht_witness((0, 2), [PARITY]) != []

    def test_sum_terms_cap(self):
        # every sum of (4, 8, 16), up to all three terms, is a multiple of 4
        assert verify_iht_witness((4, 8, 16), [MOD4_ZERO]) == []


class TestPipeline:
    def test_parity_frozen(self):
        cert = aet_to_iht_pipeline([PARITY], terms=4)
        assert isinstance(cert, IpConstructionCertificate)
        assert cert.generator.head == (2, 4, 6, 8)
        assert color_of(PARITY, cert.generator.head[0]) == 0
        assert cert.source.literal == "(01)"
        assert cert.target.literal == "(01)"
        assert verify_ip_certificate(cert) == []

    def test_single_class_rejected_two_required(self):
        with pytest.raises(InputError, match="2 classes"):
            aet_to_iht_pipeline([[EpSet.parse("(1)"), EpSet.parse("(0)"), EVENS]], terms=3)

    def test_trivial_two_class(self):
        head = aet_to_iht_pipeline([[EpSet.parse("(1)"), EpSet.parse("(0)")]], terms=3).generator.head
        assert head == (1, 2, 3)

    def test_same_coloring_twice(self):
        head = aet_to_iht_pipeline([PARITY, PARITY], terms=4).generator.head
        assert verify_iht_witness(head, [PARITY, PARITY]) == []

    def test_three_colorings(self):
        mod3_split = [EpSet.parse("(100)"), EpSet.parse("(011)")]
        head = aet_to_iht_pipeline([PARITY, mod3_split, MOD4_ZERO], terms=5).generator.head
        assert len(head) == 5
        assert verify_iht_witness(head, [PARITY, mod3_split, MOD4_ZERO]) == []
        # all terms share every period, so full-FS homogeneity holds from index 0
        assert all(n % 12 == 0 for n in head)

    def test_terms_validation(self):
        with pytest.raises(InputError):
            aet_to_iht_pipeline([PARITY, PARITY], terms=1)
        with pytest.raises(InputError):
            aet_to_iht_pipeline([PARITY], terms=17)

    @given(st.lists(st.sampled_from([PARITY, MOD4_ZERO, [EpSet.parse("(100)"), EpSet.parse("(011)")]]), min_size=1, max_size=3))
    def test_witness_always_verifies(self, colorings):
        head = aet_to_iht_pipeline(colorings, terms=max(4, len(colorings))).generator.head
        assert verify_iht_witness(head, colorings) == []


class TestValidatePartition:
    def test_good(self):
        assert validate_partition(PARITY) == (EVENS, ODDS)
        assert validate_partition(MOD3) == tuple(MOD3)

    def test_overlap(self):
        with pytest.raises(PartitionError, match="2 classes"):
            validate_partition([EVENS, EVENS])

    def test_gap(self):
        with pytest.raises(PartitionError, match="0 classes"):
            validate_partition([EVENS])

    def test_transient_gap_found(self):
        # classes agree in the period but miss position 0
        with pytest.raises(PartitionError, match="position 0"):
            validate_partition([EpSet.parse("0(10)"), ODDS])

    def test_empty(self):
        with pytest.raises(PartitionError):
            validate_partition([])
