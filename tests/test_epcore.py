from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from epshift.epcore import (
    EMPTY,
    FULL,
    CapacityError,
    EpSet,
    InputError,
    LiteralError,
    generate_algebra,
    _primitive_root,
    normalize,
)

# Oracle: expand (pre, per) literally, bit by bit.  No phase arithmetic, no
# canonicalization; the implementation must agree with this on any window.


def raw_bit(pre: str, per: str, n: int) -> str:
    if n < len(pre):
        return pre[n]
    return per[(n - len(pre)) % len(per)]


def raw_window(pre: str, per: str, start: int, stop: int) -> str:
    return "".join(raw_bit(pre, per, n) for n in range(start, stop))


bit_word = st.text(alphabet="01", min_size=0, max_size=8)
period_word = st.text(alphabet="01", min_size=1, max_size=8)
ep_sets = st.builds(EpSet, bit_word, period_word)


def divisor_root(word: str) -> str:
    """Oracle: the shortest prefix of ``word`` whose power, over the
    divisors of its length in increasing order, spells ``word``."""
    n = len(word)
    d = next(d for d in range(1, n + 1) if n % d == 0 and word[:d] * (n // d) == word)
    return word[:d]


powers = st.builds(
    lambda root, k: root * k,
    st.text(alphabet="01", min_size=1, max_size=6),
    st.integers(min_value=1, max_value=6),
)


class TestCanonicalization:
    def test_period_root_and_absorption(self):
        a = EpSet("0110", "1010")
        assert (a.pre, a.per) == ("01", "10")

    def test_absorb_into_constant_period(self):
        b = EpSet("1", "11")
        assert (b.pre, b.per) == ("", "1")

    def test_already_canonical(self):
        c = EpSet("01", "10")
        assert (c.pre, c.per) == ("01", "10")

    @given(bit_word, period_word)
    def test_semantics_preserved(self, pre, per):
        a = EpSet(pre, per)
        horizon = len(pre) + 3 * len(per) + 2
        assert a.window(0, horizon) == raw_window(pre, per, 0, horizon)

    @given(bit_word, period_word)
    def test_idempotent(self, pre, per):
        a = EpSet(pre, per)
        b = EpSet(a.pre, a.per)
        assert (b.pre, b.per) == (a.pre, a.per)

    @given(bit_word, period_word)
    def test_minimality(self, pre, per):
        # canonical form has a primitive period and no absorbable prefix bit
        a = EpSet(pre, per)
        p = len(a.per)
        for d in range(1, p):
            if p % d == 0:
                assert a.per != a.per[:d] * (p // d)
        if a.pre:
            assert a.pre[-1] != a.per[-1]

    @given(st.one_of(period_word, powers))
    def test_primitive_root_matches_divisor_loop(self, word):
        assert _primitive_root(word) == divisor_root(word)

    def test_normalize_equals_constructor(self):
        assert normalize("0110", "1010") == EpSet("0110", "1010")


class TestLiterals:
    def test_parse_roundtrip(self):
        for text in ["(10)", "01(10)", "(0)", "(1)", "1(0)"]:
            assert EpSet.parse(text).literal == text

    def test_parse_canonicalizes(self):
        assert EpSet.parse("1(11)").literal == "(1)"
        assert EpSet.parse("0110(1010)").literal == "01(10)"

    @pytest.mark.parametrize("bad", ["", "()", "10", "(2)", "1()", "(10", "10)", "(10)x", "x(10)"])
    def test_rejects(self, bad):
        with pytest.raises(LiteralError):
            EpSet.parse(bad)

    def test_literal_error_is_input_error(self):
        assert issubclass(LiteralError, InputError)

    @given(ep_sets)
    def test_roundtrip_any(self, a):
        assert EpSet.parse(a.literal) == a

    def test_str_is_literal(self):
        assert str(EpSet.parse("01(10)")) == "01(10)"


class TestMembership:
    def test_evens(self):
        evens = EpSet.parse("(10)")
        assert [evens.member(n) for n in range(6)] == [True, False] * 3

    def test_constants(self):
        assert not any(EMPTY.member(n) for n in range(10))
        assert all(FULL.member(n) for n in range(10))

    @given(ep_sets, st.integers(min_value=0, max_value=40))
    def test_member_matches_raw(self, a, n):
        assert a.member(n) == (raw_bit(a.pre, a.per, n) == "1")

    @given(ep_sets, st.integers(min_value=0, max_value=30), st.integers(min_value=0, max_value=30))
    def test_window_matches_raw(self, a, start, length):
        assert a.window(start, start + length) == raw_window(a.pre, a.per, start, start + length)

    def test_window_far_out_is_cheap(self):
        a = EpSet.parse("01(110)")
        start = 10**18
        w = a.window(start, start + 9)
        assert w == raw_window("01", "110", (start - 2) % 3 + 2, (start - 2) % 3 + 2 + 9)

    def test_negative_window_rejected(self):
        with pytest.raises(InputError):
            EpSet.parse("(10)").window(-1, 3)


class TestBooleanOps:
    @given(ep_sets)
    def test_complement_involution(self, a):
        assert a.complement().complement() == a

    @given(ep_sets, ep_sets)
    def test_union_pointwise(self, a, b):
        c = a.union(b)
        horizon = max(len(a.pre), len(b.pre)) + 2 * math.lcm(len(a.per), len(b.per))
        for n in range(horizon):
            assert c.member(n) == (a.member(n) or b.member(n))

    @given(ep_sets, ep_sets)
    def test_intersect_pointwise(self, a, b):
        c = a.intersect(b)
        horizon = max(len(a.pre), len(b.pre)) + 2 * math.lcm(len(a.per), len(b.per))
        for n in range(horizon):
            assert c.member(n) == (a.member(n) and b.member(n))

    @given(ep_sets, ep_sets)
    def test_de_morgan(self, a, b):
        assert a.union(b).complement() == a.complement().intersect(b.complement())

    @given(ep_sets, ep_sets)
    def test_subset(self, a, b):
        expected = True
        horizon = max(len(a.pre), len(b.pre)) + math.lcm(len(a.per), len(b.per))
        for n in range(horizon):
            if a.member(n) and not b.member(n):
                expected = False
                break
        assert a.issubset(b) == expected

    @given(ep_sets)
    def test_bounds(self, a):
        assert a.issubset(FULL)
        assert EMPTY.issubset(a)
        assert a.union(a.complement()) == FULL
        assert a.intersect(a.complement()) == EMPTY


class TestTranslateDown:
    @given(ep_sets, st.integers(min_value=0, max_value=25), st.integers(min_value=0, max_value=40))
    def test_pointwise(self, a, n, k):
        assert a.translate_down(n).member(k) == a.member(k + n)

    @given(ep_sets, st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=12))
    def test_composition(self, a, n, m):
        assert a.translate_down(n).translate_down(m) == a.translate_down(n + m)

    def test_large_shift_stays_cheap(self):
        a = EpSet.parse("01(110)")
        b = a.translate_down(10**18)
        assert b.pre == "" and len(b.per) == 3

    def test_negative_rejected(self):
        with pytest.raises(InputError):
            EpSet.parse("(10)").translate_down(-1)


class TestSyndetic:
    def naive(self, a: EpSet):
        """Incremental candidate-bound scan over one raw expansion."""
        m, p = len(a.pre), len(a.per)
        horizon = m + 3 * p
        members = [n for n in range(horizon) if a.member(n)]
        if "1" not in a.per:
            return None
        bound = members[0]
        for u, v in zip(members, members[1:]):
            bound = max(bound, v - u - 1)
        return bound

    def test_frozen_examples(self):
        g = EpSet.parse("(10)").is_syndetic()
        assert g.syndetic and g.bound == 1 and g.empty_from is None
        g = EpSet.parse("(100)").is_syndetic()
        assert g.syndetic and g.bound == 2
        g = FULL.is_syndetic()
        assert g.syndetic and g.bound == 0
        g = EpSet.parse("1(0)").is_syndetic()
        assert not g.syndetic and g.bound is None and g.empty_from == 1
        g = EMPTY.is_syndetic()
        assert not g.syndetic and g.empty_from == 0

    @given(ep_sets)
    def test_matches_naive(self, a):
        got = a.is_syndetic()
        want = self.naive(a)
        if want is None:
            assert not got.syndetic
            assert not any(a.member(n) for n in range(got.empty_from, got.empty_from + 3 * len(a.per)))
            assert got.empty_from == 0 or a.member(got.empty_from - 1)
        else:
            assert got.syndetic and got.bound == want

    @given(ep_sets)
    def test_bound_is_certified(self, a):
        # every window of bound+1 consecutive naturals meets the set
        g = a.is_syndetic()
        if g.syndetic:
            width = g.bound + 1
            horizon = len(a.pre) + 2 * len(a.per) + width
            for start in range(horizon):
                assert any(a.member(start + i) for i in range(width))


class TestFirstMemberAtLeast:
    @given(ep_sets, st.integers(min_value=0, max_value=20))
    def test_matches_scan(self, a, n):
        got = a.first_member_at_least(n)
        want = next((k for k in range(n, n + len(a.pre) + 2 * len(a.per) + 1) if a.member(k)), None)
        assert got == want


# Oracle: close the generators under the operations one new member at a
# time, pairing it with every member found so far.  No windows, no atoms.


def brute_closure(gens, downward: bool, cap: int) -> tuple[EpSet, ...]:
    current: set[EpSet] = set()
    frontier: list[EpSet] = []

    def add(x: EpSet) -> None:
        if x not in current:
            current.add(x)
            if len(current) > cap:
                raise CapacityError(f"algebra closure exceeded the cap of {cap} members")
            frontier.append(x)

    for g in gens:
        add(g)
    while frontier:
        x = frontier.pop()
        add(x.complement())
        if downward:
            add(x.translate_down(1))
        for y in list(current):
            add(x.union(y))
            add(x.intersect(y))
    return tuple(sorted(current, key=lambda s: s.literal))


def closure_outcome(build, gens, downward: bool, cap: int) -> list[str] | str:
    try:
        return [m.literal for m in build(gens, downward, cap)]
    except CapacityError as exc:
        return str(exc)


def atom_closure(gens, downward: bool, cap: int) -> tuple[EpSet, ...]:
    return generate_algebra(gens, downward=downward, cap=cap).members


small_sets = st.builds(
    EpSet,
    st.text(alphabet="01", min_size=0, max_size=4),
    st.text(alphabet="01", min_size=1, max_size=6),
)


class TestAlgebra:
    def test_single_full(self):
        alg = generate_algebra([FULL], downward=False)
        assert {m.literal for m in alg.members} == {"(0)", "(1)"}

    def test_evens_downward(self):
        alg = generate_algebra([EpSet.parse("(10)")], downward=True)
        assert len(alg) == 4
        assert {m.literal for m in alg.members} == {"(0)", "(1)", "(10)", "(01)"}

    def test_mod3_downward(self):
        alg = generate_algebra([EpSet.parse("(100)")], downward=True)
        assert len(alg) == 8

    def test_closure_is_closed(self):
        alg = generate_algebra([EpSet.parse("(100)"), EpSet.parse("01(10)")], downward=True)
        members = set(alg.members)
        for x in members:
            assert x.complement() in members
            assert x.translate_down(1) in members
            for y in members:
                assert x.union(y) in members
                assert x.intersect(y) in members

    def test_not_downward_skips_translates(self):
        alg = generate_algebra([EpSet.parse("(10)")], downward=False)
        assert {m.literal for m in alg.members} == {"(0)", "(1)", "(10)", "(01)"}
        assert not alg.downward_closed

    def test_members_sorted_deterministically(self):
        alg = generate_algebra([EpSet.parse("(100)")], downward=True)
        lits = [m.literal for m in alg.members]
        assert lits == sorted(lits)

    def test_contains(self):
        alg = generate_algebra([EpSet.parse("(10)")], downward=True)
        assert EpSet.parse("(01)") in alg
        assert EpSet.parse("(100)") not in alg

    def test_cap(self):
        with pytest.raises(CapacityError):
            generate_algebra([EpSet.parse("(10)"), EpSet.parse("(100)")], downward=True, cap=4)

    def test_empty_generators_rejected(self):
        with pytest.raises(InputError):
            generate_algebra([], downward=True)

    @given(st.lists(small_sets, min_size=1, max_size=3), st.booleans())
    def test_matches_brute_closure(self, gens, downward):
        want = closure_outcome(brute_closure, gens, downward, 128)
        caps = [128] if isinstance(want, str) else [len(want) - 1, len(want)]
        for cap in caps:
            assert closure_outcome(atom_closure, gens, downward, cap) == closure_outcome(
                brute_closure, gens, downward, cap
            )

    @given(st.lists(ep_sets, min_size=1, max_size=2))
    def test_generators_kept(self, gens):
        try:
            alg = generate_algebra(gens, downward=False, cap=512)
        except CapacityError:
            return
        for g in gens:
            assert g in alg
        assert EMPTY in alg and FULL in alg
