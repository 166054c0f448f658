from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from epshift.epcore import EpSet, InputError, LiteralError, generate_algebra
from epshift.dynamics import (
    AetPairError,
    BlockCode,
    Cylinder,
    SymbolicPoint,
    ae_solve,
    apply_block_code,
    are_proximal,
    covering_bound,
    distance_exponent,
    eaet_extend,
    eaet_prime,
    encode_point,
    is_uniformly_recurrent,
    orbit_closure,
    shift,
    stack_points,
)

INF = math.inf

words = st.builds(
    EpSet,
    st.text(alphabet="01", min_size=0, max_size=6),
    st.text(alphabet="01", min_size=1, max_size=6),
)
points = st.builds(SymbolicPoint, st.lists(words, min_size=1, max_size=3).map(tuple))
periodic_words = st.builds(lambda per: EpSet("", per), st.text(alphabet="01", min_size=1, max_size=6))
periodic_points = st.builds(
    SymbolicPoint, st.lists(periodic_words, min_size=1, max_size=3).map(tuple)
)


def pt(text: str) -> SymbolicPoint:
    return SymbolicPoint.parse(text)


def same_size_pair(draw_from=words):
    return st.integers(min_value=1, max_value=3).flatmap(
        lambda n: st.tuples(
            st.builds(SymbolicPoint, st.lists(draw_from, min_size=n, max_size=n).map(tuple)),
            st.builds(SymbolicPoint, st.lists(draw_from, min_size=n, max_size=n).map(tuple)),
        )
    )


class TestPointBasics:
    def test_parse_roundtrip(self):
        assert pt("1(10);(0011)").literal == "1(10);(0011)"

    def test_parse_bad_coordinate(self):
        with pytest.raises(LiteralError):
            pt("1(10);()")

    def test_empty_stack_rejected(self):
        with pytest.raises(InputError):
            SymbolicPoint(())

    @given(points, st.integers(min_value=0, max_value=20), st.integers(min_value=0, max_value=20))
    def test_shift_semigroup(self, x, a, b):
        assert shift(x, a + b) == shift(shift(x, a), b)

    @given(points)
    def test_shift_zero(self, x):
        assert shift(x, 0) == x

    def test_shift_examples(self):
        assert shift(pt("1(0)"), 1) == pt("(0)")
        assert shift(pt("(01)"), 2) == pt("(01)")


class TestEncodePoint:
    def test_evens(self):
        assert encode_point([EpSet.parse("(10)")]).literal == "(01)"

    def test_constants(self):
        assert encode_point([EpSet.parse("(1)")]).literal == "(0)"
        assert encode_point([EpSet.parse("(0)")]).literal == "(1)"

    def test_algebra_follows_member_order(self):
        alg = generate_algebra([EpSet.parse("(10)")], downward=True)
        x = encode_point(alg)
        assert x.coords == tuple(a.complement() for a in alg.members)

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            encode_point([])

    @given(st.lists(words, min_size=1, max_size=3))
    def test_zero_iff_member(self, sets):
        x = encode_point(sets)
        for a, c in zip(sets, x.coords):
            for n in range(len(a.pre) + 2 * len(a.per)):
                assert (c.bit(n) == "0") == a.member(n)


class TestDistanceExponent:
    def test_frozen(self):
        assert distance_exponent(pt("(01)"), pt("0(0)")) == 1
        assert distance_exponent(pt("(0);(0)"), pt("(0);(1)")) == 1

    @given(points)
    def test_equal_is_inf(self, x):
        assert distance_exponent(x, x) == INF

    @given(same_size_pair())
    def test_symmetric(self, xy):
        x, y = xy
        assert distance_exponent(x, y) == distance_exponent(y, x)

    @given(same_size_pair())
    def test_zero_when_unequal_means_first_symbol(self, xy):
        x, y = xy
        e = distance_exponent(x, y)
        if e == INF:
            assert x == y
        else:
            # some coordinate i realizes e, none beats it
            k = int(e)
            assert any(
                i <= k and x.coords[i].window(0, k - i + 1) != y.coords[i].window(0, k - i + 1)
                for i in range(x.coord_count)
            )
            for i in range(x.coord_count):
                depth = k - i
                if depth > 0:
                    assert x.coords[i].window(0, depth) == y.coords[i].window(0, depth)

    def test_ultrametric(self):
        trips = [
            (pt("(01)"), pt("(10)"), pt("(0011)")),
            (pt("1(0)"), pt("(0)"), pt("(1)")),
            (pt("(01);(0)"), pt("(01);(10)"), pt("(10);(10)")),
        ]
        for x, y, z in trips:
            assert distance_exponent(x, z) >= min(
                distance_exponent(x, y), distance_exponent(y, z)
            )

    def test_size_mismatch(self):
        with pytest.raises(InputError):
            distance_exponent(pt("(0)"), pt("(0);(0)"))


def brute_ur(x: SymbolicPoint) -> bool:
    """Windowed return-gap scan, no structure theory.

    Return times at resolution k within horizon H must have every gap,
    including the sentinel gap to the horizon, at most the stack period.
    Exact for eventually periodic stacks: periodic stacks return at every
    multiple of the period, while a nonempty canonical preperiod kills all
    fine-resolution returns past it.
    """
    m = x.max_preperiod
    lcm = x.lcm_period
    horizon = m + 4 * lcm
    for k in range(1, x.coord_count + m + lcm + 1):
        returns = [
            n for n in range(horizon)
            if distance_exponent(shift(x, n), x) >= k
        ]
        gaps = [b - a for a, b in zip(returns, returns[1:])]
        gaps.append(horizon - returns[-1] if returns else horizon)
        if max(gaps) > lcm:
            return False
    return True


class TestUniformRecurrence:
    def test_frozen(self):
        r = is_uniformly_recurrent(pt("(01)"))
        assert r.recurrent and all(g == 2 for _, g in r.gaps)
        r = is_uniformly_recurrent(pt("1(0)"))
        assert not r.recurrent and r.coord == 0 and r.word == "1" and r.occurrences == (0,)
        assert is_uniformly_recurrent(pt("(01);(0011)")).recurrent

    def test_gap_resolutions_run_high_enough(self):
        r = is_uniformly_recurrent(pt("(01);(0011)"))
        ks = [k for k, _ in r.gaps]
        assert ks == list(range(1, 2 + 4 + 1))

    @given(points)
    def test_matches_brute(self, x):
        assert is_uniformly_recurrent(x).recurrent == brute_ur(x)

    @given(periodic_points)
    def test_gap_certificate(self, x):
        r = is_uniformly_recurrent(x)
        assert r.recurrent
        lcm = x.lcm_period
        for k, bound in r.gaps:
            returns = [
                n for n in range(lcm)
                if distance_exponent(shift(x, n), x) >= k
            ]
            assert returns, (k, bound)
            if len(returns) == 1:
                assert bound == lcm
            else:
                diffs = [b - a for a, b in zip(returns, returns[1:])]
                diffs.append(returns[0] + lcm - returns[-1])
                assert bound == max(diffs), (k, bound, returns)

    @given(points)
    def test_refutation_certificate(self, x):
        r = is_uniformly_recurrent(x)
        if r.recurrent:
            return
        u = x.coords[r.coord]
        assert u.pre
        m, p = len(u.pre), len(u.per)
        length = len(r.word)
        horizon = m + 2 * p + length
        w = u.window(0, horizon + length)
        assert w.startswith(r.word)
        hits = tuple(n for n in range(horizon) if w[n:n + length] == r.word)
        assert hits == r.occurrences
        assert all(n < m for n in hits)


def brute_proximal(x: SymbolicPoint, y: SymbolicPoint) -> bool:
    lcm = math.lcm(*(len(c.per) for c in x.coords + y.coords))
    top = max(x.max_preperiod, y.max_preperiod) + 2 * lcm * lcm
    return any(shift(x, n) == shift(y, n) for n in range(top + 1))


class TestProximality:
    def test_frozen(self):
        r = are_proximal(pt("(01)"), pt("(10)"))
        assert not r.proximal and r.exponent == 0
        r = are_proximal(pt("1(0)"), pt("(0)"))
        assert r.proximal and r.witness == 1
        z = pt("(0011)")
        assert are_proximal(z, shift(z, 4)).proximal

    @given(same_size_pair())
    def test_matches_brute(self, xy):
        x, y = xy
        assert are_proximal(x, y).proximal == brute_proximal(x, y)

    @given(same_size_pair())
    def test_certificates(self, xy):
        x, y = xy
        r = are_proximal(x, y)
        if r.proximal:
            assert shift(x, r.witness) == shift(y, r.witness)
        else:
            join = max(x.max_preperiod, y.max_preperiod)
            lcm = math.lcm(*(len(c.per) for c in x.coords + y.coords))
            es = [
                distance_exponent(shift(x, n), shift(y, n))
                for n in range(join, join + 2 * lcm)
            ]
            assert all(e <= r.exponent for e in es)
            assert r.exponent in es

    @given(points)
    def test_reflexive(self, x):
        assert are_proximal(x, x).proximal


class TestAeSolve:
    def test_frozen(self):
        assert ae_solve(pt("11(0)")) == pt("(0)")
        assert ae_solve(pt("(0110)")) == pt("(0110)")
        assert ae_solve(pt("1(10)")) == pt("(01)")

    @given(points)
    def test_output_verifies(self, x):
        y = ae_solve(x)
        assert is_uniformly_recurrent(y).recurrent
        assert are_proximal(x, y).proximal

    @given(points)
    def test_unique_solution(self, x):
        # any UR point proximal to x agrees with x past the preperiods and is
        # purely periodic, which pins every symbol; the solver must find it
        y = ae_solve(x)
        assert ae_solve(y) == y
        assert ae_solve(shift(x, 1)) == shift(y, 1)


class TestEaetExtend:
    def test_frozen(self):
        y2 = eaet_extend(pt("11(0)"), pt("(0)"), pt("1(0)"))
        assert y2 == pt("(0)")
        assert eaet_extend(pt("(01)"), pt("(01)"), pt("(0011)")) == pt("(0011)")

    def test_rejects_bad_pair(self):
        with pytest.raises(AetPairError, match="uniformly recurrent"):
            eaet_extend(pt("1(0)"), pt("1(0)"), pt("(0)"))
        with pytest.raises(AetPairError, match="proximal"):
            eaet_extend(pt("(01)"), pt("(10)"), pt("(0)"))
        with pytest.raises(AetPairError, match="count"):
            eaet_extend(pt("(01);(0)"), pt("(01)"), pt("(0)"))

    @given(same_size_pair(), points)
    def test_stacked_result_verifies(self, x1y1, x2):
        x1, _ = x1y1
        y1 = ae_solve(x1)
        y2 = eaet_extend(x1, y1, x2)
        ystack = stack_points(y1, y2)
        assert is_uniformly_recurrent(ystack).recurrent
        assert are_proximal(stack_points(x1, x2), ystack).proximal


IDENTITY = BlockCode.parse("1:1:1:01")
NOT = BlockCode.parse("1:1:1:10")
AND2 = BlockCode.parse("2:1:1:0001")


class TestBlockCode:
    def test_parse_roundtrip(self):
        for text in ["1:1:1:01", "1:1:1:10", "2:1:1:0001", "1:2:1:0110"]:
            assert BlockCode.parse(text).literal == text

    @pytest.mark.parametrize(
        "bad",
        ["", "1:1:1", "0:1:1:01", "1:1:1:0", "1:1:1:012", "a:1:1:01", "1:1:2:01", "3:3:2:" + "0" * 10],
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(LiteralError):
            BlockCode.parse(bad)

    def test_dimension_cap(self):
        with pytest.raises(InputError):
            BlockCode(arity=1, window=17, coords=1, table=("0",) * (1 << 17))

    def test_identity_and_not(self):
        assert apply_block_code(IDENTITY, [pt("01(10)")]) == pt("01(10)")
        assert apply_block_code(NOT, [pt("(01)")]) == pt("(10)")

    def test_and_frozen(self):
        out = apply_block_code(AND2, [pt("(01)"), pt("(0011)")])
        assert out == pt("(0001)")

    def test_window_two_xor(self):
        # output(n) = x(n) xor x(n+1); rows indexed by the 2-bit window
        xor = BlockCode.parse("1:2:1:0110")
        out = apply_block_code(xor, [pt("(0011)")])
        assert out == pt("(0101)") or out == pt("(01)")
        assert out.coords[0].window(0, 4) == "0101"

    @given(points, st.integers(min_value=0, max_value=8))
    def test_commutes_with_shift(self, x, n):
        code = NOT if x.coord_count == 1 else None
        if code is None:
            return
        assert apply_block_code(code, [shift(x, n)]) == shift(apply_block_code(code, [x]), n)

    def test_arity_mismatch(self):
        with pytest.raises(InputError):
            apply_block_code(AND2, [pt("(01)")])

    def test_coord_mismatch(self):
        with pytest.raises(InputError):
            apply_block_code(IDENTITY, [pt("(01);(0)")])

    @given(points)
    def test_pointwise_not(self, x):
        if x.coord_count != 1:
            return
        out = apply_block_code(NOT, [x])
        u, v = x.coords[0], out.coords[0]
        horizon = len(u.pre) + 2 * len(u.per)
        assert v.window(0, horizon) == u.window(0, horizon).translate(str.maketrans("01", "10"))


class TestEaetPrime:
    def test_frozen(self):
        assert [p.literal for p in eaet_prime(pt("1(0)"), [IDENTITY])] == ["(0)", "(0)"]
        assert [p.literal for p in eaet_prime(pt("1(0)"), [])] == ["(0)"]
        assert [p.literal for p in eaet_prime(pt("(01)"), [NOT])] == ["(01)", "(10)"]

    def test_arity_mismatch(self):
        with pytest.raises(InputError, match="code 0"):
            eaet_prime(pt("(01)"), [AND2])

    @given(points)
    def test_chain_verifies(self, t0):
        if t0.coord_count != 1:
            return
        codes = [NOT, AND2]
        ys = eaet_prime(t0, codes)
        assert len(ys) == 3
        xs = [t0]
        for i, code in enumerate(codes):
            xs.append(apply_block_code(code, ys[: i + 1]))
        ystack = stack_points(*ys)
        assert is_uniformly_recurrent(ystack).recurrent
        assert are_proximal(stack_points(*xs), ystack).proximal


class TestOrbitClosure:
    def test_frozen(self):
        assert [p.literal for p in orbit_closure(pt("(01)"))] == ["(01)", "(10)"]
        assert [p.literal for p in orbit_closure(pt("(0)"))] == ["(0)"]
        assert [p.literal for p in orbit_closure(pt("1(0)"))] == ["1(0)", "(0)"]

    @given(points)
    def test_contains_all_shifts(self, y):
        orb = orbit_closure(y)
        members = set(orb)
        assert len(members) == len(orb)
        for n in range(y.max_preperiod + 2 * y.lcm_period):
            assert shift(y, n) in members

    @given(periodic_points)
    def test_minimality(self, y):
        orb = set(orbit_closure(y))
        for z in orb:
            assert set(orbit_closure(z)) == orb


def window_subset_of(u: Cylinder, v: Cylinder) -> bool:
    """Oracle: U ⊆ V by its own comparison of the references' windows."""
    if v.trivial:
        return True
    if u.trivial:
        return False
    if v.coord_depth > u.coord_depth or v.pos_depth > u.pos_depth:
        return False
    k = v.pos_depth
    return all(
        u.reference.coords[j].window(0, k) == v.reference.coords[j].window(0, k)
        for j in range(v.coord_depth)
    )


def window_shift_image_subset(u: Cylinder, n: int, v: Cylinder) -> bool:
    """Oracle: T^n U ⊆ V by its own comparison of the references' windows."""
    if v.trivial:
        return True
    if u.trivial:
        return False
    if v.coord_depth > u.coord_depth or v.pos_depth + n > u.pos_depth:
        return False
    k = v.pos_depth
    return all(
        u.reference.coords[j].window(n, n + k) == v.reference.coords[j].window(0, k)
        for j in range(v.coord_depth)
    )


class TestCylinder:
    def test_contains_reference(self):
        for ref in [pt("(01)"), pt("1(10);(0011)")]:
            for i in range(ref.coord_count + 1):
                for k in range(4):
                    assert Cylinder(ref, i, k).contains(ref)

    def test_trivial_contains_everything(self):
        u = Cylinder(pt("(01)"), 0, 5)
        assert u.contains(pt("(10)"))
        v = Cylinder(pt("(01)"), 1, 0)
        assert v.contains(pt("(10)"))

    def test_depth_bounds_checked(self):
        with pytest.raises(InputError):
            Cylinder(pt("(01)"), 2, 1)
        with pytest.raises(InputError):
            Cylinder(pt("(01)"), 1, -1)
        with pytest.raises(InputError):
            Cylinder(pt("(01)"), 1, 1).contains(pt("(01)"), -1)

    @given(same_size_pair())
    def test_offset_matches_shifted_point(self, pair):
        ref, z = pair
        horizon = 2 * (z.max_preperiod + z.lcm_period)
        for r in (ref, z):
            for i in range(r.coord_count + 1):
                for k in range(5):
                    u = Cylinder(r, i, k)
                    for n in range(horizon):
                        assert u.contains(z, n) == u.contains(shift(z, n))

    def test_subset_of(self):
        ref = pt("(01);(0011)")
        small = Cylinder(ref, 2, 4)
        big = Cylinder(ref, 1, 2)
        assert small.subset_of(big)
        assert not big.subset_of(small)
        assert small.subset_of(Cylinder(pt("(10);(0)"), 0, 3))
        other = Cylinder(pt("(10);(0011)"), 1, 2)
        assert not small.subset_of(other)

    def test_subset_of_pointwise_soundness(self):
        refs = [pt("(01)"), pt("(10)"), pt("(0011)"), pt("1(10)")]
        cyls = [Cylinder(r, 1, k) for r in refs for k in range(3)]
        samples = [pt("(01)"), pt("(10)"), pt("(0011)"), pt("(1100)"), pt("1(10)"), pt("0(0)")]
        for a in cyls:
            for b in cyls:
                if a.subset_of(b):
                    for z in samples:
                        assert not a.contains(z) or b.contains(z)
                else:
                    # completeness: some point separates them
                    assert any(a.contains(z) and not b.contains(z) for z in samples)

    def test_shift_image_subset(self):
        ref = pt("(0011)")
        u = Cylinder(ref, 1, 4)
        v = Cylinder(pt("(1100)"), 1, 2)
        assert u.shift_image_subset(2, v)
        assert not u.shift_image_subset(1, v)
        assert not u.shift_image_subset(3, v)  # position budget exhausted
        assert u.shift_image_subset(0, Cylinder(ref, 1, 3))
        assert u.shift_image_subset(5, Cylinder(ref, 0, 0))

    def test_shift_image_subset_pointwise(self):
        ref = pt("(0011)")
        u = Cylinder(ref, 1, 4)
        v = Cylinder(pt("(1100)"), 1, 2)
        samples = [shift(pt("(0011)"), n) for n in range(4)] + [pt("0011(0)"), pt("0011(10)")]
        for z in samples:
            if u.contains(z):
                assert v.contains(shift(z, 2))

    @given(same_size_pair())
    def test_containment_matches_window_oracles(self, pair):
        a, b = pair
        cyls = [
            Cylinder(r, i, k)
            for r in (a, b)
            for i in range(r.coord_count + 1)
            for k in range(6)
        ]
        for u in cyls:
            for v in cyls:
                assert u.subset_of(v) == window_subset_of(u, v)
                for n in range(7):
                    assert u.shift_image_subset(n, v) == window_shift_image_subset(u, n, v)

    def test_containment_across_sizes_rejected(self):
        u = Cylinder(pt("(01);(0011)"), 2, 3)
        with pytest.raises(InputError, match="different sizes"):
            u.subset_of(Cylinder(pt("(01)"), 1, 2))
        with pytest.raises(InputError, match="different sizes"):
            u.shift_image_subset(1, Cylinder(pt("(10)"), 1, 2))

    def test_within_ball(self):
        y = pt("(01);(0011)")
        u = Cylinder(y, 2, 3)
        assert u.within_ball(y, 3)
        assert u.within_ball(y, 1)
        assert not u.within_ball(y, 4)
        assert not Cylinder(y, 1, 3).within_ball(y, 2)
        assert Cylinder(y, 1, 3).within_ball(y, 1)

    def test_within_ball_pointwise(self):
        y = pt("(01);(0011)")
        u = Cylinder(y, 2, 4)
        samples = [pt("(01);(0011)"), pt("(01);(0011)").shift(4), pt("01(10);0011(10)"), pt("(10);(0011)")]
        for k in range(1, 5):
            if u.within_ball(y, k):
                for z in samples:
                    if u.contains(z):
                        assert distance_exponent(z, y) >= k


class TestCoveringBound:
    def test_frozen(self):
        assert covering_bound(pt("(01)"), Cylinder(pt("(01)"), 1, 1)) == 1
        assert covering_bound(pt("(0)"), Cylinder(pt("(0)"), 1, 2)) == 0
        assert covering_bound(pt("(0011)"), Cylinder(pt("(0011)"), 1, 1)) == 2

    def test_requires_recurrent(self):
        with pytest.raises(InputError, match="recurrent"):
            covering_bound(pt("1(0)"), Cylinder(pt("(0)"), 1, 1))

    def test_disjoint_cylinder(self):
        with pytest.raises(InputError, match="misses"):
            covering_bound(pt("(0)"), Cylinder(pt("(1)"), 1, 1))

    @given(periodic_points, st.integers(min_value=1, max_value=3))
    def test_bound_verified(self, y, k):
        u = Cylinder(y, y.coord_count, k)
        m = covering_bound(y, u)
        orb = orbit_closure(y)
        entry = []
        for z in orb:
            first = next(n for n in range(y.lcm_period) if u.contains(shift(z, n)))
            assert first <= m
            entry.append(first)
        assert max(entry) == m
        assert m < max(y.lcm_period, 1)
