from __future__ import annotations

import math
from dataclasses import replace
from itertools import combinations, product
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from epshift import dynamics
from epshift.epcore import EpSet, InputError, LiteralError, generate_algebra
from epshift.dynamics import (
    AetPairError,
    BlockCode,
    SymbolicPoint,
    _agreement_profile,
    _first_disagreement,
    _proximal,
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
)
from epshift.ipcore import (
    IpConstructionCertificate,
    IpGenerator,
    ip_sequence_construct,
    verify_ip_certificate,
)
from epshift.filters import build_partial_ultrafilter

from oracles import (
    brute_proximal,
    brute_ur,
    canonical_sets,
    outcome,
    pt,
    raw_bit,
    stack_points,
    whole_space,
    window_block_code,
    window_contains,
    window_replay,
    window_shift_image_subset,
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

    def test_non_sequence_stack_rejected(self):
        with pytest.raises(InputError):
            SymbolicPoint(5)

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
        """A build encodes its algebra's members in member order, and its
        certificate's target is that point's AE solution: checked on the
        downward algebra of every canonical set with preperiod <= 2 and
        period <= 3."""
        sets = canonical_sets(2, 3)
        assert len(sets) == 40
        for a in sets:
            alg = generate_algebra([a], downward=True)
            cert = build_partial_ultrafilter(alg).certificate
            assert cert.source == encode_point(alg.members)
            assert cert.target == ae_solve(cert.source)

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            encode_point([])

    @given(st.lists(words, min_size=1, max_size=3))
    def test_zero_iff_member(self, sets):
        x = encode_point(sets)
        for a, c in zip(sets, x.coords):
            for n in range(len(a.pre) + 2 * len(a.per)):
                assert (c.window(n, n + 1) == "0") == a.member(n)


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

    @given(same_size_pair())
    def test_offsets_match_shifted_points(self, xy):
        """Offsets inside the preperiods, at the join and far past join + lcm."""
        x, y = xy
        join = max(x.max_preperiod, y.max_preperiod)
        horizon = join + math.lcm(x.lcm_period, y.lcm_period)
        offsets = [*range(join + 2), horizon + 1, 13 * horizon + 5]
        shifted = {(z, n): shift(z, n) for z in (x, y) for n in offsets}
        for a, b in ((x, y), (x, x)):
            for n in offsets:
                for m in offsets:
                    assert distance_exponent(a, b, n, m) == distance_exponent(
                        shifted[a, n], shifted[b, m]
                    ), (n, m)

    def test_negative_offsets_rejected(self):
        x = pt("1(10);(0011)")
        for n, m in ((-1, 0), (0, -1), (-3, -2)):
            with pytest.raises(InputError):
                distance_exponent(x, x, n, m)


def raw_first_disagreement(u: EpSet, v: EpSet, n: int, m: int) -> int | None:
    """Oracle: the least j with u(n + j) != v(m + j), reading bits off the
    words one at a time on a window past which both shifted words repeat."""
    horizon = len(u.pre) + len(v.pre) + 2 * math.lcm(len(u.per), len(v.per))
    return next((j for j in range(horizon)
                 if raw_bit(u.pre, u.per, n + j) != raw_bit(v.pre, v.per, m + j)), None)


# The small universe: every canonical word with a preperiod of at most
# UNIVERSE_PRE bits and a period of at most UNIVERSE_PER bits (40 words).
UNIVERSE_PRE = 2
UNIVERSE_PER = 3
UNIVERSE = canonical_sets(UNIVERSE_PRE, UNIVERSE_PER)


def universe_offsets():
    """Every ordered pair of universe words with every offset n below their
    preperiod join plus twice their lcm period."""
    for u, v in product(UNIVERSE, repeat=2):
        top = max(len(u.pre), len(v.pre)) + 2 * math.lcm(len(u.per), len(v.per))
        for n in range(top):
            yield u, v, n


class TestFirstDisagreement:
    def test_universe_matches_raw_oracle(self):
        assert len(UNIVERSE) == 40
        for u, v, n in universe_offsets():
            for m in {0, n}:
                assert _first_disagreement(u, v, n, m) == raw_first_disagreement(u, v, n, m), (
                    u.literal, v.literal, n, m)

    def test_one_period_past_preperiods_reads_no_window(self):
        """Past both preperiods, words of one period are compared and
        scanned on their rotated residue words; no window is read."""
        pairs = 0
        with mock.patch.object(EpSet, "window", side_effect=AssertionError):
            for u, v, n in universe_offsets():
                for m in {0, n}:
                    if len(u.res) == len(v.res) and n >= len(u.pre) and m >= len(v.pre):
                        pairs += 1
                        assert _first_disagreement(u, v, n, m) == raw_first_disagreement(u, v, n, m)
        assert pairs == 4756

    def test_universe_distance_exponent(self):
        for u, v, n in universe_offsets():
            x, y = SymbolicPoint((u,)), SymbolicPoint((v,))
            for m in {0, n}:
                d = raw_first_disagreement(u, v, n, m)
                assert distance_exponent(x, y, n, m) == (INF if d is None else d)

    def test_universe_cylinder_contains(self):
        """Depths at and just past the first disagreement, where the
        verdict turns, and past the whole window."""
        for u, v, n in universe_offsets():
            z, ref = SymbolicPoint((u,)), SymbolicPoint((v,))
            d = raw_first_disagreement(u, v, n, 0)
            depths = {0, 1, 20} if d is None else {0, d, d + 1, 20}
            for k in depths:
                assert profile_contains(ref, (1, k), z, n) == (d is None or d >= k)
                assert window_contains(ref, (1, k), z, n) == (d is None or d >= k)

    @given(words, words, st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=40))
    @example(EpSet("1", "0"), EpSet("", "0"), 0, 0)  # n inside u's preperiod
    @example(EpSet("", "0"), EpSet("1", "0"), 0, 0)  # m inside v's preperiod
    @example(EpSet("", "10"), EpSet("", "10"), 1, 0)  # one period, phases apart
    def test_matches_raw_oracle(self, u, v, n, m):
        """Longer words and far offsets, with equal words at offsets a
        multiple of the period apart, where the shifted words agree."""
        p, q = len(u.per), len(v.per)
        for a, b, i, j in ((u, v, n, m), (u, u, n, m), (u, u, n, n + m * p), (v, v, n + m * q, n)):
            assert _first_disagreement(a, b, i, j) == raw_first_disagreement(a, b, i, j)


def rotation_table_ur(x: SymbolicPoint) -> dict:
    """Oracle for purely periodic stacks: the return exponents read off a
    private table of each coordinate against each of its rotations, and
    the gaps recomputed once per distinct cut."""
    period = x.lcm_period
    top = x.coord_count + period
    rot_mismatch: list[list[int | None]] = []
    for u in x.coords:
        p = len(u.per)
        row: list[int | None] = [None]
        for s in range(1, p):
            rot = u.per[s:] + u.per[:s]
            row.append(next(j for j in range(p) if rot[j] != u.per[j]))
        rot_mismatch.append(row)
    exps: list[int | float] = []
    for n in range(period):
        e: int | float = math.inf
        for i, row in enumerate(rot_mismatch):
            d = row[n % len(row)]
            if d is not None and i + d < e:
                e = i + d
        exps.append(e)
    bound_cache: dict[int | float, int] = {}
    gaps = []
    finite = sorted({e for e in exps if e is not math.inf})
    for k in range(1, top + 1):
        cut = next((v for v in finite if v >= k), math.inf)
        if cut not in bound_cache:
            returns = [n for n, e in enumerate(exps) if e >= cut]
            if len(returns) == 1:
                bound_cache[cut] = period
            else:
                diffs = [b - a for a, b in zip(returns, returns[1:])]
                diffs.append(returns[0] + period - returns[-1])
                bound_cache[cut] = max(diffs)
        gaps.append([k, bound_cache[cut]])
    return {"recurrent": True, "gaps": gaps}


class TestUniformRecurrence:
    def test_frozen(self):
        r = is_uniformly_recurrent(pt("(01)"))
        assert r["recurrent"] and all(g == 2 for _, g in r["gaps"])
        r = is_uniformly_recurrent(pt("1(0)"))
        assert r == {"recurrent": False, "coord": 0, "word": "1", "occurrences": [0]}
        assert is_uniformly_recurrent(pt("(01);(0011)"))["recurrent"]
        # a gap is the largest cyclic difference between returns
        assert all(g == 4 for _, g in is_uniformly_recurrent(pt("(1000)"))["gaps"])

    def test_gap_resolutions_run_high_enough(self):
        r = is_uniformly_recurrent(pt("(01);(0011)"))
        ks = [k for k, _ in r["gaps"]]
        assert ks == list(range(1, 2 + 4 + 1))

    @given(points)
    def test_matches_brute(self, x):
        assert is_uniformly_recurrent(x)["recurrent"] == brute_ur(x)

    @given(periodic_points)
    def test_matches_rotation_table(self, x):
        assert is_uniformly_recurrent(x) == rotation_table_ur(x)

    @given(periodic_points)
    def test_gap_certificate(self, x):
        r = is_uniformly_recurrent(x)
        assert r["recurrent"]
        lcm = x.lcm_period
        for k, bound in r["gaps"]:
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
        if r["recurrent"]:
            return
        u = x.coords[r["coord"]]
        assert u.pre
        m, p = len(u.pre), len(u.per)
        length = len(r["word"])
        horizon = m + 2 * p + length
        w = u.window(0, horizon + length)
        assert w.startswith(r["word"])
        hits = [n for n in range(horizon) if w[n:n + length] == r["word"]]
        assert hits == r["occurrences"]
        assert all(n < m for n in hits)


def prefix_scan_ur(x: SymbolicPoint) -> dict:
    """Oracle for a stack that is not purely periodic: the shortest prefix
    of its first coordinate with a preperiod that occurs at no offset of
    one period past that preperiod, found by slicing a 2(m + p) window."""
    i = next(j for j, c in enumerate(x.coords) if c.pre)
    u = x.coords[i]
    m, p = len(u.pre), len(u.per)
    w = u.window(0, 2 * (m + p))
    for length in range(1, m + p + 1):
        prefix = w[:length]
        if all(w[n:n + length] != prefix for n in range(m, m + p)):
            occ = [n for n in range(m) if w[n:n + length] == prefix]
            return {"recurrent": False, "coord": i, "word": prefix, "occurrences": occ}
    raise AssertionError(f"no finitely occurring prefix in {u.literal}")


# every canonical word with a nonempty preperiod of at most NONRECURRENT_PRE
# bits and a period of at most NONRECURRENT_PER bits
NONRECURRENT_PRE = 5
NONRECURRENT_PER = 5


class TestNonRecurrenceCertificate:
    def test_matches_prefix_scan(self):
        """Each word alone, and behind its purely periodic residue word, so
        the certificate reads coordinate 1."""
        words = [u for u in canonical_sets(NONRECURRENT_PRE, NONRECURRENT_PER) if u.pre]
        xs = [SymbolicPoint((u,)) for u in words]
        xs += [SymbolicPoint((EpSet("", u.res), u)) for u in words]
        assert len(xs) == 3224
        mismatches = [x.literal for x in xs if is_uniformly_recurrent(x) != prefix_scan_ur(x)]
        assert mismatches == []


def join_rule_proximal(x: SymbolicPoint, y: SymbolicPoint) -> dict:
    """Oracle: the pair is proximal iff the points agree at the preperiod
    join; otherwise the worst exponent over one joint period past it."""
    join = max(x.max_preperiod, y.max_preperiod)
    if distance_exponent(x, y, join, join) == INF:
        return {"proximal": True, "witness": join}
    period = math.lcm(x.lcm_period, y.lcm_period)
    worst = max(distance_exponent(x, y, n, n) for n in range(join, join + period))
    return {"proximal": False, "exponent": int(worst)}


class TestProximality:
    def test_universe_residue_rule(self):
        """Every ordered pair of universe words, and 2-coordinate stacks of
        them against each other and their AE solutions: equal residue words
        are agreement from the join on."""
        singles = [SymbolicPoint((u,)) for u in UNIVERSE]
        stacks = [SymbolicPoint((u, v)) for u, v in product(UNIVERSE[::6], UNIVERSE[1::6])]
        pairs = list(product(singles, repeat=2))
        pairs += product(stacks, stacks + [ae_solve(x) for x in stacks])
        for x, y in pairs:
            join = max(x.max_preperiod, y.max_preperiod)
            assert _proximal(x, y) == (distance_exponent(x, y, join, join) == INF)
            assert are_proximal(x, y) == join_rule_proximal(x, y)

    def test_frozen(self):
        assert are_proximal(pt("(01)"), pt("(10)")) == {"proximal": False, "exponent": 0}
        assert are_proximal(pt("1(0)"), pt("(0)")) == {"proximal": True, "witness": 1}
        z = pt("(0011)")
        assert are_proximal(z, shift(z, 4))["proximal"]

    @given(same_size_pair())
    def test_matches_brute(self, xy):
        x, y = xy
        assert are_proximal(x, y)["proximal"] == brute_proximal(x, y)

    @given(same_size_pair())
    def test_certificates(self, xy):
        x, y = xy
        r = are_proximal(x, y)
        if r["proximal"]:
            assert shift(x, r["witness"]) == shift(y, r["witness"])
        else:
            join = max(x.max_preperiod, y.max_preperiod)
            lcm = math.lcm(*(len(c.per) for c in x.coords + y.coords))
            es = [
                distance_exponent(shift(x, n), shift(y, n))
                for n in range(join, join + 2 * lcm)
            ]
            assert all(e <= r["exponent"] for e in es)
            assert r["exponent"] in es

    @given(points)
    def test_reflexive(self, x):
        assert are_proximal(x, x)["proximal"]


class TestAeSolve:
    def test_frozen(self):
        assert ae_solve(pt("11(0)")) == pt("(0)")
        assert ae_solve(pt("(0110)")) == pt("(0110)")
        assert ae_solve(pt("1(10)")) == pt("(01)")

    @given(points)
    def test_output_verifies(self, x):
        y = ae_solve(x)
        assert is_uniformly_recurrent(y)["recurrent"]
        assert are_proximal(x, y)["proximal"]

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
        assert is_uniformly_recurrent(ystack)["recurrent"]
        assert are_proximal(stack_points(x1, x2), ystack)["proximal"]


IDENTITY = BlockCode.parse("1:1:1:01")
NOT = BlockCode.parse("1:1:1:10")
AND2 = BlockCode.parse("2:1:1:0001")

# every (arity, window, coords) with at most 4 reads
SMALL_SHAPES = [
    (a, w, c) for a, w, c in product(range(1, 5), repeat=3) if a * w * c <= 4
]


@st.composite
def small_codes(draw, shape=None):
    """A block code of at most 4 reads with drawn bits, and inputs it takes."""
    a, w, c = shape or draw(st.sampled_from(SMALL_SHAPES))
    n = c << a * w * c
    code = BlockCode(a, w, c, draw(st.text(alphabet="01", min_size=n, max_size=n)))
    inputs = [
        SymbolicPoint(tuple(draw(st.lists(words, min_size=c, max_size=c)))) for _ in range(a)
    ]
    return code, inputs


class TestBlockCode:
    def test_parse_roundtrip(self):
        for text in ["1:1:1:01", "1:1:1:10", "2:1:1:0001", "1:2:1:0110"]:
            assert BlockCode.parse(text).literal == text

    @pytest.mark.parametrize(
        "bad",
        [
            "", "1:1:1", "0:1:1:01", "1:1:1:0", "1:1:1:012", "a:1:1:01", "1:1:2:01",
            "3:3:2:" + "0" * 10, "1:1:1:02",
        ],
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(LiteralError):
            BlockCode.parse(bad)

    def test_dimension_cap(self):
        with pytest.raises(InputError):
            BlockCode(arity=1, window=17, coords=1, bits="0" * (1 << 17))

    @pytest.mark.parametrize(
        "fields, message",
        [
            ((0, 1, 1, "01"), "positive"),
            ((1, 0, 1, ""), "positive"),
            ((1, 1, 0, ""), "positive"),
            ((-1, -1, 1, "0"), "positive"),
            # the reads are capped before any table length is worked out
            ((1, 17, 1, ""), "limit 16"),
            ((3, 3, 2, "0" * 10), "limit 16"),
            ((1, 1, 1, "0"), "needs 2 bits"),
            ((1, 1, 2, "01"), "needs 8 bits"),
            ((2, 1, 1, "00010"), "needs 4 bits"),
            ((1, 1, 1, "02"), "bits 0/1"),
            ((1, 1, 1, "0 "), "bits 0/1"),
            ((1, 2, 1, "01a0"), "bits 0/1"),
            # no coercion: a float, a bool or a digit string is refused,
            # and so is a table that is not one string
            ((1.0, 1, 1, "01"), "ints"),
            ((True, 1, 1, "01"), "ints"),
            ((1, 1, "1", "01"), "ints"),
            ((1, 1, 1, ["0", "1"]), "bits 0/1"),
        ],
    )
    def test_constructor_refuses(self, fields, message):
        """The constructor is the one validator; direct construction meets
        each of its refusals."""
        with pytest.raises(InputError, match=message) as info:
            BlockCode(*fields)
        assert not isinstance(info.value, LiteralError)

    def test_small_shapes(self):
        assert len(SMALL_SHAPES) == 13

    @pytest.mark.parametrize("shape", SMALL_SHAPES)
    @given(data=st.data())
    def test_literal_roundtrip(self, shape, data):
        code, _ = data.draw(small_codes(shape))
        assert BlockCode.parse(code.literal) == code
        assert code.literal == ":".join(map(str, shape)) + ":" + code.bits

    @given(small_codes())
    def test_matches_window_oracle(self, code_inputs):
        code, inputs = code_inputs
        assert apply_block_code(code, inputs) == window_block_code(code, inputs)

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

    def test_last_pair_checked(self):
        # a solver whose last (or only) answer is not uniformly recurrent
        # must fail the pair check, not be returned
        solved = [ae_solve(pt("(01)")), pt("1(0)")]
        with mock.patch.object(dynamics, "ae_solve", side_effect=solved):
            with pytest.raises(AetPairError, match="uniformly recurrent"):
                eaet_prime(pt("(01)"), [IDENTITY])
        with mock.patch.object(dynamics, "ae_solve", return_value=pt("1(0)")):
            with pytest.raises(AetPairError, match="uniformly recurrent"):
                eaet_prime(pt("(01)"), [])

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
        assert is_uniformly_recurrent(ystack)["recurrent"]
        assert are_proximal(stack_points(*xs), ystack)["proximal"]


def first_visit_orbit(y: SymbolicPoint, top: int) -> list[SymbolicPoint]:
    """Oracle: the shifts T^n y for n < top, deduplicated in first-visit order."""
    seen: set[SymbolicPoint] = set()
    out: list[SymbolicPoint] = []
    for n in range(top):
        z = shift(y, n)
        if z not in seen:
            seen.add(z)
            out.append(z)
    return out


class TestOrbitClosure:
    def test_universe_matches_first_visit_oracle(self):
        """On every one- and two-word stack of the universe, the shifts
        below join plus lcm are pairwise distinct, so ``orbit_closure``
        needs no dedup; one shift more would repeat T^join y."""
        stacks = [SymbolicPoint((u,)) for u in UNIVERSE]
        stacks += [SymbolicPoint(pair) for pair in product(UNIVERSE, repeat=2)]
        for y in stacks:
            top = y.max_preperiod + y.lcm_period
            want = first_visit_orbit(y, top)
            assert orbit_closure(y) == want, y.literal
            assert [shift(y, n) for n in range(top + 1)] != want, y.literal

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


def profile_contains(reference: SymbolicPoint, pair, z: SymbolicPoint, n: int = 0) -> bool:
    """T^n z lies in the cylinder of ``pair`` around ``reference``, read as
    the library reads it: the last entry of one agreement profile."""
    c, k = pair
    return _agreement_profile(z, reference, n, c)[-1] >= k


class TestCylinder:
    """A cylinder is a reference and a (coord depth, pos depth) pair;
    its membership is one agreement profile read."""

    def test_contains_reference(self):
        for ref in [pt("(01)"), pt("1(10);(0011)")]:
            for i in range(ref.coord_count + 1):
                for k in range(4):
                    assert profile_contains(ref, (i, k), ref)
                    assert window_contains(ref, (i, k), ref, 0)

    def test_trivial_contains_everything(self):
        for pair in [(0, 5), (1, 0)]:
            assert whole_space(pair)
            assert profile_contains(pt("(01)"), pair, pt("(10)"))
            assert window_contains(pt("(01)"), pair, pt("(10)"), 0)
        assert not whole_space((1, 1))
        assert not profile_contains(pt("(01)"), (1, 1), pt("(10)"))

    def test_depth_bounds_checked(self):
        """One depth check serves ``covering_bound`` and the certificate
        replay: each bad pair raises the same message on both paths."""
        y = pt("(01)")
        cert = ip_sequence_construct(y, y, count=2)
        for pair, message in [
            ((2, 1), "coordinate depth out of range"),
            ((-1, 1), "coordinate depth out of range"),
            ((1, -1), "position depth must be a natural number"),
        ]:
            with pytest.raises(InputError) as cover:
                covering_bound(y, y, *pair)
            with pytest.raises(InputError) as replay:
                verify_ip_certificate(replace(cert, neighborhoods=((0, 0), pair, (1, 4))))
            assert str(cover.value) == str(replay.value) == message, pair

    @given(same_size_pair())
    def test_offset_matches_shifted_point(self, pair):
        ref, z = pair
        horizon = 2 * (z.max_preperiod + z.lcm_period)
        for r in (ref, z):
            for i in range(r.coord_count + 1):
                for k in range(5):
                    for n in range(horizon):
                        inside = profile_contains(r, (i, k), z, n)
                        assert inside == profile_contains(r, (i, k), shift(z, n))
                        assert inside == window_contains(r, (i, k), z, n)

    def test_shift_image_subset_pointwise(self):
        ref, image = pt("(0011)"), pt("(1100)")
        samples = [shift(pt("(0011)"), n) for n in range(4)] + [pt("0011(0)"), pt("0011(10)")]
        for z in samples:
            if profile_contains(ref, (1, 4), z):
                assert profile_contains(image, (1, 2), shift(z, 2))
        assert window_shift_image_subset(ref, (1, 4), 2, image, (1, 2))

    @given(same_size_pair(), st.integers(min_value=0, max_value=500))
    def test_deep_windows_match_window_oracles(self, pair, drawn):
        """Position depths and offsets far past the preperiod join plus the
        period lcm, where the comparison reads a clipped window."""
        a, b = pair
        join = max(a.max_preperiod, b.max_preperiod)
        horizon = join + math.lcm(a.lcm_period, b.lcm_period)
        depths = [0, 1, horizon, horizon + 1, 7 * horizon + 3, 40 * horizon, drawn]
        offsets = [0, 1, join, join + 1, horizon, horizon + 5, 13 * horizon + 2, drawn]
        for ref in (a, b):
            for i in range(ref.coord_count + 1):
                for k in depths:
                    for z in (a, b):
                        for n in offsets:
                            assert profile_contains(ref, (i, k), z, n) == window_contains(
                                ref, (i, k), z, n
                            )


def tamper(cert: IpConstructionCertificate, edits) -> IpConstructionCertificate:
    """Apply one-field edits to a certificate's terms and depth pairs.

    ("coord", j, c) sets U_j's coordinate depth to c; ("pos", j, a, d) sets
    U_j's position depth to d past bound a of those the checks compare it
    with (j, and U_{j-1}'s and U_{j+1}'s position depths with and without
    the term between them); ("term", j, a) moves n_j to target a: just past
    n_{j-1}, one below or above n_j, or just below n_{j+1}, where the head
    stays increasing; ("truncate", k) drops the last neighbourhood (k = 0),
    the last term (k = 1) or both (k = 2), keeping one of each.
    """
    y = cert.target
    us, terms = list(cert.neighborhoods), list(cert.generator.head)
    for kind, j, *args in edits:
        if kind == "coord":
            j = min(j, len(us) - 1)
            us[j] = (args[0] % (y.coord_count + 1), us[j][1])
        elif kind == "pos":
            j = min(j, len(us) - 1)
            bounds = [j]  # the depths each check compares U_j's with
            if 0 < j <= len(terms):
                bounds += [us[j - 1][1], us[j - 1][1] + terms[j - 1]]
            if j + 1 < len(us) and j < len(terms):
                bounds += [us[j + 1][1], us[j + 1][1] - terms[j]]
            pos = max(bounds[args[0] % len(bounds)] + args[1], 0)
            us[j] = (us[j][0], pos)
        elif kind == "term":
            j = min(j, len(terms) - 1)
            lo = terms[j - 1] if j else 0
            hi = terms[j + 1] if j + 1 < len(terms) else terms[j] + 2
            t = [lo + 1, terms[j] - 1, terms[j] + 1, hi - 1][args[0]]
            if lo < t < hi:
                terms[j] = t
        else:
            if j != 1 and len(us) > 1:
                us.pop()
            if j != 0 and len(terms) > 1:
                terms.pop()
    return IpConstructionCertificate(
        IpGenerator(tuple(terms), cert.generator.tail_diffs), tuple(us), y, cert.source
    )


edits = st.lists(
    st.one_of(
        st.tuples(st.just("coord"), st.integers(1, 4), st.integers(0, 3)),
        st.tuples(st.just("pos"), st.integers(1, 4), st.integers(0, 4), st.integers(-1, 0)),
        st.tuples(st.just("term"), st.integers(1, 4), st.integers(0, 3)),
        st.tuples(st.just("truncate"), st.integers(0, 2)),
    ),
    max_size=3,
)


# the largest position depth of the replay's every-depth-triple slice
REPLAY_POS_DEPTH = 2


class TestCertificateReplay:
    @given(points, st.integers(min_value=1, max_value=4), edits)
    # the depth guard of the shift condition counts the shift n
    @example(pt("(10)"), 3, [("pos", 2, 2, -1)])
    # the ball bound needs position depth i, not i - 1
    @example(pt("(10)"), 3, [("pos", 2, 0, -1)])
    # T^n y must lie in U_i once the depths fit
    @example(pt("(10)"), 3, [("term", 1, 1)])
    # nested cylinders may share a depth
    @example(pt("(10)"), 3, [("pos", 2, 1, 0)])
    def test_matches_window_replay(self, x, count, drawn):
        """Built certificates and one to three edits of depths, terms and
        length: the depth replay lists the failures the window replay
        lists."""
        cert = tamper(ip_sequence_construct(x, ae_solve(x), count=count), drawn)
        assert verify_ip_certificate(cert) == window_replay(cert)

    def test_universe_every_term_pair(self):
        """Points of one universe word and 2-coordinate stacks of them,
        each certificate's terms set to every increasing pair below the
        join plus twice the lcm period, some inside x's preperiod; with
        the built depths and with every coordinate depth 0."""
        xs = [SymbolicPoint((u,)) for u in UNIVERSE]
        xs += [SymbolicPoint((u, v)) for u, v in product(UNIVERSE[::3], UNIVERSE[1::3])]
        for x in xs:
            cert = ip_sequence_construct(x, ae_solve(x), count=2)
            flat = replace(cert, neighborhoods=tuple((0, k) for _, k in cert.neighborhoods))
            top = x.max_preperiod + 2 * x.lcm_period
            for terms in combinations(range(1, top), 2):
                for c in (cert, flat):
                    c = replace(c, generator=IpGenerator(terms, c.generator.tail_diffs))
                    assert verify_ip_certificate(c) == window_replay(c), (x.literal, terms)

    def test_universe_every_depth_triple(self):
        """Points of one universe word at every term pair below the join
        plus twice the lcm period, with the three neighbourhoods at coordinate
        depth 1 and every position depth up to REPLAY_POS_DEPTH, where
        T^n y may miss U_i by exactly its depth."""
        wrong = []
        for u in UNIVERSE:
            x = SymbolicPoint((u,))
            cert = ip_sequence_construct(x, ae_solve(x), count=2)
            pairs = [(1, k) for k in range(REPLAY_POS_DEPTH + 1)]
            top = x.max_preperiod + 2 * x.lcm_period
            for terms in combinations(range(1, top), 2):
                generator = IpGenerator(terms, cert.generator.tail_diffs)
                for us in product(pairs, repeat=3):
                    c = replace(cert, generator=generator, neighborhoods=us)
                    if verify_ip_certificate(c) != window_replay(c):
                        wrong.append((u.literal, terms, [k for _, k in us]))
        assert wrong == []


def orbit_copy_covering_bound(y: SymbolicPoint, reference: SymbolicPoint, pair) -> int:
    """Oracle: the entry time of every orbit-closure point, each built as a
    shifted copy of y, into the cylinder of ``pair`` around ``reference``."""
    entries = []
    for z in orbit_closure(y):
        n = next((n for n in range(y.lcm_period) if window_contains(reference, pair, z, n)), None)
        if n is None:
            raise InputError(
                f"cylinder of depths {pair} misses the whole orbit closure of {y.literal}"
            )
        entries.append(n)
    return max(entries)


class TestCoveringBound:
    def test_frozen(self):
        assert covering_bound(pt("(01)"), pt("(01)"), 1, 1) == 1
        assert covering_bound(pt("(0)"), pt("(0)"), 1, 2) == 0
        assert covering_bound(pt("(0011)"), pt("(0011)"), 1, 1) == 2
        # one less than the largest cyclic difference between hitting times
        assert covering_bound(pt("(1000)"), pt("(1000)"), 1, 4) == 3

    def test_requires_recurrent(self):
        with pytest.raises(InputError, match="recurrent"):
            covering_bound(pt("1(0)"), pt("(0)"), 1, 1)

    def test_disjoint_cylinder(self):
        with pytest.raises(InputError, match="misses"):
            covering_bound(pt("(0)"), pt("(1)"), 1, 1)

    @given(periodic_points, st.integers(min_value=1, max_value=3))
    def test_bound_verified(self, y, k):
        pair = (y.coord_count, k)
        m = covering_bound(y, y, *pair)
        orb = orbit_closure(y)
        entry = []
        for z in orb:
            first = next(n for n in range(y.lcm_period) if window_contains(y, pair, shift(z, n), 0))
            assert first <= m
            entry.append(first)
        assert max(entry) == m
        assert m < max(y.lcm_period, 1)

    @given(same_size_pair())
    def test_matches_orbit_copies(self, pair):
        """Results and error text, on cylinders around an unrelated point
        and around the periodic point itself."""
        a, b = pair
        y = ae_solve(a)
        for ref in (b, y):
            for i in range(1, ref.coord_count + 1):
                for k in (1, 2, 4):
                    assert outcome(covering_bound, y, ref, i, k) == outcome(
                        orbit_copy_covering_bound, y, ref, (i, k)
                    )

    @given(same_size_pair(), st.integers(min_value=1, max_value=4))
    @example((pt("(1000)"), pt("(1000)")), 4)
    def test_one_contains_call_per_period_step(self, pair, k):
        """The hitting times come from one scan of the period, hit or miss:
        at most one agreement profile per period step."""
        a, b = pair
        y = ae_solve(a)
        profile = dynamics._agreement_profile
        calls = []

        def counted(z, reference, n, depth):
            calls.append(n)
            return profile(z, reference, n, depth)

        for ref in (b, y):
            calls.clear()
            with mock.patch.object(dynamics, "_agreement_profile", counted):
                outcome(covering_bound, y, ref, ref.coord_count, k)
            assert 0 < len(calls) <= y.lcm_period
