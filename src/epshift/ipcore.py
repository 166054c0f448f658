"""Finite-sums machinery: IP sequences, certified IP-limits, bounded
IP-limit checks, Hindman search.

FS((n_i)_{i>=k}) is the set of sums over nonempty finite sets of distinct
indices >= k.  The generators here are difference-periodic: finitely many
explicit head terms, then differences repeating from a cycle.  That class
is closed under the constructions below and keeps every membership
question decidable by residue arithmetic (see :mod:`epshift.filters`).

The centerpiece is :func:`ip_sequence_construct`, which builds, for a
verified pair (x, y) with y uniformly recurrent and proximal to x, a
nested chain of cylinders U_0 ⊇ U_1 ⊇ … around y together with generator
terms n_i satisfying T^{n_i} U_{i+1} ⊆ U_i and T^{n_i} x, T^{n_i} y ∈
U_{i+1}, with U_i inside the 2^-i ball at y.  Each U_i is recorded as
its (coordinate depth, position depth) pair: the points agreeing with y
on the coordinates below the first at the positions below the second.
Those conditions force every finite sum s with least index i₁ to satisfy
d(T^s x, y) <= 2^-i₁, and they are re-verified from scratch on the
emitted certificate rather than trusted from the construction.

:func:`ip_limit_check` only samples finitely many sums, and returns its
verdict as the JSON object the CLI prints.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, combinations
from operator import or_

from .epcore import CapacityError, ConstructionError, EpSet, InputError, LiteralError
from .dynamics import (
    SymbolicPoint,
    _agreement_profile,
    _check_depths,
    ae_solve,
    distance_exponent,
    encode_point,
    require_aet_pair,
)

__all__ = [
    "FsSearchResult",
    "IpConstructionCertificate",
    "IpGenerator",
    "PartitionError",
    "aet_to_iht_pipeline",
    "fs_enumerate",
    "hindman_search",
    "iht_search",
    "ip_limit_check",
    "ip_sequence_construct",
    "validate_partition",
    "verify_ip_certificate",
    "verify_iht_witness",
]

_GENERATOR = re.compile(r"([0-9]+(?:,[0-9]+)*)\+\(([0-9]+(?:,[0-9]+)*)\)")


class PartitionError(InputError):
    """Color classes offered as a partition fail to cover some position exactly once."""


@dataclass(frozen=True)
class IpGenerator:
    """A strictly increasing sequence with eventually periodic differences.

    ``head`` lists the explicit terms n_0 .. n_{L-1}; afterwards
    n_{i+1} = n_i + tail_diffs[(i - L + 1) mod len(tail_diffs)], i.e. the
    first continuation step past the head uses tail_diffs[0].
    """

    head: tuple[int, ...]
    tail_diffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if not (isinstance(self.head, Iterable) and isinstance(self.tail_diffs, Iterable)):
            raise InputError("generator head and tail differences must be sequences of ints")
        head, diffs = tuple(self.head), tuple(self.tail_diffs)
        if set(map(type, head + diffs)) - {int}:  # a bool, float or str term
            raise InputError("generator terms and differences must be ints")
        if not head:
            raise InputError("generator needs at least one explicit term")
        if head[0] < 1:
            raise InputError("generator terms start at 1")
        if any(b <= a for a, b in zip(head, head[1:])):
            raise InputError("generator head must be strictly increasing")
        if not diffs or any(d < 1 for d in diffs):
            raise InputError("tail differences must be positive")
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "tail_diffs", diffs)

    @classmethod
    def parse(cls, text: str) -> "IpGenerator":
        m = _GENERATOR.fullmatch(text)
        try:
            fields = m and [tuple(int(t) for t in g.split(",")) for g in m.groups()]
        except ValueError:  # a number past int()'s digit limit
            fields = None
        if not fields:
            raise LiteralError(
                f"bad generator literal {text!r}: expected h0,h1,...+(d0,d1,...)"
            )
        return cls(*fields)

    @property
    def literal(self) -> str:
        return (
            ",".join(str(n) for n in self.head)
            + "+("
            + ",".join(str(d) for d in self.tail_diffs)
            + ")"
        )

    def __str__(self) -> str:
        return self.literal

    def term(self, i: int) -> int:
        if i < 0:
            raise InputError("generator indices are naturals")
        if i < len(self.head):
            return self.head[i]
        k = i - len(self.head) + 1
        q, r = divmod(k, len(self.tail_diffs))
        return self.head[-1] + q * sum(self.tail_diffs) + sum(self.tail_diffs[:r])

    def terms(self, count: int, from_index: int = 0) -> list[int]:
        return [self.term(from_index + i) for i in range(count)]


def fs_enumerate(g: IpGenerator, from_index: int, max_terms: int, bound: int) -> list[int]:
    """All finite sums of 1..max_terms distinct-index terms of the tail
    (n_i)_{i>=from_index} that stay <= bound; sorted and deduplicated.

    Bit s of ``layers[j]`` is set iff s <= bound is a sum of j of the
    terms seen so far; layers are updated top down so that no term is
    used twice.
    """
    if max_terms < 1 or bound < 1:
        raise InputError("need max_terms >= 1 and bound >= 1")
    terms = []
    i = from_index
    while (t := g.term(i)) <= bound:  # terms increase, so no later one fits
        terms.append(t)
        i += 1
    # j terms add up to at least the j smallest, so deeper layers stay empty
    depth = min(max_terms, sum(1 for s in accumulate(terms) if s <= bound))
    full = (1 << (bound + 1)) - 1
    layers = [1] + [0] * depth
    for t in terms:
        for j in range(depth, 0, -1):
            layers[j] |= layers[j - 1] << t & full
    sums = 0
    for layer in layers[1:]:
        sums |= layer
    text = bin(sums)  # bit s of sums is character len(text) - 1 - s
    return sorted(len(text) - 1 - m.start() for m in re.finditer("1", text))


# -- the certified construction ---------------------------------------------


@dataclass(frozen=True)
class IpConstructionCertificate:
    """An IP generator and its neighbourhoods U_0..U_L around ``target``,
    each a (coordinate depth, position depth) pair; depth 0 in either
    direction is the whole space."""

    generator: IpGenerator
    neighborhoods: tuple[tuple[int, int], ...]
    target: SymbolicPoint
    source: SymbolicPoint


def verify_ip_certificate(cert: IpConstructionCertificate) -> list[str]:
    """Re-check every certificate condition from scratch; list the failures.

    Checks, with L head terms and neighborhoods U_0..U_L: the chain
    U_{i+1} ⊆ U_i, the shift containment T^{n_i} U_{i+1} ⊆ U_i, the orbit
    memberships T^{n_i} x ∈ U_{i+1} and T^{n_i} y ∈ U_{i+1}, and the ball
    bound U_i ⊆ B(y, 2^-i).

    Each U_i is the cylinder around y with its own depths, so two nest
    exactly when their depths do, and the ball bound is a depth bound.
    T^n U_{i+1} ⊆ U_i holds exactly when U_i's constraints fit inside
    U_{i+1}'s shifted by n and T^n y lies in U_i.  Each membership of
    T^n x or T^n y is one read of its ``_agreement_profile``.  The pairs
    go through ``covering_bound``'s depth check, so one with a coordinate
    depth outside [0, K] for K coordinates, or a negative position depth,
    raises ``InputError``.
    """
    x, y = cert.source, cert.target
    us = cert.neighborhoods
    terms = cert.generator.head
    if len(us) != len(terms) + 1:
        return [f"expected {len(terms) + 1} neighborhoods for {len(terms)} terms, got {len(us)}"]
    coord_count = y.coord_count
    _check_depths(y, us)
    if x.coord_count != coord_count:
        raise InputError("points live in products of different sizes")
    # past `lead`, T^n x and T^n y repeat with `period` on `head`: one profile pair per phase
    depth = max(c for c, _ in us)
    head = x.coords[:depth] + y.coords[:depth]
    lead = max((len(c.pre) for c in head), default=0)
    period = math.lcm(*(len(c.res) for c in head))
    profiles: dict[int, list[list]] = {}
    failures: list[str] = []
    for i, n in enumerate(terms):
        phase = n if n < lead else lead + (n - lead) % period
        if phase not in profiles:
            profiles[phase] = [_agreement_profile(z, y, phase, depth) for z in (x, y)]
        (px, py), (uc, uk), (vc, vk) = profiles[phase], us[i], us[i + 1]
        # U_i's constraints inside U_{i+1}'s, shifted by 0 and by n; a U_i
        # of depth 0 is the whole space and holds anything
        if uc and uk and not (uc <= vc and uk <= vk):
            failures.append(f"U_{i + 1} is not contained in U_{i}")
        if uc and uk and not (uc <= vc and uk + n <= vk and py[uc] >= uk):
            failures.append(f"T^{n} U_{i + 1} is not contained in U_{i}")
        if px[vc] < vk:
            failures.append(f"T^{n} x misses U_{i + 1}")
        if py[vc] < vk:
            failures.append(f"T^{n} y misses U_{i + 1}")
    for i, (c, k) in enumerate(us):
        j = min(coord_count, i)
        if j and (c < j or k < i):
            failures.append(f"U_{i} is not inside the 2^-{i} ball at y")
    return failures


# the most terms ``ip_sequence_construct`` builds, each with its depth pair
_MAX_TERMS = 65536


def ip_sequence_construct(
    x: SymbolicPoint, y: SymbolicPoint, count: int = 8
) -> IpConstructionCertificate:
    """Build a certified IP sequence witnessing iplim T^n x = y.

    Requires (x, y) to verify as a solution pair (y uniformly recurrent,
    x proximal to y).  Terms are the least multiples of y's period past
    the preperiod join, and U_{i+1} has depths (min(i + 1, K), the larger
    of i + 1 and U_i's position depth plus n_i) for K coordinates, which
    makes every condition hold structurally; the emitted certificate is
    still re-verified from scratch and a failure raises, since a verifier
    bug elsewhere must not go quiet.  A count past 65536 raises
    :class:`CapacityError` before any term is built.
    """
    if count < 1:
        raise InputError("need at least one generator term")
    if count > _MAX_TERMS:
        raise CapacityError(f"certificate length {count} exceeds the cap of {_MAX_TERMS} terms")
    require_aet_pair(x, y)
    period = y.lcm_period
    join = x.max_preperiod  # the pair check found y purely periodic
    q0 = max(1, -(-join // period))
    terms = tuple(period * (q0 + i) for i in range(count))

    coord_count = y.coord_count
    us = [(0, 0)]
    pdepth = 0
    for i, n in enumerate(terms):
        pdepth = max(i + 1, pdepth + n)
        us.append((min(i + 1, coord_count), pdepth))

    cert = IpConstructionCertificate(
        generator=IpGenerator(terms, (period,)),
        neighborhoods=tuple(us),
        target=y,
        source=x,
    )
    failures = verify_ip_certificate(cert)
    if failures:
        raise ConstructionError(
            "constructed certificate failed its own audit: " + "; ".join(failures)
        )
    return cert


# -- bounded IP-limit checking ----------------------------------------------


def ip_limit_check(
    x: SymbolicPoint,
    g: IpGenerator,
    resolution: int,
    sum_terms: int = 3,
    witness_count: int = 6,
) -> dict:
    """Test whether iplim T^n x along FS-tails of g looks like y = ae_solve(x);
    return the verdict as the JSON object ``ip limit`` prints.

    For each tail offset m <= witness_count, every sum s of 1..sum_terms
    terms from indices m..m+witness_count-1 must satisfy
    distance_exponent(x, y, s) >= resolution.  ``kind`` is always
    "bounded": this is a semidecision over finitely many sums, not the
    genuine limit statement.  ``limit`` is y's literal.  A pass carries
    ``offset``, the first tail offset whose sampled sums all land within
    the resolution; a failure carries ``counterexamples``, one
    [offset, sum, exponent] refutation per tested offset.
    """
    if resolution < 0:
        raise InputError("resolution must be a natural number")
    if sum_terms < 1 or witness_count < 1:
        raise InputError("need sum_terms >= 1 and witness_count >= 1")
    y = ae_solve(x)
    refutations = []
    for m in range(witness_count + 1):
        tail = g.terms(witness_count, from_index=m)
        bad = None
        for size in range(1, min(sum_terms, len(tail)) + 1):
            for combo in combinations(tail, size):
                s = sum(combo)
                e = distance_exponent(x, y, s)
                if e < resolution:
                    bad = [m, s, int(e)]
                    break
            if bad:
                break
        if bad is None:
            return {"passed": True, "kind": "bounded", "limit": y.literal, "offset": m}
        refutations.append(bad)
    return {"passed": False, "kind": "bounded", "limit": y.literal,
            "counterexamples": refutations}


# -- colorings ---------------------------------------------------------------


def validate_partition(classes) -> tuple[EpSet, ...]:
    """Check that the classes partition the naturals; return them as a tuple.

    One preperiod-join-plus-lcm window decides the quantifier: past it
    every class repeats.
    """
    classes = tuple(classes)
    if not classes:
        raise PartitionError("a coloring needs at least one class")
    horizon = max(len(c.pre) for c in classes) + math.lcm(*(len(c.res) for c in classes))
    for n in range(horizon):
        hits = sum(1 for c in classes if c.member(n))
        if hits != 1:
            raise PartitionError(f"position {n} belongs to {hits} classes")
    return classes


def color_of(classes: tuple[EpSet, ...], n: int) -> int:
    for i, c in enumerate(classes):
        if c.member(n):
            return i
    raise PartitionError(f"position {n} belongs to 0 classes")


@dataclass(frozen=True)
class FsSearchResult:
    """Outcome of a Hindman-style search: the least witness, or exhaustion."""

    found: bool
    bound: int
    witness: tuple[int, ...] | None = None
    colors: tuple[int, ...] | None = None
    sums: tuple[int, ...] | None = None


def iht_search(colorings, terms: int, bound: int) -> FsSearchResult:
    """Least ascending witness whose suffix finite sums are homogeneous.

    With k = terms and colorings c_0..c_{r-1}, searches for x_0 < … <
    x_{N-1}, N = k + r - 1, such that FS((x_i)_{i>=j}) is monochromatic
    for c_j for every j, with all sums pairwise distinct and <= bound.
    Returns the lexicographically least witness or exhaustion at bound.
    """
    colorings = [validate_partition(c) for c in colorings]
    if not colorings:
        raise InputError("need at least one coloring")
    if len(colorings) > 8 or any(len(c) > 8 for c in colorings):
        raise InputError("at most 8 colorings of at most 8 classes")
    if terms < 2:
        raise InputError("witness needs at least 2 terms")
    if bound < 1:
        raise InputError("bound must be positive")
    return _least_witness(colorings, terms + len(colorings) - 1, bound)


def _least_witness(colorings, length: int, bound: int) -> FsSearchResult:
    """The search behind :func:`iht_search`, with N = ``length`` terms.

    A coloring's classes need not cover the naturals: the element that
    opens coloring j's suffix is drawn from ``covered[j]``, the union of
    its classes less the openers the Davenport rule below cuts.  For a
    partition that union is every position, so ``iht_search`` and
    ``hindman_search`` keep their order; ``filters.central_check``
    searches a single class this way.

    Sets of naturals are Python ints used as bitsets, bit n standing for n:

    - ``on[j][c]`` holds the n <= bound in class c of coloring j, read
      off that class's ``EpSet.mask``;
    - ``allowed[j]``, for each open suffix j with sums S_j and color
      c_j, holds the w with w + t in class c_j for t = 0 and every t in
      S_j; it starts as ``on[j][c_j]`` when element d = j opens the
      suffix;
    - ``sums`` holds every finite sum of the chosen elements (suffix 0).

    Appending v turns T = {0} ∪ S_j into T ∪ (T + v), and
    ⋂_{t ∈ T} (on >> (t + v)) is ``allowed[j] >> v``, so the child's mask
    is ``a & (a >> v)``: one shift per suffix per child, however many sums
    the suffix has.

    Each candidate must keep the sums pairwise distinct: v + s for s in
    {0} ∪ ``sums`` is an old sum iff bit s of ``sums >> v`` is set, which
    one ``sums >> v & (sums | 1)`` tests.  Four cuts prune the search;
    each removes only nodes with no completion, so the least witness is
    the one an unpruned scan returns.

    - Total: a witness's 2**N - 1 nonempty subset sums are distinct
      positive integers, so its total is at least 2**N - 1, and a bound
      below that is exhausted before any mask is built.
    - Range: at depth d the rem = N - d elements still to choose are v
      and rem - 1 larger ones, adding at least rem*v + rem*(rem-1)/2, so
      a candidate v lies in (last, (bound - total - rem*(rem-1)/2) // rem].
      top > last always: top >= 1 at the root, and a child of v <= top has top' > v.
    - Davenport opening rule: the Davenport constant of Z_p is p, so any
      p residues have a nonempty subset summing to 0 mod p.  Coloring
      d's suffix has N - d elements, all >= its opening element v.  If v
      lies in class c with v >= |c.pre|, N - d >= |c.res| and residue 0
      not periodic in c (``c.res[0]`` is "0"), some finite sum of the
      suffix is >= |c.pre| and ≡ 0 (mod |c.res|), so it lies outside c at
      any bound.  Such a class enters ``covered[d]`` cut to its preperiod
      positions.
    - Counting floor: at depth d >= 1 the 2**N - 2**d sums still to come
      are distinct, exceed ``last``, are <= bound, lie in suffix 0's
      class and miss every old sum; a node whose class has fewer such
      places left is dead.
    """
    # no witness has total < 2**length - 1; compared without building 2**length
    if length >= (bound + 1).bit_length():
        return FsSearchResult(found=False, bound=bound)

    def bits(x: int):
        """The positions of the set bits of x >= 0, lowest first."""
        while x:
            low = x & -x
            yield low.bit_length() - 1
            x ^= low

    on = [[x.mask(bound + 1) for x in c] for c in colorings]
    covered = [
        reduce(or_, (
            m & ((1 << len(x.pre)) - 1)
            if length - d >= len(x.res) and x.res[0] == "0" else m
            for x, m in zip(classes, masks)
        ))
        for d, (classes, masks) in enumerate(zip(colorings, on))
    ]

    def extend(
        chosen: list[int],
        total: int,
        sums: int,
        allowed: list[int],
        colors: list[int],
    ) -> FsSearchResult | None:
        """Least completion of ``chosen`` in lexicographic order, or None.

        ``allowed[j]`` and ``colors[j]`` belong to the open suffix j;
        coloring d's suffix opens at element d.  The running total is the
        largest sum, so it guards the bound.
        """
        d = len(chosen)
        if d == length:
            return FsSearchResult(
                found=True,
                bound=bound,
                witness=tuple(chosen),
                colors=tuple(colors),
                sums=tuple(bits(sums)),
            )
        last = chosen[-1] if chosen else 0
        # the counting floor: places left in suffix 0's class above last
        if d and (
            (on[0][colors[0]] >> (last + 1)).bit_count() - (sums >> (last + 1)).bit_count()
            < (1 << length) - (1 << d)
        ):
            return None
        rem = length - d
        top = (bound - total - rem * (rem - 1) // 2) // rem
        cand = ((1 << (top + 1)) - 1) >> (last + 1) << (last + 1)
        for a in allowed:
            cand &= a
        # while d < r, the next element opens coloring d's suffix and fixes its color
        if opens := d < len(on):
            cand &= covered[d]
        # old sums are pairwise distinct by induction, so new sums (old + v)
        # are too; only new-vs-old collisions can occur
        zero_sums = sums | 1
        for v in bits(cand):
            if sums >> v & zero_sums:
                continue
            grown, cols = allowed, colors
            if opens:
                low = 1 << v
                c = next(i for i, m in enumerate(on[d]) if m & low)
                grown, cols = allowed + [on[d][c]], colors + [c]
            got = extend(
                chosen + [v],
                total + v,
                sums | 1 << v | sums << v,
                [a & (a >> v) for a in grown],
                cols,
            )
            if got is not None:
                return got
        return None

    got = extend([], 0, 0, [], [])
    return got if got is not None else FsSearchResult(found=False, bound=bound)


def hindman_search(classes, terms: int, bound: int) -> FsSearchResult:
    """Least k-term witness with all finite sums in one color class."""
    return iht_search([classes], terms, bound)


def verify_iht_witness(witness, colorings) -> list[str]:
    """Audit a witness: ascending terms, and for each coloring j the finite
    sums of the suffix (x_i)_{i>=j} all in one class.  Returns failures.

    Sums need not be distinct numbers here; homogeneity is about values,
    and arithmetic-progression witnesses (which the pipeline produces)
    revisit sums freely.
    """
    witness = tuple(witness)
    colorings = [validate_partition(c) for c in colorings]
    failures: list[str] = []
    if len(witness) < len(colorings):
        failures.append(
            f"witness has {len(witness)} terms but there are {len(colorings)} colorings"
        )
        return failures
    if any(n < 1 for n in witness):
        failures.append("witness terms must be positive")
    if any(b <= a for a, b in zip(witness, witness[1:])):
        failures.append("witness terms must be strictly increasing")
    if failures:
        return failures
    for j, classes in enumerate(colorings):
        tail = witness[j:]
        expected = color_of(classes, tail[0])
        for size in range(1, len(tail) + 1):
            for combo in combinations(tail, size):
                s = sum(combo)
                got = color_of(classes, s)
                if got != expected:
                    failures.append(
                        f"coloring {j}: sum {s} has color {got}, expected {expected}"
                    )
                    return failures
    return failures


# -- the end-to-end reduction -----------------------------------------------


def aet_to_iht_pipeline(colorings, terms: int) -> IpConstructionCertificate:
    """Derive an iterated-Hindman witness from the dynamics, not from search.

    Encodes class 0 of each coloring as a point, solves for a recurrent
    proximal companion, runs the certified IP construction, and returns
    its certificate: ``generator.head`` is the witness, ``source`` the
    encoded point and ``target`` its companion.  Homogeneity of all suffix
    sums is verified by direct finite-sum evaluation first; a failure
    raises, since the construction is supposed to force it.
    """
    colorings = [validate_partition(c) for c in colorings]
    if not colorings:
        raise InputError("need at least one coloring")
    if any(len(c) != 2 for c in colorings):
        raise InputError("pipeline colorings must have exactly 2 classes")
    if terms < len(colorings):
        raise InputError("need at least one term per coloring")
    if terms > 16:
        raise InputError("witness capped at 16 terms")

    x = encode_point([c[0] for c in colorings])
    cert = ip_sequence_construct(x, ae_solve(x), count=terms)
    failures = verify_iht_witness(cert.generator.head, colorings)
    if failures:
        raise ConstructionError(
            "pipeline witness failed homogeneity audit: " + "; ".join(failures)
        )
    return cert
