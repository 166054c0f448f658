"""Test oracles and fixtures that more than one test module uses.

Each is defined once, here; a test module imports it from this module and
never from another test module.

The library builds algebras from atoms and never combines two sets
pointwise, so complement (``flip``), union, intersection and inclusion
live here: each reads its sets on one window of their preperiod join
plus their lcm period, past which they repeat.  ``brute_closure``
closes sets under them.  The library never stacks two points either, so
``stack_points`` lives here for the stacked-extension oracles.  The
benchmark's pinned cases are read through its own loader.
"""

from __future__ import annotations

import math
import sys
from itertools import product
from pathlib import Path

from epshift.dynamics import BlockCode, SymbolicPoint, distance_exponent, shift
from epshift.epcore import CapacityError, EpSet, InputError
from epshift.ipcore import IpConstructionCertificate, IpGenerator

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402  (perfbench/workloads.py)

EVENS = EpSet.parse("(10)")
ODDS = EpSet.parse("(01)")


def pt(text: str) -> SymbolicPoint:
    return SymbolicPoint.parse(text)


def canonical_sets(max_pre: int, max_per: int) -> list[EpSet]:
    """Every canonical set with preperiod <= max_pre and period <= max_per,
    in literal order."""
    return sorted(
        {
            EpSet(w[:m], w[m:])
            for m in range(max_pre + 1)
            for p in range(1, max_per + 1)
            for w in map("".join, product("01", repeat=m + p))
        },
        key=lambda x: x.literal,
    )


def outcome(f, *args):
    """What ``f(*args)`` returns, or the type and message of the
    ``InputError`` it raises."""
    try:
        return f(*args)
    except InputError as exc:
        return f"{type(exc).__name__}: {exc}"


# -- sets -------------------------------------------------------------------


def raw_bit(pre: str, per: str, n: int) -> str:
    """Oracle: bit n of the words (pre, per) expanded literally.  No phase
    arithmetic, no canonicalization; the library must agree with this on
    any window."""
    if n < len(pre):
        return pre[n]
    return per[(n - len(pre)) % len(per)]


def pointwise(fn, *xs: EpSet) -> EpSet:
    m = max(len(x.pre) for x in xs)
    p = math.lcm(*(len(x.per) for x in xs))
    ws = [x.window(0, m + p) for x in xs]
    bits = "".join(fn(*col) for col in zip(*ws))
    return EpSet(bits[:m], bits[m:])


def flip(x: EpSet) -> EpSet:
    return pointwise(lambda b: "0" if b == "1" else "1", x)


def union(a: EpSet, b: EpSet) -> EpSet:
    return pointwise(lambda s, t: "1" if "1" in (s, t) else "0", a, b)


def intersect(a: EpSet, b: EpSet) -> EpSet:
    return pointwise(lambda s, t: "1" if s == t == "1" else "0", a, b)


def issubset(a: EpSet, b: EpSet) -> bool:
    return intersect(a, b) == a


def first_member_at_least(x: EpSet, n: int) -> int | None:
    """The least member of ``x`` that is ``>= n``, or None when there is
    none: past ``max(n, preperiod)`` one period holds every residue."""
    m, p = len(x.pre), len(x.per)
    i = x.window(n, max(n, m) + p).find("1")
    return None if i < 0 else n + i


def brute_closure(gens, downward: bool, cap: int = 65536) -> list[EpSet]:
    """Oracle: ``generate_algebra``'s members in literal order, with no set
    operation of the library.  Each generator, and when ``downward`` its
    translates X − n read off its window from n (those past its preperiod
    repeat with its period), closed under ``flip`` and ``union`` by a
    worklist.  Translation commutes with both, so no translate of a
    combination is new.  Past ``cap`` members it raises the library's
    refusal."""
    todo = []
    for x in gens:
        m, p = len(x.pre), len(x.res)
        for n in range(m + p if downward else 1):
            w = x.window(n, n + m + p)
            todo.append(EpSet(w[:m], w[m:]))
    members: list[EpSet] = []
    seen: set[EpSet] = set()
    while todo:
        x = todo.pop()
        if x not in seen:
            if len(seen) == cap:
                raise CapacityError(f"algebra closure exceeded the cap of {cap} members")
            todo += [flip(x)] + [union(x, y) for y in members]
            members.append(x)
            seen.add(x)
    return sorted(members, key=lambda x: x.literal)


def closed_form_member(x: EpSet) -> bool:
    """Oracle: X ∈ u for any idempotent u of (βℕ, +) on eventually periodic
    sets.  u holds one class A = pℕ + r, idempotency gives n ∈ A with
    A − n ∈ u, and A − n = pℕ; from the preperiod m on, X ∩ pℕ is all of
    pℕ or empty, so X ∈ u iff p·(m + 1) ∈ X.  No residue word, closure or
    dynamics."""
    return x.member(len(x.per) * (len(x.pre) + 1))


def periodic_part(x: EpSet) -> EpSet:
    """X − p·⌈m/p⌉, X's periodic part at phase 0: by the closed form,
    {n : X − n ∈ u} for any idempotent u."""
    p = len(x.per)
    return x.translate_down(p * -(-len(x.pre) // p))


# -- points -----------------------------------------------------------------


def stack_points(*points: SymbolicPoint) -> SymbolicPoint:
    """Concatenate the coordinate stacks of several points into one."""
    return SymbolicPoint(tuple(c for p in points for c in p.coords))


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


def brute_proximal(x: SymbolicPoint, y: SymbolicPoint) -> bool:
    """Oracle: some shift T^n with n up to the preperiod join plus twice
    the square of the joint period makes the points equal."""
    lcm = math.lcm(*(len(c.per) for c in x.coords + y.coords))
    top = max(x.max_preperiod, y.max_preperiod) + 2 * lcm * lcm
    return any(shift(x, n) == shift(y, n) for n in range(top + 1))


def window_block_code(code: BlockCode, inputs) -> SymbolicPoint:
    """Oracle for ``apply_block_code``: the output at n is row ``pattern`` of
    the code's bits, the pattern read off raw windows at n .. n + window - 1
    of each input coordinate, point major, most significant first.  Past the
    inputs' preperiod join m they repeat with their period lcm L, so the
    output does too, and its symbols below m + L are the whole point."""
    coords = [u for x in inputs for u in x.coords]
    m = max(len(u.pre) for u in coords)
    period = math.lcm(*(len(u.res) for u in coords))
    c, w = code.coords, code.window
    rows = [
        code.bits[c * int("".join(u.window(n, n + w) for u in coords), 2):][:c]
        for n in range(m + period)
    ]
    return SymbolicPoint(tuple(
        EpSet("".join(r[j] for r in rows[:m]), "".join(r[j] for r in rows[m:]))
        for j in range(c)
    ))


def whole_space(pair) -> bool:
    """A depth pair with 0 in either direction constrains nothing."""
    c, k = pair
    return c == 0 or k == 0


def window_subset_of(a: SymbolicPoint, u, b: SymbolicPoint, v) -> bool:
    """Oracle: U ⊆ V, for U the depth pair u around a and V the pair v
    around b, by its own comparison of the references' windows."""
    if whole_space(v):
        return True
    if whole_space(u):
        return False
    (uc, uk), (vc, vk) = u, v
    if vc > uc or vk > uk:
        return False
    return all(a.coords[j].window(0, vk) == b.coords[j].window(0, vk) for j in range(vc))


def window_shift_image_subset(a: SymbolicPoint, u, n: int, b: SymbolicPoint, v) -> bool:
    """Oracle: T^n U ⊆ V, for U the depth pair u around a and V the pair v
    around b, by its own comparison of the references' windows."""
    if whole_space(v):
        return True
    if whole_space(u):
        return False
    (uc, uk), (vc, vk) = u, v
    if vc > uc or vk + n > uk:
        return False
    return all(a.coords[j].window(n, n + vk) == b.coords[j].window(0, vk) for j in range(vc))


def window_contains(reference: SymbolicPoint, pair, z: SymbolicPoint, n: int) -> bool:
    """Oracle: T^n z lies in the cylinder of ``pair`` around ``reference``,
    by comparing windows as long as the position depth."""
    c, k = pair
    return all(z.coords[j].window(n, n + k) == reference.coords[j].window(0, k) for j in range(c))


def window_within_ball(reference: SymbolicPoint, pair, y: SymbolicPoint, k: int) -> bool:
    """Oracle: the cylinder of ``pair`` around ``reference`` lies in
    B(y, 2^-k), by comparing windows as long as each depth."""
    c, pos = pair
    for i in range(min(y.coord_count, k)):
        depth = k - i
        if i >= c or pos < depth:
            return False
        if reference.coords[i].window(0, depth) != y.coords[i].window(0, depth):
            return False
    return True


def window_replay(cert: IpConstructionCertificate) -> list[str]:
    """Oracle: the certificate replay with each depth pair read around y,
    every condition checked by the window oracles."""
    x, y = cert.source, cert.target
    pairs, terms = cert.neighborhoods, cert.generator.head
    if len(pairs) != len(terms) + 1:
        return [f"expected {len(terms) + 1} neighborhoods for {len(terms)} terms, got {len(pairs)}"]
    failures = []
    for i, n in enumerate(terms):
        u, v = pairs[i + 1], pairs[i]
        if not window_subset_of(y, u, y, v):
            failures.append(f"U_{i + 1} is not contained in U_{i}")
        if not window_shift_image_subset(y, u, n, y, v):
            failures.append(f"T^{n} U_{i + 1} is not contained in U_{i}")
        if not window_contains(y, u, x, n):
            failures.append(f"T^{n} x misses U_{i + 1}")
        if not window_contains(y, u, y, n):
            failures.append(f"T^{n} y misses U_{i + 1}")
    for i, u in enumerate(pairs):
        if not window_within_ball(y, u, y, i):
            failures.append(f"U_{i} is not inside the 2^-{i} ball at y")
    return failures


# -- generators -------------------------------------------------------------


def residue_cycle(g: IpGenerator, p: int) -> tuple[int, ...]:
    """Oracle: the cycle of the residues (n_i mod p) from the last head
    term, n_{L-1+j} ≡ cycle[j mod len] (mod p) for all j >= 0.

    The walk step (j, r) → (j+1 mod k, r + d_j mod p) on (position in the
    diff cycle, current residue) is a bijection of a finite set, so the
    walk from the last head term is a pure cycle, which ends when the first
    state comes back.
    """
    diffs = g.tail_diffs
    first = (0, g.head[-1] % p)
    state, cycle = first, []
    while not cycle or state != first:
        j, r = state
        cycle.append(r)
        state = ((j + 1) % len(diffs), (r + diffs[j]) % p)
    return tuple(cycle)


# -- the benchmark's pinned cases -------------------------------------------


def pinned_cases(workload: str) -> list[tuple[str, dict]]:
    """(id, case) for every case ``perfbench/pins.json`` pins for
    ``workload``, stratum by stratum in pin order, read through the
    benchmark's own loader and never written; the id is
    ``stratum-index``."""
    return [
        (f"{stratum}-{i}", case)
        for stratum, pool in workloads.load_pins()[workload].items()
        for i, case in enumerate(pool)
    ]


def pinned_run(workload: str, case: dict) -> tuple[object, bool]:
    """(summary, verified) of one pinned case run through its workload's own
    run, summary and verify; a passing case gives ``(case["expect"], True)``."""
    run, summary, verify, _ = workloads.WORKLOADS[workload]
    raw = run(case)
    return summary(raw), verify(case, raw)
