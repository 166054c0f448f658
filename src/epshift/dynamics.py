"""The shift system on stacks of eventually periodic binary sequences.

A :class:`SymbolicPoint` is a finite stack of coordinates, each an
eventually periodic 0/1 sequence represented by the same (preperiod,
period) words as :class:`~epshift.epcore.EpSet` but read as raw symbols
rather than membership.  The shift drops the first symbol of every
coordinate.  Distances are exact dyadic exponents: d(x, y) = 2**-e where
e is the least i + (first disagreement of coordinate i), so every ball is
a clopen cylinder and every epsilon argument becomes finite bookkeeping.

Everything here is decided exactly.  Disagreement of two eventually
periodic sequences is decidable by comparing one preperiod-plus-lcm
window; uniform recurrence degenerates to "every coordinate is purely
periodic"; proximality degenerates to "the points agree from the
preperiod join onward".  The certificate constructions re-derive those
facts from windows rather than trusting the characterizations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .epcore import Algebra, ConstructionError, EpSet, InputError, LiteralError

__all__ = [
    "AetPairError",
    "BlockCode",
    "Cylinder",
    "ProximalityReport",
    "SymbolicPoint",
    "UrReport",
    "ae_solve",
    "apply_block_code",
    "are_proximal",
    "covering_bound",
    "distance_exponent",
    "eaet_extend",
    "eaet_prime",
    "encode_point",
    "is_uniformly_recurrent",
    "orbit_closure",
    "shift",
    "stack_points",
]

# Coordinates reuse the EpSet machinery with raw-symbol semantics.
Word = EpSet


class AetPairError(InputError):
    """A pair offered as (point, recurrent proximal companion) fails a check."""


@dataclass(frozen=True)
class SymbolicPoint:
    """A point of the product shift system, truncated to tracked coordinates."""

    coords: tuple[Word, ...]

    def __post_init__(self) -> None:
        coords = tuple(self.coords)
        if not coords:
            raise InputError("a point needs at least one coordinate")
        if not all(isinstance(c, EpSet) for c in coords):
            raise InputError("coordinates must be eventually periodic words")
        object.__setattr__(self, "coords", coords)

    @classmethod
    def parse(cls, text: str) -> "SymbolicPoint":
        """Parse a semicolon-separated stack literal like ``1(10);(0011)``."""
        return cls(tuple(EpSet.parse(part) for part in text.split(";")))

    @property
    def literal(self) -> str:
        return ";".join(c.literal for c in self.coords)

    def __str__(self) -> str:
        return self.literal

    @property
    def coord_count(self) -> int:
        return len(self.coords)

    @property
    def max_preperiod(self) -> int:
        return max(len(c.pre) for c in self.coords)

    @property
    def lcm_period(self) -> int:
        return math.lcm(*(len(c.per) for c in self.coords))

    def shift(self, n: int) -> "SymbolicPoint":
        return SymbolicPoint(tuple(c.translate_down(n) for c in self.coords))


def stack_points(*points: SymbolicPoint) -> SymbolicPoint:
    """Concatenate the coordinate stacks of several points into one."""
    coords: tuple[Word, ...] = ()
    for p in points:
        coords += p.coords
    return SymbolicPoint(coords)


def shift(x: SymbolicPoint, n: int) -> SymbolicPoint:
    """Apply the shift n times: result_i(k) = x_i(k + n)."""
    return x.shift(n)


def _first_disagreement(u: Word, v: Word) -> int | None:
    horizon = max(len(u.pre), len(v.pre)) + math.lcm(len(u.per), len(v.per))
    a = u.window(0, horizon)
    b = v.window(0, horizon)
    if a == b:
        return None
    for j in range(horizon):
        if a[j] != b[j]:
            return j
    raise AssertionError("unequal windows disagree somewhere")


def distance_exponent(x: SymbolicPoint, y: SymbolicPoint) -> int | float:
    """The exponent e with d(x, y) = 2**-e; math.inf iff the points are equal.

    e = min over coordinates i of (i + first position where x_i and y_i
    disagree).  Coordinate i cannot push the minimum below i, which is what
    makes finitely many coordinates determine any finite resolution.
    """
    if x.coord_count != y.coord_count:
        raise InputError("points live in products of different sizes")
    best: int | float = math.inf
    for i, (u, v) in enumerate(zip(x.coords, y.coords)):
        if i >= best:
            break
        d = _first_disagreement(u, v)
        if d is not None and i + d < best:
            best = i + d
    return best


def encode_point(sets) -> SymbolicPoint:
    """Code a family of sets as a point: coordinate i reads 0 at n iff n is
    in the i-th set (the indicator convention with 0 marking membership)."""
    items = sets.members if isinstance(sets, Algebra) else tuple(sets)
    if not items:
        raise InputError("cannot encode an empty family")
    return SymbolicPoint(tuple(a.complement() for a in items))


# -- recurrence -------------------------------------------------------------


@dataclass(frozen=True)
class UrReport:
    """Exact uniform-recurrence verdict with certificate.

    Positive: ``gaps`` lists, for each resolution k, the maximal difference
    between consecutive return times of {n : d(T^n x, x) <= 2**-k}.
    Negative: coordinate ``coord`` starts with ``word``, which occurs only
    at the finitely many listed positions, so fine returns are not syndetic.
    """

    recurrent: bool
    gaps: tuple[tuple[int, int], ...] | None = None
    coord: int | None = None
    word: str | None = None
    occurrences: tuple[int, ...] | None = None


def _cyclic_gap(positions: list[int], modulus: int) -> int:
    if len(positions) == 1:
        return modulus
    diffs = [b - a for a, b in zip(positions, positions[1:])]
    diffs.append(positions[0] + modulus - positions[-1])
    return max(diffs)


def is_uniformly_recurrent(x: SymbolicPoint) -> UrReport:
    """Decide uniform recurrence exactly.

    An eventually periodic stack is uniformly recurrent iff every canonical
    coordinate preperiod is empty.  For a purely periodic stack the return
    times at any resolution are a union of residue classes mod the stack
    period, and the certificate reports their exact gap bounds for every
    resolution up to coordinate count + period.  Otherwise some coordinate
    has a nonempty preperiod, and the shortest prefix of it that never
    recurs past the preperiod witnesses the failure.
    """
    if all(not c.pre for c in x.coords):
        period = x.lcm_period
        top = x.coord_count + period
        # first disagreement of each coordinate against each of its rotations
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
                bound_cache[cut] = _cyclic_gap(returns, period)
            gaps.append((k, bound_cache[cut]))
        return UrReport(recurrent=True, gaps=tuple(gaps))

    i = next(j for j, c in enumerate(x.coords) if c.pre)
    u = x.coords[i]
    m, p = len(u.pre), len(u.per)
    w = u.window(0, 2 * (m + p))
    for length in range(1, m + p + 1):
        prefix = w[:length]
        if all(w[n:n + length] != prefix for n in range(m, m + p)):
            occ = tuple(n for n in range(m) if w[n:n + length] == prefix)
            return UrReport(recurrent=False, coord=i, word=prefix, occurrences=occ)
    # A canonical nonempty preperiod guarantees the loop above exits: the
    # length m+p prefix occurring at any n >= m would force the last
    # preperiod bit to equal the last period bit.
    raise ConstructionError("no finitely occurring prefix found for a non-periodic coordinate")


# -- proximality ------------------------------------------------------------


@dataclass(frozen=True)
class ProximalityReport:
    """Exact proximality verdict.

    Positive: the orbits agree exactly from offset ``witness`` on (the pair
    is asymptotic, which for eventually periodic stacks coincides with
    proximal).  Negative: d(T^n x, T^n y) >= 2**-``exponent`` for every n
    past the preperiods, so the orbits stay apart forever.
    """

    proximal: bool
    witness: int | None = None
    exponent: int | None = None


def are_proximal(x: SymbolicPoint, y: SymbolicPoint) -> ProximalityReport:
    if x.coord_count != y.coord_count:
        raise InputError("points live in products of different sizes")
    join = max(x.max_preperiod, y.max_preperiod)
    if x.shift(join) == y.shift(join):
        return ProximalityReport(proximal=True, witness=join)
    # beyond the join both points are periodic, so the disagreement pattern
    # repeats with the joint period; its worst exponent bounds all offsets
    period = math.lcm(*(len(c.per) for c in x.coords + y.coords))
    worst = max(
        distance_exponent(x.shift(n), y.shift(n))
        for n in range(join, join + period)
    )
    return ProximalityReport(proximal=False, exponent=int(worst))


# -- constructive solvers ---------------------------------------------------


def ae_solve(x: SymbolicPoint) -> SymbolicPoint:
    """Produce a uniformly recurrent point proximal to ``x``.

    Each coordinate's periodic tail is extended backwards through the
    preperiod at its own phase, anchored at absolute position 0, so the
    output is purely periodic and agrees with ``x`` from the preperiod
    join onward.  For eventually periodic stacks this solution is unique.
    """
    out = []
    for u in x.coords:
        m, p = len(u.pre), len(u.per)
        s = (-m) % p
        out.append(EpSet("", u.per[s:] + u.per[:s]))
    return SymbolicPoint(tuple(out))


def require_aet_pair(x: SymbolicPoint, y: SymbolicPoint) -> None:
    """Check that ``y`` solves the recurrent-proximal-companion problem for
    ``x``; raise :class:`AetPairError` naming the failed check otherwise."""
    if x.coord_count != y.coord_count:
        raise AetPairError("pair check failed: coordinate counts differ")
    if not is_uniformly_recurrent(y).recurrent:
        raise AetPairError("pair check failed: y is not uniformly recurrent")
    if not are_proximal(x, y).proximal:
        raise AetPairError("pair check failed: x and y are not proximal")


def eaet_extend(x1: SymbolicPoint, y1: SymbolicPoint, x2: SymbolicPoint) -> SymbolicPoint:
    """Extend a verified solution pair (x1, y1) by a further point.

    Returns y2 such that the stack (y1, y2) is uniformly recurrent and the
    stacked pairs (x1, x2) and (y1, y2) are proximal.  Both properties hold
    because y2 is asymptotic to x2 and purely periodic, and stacking
    preserves both.
    """
    require_aet_pair(x1, y1)
    return ae_solve(x2)


def eaet_prime(t0: SymbolicPoint, codes) -> list[SymbolicPoint]:
    """Solve the chained extension problem along continuous maps.

    ``codes[i]`` must take i+1 input points; the solutions are fed back in:
    y0 solves for t0, then y_{i+1} solves for codes[i](y0, ..., y_i) in the
    product with everything built so far.  Returns [y0, ..., y_n].
    """
    codes = tuple(codes)
    xs = [t0]
    ys = [ae_solve(t0)]
    for i, code in enumerate(codes):
        if code.arity != i + 1:
            raise InputError(
                f"code {i} takes {code.arity} points, expected {i + 1}"
            )
        x_next = apply_block_code(code, ys)
        y_next = eaet_extend(stack_points(*xs), stack_points(*ys), x_next)
        xs.append(x_next)
        ys.append(y_next)
    return ys


# -- orbits and cylinders ---------------------------------------------------


def orbit_closure(y: SymbolicPoint) -> list[SymbolicPoint]:
    """All shift images of ``y``, deduplicated in first-visit order.

    For an eventually periodic stack the orbit closure is finite: the
    transient shifts below the preperiod bound plus one full period cycle.
    """
    seen: set[SymbolicPoint] = set()
    out: list[SymbolicPoint] = []
    for n in range(y.max_preperiod + y.lcm_period):
        z = y.shift(n)
        if z not in seen:
            seen.add(z)
            out.append(z)
    return out


@dataclass(frozen=True)
class Cylinder:
    """The clopen set of points agreeing with ``reference`` on coordinates
    below ``coord_depth`` at positions below ``pos_depth``.

    Depth 0 in either direction denotes the whole space.  A cylinder always
    contains its reference, so it is never empty.
    """

    reference: SymbolicPoint
    coord_depth: int
    pos_depth: int

    def __post_init__(self) -> None:
        if not isinstance(self.reference, SymbolicPoint):
            raise InputError("cylinder reference must be a point")
        if not (0 <= self.coord_depth <= self.reference.coord_count):
            raise InputError("coordinate depth out of range")
        if self.pos_depth < 0:
            raise InputError("position depth must be a natural number")

    @property
    def trivial(self) -> bool:
        return self.coord_depth == 0 or self.pos_depth == 0

    def contains(self, z: SymbolicPoint, n: int = 0) -> bool:
        """Whether T^n z lies in the cylinder, read off z's windows at
        positions n .. n+pos_depth-1 without building the shifted point."""
        if z.coord_count != self.reference.coord_count:
            raise InputError("points live in products of different sizes")
        if n < 0:
            raise InputError("shift count must be a natural number")
        k = self.pos_depth
        return all(
            z.coords[j].window(n, n + k) == self.reference.coords[j].window(0, k)
            for j in range(self.coord_depth)
        )

    def subset_of(self, other: "Cylinder") -> bool:
        return self.shift_image_subset(0, other)

    def shift_image_subset(self, n: int, target: "Cylinder") -> bool:
        """Whether T^n maps this cylinder into ``target``.

        A point of this cylinder is free outside its own constraints, so
        T^n U ⊆ V exactly when V's constraints (coordinates below its
        coordinate depth, positions below its position depth) sit inside
        U's shifted by n, and T^n of U's reference lies in V.  The depth
        checks below are the first condition; ``target.contains`` is the
        second.
        """
        if n < 0:
            raise InputError("shift count must be a natural number")
        if target.trivial:
            return True
        if self.trivial:
            return False
        if target.coord_depth > self.coord_depth:
            return False
        if target.pos_depth + n > self.pos_depth:
            return False
        return target.contains(self.reference, n)

    def within_ball(self, y: SymbolicPoint, k: int) -> bool:
        """Whether every point of the cylinder is 2**-k-close to ``y``,
        i.e. has distance exponent >= k."""
        if y.coord_count != self.reference.coord_count:
            raise InputError("points live in products of different sizes")
        for i in range(min(y.coord_count, k)):
            depth = k - i
            if i >= self.coord_depth or self.pos_depth < depth:
                return False
            if (
                self.reference.coords[i].window(0, depth)
                != y.coords[i].window(0, depth)
            ):
                return False
        return True


def covering_bound(y: SymbolicPoint, u: Cylinder) -> int:
    """The least m such that every orbit-closure point of ``y`` enters the
    cylinder ``u`` within m shifts."""
    if not is_uniformly_recurrent(y).recurrent:
        raise InputError("covering bounds need a uniformly recurrent point")
    orbit = orbit_closure(y)
    period = y.lcm_period
    entries = []
    for z in orbit:
        n = next((n for n in range(period) if u.contains(z, n)), None)
        if n is None:
            listing = ", ".join(p.literal for p in orbit)
            raise InputError(
                f"cylinder misses the whole orbit closure: {listing}"
            )
        entries.append(n)
    return max(entries)


# -- block codes ------------------------------------------------------------


@dataclass(frozen=True)
class BlockCode:
    """A sliding local rule: a continuous shift-commuting map.

    Output symbol j at position n is ``table[pattern][j]`` where pattern
    packs the input symbols at positions n .. n+window-1 of every
    coordinate of every input point, ordered input-point major, then
    coordinate, then offset, most significant bit first.
    """

    arity: int
    window: int
    coords: int
    table: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.arity < 1 or self.window < 1 or self.coords < 1:
            raise InputError("block code dimensions must be positive")
        bits = self.arity * self.coords * self.window
        if bits > 16:
            raise InputError("block code reads too many symbols (limit 16)")
        table = tuple(self.table)
        if len(table) != 1 << bits:
            raise InputError(
                f"table needs {1 << bits} rows for {bits} input symbols"
            )
        for row in table:
            if len(row) != self.coords or set(row) - {"0", "1"}:
                raise InputError("each table row is one output symbol per coordinate")
        object.__setattr__(self, "table", table)

    @classmethod
    def parse(cls, text: str) -> "BlockCode":
        """Parse ``arity:window:coords:bits`` with bits row-major, e.g. the
        one-coordinate identity is ``1:1:1:01``."""
        bad = LiteralError(
            f"bad block code literal {text!r}: expected arity:window:coords:tablebits"
        )
        parts = text.split(":")
        if len(parts) != 4:
            raise bad
        try:
            a, w, c = (int(p) for p in parts[:3])
        except ValueError:
            raise bad from None
        bits = parts[3]
        if a < 1 or w < 1 or c < 1 or not bits or set(bits) - {"0", "1"}:
            raise bad
        if a * c * w > 16 or len(bits) != c * (1 << (a * c * w)):
            raise bad
        table = tuple(bits[i * c:(i + 1) * c] for i in range(1 << (a * c * w)))
        return cls(a, w, c, table)

    @property
    def literal(self) -> str:
        return f"{self.arity}:{self.window}:{self.coords}:{''.join(self.table)}"


def apply_block_code(code: BlockCode, inputs) -> SymbolicPoint:
    """Evaluate a block code on eventually periodic inputs exactly.

    The output is computed over one preperiod-plus-lcm window and is
    eventually periodic with preperiod at most the longest input preperiod
    and period dividing the lcm of the input periods.
    """
    pts = tuple(inputs)
    if len(pts) != code.arity:
        raise InputError(f"code takes {code.arity} points, got {len(pts)}")
    c = code.coords
    if any(p.coord_count != c for p in pts):
        raise InputError(f"code expects {c}-coordinate points")
    m = max(len(u.pre) for p in pts for u in p.coords)
    period = math.lcm(*(len(u.per) for p in pts for u in p.coords))
    horizon = m + period
    w = code.window
    views = [[u.window(0, horizon + w) for u in p.coords] for p in pts]
    outs: list[list[str]] = [[] for _ in range(c)]
    for n in range(horizon):
        pattern = int(
            "".join(views[a][j][n:n + w] for a in range(code.arity) for j in range(c)),
            2,
        )
        row = code.table[pattern]
        for j in range(c):
            outs[j].append(row[j])
    coords = tuple(
        EpSet("".join(o[:m]), "".join(o[m:])) for o in outs
    )
    return SymbolicPoint(coords)
