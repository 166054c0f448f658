"""The shift system on stacks of eventually periodic binary sequences.

A :class:`SymbolicPoint` is a finite stack of coordinates, each an
eventually periodic 0/1 sequence represented by the same (preperiod,
period) words as :class:`~epshift.epcore.EpSet` but read as raw symbols
rather than membership.  The shift drops the first symbol of every
coordinate.  Distances are exact dyadic exponents: d(x, y) = 2**-e where
e is the least i + (first disagreement of coordinate i), so every ball is
a clopen cylinder and every epsilon argument becomes finite bookkeeping.

Everything here is decided exactly.  Past both preperiods, two shifted
sequences of one period are compared, and scanned, on their residue words
rotated by the offsets; other pairs are read on a preperiod-plus-lcm
window.  Uniform recurrence degenerates to "every
coordinate is purely periodic"; proximality degenerates to "every
coordinate pair has one residue word" (agreement past the preperiods).
Both deciders return the verdict and its certificate as the JSON object
the CLI prints.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import accumulate

from .epcore import EpSet, InputError, LiteralError, _canonical

__all__ = [
    "AetPairError",
    "BlockCode",
    "SymbolicPoint",
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
]


class AetPairError(InputError):
    """A pair offered as (point, recurrent proximal companion) fails a check."""


@dataclass(frozen=True)
class SymbolicPoint:
    """A point of the product shift system, truncated to tracked coordinates."""

    coords: tuple[EpSet, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.coords, Iterable):
            raise InputError("a point's coordinates must be a sequence of words")
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
        return math.lcm(*(len(c.res) for c in self.coords))


def shift(x: SymbolicPoint, n: int) -> SymbolicPoint:
    """Apply the shift n times: result_i(k) = x_i(k + n)."""
    return SymbolicPoint(tuple(c.translate_down(n) for c in x.coords))


def _first_disagreement(u: EpSet, v: EpSet, n: int = 0, m: int = 0) -> int | None:
    """The least j with u(n + j) != v(m + j), or None when T^n u = T^m v.

    Past both preperiods, words of one period p are their residue words
    rotated by n and by m, which repeat with period p, so those two words
    are compared and scanned.  Otherwise the first disagreement lies in the
    window of the preperiod join plus the lcm period, past which both
    repeat, and that window is read.
    """
    a, b, p = len(u.pre), len(v.pre), len(u.res)
    if n >= a and m >= b and p == len(v.res):
        i, k = n % p, m % p
        s, t = u.res[i:] + u.res[:i], v.res[k:] + v.res[:k]
    else:
        horizon = max(a - n, b - m, 0) + math.lcm(p, len(v.res))
        s, t = u.window(n, n + horizon), v.window(m, m + horizon)
    if s == t:
        return None
    return next(j for j in range(len(s)) if s[j] != t[j])


def _agreement_profile(z: SymbolicPoint, y: SymbolicPoint, n: int, depth: int) -> list:
    """Entry c: the least first disagreement of T^n z_j with y_j over j < c.
    T^n z lies in the cylinder around y with depths (c, k) iff it is >= k."""
    ds = (_first_disagreement(u, v, n) for u, v in zip(z.coords[:depth], y.coords))
    return list(accumulate((math.inf if d is None else d for d in ds), min, initial=math.inf))


def distance_exponent(
    x: SymbolicPoint, y: SymbolicPoint, n: int = 0, m: int = 0
) -> int | float:
    """The exponent e with d(T^n x, T^m y) = 2**-e; math.inf iff the
    shifted points are equal.

    e = min over coordinates i of (i + first position where the shifted
    x_i and y_i disagree).  Coordinate i cannot push the minimum below i,
    which is what makes finitely many coordinates determine any finite
    resolution.
    """
    if x.coord_count != y.coord_count:
        raise InputError("points live in products of different sizes")
    best: int | float = math.inf
    for i, (u, v) in enumerate(zip(x.coords, y.coords)):
        if i >= best:
            break
        d = _first_disagreement(u, v, n, m)
        if d is not None and i + d < best:
            best = i + d
    return best


def encode_point(sets) -> SymbolicPoint:
    """Code a family of sets, in order, as a point: coordinate i reads 0 at
    n iff n is in the i-th set (the indicator convention, 0 marking membership)."""
    return SymbolicPoint(tuple(a.complement() for a in sets))


# -- recurrence -------------------------------------------------------------


def _recurrent(x: SymbolicPoint) -> bool:
    """An eventually periodic stack is uniformly recurrent iff every
    canonical coordinate preperiod is empty."""
    return x.max_preperiod == 0


def is_uniformly_recurrent(x: SymbolicPoint) -> dict:
    """Decide uniform recurrence exactly (the rule is ``_recurrent``); return
    the verdict and its certificate as the JSON object ``dyn ur`` prints.

    Positive, ``{"recurrent": true, "gaps": [[k, gap], ...]}``: for each
    resolution k, the maximal difference between consecutive return times
    of {n : d(T^n x, x) <= 2**-k}.  For a purely periodic stack they are a
    union of residue classes mod the stack period, so each gap is one more
    than the syndeticity bound of the return set, reported for every
    resolution up to coordinate count + period.
    Negative, ``{"recurrent": false, "coord": i, "word": w, "occurrences":
    [n, ...]}``: coordinate i starts with w, which occurs only at the listed
    positions, so fine returns are not syndetic.  That coordinate u, of
    preperiod m and period p, first disagrees with T^n u at some j_n for
    every n >= m.  Its prefix of length 1 + max(j_n : m <= n < m + p) is the
    shortest that never recurs past m; it occurs at the n < m where u and
    T^n u agree that far.
    """
    if _recurrent(x):
        period = x.lcm_period
        exps = [math.inf] + [distance_exponent(x, x, n) for n in range(1, period)]
        levels = set(exps)
        gap = 1  # at resolution 0 every offset returns
        gaps = []
        for k in range(1, x.coord_count + period + 1):
            # the returns {n : exps[n] >= k} shrink only past an exponent k - 1
            if k - 1 in levels:
                word = "".join("1" if e >= k else "0" for e in exps)
                gap = EpSet("", word).is_syndetic().bound + 1
            gaps.append([k, gap])
        return {"recurrent": True, "gaps": gaps}

    i = next(j for j, c in enumerate(x.coords) if c.pre)
    u = x.coords[i]
    m, p = len(u.pre), len(u.res)
    length = 1 + max(_first_disagreement(u, u, n) for n in range(m, m + p))
    ds = (_first_disagreement(u, u, n) for n in range(m))
    occ = [n for n, d in enumerate(ds) if d is None or d >= length]
    return {"recurrent": False, "coord": i, "word": u.window(0, length), "occurrences": occ}


# -- proximality ------------------------------------------------------------


def _proximal(x: SymbolicPoint, y: SymbolicPoint) -> bool:
    """Stacks are proximal iff they agree past both preperiods, where T^J u =
    T^J v exactly when the residue words are one word, for any J."""
    return [u.res for u in x.coords] == [v.res for v in y.coords]


def are_proximal(x: SymbolicPoint, y: SymbolicPoint) -> dict:
    """Decide proximality exactly (the rule is ``_proximal``); return the
    verdict as the JSON object ``dyn proximal`` prints.

    Positive, ``{"proximal": true, "witness": J}``: the orbits agree exactly
    from the preperiod join J on (the pair is asymptotic, which for
    eventually periodic stacks coincides with proximal).  Negative,
    ``{"proximal": false, "exponent": e}``: d(T^n x, T^n y) >= 2**-e for
    every n past the preperiods, e the worst exponent over one joint period,
    so the orbits stay apart forever.
    """
    join = max(x.max_preperiod, y.max_preperiod)
    if _proximal(x, y):
        return {"proximal": True, "witness": join}
    # beyond the join both points are periodic, so the disagreement pattern
    # repeats with the joint period; its worst exponent bounds all offsets
    period = math.lcm(x.lcm_period, y.lcm_period)
    worst = max(distance_exponent(x, y, n, n) for n in range(join, join + period))
    return {"proximal": False, "exponent": int(worst)}


# -- constructive solvers ---------------------------------------------------


def ae_solve(x: SymbolicPoint) -> SymbolicPoint:
    """Produce a uniformly recurrent point proximal to ``x``.

    Each coordinate becomes its residue word, its periodic tail extended
    backwards through the preperiod at its own phase, so the output is
    purely periodic and agrees with ``x`` from the preperiod join onward.
    For eventually periodic stacks this solution is unique.  A residue word
    is primitive, so it is already canonical.
    """
    return SymbolicPoint(tuple(_canonical("", u.res) for u in x.coords))


def require_aet_pair(x: SymbolicPoint, y: SymbolicPoint) -> None:
    """Check that ``y`` solves the recurrent-proximal-companion problem for
    ``x``; raise :class:`AetPairError` naming the failed check otherwise."""
    if x.coord_count != y.coord_count:
        raise AetPairError("pair check failed: coordinate counts differ")
    if not _recurrent(y):
        raise AetPairError("pair check failed: y is not uniformly recurrent")
    if not _proximal(x, y):
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
    product with everything built so far.  Returns [y0, ..., y_n].  Both
    pair checks are coordinatewise (``_recurrent``, ``_proximal``), so the
    stacked pairs hold exactly when each pair (x_i, y_i) does, and each is
    checked once, the last included.
    """
    x = t0
    ys = [ae_solve(t0)]
    for i, code in enumerate(codes):
        if code.arity != i + 1:
            raise InputError(
                f"code {i} takes {code.arity} points, expected {i + 1}"
            )
        x_next = apply_block_code(code, ys)
        ys.append(eaet_extend(x, ys[-1], x_next))
        x = x_next
    require_aet_pair(x, ys[-1])
    return ys


# -- orbits and covering bounds ---------------------------------------------


def orbit_closure(y: SymbolicPoint) -> list[SymbolicPoint]:
    """All shift images of ``y``, in first-visit order.

    For an eventually periodic stack the orbit closure is finite: the
    transient shifts below the preperiod join plus one full period cycle.
    These are pairwise distinct, since coordinates are canonical: below
    the join the longest coordinate preperiod shrinks strictly, and past
    it the periods are primitive, so T^n y = T^m y needs lcm | m - n.
    """
    return [shift(y, n) for n in range(y.max_preperiod + y.lcm_period)]


def _check_depths(point: SymbolicPoint, pairs) -> None:
    """Raise unless each (coord depth, pos depth) pair names a cylinder
    around ``point``: the points agreeing with it on the coordinates below
    the first depth at the positions below the second.  Depth 0 in either
    direction is the whole space."""
    for c, k in pairs:
        if not 0 <= c <= point.coord_count:
            raise InputError("coordinate depth out of range")
        if k < 0:
            raise InputError("position depth must be a natural number")


def covering_bound(
    y: SymbolicPoint, reference: SymbolicPoint, coord_depth: int, pos_depth: int
) -> int:
    """The least m such that every orbit-closure point of ``y`` enters the
    cylinder of depths (``coord_depth``, ``pos_depth``) around ``reference``
    within m shifts: the syndeticity bound of the hitting times
    {t : T^t y in the cylinder}.  T^t y is a hit when its agreement profile
    with the reference reaches the position depth."""
    _check_depths(reference, [(coord_depth, pos_depth)])
    if not _recurrent(y):
        raise InputError("covering bounds need a uniformly recurrent point")
    if y.coord_count != reference.coord_count:
        raise InputError("points live in products of different sizes")
    # y is purely periodic, so its orbit closure is T^s y for s < period and
    # the hitting times repeat with that period
    hits = "".join(
        "1" if _agreement_profile(y, reference, t, coord_depth)[-1] >= pos_depth else "0"
        for t in range(y.lcm_period)
    )
    bound = EpSet("", hits).is_syndetic().bound
    if bound is None:
        raise InputError(
            f"cylinder of depths ({coord_depth}, {pos_depth}) misses the whole"
            f" orbit closure of {y.literal}"
        )
    return bound


# -- block codes ------------------------------------------------------------


@dataclass(frozen=True)
class BlockCode:
    """A sliding local rule: a continuous shift-commuting map.

    Output symbol j at position n is ``bits[pattern * coords + j]`` where
    pattern packs the input symbols at positions n .. n+window-1 of every
    coordinate of every input point, ordered input-point major, then
    coordinate, then offset, most significant bit first.
    """

    arity: int
    window: int
    coords: int
    bits: str

    def __post_init__(self) -> None:
        # a bool, float or str dimension is refused, not coerced
        if {type(self.arity), type(self.window), type(self.coords)} - {int}:
            raise InputError("block code dimensions must be ints")
        if self.arity < 1 or self.window < 1 or self.coords < 1:
            raise InputError("block code dimensions must be positive")
        reads = self.arity * self.coords * self.window
        if reads > 16:
            raise InputError("block code reads too many symbols (limit 16)")
        bits = self.bits
        if type(bits) is not str or len(bits) != self.coords << reads or set(bits) - {"0", "1"}:
            raise InputError(f"block code needs {self.coords << reads} bits 0/1 for {reads} reads")

    @classmethod
    def parse(cls, text: str) -> "BlockCode":
        """Parse ``arity:window:coords:bits`` with bits row-major, e.g. the
        one-coordinate identity is ``1:1:1:01``."""
        try:
            a, w, c, bits = text.split(":")
            # int() would also take a sign, spaces, underscores and non-ASCII digits
            if not all(f.isascii() and f.isdigit() for f in (a, w, c)):
                raise ValueError
            return cls(int(a), int(w), int(c), bits)
        except ValueError:  # four parts, three naturals, and the constructor's checks
            raise LiteralError(
                f"bad block code literal {text!r}: expected arity:window:coords:tablebits"
            ) from None

    @property
    def literal(self) -> str:
        return f"{self.arity}:{self.window}:{self.coords}:{self.bits}"


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
    period = math.lcm(*(len(u.res) for p in pts for u in p.coords))
    horizon = m + period
    w = code.window
    views = [[u.window(0, horizon + w) for u in p.coords] for p in pts]
    outs: list[list[str]] = [[] for _ in range(c)]
    for n in range(horizon):
        pattern = int(
            "".join(views[a][j][n:n + w] for a in range(code.arity) for j in range(c)),
            2,
        )
        for j in range(c):
            outs[j].append(code.bits[pattern * c + j])
    coords = tuple(
        EpSet("".join(o[:m]), "".join(o[m:])) for o in outs
    )
    return SymbolicPoint(coords)
