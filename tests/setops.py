"""Test oracles for the boolean operations on EpSet values.

The library builds algebras from atoms and never combines two sets
pointwise, so union, intersection and inclusion live here: each reads both
sets on one window of their preperiod join plus their lcm period, past
which both repeat.  The least member at or past a position is read off
one window the same way.  The library never stacks two points either, so
``stack_points`` lives here for the stacked-extension oracles.
"""

from __future__ import annotations

import math

from epshift.dynamics import SymbolicPoint
from epshift.epcore import EpSet


def pointwise(fn, *xs: EpSet) -> EpSet:
    m = max(len(x.pre) for x in xs)
    p = math.lcm(*(len(x.per) for x in xs))
    ws = [x.window(0, m + p) for x in xs]
    bits = "".join(fn(*col) for col in zip(*ws))
    return EpSet(bits[:m], bits[m:])


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


def stack_points(*points: SymbolicPoint) -> SymbolicPoint:
    """Concatenate the coordinate stacks of several points into one."""
    return SymbolicPoint(tuple(c for p in points for c in p.coords))
