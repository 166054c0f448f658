"""Test oracles for the boolean operations on EpSet values.

The library builds algebras from atoms and never combines two sets
pointwise, so union, intersection and inclusion live here: each reads both
sets on one window of their preperiod join plus their lcm period, past
which both repeat.
"""

from __future__ import annotations

import math

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
