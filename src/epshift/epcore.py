"""Exact arithmetic of eventually periodic subsets of the naturals.

An :class:`EpSet` stores a subset of N as two bit words: a finite preperiod
and a period that repeats forever after it.  Position ``n`` is a member when
its bit is ``'1'``.  Every value is held in canonical form (primitive period,
shortest possible preperiod), so value equality is set equality and the
boolean algebra generated by finitely many values is finite.

The canonical form is computed in two steps.  First the period is replaced
by its primitive root (the shortest word it is a power of).  Then trailing
preperiod bits that agree with the last period bit are absorbed into the
period, one at a time; each absorption rotates the period right by one, so
the represented set never changes.  The result is the unique representation
with a primitive period whose last bit differs from the last preperiod bit
(or with an empty preperiod).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property

__all__ = [
    "Algebra",
    "CapacityError",
    "ConstructionError",
    "EMPTY",
    "EpSet",
    "FULL",
    "GapCertificate",
    "InputError",
    "LiteralError",
    "generate_algebra",
    "normalize",
]


class InputError(ValueError):
    """A precondition on an operation's inputs does not hold."""


class LiteralError(InputError):
    """A text literal does not match its grammar."""


class CapacityError(RuntimeError):
    """A configured resource cap was exceeded."""


class ConstructionError(RuntimeError):
    """A fail-closed internal verification failed.

    This signals a bug in the library, never bad user input: every
    construction that raises it has already validated its inputs and is
    re-checking its own output.
    """


_LITERAL = re.compile(r"^([01]*)\(([01]+)\)$")
_COMPLEMENT = str.maketrans("01", "10")


def _primitive_root(word: str) -> str:
    # the least i >= 1 at which word occurs in word+word is its least
    # rotation period, which divides len(word)
    return word[:(word + word).find(word, 1)]


@dataclass(frozen=True)
class EpSet:
    """An eventually periodic subset of N.

    ``pre`` holds the membership bits of positions ``0 .. len(pre)-1``;
    after that the bits of ``per`` repeat forever.  Instances normalize
    themselves on construction, so two values are ``==`` exactly when they
    denote the same subset.
    """

    pre: str
    per: str

    def __post_init__(self) -> None:
        if not isinstance(self.pre, str) or not isinstance(self.per, str):
            raise InputError("membership words must be strings of 0/1 bits")
        if not self.per:
            raise InputError("period word must be nonempty")
        if set(self.pre) - {"0", "1"} or set(self.per) - {"0", "1"}:
            raise InputError("membership words must be over the alphabet {0,1}")
        per = _primitive_root(self.per)
        pre = self.pre
        # absorbing a trailing preperiod bit rotates the period right once
        while pre and pre[-1] == per[-1]:
            pre = pre[:-1]
            per = per[-1] + per[:-1]
        object.__setattr__(self, "pre", pre)
        object.__setattr__(self, "per", per)

    # -- construction and rendering ------------------------------------

    @classmethod
    def parse(cls, text: str) -> "EpSet":
        """Parse a literal like ``0110(10)``; empty preperiod is ``(10)``."""
        m = _LITERAL.match(text)
        if m is None:
            raise LiteralError(
                f"bad set literal {text!r}: expected bits followed by a "
                f"parenthesized nonempty period, e.g. 01(10)"
            )
        return cls(m.group(1), m.group(2))

    @property
    def literal(self) -> str:
        return f"{self.pre}({self.per})"

    def __str__(self) -> str:
        return self.literal

    # -- pointwise semantics -------------------------------------------

    def window(self, start: int, stop: int) -> str:
        """The membership bits of positions ``start .. stop-1`` as a word."""
        if start < 0 or stop < start:
            raise InputError("window bounds must satisfy 0 <= start <= stop")
        m, p = len(self.pre), len(self.per)
        parts = []
        if start < m:
            parts.append(self.pre[start:min(stop, m)])
        if stop > m:
            phase = (max(start, m) - m) % p
            length = stop - max(start, m)
            reps = self.per * ((phase + length) // p + 1)
            parts.append(reps[phase:phase + length])
        return "".join(parts)

    def bit(self, n: int) -> str:
        return self.window(n, n + 1)

    def member(self, n: int) -> bool:
        """True iff ``n`` is in the set."""
        return self.bit(n) == "1"

    # -- boolean algebra -----------------------------------------------

    def complement(self) -> "EpSet":
        # flipping bits commutes with the representation, no re-expansion
        return EpSet(self.pre.translate(_COMPLEMENT), self.per.translate(_COMPLEMENT))

    def union(self, other: "EpSet") -> "EpSet":
        return _pointwise(lambda a, b: "1" if "1" in (a, b) else "0", self, other)

    def intersect(self, other: "EpSet") -> "EpSet":
        return _pointwise(lambda a, b: "1" if a == b == "1" else "0", self, other)

    def issubset(self, other: "EpSet") -> bool:
        return self.intersect(other) == self

    # -- translation ----------------------------------------------------

    def translate_down(self, n: int) -> "EpSet":
        """The set ``X - n = {k : k + n in X}``."""
        if n < 0:
            raise InputError("translation offset must be a natural number")
        m, p = len(self.pre), len(self.per)
        if n <= m:
            return EpSet(self.pre[n:], self.per)
        k = (n - m) % p
        return EpSet("", self.per[k:] + self.per[:k])

    # -- size and gap structure ------------------------------------------

    def is_infinite(self) -> bool:
        """True iff the set is infinite, i.e. the periodic part has a member."""
        return "1" in self.per

    def first_member_at_least(self, n: int) -> int | None:
        """The least member ``>= n``, or None when there is none."""
        if n < 0:
            raise InputError("position must be a natural number")
        m, p = len(self.pre), len(self.per)
        w = self.window(n, max(n, m) + p)
        i = w.find("1")
        return None if i < 0 else n + i

    def is_syndetic(self) -> "GapCertificate":
        """Decide bounded gaps exactly.

        A syndetic set admits an ``m`` with every window ``[x, x+m]``
        meeting it; the certificate carries the least such ``m``.  An
        eventually periodic set is syndetic iff it is infinite, so the
        negative certificate is a position from which the set is empty.
        """
        m, p = len(self.pre), len(self.per)
        if "1" not in self.per:
            return GapCertificate(bound=None, empty_from=m)
        w = self.window(0, m + 2 * p)
        members = [i for i, b in enumerate(w) if b == "1"]
        gaps = [b - a - 1 for a, b in zip(members, members[1:])]
        return GapCertificate(bound=max([members[0], *gaps]), empty_from=None)


def _pointwise(fn, *xs: EpSet) -> EpSet:
    m = max(len(x.pre) for x in xs)
    p = math.lcm(*(len(x.per) for x in xs))
    ws = [x.window(0, m + p) for x in xs]
    bits = "".join(fn(*col) for col in zip(*ws))
    return EpSet(bits[:m], bits[m:])


def normalize(pre: str, per: str) -> EpSet:
    """Canonicalize a raw (preperiod, period) pair.

    Idempotent: normalizing a canonical pair returns it unchanged.
    """
    return EpSet(pre, per)


EMPTY = EpSet("", "0")
FULL = EpSet("", "1")


@dataclass(frozen=True)
class GapCertificate:
    """Outcome of a syndeticity check.

    ``bound`` is the least ``m`` such that every window ``[x, x+m]`` meets
    the set, or None when no bound exists; in that case ``empty_from`` is a
    position beyond which the set has no members at all.
    """

    bound: int | None
    empty_from: int | None

    @property
    def syndetic(self) -> bool:
        return self.bound is not None


@dataclass(frozen=True)
class Algebra:
    """A finite family of sets closed under the boolean operations.

    When ``downward_closed`` is set the family is also closed under every
    downward translation ``X - n``.  Members are canonical, duplicate free,
    and sorted by literal so iteration order is deterministic.
    """

    members: tuple[EpSet, ...]
    generators: tuple[EpSet, ...]
    downward_closed: bool

    @cached_property
    def member_set(self) -> frozenset[EpSet]:
        return frozenset(self.members)

    def __contains__(self, x: EpSet) -> bool:
        return x in self.member_set

    def __len__(self) -> int:
        return len(self.members)


def generate_algebra(gens, downward: bool, cap: int = 65536) -> Algebra:
    """Close ``gens`` under complement, union, intersection and, when
    ``downward`` is set, all downward translations.

    The closure is built from its atoms.  Every member has preperiod at
    most M, the longest generator preperiod, and period dividing L, the
    lcm of the generator periods, so it is fixed by its bits on the window
    ``[0, M+L)``.  Window positions with the same column of generator bits
    form one atom: no boolean operation separates them, and the
    intersection of the generators and complements that matches the column
    is exactly the atom.  The atoms are nonempty, disjoint and cover the
    window, so the closure is exactly the ``2**len(atoms)`` unions of
    atoms.  ``cap`` is checked against that count before any member is
    built, raising a :class:`CapacityError` when it is exceeded.

    Translation commutes with the boolean operations, so the downward
    closure is the algebra generated by the translates ``g - n`` of the
    generators.  They repeat with period ``|per|`` once ``n >= |pre|``, so
    the translates with ``n < |pre|+|per|`` give all of them.
    """
    gens = tuple(gens)
    if not gens:
        raise InputError("an algebra needs at least one generator")
    if cap < 1:
        raise InputError("capacity cap must be positive")
    m = max(len(g.pre) for g in gens)
    width = m + math.lcm(*(len(g.per) for g in gens))
    basis = [
        g.translate_down(n)
        for g in gens
        for n in (range(len(g.pre) + len(g.per)) if downward else [0])
    ]
    # column of basis bits -> its atom, as a mask with bit n for position n
    atoms: dict[tuple[str, ...], int] = {}
    for n, column in enumerate(zip(*(x.window(0, width) for x in basis))):
        atoms[column] = atoms.get(column, 0) | 1 << n
    if 2 ** len(atoms) > cap:
        raise CapacityError(f"algebra closure exceeded the cap of {cap} members")
    masks = [0]
    for atom in atoms.values():
        masks += [mask | atom for mask in masks]
    words = (format(mask, f"0{width}b")[::-1] for mask in masks)
    members = tuple(sorted((EpSet(w[:m], w[m:]) for w in words), key=lambda s: s.literal))
    return Algebra(members=members, generators=gens, downward_closed=downward)
