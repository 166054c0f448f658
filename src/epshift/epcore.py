"""Exact arithmetic of eventually periodic subsets of the naturals.

An :class:`EpSet` stores a subset of N as two bit words: a finite preperiod
``pre`` and ``res``, the residue word of the periodic part: from position
``len(pre)`` on, ``n`` has bit ``res[n % len(res)]``.  Position ``n`` is a
member when its bit is ``'1'``.  Every value is held in canonical form
(primitive period, shortest possible preperiod), so value equality is set
equality and the boolean algebra generated by finitely many values is finite.

The canonical form is computed in two steps.  First the literal's period,
spelled from position ``len(pre)`` on, is rotated to phase 0 and replaced
by its primitive root (the shortest word it is a power of).  Then trailing
preperiod bits equal to their periodic bit are dropped one at a time, which
changes neither the residue word nor the set.  The result is the unique
representation with a primitive period and a last preperiod bit unlike its
periodic bit (or with an empty preperiod).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

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


_LITERAL = re.compile(r"([01]*)\(([01]+)\)")
_COMPLEMENT = str.maketrans("01", "10")


def _primitive_root(word: str) -> str:
    # the least i >= 1 at which word occurs in word+word is its least
    # rotation period, which divides len(word)
    return word[:(word + word).find(word, 1)]


def _normal_words(pre: str, per: str) -> tuple[str, str]:
    """The canonical ``(pre, res)`` of 0/1 literal words, ``per`` nonempty."""
    k = -len(pre) % len(per)
    res = _primitive_root(per[k:] + per[:k])
    # a trailing preperiod bit equal to its periodic bit is absorbed
    while pre and pre[-1] == res[(len(pre) - 1) % len(res)]:
        pre = pre[:-1]
    return pre, res


@dataclass(frozen=True, init=False)
class EpSet:
    """An eventually periodic subset of N.

    ``pre`` holds the membership bits of positions ``0 .. len(pre)-1``;
    from there on, position ``n`` has bit ``res[n % len(res)]``.  The
    constructor takes a literal's words ``(pre, per)`` and normalizes them,
    so two values are ``==`` exactly when they denote the same subset.
    """

    pre: str
    res: str

    def __init__(self, pre: str, per: str) -> None:
        if not isinstance(pre, str) or not isinstance(per, str):
            raise InputError("membership words must be strings of 0/1 bits")
        if not per:
            raise InputError("period word must be nonempty")
        if set(pre) - {"0", "1"} or set(per) - {"0", "1"}:
            raise InputError("membership words must be over the alphabet {0,1}")
        pre, res = _normal_words(pre, per)
        object.__setattr__(self, "pre", pre)
        object.__setattr__(self, "res", res)

    # -- construction and rendering ------------------------------------

    @classmethod
    def parse(cls, text: str) -> "EpSet":
        """Parse a literal like ``0110(10)``; empty preperiod is ``(10)``."""
        m = _LITERAL.fullmatch(text)
        if m is None:
            raise LiteralError(
                f"bad set literal {text!r}: expected bits followed by a "
                f"parenthesized nonempty period, e.g. 01(10)"
            )
        return cls(m.group(1), m.group(2))

    @property
    def per(self) -> str:
        """The period from position ``len(pre)`` on, as the literal spells it."""
        k = len(self.pre) % len(self.res)
        return self.res[k:] + self.res[:k]

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
        m, p = len(self.pre), len(self.res)
        parts = []
        if start < m:
            parts.append(self.pre[start:min(stop, m)])
        if stop > m:
            phase = max(start, m) % p
            length = stop - max(start, m)
            reps = self.res * ((phase + length) // p + 1)
            parts.append(reps[phase:phase + length])
        return "".join(parts)

    def mask(self, stop: int) -> int:
        """The members below ``stop`` as an int, bit n for position n: the
        residue word doubled from bit 0 until it covers the window, its bits
        below ``len(pre)`` replaced by the preperiod's."""
        if stop < 0:
            raise InputError("mask bound must be a natural number")
        m, w = len(self.pre), len(self.res)
        window = (1 << stop) - 1
        body = int(self.res[::-1], 2)
        while w < stop:
            body |= body << w
            w *= 2
        # cut to the window first, so the shifts are stop-wide, not twice that
        return (body & window) >> m << m | int(self.pre[::-1] or "0", 2) & window

    def member(self, n: int) -> bool:
        """True iff ``n`` is in the set."""
        if n < 0:
            raise InputError("position must be a natural number")
        return (self.pre[n] if n < len(self.pre) else self.res[n % len(self.res)]) == "1"

    # -- complement and translation --------------------------------------

    def complement(self) -> "EpSet":
        # flipping bits keeps the period primitive and the last bits apart
        return _canonical(self.pre.translate(_COMPLEMENT), self.res.translate(_COMPLEMENT))

    def translate_down(self, n: int) -> "EpSet":
        """The set ``X - n = {k : k + n in X}``."""
        if n < 0:
            raise InputError("translation offset must be a natural number")
        # residue r of X - n is residue r + n of X; a cut preperiod keeps its
        # last bit apart, and a rotated primitive word is primitive
        k = n % len(self.res)
        return _canonical(self.pre[n:], self.res[k:] + self.res[:k])

    # -- size and gap structure ------------------------------------------

    def is_infinite(self) -> bool:
        """True iff the set is infinite, i.e. the periodic part has a member."""
        return "1" in self.res

    def is_syndetic(self) -> "GapCertificate":
        """Decide bounded gaps exactly.

        A syndetic set admits an ``m`` with every window ``[x, x+m]``
        meeting it; the certificate carries the least such ``m``.  An
        eventually periodic set is syndetic iff it is infinite, so the
        negative certificate is a position from which the set is empty.
        """
        m, p = len(self.pre), len(self.res)
        if "1" not in self.res:
            return GapCertificate(bound=None, empty_from=m)
        # the zeros before each member: the lead-in, then every gap
        runs = self.window(0, m + 2 * p).split("1")[:-1]
        return GapCertificate(bound=max(map(len, runs)), empty_from=None)


def _canonical(pre: str, res: str) -> EpSet:
    """An :class:`EpSet` from a canonical preperiod and residue word, built
    without the checks and normalization of the constructor."""
    x = object.__new__(EpSet)
    object.__setattr__(x, "pre", pre)
    object.__setattr__(x, "res", res)
    return x


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

    def as_dict(self) -> dict:
        """The verdict as ``set syndetic`` and ``filter central`` print it."""
        if self.syndetic:
            return {"syndetic": True, "gap": self.bound}
        return {"syndetic": False, "empty_from": self.empty_from}


@dataclass(frozen=True)
class Algebra:
    """A finite family of sets closed under the boolean operations.

    When ``downward_closed`` is set the family is also closed under every
    downward translation ``X - n``.  Members are canonical, duplicate free,
    and sorted by literal so iteration order is deterministic.

    Every member has preperiod at most ``lead`` and period dividing
    ``period``, so it is fixed by its bits on the window
    ``[0, lead + period)``.  ``masks[i]`` holds those bits of
    ``members[i]`` (its ``EpSet.mask``), and ``atoms`` holds the atoms'
    masks, refined from the generators' (:func:`generate_algebra`): the
    members are exactly the unions of atoms.
    """

    members: tuple[EpSet, ...]
    generators: tuple[EpSet, ...]
    downward_closed: bool
    lead: int
    period: int
    atoms: tuple[int, ...]
    masks: tuple[int, ...]

    def __contains__(self, x: EpSet) -> bool:
        """A set is a member iff it fits the window (preperiod at most
        ``lead``, period dividing ``period``) and its window bits are a
        union of atoms: then it is the member with those bits."""
        if len(x.pre) > self.lead or self.period % len(x.res):
            return False
        mask = x.mask(self.lead + self.period)
        return all((mask & atom) in (0, atom) for atom in self.atoms)

    def __len__(self) -> int:
        return len(self.members)


def _periodic_parts(masks, m: int, period: int) -> list[int]:
    """The window mask of each window mask's periodic part: position n of
    the window ``[0, m + period)`` reads the bit of the position in
    ``[m, m + period)`` congruent to n mod ``period``."""
    ones, full = (1 << period) - 1, (1 << m + period) - 1
    # the bits from m on, tiled from position 0, then read from the first
    # multiple of the period at or past m
    tile = sum(1 << n for n in range(0, m + 2 * period, period))
    k = -m % period
    return [((mask >> m & ones) * tile >> k) & full for mask in masks]


def generate_algebra(gens, downward: bool, cap: int = 65536) -> Algebra:
    """Close ``gens`` under complement, union, intersection and, when
    ``downward`` is set, all downward translations.

    The closure is built from its atoms.  Every member has preperiod at
    most M, the longest generator preperiod, and period dividing L, the
    lcm of the generator periods, so it is fixed by its bits on the window
    ``[0, M+L)``.  The atoms refine the window's mask: each generator's
    window mask ``row`` splits every atom ``a`` into ``a & row`` and
    ``a & ~row``, keeping the nonzero parts.  No boolean operation
    separates two positions that no generator tells apart, and the
    intersection of generators and complements holding an atom is exactly
    the atom.  The atoms are nonempty, disjoint and cover the
    window, so the closure is exactly the ``2**len(atoms)`` unions of
    atoms.  ``cap`` is checked against that count before any member is
    built, raising a :class:`CapacityError` when it is exceeded.

    Translation commutes with the boolean operations, so the downward
    closure is the algebra generated by the translates ``g - k`` of the
    generators.  They repeat with period ``|res|`` once ``k >= |pre|``, so
    the translates with ``k < |pre|+|res|`` give all of them.  Only their
    bits on the window are read, and the window mask of ``g - k`` is
    ``g``'s mask shifted down by ``k``, so no translate is built.

    A member's literal is its window word cut at its canonical preperiod
    and period lengths, so members are sorted by literal without rendering
    them, and each keeps its window mask (see :class:`Algebra`).
    """
    gens = tuple(gens)
    if not gens:
        raise InputError("an algebra needs at least one generator")
    if cap < 1:
        raise InputError("capacity cap must be positive")
    m = max(len(g.pre) for g in gens)
    period = math.lcm(*(len(g.res) for g in gens))
    width = m + period
    full = (1 << width) - 1
    atoms = [full]
    for g in gens:
        bits = g.mask(width + len(g.pre) + len(g.res))
        for k in range(len(g.pre) + len(g.res)) if downward else [0]:
            row = bits >> k & full
            atoms = [part for a in atoms for part in (a & row, a & ~row) if part]
    if 2 ** len(atoms) > cap:
        raise CapacityError(f"algebra closure exceeded the cap of {cap} members")
    masks = [0]
    for atom in atoms:
        masks += [mask | atom for mask in masks]
    # _normal_words on each window word: its bits from m on, rotated to
    # phase 0, have the residue word as primitive root, and the preperiod
    # ends past the last bit below m that its periodic part does not share
    spec, k, low = f"0{width}b", -m % period, (1 << m) - 1
    entries = []
    for mask, periodic in zip(masks, _periodic_parts(masks, m, period)):
        w = format(mask, spec)[::-1]
        res = _primitive_root(w[m + k:] + w[m:m + k])
        a = ((mask ^ periodic) & low).bit_length()
        pre = w[:a]
        entries.append((f"{pre}({w[a:a + len(res)]})", mask, pre, res))
    entries.sort()  # literals are distinct, so only they are compared
    return Algebra(
        members=tuple(_canonical(pre, res) for _, _, pre, res in entries),
        generators=gens,
        downward_closed=downward,
        lead=m,
        period=period,
        atoms=tuple(atoms),
        masks=tuple(mask for _, mask, _, _ in entries),
    )
