"""Partial minimal idempotent ultrafilters over finite set algebras.

A difference-periodic generator (n_i) induces the filter
F = {X : some tail's finite sums all land in X}.  For eventually periodic
X this membership is decidable by residue arithmetic: past the preperiods,
a sum lies in X iff its residue mod p = period(X) hits the periodic part,
and the achievable residues of tail sums form the additive closure C_p of
the tail's residues.  In the finite group Z_p that closure is the
subgroup those residues generate: the multiples of s = gcd(p, n_{L-1},
d_0, ..., d_{k-1}), for the last head term and the tail differences.  So
X ∈ F iff C_p ⊆ G(X), where G(X), the set of X's periodic residues mod p,
is X's residue word (``EpSet.res``); the test is a strided read
of it.  The verdict depends on X only through G(X), which gives three
more facts: the complement is in F iff C_p ∩ G(X) = ∅; X − n has period
p and G(X − n) = G(X) − n, so {n : X − n ∈ F} is purely periodic with
period dividing s; and neither needs the algebra to be downward closed
or the filter to be ultra.

On a generated algebra each of these questions is one bit test.  Every
member of the algebra has preperiod at most m and period p dividing L,
the algebra's window lead and period, so its window mask (bit n for
position n < m + L) reads its residue word's bit n mod p at every
n >= m.  Let s be the closure step at L and Z the window positions n in
[m, m + L) with s | n: they reduce mod any member period p to exactly
C_p, so X ∈ F iff its mask contains Z, and X̄ ∈ F iff its mask misses Z
(see :class:`FilterReport`).  Members are unions of atoms, so dichotomy
holds iff Z lies in one atom.
Everything else here is bookkeeping around that kernel: axiom audits with
witnesses, construction from the dynamics (encode, solve, certify), limits
along the filter, scope extension, which is the build on the wider scope,
and ``central_check``, the JSON object of three separate verdicts on a
set, whose IP witness comes from the least-witness search of
:mod:`epshift.ipcore`.

Construction is fail-closed: dichotomy is the one axiom a generator can
fail (see :class:`FilterReport`), so the constructors check it on their
own scope and raise, because a silent bad filter would poison every
downstream certificate.
"""

from __future__ import annotations

import math
import weakref
from collections import Counter
from dataclasses import dataclass

from .epcore import (
    FULL,
    Algebra,
    ConstructionError,
    EpSet,
    InputError,
    _canonical,
    _periodic_parts,
    _primitive_root,
    generate_algebra,
)
from .dynamics import (
    AetPairError,
    SymbolicPoint,
    ae_solve,
    encode_point,
    require_aet_pair,
)
from .ipcore import IpConstructionCertificate, IpGenerator, _least_witness, ip_sequence_construct

__all__ = [
    "FilterReport",
    "MemberResult",
    "PartialUltrafilter",
    "build_partial_ultrafilter",
    "central_check",
    "extend_filter",
    "filter_member",
    "translate_membership_set",
    "ultralimit",
    "verify_filter",
]


def _sum_tree(g: IpGenerator, p: int) -> dict[int, tuple[int, int]]:
    """Breadth-first tree of the residues of nonempty sums of tail terms.

    The tail's residues mod p are those of the k·p terms from the last head
    term, k = len(tail_diffs): the walk's step on (position in the
    difference cycle, residue) permutes k·p states, so the walk from that
    term is a pure cycle of at most k·p terms.
    Maps each reachable residue r to (previous residue, tail residue added),
    with previous residue -1 at a root.  Each level tries the tail residues
    in increasing order, so following the links back from r spells a
    shortest word of them summing to r mod p.  Only a non-member's refuting
    word needs it; the closure itself is a gcd (see ``_closure_step``).
    """
    order = sorted({t % p for t in g.terms(len(g.tail_diffs) * p, len(g.head) - 1)})
    tree = {r: (-1, r) for r in order}
    queue = list(order)
    for r in queue:  # grows while it is read: a first-in first-out queue
        for t in order:
            s = (r + t) % p
            if s not in tree:
                tree[s] = (r, t)
                queue.append(s)
    return tree


def _closure_step(g: IpGenerator, p: int) -> int:
    """s with C_p = {0, s, 2s, ...}: the tail's residues are n_{L-1} plus
    partial sums of the differences, and taking differences keeps a gcd."""
    return math.gcd(p, g.head[-1], *g.tail_diffs)


@dataclass(frozen=True)
class MemberResult:
    """Exact filter-membership verdict with certificate.

    Member: from ``tail_start`` on, every finite sum's residue lies in
    ``closure``, which sits inside the set's periodic residues.
    Non-member: ``witness_sum`` is a concrete finite sum of the generator
    terms at ``witness_indices`` (all >= tail_start) landing outside the
    set.
    """

    member: bool
    tail_start: int
    closure: tuple[int, ...]
    witness_sum: int | None = None
    witness_indices: tuple[int, ...] | None = None


def filter_member(g: IpGenerator, x: EpSet) -> MemberResult:
    """Decide x ∈ F((n_i)) exactly.

    Tail sums from index m have residues exactly the additive closure of
    the tail's residues mod period(x), and any sum of tail terms is past
    x's preperiod, so membership reduces to closure ⊆ periodic residues.
    Because every tail of the generator runs through the same residue
    set, no larger m can change the verdict; the choice below merely makes
    the certificate concrete.

    The closure is the multiples of ``_closure_step``, so the verdict is
    one strided read of X's residue word.  Only for a non-member does
    ``_sum_tree`` spell the shortest word of tail residues reaching the
    least residue outside x (its links back to a root); the word's terms
    are then picked from the tail in index order.
    """
    p = len(x.res)
    m_x = len(x.pre)
    m = len(g.head) - 1  # the tail's residues repeat from the last head term
    while g.term(m) < m_x:
        m += 1
    s = _closure_step(g, p)
    closure = tuple(range(0, p, s))
    w = x.res[::s]
    if "0" not in w:
        return MemberResult(member=True, tail_start=m, closure=closure)
    r = s * w.index("0")
    tree = _sum_tree(g, p)
    need: Counter = Counter()
    while r != -1:
        r, step = tree[r]
        need[step] += 1
    indices: list[int] = []
    i = m
    while sum(need.values()) > 0:
        r = g.term(i) % p
        if need[r] > 0:
            need[r] -= 1
            indices.append(i)
        i += 1
    total = sum(g.term(j) for j in indices)
    if x.member(total):
        raise ConstructionError(
            f"witness sum {total} claimed outside the set but is a member"
        )
    return MemberResult(
        member=False,
        tail_start=m,
        closure=closure,
        witness_sum=total,
        witness_indices=tuple(indices),
    )


# the scope of a filter for a bare generator: the two sets EMPTY and FULL
_TRIVIAL_SCOPE = generate_algebra([FULL], downward=True)


@dataclass(frozen=True, eq=False)
class PartialUltrafilter:
    """F((n_i)) restricted to a scope algebra.

    Membership of X depends only on p = period(X): X ∈ F iff X's residue
    word is "1" at every multiple of ``_closure_step`` (see the module
    docstring), the same verdict ``filter_member`` gives.

    A built filter keeps the record of its construction: ``certificate``,
    the certified IP construction whose generator it installs, and
    ``members``, the scope's selected sets in scope order; an extended
    filter is the build on its wider scope.  A filter from
    ``for_generator`` has neither.
    """

    generator: IpGenerator
    scope: Algebra
    certificate: IpConstructionCertificate | None = None
    members: tuple[EpSet, ...] | None = None

    @classmethod
    def for_generator(cls, generator: IpGenerator) -> "PartialUltrafilter":
        return cls(generator=generator, scope=_TRIVIAL_SCOPE)

    def member(self, x: EpSet) -> bool:
        return "0" not in x.res[:: _closure_step(self.generator, len(x.res))]

    def members_of(self, algebra: Algebra) -> list[EpSet]:
        return [x for x in algebra.members if self.member(x)]


def translate_membership_set(f: PartialUltrafilter, x: EpSet) -> EpSet:
    """The set D(X) = {n : X − n ∈ F}, as an exact EpSet.

    D(X) is purely periodic, with period dividing s = ``_closure_step``:
    every X − n has period p and periodic residues G(X) − n, so X − n ∈ F
    iff C_p + n ⊆ G(X), which depends only on n mod s, even for n inside
    X's preperiod.  For n < s, C_p + n is the residues n, n + s, ..., one
    strided read of X's residue word.  The word's primitive root with an
    empty preperiod is D(X)'s canonical form.
    """
    s = _closure_step(f.generator, len(x.res))
    word = "".join("0" if "0" in x.res[n::s] else "1" for n in range(s))
    return _canonical("", _primitive_root(word))


@dataclass(frozen=True)
class FilterReport:
    """Axiom audit of a generator against an algebra, with witnesses.

    Only ultra-dichotomy (exactly one of X, X̄ in F) can fail, and only
    with "neither" witnesses.  The other axioms are theorems for every
    FS-tail filter, so the report keeps no field for them: ``as_dict``
    writes upward closure, finite intersection and infiniteness as
    ``{"pass": True}`` constants, and each member entry's idempotent,
    minimal and Hirst flags are ``True``.  Tails nest, so F is upward
    closed and closed under intersection.  A selected X has
    C_p = sℤ_p ⊆ G(X), s = ``_closure_step``, so 0 ∈ G(X) and X is
    infinite; D(X) = {n : C_p + n ⊆ G(X)} holds every multiple of s, so
    it is purely periodic and syndetic (minimal, ``gap``) with least
    positive member at most s (Hirst); and D's period divides s, which
    divides n_{L-1} and every d_i, so D's own closure step is its period
    and D(X) ∈ F iff 0 ∈ D(X), which holds (idempotent).

    The verdicts are read off the algebra's window masks.  A member X
    with period p | L and preperiod at most m reads G(X)'s bit n mod p at
    each window position n in [m, m + L).  Those L positions are one
    of each residue mod L and s = gcd(L, n_{L-1}, d_0, ...) divides L, so
    the multiples of s among them, Z, are the multiples of s mod L, and
    mod p the multiples of gcd(p, s) = gcd(p, n_{L-1}, d_0, ...), which
    is C_p.  Hence X ∈ F iff mask(X) ⊇ Z and X̄ ∈ F iff mask(X) ∩ Z = ∅.
    Z is nonempty and every member is a union of atoms, so when Z lies
    in one atom each member contains Z or misses it, and when Z meets two
    atoms, either of them is a member decided neither way.
    """

    all_pass: bool
    generator: str
    scope_size: int
    dichotomy: dict
    members: tuple[dict, ...]

    def as_dict(self) -> dict:
        return {
            "all_pass": self.all_pass,
            "generator": self.generator,
            "scope_size": self.scope_size,
            "dichotomy": self.dichotomy,
            "upward_closure": {"pass": True},
            "finite_intersection": {"pass": True},
            "infiniteness": {"pass": True},
            "members": list(self.members),
        }


def _split(g: IpGenerator, algebra: Algebra) -> tuple[list[EpSet], list[str]]:
    """The members of ``algebra`` in F((n_i)), and the literals of those
    with neither X nor X̄ in F: X ∈ F iff its window mask contains Z, and
    X̄ ∈ F iff it misses Z (see :class:`FilterReport`), so Z ≠ ∅ never puts
    both in F."""
    m, s = algebra.lead, _closure_step(g, algebra.period)
    z = sum(1 << n for n in range(m + -m % s, m + algebra.period, s))
    members, masks = algebra.members, algebra.masks
    selected = [x for x, mask in zip(members, masks) if mask & z == z]
    if any(atom & z == z for atom in algebra.atoms):
        return selected, []  # each member holds Z's atom or misses it
    return selected, [x.literal for x, mask in zip(members, masks) if mask & z not in (0, z)]


def verify_filter(f: PartialUltrafilter, algebra: Algebra) -> FilterReport:
    """Audit the ultrafilter axioms over ``algebra``.

    ``all_pass`` is the verdict of dichotomy, the one axiom that can fail
    (see :class:`FilterReport`).  Each selected member's entry reads the
    gap and least positive member of D(X) = {n : X − n ∈ F}.  Failures
    are verdicts with witnesses, not exceptions: a generator may
    legitimately fail dichotomy on an algebra it was not built for.
    """
    selected, neither = _split(f.generator, algebra)
    dichotomy = {"pass": not neither}
    if neither:
        dichotomy["neither"] = neither
    members = []
    for x in selected:
        # D(X) is purely periodic and 0 ∈ D(X) because X ∈ F: the gap is the
        # longest cyclic run of zeros and the least positive member is the
        # first "1" past position 0 of its residue word doubled
        d = translate_membership_set(f, x)
        ww = d.res + d.res
        members.append({
            "set": x.literal,
            "translate_set": d.literal,
            "idempotent": True,
            "minimal": True,
            "gap": max(map(len, ww.split("1"))),
            "hirst": True,
            "hirst_witness": ww.index("1", 1),
        })
    return FilterReport(
        all_pass=dichotomy["pass"],
        generator=f.generator.literal,
        scope_size=len(algebra),
        dichotomy=dichotomy,
        members=tuple(members),
    )


def _encoded_pair(algebra: Algebra) -> tuple[SymbolicPoint, SymbolicPoint]:
    """``encode_point(algebra.members)`` and its ``ae_solve``, gathered from
    the algebra's own members by window mask.

    Coordinate i of the point is the complement of member i, the member
    whose mask is the window's full mask less member i's.  Its companion
    ("", res) reads res at every position, so its mask is the
    complement's periodic part (``_periodic_parts``).  It is the
    complement's translate by a multiple of its period past m, so a
    downward-closed algebra holds it.
    """
    full = (1 << algebra.lead + algebra.period) - 1
    member = dict(zip(algebra.masks, algebra.members)).__getitem__
    complements = [full ^ mask for mask in algebra.masks]
    try:
        x = SymbolicPoint(tuple(map(member, complements)))
        y = SymbolicPoint(tuple(map(
            member, _periodic_parts(complements, algebra.lead, algebra.period)
        )))
    except KeyError as exc:
        raise ConstructionError(
            f"the algebra has no member with window mask {exc.args[0]:#x}"
        ) from None
    return x, y


# the filter built on each Algebra object, keyed by the object's identity
# and held weakly: an entry lives as long as its filter, whose scope keeps
# the algebra, and so its id, alive
_BUILT: weakref.WeakValueDictionary[int, PartialUltrafilter] = weakref.WeakValueDictionary()


def build_partial_ultrafilter(algebra: Algebra) -> PartialUltrafilter:
    """Construct a partial minimal idempotent ultrafilter for the algebra.

    Encodes the algebra as a point x, takes its recurrent proximal
    companion y, both gathered from the algebra's members
    (``_encoded_pair``), and installs the generator of the certified IP
    construction over (x, y), so ``certificate.source`` is x.  The
    generator depends on x only through its period lcm and preperiod
    join.  A member the filter decides neither way raises, since it would
    mean a bug in the construction rather than bad input.

    Each ``Algebra`` object is built once: while the filter built on it
    is alive, a later build on the same object (``extend_filter`` onto an
    algebra already built, say) returns that filter, with no second
    encoding or certificate replay.  The filter is held weakly and found
    by the algebra's identity, so an equal but distinct algebra gets its
    own build, and a build after the filter is dropped runs again.
    """
    if not algebra.downward_closed:
        raise InputError("filters need a downward-translation algebra")
    built = _BUILT.get(id(algebra))
    if built is not None and built.scope is algebra:
        return built
    cert = ip_sequence_construct(*_encoded_pair(algebra))
    selected, neither = _split(cert.generator, algebra)
    if neither:
        raise ConstructionError("built filter decides neither way on " + ", ".join(neither))
    built = PartialUltrafilter(cert.generator, algebra, cert, tuple(selected))
    _BUILT[id(algebra)] = built
    return built


def ultralimit(f: PartialUltrafilter, x: SymbolicPoint) -> SymbolicPoint:
    """Limit of T^n x along the filter, coordinate by coordinate.

    Coordinate i of x encodes the set A_i = {n : x_i(n) = 0}; the limit's
    symbol at position k is 0 iff A_i − k ∈ F.  The result is checked to
    be uniformly recurrent and proximal to x, as a limit along a minimal
    idempotent filter must be; a generator that is not idempotent on these
    coordinates fails that check and raises :class:`AetPairError`.
    """
    coords = []
    for w in x.coords:
        decided = translate_membership_set(f, w.complement())
        coords.append(decided.complement())
    y = SymbolicPoint(tuple(coords))
    require_aet_pair(x, y)
    return y


def extend_filter(f: PartialUltrafilter, new_scope: Algebra) -> PartialUltrafilter:
    """Extend a filter to a larger algebra, preserving old decisions.

    EAET stacks the old scope's point x1 and its limit y1 along the filter
    over the new scope's point and its AE solution.  Once (x1, y1) checks,
    y1 is x1's AE solution and the stack has the new scope's period lcm and
    preperiod join, the only inputs of the construction's terms, so this is
    ``build_partial_ultrafilter(new_scope)``, checked to agree on the old
    scope.  Onto an algebra object whose built filter is still alive, that
    build returns the filter already built, and only the checks here run.
    The pair fails, raising :class:`AetPairError` as ``ultralimit`` would,
    exactly when an old member X of period p has closure step s < p: then
    {n : X − n ∈ F} has period s, so it is not X's periodic part.

    Each check is decided once for the whole old scope, and its members
    are walked only to name the offenders.  The old scope is generated by
    its generators, so the downward-closed new scope contains it iff it
    contains them.  Old periods divide L, the old scope's period, and the
    generators' periods have lcm L, so some old member has s < p iff the
    step at L is below L.  With no collapse both filters select X iff the
    residue word's multiples of gcd(p, step at L) are all "1", so they
    agree when the extension's step at L is L as well.
    """
    if not new_scope.downward_closed:
        raise InputError("filters need a downward-translation algebra")
    old = f.scope
    if not all(g in new_scope for g in old.generators):
        raise InputError(
            "new scope must contain the old one; missing "
            + ", ".join(x.literal for x in old.members if x not in new_scope)
        )
    if _closure_step(f.generator, old.period) < old.period:
        raise AetPairError(
            "pair check failed: the old scope's point and its limit are not proximal on "
            + ", ".join(
                x.literal for x in old.members
                if _closure_step(f.generator, len(x.res)) < len(x.res)
            )
        )
    extended = build_partial_ultrafilter(new_scope)
    if _closure_step(extended.generator, old.period) < old.period:
        disagreements = [x.literal for x in old.members if extended.member(x) != f.member(x)]
        if disagreements:
            raise ConstructionError(
                "extension changed old-scope decisions on " + ", ".join(disagreements)
            )
    return extended


# -- central sets ------------------------------------------------------------


def central_check(x: EpSet, bound: int = 128) -> dict:
    """The JSON object ``filter central`` prints: three separate verdicts
    about a set, never collapsed into one.

    ``syndetic`` is exact, rendered from the set's gap certificate.
    ``ip`` is exact for eventually periodic sets: the set is IP iff some
    residue class it contains has its additive closure inside the set's
    periodic residues, which holds exactly for class 0.  It carries either
    residue 0 with the least 4-term witness of multiples of p = period(X)
    with total <= bound, or a per-residue refutation.  ``filter`` asks
    whether the set belongs to the filter built from its own
    downward-translation algebra, and gives that filter's generator.  Its
    verdict always equals the IP verdict: the built generator's terms are
    multiples of p, so its closure step is p and X is a member iff residue
    0 is periodic in X, the IP condition (a finite set's residue word is
    all zeros).

    The filter is the one ``build_partial_ultrafilter`` installs on X's
    downward-translation algebra, but it is certified on X's own point.
    The construction's terms are the least multiples of the companion's
    period lcm past the preperiod join, so they depend on the point only
    through those two numbers, and both are X's own on either point: X is
    a member of its algebra, every member's period divides p and no
    translate or Boolean combination has a preperiod longer than m.  So
    the algebra, up to 2^(m + p) members, is never built, and no cap
    applies.  The construction still replays its certificate, and
    ``filter_member`` still checks a non-member's witness sum.
    """
    if bound < 1:
        raise InputError("bound must be positive")
    p = len(x.res)
    m = len(x.pre)
    good = x.res
    ip: dict
    if not x.is_infinite():
        ip = {"ip": False, "reason": "finite"}
    # the closure of {r} in Z_p holds p·r = 0, so a class closes up exactly
    # when 0 is a periodic residue, and then {0} is its closure
    elif good[0] == "1":
        ip = {"ip": True, "residue": 0, "modulus": p, "closure": [0]}
        # the witness is p times the least one in X' = {k : k·p ∈ X}, which
        # holds every k >= ⌈m/p⌉: a valid prefix with total S extends by
        # max(⌈m/p⌉, S + 1), so the least witness has total at most
        # 8·max(⌈m/p⌉, 1) + 7 and no larger bound changes it
        scaled = x.pre[::p]
        top = 8 * max(len(scaled), 1) + 7
        got = _least_witness([(EpSet(scaled, "1"),)], 4, min(bound // p, top))
        if got.found:
            ip["witness"] = [p * v for v in got.witness]
            ip["witness_bound"] = bound
    else:
        refutations = []
        lo = max(m, 1)
        for r in (r for r in range(p) if good[r] == "1"):
            k = next(k for k in range(1, p + 1) if good[k * r % p] == "0")
            # r is periodic, so from m on every n ≡ r (mod p) is a member
            first = lo + (r - lo) % p
            elems = [first + j * p for j in range(k)]
            total = sum(elems)
            if x.member(total):
                raise ConstructionError(
                    f"refutation sum {total} claimed outside the set but is a member"
                )
            refutations.append(
                {"residue": r, "count": k, "elements": elems, "sum": total}
            )
        ip = {"ip": False, "reason": "no residue class closes up", "refutations": refutations}

    point = encode_point([x])
    g = ip_sequence_construct(point, ae_solve(point)).generator
    return {
        "set": x.literal,
        "syndetic": x.is_syndetic().as_dict(),
        "ip": ip,
        "filter": {"member": filter_member(g, x).member, "generator": g.literal},
    }
