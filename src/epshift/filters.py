"""Partial minimal idempotent ultrafilters over finite set algebras.

A difference-periodic generator (n_i) induces the filter
F = {X : some tail's finite sums all land in X}.  For eventually periodic
X this membership is decidable by residue arithmetic: past the preperiods,
a sum lies in X iff its residue mod period(X) hits the periodic part, and
the achievable residues of tail sums form the additive closure of the
tail's residue cycle.  Everything else here is bookkeeping around that
kernel: axiom audits with witnesses, construction from the dynamics
(encode, solve, certify), limits along the filter, scope extension, and
the three-way central-set report.

Verification is fail-closed: the constructors re-audit their own output
and raise on any failed axiom, because a silent bad filter would poison
every downstream certificate.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from .epcore import (
    Algebra,
    ConstructionError,
    EpSet,
    GapCertificate,
    InputError,
    generate_algebra,
)
from .dynamics import (
    SymbolicPoint,
    ae_solve,
    are_proximal,
    eaet_extend,
    encode_point,
    is_uniformly_recurrent,
    stack_points,
)
from .ipcore import IpGenerator, ip_sequence_construct

__all__ = [
    "CentralReport",
    "FilterReport",
    "MemberResult",
    "PartialUltrafilter",
    "build_partial_ultrafilter",
    "central_check",
    "extend_filter",
    "filter_member",
    "subsemigroup_closure",
    "translate_membership_set",
    "ultralimit",
    "verify_filter",
]


def _sum_tree(gens, p: int) -> dict[int, tuple[int, int]]:
    """Breadth-first tree of the residues of nonempty sums over ``gens``.

    Maps each reachable residue r mod p to (previous residue, generator
    added), with previous residue -1 at a root (a single generator).  Each
    level tries the generators in increasing order, so following the links
    back from r spells a shortest word of generators summing to r mod p.
    """
    order = sorted({g % p for g in gens})
    tree = {r: (-1, r) for r in order}
    queue = list(order)
    for r in queue:  # grows while it is read: a first-in first-out queue
        for g in order:
            s = (r + g) % p
            if s not in tree:
                tree[s] = (r, g)
                queue.append(s)
    return tree


def subsemigroup_closure(residues, p: int) -> set[int]:
    """Least subset of Z_p containing ``residues`` and closed under addition.

    Equals the residues of all nonempty finite sums over the input with
    repetition: the residues that the breadth-first ``_sum_tree`` reaches.
    """
    if p < 1:
        raise InputError("modulus must be positive")
    tree = _sum_tree(residues, p)
    if not tree:
        raise InputError("need at least one residue")
    return set(tree)


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


def _tail_residues(x: EpSet) -> set[int]:
    m, p = len(x.pre), len(x.per)
    return {r for r in range(p) if x.per[(r - m) % p] == "1"}


def filter_member(g: IpGenerator, x: EpSet) -> MemberResult:
    """Decide x ∈ F((n_i)) exactly.

    Tail sums from index m have residues exactly the additive closure of
    the residue cycle mod period(x), and any sum of tail terms is past
    x's preperiod, so membership reduces to closure ⊆ periodic residues.
    Because every tail of the generator cycles through the same residue
    set, no larger m can change the verdict; the choice below merely makes
    the certificate concrete.

    One ``_sum_tree`` over the cycle gives both the closure (its keys) and,
    for a non-member, the shortest word reaching the least residue outside
    x (its links back to a root); the word's terms are then picked from
    the tail in index order.
    """
    p = len(x.per)
    m_x = len(x.pre)
    start, cycle = g.residue_structure(p)
    m = start
    while g.term(m) < m_x:
        m += 1
    tree = _sum_tree(cycle, p)
    closure = tuple(sorted(tree))
    good = _tail_residues(x)
    if tree.keys() <= good:
        return MemberResult(member=True, tail_start=m, closure=closure)
    r = min(tree.keys() - good)
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


@dataclass(frozen=True, eq=False)
class PartialUltrafilter:
    """F((n_i)) restricted to a scope algebra, with a decision cache.

    The cache is the only mutable state and is a pure memo: every fill
    writes the deterministic verdict for its key, so a hit returns what a
    fresh ``filter_member`` call would.
    """

    generator: IpGenerator
    scope: Algebra
    trace: dict | None = None
    _cache: dict = field(default_factory=dict, repr=False)

    @classmethod
    def for_generator(cls, generator: IpGenerator) -> "PartialUltrafilter":
        from .epcore import FULL

        return cls(generator=generator, scope=generate_algebra([FULL], downward=True))

    def member(self, x: EpSet) -> bool:
        got = self._cache.get(x)
        if got is None:
            got = filter_member(self.generator, x).member
            self._cache[x] = got
        return got

    def members_of(self, algebra: Algebra) -> list[EpSet]:
        return [x for x in algebra.members if self.member(x)]


def translate_membership_set(f: PartialUltrafilter, x: EpSet) -> EpSet:
    """The set D(X) = {n : X − n ∈ F}, as an exact EpSet.

    For n past X's preperiod, X − n depends only on n mod period(X), so
    one preperiod-plus-period sweep of decisions determines D(X); its
    canonical form then has preperiod <= preperiod(X) and period dividing
    period(X).
    """
    m, p = len(x.pre), len(x.per)
    bits = "".join(
        "1" if f.member(x.translate_down(n)) else "0" for n in range(m + p)
    )
    return EpSet(bits[:m], bits[m:])


@dataclass(frozen=True)
class FilterReport:
    """Axiom audit of a generator against an algebra, with witnesses.

    Scope-level checks quantify over the algebra: ultra-dichotomy (exactly
    one of X, X̄ in F) and member infiniteness.  Per-member checks cover
    idempotency (D(X) ∈ F), minimality (D(X) syndetic, with gap), and the
    least positive n with X − n ∈ F.

    ``upward_closure`` and ``finite_intersection`` always pass: every
    filter built from FS-tails is upward closed, and since tails nest, a
    tail whose sums lie in X and one whose sums lie in Y share a later
    tail whose sums lie in X ∩ Y.  Both are theorems for any generator;
    the fields stay only to keep the report schema stable.
    """

    all_pass: bool
    generator: str
    scope_size: int
    dichotomy: dict
    upward_closure: dict
    finite_intersection: dict
    infiniteness: dict
    members: tuple[dict, ...]

    def as_dict(self) -> dict:
        return {
            "all_pass": self.all_pass,
            "generator": self.generator,
            "scope_size": self.scope_size,
            "dichotomy": self.dichotomy,
            "upward_closure": self.upward_closure,
            "finite_intersection": self.finite_intersection,
            "infiniteness": self.infiniteness,
            "members": list(self.members),
        }


def verify_filter(f: PartialUltrafilter, algebra: Algebra) -> FilterReport:
    """Audit the ultrafilter axioms over ``algebra``.

    Dichotomy and infiniteness are checked on every member, and each
    selected member gets its idempotency, minimality and Hirst entry.
    Upward closure and pairwise intersection are not re-checked: they are
    theorems for FS-tail filters (see :class:`FilterReport`) and always
    pass.  Failures are verdicts with witnesses, not exceptions: a
    generator may legitimately fail dichotomy on an algebra it was not
    built for.
    """
    selected = f.members_of(algebra)
    in_f = set(selected)

    both = []
    neither = []
    for x in algebra.members:
        a, b = x in in_f, f.member(x.complement())
        if a and b:
            both.append(x.literal)
        elif not a and not b:
            neither.append(x.literal)
    dichotomy = {"pass": not both and not neither}
    if both:
        dichotomy["both"] = both
    if neither:
        dichotomy["neither"] = neither

    finite_members = [x.literal for x in selected if not x.is_infinite()]
    infiniteness = {"pass": not finite_members}
    if finite_members:
        infiniteness["witnesses"] = finite_members

    member_reports = []
    ok = dichotomy["pass"] and infiniteness["pass"]
    for x in selected:
        d = translate_membership_set(f, x)
        idem = f.member(d)
        gap = d.is_syndetic()
        entry: dict = {
            "set": x.literal,
            "translate_set": d.literal,
            "idempotent": idem,
            "minimal": gap.syndetic,
        }
        if gap.syndetic:
            entry["gap"] = gap.bound
        n = d.first_member_at_least(1)
        hirst = n is not None and f.member(x.translate_down(n))
        entry["hirst"] = hirst
        if hirst:
            entry["hirst_witness"] = n
        ok = ok and idem and gap.syndetic and hirst
        member_reports.append(entry)

    return FilterReport(
        all_pass=ok,
        generator=f.generator.literal,
        scope_size=len(algebra),
        dichotomy=dichotomy,
        upward_closure={"pass": True},
        finite_intersection={"pass": True},
        infiniteness=infiniteness,
        members=tuple(member_reports),
    )


def build_partial_ultrafilter(algebra: Algebra, count: int = 8) -> PartialUltrafilter:
    """Construct a partial minimal idempotent ultrafilter for the algebra.

    Encodes the algebra as a point, solves for its recurrent proximal
    companion, runs the certified IP construction, and installs the
    resulting generator.  The full axiom audit runs before returning; a
    failure raises, carrying the report, since it would mean a bug in the
    construction rather than bad input.
    """
    if not algebra.downward_closed:
        raise InputError("filters need a downward-translation algebra")
    x = encode_point(algebra)
    y = ae_solve(x)
    cert = ip_sequence_construct(x, y, count=count)
    f = PartialUltrafilter(
        generator=cert.generator,
        scope=algebra,
        trace={
            "encoded_point": x.literal,
            "ae_point": y.literal,
            "certificate": cert,
        },
    )
    report = verify_filter(f, algebra)
    if not report.all_pass:
        raise ConstructionError(f"built filter failed its audit: {report.as_dict()}")
    f.trace["report"] = report
    return f


def ultralimit(f: PartialUltrafilter, x: SymbolicPoint) -> SymbolicPoint:
    """Limit of T^n x along the filter, coordinate by coordinate.

    Coordinate i of x encodes the set A_i = {n : x_i(n) = 0}; the limit's
    symbol at position k is 0 iff A_i − k ∈ F.  The result is checked to
    be uniformly recurrent and proximal to x, as a limit along a minimal
    idempotent filter must be; failure raises, naming the check.
    """
    coords = []
    for w in x.coords:
        decided = translate_membership_set(f, w.complement())
        coords.append(decided.complement())
    y = SymbolicPoint(tuple(coords))
    if not is_uniformly_recurrent(y).recurrent:
        raise ConstructionError(
            "ultralimit is not uniformly recurrent; the generator does not "
            "behave idempotently on these coordinates"
        )
    if not are_proximal(x, y).proximal:
        raise ConstructionError("ultralimit is not proximal to its source point")
    return y


def extend_filter(
    f: PartialUltrafilter, new_scope: Algebra, count: int = 8
) -> PartialUltrafilter:
    """Extend a filter to a larger algebra, preserving old decisions.

    Solves the extension problem on the encoded points: the old scope's
    point paired with the filter's own ultralimit is extended by the new
    scope's point, and the certified IP construction over the stacked
    pair yields the new generator.  Exhaustive agreement on the old scope
    and a full audit on the new one run before returning.
    """
    if not new_scope.downward_closed:
        raise InputError("filters need a downward-translation algebra")
    missing = [x for x in f.scope.members if x not in new_scope]
    if missing:
        raise InputError(
            "new scope must contain the old one; missing "
            + ", ".join(x.literal for x in missing)
        )
    x1 = encode_point(f.scope)
    y1 = ultralimit(f, x1)
    x2 = encode_point(new_scope)
    y2 = eaet_extend(x1, y1, x2)
    cert = ip_sequence_construct(stack_points(x1, x2), stack_points(y1, y2), count=count)
    extended = PartialUltrafilter(
        generator=cert.generator,
        scope=new_scope,
        trace={
            "base_generator": f.generator.literal,
            "certificate": cert,
        },
    )
    disagreements = [
        x.literal for x in f.scope.members if extended.member(x) != f.member(x)
    ]
    if disagreements:
        raise ConstructionError(
            "extension changed old-scope decisions on " + ", ".join(disagreements)
        )
    report = verify_filter(extended, new_scope)
    if not report.all_pass:
        raise ConstructionError(f"extended filter failed its audit: {report.as_dict()}")
    extended.trace["report"] = report
    return extended


# -- central sets ------------------------------------------------------------


@dataclass(frozen=True)
class CentralReport:
    """Three independent verdicts about a set, never collapsed into one.

    ``syndetic`` is exact.  ``ip`` is exact for eventually periodic sets:
    the set is IP iff some residue class it contains has its additive
    closure inside the set's periodic residues; the report carries either
    the residue with a bounded concrete 4-term witness, or a per-residue
    refutation.  ``filter_member`` asks whether the set belongs to the
    filter built from its own downward-translation algebra.
    """

    set: str
    syndetic: GapCertificate
    ip: dict
    filter_member: bool
    filter_generator: str

    def as_dict(self) -> dict:
        syn: dict = {"syndetic": self.syndetic.syndetic}
        if self.syndetic.syndetic:
            syn["gap"] = self.syndetic.bound
        else:
            syn["empty_from"] = self.syndetic.empty_from
        return {
            "set": self.set,
            "syndetic": syn,
            "ip": self.ip,
            "filter": {
                "member": self.filter_member,
                "generator": self.filter_generator,
            },
        }


def _least_ip_witness(x: EpSet, residue: int, terms: int, bound: int) -> tuple[int, ...] | None:
    """Least ascending terms, all in x and ≡ residue, with pairwise distinct
    finite sums all in x and <= bound."""
    p = len(x.per)

    def extend(chosen: list[int], total: int, sums: frozenset[int]) -> tuple[int, ...] | None:
        if len(chosen) == terms:
            return tuple(chosen)
        v = chosen[-1] + p if chosen else (residue if residue >= 1 else residue + p)
        while total + v <= bound:
            if x.member(v):
                new = {v} | {s + v for s in sums}
                if not (new & sums) and all(x.member(s) for s in new):
                    got = extend(chosen + [v], total + v, sums | frozenset(new))
                    if got is not None:
                        return got
            v += p
        return None

    return extend([], 0, frozenset())


def central_check(x: EpSet, bound: int = 128, cap: int = 65536) -> CentralReport:
    """Report syndeticity, IP-ness, and own-algebra filter membership."""
    if bound < 1:
        raise InputError("bound must be positive")
    syndetic = x.is_syndetic()

    p = len(x.per)
    m = len(x.pre)
    good = _tail_residues(x)
    ip: dict
    if not x.is_infinite():
        ip = {"ip": False, "reason": "finite"}
    else:
        hit = next(
            (r for r in sorted(good) if subsemigroup_closure({r}, p) <= good),
            None,
        )
        if hit is not None:
            witness = _least_ip_witness(x, hit, terms=4, bound=bound)
            ip = {
                "ip": True,
                "residue": hit,
                "modulus": p,
                "closure": sorted(subsemigroup_closure({hit}, p)),
            }
            if witness is not None:
                ip["witness"] = list(witness)
                ip["witness_bound"] = bound
        else:
            refutations = []
            for r in sorted(good):
                k = next(k for k in range(1, p + 1) if (k * r) % p not in good)
                elems = []
                v = x.first_member_at_least(max(m, 1))
                while v is not None and len(elems) < k:
                    if v % p == r:
                        elems.append(v)
                    v = x.first_member_at_least(v + 1)
                total = sum(elems)
                if x.member(total):
                    raise ConstructionError(
                        f"refutation sum {total} claimed outside the set but is a member"
                    )
                refutations.append(
                    {"residue": r, "count": k, "elements": elems, "sum": total}
                )
            ip = {"ip": False, "reason": "no residue class closes up", "refutations": refutations}

    algebra = generate_algebra([x], downward=True, cap=cap)
    f = build_partial_ultrafilter(algebra)
    return CentralReport(
        set=x.literal,
        syndetic=syndetic,
        ip=ip,
        filter_member=f.member(x),
        filter_generator=f.generator.literal,
    )
