"""Membership in the conjugacy classes of groups, with verified witnesses.

Ten predicates are decided per group.  The "pi" variants quantify over
subgroups of prime-power order, the plain variants over subgroups of every
order; each letter restricts the kind of subgroup quantified:

    B/B_pi  all subgroups            H/H_pi  supersolvable subgroups
    N/N_pi  nilpotent subgroups      A/A_pi  abelian subgroups
    C/C_pi  cyclic subgroups

A group belongs to a class when every two quantified subgroups of equal order
are conjugate.  Since prime-power-order groups are nilpotent (hence
supersolvable), B_pi, H_pi and N_pi are decided by the same computation; the
report still carries all three verdicts and asserts their equality.

Each verdict reads its subgroup classes one order at a time, smallest first,
and stops at the first order holding two non-conjugate quantified subgroups.
It reads only the orders that can hold two classes: not 1 or |G|, which
hold one subgroup each, no order past the largest a proper subgroup can have
(``Group._closure_bound``), and no |G|_p, since the Sylow p-subgroups are
all conjugate.  A cyclic G has one subgroup of each order, so its plain
verdicts are members with no walk.
B, H, N and A read the one order-graded walk that ``all_subgroup_classes``
keeps.  B reads its complete list.  H, N and A read the classes it reaches
by taking x from N_G(H) only, which are every solvable class: supersolvable,
nilpotent and abelian subgroups are all solvable, so their kind filters keep
the same classes from either list, and that walk never builds the
non-solvable classes that none of them reads.  B_pi, H_pi, N_pi and A_pi
read ``p_subgroup_classes`` per prime, which alone picks the walk that
answers, so a pi verdict never depends on the verdicts asked before it.  C
and C_pi walk no subgroups: <x> and <y> are conjugate exactly when x is
conjugate to y^k for some k prime to |y|, so the cyclic classes of each
order come from the rational classes of the elements, which
``Group.rational_classes`` merges from the conjugacy classes.  A prime
whose Sylow subgroup is cyclic is skipped by every pi verdict, since it
has one class of each p-power order.

Verdicts are "member", "non-member" or "undecided" (a cap was hit); membership
is never guessed.  Every non-member verdict carries a witness pair that is
re-verified independently of the enumeration that found it.  The classes are
nested, so one pair often witnesses several verdicts of a group: each distinct
pair is proved non-conjugate once per group, and every witness of it still
runs its own order, property and p-subgroup checks.  The public
:func:`verify_witness` is never cached; it always runs the whole check.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from itertools import compress, islice
from operator import attrgetter, methodcaller

from .caps import CapExceeded
from .fields import divisors
from .structure import is_nilpotent, is_supersolvable, p_part, prime_factors
from .subgroups import (
    _OrbitRegistry,
    _walk_classes,
    all_subgroup_classes,
    are_conjugate,
    p_subgroup_classes,
)


class ClassId(Enum):
    B = "B"
    H = "H"
    N = "N"
    A = "A"
    C = "C"
    B_PI = "B_pi"
    H_PI = "H_pi"
    N_PI = "N_pi"
    A_PI = "A_pi"
    C_PI = "C_pi"

    @property
    def is_pi(self):
        return self.value.endswith("_pi")

    @property
    def pi_counterpart(self):
        return self if self.is_pi else ClassId(self.value + "_pi")

    @property
    def kind(self):
        """Which subgroups the class quantifies over."""
        return {
            "B": "any",
            "H": "supersolvable",
            "N": "nilpotent",
            "A": "abelian",
            "C": "cyclic",
        }[self.value[0]]


MEMBER = "member"
NON_MEMBER = "non-member"
UNDECIDED = "undecided"

# largest group order whose witnesses are re-verified by scanning every element
_SCAN_ORDER = 2000

# definitional containments: member of key implies member of each value
_CHAIN = {
    ClassId.B: (ClassId.H,),
    ClassId.H: (ClassId.N,),
    ClassId.N: (ClassId.A,),
    ClassId.A: (ClassId.C,),
    ClassId.B_PI: (ClassId.H_PI,),
    ClassId.H_PI: (ClassId.N_PI,),
    ClassId.N_PI: (ClassId.A_PI,),
    ClassId.A_PI: (ClassId.C_PI,),
}


@dataclass
class Witness:
    """Two equal-order, non-conjugate subgroups of the quantified kind."""

    class_id: ClassId
    kind: str
    order: int
    prime: int | None
    sub_a: object  # Subgroup
    sub_b: object  # Subgroup
    method: str = ""  # how non-conjugacy was re-verified


@dataclass
class ClassReport:
    group_id: str
    order: int
    verdicts: dict = field(default_factory=dict)  # ClassId -> verdict string
    witnesses: dict = field(default_factory=dict)  # ClassId -> Witness

    def verdict(self, class_id):
        return self.verdicts[class_id]


def _kind_filter(kind, pi=False):
    """Which subgroup classes a verdict of ``kind`` quantifies over: every
    class for "any", and for a pi verdict also for "nilpotent" and
    "supersolvable", since groups of prime-power order are both; else those
    whose ``is_<kind>`` test holds."""
    if kind == "any" or pi and kind in ("nilpotent", "supersolvable"):
        return lambda c: True
    return methodcaller(f"is_{kind}")


def _first_split_bucket(buckets, keep):
    """First of ``buckets`` holding two kept classes: (order, class, class)
    for its two kept classes of least key, or None.  ``buckets`` are class
    lists of one order each, in key order, smallest order first; ``keep`` is
    called only in buckets of two or more classes, and no bucket after the
    split is read."""
    for bucket in buckets:
        if len(bucket) < 2:
            continue
        kept = list(islice(filter(keep, bucket), 2))
        if len(kept) == 2:
            return kept[0].order, kept[0], kept[1]
    return None


def _read_buckets(group, name, walk, orders):
    """The classes of each order d in ``orders`` (ascending), cut from
    ``walk(d)``, a graded walk that runs no further than the last bucket
    read.  Each bucket is kept in ``group.analysis_cache[name]`` for the
    verdicts that read it next."""
    read = group.analysis_cache.setdefault(name, {})
    for d in orders:
        if d not in read:
            classes = walk(d)
            read[d] = classes[bisect_left(classes, d, key=attrgetter("order")) :]
        yield read[d]


def _walk_buckets(group, orders, complete=True):
    """The classes of each order in ``orders``, read off the graded walk of
    ``all_subgroup_classes``: all of them when ``complete``, else those its
    walk inside normalisers reaches, which hold every solvable class."""
    if complete:
        return _read_buckets(
            group, "order buckets", lambda d: all_subgroup_classes(group, d), orders
        )
    return _read_buckets(
        group, "solvable buckets", lambda d: _walk_classes(group, d), orders
    )


def _p_orders(group, p):
    """The p-power orders at which a pi verdict can split: p, p^2, ... below
    |G|_p, since the Sylow p-subgroups are all conjugate (Sylow)."""
    return divisors(p_part(group.order(), p))[1:-1]


def _split_orders(group):
    """The orders at which a plain verdict can split: those that can hold
    two classes of subgroups.  Left out are 1 and |G|, which hold one
    subgroup each, every order above ``Group._closure_bound()``, which no
    proper subgroup reaches, and every |G|_p, whose Sylow subgroups are all
    conjugate.  The rational classes are built first, so that the bound
    comes from the class sizes."""
    n = group.order()
    group.rational_classes()
    bound = group._closure_bound()
    sylow = {p_part(n, p) for p in prime_factors(n)}
    return [d for d in divisors(n)[1:] if d <= bound and d not in sylow]


def _p_buckets(group, p):
    """The p-subgroup classes of each order p, p^2, ... below |G|_p (see
    ``_p_orders``), read off ``p_subgroup_classes``, which picks the walk
    that answers them."""
    orders = _p_orders(group, p)
    return _read_buckets(
        group, ("p buckets", p), lambda d: p_subgroup_classes(group, p, d), orders
    )


def _cyclic_buckets(group, orders):
    """The classes of cyclic subgroups of each order in ``orders``, in key
    order, as the full walk lists them, with no subgroup walk.

    <x> and <y> are conjugate exactly when x is conjugate to y^k for some k
    prime to |y| (Holt, Eick & O'Brien, Handbook of Computational Group
    Theory, 2005), so the cyclic subgroups of order d make one class per
    rational class of elements of order d.  A bucket of fewer than two such
    classes cannot split, and is left as its list of generators.  In a
    larger one each <x> is classified through an ``_OrbitRegistry``, which
    gives the walk's least-key representatives and orbit sizes and counts
    the bucket's subgroup sets against ``stored_index_cap``; the bucket is kept
    in ``group.analysis_cache``.
    """
    by_order = group.rational_classes()
    read = group.analysis_cache.setdefault("cyclic buckets", {})
    for d in orders:
        xs = by_order.get(d, [])
        if len(xs) > 1 and d not in read:
            registry = _OrbitRegistry(group)
            for x in xs:
                registry.classify(group.closure_idx([x]))
            read[d] = sorted(registry.classes, key=lambda c: c.representative.key())
        yield read.get(d, xs)


def decide(group, class_id):
    """Decide membership of the group in one class.

    Returns (verdict, witness-or-None).  Every bound comes from ``group.caps``
    (the environment defaults, or ``Group(..., caps=Caps(...))``).  Caps yield
    "undecided" rather than an error; for a plain class whose full enumeration
    is capped, a non-member verdict is still returned when the pi-counterpart
    already fails, since a prime-power witness pair is a witness for the plain
    class too.
    """
    if not isinstance(class_id, ClassId):
        class_id = ClassId(class_id)
    if class_id.is_pi:
        return _decide_pi(group, class_id)
    return _decide_plain(group, class_id)


def _decide_pi(group, class_id):
    keep = _kind_filter(class_id.kind, pi=True)
    n = group.order()
    capped = False
    for p in prime_factors(n):
        try:
            # a cyclic Sylow subgroup: one class per p-power order, so no
            # walk is needed
            if p_part(n, p) in group.rational_classes():
                continue
            if class_id.kind == "cyclic":
                orders = _p_orders(group, p)
                split = _first_split_bucket(_cyclic_buckets(group, orders), keep)
            else:
                split = _first_split_bucket(_p_buckets(group, p), keep)
        except CapExceeded:
            capped = True
            continue
        if split is not None:
            order, ca, cb = split
            witness = _verified_witness(
                group, class_id, p, order, ca.representative, cb.representative
            )
            return NON_MEMBER, witness
    if capped:
        return UNDECIDED, None
    return MEMBER, None


def _decide_plain(group, class_id):
    """The verdict of a plain class, read at ``_split_orders`` alone.  A
    cyclic G, with one subgroup of each order, is a member with no walk."""
    n = group.order()
    try:
        if n == 1 or n in group.rational_classes():
            return MEMBER, None
        orders = _split_orders(group)
        if class_id.kind == "cyclic":
            buckets = _cyclic_buckets(group, orders)
        else:
            buckets = _walk_buckets(group, orders, class_id.kind == "any")
        split = _first_split_bucket(buckets, _kind_filter(class_id.kind))
    except CapExceeded:
        verdict, witness = _decide_pi(group, class_id.pi_counterpart)
        if verdict == NON_MEMBER:
            witness.class_id = class_id
            return NON_MEMBER, witness
        return UNDECIDED, None
    if split is not None:
        order, ca, cb = split
        witness = _verified_witness(
            group, class_id, None, order, ca.representative, cb.representative
        )
        return NON_MEMBER, witness
    return MEMBER, None


def _verified_witness(group, class_id, prime, order, sub_a, sub_b):
    """The witness (sub_a, sub_b) for ``class_id``, re-verified.  Each
    distinct pair is proved non-conjugate once per group, by
    :func:`verify_witness`; a later witness of the same pair runs only its
    own checks and reuses the proof's method, kept in
    ``group.analysis_cache``."""
    w = Witness(
        class_id=class_id,
        kind=class_id.kind,
        order=order,
        prime=prime,
        sub_a=sub_a,
        sub_b=sub_b,
    )
    proved = group.analysis_cache.setdefault("witness pairs", {})
    pair = (sub_a.indices, sub_b.indices)
    if pair in proved:
        ok, method = _witness_checks(w)
        if ok:
            method = proved[pair]
    else:
        ok, method = verify_witness(group, w)
        if ok:
            proved[pair] = method
    if not ok:  # would mean the enumeration lied
        raise RuntimeError(f"witness for {class_id} failed re-verification: {method}")
    w.method = method
    return w


def verify_witness(group, witness):
    """Re-verify a witness independently of the enumeration that found it.

    Checks order equality and the quantified property directly on the element
    sets, then non-conjugacy: by scanning every group element when the group
    has order at most ``_SCAN_ORDER``, otherwise by a full conjugation-orbit
    walk.  Nothing is cached: every call runs the whole check.
    """
    ok, failure = _witness_checks(witness)
    if not ok:
        return False, failure
    return _non_conjugacy(group, witness.sub_a, witness.sub_b)


def _witness_checks(witness):
    """The checks of one witness that do not involve conjugation: (True, "")
    or (False, what failed)."""
    a, b = witness.sub_a, witness.sub_b
    if a.order != b.order or a.order != witness.order:
        return False, "order mismatch"
    for sub in (a, b):
        if not _property_holds(sub, witness.kind):
            return False, f"{witness.kind} property failed"
    if witness.prime is not None:
        for sub in (a, b):
            if len(prime_factors(sub.order)) != 1 or sub.order % witness.prime:
                return False, "not a p-subgroup"
    return True, ""


def _non_conjugacy(group, a, b):
    """(True, method) when a and b are not conjugate in the group, else
    (False, "conjugate after all")."""
    if group.order() <= _SCAN_ORDER:
        mul = group.mul_idx
        inv = group.inv_idx
        target = b.indices
        # every g, narrowed to those that conjugate each generator of A into B
        gs = range(group.order())
        for x in a.gens_idx():
            inside = map(target.__contains__, group.conjugates_by(x, gs))
            gs = list(compress(gs, inside))
        for g in gs:
            gi = inv(g)
            if frozenset(mul(mul(gi, x), g) for x in a.indices) == target:
                return False, "conjugate after all"
        return True, "exhaustive-scan"
    if are_conjugate(group, a, b) is not None:
        return False, "conjugate after all"
    return True, "orbit-walk"


def _property_holds(sub, kind):
    # independent spot checks on the raw element set
    parent = sub.parent
    mul = parent.mul_idx
    if kind == "any":
        return True
    if kind == "cyclic":
        return any(parent.order_of_idx(i) == sub.order for i in sub.indices)
    if kind == "abelian":
        idx = sorted(sub.indices)
        return all(mul(x, y) == mul(y, x) for x in idx for y in idx)
    if kind == "nilpotent":
        return is_nilpotent(parent, sub)
    if kind == "supersolvable":
        return is_supersolvable(parent, sub)
    raise ValueError(kind)


def hierarchy_report(group, group_id="", classes=tuple(ClassId)):
    """All ten verdicts with chain consistency enforced.

    Only the classes in ``classes`` are decided; the others are reported
    "undecided".  Ids may be ``ClassId`` members or their values, as in
    :func:`decide`; an unknown id raises ValueError.  Bounds come from
    ``group.caps`` alone, as in :func:`decide`.
    The pi computation is shared across B_pi/H_pi/N_pi by construction; their
    verdict equality is asserted anyway, as is every definitional containment
    (member of a smaller class forces member of each decided larger class).
    """
    classes = set(map(ClassId, classes))
    report = ClassReport(group_id=group_id, order=group.order())
    for cid in ClassId:
        if cid not in classes:
            report.verdicts[cid] = UNDECIDED
            continue
        verdict, witness = decide(group, cid)
        report.verdicts[cid] = verdict
        if witness is not None:
            report.witnesses[cid] = witness
    trio = [report.verdicts[c] for c in (ClassId.B_PI, ClassId.H_PI, ClassId.N_PI)]
    decided_trio = [v for v in trio if v != UNDECIDED]
    if len(set(decided_trio)) > 1:  # pragma: no cover - shared computation
        raise RuntimeError("B_pi/H_pi/N_pi verdicts disagree")
    _enforce_chain(report)
    return report


def _enforce_chain(report):
    for smaller, largers in _CHAIN.items():
        if report.verdicts.get(smaller) != MEMBER:
            continue
        for larger in largers:
            if report.verdicts.get(larger) == NON_MEMBER:
                raise RuntimeError(
                    f"chain violated: {smaller.value} member but "
                    f"{larger.value} non-member"
                )
    for plain in (ClassId.B, ClassId.H, ClassId.N, ClassId.A, ClassId.C):
        if (
            report.verdicts.get(plain) == MEMBER
            and report.verdicts.get(plain.pi_counterpart) == NON_MEMBER
        ):
            raise RuntimeError(
                f"chain violated: {plain.value} member but pi variant non-member"
            )
