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

Verdicts are "member", "non-member" or "undecided" (a cap was hit); membership
is never guessed.  Every non-member verdict carries a witness pair that is
re-verified independently of the enumeration that found it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .caps import CapExceeded
from .structure import is_nilpotent, is_supersolvable, prime_factors
from .subgroups import all_subgroup_classes, are_conjugate, p_subgroup_classes


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

    def element_lists(self):
        a = tuple(str(p) for p in self.sub_a.elements())
        b = tuple(str(p) for p in self.sub_b.elements())
        return a, b


@dataclass
class ClassReport:
    group_id: str
    order: int
    verdicts: dict = field(default_factory=dict)  # ClassId -> verdict string
    witnesses: dict = field(default_factory=dict)  # ClassId -> Witness

    def verdict(self, class_id):
        return self.verdicts[class_id]


def _kind_filter(kind):
    if kind == "any":
        return lambda c: True
    if kind == "abelian":
        return lambda c: c.is_abelian()
    if kind == "cyclic":
        return lambda c: c.is_cyclic()
    if kind == "nilpotent":
        return lambda c: c.is_nilpotent()
    if kind == "supersolvable":
        return lambda c: c.is_supersolvable()
    raise ValueError(f"unknown kind {kind}")


def _pi_kind_filter(kind):
    # prime-power-order groups are nilpotent and supersolvable
    if kind in ("any", "nilpotent", "supersolvable"):
        return lambda c: True
    return _kind_filter(kind)


def _first_split_bucket(classes, keep):
    """First order bucket holding two kept classes, in deterministic order."""
    buckets = {}
    for c in classes:
        if keep(c):
            buckets.setdefault(c.order, []).append(c)
    for order in sorted(buckets):
        group = buckets[order]
        if len(group) >= 2:
            group.sort(key=lambda c: c.representative.key())
            return order, group[0], group[1]
    return None


def _cached_p_classes(group, p):
    cache = group.analysis_cache
    key = ("p_classes", p)
    if key not in cache:
        cache[key] = p_subgroup_classes(group, p)
    return cache[key]


def _cached_all_classes(group, cap=None):
    cache = group.analysis_cache
    key = "all_classes"
    if key not in cache:
        cache[key] = all_subgroup_classes(group, cap=cap)
    return cache[key]


def decide(group, class_id, full_cap=None):
    """Decide membership of the group in one class.

    Returns (verdict, witness-or-None).  Caps yield "undecided" rather than an
    error; for a plain class whose full enumeration is capped, a non-member
    verdict is still returned when the pi-counterpart already fails, since a
    prime-power witness pair is a witness for the plain class too.
    """
    if not isinstance(class_id, ClassId):
        class_id = ClassId(class_id)
    if class_id.is_pi:
        return _decide_pi(group, class_id)
    return _decide_plain(group, class_id, full_cap)


def _decide_pi(group, class_id):
    keep = _pi_kind_filter(class_id.kind)
    capped = False
    for p in prime_factors(group.order()):
        try:
            classes = _cached_p_classes(group, p)
        except CapExceeded:
            capped = True
            continue
        split = _first_split_bucket(classes, keep)
        if split is not None:
            order, ca, cb = split
            witness = _verified_witness(group, class_id, p, order, ca, cb)
            return NON_MEMBER, witness
    if capped:
        return UNDECIDED, None
    return MEMBER, None


def _decide_plain(group, class_id, full_cap=None):
    try:
        classes = _cached_all_classes(group, cap=full_cap)
    except CapExceeded:
        verdict, witness = _decide_pi(group, class_id.pi_counterpart)
        if verdict == NON_MEMBER:
            witness.class_id = class_id
            return NON_MEMBER, witness
        return UNDECIDED, None
    split = _first_split_bucket(classes, _kind_filter(class_id.kind))
    if split is not None:
        order, ca, cb = split
        witness = _verified_witness(group, class_id, None, order, ca, cb)
        return NON_MEMBER, witness
    return MEMBER, None


def _verified_witness(group, class_id, prime, order, class_a, class_b):
    w = Witness(
        class_id=class_id,
        kind=class_id.kind,
        order=order,
        prime=prime,
        sub_a=class_a.representative,
        sub_b=class_b.representative,
    )
    ok, method = verify_witness(group, w)
    if not ok:  # pragma: no cover - would mean the enumeration lied
        raise RuntimeError(f"witness for {class_id} failed re-verification")
    w.method = method
    return w


def verify_witness(group, witness):
    """Re-verify a witness independently of the enumeration that found it.

    Checks order equality and the quantified property directly on the element
    sets, then non-conjugacy: by scanning every group element when the group
    is small enough, otherwise by a full conjugation-orbit walk.
    """
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
    if group.order() <= 2000:
        mul = group.mul_idx
        inv = group.inv_idx
        target = b.indices
        agens = a.gens_idx()
        for g in range(group.order()):
            gi = inv(g)
            if all(mul(mul(gi, x), g) in target for x in agens):
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


def hierarchy_report(group, group_id="", full_cap=None, classes=tuple(ClassId)):
    """All ten verdicts with chain consistency enforced.

    Only the classes in ``classes`` are decided; the others are reported
    "undecided".  The pi computation is shared across B_pi/H_pi/N_pi by
    construction; their verdict equality is asserted anyway, as is every
    definitional containment (member of a smaller class forces member of each
    decided larger class).
    """
    report = ClassReport(group_id=group_id, order=group.order())
    for cid in ClassId:
        if cid not in classes:
            report.verdicts[cid] = UNDECIDED
            continue
        verdict, witness = decide(group, cid, full_cap=full_cap)
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
