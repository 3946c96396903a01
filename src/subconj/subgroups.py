"""Subgroup enumeration up to conjugacy, and conjugacy decisions for pairs.

Subgroups are keyed by their sorted element-index sets; their conjugation
orbits come from the one walk, ``Group.conjugates``, over per-generator index
maps, so the registry work is pure integer manipulation.  Class
representatives are the lexicographically least element-sets of their orbits,
which makes reports reproducible.

Both enumerators share one cyclic-extension walk (Neubueser 1960; Cannon, Cox
& Holt, JSC 2001).  Starting from the trivial class, each representative H is
extended to <H, x> by single elements x, one per orbit of N_G(H) acting by
conjugation on the right cosets Hx: every element of a coset gives the same
extension, and conjugate cosets give conjugate extensions.  The cosets of
the powers x^k with k prime to |x| give <H, x> again and are marked with x's
orbit, so each cyclic subgroup <x> is tried once, not once per generator.
The registry already knows the number of conjugates of H, so |N_G(H)| =
|G| / orbit size comes free, and the normaliser is computed only when it is
neither G nor H.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from .caps import CapExceeded
from .groups import normalizer
from .structure import is_nilpotent, is_supersolvable, p_part, prime_factors


@dataclass
class SubgroupClass:
    """A conjugacy class of subgroups: representative plus orbit size."""

    representative: object  # Subgroup
    orbit_size: int
    _props: dict = field(default_factory=dict, repr=False)

    @property
    def order(self):
        return self.representative.order

    def is_abelian(self):
        return self.representative.is_abelian()

    def is_cyclic(self):
        return self.representative.is_cyclic()

    def is_nilpotent(self):
        if "nilpotent" not in self._props:
            rep = self.representative
            self._props["nilpotent"] = is_nilpotent(rep.parent, rep)
        return self._props["nilpotent"]

    def is_supersolvable(self):
        if "supersolvable" not in self._props:
            rep = self.representative
            self._props["supersolvable"] = is_supersolvable(rep.parent, rep)
        return self._props["supersolvable"]


class _OrbitRegistry:
    """Partition discovered subgroup element-sets into conjugation orbits."""

    def __init__(self, group):
        self.group = group
        self.cap = group.caps.orbit_key_cap
        self.class_of = {}
        self.reps = []  # class id -> Subgroup on the lexicographically least key
        self.sizes = []

    def classify(self, key):
        """Register a subgroup index-set; returns (class id, newly seen).
        Each new class's keys but the first count against ``orbit_key_cap``."""
        cid = self.class_of.get(key)
        if cid is not None:
            return cid, False
        cid = len(self.reps)
        self.class_of[key] = cid
        best, size = (tuple(sorted(key)), key), 1
        for t, _, _, m in self.group.conjugates(key):
            if m < size:
                continue
            if len(self.class_of) >= self.cap:
                raise CapExceeded("orbit keys", f"more than {self.cap} subgroup sets")
            self.class_of[t] = cid
            size += 1
            best = min(best, (tuple(sorted(t)), t))
        self.reps.append(self.group.subgroup_from_indices(best[1]))
        self.sizes.append(size)
        return cid, True

    def subgroup_classes(self):
        out = [SubgroupClass(rep, size) for rep, size in zip(self.reps, self.sizes)]
        out.sort(key=lambda c: (c.order, c.representative.key()))
        return out


def _conjugator(group, g):
    """The index map x -> g^-1 * x * g, evaluated on demand."""
    gi, mul = group.inv_idx(g), group.mul_idx
    return lambda x: mul(mul(gi, x), g)


def _coset_orbit_reps(group, rep, orbit_size, in_normalizer, wanted):
    """One x per orbit of N = N_G(H) on the right cosets Hx of H, in index
    order, skipping x with ``wanted(H, x)`` false; x runs over G, or over N
    alone when ``in_normalizer``.

    For g in N, (Hx)^g = H x^g and <H, x^g> = <H, x>^g, and <H, h x^k> =
    <H, x> for h in H and k prime to |x|, since x^k generates <x>; so once x
    is yielded, the N-orbits of the cosets H x^k add only conjugates of
    <H, x> and are marked as a whole.  |N| = |G| / ``orbit_size``
    (the number of conjugates of H): N = G when that is |G|, N = H when it is
    |H|, and only otherwise is N computed.
    """
    n = group.order()
    hset = rep.indices
    domain = range(n)
    if orbit_size == 1:
        conj = [m.__getitem__ for m in group.conj_maps()]
    elif n == orbit_size * len(hset):
        if in_normalizer:
            return
        conj = [_conjugator(group, g) for g in rep.gens_idx()]
    else:
        nz = normalizer(group, rep)
        if nz.order * orbit_size != n:  # pragma: no cover - internal check
            raise RuntimeError("normaliser order disagrees with the orbit size")
        conj = [_conjugator(group, g) for g in nz.gens_idx()]
        if in_normalizer:
            domain = sorted(nz.indices)
    covered = bytearray(n)
    for h in hset:
        covered[h] = 1
    mul = group.mul_idx
    for x in domain:
        if covered[x] or not wanted(hset, x):
            continue
        yield x
        orbit = [x]
        m = group.order_of_idx(x)
        y = x
        for k in range(2, m):
            y = mul(y, x)  # x^k
            if not covered[y] and gcd(k, m) == 1:
                covered[y] = 1
                orbit.append(y)
        for y in orbit:
            for h in group.right_coset(hset, y):
                covered[h] = 1
            for c in conj:
                z = c(y)
                if not covered[z]:
                    covered[z] = 1
                    orbit.append(z)


def _extend_classes(group, top, in_normalizer, wanted):
    """Classes of subgroups reached from the trivial class by one-element
    extensions <H, x>, x from ``_coset_orbit_reps``; classes of order ``top``
    are not extended."""
    registry = _OrbitRegistry(group)
    queue = [registry.classify(frozenset({group.identity_idx}))[0]]
    for cid in queue:
        rep = registry.reps[cid]
        if rep.order == top:
            continue
        orbit_size = registry.sizes[cid]
        for x in _coset_orbit_reps(group, rep, orbit_size, in_normalizer, wanted):
            key = group.closure_idx([x], base=rep)
            new_cid, new = registry.classify(key)
            if new:
                queue.append(new_cid)
    return registry.subgroup_classes()


def _capped_sylow_order(group, p):
    """|Syl_p(G)|, or CapExceeded when it is above ``sylow_order_cap``."""
    n = group.order()
    if n % p != 0:
        raise ValueError(f"{p} does not divide the group order {n}")
    sylow_order = p_part(n, p)
    if sylow_order > group.caps.sylow_order_cap:
        raise CapExceeded(
            "sylow order", f"|Syl_{p}| = {sylow_order} > {group.caps.sylow_order_cap}"
        )
    return sylow_order


def p_classes_of(group, classes, p):
    """The nontrivial p-subgroup classes among ``classes``, the group's
    ``all_subgroup_classes``, in their (order, key) order: the list that
    ``p_subgroup_classes`` returns, without its walk, and refused under the
    same ``sylow_order_cap``."""
    _capped_sylow_order(group, p)
    return [c for c in classes if c.order > 1 and p_part(c.order, p) == c.order]


def p_subgroup_classes(group, p):
    """Conjugacy classes of the nontrivial p-subgroups, built bottom-up.

    Each class of order p^(k+1) arises from a class representative H of order
    p^k extended by a p-element x of N_G(H) with x^p in H; completeness rests
    on maximal subgroups of p-groups being normal.  The walk starts at the
    trivial class, whose extensions are the subgroups of order p, and takes
    one x per N_G(H)-orbit of the cosets Hx inside N_G(H) (see
    ``_coset_orbit_reps``).  The trivial class is not returned.
    """
    sylow_order = _capped_sylow_order(group, p)
    p_element = group.order_mask(lambda o: o > 1 and p_part(o, p) == o)

    def wanted(hset, x):
        return p_element[x] and group.pow_idx(x, p) in hset

    classes = _extend_classes(group, sylow_order, True, wanted)[1:]
    if classes[-1].order != sylow_order:  # pragma: no cover - contradicts Sylow theory
        raise RuntimeError(f"no subgroups of order {sylow_order} found")
    return classes


def all_subgroup_classes(group):
    """Every subgroup up to conjugacy (trivial and full group included).

    Starts from the trivial class and extends each representative H by single
    elements of prime-power order; since every subgroup is generated one
    prime-power element at a time through conjugates of known classes, the
    walk is complete.  Representatives are extended by all such elements, not
    only those of N_G(H), so perfect subgroups are found too (a pure
    normalizer-driven cyclic extension would miss them).  Of the cosets Hx,
    one per N_G(H)-orbit is tried: a coset and its conjugates under N_G(H)
    give conjugate extensions (see ``_coset_orbit_reps``).
    """
    n = group.order()
    cap = group.caps.full_subgroup_cap
    if n > cap:
        raise CapExceeded("full subgroup enumeration", f"order {n} > {cap}")
    pp_element = group.order_mask(lambda o: len(prime_factors(o)) == 1)
    return _extend_classes(group, n, False, lambda hset, x: pp_element[x])


def are_conjugate(group, sub_a, sub_b):
    """A conjugator g with g^-1 * A * g = B, or None.

    Rejects on fingerprint mismatch, then walks at most ``orbit_key_cap``
    conjugates A^c of A (``Group.conjugates``) until B; the carrier c found
    is re-verified before it is handed out.
    """
    if sub_a.parent is not group or sub_b.parent is not group:
        raise ValueError("subgroups must belong to the given group")
    if sub_a.indices == sub_b.indices:
        return group.identity()
    if sub_a.fingerprint() != sub_b.fingerprint():
        return None
    gen_idx = group.gen_indices()
    mul = group.mul_idx
    cap = group.caps.orbit_key_cap
    target = sub_b.indices
    carriers = [group.identity_idx]
    for t, i, j, m in group.conjugates(sub_a.indices):
        if m < len(carriers):
            continue
        if len(carriers) >= cap:
            raise CapExceeded("orbit keys", f"conjugation orbit beyond {cap}")
        carrier = mul(carriers[i], gen_idx[j])
        if t == target:
            if sub_a.conjugate_by_idx(carrier).indices != target:  # pragma: no cover
                raise RuntimeError("conjugator failed re-verification")
            return group.perm_at(carrier)
        carriers.append(carrier)
    return None
