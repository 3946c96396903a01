"""Subgroup enumeration up to conjugacy, and conjugacy decisions for pairs.

Subgroups are keyed by their sorted element-index sets; conjugation orbits are
walked with precomputed per-generator index maps, so the registry work is pure
integer manipulation.  Class representatives are the lexicographically least
element-sets of their orbits, which makes reports reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
        self.maps = group.conj_maps()
        self.cap = group.caps.orbit_key_cap
        self.class_of = {}
        self.reps = []  # class id -> lexicographically least key (sorted tuple)
        self.sizes = []

    def classify(self, key):
        """Register a subgroup index-set; returns (class id, newly seen)."""
        cid = self.class_of.get(key)
        if cid is not None:
            return cid, False
        cid = len(self.reps)
        orbit = [key]
        self.class_of[key] = cid
        best = tuple(sorted(key))
        k = 0
        while k < len(orbit):
            s = orbit[k]
            k += 1
            for m in self.maps:
                t = frozenset(map(m.__getitem__, s))
                if t not in self.class_of:
                    if len(self.class_of) >= self.cap:
                        raise CapExceeded(
                            "orbit keys", f"more than {self.cap} subgroup sets"
                        )
                    self.class_of[t] = cid
                    orbit.append(t)
                    ts = tuple(sorted(t))
                    if ts < best:
                        best = ts
        self.reps.append(best)
        self.sizes.append(len(orbit))
        return cid, True

    def subgroup_classes(self):
        out = []
        for rep, size in zip(self.reps, self.sizes):
            sub = self.group.subgroup_from_indices(rep)
            out.append(SubgroupClass(sub, size))
        out.sort(key=lambda c: (c.order, c.representative.key()))
        return out


def p_subgroup_classes(group, p):
    """Conjugacy classes of the nontrivial p-subgroups, built bottom-up.

    Each class of order p^(k+1) arises from a class representative H of order
    p^k extended by a p-element x of N_G(H) with x^p in H; completeness rests
    on maximal subgroups of p-groups being normal.
    """
    n = group.order()
    if n % p != 0:
        raise ValueError(f"{p} does not divide the group order {n}")
    sylow_order = p_part(n, p)
    if sylow_order > group.caps.sylow_order_cap:
        raise CapExceeded(
            "sylow order", f"|Syl_{p}| = {sylow_order} > {group.caps.sylow_order_cap}"
        )
    registry = _OrbitRegistry(group)
    level = []
    for i in range(n):
        if group.order_of_idx(i) == p:
            cid, new = registry.classify(frozenset(group.closure_idx([i])))
            if new:
                level.append(cid)
    size = p
    while size < sylow_order:
        grown = []
        for cid in level:
            rep = group.subgroup_from_indices(registry.reps[cid])
            base_gens = rep.gens_idx()
            nz = normalizer(group, rep)
            for x in sorted(nz.indices):
                if x in rep.indices:
                    continue
                o = group.order_of_idx(x)
                if o != p_part(o, p):
                    continue
                if group.pow_idx(x, p) not in rep.indices:
                    continue
                key = group.closure_idx([x], base=rep.indices, base_gens=base_gens)
                new_cid, new = registry.classify(key)
                if new:
                    grown.append(new_cid)
        if not grown:  # pragma: no cover - contradicts Sylow theory
            raise RuntimeError(f"no subgroups of order {size * p} found")
        level = grown
        size *= p
    return registry.subgroup_classes()


def all_subgroup_classes(group):
    """Every subgroup up to conjugacy (trivial and full group included).

    Starts from the trivial class and extends each representative H by single
    elements of prime-power order, one per coset of H; since every subgroup is
    generated one prime-power element at a time through conjugates of known
    classes, the walk is complete.  Representatives are extended by all such
    elements, so perfect subgroups are found too (a pure normalizer-driven
    cyclic extension would miss them).
    """
    n = group.order()
    cap = group.caps.full_subgroup_cap
    if n > cap:
        raise CapExceeded("full subgroup enumeration", f"order {n} > {cap}")
    registry = _OrbitRegistry(group)
    trivial = frozenset({group.identity_idx})
    queue = []
    cid, _ = registry.classify(trivial)
    queue.append(cid)
    pp_element = [False] * n
    for i in range(n):
        o = group.order_of_idx(i)
        pp_element[i] = o > 1 and len(prime_factors(o)) == 1
    head = 0
    while head < len(queue):
        cid = queue[head]
        head += 1
        rep_key = registry.reps[cid]
        rep = group.subgroup_from_indices(rep_key)
        if rep.order == n:
            continue
        base_gens = rep.gens_idx()
        covered = set(rep.indices)
        for x in range(n):
            if x in covered or not pp_element[x]:
                continue
            key = group.closure_idx([x], base=rep.indices, base_gens=base_gens)
            new_cid, new = registry.classify(key)
            if new:
                queue.append(new_cid)
            # elements of the coset Hx generate the same extension
            covered.update(map(group.right_row(x).__getitem__, rep_key))
    return registry.subgroup_classes()


def are_conjugate(group, sub_a, sub_b):
    """A conjugator g with g^-1 * A * g = B, or None.

    Rejects on fingerprint mismatch, then walks the conjugation orbit of A
    with a visited set on element-set keys; any returned conjugator is
    re-verified before it is handed out.
    """
    if sub_a.parent is not group or sub_b.parent is not group:
        raise ValueError("subgroups must belong to the given group")
    if sub_a.indices == sub_b.indices:
        return group.identity()
    if sub_a.fingerprint() != sub_b.fingerprint():
        return None
    maps = group.conj_maps()
    gen_idx = group.gen_indices()
    mul = group.mul_idx
    cap = group.caps.orbit_key_cap
    start = sub_a.indices
    target = sub_b.indices
    carriers = {start: group.identity_idx}
    queue = [start]
    head = 0
    while head < len(queue):
        s = queue[head]
        head += 1
        g_s = carriers[s]
        for m, g in zip(maps, gen_idx):
            t = frozenset(map(m.__getitem__, s))
            if t in carriers:
                continue
            if len(carriers) >= cap:
                raise CapExceeded("orbit keys", f"conjugation orbit beyond {cap}")
            carrier = mul(g_s, g)
            carriers[t] = carrier
            if t == target:
                perm = group.perm_at(carrier)
                conj = sub_a.conjugate_by_idx(carrier)
                if conj.indices != target:  # pragma: no cover - internal check
                    raise RuntimeError("conjugator failed re-verification")
                return perm
            queue.append(t)
    return None
