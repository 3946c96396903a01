"""Structural invariants: series, Sylow theory, cores, shapes, isomorphism.

Everything here is exact.  The expensive scans stay behind the caps carried by
the group; all functions are pure over immutable groups.
"""

from __future__ import annotations

from dataclasses import dataclass

from .caps import CapExceeded
from .fields import is_prime
from .groups import center, is_normal, normalizer


def prime_factors(n):
    """Ascending list of distinct primes dividing n."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def p_part(n, p):
    m = 1
    while n % p == 0:
        n //= p
        m *= p
    return m


def derived_subgroup(group, sub=None):
    """[H, H] for a normal subgroup handle (the whole group when omitted).

    H must be normal in G, as every term of the derived series is: then
    [H, H] is normal in G too, so it is the normal closure in G of the
    commutators of H's generators.
    """
    if sub is None:
        sub = group.full_subgroup()
    elif not is_normal(group, sub):
        raise ValueError("derived_subgroup needs a normal subgroup")
    gens = sub.gens_idx()
    mul = group.mul_idx
    inv = group.inv_idx
    seed = [mul(mul(mul(inv(a), inv(b)), a), b) for a in gens for b in gens]
    return group.subgroup_from_indices(group.normal_closure_idx(seed))


def derived_series(group):
    """G >= G' >= G'' >= ... until the series stabilizes."""
    series = [group.full_subgroup()]
    while True:
        nxt = derived_subgroup(group, series[-1])
        if nxt.order == series[-1].order:
            return series
        series.append(nxt)
        if nxt.order == 1:
            return series


def is_solvable(group):
    return derived_series(group)[-1].order == 1


def is_nilpotent(group, sub=None):
    """Whether a subgroup handle H (the whole group when omitted) is nilpotent.

    H is nilpotent iff every Sylow subgroup is normal, i.e. unique.  The
    Sylow p-subgroups together hold every p-element, so that is the case iff
    H has exactly |H|_p elements of p-power order for every prime p.
    """
    if sub is None:
        sub = group.full_subgroup()
    counts = sub.element_order_counter()
    for p in prime_factors(sub.order):
        p_elements = sum(c for o, c in counts.items() if p_part(o, p) == o)
        if p_elements != p_part(sub.order, p):
            return False
    return True


def sylow_subgroup(group, p, containing=None):
    """A Sylow p-subgroup, grown from a p-element through normalizers.

    ``containing`` may name a p-element to start the growth from; different
    starting elements can land in different (conjugate) Sylow subgroups.
    """
    n = group.order()
    if n % p != 0:
        raise ValueError(f"{p} does not divide the group order {n}")
    target = p_part(n, p)
    group._materialize()
    seed = None
    if containing is not None:
        seed = group.index_of(containing)
        o = group.order_of_idx(seed)
        if o == 1 or o != p_part(o, p):
            raise ValueError("starting element must be a nontrivial p-element")
    else:
        for i in range(n):
            o = group.order_of_idx(i)
            if o % p == 0:
                # power down to the p-part of the element order
                seed = i
                rest = o // p_part(o, p)
                if rest > 1:
                    t = group.perm_at(i) ** rest
                    seed = group.index_of(t)
                break
    current = group.subgroup_from_indices(group.closure_idx([seed]), (seed,))
    while current.order < target:
        nz = normalizer(group, current)
        ext = None
        for i in sorted(nz.indices):
            if i in current.indices:
                continue
            o = group.order_of_idx(i)
            if o == p_part(o, p):
                ext = i
                break
        if ext is None:  # pragma: no cover - impossible by Sylow theory
            raise RuntimeError("no p-element found in the normalizer")
        grown = group.closure_idx(
            [ext], base=current.indices, base_gens=current.gens_idx()
        )
        current = group.subgroup_from_indices(grown, (*current.gens_idx(), ext))
    return current


def core_p(group, p):
    """O_p(G): the intersection of all conjugates of one Sylow p-subgroup."""
    syl = sylow_subgroup(group, p)
    maps = group.conj_maps()
    cap = group.caps.orbit_key_cap
    seen = {syl.indices}
    queue = [syl.indices]
    core = set(syl.indices)
    while queue:
        s = queue.pop()
        for m in maps:
            t = frozenset(map(m.__getitem__, s))
            if t not in seen:
                if len(seen) >= cap:
                    raise CapExceeded("orbit keys", f"Sylow orbit beyond {cap}")
                seen.add(t)
                queue.append(t)
                core &= t
    return group.subgroup_from_indices(core)


def fitting_subgroup(group):
    """F(G): the product of the cores O_p(G) over the primes dividing |G|."""
    seed = set()
    for p in prime_factors(group.order()):
        seed |= core_p(group, p).indices
    return group.subgroup_from_indices(group.closure_idx(sorted(seed)))


def normal_subgroups(group):
    """All normal subgroups, via joins of element-class closures."""
    trivial = frozenset({group.identity_idx})
    found = {trivial}
    queue = [trivial]
    classes = [c for c in group.conjugacy_classes_idx() if len(c) > 1 or c[0] != group.identity_idx]
    reps = [c[0] for c in classes]
    while queue:
        current = queue.pop()
        base_gens = group.subgroup_from_indices(current).gens_idx()
        for rep in reps:
            if rep in current:
                continue
            bigger = group.normal_closure_idx([*base_gens, rep])
            if bigger not in found:
                found.add(bigger)
                queue.append(bigger)
    subs = [group.subgroup_from_indices(s) for s in found]
    subs.sort(key=lambda s: (s.order, s.key()))
    return subs


def o_pprime(group, p):
    """O_{p'}(G): the largest normal subgroup of order coprime to p.

    Grows K = 1 by element classes.  Every normal p'-subgroup lies in
    O_{p'}(G), so while K does, the normal closure of K and x has p'-order
    exactly when x lies in O_{p'}(G); one pass over the classes absorbs them all.
    """
    members = frozenset({group.identity_idx})
    normal_gens = []
    for cls in group.conjugacy_classes_idx():
        x = cls[0]
        if x in members or group.order_of_idx(x) % p == 0:
            continue
        grown = group.normal_closure_idx([*normal_gens, x])
        if len(grown) % p:
            members = grown
            normal_gens.append(x)
    return group.subgroup_from_indices(members)


# ----------------------------------------------------------------------
# Sylow shapes


@dataclass(frozen=True)
class SylowShape:
    tag: str  # Cyclic | ElementaryAbelian | QuaternionQ8 | GeneralizedQuaternion | Dihedral | Other
    p: int
    order: int
    rank: int = 0  # only for ElementaryAbelian

    def __str__(self):
        if self.tag == "ElementaryAbelian":
            return f"E_{self.p}^{self.rank}"
        if self.tag == "Cyclic":
            return f"C_{self.order}"
        if self.tag == "QuaternionQ8":
            return "Q8"
        if self.tag == "GeneralizedQuaternion":
            return f"Q{self.order}"
        if self.tag == "Dihedral":
            return f"D{self.order}"
        return f"Other({self.order})"


def sylow_shape(sub):
    """Classify a p-group handle into the shape taxonomy."""
    n = sub.order
    ps = prime_factors(n)
    if len(ps) != 1:
        raise ValueError(f"subgroup of order {n} is not a p-group")
    p = ps[0]
    counts = sub.element_order_counter()
    max_order = max(counts)
    if max_order == n:
        return SylowShape("Cyclic", p, n)
    if sub.is_abelian():
        if max_order == p:
            rank = 0
            m = n
            while m > 1:
                m //= p
                rank += 1
            return SylowShape("ElementaryAbelian", p, n, rank)
        return SylowShape("Other", p, n)
    if p == 2 and counts.get(2, 0) == 1:
        if n == 8:
            return SylowShape("QuaternionQ8", 2, 8)
        if n >= 16:
            return SylowShape("GeneralizedQuaternion", 2, n)
    if p == 2 and n >= 8 and _is_dihedral_2group(sub, n):
        return SylowShape("Dihedral", 2, n)
    return SylowShape("Other", p, n)


def _is_dihedral_2group(sub, n):
    # a rotation of order n/2 plus an inverting involution outside it
    parent = sub.parent
    half = n // 2
    for r in sorted(sub.indices):
        if parent.order_of_idx(r) != half:
            continue
        raxis = parent.closure_idx([r])
        rperm = parent.perm_at(r)
        rinv = rperm.inverse()
        for t in sorted(sub.indices):
            if t in raxis or parent.order_of_idx(t) != 2:
                continue
            tperm = parent.perm_at(t)
            if tperm * rperm * tperm == rinv:
                return True
        return False
    return False


# ----------------------------------------------------------------------
# fingerprints and small-order isomorphism


@dataclass(frozen=True)
class StructuralFingerprint:
    order: int
    element_orders: tuple  # sorted (order, count) pairs
    sylow_shapes: tuple  # sorted (p, tag, order, rank)
    solvable: bool
    nilpotent: bool
    center_order: int
    derived_order: int


def structural_fingerprint(group):
    counts = group.full_subgroup().element_order_counter()
    shapes = []
    for p in prime_factors(group.order()):
        s = sylow_shape(sylow_subgroup(group, p))
        shapes.append((p, s.tag, s.order, s.rank))
    return StructuralFingerprint(
        order=group.order(),
        element_orders=tuple(sorted(counts.items())),
        sylow_shapes=tuple(shapes),
        solvable=is_solvable(group),
        nilpotent=is_nilpotent(group),
        center_order=center(group).order,
        derived_order=derived_subgroup(group).order,
    )


def is_supersolvable(group, sub=None):
    """Whether a subgroup handle H (the whole group when omitted) is
    supersolvable: has a series of normal subgroups of H with cyclic factors.

    Grows N = 1 by steps <N, x> of prime index over N that are normal in H.
    Every quotient H/N of a supersolvable H is supersolvable, so it has a
    normal subgroup of prime order; the growth therefore stalls below H
    exactly when H is not supersolvable.
    """
    if sub is None:
        sub = group.full_subgroup()
    mul = group.mul_idx
    inv = group.inv_idx
    hgens = sub.gens_idx()
    members = frozenset({group.identity_idx})
    gens = []
    while len(members) < sub.order:
        tried = set(members)
        for x in sorted(sub.indices):
            if x in tried:
                continue
            grown = group.closure_idx([x], base=members, base_gens=gens)
            if not is_prime(len(grown) // len(members)):
                continue
            if all(mul(mul(inv(h), x), h) in grown for h in hgens):
                members = grown
                gens.append(x)
                break
            # every element of grown outside N generates grown over N
            tried |= grown
        else:
            return False
    return True


def _element_invariants(group):
    """Per element: (order, conjugacy class size)."""
    inv = [None] * group.order()
    for cls in group.conjugacy_classes_idx():
        size = len(cls)
        for i in cls:
            inv[i] = (group.order_of_idx(i), size)
    return inv


def is_isomorphic_small(a, b, cap=None):
    """Exact isomorphism decision by generator-image backtracking.

    Only available up to the configured cap; beyond it callers must fall back
    to fingerprint comparison and say so.
    """
    if cap is None:
        cap = a.caps.iso_cap
    if a.order() != b.order():
        return False
    if a.order() > cap:
        raise CapExceeded("isomorphism search", f"order {a.order()} > {cap}")
    if structural_fingerprint(a) != structural_fingerprint(b):
        return False
    # greedy: largest element orders first, which keeps the search shallow
    gens = a.subgroup_from_indices(range(a.order())).gens_idx()
    if not gens:
        return True
    inv_a = _element_invariants(a)
    inv_b = _element_invariants(b)
    candidates = [
        [j for j in range(b.order()) if inv_b[j] == inv_a[g]] for g in gens
    ]

    id_map = {a.identity_idx: b.identity_idx}

    def extend(phi, pairs, a_gen, b_gen):
        phi = dict(phi)
        image = set(phi.values())
        pairs = pairs + [(a_gen, b_gen)]
        if a_gen in phi:
            return phi if phi[a_gen] == b_gen else None
        if b_gen in image:
            return None
        phi[a_gen] = b_gen
        image.add(b_gen)
        queue = list(phi)
        while queue:
            x = queue.pop()
            fx = phi[x]
            for ga, gb in pairs:
                y = a.mul_idx(x, ga)
                fy = b.mul_idx(fx, gb)
                known = phi.get(y)
                if known is None:
                    if fy in image:
                        return None
                    phi[y] = fy
                    image.add(fy)
                    queue.append(y)
                elif known != fy:
                    return None
        return phi

    def search(phi, pairs, k):
        if k == len(gens):
            return len(phi) == a.order()
        for b_gen in candidates[k]:
            bigger = extend(phi, pairs, gens[k], b_gen)
            if bigger is not None and search(bigger, pairs + [(gens[k], b_gen)], k + 1):
                return True
        return False

    return search(id_map, [], 0)
