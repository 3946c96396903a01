"""Structural invariants: series, Sylow theory, cores, shapes, isomorphism.

Everything here is exact.  The expensive scans stay behind the caps carried by
the group; all functions are pure over immutable groups.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from .caps import CapExceeded
from .fields import is_prime, prime_powers
from .groups import Subgroup, center, extend_homomorphism, is_normal
# normalizer is not called here, but bench/tracing.py wraps it by this name
from .groups import normalizer  # noqa: F401


def prime_factors(n):
    """Ascending list of distinct primes dividing n."""
    return list(prime_powers(n))


def p_part(n, p):
    m = 1
    while n % p == 0:
        n //= p
        m *= p
    return m


def derived_subgroup(group, sub=None):
    """[H, H] for a normal subgroup handle; G', read off the kept
    ``derived_series``, when it is omitted.

    H must be normal in G, as every term of the derived series is: then
    [H, H] is normal in G too, so it is the normal closure in G of the
    commutators of H's generators.
    """
    if sub is None:
        series = derived_series(group)
        return series[1] if len(series) > 1 else series[0]
    if not is_normal(group, sub):
        raise ValueError("derived_subgroup needs a normal subgroup")
    gens = sub.gens_idx()
    mul = group.mul_idx
    inv = group.inv_idx
    seed = [mul(mul(mul(inv(a), inv(b)), a), b) for a in gens for b in gens]
    return group._normal_closure(seed)


def derived_series(group):
    """G >= G' >= G'' >= ... until the series stabilizes, as a tuple.

    It is computed once per group and kept in ``group.analysis_cache`` as
    (indices, generators) pairs, which do not refer back to the group, so a
    group built for one comparison is freed without the cyclic collector.
    """
    kept = group.analysis_cache.get("derived series")
    if kept is None:
        series = [group.full_subgroup()]
        while series[-1].order > 1:
            nxt = derived_subgroup(group, series[-1])
            if nxt.order == series[-1].order:
                break
            series.append(nxt)
        kept = tuple((s.indices, s.gens_idx()) for s in series)
        group.analysis_cache["derived series"] = kept
    return tuple(Subgroup(group, indices, gens) for indices, gens in kept)


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


def sylow_subgroup(group, p):
    """A Sylow p-subgroup: the one kept in the group's ``analysis_cache``
    under ("sylow", p), else <x> for the least x of order p when |G|_p = p,
    else the p-elements when they are |G|_p many, else one grown by element
    tests.

    Every p-element lies in some Sylow p-subgroup, so exactly |G|_p of them
    means one Sylow subgroup holds them all, and it is normal; that set is
    returned as it is.  Otherwise the growth starts from the p-part of the
    first element (by index) of order divisible by p; while the subgroup P is
    below |G|_p, it is extended by the first p-element y outside P with
    y^-1 x y in P for every generator x of P, which is the first p-element of
    N_G(P) outside P (Holt, Eick & O'Brien, Handbook of Computational Group
    Theory, 2005, 4.7).
    """
    kept = group.analysis_cache.get(("sylow", p))
    if kept is not None:
        return kept
    n = group.order()
    if n % p != 0:
        raise ValueError(f"{p} does not divide the group order {n}")
    target = p_part(n, p)
    if target == p:
        return group.trivial_subgroup().join(group.rational_classes()[p][:1])
    p_elements = list(compress(range(n), group.order_mask(lambda o: p_part(o, p) == o)))
    if len(p_elements) == target:
        return group.subgroup_from_indices(p_elements)
    for i in range(n):
        o = group.order_of_idx(i)
        if o % p == 0:
            # power down to the p-part of the element order
            seed = group.pow_idx(i, o // p_part(o, p))
            break
    mul, inv = group.mul_idx, group.inv_idx
    current = group.trivial_subgroup().join([seed])
    while current.order < target:
        hset, gens = current.indices, current.gens_idx()
        for y in p_elements:
            if y not in hset and all(mul(mul(inv(y), x), y) in hset for x in gens):
                break
        else:  # pragma: no cover - impossible by Sylow theory
            raise RuntimeError("no p-element normalises the p-subgroup")
        current = current.join([y])
    return current


def core_p(group, p):
    """O_p(G): the largest normal p-subgroup."""
    return _largest_normal(group, lambda n: p_part(n, p) == n)


def fitting_subgroup(group):
    """F(G): the product of the cores O_p(G) over the primes dividing |G|."""
    fit = group.trivial_subgroup()
    for p in prime_factors(group.order()):
        fit = fit.join(core_p(group, p).gens_idx())
    return fit


def normal_subgroups(group):
    """All normal subgroups, as products of normal closures of classes.

    Every normal subgroup is the join of the normal closures of the element
    classes it contains, and the join of two normal subgroups is their
    product NM.  An element, its conjugates and its generating powers have
    one normal closure, so it is computed once per rational class (see
    ``Group.rational_classes``), from its least element, with a generating
    set, and the lattice is grown from the trivial subgroup by joining N
    with M's generators: a plain closure, with no normality check, and none
    at all when N lies inside M, where NM = M.
    """
    closures = {}  # normal closure's indices -> the closure
    for x in _rational_reps(group):
        m = group._normal_closure([x])
        closures.setdefault(m.indices, m)
    trivial = group.trivial_subgroup()
    found = {trivial.indices: trivial}
    queue = [trivial]
    while queue:
        current = queue.pop()
        for m in closures.values():
            if m.indices <= current.indices:
                continue
            if current.indices < m.indices:
                bigger = m
            else:
                bigger = current.join(m.gens_idx())
            if bigger.indices not in found:
                found[bigger.indices] = bigger
                queue.append(bigger)
    return sorted(found.values(), key=lambda s: (s.order, s.key()))


def _rational_reps(group):
    """The least element of each rational class but the identity's, in
    index order."""
    return sorted(x for xs in group.rational_classes().values() for x in xs)


def o_pprime(group, p):
    """O_{p'}(G): the largest normal subgroup of order coprime to p."""
    return _largest_normal(group, lambda n: n % p != 0)


def _largest_normal(group, admits):
    """The largest normal subgroup whose order ``admits`` accepts, where the
    accepted orders are those of a p-group or of a p'-group.

    Grows K = 1 by rational classes of elements, one x per class: x, its
    conjugates and its generating powers have one normal closure.  Every
    normal subgroup of accepted order lies in the one sought, so while K
    does, the normal closure of K and x has accepted order exactly when x
    lies in it; one pass over the classes absorbs them all.  Each normal
    closure grows from K.
    """
    current = group.trivial_subgroup()
    for x in _rational_reps(group):
        if x in current.indices or not admits(group.order_of_idx(x)):
            continue
        grown = group._normal_closure([x], base=current)
        if admits(grown.order):
            current = grown
    return current


# ----------------------------------------------------------------------
# Sylow shapes


@dataclass(frozen=True)
class SylowShape:
    tag: str  # Cyclic | ElementaryAbelian | QuaternionQ8 | GeneralizedQuaternion | Dihedral | Other
    p: int
    order: int
    rank: int = 0  # only for ElementaryAbelian


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
    # a rotation r of order n/2 plus an involution t outside it with t r t = r^-1
    parent = sub.parent
    mul = parent.mul_idx
    half = n // 2
    for r in sorted(sub.indices):
        if parent.order_of_idx(r) != half:
            continue
        raxis = parent.closure_idx([r])
        rinv = parent.inv_idx(r)
        for t in sorted(sub.indices):
            if t in raxis or parent.order_of_idx(t) != 2:
                continue
            if mul(mul(t, r), t) == rinv:
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
    current = group.trivial_subgroup()
    while current.order < sub.order:
        tried = set(current.indices)
        for x in sorted(sub.indices):
            if x in tried:
                continue
            grown = current.join([x])
            if not is_prime(grown.order // current.order):
                continue
            if all(mul(mul(inv(h), x), h) in grown.indices for h in hgens):
                current = grown
                break
            # every element of grown outside N generates grown over N
            tried |= grown.indices
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


def is_isomorphic_small(a, b):
    """Exact isomorphism decision by generator-image backtracking: each
    candidate image of the next generator is checked by
    :func:`groups.extend_homomorphism` over the generators chosen so far.

    Differing orders or fingerprints say no at any order.  The search runs
    only up to ``a.caps.iso_cap``; beyond it callers must fall back to
    fingerprint comparison and say so.
    """
    if a.order() != b.order():
        return False
    if structural_fingerprint(a) != structural_fingerprint(b):
        return False
    cap = a.caps.iso_cap
    if a.order() > cap:
        raise CapExceeded("isomorphism search", f"order {a.order()} > {cap}")
    # greedy: largest element orders first, which keeps the search shallow
    gens = a.subgroup_from_indices(range(a.order())).gens_idx()
    inv_a = _element_invariants(a)
    inv_b = _element_invariants(b)
    candidates = [
        [j for j in range(b.order()) if inv_b[j] == inv_a[g]] for g in gens
    ]

    identity = {a.identity_idx: b.identity_idx}
    return _extend_to_isomorphism(a, b, gens, candidates, identity, [])


def _extend_to_isomorphism(a, b, gens, candidates, phi, pairs):
    """The backtracking step of :func:`is_isomorphic_small`: ``phi`` maps
    ``gens[:k]`` by ``pairs`` (k = len(pairs)); try each candidate image of
    ``gens[k]``.  A plain function, not a closure over itself, so a finished
    search leaves no reference cycle holding either group."""
    k = len(pairs)
    if k == len(gens):
        return len(phi) == a.order()
    for b_gen in candidates[k]:
        if b_gen in phi.values():
            continue
        grown = pairs + [(gens[k], b_gen)]
        bigger = extend_homomorphism(a, b, {**phi, gens[k]: b_gen}, grown)
        if bigger is not None and _extend_to_isomorphism(
            a, b, gens, candidates, bigger, grown
        ):
            return True
    return False
