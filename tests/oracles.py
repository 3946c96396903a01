"""Independent reference implementations used to check the fast paths.

Everything here works directly on Permutation objects with naive algorithms:
no stabilizer chains, no index tables, no conjugacy pruning.  Slow on purpose;
keep inputs small.  The exceptions work on element indices so that they can
be compared with the fast paths key for key: the element walk that the coset
walk of ``Group.closure_idx`` replaced, the min-key coset BFS that the coset
labels of ``Quotient`` replaced, the rational-class check of the C and C_pi
verdicts, the coset sweep that ``Group.rational_classes`` replaced, the
normaliser-driven Sylow growth that element tests replaced, and, in
the last sections, the unpruned subgroup walks that the
N_G(H)-orbit walks in ``subconj.subgroups`` replaced and the eager reads of
a full class list that the order-graded walk replaced.
"""

import random
from math import gcd

from subconj import Group, Permutation
from subconj.groups import normalizer
from subconj.structure import p_part, prime_factors
from subconj.subgroups import _coset_orbit_reps, _OrbitRegistry


def hand_compose(f, g):
    """Pointwise left-to-right composition, computed through dicts."""
    fm = {i: f.apply(i) for i in range(1, f.degree + 1)}
    gm = {i: g.apply(i) for i in range(1, g.degree + 1)}
    return Permutation([gm[fm[i]] for i in range(1, f.degree + 1)])


def hand_inverse(f):
    m = {f.apply(i): i for i in range(1, f.degree + 1)}
    return Permutation([m[i] for i in range(1, f.degree + 1)])


def relabelled(g):
    """A copy of g with its points relabelled by the first seeded shuffle
    that moves its base off 0..k-1."""

    def relabel(perm, pi):
        images = [0] * g.degree
        for i, j in enumerate(perm.images):
            images[pi[i]] = pi[j - 1] + 1
        return Permutation(images)

    for seed in range(1, 100):
        pi = list(range(g.degree))
        random.Random(seed).shuffle(pi)
        copy = Group([relabel(x, pi) for x in g.generators], degree=g.degree)
        if copy._base != tuple(range(len(copy._base))):
            return copy
    raise AssertionError("no seed moves the base")


def naive_closure(gens, degree=None):
    """All products of the generators, by plain breadth-first search."""
    if not gens:
        return {Permutation.identity(degree)}
    identity = Permutation.identity(gens[0].degree)
    seen = {identity}
    frontier = [identity]
    while frontier:
        a = frontier.pop()
        for g in gens:
            b = a * g
            if b not in seen:
                seen.add(b)
                frontier.append(b)
    return seen


def element_walk_closure(group, seed, base=(), base_gens=()):
    """<base, seed> as an index set, by the element walk that
    ``Group.closure_idx`` replaced: members start as the identity and
    ``base``, every new element is multiplied on the right by ``base_gens``
    and the seeds, one product at a time.  The members it reaches outside
    ``base`` are unions of left cosets of <base_gens>, so like the coset walk
    it needs ``base_gens`` to generate ``base``.  No n/2 exit."""
    members = {group.identity_idx, *base}
    frontier = [j for j in dict.fromkeys(seed) if j not in members]
    members.update(frontier)
    gens = list(dict.fromkeys([*base_gens, *frontier]))
    while frontier:
        a = frontier.pop()
        for g in gens:
            b = group.mul_idx(a, g)
            if b not in members:
                members.add(b)
                frontier.append(b)
    return frozenset(members)


def min_key_quotient_images(group, normal_sub):
    """The generator images of G/N, one index tuple per generator of G, by
    the coset BFS that ``Quotient`` replaced: cosets numbered as first
    reached from N along right multiplication by the generators, each coset
    Nt looked up by its least element index, a min over |N| products."""
    nset = sorted(normal_sub.indices)
    reps = [group.identity_idx]
    coset_id = {nset[0]: 0}
    gen_idx = group.gen_indices()
    images = [[] for _ in gen_idx]
    for r in reps:
        for gpos, g in enumerate(gen_idx):
            t = group.mul_idx(r, g)
            key = min(group.mul_idx(h, t) for h in nset)
            if key not in coset_id:
                coset_id[key] = len(reps)
                reps.append(t)
            images[gpos].append(coset_id[key])
    return [tuple(img) for img in images]


def rational_class_verdicts(group):
    """(C, C_pi) membership as booleans, from rational classes, with no
    subgroup walk.

    <x> and <y> of equal order are conjugate iff y is conjugate to some x^k
    with gcd(k, |x|) = 1.  So the cyclic subgroups of order m are all
    conjugate exactly when the elements of order m form one rational class
    (a union of the conjugacy classes of x's generating powers).  C needs
    that for every m, C_pi for every prime power m.  Orders are read from
    ``Permutation.order`` and powers by ``pow_idx``."""
    classes = group.conjugacy_classes_idx()
    class_of = {i: c for c, members in enumerate(classes) for i in members}
    rational = {}  # element order -> number of rational classes
    covered = set()
    for c, members in enumerate(classes):
        if c in covered:
            continue
        x = members[0]
        m = group.perm_at(x).order()
        covered.update(
            class_of[group.pow_idx(x, k)] for k in range(1, m + 1) if gcd(k, m) == 1
        )
        rational[m] = rational.get(m, 0) + 1
    c = all(n == 1 for n in rational.values())
    c_pi = all(n == 1 for m, n in rational.items() if len(prime_factors(m)) <= 1)
    return c, c_pi


def coset_walk_rational_classes(group):
    """{m: [x, ...]}, the least index of each rational class of order m > 1,
    by the sweep that ``Group.rational_classes`` replaced: the trivial
    class's coset walk over every element, which yields x in index order and
    marks the conjugates of x's generating powers."""
    by_order = {}
    trivial = group.trivial_subgroup()
    whole = group.full_subgroup()
    for x in _coset_orbit_reps(group, trivial, whole, False, lambda hset, x: True):
        by_order.setdefault(group.order_of_idx(x), []).append(x)
    return by_order


def naive_order(g):
    n, acc = 1, g
    identity = Permutation.identity(g.degree)
    while acc != identity:
        acc = acc * g
        n += 1
    return n


def brute_force_subgroups(group):
    """Every subgroup as a frozenset of Permutations, by subset closure."""
    return _subgroups_of(group.elements())


def _subgroups_of(elements):
    """Every subgroup of the group whose elements are given.

    Grows the collection from all cyclic subgroups by adjoining single
    elements until nothing new appears.
    """
    elements = list(elements)
    subs = set()
    frontier = []
    for x in elements:
        s = frozenset(naive_closure([x]))
        if s not in subs:
            subs.add(s)
            frontier.append(s)
    while frontier:
        s = frontier.pop()
        for x in elements:
            if x in s:
                continue
            bigger = frozenset(naive_closure(list(s) + [x]))
            if bigger not in subs:
                subs.add(bigger)
                frontier.append(bigger)
    return subs


def conjugate_set(s, g):
    gi = hand_inverse(g)
    return frozenset(gi * x * g for x in s)


def conjugacy_partition(group, subgroup_sets):
    """Partition subgroup element-sets into conjugacy orbits by full scans."""
    elements = list(group.elements())
    remaining = set(subgroup_sets)
    orbits = []
    while remaining:
        seed = next(iter(remaining))
        orbit = {conjugate_set(seed, g) for g in elements}
        orbits.append(orbit)
        remaining -= orbit
    return orbits


def exhaustive_conjugator(group, set_a, set_b):
    """Some g with A^g = B, found by scanning every group element."""
    for g in group.elements():
        if conjugate_set(set_a, g) == set_b:
            return g
    return None


def commutator_subgroup_oracle(group):
    """Closure of all pairwise commutators, as a set of Permutations."""
    elements = list(group.elements())
    comms = set()
    for a in elements:
        for b in elements:
            comms.add(a.inverse() * b.inverse() * a * b)
    return naive_closure(sorted(comms))


def normal_subgroups_oracle(group):
    """All normal subgroups, by filtering the brute-force subgroup list."""
    elements = list(group.elements())
    out = []
    for s in brute_force_subgroups(group):
        if all(conjugate_set(s, g) == s for g in elements):
            out.append(s)
    return out


def normal_closure_joins(group):
    """All normal subgroups as index sets, by the join loop that
    ``structure.normal_subgroups`` replaced: every subgroup found is joined
    with each element class outside it through a fresh normal closure of its
    generators and the class representative."""
    trivial = frozenset({group.identity_idx})
    found = {trivial}
    queue = [trivial]
    reps = [c[0] for c in group.conjugacy_classes_idx() if c[0] != group.identity_idx]
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
    return found


def o_pprime_oracle(group, p):
    """O_p'(G): the largest normal subgroup whose order is coprime to p."""
    coprime = [s for s in normal_subgroups_oracle(group) if len(s) % p]
    return max(coprime, key=len)


def core_p_oracle(group, p):
    """O_p(G): the largest normal subgroup of p-power order."""
    powers = {p**k for k in range(len(group.elements()).bit_length())}
    return max((s for s in normal_subgroups_oracle(group) if len(s) in powers), key=len)


def is_nilpotent_oracle(elements):
    """Whether the lower central series G >= [G,G] >= [[G,G],G] >= ... of the
    group on ``elements`` reaches the identity."""
    group = set(elements)
    term = group
    while True:
        comms = {a.inverse() * b.inverse() * a * b for a in term for b in group}
        nxt = naive_closure(sorted(comms))
        if nxt == term:
            return len(term) == 1
        term = nxt


def is_supersolvable_oracle(elements):
    """Huppert's theorem: a finite group is supersolvable iff every maximal
    subgroup has prime index."""
    group = frozenset(elements)
    proper = [s for s in _subgroups_of(group) if s != group]
    maximal = [s for s in proper if not any(s < t for t in proper)]
    return all(_is_prime(len(group) // len(m)) for m in maximal)


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, n))


def normalizer_sylow_growth(group, p):
    """The Sylow growth that the element tests of ``structure.sylow_subgroup``
    replaced, for |G|_p > p: the p-elements when they are |G|_p many, else
    from the p-part of the first element of order divisible by p, extended by
    the first p-element of N_G(P) outside P, with N_G(P) from ``normalizer``
    (a whole orbit walk per step)."""
    n = group.order()
    target = p_part(n, p)
    p_elements = [i for i in range(n) if p_part(o := group.order_of_idx(i), p) == o]
    if len(p_elements) == target:
        return group.subgroup_from_indices(p_elements)
    p_set = set(p_elements)
    o, i = next((o, i) for i in range(n) if (o := group.order_of_idx(i)) % p == 0)
    current = group.trivial_subgroup().join([group.pow_idx(i, o // p_part(o, p))])
    while current.order < target:
        nz = normalizer(group, current)
        ext = min((nz.indices & p_set) - current.indices)
        current = current.join([ext])
    return current


# ----------------------------------------------------------------------
# unpruned subgroup walks: one extension per coset of H, no orbit marking


def _registered_classes(registry):
    """A registry's classes in (order, representative key) order."""
    return sorted(registry.classes, key=lambda c: (c.order, c.representative.key()))


def unpruned_p_subgroup_classes(group, p):
    """Nontrivial p-subgroup classes: one closure per element of order p,
    then each representative H extended by every p-element x of N_G(H) with
    x^p in H."""
    n = group.order()
    sylow_order = p_part(n, p)
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
            rep = registry.classes[cid].representative
            for x in sorted(normalizer(group, rep).indices):
                o = group.order_of_idx(x)
                if x in rep.indices or o != p_part(o, p):
                    continue
                if group.pow_idx(x, p) not in rep.indices:
                    continue
                key = group.closure_idx([x], base=rep)
                new_cid, new = registry.classify(key)
                if new:
                    grown.append(new_cid)
        level = grown
        size *= p
    return _registered_classes(registry)


def unpruned_all_subgroup_classes(group):
    """Every subgroup class: each representative H extended by one
    prime-power element per right coset Hx."""
    n = group.order()
    registry = _OrbitRegistry(group)
    queue = [registry.classify(frozenset({group.identity_idx}))[0]]
    for cid in queue:
        rep = registry.classes[cid].representative
        if rep.order == n:
            continue
        covered = set(rep.indices)
        for x in range(n):
            o = group.order_of_idx(x)
            if x in covered or o == 1 or len(prime_factors(o)) != 1:
                continue
            key = group.closure_idx([x], base=rep)
            new_cid, new = registry.classify(key)
            if new:
                queue.append(new_cid)
            covered.update(group.mul_idx(h, x) for h in rep.indices)
    return _registered_classes(registry)


# ----------------------------------------------------------------------
# eager reads of a complete class list: the p-classes filtered out of it, and
# the split bucket found with ``keep`` called on every class


def p_classes_of(classes, p):
    """The nontrivial p-subgroup classes among ``classes`` (an
    ``all_subgroup_classes`` list), in its (order, key) order."""
    return [c for c in classes if c.order > 1 and p_part(c.order, p) == c.order]


def eager_first_split_bucket(classes, keep):
    """First order bucket holding two kept classes, with ``keep`` called on
    every class: (order, class, class) for its two kept classes of least
    key, or None."""
    buckets = {}
    for c in classes:
        if keep(c):
            buckets.setdefault(c.order, []).append(c)
    for order in sorted(buckets):
        bucket = buckets[order]
        if len(bucket) >= 2:
            bucket.sort(key=lambda c: c.representative.key())
            return order, bucket[0], bucket[1]
    return None
