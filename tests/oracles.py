"""Independent reference implementations used to check the fast paths.

Everything here works directly on Permutation objects with naive algorithms:
no stabilizer chains, no index tables, no conjugacy pruning.  Slow on purpose;
keep inputs small.
"""

from subconj import Permutation


def hand_compose(f, g):
    """Pointwise left-to-right composition, computed through dicts."""
    fm = {i: f.apply(i) for i in range(1, f.degree + 1)}
    gm = {i: g.apply(i) for i in range(1, g.degree + 1)}
    return Permutation([gm[fm[i]] for i in range(1, f.degree + 1)])


def hand_inverse(f):
    m = {f.apply(i): i for i in range(1, f.degree + 1)}
    return Permutation([m[i] for i in range(1, f.degree + 1)])


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


def o_pprime_oracle(group, p):
    """O_p'(G): the largest normal subgroup whose order is coprime to p."""
    coprime = [s for s in normal_subgroups_oracle(group) if len(s) % p]
    return max(coprime, key=len)


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
