"""Subgroup enumeration up to conjugacy, and conjugacy decisions for pairs.

Subgroups are keyed by their sorted element-index sets; their conjugation
orbits come from the one walk, ``Group.conjugates``, over per-generator index
maps, so the registry work is pure integer manipulation.  Class
representatives are the lexicographically least element-sets of their orbits,
which makes reports reproducible.  The registry makes one ``SubgroupClass``
per class, and the walks list and return that object, not copies.

Both enumerators share one cyclic-extension walk (Neubueser 1960; Cannon, Cox
& Holt, JSC 2001).  Starting from the trivial class, each representative H is
extended to <H, x> by single elements x, one per orbit of N_G(H) acting by
conjugation on the left cosets xH: every element of a coset gives the same
extension, and conjugate cosets give conjugate extensions.  The cosets of
the powers x^k with k prime to |x| give <H, x> again and are marked with x's
orbit, so each cyclic subgroup <x> is tried once, not once per generator.
The registry's one walk of H's conjugates gives |N_G(H)| = |G| / orbit
size, so N_G(H) is G or H when the orbit size says so; otherwise it is built
from the edges of that walk, which the class keeps until it is extended, by
Schreier's lemma and with no second walk.

The walk runs in order of subgroup order: it always extends the listed class
of least order, and it can stop after any order and resume later.  Every
subgroup K > 1 is <H, x> for a proper subgroup H of smaller order (a maximal
one, and x any element of K outside it that the walk may take), so once every
class of order < d is extended, every class of order <= d is registered.  A
verdict that splits at order d therefore never builds the larger classes.

The kept walk of ``all_subgroup_classes`` first takes x from N_G(H) only.
<H, x> is then H extended by a cyclic group, so that walk reaches exactly the
solvable classes: a solvable K has a normal subgroup of prime index (Holt,
Eick & O'Brien, Handbook of Computational Group Theory, 2005).  It reaches
outside N_G(H) only when a caller asks for the complete list up to an order
d >= ``low``, the least order a non-solvable subgroup of G can have; below
it every subgroup is solvable, so the walk inside normalisers is complete
there.  Each class it extended before then gets only the cosets outside
N_G(H), so no extension is tried twice.  In a solvable G it never reaches
outside.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from heapq import heappop, heappush
from math import gcd
from operator import attrgetter

from .caps import CapExceeded
from .fields import divisors
# normalizer is not called here, but bench/tracing.py wraps it by this name
from .groups import _carriers, _walk_normalizer, normalizer  # noqa: F401
from .structure import (
    _rational_reps,
    is_nilpotent,
    is_solvable,
    is_supersolvable,
    p_part,
    prime_factors,
)

# where ``all_subgroup_classes`` keeps its walk in ``group.analysis_cache``
WALK_KEY = "subgroup walk"
_ORDER = attrgetter("order")


@dataclass
class SubgroupClass:
    """A conjugacy class of subgroups: representative plus orbit size.

    ``_OrbitRegistry.classify`` makes one per class, and the walks and every
    list they return hand out that object.  It keeps no test results: the
    nilpotent and supersolvable tests run each time they are asked, and
    only the representative keeps its abelian flag.  A class that a
    subgroup walk may still extend keeps its orbit walk until N_G(H) is
    built from it."""

    representative: object  # Subgroup
    orbit_size: int
    # (edges, root) of the registry's walk, H = orbit[root], kept until a
    # subgroup walk builds N_G(H) from it (see ``_OrbitRegistry.classify``)
    _walk: object = field(default=None, repr=False, compare=False)
    # N_G(H), kept by a walk that extended H inside it and may still reach
    # outside it (see ``_GradedWalk``)
    _normalizer: object = field(default=None, repr=False, compare=False)

    @property
    def order(self):
        return self.representative.order

    def is_abelian(self):
        return self.representative.is_abelian()

    def is_cyclic(self):
        return self.representative.is_cyclic()

    def is_nilpotent(self):
        rep = self.representative
        return is_nilpotent(rep.parent, rep)

    def is_supersolvable(self):
        rep = self.representative
        return is_supersolvable(rep.parent, rep)


class _OrbitRegistry:
    """Partition discovered subgroup element-sets into conjugation orbits."""

    def __init__(self, group):
        self.group = group
        self.cap = group.caps.orbit_key_cap
        self.class_of = {}
        self.classes = []  # class id -> SubgroupClass, on the least key
        self.top = 0  # a new class of smaller order keeps its walk

    def classify(self, key):
        """Register a subgroup index-set; returns (class id, newly seen).
        A new class is one walk of its conjugates (``Group.conjugates``),
        whose keys but the first count against ``orbit_key_cap``; it gets
        its ``SubgroupClass``, on the lexicographically least key of its
        orbit, in ``classes``.  Below order ``top``, the class a subgroup
        walk may still extend, it keeps that walk's edges and the least
        key's place, from which the walk builds N_G(H)."""
        cid = self.class_of.get(key)
        if cid is not None:
            return cid, False
        cid = len(self.classes)
        orbit, edges = self.group.conjugates(key, self.cap - len(self.class_of))
        self.class_of.update(dict.fromkeys(orbit, cid))
        keys = list(map(sorted, orbit))
        root = keys.index(min(keys))
        c = SubgroupClass(self.group.subgroup_from_indices(orbit[root]), len(orbit))
        if c.order < self.top:
            c._walk = edges, root
        self.classes.append(c)
        return cid, True


def _coset_orbit_reps(group, rep, nz, in_normalizer, wanted, outside=False):
    """One x per orbit of N = ``nz`` = N_G(H) on the left cosets xH of H, in
    index order, skipping x with ``wanted(H, x)`` false.  x runs over G,
    over N alone when ``in_normalizer``, or over G outside N when
    ``outside``: N is then marked as covered, as after a pass inside it.
    The walks call it for H > 1 only: for the trivial H these orbits are the
    rational classes of the elements, which the group keeps
    (``Group.rational_classes``).

    For g in N, (xH)^g = x^g H and <H, x^g> = <H, x>^g, and <H, x^k h> =
    <H, x> for h in H and k prime to |x|, since x^k generates <x>; so once x
    is yielded, the N-orbits of the cosets x^k H add only conjugates of
    <H, x> and are marked as a whole, each coset by one ``left_coset`` call
    and each conjugation by the generator's map or ``Group.conjugator``.
    Those cosets lie in N exactly when x does, so a pass inside N and a pass
    outside it together yield what one pass over G yields.
    """
    n = group.order()
    hset = rep.indices
    if nz.order == n:
        if outside:
            return
        conj = [m.__getitem__ for m in group.conj_maps()]
        domain = range(n)
    else:
        if in_normalizer and nz.order == len(hset):
            return
        conj = list(map(group.conjugator, nz.gens_idx()))
        domain = sorted(nz.indices) if in_normalizer else range(n)
    covered = bytearray(n)
    for h in nz.indices if outside else hset:
        covered[h] = 1
    mul = group.mul_idx
    for x in domain:
        if covered[x] or not wanted(hset, x):
            continue
        yield x
        # x^k H depends on k mod j, the least j with x^j in H (j divides |x|),
        # and k prime to |x| meets exactly the residues prime to j (CRT)
        powers = [x]
        for _ in range(2, group.order_of_idx(x)):
            y = mul(powers[-1], x)
            if y in hset:
                break
            powers.append(y)
        j = len(powers) + 1
        orbit = [x]
        for k, y in enumerate(powers[1:], 2):
            if not covered[y] and gcd(k, j) == 1:
                covered[y] = 1
                orbit.append(y)
        for y in orbit:
            for h in group.left_coset(y, hset):
                covered[h] = 1
            for c in conj:
                z = c(y)
                if not covered[z]:
                    covered[z] = 1
                    orbit.append(z)


def _nonsolvable_floor(group):
    """``low``: the least order a non-solvable subgroup of G can have, or
    None when G is solvable.  A group of order d is solvable when d < 60 (A5
    is the least non-solvable group), when 4 does not divide d (a cyclic
    Sylow 2-subgroup gives a normal 2-complement by Burnside's transfer
    theorem, solvable by Feit-Thompson) and when d has at most two prime
    divisors (Burnside's p^a q^b theorem).  |G| itself passes all three
    tests when G is not solvable."""
    if is_solvable(group):
        return None
    return next(
        d
        for d in divisors(group.order())
        if d >= 60 and d % 4 == 0 and len(prime_factors(d)) >= 3
    )


class _GradedWalk:
    """The cyclic-extension walk from the trivial class, in order of subgroup
    order, resumable: ``through(d)`` extends every class of order below d
    (below ``top`` at most; classes of order ``top`` are never extended),
    the trivial class by the wanted rational-class representatives and every
    other by the x of ``_coset_orbit_reps``, and lists the classes of order
    up to d.  Pending classes wait in a heap keyed by (order, representative
    key), so they are listed in the order of the final class list.

    A walk ``in_normalizer`` takes x from N_G(H) only.  Given ``low``, it
    reaches outside at the first ``through(d, complete=True)`` with d >=
    ``low``: listed classes of order >= ``low`` go back to the heap, as
    classes it had not reached may fall between them, and every class it
    has extended is extended again by the orbits outside N_G(H) alone, which
    it kept on the class.  From then on it takes x from all of G.  Until
    then its registry is kept, since a complete read may still need it."""

    def __init__(self, group, top, in_normalizer, wanted, low=None):
        self.group = group
        self.top = top
        self.in_normalizer = in_normalizer
        self.wanted = wanted
        self.low = low
        self.registry = _OrbitRegistry(group)
        self.registry.top = top
        self.pending = []  # (order, key, class) of registered, unlisted classes
        self.classes = []  # listed classes, in (order, key) order
        self.extended = 0  # classes[:extended] are extended
        self._register(frozenset({group.identity_idx}))

    def _register(self, key):
        cid, new = self.registry.classify(key)
        if new:
            c = self.registry.classes[cid]
            heappush(self.pending, (c.order, c.representative.key(), c))

    def _reach_outside(self):
        cut = bisect_left(self.classes, self.low, key=_ORDER)
        for c in self.classes[cut:]:
            heappush(self.pending, (c.order, c.representative.key(), c))
        del self.classes[cut:]
        # the rational classes extend H = 1 by all of G = N_G(1) already
        self.extended = min(self.extended, 1)
        self.in_normalizer, self.low = False, None

    def _extensions(self, c):
        group, rep = self.group, c.representative
        if rep.order == 1:
            # for H = 1 the orbit of the cosets x^k H is x's rational class,
            # and both walks want an x by its order alone
            hset = rep.indices
            return [x for x in _rational_reps(group) if self.wanted(hset, x)]
        nz, c._normalizer = c._normalizer, None
        if nz is not None:
            return _coset_orbit_reps(group, rep, nz, False, self.wanted, True)
        nz = _walk_normalizer(group, rep, c.orbit_size, *c._walk)
        c._walk = None
        if self.low is not None:
            c._normalizer = nz
        return _coset_orbit_reps(group, rep, nz, self.in_normalizer, self.wanted)

    def through(self, d, complete=False):
        """The classes of order at most d, in (order, key) order: all of
        them when ``complete``, else those the walk has reached (for the
        walk inside normalisers, the solvable ones until a complete read
        reaches ``low``)."""
        d = min(d, self.top)
        if complete and self.low is not None and d >= self.low:
            self._reach_outside()
        group, pending, classes = self.group, self.pending, self.classes
        while True:
            if self.extended < len(classes) and classes[self.extended].order < d:
                c = classes[self.extended]
                self.extended += 1
                for x in self._extensions(c):
                    self._register(group.closure_idx([x], base=c.representative))
            elif pending and pending[0][0] <= d:
                classes.append(heappop(pending)[2])
            else:
                break
        if d == self.top and self.low is None:
            self.registry = None  # it holds every subgroup's key; only classes are read
        return classes[: bisect_right(classes, d, key=_ORDER)]


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


def _resumed(group, key, start, d, complete=False):
    """``through(d, complete)`` of the walk kept in
    ``group.analysis_cache[key]``, begun by ``start()`` when none is kept.
    A walk that hits a cap is dropped, so the next call starts afresh and
    stops at the same cap."""
    cache = group.analysis_cache
    walk = cache.get(key)
    if walk is None:
        walk = cache[key] = start()
    try:
        return walk.through(d, complete)
    except CapExceeded:
        del cache[key]
        raise


def p_subgroup_classes(group, p, max_order=None):
    """Conjugacy classes of the nontrivial p-subgroups, built bottom-up, in
    (order, key) order; with ``max_order`` = d, the classes of order at most
    d, which are a prefix of that list.

    Each class of order p^(k+1) arises from a class representative H of order
    p^k extended by a p-element x of N_G(H) with x^p in H; completeness rests
    on maximal subgroups of p-groups being normal.  The walk starts at the
    trivial class, whose extensions are the subgroups of order p, and takes
    one x per N_G(H)-orbit of the cosets xH inside N_G(H) (see
    ``_coset_orbit_reps``).  The trivial class is not returned.

    The walk is graded and resumable like that of ``all_subgroup_classes``:
    it stops once every class of order < d is extended, is kept in
    ``group.analysis_cache`` for the next call that asks for more, and is
    dropped when it hits a cap.
    """
    sylow_order = _capped_sylow_order(group, p)

    def start():
        p_element = group.order_mask(lambda o: o > 1 and p_part(o, p) == o)

        def wanted(hset, x):
            return p_element[x] and group.pow_idx(x, p) in hset

        return _GradedWalk(group, sylow_order, True, wanted)

    d = sylow_order if max_order is None else max_order
    classes = _resumed(group, ("p walk", p), start, d)[1:]
    if d >= sylow_order and classes[-1].order != sylow_order:  # pragma: no cover
        # contradicts Sylow theory
        raise RuntimeError(f"no subgroups of order {sylow_order} found")
    return classes


def all_subgroup_classes(group, max_order=None):
    """Every subgroup up to conjugacy (trivial and full group included), in
    (order, key) order; with ``max_order`` = d, the classes of order at most
    d, which are a prefix of that list.

    Starts from the trivial class and extends each representative H by single
    elements of prime-power order; since every subgroup is generated one
    prime-power element at a time through conjugates of known classes, the
    walk is complete.  Of the cosets xH, one per N_G(H)-orbit is tried: a
    coset and its conjugates under N_G(H) give conjugate extensions (see
    ``_coset_orbit_reps``).  The walk takes x from N_G(H) alone up to
    ``low`` (see ``_nonsolvable_floor``), which finds every solvable class,
    and from all of G from there on, so perfect subgroups are found too (a
    pure normalizer-driven cyclic extension would miss them).

    The walk runs in order of subgroup order and stops once every class of
    order < d is extended: a subgroup K of order d has a maximal subgroup H,
    of smaller order, and some prime-power element x of K outside H, since
    those elements generate K; then K = <H, x>, and the walk extends a
    conjugate of H by a conjugate of x, or by an x' whose extension is
    conjugate to it.  The walk is kept in ``group.analysis_cache`` and
    resumed by the next call that asks for more; a walk that hits a cap is
    dropped, so the next call starts afresh and stops at the same cap.
    """
    n = group.order()
    return _walk_classes(group, n if max_order is None else max_order, True)


def _walk_classes(group, d, complete=False):
    """The classes of order at most d off the walk kept under ``WALK_KEY``:
    all of them when ``complete``, as ``all_subgroup_classes`` lists them;
    else those its walk inside normalisers has reached, a superset of the
    solvable classes (exactly those until a complete read reaches ``low``).
    Both reads are refused above ``full_subgroup_cap``."""
    n = group.order()
    cap = group.caps.full_subgroup_cap
    if n > cap:
        raise CapExceeded("full subgroup enumeration", f"order {n} > {cap}")

    def start():
        pp_element = group.order_mask(lambda o: len(prime_factors(o)) == 1)
        low = _nonsolvable_floor(group)
        return _GradedWalk(group, n, True, lambda hset, x: pp_element[x], low)

    return _resumed(group, WALK_KEY, start, d, complete)


def are_conjugate(group, sub_a, sub_b):
    """A conjugator g with g^-1 * A * g = B, or None.

    Rejects on fingerprint mismatch, then walks the conjugates of A
    (``Group.conjugates``, at most ``orbit_key_cap`` of them) and looks B up
    among them; the carrier c of B, A^c = B, is re-verified before it is
    handed out.
    """
    if sub_a.parent is not group or sub_b.parent is not group:
        raise ValueError("subgroups must belong to the given group")
    if sub_a.indices == sub_b.indices:
        return group.identity()
    if sub_a.fingerprint() != sub_b.fingerprint():
        return None
    target = sub_b.indices
    orbit, edges = group.conjugates(sub_a.indices, group.caps.orbit_key_cap)
    if target not in orbit:
        return None
    carrier = _carriers(group, edges)[orbit.index(target)]
    if frozenset(map(group.conjugator(carrier), sub_a.indices)) != target:
        raise RuntimeError("conjugator failed re-verification")  # pragma: no cover
    return group.perm_at(carrier)
