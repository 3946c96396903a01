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
subgroup K > 1 is <H, x> for a maximal subgroup H of K, and x any element
of K outside it that the walk may take.  |H| properly divides |K|, so
2|H| <= |K|, and once every class of order at most d / 2 is extended, every
class of order <= d is registered.  A read of order d extends no other
class, and a verdict that splits at order d never builds the larger
classes.  The walk inside normalisers takes for H a normal subgroup of
prime index, and a p-walk a maximal subgroup of a p-group, of index p; both
have 2|H| <= |K| as well.  The top order of a walk, |G| or |G|_p, holds one
class, G or the Sylow p-subgroups, and no other class lies past the walk's
bound (the largest order a proper subgroup can have,
``Group._closure_bound``, or |G|_p / p).  So no class of the bound's order
or more is extended, and a read that reaches the bound frees the registry:
no class it left unextended is extended later, and the top class is listed
directly.

A walk picks its mode when it starts and keeps it.  The plain walk kept
under ``WALK_KEY`` takes x from N_G(H) only.  <H, x> is then H extended by
a cyclic group, so that walk reaches exactly the solvable classes: a
solvable K has a normal subgroup of prime index (Holt, Eick & O'Brien,
Handbook of Computational Group Theory, 2005).  Below ``low``, the least
order a non-solvable subgroup of G can have, every subgroup is solvable, so
its list is complete there, and in a solvable G everywhere.  Where ``low``
exceeds the largest order a proper subgroup can have
(``Group._closure_bound``), every proper subgroup is solvable, and a
complete read from ``low`` on makes that walk list G's class.  Otherwise a
complete read from ``low`` on is served by a second walk, which takes x
from all of G from the start.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import chain
from math import gcd
from operator import attrgetter

from .caps import CapExceeded
from .fields import divisors
# normalizer is not called here, but bench/tracing.py wraps it by this name
from .groups import _carriers, _walk_normalizer, normalizer  # noqa: F401
from .structure import (
    _rational_reps,
    _sylow_order,
    is_nilpotent,
    is_solvable,
    is_supersolvable,
    p_part,
    prime_factors,
    sylow_subgroup,
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
    built from it, or until the walk frees its registry."""

    representative: object  # Subgroup
    orbit_size: int
    # (edges, root) of the registry's walk, H = orbit[root], kept until a
    # subgroup walk extends the class or frees its registry (see
    # ``_OrbitRegistry.classify``)
    _walk: object = field(default=None, repr=False, compare=False)

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
    """Partition discovered subgroup element-sets into conjugation orbits,
    holding at most ``stored_index_cap`` element indices in all."""

    def __init__(self, group):
        self.group = group
        self.cap = group.caps.stored_index_cap
        self.stored = 0  # indices held: |H| x orbit size over the classes
        self.class_of = {}
        self.classes = []  # class id -> SubgroupClass, on the least key
        self.top = 0  # a new class of smaller order keeps its walk

    def classify(self, key):
        """Register a subgroup index-set; returns (class id, newly seen).
        A new class is one walk of its conjugates (``Group.conjugates``),
        refused when its |H| x orbit size indices would take the registry
        past ``stored_index_cap``, normal subgroups included; it gets its
        ``SubgroupClass``, on the lexicographically least key of its orbit,
        in ``classes``.  Every conjugate holds the identity, index 0, so the
        least key holds the least other index of the orbit, and only the
        conjugates that hold it are sorted.  Below order ``top``, the class
        a subgroup walk may still extend, it keeps that walk's edges and the
        least key's place, from which the walk builds N_G(H)."""
        cid = self.class_of.get(key)
        if cid is not None:
            return cid, False
        cid = len(self.classes)
        orbit, edges = self.group.conjugates(key, self.cap - self.stored)
        self.stored += len(key) * len(orbit)
        self.class_of.update(dict.fromkeys(orbit, cid))
        root = 0
        if len(orbit) > 1:
            least = min(filter(None, chain.from_iterable(orbit)))
            held = [i for i, k in enumerate(orbit) if least in k]
            root = min(held, key=lambda i: sorted(orbit[i]))
        c = SubgroupClass(self.group.subgroup_from_indices(orbit[root]), len(orbit))
        if c.order < self.top:
            c._walk = edges, root
        self.classes.append(c)
        return cid, True


def _coset_orbit_reps(group, rep, nz, in_normalizer, wanted):
    """One x per orbit of N = ``nz`` = N_G(H) on the left cosets xH of H, in
    index order, skipping x with ``wanted(H, x)`` false.  x runs over G, or
    over N alone when ``in_normalizer``.  The walks call it for H > 1 only:
    for the trivial H these orbits are the rational classes of the
    elements, which the group keeps (``Group.rational_classes``).

    For g in N, (xH)^g = x^g H and <H, x^g> = <H, x>^g, and <H, x^k h> =
    <H, x> for h in H and k prime to |x|, since x^k generates <x>; so once x
    is yielded, the N-orbits of the cosets x^k H add only conjugates of
    <H, x> and are marked as a whole, each coset by one ``left_coset`` call
    and each conjugation by the generator's map or ``Group.conjugator``.
    """
    n = group.order()
    hset = rep.indices
    if nz.order == n:
        conj = [m.__getitem__ for m in group.conj_maps()]
        domain = range(n)
    else:
        if in_normalizer and nz.order == len(hset):
            return
        conj = list(map(group.conjugator, nz.gens_idx()))
        domain = sorted(nz.indices) if in_normalizer else range(n)
    covered = bytearray(n)
    for h in hset:
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
    tests when G is not solvable.  No order below ``low`` passes them, so a
    proper subgroup can be non-solvable only when ``low`` is at most the
    largest order a proper subgroup can have, ``Group._closure_bound()``;
    where it is not, a complete read makes the walk inside normalisers list
    G (see ``_walk_classes``)."""
    if is_solvable(group):
        return None
    return next(
        d
        for d in divisors(group.order())
        if d >= 60 and d % 4 == 0 and len(prime_factors(d)) >= 3
    )


class _GradedWalk:
    """The cyclic-extension walk from the trivial class, in order of subgroup
    order, resumable: ``through(d)`` extends every class of order at most
    d / 2 and below the bound (see ``_bound``), the trivial class by the
    wanted rational-class representatives and every other by the x of
    ``_coset_orbit_reps``, and lists the classes of order up to d.  Pending
    classes wait in a heap keyed by (order, representative key), so they are
    listed in the order of the final class list.  A read that reaches the
    bound has listed every class the walk reaches below ``top`` and frees
    the registry, and no later read extends a class; a read of ``top``
    lists the one class of that order directly (see ``_top_class``), where
    the walk reaches it.

    A walk ``in_normalizer`` takes x from N_G(H) only, any other from all
    of G, and no walk changes that once started.  ``low`` is given to the
    walk inside normalisers of a non-solvable G, which never reaches G by
    extension: it lists G, orbit size 1, only after a
    ``through(d, complete=True)`` with d >= ``low``.  Where a proper
    subgroup can be non-solvable, ``_walk_classes`` sends such reads to the
    walk over all of G instead, so that walk never lists G."""

    def __init__(self, group, top, in_normalizer, wanted, low=None):
        self.group = group
        self.top = top
        self.in_normalizer = in_normalizer
        self.wanted = wanted
        self.low = low
        self.registry = _OrbitRegistry(group)
        # a class of the bound's order or more extends to the top class
        # alone, so it is never extended and keeps no orbit walk
        self.bound = self.registry.top = self._bound()
        self.pending = []  # (order, key, class) of registered, unlisted classes
        self.classes = []  # listed classes, in (order, key) order
        self.extended = 0  # classes[:extended] are extended
        self._register(frozenset({group.identity_idx}))

    def _register(self, key):
        cid, new = self.registry.classify(key)
        if new:
            c = self.registry.classes[cid]
            heappush(self.pending, (c.order, c.representative.key(), c))

    def _extensions(self, c):
        group, rep = self.group, c.representative
        walk, c._walk = c._walk, None
        if rep.order == 1:
            # for H = 1 the orbit of the cosets x^k H is x's rational class,
            # and both walks want an x by its order alone
            hset = rep.indices
            return [x for x in _rational_reps(group) if self.wanted(hset, x)]
        nz = _walk_normalizer(group, rep, c.orbit_size, *walk)
        return _coset_orbit_reps(group, rep, nz, self.in_normalizer, self.wanted)

    def through(self, d, complete=False):
        """The classes of order at most d, in (order, key) order: all of
        them when ``complete``, else those the walk has reached (for the
        walk inside normalisers, the solvable ones, and G after a complete
        read from ``low`` on).  Only the classes H with 2|H| <= d are
        extended."""
        group, pending, classes = self.group, self.pending, self.classes
        d = min(d, self.top)
        if complete and self.low is not None and d >= self.low:
            self.low = None
        bound = self.bound
        # a class of order k is <H, x> for an H of order at most k / 2 (see
        # the module docstring); once the registry is freed, nothing is
        # extended
        below = min(d // 2 + 1, bound) if self.registry is not None else 0
        while True:
            if self.extended < len(classes) and classes[self.extended].order < below:
                c = classes[self.extended]
                self.extended += 1
                for x in self._extensions(c):
                    self._register(group.closure_idx([x], base=c.representative))
            elif pending and pending[0][0] <= d:
                classes.append(heappop(pending)[2])
            else:
                break
        if d >= bound and self.registry is not None:
            # every class the walk reaches below the top is listed, so the
            # registry, which holds every subgroup's key, is read no more,
            # and no class left unextended needs its orbit walk's edges
            self.registry = None
            for c in classes[self.extended :]:
                c._walk = None
        if d == self.top and self.low is None and classes[-1].order < d:
            classes.append(self._top_class())
        return classes[: bisect_right(classes, d, key=_ORDER)]

    def _bound(self):
        """The largest order below ``top`` that a class can have: that of a
        proper subgroup for a walk up to |G|, read off the class sizes
        (``Group._closure_bound``), else |G|_p / p for a walk up to |G|_p."""
        group = self.group
        if self.top == group.order():
            group.rational_classes()
            return group._closure_bound()
        return self.top // prime_factors(self.top)[0]

    def _top_class(self):
        """The one class of order ``top``: G, orbit size 1, or the Sylow
        p-subgroups, which are all conjugate (Sylow)."""
        group = self.group
        if self.top == group.order():
            return SubgroupClass(group.subgroup_from_indices(group._whole_set()), 1)
        registry = _OrbitRegistry(group)
        sylow = sylow_subgroup(group, prime_factors(self.top)[0])
        return registry.classes[registry.classify(sylow.indices)[0]]


def _resumed(group, key, start, d, complete=False):
    """``through(d, complete)`` of the walk kept in
    ``group.analysis_cache[key]``, begun by ``start()`` when none is kept.
    A walk that hits a cap is replaced by its refusal, (order, kind,
    detail).  A later read of that order or more is refused again with no
    walk, since it does all the refused read did: a complete read of a walk
    adds G with no stored index, so it does no more than any other read of
    the same order.  A smaller read starts afresh."""
    cache = group.analysis_cache
    walk = cache.get(key)
    if isinstance(walk, tuple):
        order, kind, detail = walk
        if d >= order:
            raise CapExceeded(kind, detail)
    if not isinstance(walk, _GradedWalk):
        walk = cache[key] = start()
    try:
        return walk.through(d, complete)
    except CapExceeded as exc:
        cache[key] = (min(d, walk.top), exc.kind, exc.detail)
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
    it extends only the classes of order at most d / 2, is kept in
    ``group.analysis_cache`` for the next call that asks for more, and is
    replaced by its refusal when it hits a cap (see ``_resumed``).  No class
    of order |G|_p / p is extended: the Sylow p-subgroups, all conjugate,
    are one class, classified on its own when |G|_p is read.  A p that is
    not a prime dividing |G| raises ValueError.

    This function alone picks the walk that answers: once a plain verdict
    has started the walk of ``all_subgroup_classes``, its classes of p-power
    order are returned instead, since its solvable list holds every
    p-subgroup class, with the same representatives and orbit sizes.  That
    read stores more than the p-walk would, so when a cap refuses it the
    p-walk runs after all, and the answer never depends on which walk was
    started first.
    """
    sylow_order = _sylow_order(group, p)

    def start():
        p_element = group.order_mask(lambda o: o > 1 and p_part(o, p) == o)

        def wanted(hset, x):
            return p_element[x] and group.pow_idx(x, p) in hset

        return _GradedWalk(group, sylow_order, True, wanted)

    d = sylow_order if max_order is None else min(max_order, sylow_order)
    classes = None
    if isinstance(group.analysis_cache.get(WALK_KEY), _GradedWalk):
        try:
            # the orders dividing |G|_p are the powers of p
            walked = _walk_classes(group, d)[1:]
            classes = [c for c in walked if sylow_order % c.order == 0]
        except CapExceeded:
            pass  # the p-walk stores less, so it may still answer
    if classes is None:
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
    ``_coset_orbit_reps``).  Up to ``low`` (see ``_nonsolvable_floor``) the
    walk takes x from N_G(H) alone, which finds every solvable class; a
    read from ``low`` on runs a walk that takes x from all of G, so perfect
    subgroups are found too (a pure normalizer-driven cyclic extension
    would miss them).  When no proper subgroup can be non-solvable, the walk
    inside normalisers lists G alone instead.

    The walk runs in order of subgroup order and extends only the classes
    of order at most d / 2, and no class of the largest order a proper
    subgroup can have, or more: a subgroup K of order at most d has a
    maximal subgroup H, of order at most d / 2, and some prime-power element
    x of K outside H, since those elements generate K; then K = <H, x>, and
    the walk extends a conjugate of H by a conjugate of x, or by an x' whose
    extension is conjugate to it.  The walk is kept in
    ``group.analysis_cache`` and resumed by the next call that asks for
    more; a walk that hits a cap keeps its refusal, so a later call that
    asks for as much is refused without walking again (see ``_resumed``).
    """
    n = group.order()
    return _walk_classes(group, n if max_order is None else max_order, True)


def _walk_classes(group, d, complete=False):
    """The classes of order at most d: all of them when ``complete``, as
    ``all_subgroup_classes`` lists them; else the solvable ones, off the
    walk inside normalisers kept under ``WALK_KEY`` (with G after a
    complete read from ``low`` on, where that walk lists G).

    A complete read of order below ``low`` reads that walk too.  From
    ``low`` on, where no proper subgroup can be non-solvable, it reads that
    walk, which then lists G; elsewhere it reads a walk over all of G, kept
    under (``WALK_KEY``, "all").  ``low``, and which of the two holds, is
    computed once per group.  Every read is refused above
    ``full_subgroup_cap``."""
    n = group.order()
    cap = group.caps.full_subgroup_cap
    if n > cap:
        raise CapExceeded("full subgroup enumeration", f"order {n} > {cap}")
    cache = group.analysis_cache
    if "nonsolvable floor" not in cache:
        low = _nonsolvable_floor(group)
        # whether a proper subgroup can be non-solvable
        reaching = low is not None and low <= group._closure_bound()
        cache["nonsolvable floor"] = low, reaching
    low, reaching = cache["nonsolvable floor"]
    whole = complete and reaching and d >= low

    def start():
        pp_element = group.order_mask(lambda o: len(prime_factors(o)) == 1)
        adds_g = None if whole else low
        return _GradedWalk(group, n, not whole, lambda h, x: pp_element[x], adds_g)

    key = (WALK_KEY, "all") if whole else WALK_KEY
    return _resumed(group, key, start, d, complete)


def are_conjugate(group, sub_a, sub_b):
    """A conjugator g with g^-1 * A * g = B, or None.

    Rejects on fingerprint mismatch, then walks the conjugates of A
    (``Group.conjugates``, at most ``stored_index_cap`` // |A| of them) and
    looks B up among them; the carrier c of B, A^c = B, is re-verified
    before it is handed out.
    """
    if sub_a.parent is not group or sub_b.parent is not group:
        raise ValueError("subgroups must belong to the given group")
    if sub_a.indices == sub_b.indices:
        return group.identity()
    if sub_a.fingerprint() != sub_b.fingerprint():
        return None
    target = sub_b.indices
    orbit, edges = group.conjugates(sub_a.indices, group.caps.stored_index_cap)
    if target not in orbit:
        return None
    carrier = _carriers(group, edges)[orbit.index(target)]
    if frozenset(map(group.conjugator(carrier), sub_a.indices)) != target:
        raise RuntimeError("conjugator failed re-verification")  # pragma: no cover
    return group.perm_at(carrier)
