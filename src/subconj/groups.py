"""Permutation groups with exact order and membership via a stabilizer chain.

A :class:`Group` is built from generators by a deterministic Schreier-Sims
run, which gives the base, basic orbits and strong generators.  On top of
that, groups whose order fits under the element cap expose an indexed view of
their (sorted) element list; all subgroup machinery in this package works on
frozensets of element indices, which keeps orbit walks and closures cheap.

Inside a group of degree at most 256, a listed element is its 0-based
image tuple as ``degree`` bytes, and every generator, transversal element,
Schreier generator and coset representative is a 256-byte table: those
bytes, then the points degree..255 fixed.  A byte holds a point only up to
255, so a larger degree keeps 0-based image tuples.  The group picks that
form once, from its degree, and every product, inverse and coset goes
through it: ``a.translate(b)`` is a * b in one C loop when b is a table,
whichever length a has.  Elements are packed and unpacked only at the
boundary (``contains`` packs a permutation; ``elements``, ``perm_at`` and
``identity`` hand out tuples, and ``index_of`` compares one), and bytes of
one length sort as their image tuples do, so element indices do not depend
on the form.

Every element is keyed by its base image: its images of the k base points
of the stabiliser chain.  Only the identity fixes the base pointwise, so two
elements with the same base image are equal, and the key dict is the group's
one element index.  A key is read by an ``operator.itemgetter`` over the
points, so it is a k-tuple, a bare point when k = 1, and () for the trivial
group's empty base; ``_getter`` makes every key of a group, so all share one
shape.  The group keeps one getter per element, over x_i's base image: the
key of x_i * x_j is x_j read at those k points, so every product is one C
call and one dict read, where a whole image tuple costs one lookup per point
of the degree.  ``mul_idx``, ``left_coset`` and ``closure_idx`` all read
products this way; ``left_coset`` reads x_j * x_h for a whole index list in
one C-level map chain.  A conjugate x^g is keyed by g(x(g^-1(b))) over the
base points b: ``conj_maps`` reads the points x(g^-1(b)) of every element at
once, as strided columns of one flat buffer of the listed elements, and
passes each column through g's table; ``conjugator`` does the same one
element at a time, x * g read at the points g^-1(b).

Subgroups are closed coset by coset (Dimino), both the element list of the
group and every ``closure_idx``: adjoining x to a closed subgroup K walks one
representative t per coset, and adds each new coset whole in one C-level
pass.  ``closure_idx`` takes left cosets tK, K read through t's getter; the
element list takes right cosets Kt, each listed element of K translated
through the table t.  That walk needs generators of K, so
its base is a :class:`Subgroup`, which carries them, and subgroups grow
through ``Subgroup.join``: <H, seed> with H's generators and the new seeds.
Normal closures join each round's generators to the subgroup of the round
before.

Element orders and inverses come with the conjugacy classes: only the
first element x of each class walks its powers x, x^2, ..., x^m = 1, one key
read per step, for its order m and its inverse x^(m-1).  Order is a class
function and (x^g)^-1 = (x^-1)^g, so the class walk hands both on along each
conjugation map (Holt, Eick & O'Brien, Handbook of Computational Group
Theory, 2005).  A quotient G/N labels every element with its coset number
in one pass: the first time its BFS reaches a coset Nt, it writes the
number over all of Nt.

One walk, ``Group.conjugates``, lists a subgroup's conjugates and the edges
between them, the step of each generator from each conjugate; no other loop
walks a conjugation orbit, and only it counts the orbit-key cap.  The
subgroup-class registry, the conjugacy test and the normaliser all read that
one walk, and the registry keeps the edges of a class that a subgroup walk
will extend, so its normaliser needs no second walk.

Exact shortcuts replace whole-group scans.  A closure stops as soon as its
members pass the largest order a proper subgroup can have, and returns the
group's one kept set of all n indices.  By Lagrange's theorem, that the order
of a subgroup divides the order of the group, that order is at most n/2, and
the closures read n/2 until the conjugacy classes are built.  The classes
give a smaller bound: a proper subgroup K of index m acts on its cosets, so
G/core_G(K) embeds in S_m, and the core is a proper normal subgroup, a union
of classes whose order d divides n and exceeds by one a sum of non-identity
class sizes.  So n/d divides m!, m is at least the least mu(n/d) with
n/d | mu(n/d)!, and |K| is at most the largest divisor of n not above n/m
(Holt, Eick & O'Brien 2005): 60 for PSL2(11), where n/2 = 330.  And the
normaliser comes from orbit-stabiliser: the walk over the conjugates of H
gives |N_G(H)| = |G| / their number, and the Schreier generators its edges
give are added until that order is reached, without a scan of G.

Groups and subgroups are immutable after construction.  The lazy caches
(element list, conjugation maps, ...) are populated once and only read
afterwards, so sharing across threads or analyses is safe.
"""

from __future__ import annotations

from array import array
from collections import Counter
from itertools import chain, repeat, starmap
from math import gcd
from operator import itemgetter

from .caps import CapExceeded, default_caps
from .fields import divisors, prime_powers
from .perms import Permutation, invert


def _mult(a, b):
    # left-to-right product of 0-based image tuples: b read at the points of
    # a, one C call; a group of degree 1 has no product to take, so a holds
    # two or more points and the getter returns a tuple
    return itemgetter(*a)(b)


def _least_factorial_multiple(k):
    """mu(k), the least m with k | m!: over the p^e exactly dividing k, the
    largest of the least multiples m of p whose m! holds p at least e times.
    The exponent of p in m! is the sum of its exponents in 1..m (Legendre),
    so m steps through p, 2p, ... adding each step's; no factorial is
    formed."""
    mu = 1
    for p, e in prime_powers(k).items():
        m = v = 0
        while v < e:
            m += p
            q = m
            while q % p == 0:
                q //= p
                v += 1
        mu = max(mu, m)
    return mu


def _proper_subgroup_bound(n, sizes):
    """The largest order a proper subgroup of a group of order n can have,
    given the sizes of its non-identity conjugacy classes (0 for n = 1).

    A normal subgroup is the identity and a union of classes, so its order d
    is one more than a sum of some of ``sizes``; those sums are the bits of
    one int, each run of c equal sizes added in chunks 1, 2, 4, ... of it
    (all of them sum to n - 1, so no bit passes n - 1).  The core of a
    proper subgroup K of index m is a proper normal subgroup of some such
    order d, and G/core embeds in S_m, so m >= mu(n/d).  Every mu(n/d) is at
    least the least prime p of n, as some prime of n divides n/d, so the
    walk down the divisors d stops at the first that gives p."""
    if n == 1:
        return 0
    reach = 1  # bit s: some classes hold s elements together
    for size in set(sizes):
        count, chunk = sizes.count(size), 1
        while count:
            take = min(chunk, count)
            reach |= reach << size * take
            count -= take
            chunk *= 2
    orders = divisors(n)[::-1]
    least, m = orders[-2], n  # the least prime of n
    for d in orders[1:]:
        if reach >> (d - 1) & 1:
            m = min(m, _least_factorial_multiple(n // d))
            if m == least:
                break
    return next(d for d in orders if d * m <= n)


def _no_points(t):
    return ()


def _getter(points):
    """The map t -> t read at ``points``, in one C call: a tuple for two or
    more points, the bare image for one, () for none."""
    return itemgetter(*points) if points else _no_points


# A byte holds the points 0..255, so groups of larger degree keep tuples.
_TABLE_DEGREE = 256
_POINTS = bytes(range(256))


class _Tables:
    """The element form of degree <= 256.  A listed element is its image
    tuple as ``degree`` bytes; a generator, a chain element or a coset
    representative is a 256-byte table, those bytes and then the fixed
    points degree..255.  ``a.translate(b)`` is a * b, a's points mapped
    through the table b, so it is a table or a listed element as a is;
    ``maketrans(a, points)`` sends a's image of i back to i, so it is a^-1."""

    def __init__(self, degree):
        self.identity = _POINTS
        self._degree = degree
        self._fixed = _POINTS[degree:]

    def pack(self, t):
        return bytes(t) + self._fixed

    def element(self, a):
        return a[: self._degree]

    unpack = tuple
    mul = staticmethod(bytes.translate)
    flat = b"".join

    @staticmethod
    def inv(a):
        return bytes.maketrans(a, _POINTS)

    @staticmethod
    def right(sub):
        """t -> h * t for every listed h in ``sub``, t a table: one C call
        per element."""
        return lambda t: map(bytes.translate, sub, repeat(t))


class _Tuples:
    """The element form above degree 256: 0-based image tuples, listed
    elements included."""

    def __init__(self, degree):
        self.identity = tuple(range(degree))

    @staticmethod
    def pack(t):
        return t

    element = unpack = pack
    mul = staticmethod(_mult)
    inv = staticmethod(invert)

    @staticmethod
    def flat(elts):
        return tuple(chain.from_iterable(elts))

    @staticmethod
    def right(sub):
        """t -> h * t for every h in ``sub``: h's getter reads t at the
        points of h, one C call per element."""
        getters = list(starmap(itemgetter, sub))
        return lambda t: map(itemgetter.__call__, getters, repeat(t))


def _form(degree):
    return _Tables(degree) if degree <= _TABLE_DEGREE else _Tuples(degree)


class _Level:
    __slots__ = ("point", "gens", "transversal")

    def __init__(self, point):
        self.point = point
        self.gens = []
        self.transversal = {}


class _Chain:
    """Base and strong generating set, built deterministically."""

    def __init__(self, gens0, form, degree):
        self.degree = degree
        self.levels = []
        self.identity = form.identity
        self._mul, self._inv = form.mul, form.inv
        gens0 = [g for g in gens0 if g != self.identity]
        for g in gens0:
            self._ensure_base_point(g)
        for i, level in enumerate(self.levels):
            level.gens = [g for g in gens0 if self._fixes_prefix(g, i)]
        i = len(self.levels) - 1
        while i >= 0:
            self._complete_level(i)
            i -= 1

    def _fixes_prefix(self, g, i):
        return all(g[lvl.point] == lvl.point for lvl in self.levels[:i])

    def _ensure_base_point(self, g):
        """Extend the base so that g moves some base point."""
        for lvl in self.levels:
            if g[lvl.point] != lvl.point:
                return
        pt = min(j for j in range(len(g)) if g[j] != j)
        self.levels.append(_Level(pt))

    def _orbit(self, i):
        level = self.levels[i]
        trans = {level.point: self.identity}
        queue = [level.point]
        mul = self._mul
        for a in queue:
            u = trans[a]
            for g in level.gens:
                b = g[a]
                if b not in trans:
                    trans[b] = mul(u, g)
                    queue.append(b)
        level.transversal = trans

    def strip(self, t, start=0):
        """Sift t through levels[start:]; returns (residue, level reached)."""
        mul, inv = self._mul, self._inv
        for i in range(start, len(self.levels)):
            lvl = self.levels[i]
            u = lvl.transversal.get(t[lvl.point])
            if u is None:
                return t, i
            t = mul(t, inv(u))
        return t, len(self.levels)

    def _complete_level(self, i):
        # Levels below i are complete; make every Schreier generator of level
        # i sift to the identity through them.
        self._orbit(i)
        level = self.levels[i]
        mul, inv = self._mul, self._inv
        for gamma in sorted(level.transversal):
            u = level.transversal[gamma]
            for g in level.gens:
                sg = mul(mul(u, g), inv(level.transversal[g[gamma]]))
                if sg == self.identity:
                    continue
                residue, j = self.strip(sg, i + 1)
                if residue == self.identity:
                    continue
                if j == len(self.levels):
                    pt = min(k for k in range(self.degree) if residue[k] != k)
                    self.levels.append(_Level(pt))
                    self.levels[-1].transversal = {pt: self.identity}
                for l in range(i + 1, j + 1):
                    self.levels[l].gens.append(residue)
                for l in range(j, i, -1):
                    self._complete_level(l)

    def order(self):
        n = 1
        for lvl in self.levels:
            n *= len(lvl.transversal)
        return n

    def contains(self, t):
        residue, _ = self.strip(t)
        return residue == self.identity


class Group:
    """A finite permutation group given by generators."""

    def __init__(self, generators, degree=None, caps=None):
        generators = tuple(generators)
        if degree is None:
            if not generators:
                raise ValueError("need generators or an explicit degree")
            degree = generators[0].degree
        for g in generators:
            if g.degree != degree:
                raise ValueError(f"degree mismatch: {g.degree} vs {degree}")
        seen = set()
        kept = []
        for g in generators:
            if not g.is_identity() and g._t not in seen:
                seen.add(g._t)
                kept.append(g)
        self.degree = degree
        self.generators = tuple(kept)
        self.caps = caps if caps is not None else default_caps()
        # every element inside the group is held in one form, chosen here
        self._form = form = _form(degree)
        self._gens = [form.pack(g._t) for g in self.generators]
        self._chain = _Chain(self._gens, form, degree)
        self._order = self._chain.order()
        self._base = tuple(lvl.point for lvl in self._chain.levels)
        self._read_base = _getter(self._base)
        # lazy caches
        self._elts0 = None
        self._keys = None
        self._by_bimg = None
        self._identity_idx = None
        self._orders = None
        self._invs = None
        self._conj_maps = None
        self._classes = None
        self._class_of = None
        self._rational = None
        self._proper_max = None
        self._whole = None
        # subgroup-class enumerations, the resumable subgroup walk, Sylow
        # subgroups, the witness pairs proved non-conjugate and the quotients
        # G/N, so each lives as long as the group
        self.analysis_cache = {}

    def order(self):
        return self._order

    def contains(self, perm):
        if perm.degree != self.degree:
            return False
        return self._chain.contains(self._form.pack(perm._t))

    __contains__ = contains

    def identity(self):
        return Permutation._from0(tuple(range(self.degree)))

    # ------------------------------------------------------------------
    # indexed element view

    def _materialize(self):
        """List the elements coset by coset (Dimino), sort them and key them.

        With H = <g_1..g_{k-1}> listed, a generator g_k already in H is
        skipped; otherwise K = <H, g_k> is the union of the right cosets Ht
        reached from H under right multiplication by g_1..g_k.  The
        representatives t are kept in the group's form (256-byte tables at
        degree <= 256) and each new coset is H times t, one C call per
        element; the listed elements themselves are only ``degree`` bytes
        (or tuples).  The walk uses the generators only, so its size is
        checked against the chain order.
        """
        if self._elts0 is not None:
            return
        cap = self.caps.element_cap
        if self._order > cap:
            raise CapExceeded("element enumeration", f"order {self._order} > {cap}")
        form = self._form
        identity = form.identity
        seen = {form.element(identity)}
        gens = self._gens
        for k, g in enumerate(gens):
            if form.element(g) in seen:
                continue
            coset = form.right(tuple(seen))
            reps = [identity]
            for r in reps:
                for s in gens[: k + 1]:
                    t = form.mul(r, s)
                    if form.element(t) not in seen:
                        reps.append(t)
                        seen.update(coset(t))
        if len(seen) != self._order:
            raise RuntimeError(
                f"stabilizer chain order {self._order} != closure size {len(seen)}"
            )
        elts = sorted(seen)
        # key every element by its base image, read once; the keys must
        # separate the elements, and each is also that element's getter
        read_base = self._read_base
        bimgs = list(map(read_base, elts))
        by_bimg = dict(zip(bimgs, range(self._order)))
        if len(by_bimg) != self._order:
            raise RuntimeError(
                f"base images separate {len(by_bimg)} of {self._order} elements"
            )
        # a one-point base keys by the bare point, which itemgetter takes as
        # is; a longer one by a tuple, unpacked by starmap in the same C loop
        k = len(self._base)
        if k > 1:
            self._keys = list(starmap(itemgetter, bimgs))
        else:
            self._keys = list(map(itemgetter if k else _getter, bimgs))
        self._by_bimg = by_bimg
        self._identity_idx = by_bimg[read_base(identity)]
        self._elts0 = elts

    def elements(self):
        """All elements, sorted by image tuple; requires order <= element cap."""
        self._materialize()
        return tuple(map(Permutation._from0, map(self._form.unpack, self._elts0)))

    @property
    def identity_idx(self):
        self._materialize()
        return self._identity_idx

    def index_of(self, perm):
        """Index of a member, found by its base image and then checked
        against the whole image tuple; ValueError for a non-member."""
        self._materialize()
        t = perm._t
        if len(t) == self.degree:
            idx = self._by_bimg.get(self._read_base(t))
            if idx is not None and self._form.unpack(self._elts0[idx]) == t:
                return idx
        raise ValueError(f"{perm} is not a member")

    def perm_at(self, i):
        self._materialize()
        return Permutation._from0(self._form.unpack(self._elts0[i]))

    def mul_idx(self, i, j):
        """Index of x_i * x_j: the key of x_j read at x_i's base image."""
        keys = self._keys
        if keys is None:
            self._materialize()
            keys = self._keys
        return self._by_bimg[keys[i](self._elts0[j])]

    def left_coset(self, j, indices):
        """The indices of x_j * x_h for h in ``indices``, in that order: each
        x_h read at x_j's base image, in one C-level map chain."""
        self._materialize()
        elts = map(self._elts0.__getitem__, indices)
        return list(map(self._by_bimg.__getitem__, map(self._keys[j], elts)))

    def pow_idx(self, i, k):
        """Index of x_i ** k for k >= 0, by square-and-multiply."""
        result = self.identity_idx
        while k:
            if k & 1:
                result = self.mul_idx(result, i)
            i = self.mul_idx(i, i)
            k >>= 1
        return result

    def inv_idx(self, i):
        """Index of x_i^-1, carried by ``conjugacy_classes_idx``."""
        if self._invs is None:
            self.conjugacy_classes_idx()
        return self._invs[i]

    def _order_list(self):
        """The element orders by index, carried by ``conjugacy_classes_idx``:
        an element's order is a class function."""
        if self._orders is None:
            self.conjugacy_classes_idx()
        return self._orders

    def order_of_idx(self, i):
        """Order of x_i, from ``_order_list``."""
        return (self._orders or self._order_list())[i]

    def order_mask(self, test):
        """[test(order of x_i) for every index i], calling ``test`` once per
        distinct element order."""
        orders = self._order_list()
        value = {o: test(o) for o in set(orders)}
        return list(map(value.__getitem__, orders))

    def gen_indices(self):
        return tuple(self.index_of(g) for g in self.generators)

    def conj_maps(self):
        """Per generator g, the index map i -> index of g^-1 * x_i * g.

        x^g = g^-1 * x * g sends a base point b to g(x(g^-1(b))).  The
        listed elements are joined into one flat buffer, n * degree points,
        so x_i(q) for every i is the strided column flat[q::degree]; that
        column at q = g^-1(b), passed through g in one C call, is the b part
        of every key at once.  The parts zipped over the base points are the
        keys, one dict read per element.
        """
        if self._conj_maps is None:
            self._materialize()
            form, d = self._form, self.degree
            flat = form.flat(self._elts0)
            maps = []
            for gt in self._gens:
                cols = [form.mul(flat[gt.index(b) :: d], gt) for b in self._base]
                keys = cols[0] if len(cols) == 1 else zip(*cols)
                maps.append(list(map(self._by_bimg.__getitem__, keys)))
            self._conj_maps = maps
        return self._conj_maps

    def conjugator(self, g):
        """The index map x -> index of x_g^-1 * x * x_g, one element at a
        time: x * x_g is one product with g's table, and the key of x^g is
        that read at the points g^-1(b), b in the base (see ``conj_maps``)."""
        self._materialize()
        form, elts, by = self._form, self._elts0, self._by_bimg
        gt = form.pack(elts[g])
        pre = _getter(tuple(map(gt.index, self._base)))
        mul = form.mul
        return lambda x: by[pre(mul(elts[x], gt))]

    def conjugacy_classes_idx(self):
        """Element conjugacy classes as sorted tuples of indices, with the
        element orders and inverses.

        Each class is a breadth-first orbit along the generators'
        ``conj_maps()``, from its least index x.  Only x walks its powers x,
        x^2, ..., x^m = 1, one key read per step, for its order m and its
        inverse x^(m-1).  Conjugation keeps the order and commutes with
        inversion, (x^g)^-1 = (x^-1)^g, so the step to y = x^g gives y the
        order of x and the inverse m[inv(x)] along the same map.
        """
        if self._classes is None:
            self._materialize()
            maps = self.conj_maps()
            elts, keys, by = self._elts0, self._keys, self._by_bimg
            identity = self._identity_idx
            n = self._order
            class_of = [-1] * n
            orders = [0] * n
            invs = [0] * n
            classes = []
            for i in range(n):
                if class_of[i] >= 0:
                    continue
                key, y, prev, order = keys[i], i, i, 1
                while y != identity:
                    prev, y = y, by[key(elts[y])]  # x * y
                    order += 1
                cid = len(classes)
                orbit = [i]
                class_of[i], orders[i], invs[i] = cid, order, prev
                for x in orbit:
                    for m in maps:
                        y = m[x]
                        if class_of[y] < 0:
                            class_of[y], orders[y], invs[y] = cid, order, m[invs[x]]
                            orbit.append(y)
                classes.append(tuple(sorted(orbit)))
            self._classes = tuple(classes)
            self._class_of = class_of
            self._orders = tuple(orders)
            self._invs = invs
        return self._classes

    def rational_classes(self):
        """{m: [x, ...]}: the least index of each rational class of elements
        of order m > 1, in index order, for every element order m.

        The rational class of x is the union of the conjugacy classes of its
        generating powers x^k, k prime to |x|, so <x> and <y> are conjugate
        exactly when x and y are in one rational class (Holt, Eick & O'Brien,
        Handbook of Computational Group Theory, 2005).  The conjugacy classes
        come in order of their least index, so the first class of each
        rational class met holds its least index; that class is merged with
        the classes of the powers of its first element."""
        if self._rational is None:
            classes = self.conjugacy_classes_idx()
            class_of, mul = self._class_of, self.mul_idx
            merged = bytearray(len(classes))
            by_order = {}
            for cid, cls in enumerate(classes):
                x = cls[0]
                m = self.order_of_idx(x)
                if merged[cid] or m == 1:
                    continue
                y = x
                for k in range(2, m):
                    y = mul(y, x)  # x^k
                    if gcd(k, m) == 1:
                        merged[class_of[y]] = 1
                by_order.setdefault(m, []).append(x)
            self._rational = by_order
        return self._rational

    def conjugates(self, hset, cap=None):
        """The one orbit walk on subgroups: the conjugates of the index set
        ``hset``, breadth-first along the generators' ``conj_maps()``, as
        (orbit, edges).

        Conjugates are numbered as found, orbit[0] = ``hset``, and with r
        generators, ``edges[i * r + j]`` is m when orbit[i]^g_j = orbit[m].
        A walk that would find more than ``cap`` conjugates (uncapped when
        None) raises CapExceeded("orbit keys") when it meets the next one.
        """
        maps = self.conj_maps()
        cap = self._order if cap is None else cap
        number = {hset: 0}
        orbit = [hset]
        edges = array("I")
        for k in orbit:
            for cmap in maps:
                kg = frozenset(map(cmap.__getitem__, k))
                m = number.get(kg)
                if m is None:
                    if len(orbit) >= cap:
                        raise CapExceeded("orbit keys", f"more than {cap} conjugates")
                    m = number[kg] = len(orbit)
                    orbit.append(kg)
                edges.append(m)
        return orbit, edges

    # ------------------------------------------------------------------
    # closures on index sets

    def closure_idx(self, seed, base=None):
        """Subgroup (as an index set) generated by ``base`` and ``seed``.

        ``base`` is a :class:`Subgroup` K of this group, None for the trivial
        one; the walk starts from its members and ``gens_idx()``.
        ``Subgroup.join`` wraps this walk.  The seeds are adjoined one at a
        time (Dimino).  The first seed over a trivial K closes <x> by its
        powers.  Each further seed x, with K the subgroup closed so far, gives
        H = <K, x> as the union of the left cosets tK.  H acts on them by left
        multiplication and is generated by K's generators and the seeds so
        far, so the orbit of K under those generators is every coset: the walk
        keeps one representative r per coset, reads s * r for each generator
        s, and, as the members are always a union of cosets of K, a product t
        outside them starts a new coset tK, which is added whole as K read
        through t's getter in one C-level pass.  That is |H : K| reads per
        generator, not |H|.

        A subgroup with more elements than the largest proper subgroup can
        have is the whole group, so the walk stops once the members pass that
        order: the bound read off the conjugacy classes at the first closure
        after they are built, n/2 (Lagrange) until then; a closure never
        builds them.  The test is strict: a subgroup of exactly that order,
        such as one of index 2, closes normally.  A closure that reaches the
        whole group returns the group's one kept set of all indices.
        """
        self._materialize()
        elts, keys, by = self._elts0, self._keys, self._by_bimg
        identity = self.identity_idx
        if base is None:
            members, gens = {identity}, []
        else:
            members, gens = set(base.indices), list(base.gens_idx())
        bound = self._closure_bound()
        for x in dict.fromkeys(seed):
            if x in members:
                continue
            gens.append(x)
            if len(members) == 1:
                key, y = keys[x], x
                while y != identity:
                    members.add(y)
                    y = by[key(elts[y])]  # x * y
            else:
                sub = list(map(elts.__getitem__, members))
                left = [keys[s] for s in gens]
                reps = [elts[identity]]
                for r in reps:
                    for s in left:
                        t = by[s(r)]  # s * r
                        if t not in members:
                            reps.append(elts[t])
                            members.update(map(by.__getitem__, map(keys[t], sub)))
                            if len(members) > bound:
                                return self._whole_set()
        return self._whole_set() if len(members) > bound else frozenset(members)

    def _closure_bound(self):
        """The order past which a closure is the whole group: the largest
        order a proper subgroup can have, computed from the class sizes at
        the first closure after the classes are built and kept, n // 2 until
        then."""
        if self._proper_max is None:
            if self._classes is None:
                return self._order // 2
            identity = self._identity_idx
            self._proper_max = _proper_subgroup_bound(
                self._order, [len(c) for c in self._classes if c[0] != identity]
            )
        return self._proper_max

    def _whole_set(self):
        """The index set of the whole group, one kept frozenset, so lookups
        of it hash once and compare by identity."""
        if self._whole is None:
            self._whole = frozenset(range(self._order))
        return self._whole

    def normal_closure_idx(self, seed):
        """Smallest normal subgroup of this group containing the seed indices.

        Alternates subgroup closure with a normality check on the generators;
        a closed set whose generators conjugate into it is normal.
        """
        return self._normal_closure(seed).indices

    def _normal_closure(self, seed, base=None):
        """The normal closure of ``base`` (a normal Subgroup, None for the
        trivial one) and the seeds, as a Subgroup grown from ``base``.

        Each round joins the generators found in the round before and checks
        only their conjugates: the earlier ones conjugate into the earlier,
        smaller subgroup.  The generators come out as ``base``'s, the seeds
        outside it in order, then each round's missing conjugates.
        """
        maps = self.conj_maps()
        sub = self.trivial_subgroup() if base is None else base
        new = list(dict.fromkeys(seed))
        while True:
            sub = sub.join(new)
            members = sub.indices
            missing = [c for m in maps for g in new if (c := m[g]) not in members]
            if not missing:
                return sub
            new = list(dict.fromkeys(missing))

    # ------------------------------------------------------------------
    # subgroup handles

    def subgroup_from_indices(self, indices, gens_idx=None):
        return Subgroup(self, frozenset(indices), gens_idx)

    def subgroup(self, perms):
        """Subgroup generated by the given member permutations."""
        for p in perms:
            if p not in self:
                raise ValueError(f"{p} is not a member of the group")
        return self.trivial_subgroup().join(self.index_of(p) for p in perms)

    def trivial_subgroup(self):
        return self.subgroup_from_indices({self.identity_idx}, ())

    def full_subgroup(self):
        gi = self.gen_indices()
        self._materialize()
        return self.subgroup_from_indices(self._whole_set(), gi)

    def __repr__(self):
        return f"Group(degree={self.degree}, order={self._order})"


class Subgroup:
    """A subgroup of a parent group, held as a set of element indices.

    A subgroup grown by ``join`` carries the generators that grew it; one
    produced by a scan recovers a small list greedily from its elements.  Fingerprints are
    conjugation-invariant summaries used to prune conjugacy searches.
    """

    __slots__ = ("parent", "indices", "_gens_idx", "_abelian")

    def __init__(self, parent, indices, gens_idx=None):
        self.parent = parent
        self.indices = frozenset(indices)
        self._gens_idx = tuple(gens_idx) if gens_idx is not None else None
        self._abelian = None

    @property
    def order(self):
        return len(self.indices)

    def gens_idx(self):
        if self._gens_idx is None:
            self._gens_idx = _greedy_gens(self.parent, self.indices)
        return self._gens_idx

    def join(self, seed):
        """<H, seed> as a Subgroup: generated by H's generators, then the
        seeds outside H in order and without repeats; H itself when no seed
        is new."""
        new = [x for x in dict.fromkeys(seed) if x not in self.indices]
        if not new:
            return self
        grown = self.parent.closure_idx(new, base=self)
        return Subgroup(self.parent, grown, (*self.gens_idx(), *new))

    @property
    def generators(self):
        return tuple(self.parent.perm_at(i) for i in self.gens_idx())

    def elements(self):
        return tuple(self.parent.perm_at(i) for i in sorted(self.indices))

    def __contains__(self, perm):
        try:
            return self.parent.index_of(perm) in self.indices
        except ValueError:
            return False

    def is_abelian(self):
        if self._abelian is None:
            gens = self.gens_idx()
            mul = self.parent.mul_idx
            self._abelian = all(
                mul(a, b) == mul(b, a) for a in gens for b in gens
            )
        return self._abelian

    def is_cyclic(self):
        """Holding an element of the subgroup's order, in one C-level scan;
        a subgroup already known to be non-abelian is not cyclic without it.
        The abelian test is not run for this: it costs products, and
        closures for a subgroup without generators, where the scan costs
        neither."""
        if self._abelian is False:
            return False
        orders = self.parent._order_list()
        return self.order in map(orders.__getitem__, self.indices)

    def element_order_counter(self):
        return Counter(map(self.parent._order_list().__getitem__, self.indices))

    def fingerprint(self):
        """(order, element-order multiset, abelian flag); conjugation-invariant."""
        counts = tuple(sorted(self.element_order_counter().items()))
        return (self.order, counts, self.is_abelian())

    def key(self):
        """Sorted index tuple; the deterministic identity of the subgroup."""
        return tuple(sorted(self.indices))

    def __eq__(self, other):
        return (
            isinstance(other, Subgroup)
            and self.parent is other.parent
            and self.indices == other.indices
        )

    def __hash__(self):
        return hash((id(self.parent), self.indices))

    def __repr__(self):
        return f"Subgroup(order={self.order} of {self.parent!r})"


def _greedy_gens(parent, indices):
    """Small generating index list for a known-closed index set: each
    element not yet reached, largest order first, is joined to the subgroup
    grown so far."""
    order = len(indices)
    if order == 1:
        return ()
    ordered = sorted(indices, key=lambda i: (-parent.order_of_idx(i), i))
    current = parent.trivial_subgroup()
    for i in ordered:
        if i in current.indices:
            continue
        current = current.join([i])
        if current.order == order:
            return current.gens_idx()
    raise RuntimeError("index set is not closed under multiplication")


# ----------------------------------------------------------------------
# module-level operations


def centralizer(group, sub):
    """C_G(H) = elements commuting with every element of H."""
    group._materialize()
    mul = group.mul_idx
    hgens = sub.gens_idx()
    members = [
        i
        for i in range(group.order())
        if all(mul(i, h) == mul(h, i) for h in hgens)
    ]
    return group.subgroup_from_indices(members)


def _carriers(group, edges):
    """c_m with orbit[0]^c_m = orbit[m] for every conjugate m of a walk
    (``Group.conjugates``), as element indices: c_0 = 1, and the first edge
    into m, orbit[i]^g_j = orbit[m], gives c_m = c_i g_j."""
    mul, gens = group.mul_idx, group.gen_indices()
    found = [group.identity_idx]
    for e, m in enumerate(edges):
        if m == len(found):
            i, j = divmod(e, len(gens))
            found.append(mul(found[i], gens[j]))
    return found


def _walk_normalizer(group, sub, size, edges, root=0):
    """N_G(H) for H = orbit[root], one of the ``size`` conjugates of a walk
    with these ``edges``, by orbit-stabiliser: |N_G(H)| = |G| / size, so N
    is G when size is 1 and H when size is |G:H|.

    Otherwise every edge orbit[i]^g_j = orbit[m] but the one that gave c_m
    (carriers c as in ``_carriers``) gives a Schreier generator c_i g_j
    c_m^-1 of N_G(orbit[0]), and c_root conjugates it into N_G(H).  Those
    outside the subgroup built so far are joined to H, each at least
    doubling it, until the order is reached; the result carries H's
    generators and the ones joined.
    """
    target = group.order() // size
    if size == 1:
        return group.full_subgroup()
    if target == sub.order:
        return sub
    mul, inv, gens = group.mul_idx, group.inv_idx, group.gen_indices()
    c = _carriers(group, edges)
    conj = group.conjugator(c[root])
    current = sub
    for e, m in enumerate(edges):
        if current.order == target:
            break
        i, j = divmod(e, len(gens))
        t = mul(c[i], gens[j])
        if t != c[m]:
            s = conj(mul(t, inv(c[m])))
            if s not in current.indices:
                current = current.join([s])
    if current.order != target:  # pragma: no cover - contradicts Schreier's lemma
        raise RuntimeError("Schreier generators do not reach |G| / orbit size")
    return current


def normalizer(group, sub):
    """N_G(H) = elements g with g^-1 H g = H: ``_walk_normalizer`` on a
    fresh walk of H's conjugates, which ignores ``orbit_key_cap``."""
    orbit, edges = group.conjugates(sub.indices)
    return _walk_normalizer(group, sub, len(orbit), edges)


def center(group):
    """Z(G): the union of the one-element conjugacy classes."""
    classes = group.conjugacy_classes_idx()
    return group.subgroup_from_indices(c[0] for c in classes if len(c) == 1)


def is_normal(group, sub):
    """True iff g^-1 H g = H for every generator g of the group."""
    hset = sub.indices
    for cmap in group.conj_maps():
        if any(cmap[x] not in hset for x in sub.gens_idx()):
            return False
    return True


class Quotient:
    """Action of G on the cosets of a normal subgroup N.

    ``group`` is that action as a permutation group on the cosets, a faithful
    image of G/N, generated by ``_coset_images``.  Only the action is kept:
    there is no map from G's elements to their cosets.
    """

    def __init__(self, group, normal_sub):
        if not is_normal(group, normal_sub):
            raise ValueError("subgroup is not normal; quotient undefined")
        images = _coset_images(group, normal_sub)
        perms = [Permutation._from0(img) for img in images]
        index = group.order() // normal_sub.order
        self.group = Group(perms, degree=index, caps=group.caps)
        if self.group.order() * normal_sub.order != group.order():
            raise RuntimeError("coset action order mismatch")


def _coset_images(group, normal_sub):
    """Per generator of G, its action on the right cosets of the normal
    subgroup N, as a 0-based image tuple.

    The cosets are numbered breadth-first from N along right multiplication
    by the generators.  When the walk first reaches a coset Nt, it writes
    that number over every element of Nt, so each later product needs one
    label read.
    """
    group._materialize()
    mul = group.mul_idx
    nset = normal_sub.indices
    label = [-1] * group.order()
    for x in nset:
        label[x] = 0
    reps = [group.identity_idx]
    gen_idx = group.gen_indices()
    images = [[] for _ in gen_idx]
    for r in reps:
        for gpos, g in enumerate(gen_idx):
            t = mul(r, g)
            c = label[t]
            if c < 0:
                c = len(reps)
                for x in group.left_coset(t, nset):  # N normal: Nt = tN
                    label[x] = c
                reps.append(t)
            images[gpos].append(c)
    return [tuple(img) for img in images]


def quotient(group, normal_sub):
    """G/N as a permutation group on the cosets of N (faithful image of G/N):
    G itself when N is trivial, else built once and kept in the group's
    ``analysis_cache``.  N must be a subgroup of ``group``."""
    if normal_sub.parent is not group:
        raise ValueError("normal subgroup belongs to another group")
    if normal_sub.order == 1:
        return group
    key = "quotient", normal_sub.indices
    if key not in group.analysis_cache:
        group.analysis_cache[key] = Quotient(group, normal_sub).group
    return group.analysis_cache[key]


def direct_product(a, b):
    """A x B acting on the disjoint union of the two point sets."""
    na, nb = a.degree, b.degree
    ga = [Permutation._from0(g._t + tuple(range(na, na + nb))) for g in a.generators]
    gb = [
        Permutation._from0(tuple(range(na)) + tuple(x + na for x in g._t))
        for g in b.generators
    ]
    prod = Group(ga + gb, degree=na + nb, caps=a.caps)
    if prod.order() != a.order() * b.order():  # pragma: no cover
        raise RuntimeError("direct product order mismatch")
    return prod


def semidirect_product(normal, acting, action):
    """N x| H for an action of H on N given by automorphism generator images.

    ``action`` maps each generator of ``acting`` (by position) to the list of
    images of the generators of ``normal`` (members of N, by position).  Each
    image map must extend to an automorphism of N; this is verified on the
    full multiplication graph of N.  The walk that checks it starts at the
    identity and follows every generator of N, so when it succeeds it has
    mapped all of N.  The product acts on the elements of N
    (affine action) next to the natural points of H, which is always faithful.

    It is generated by H's generators and translations by generators of N,
    and H conjugates the translation by g to the one by g's image.  So a
    generator of N is translated only when it lies outside the smallest
    H-invariant subgroup of N holding the generators translated before it.
    That subgroup is the set reached from the identity by right
    multiplication with those generators and by the automorphisms: the set
    is closed under each automorphism's inverse, a power of it, hence under
    multiplication by every image of a kept generator.  E32x(C31xC5) is
    then generated by 3 permutations, not 7.

    Inconsistent relations (images that do not satisfy the relations of H)
    surface as an order mismatch and raise ValueError.
    """
    n_size = normal.order()
    n_gens = [normal.index_of(g) for g in normal.generators]
    if len(action) != len(acting.generators):
        raise ValueError("need one automorphism per generator of the acting group")

    auto_maps = []
    for images in action:
        if len(images) != len(n_gens):
            raise ValueError("need one image per generator of the normal subgroup")
        img_idx = []
        for p in images:
            if p not in normal:
                raise ValueError(f"automorphism image {p} lies outside the group")
            img_idx.append(normal.index_of(p))
        # the images define an automorphism iff the walk from the identity
        # is consistent and injective
        ident = normal.identity_idx
        pairs = list(zip(n_gens, img_idx))
        phi = extend_homomorphism(normal, normal, {ident: ident}, pairs)
        if phi is None:
            raise ValueError("generator images do not define an automorphism")
        auto_maps.append([phi[x] for x in range(n_size)])

    # Generators on elements(N) + points(H): N acts by right translation,
    # H-generators act by their automorphism on the N block.  ``span`` is
    # the H-invariant subgroup of N spanned by the translations kept so far.
    deg_h = acting.degree
    gens = []
    kept = []
    span = {normal.identity_idx}
    for gi in n_gens:
        if gi in span:
            continue
        kept.append(gi)
        queue = list(span)
        for x in queue:
            steps = [normal.mul_idx(x, k) for k in kept]
            for y in steps + [amap[x] for amap in auto_maps]:
                if y not in span:
                    span.add(y)
                    queue.append(y)
        block = [normal.mul_idx(x, gi) for x in range(n_size)]
        gens.append(
            Permutation._from0(tuple(block) + tuple(n_size + k for k in range(deg_h)))
        )
    for amap, h in zip(auto_maps, acting.generators):
        gens.append(
            Permutation._from0(tuple(amap) + tuple(n_size + x for x in h._t))
        )
    prod = Group(gens, degree=n_size + deg_h, caps=normal.caps)
    expected = normal.order() * acting.order()
    if prod.order() != expected:
        raise ValueError(
            "action images do not satisfy the relations of the acting group: "
            f"got order {prod.order()}, expected {expected}"
        )
    return prod


def extend_homomorphism(a, b, phi, pairs):
    """Grow a partial injective map ``phi`` (a dict from element indices of
    ``a`` to element indices of ``b``) along phi(x*g) = phi(x)*h for every
    pair (g, h) in ``pairs``, starting from every index ``phi`` holds.

    Walks the multiplication graph; returns the grown copy of ``phi``, or None
    when one element gets two images or two elements get the same image.
    """
    phi = dict(phi)
    image = set(phi.values())
    queue = list(phi)
    while queue:
        x = queue.pop()
        fx = phi[x]
        for g, h in pairs:
            y = a.mul_idx(x, g)
            fy = b.mul_idx(fx, h)
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
