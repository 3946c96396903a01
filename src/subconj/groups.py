"""Permutation groups with exact order and membership via a stabilizer chain.

A :class:`Group` is built from generators by a deterministic Schreier-Sims
run, which gives the base, basic orbits and strong generators.  On top of
that, groups whose order fits under the element cap expose an indexed view of
their (sorted) element list; all subgroup machinery in this package works on
frozensets of element indices, which keeps orbit walks and closures cheap.

Every element is keyed by its base image: the tuple of its images of the
k base points of the stabiliser chain.  Only the identity fixes the base
pointwise, so two elements with the same base image are equal, and the key
dict is the group's one element index.  Products of element indices come from
a right-regular multiplication table (one ``array('H')`` row per element) when
the table fits in ``_TABLE_BYTES``, i.e. for orders up to 2000.  Larger groups
read the key of x_i * x_j as x_j applied to the base image of x_i: k lookups,
where a whole image tuple costs one per point of the degree.  ``right_row``
is the one place that chooses between the two.

Two exact shortcuts follow from Lagrange's theorem, that the order of a
subgroup divides the order of the group.  A subgroup with more than half the
elements is the whole group, so a closure stops as soon as it passes n/2.  And
since H <= N_G(H), a right coset Hg lies in N_G(H) or misses it as a whole, so
the normaliser tests one element per coset of H.

Groups and subgroups are immutable after construction.  The lazy caches
(element list, conjugation maps, ...) are populated once and only read
afterwards, so sharing across threads or analyses is safe.
"""

from __future__ import annotations

from array import array
from collections import Counter
from math import lcm

from .caps import DEFAULT_CAPS, CapExceeded
from .perms import Permutation


def _mult(a, b):
    # left-to-right product of 0-based image tuples
    return tuple(map(b.__getitem__, a))


def _inv(a):
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


def _is_id(a):
    return all(i == j for i, j in enumerate(a))


def _order_through(t, points):
    """Order of the permutation t when only the identity of its group fixes
    ``points``: the lcm of the lengths of the cycles through them."""
    order = 1
    for p in points:
        k, q = 1, t[p]
        while q != p:
            k, q = k + 1, t[q]
        order = lcm(order, k)
    return order


# Largest multiplication table (2 bytes per entry) a group keeps: order 2000.
_TABLE_BYTES = 8_000_000


class _ProductRow:
    """Right multiplication by one element as an index map; stands in for a
    table row above the table bound.  A lookup maps the base image of x_i
    through the element's image tuple and reads the key dict."""

    __slots__ = ("_bimgs", "_by_bimg", "_t")

    def __init__(self, bimgs, by_bimg, t):
        self._bimgs = bimgs
        self._by_bimg = by_bimg
        self._t = t

    def __getitem__(self, i):
        return self._by_bimg[tuple(map(self._t.__getitem__, self._bimgs[i]))]


class _Level:
    __slots__ = ("point", "gens", "transversal")

    def __init__(self, point):
        self.point = point
        self.gens = []
        self.transversal = {}


class _Chain:
    """Base and strong generating set, built deterministically."""

    def __init__(self, gens0, degree):
        self.degree = degree
        self.levels = []
        self.identity = tuple(range(degree))
        gens0 = [g for g in gens0 if not _is_id(g)]
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
        while queue:
            a = queue.pop(0)
            u = trans[a]
            for g in level.gens:
                b = g[a]
                if b not in trans:
                    trans[b] = _mult(u, g)
                    queue.append(b)
        level.transversal = trans

    def strip(self, t, start=0):
        """Sift t through levels[start:]; returns (residue, level reached)."""
        for i in range(start, len(self.levels)):
            lvl = self.levels[i]
            u = lvl.transversal.get(t[lvl.point])
            if u is None:
                return t, i
            t = _mult(t, _inv(u))
        return t, len(self.levels)

    def _complete_level(self, i):
        # Levels below i are complete; make every Schreier generator of level
        # i sift to the identity through them.
        self._orbit(i)
        level = self.levels[i]
        for gamma in sorted(level.transversal):
            u = level.transversal[gamma]
            for g in level.gens:
                sg = _mult(_mult(u, g), _inv(level.transversal[g[gamma]]))
                if _is_id(sg):
                    continue
                residue, j = self.strip(sg, i + 1)
                if _is_id(residue):
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
        return _is_id(residue)


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
        self.caps = caps if caps is not None else DEFAULT_CAPS
        self._chain = _Chain([g._t for g in self.generators], degree)
        self._order = self._chain.order()
        self._base = tuple(lvl.point for lvl in self._chain.levels)
        # lazy caches
        self._elts0 = None
        self._bimgs = None
        self._by_bimg = None
        self._rows = None
        self._orders = None
        self._invs = None
        self._conj_maps = None
        self._classes = None
        # subgroup-class enumerations, filled once per key by the predicates
        self.analysis_cache = {}

    def order(self):
        return self._order

    def contains(self, perm):
        if perm.degree != self.degree:
            return False
        return self._chain.contains(perm._t)

    __contains__ = contains

    def identity(self):
        return Permutation.identity(self.degree)

    # ------------------------------------------------------------------
    # indexed element view

    def _materialize(self):
        if self._elts0 is not None:
            return
        cap = self.caps.element_cap
        if self._order > cap:
            raise CapExceeded("element enumeration", f"order {self._order} > {cap}")
        identity = tuple(range(self.degree))
        seen = {identity}
        queue = [identity]
        gens = [g._t for g in self.generators]
        while queue:
            a = queue.pop()
            for g in gens:
                b = _mult(a, g)
                if b not in seen:
                    seen.add(b)
                    queue.append(b)
        if len(seen) != self._order:
            raise RuntimeError(
                f"stabilizer chain order {self._order} != closure size {len(seen)}"
            )
        elts = sorted(seen)
        # key every element by its base image; the keys must separate them
        bimgs = [tuple(map(t.__getitem__, self._base)) for t in elts]
        by_bimg = {b: i for i, b in enumerate(bimgs)}
        if len(by_bimg) != self._order:
            raise RuntimeError(
                f"base images separate {len(by_bimg)} of {self._order} elements"
            )
        self._bimgs, self._by_bimg = bimgs, by_bimg
        self._elts0 = elts
        if 2 * self._order**2 <= _TABLE_BYTES:
            self._rows = self._right_regular_rows()

    def _right_regular_rows(self):
        """rows[j][i] = index of x_i * x_j, for every j.

        Generator rows cost one base-image lookup per element; every other
        row is composed along a BFS spanning tree of the Cayley graph from the
        identity, as row(x_a * g) = row(g) o row(a).
        """
        n = self._order
        gen_rows = []
        for g in self.generators:
            row = _ProductRow(self._bimgs, self._by_bimg, g._t)
            gen_rows.append(array("H", map(row.__getitem__, range(n))))
        id_idx = self.identity_idx
        rows = [None] * n
        rows[id_idx] = array("H", range(n))
        queue = [id_idx]
        for a in queue:
            ra = rows[a]
            for rg in gen_rows:
                b = rg[a]
                if rows[b] is None:
                    rows[b] = array("H", map(rg.__getitem__, ra))
                    queue.append(b)
        return rows

    def elements(self):
        """All elements, sorted by image tuple; requires order <= element cap."""
        self._materialize()
        return tuple(Permutation._from0(t) for t in self._elts0)

    @property
    def identity_idx(self):
        self._materialize()
        return self._by_bimg[self._base]

    def index_of(self, perm):
        """Index of a member, found by its base image and then checked
        against the whole image tuple; ValueError for a non-member."""
        self._materialize()
        t = perm._t
        if len(t) == self.degree:
            idx = self._by_bimg.get(tuple(map(t.__getitem__, self._base)))
            if idx is not None and self._elts0[idx] == t:
                return idx
        raise ValueError(f"{perm} is not a member")

    def perm_at(self, i):
        self._materialize()
        return Permutation._from0(self._elts0[i])

    def mul_idx(self, i, j):
        """Index of x_i * x_j, read from ``right_row(j)``."""
        return self.right_row(j)[i]

    def has_table(self):
        """True when products come from the multiplication table."""
        self._materialize()
        return self._rows is not None

    def right_row(self, j):
        """The index map i -> index of x_i * x_j (a table row when the group
        has one)."""
        self._materialize()
        if self._rows is not None:
            return self._rows[j]
        return _ProductRow(self._bimgs, self._by_bimg, self._elts0[j])

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
        if self._invs is None:
            self._materialize()
            # x^-1 maps each base point b to the point x sends to b
            by, base = self._by_bimg, self._base
            self._invs = [by[tuple(map(t.index, base))] for t in self._elts0]
        return self._invs[i]

    def order_of_idx(self, i):
        """Order of x_i: x_i^k = 1 exactly when x_i^k fixes the base."""
        if self._orders is None:
            self._materialize()
            base = self._base
            self._orders = [_order_through(t, base) for t in self._elts0]
        return self._orders[i]

    def gen_indices(self):
        return tuple(self.index_of(g) for g in self.generators)

    def conj_maps(self):
        """Per generator g, the index map i -> index of g^-1 * x_i * g.

        g^-1 * x * g sends a base point b to g(x(g^-1(b))), so each key reads
        x at the k points g^-1(b) only.
        """
        if self._conj_maps is None:
            self._materialize()
            by, elts = self._by_bimg, self._elts0
            maps = []
            for g in self.generators:
                at = g._t.__getitem__
                pre = tuple(map(g._t.index, self._base))  # g^-1 of each base point
                maps.append([by[tuple(map(at, map(t.__getitem__, pre)))] for t in elts])
            self._conj_maps = maps
        return self._conj_maps

    def conjugacy_classes_idx(self):
        """Element conjugacy classes as sorted tuples of indices."""
        if self._classes is None:
            self._materialize()
            maps = self.conj_maps()
            n = self._order
            class_of = [-1] * n
            classes = []
            for i in range(n):
                if class_of[i] >= 0:
                    continue
                cid = len(classes)
                orbit = [i]
                class_of[i] = cid
                k = 0
                while k < len(orbit):
                    x = orbit[k]
                    k += 1
                    for m in maps:
                        y = m[x]
                        if class_of[y] < 0:
                            class_of[y] = cid
                            orbit.append(y)
                classes.append(tuple(sorted(orbit)))
            self._classes = tuple(classes)
        return self._classes

    # ------------------------------------------------------------------
    # closures on index sets

    def closure_idx(self, seed, base=(), base_gens=()):
        """Subgroup (as an index set) generated by ``base | seed``.

        ``base`` may be an already-closed index set K with generating indices
        ``base_gens``.  Members start as the identity and K, the new seeds go
        on the frontier, and every frontier element is pushed through the rows
        of ``base_gens`` and of the new seeds; members of K are never pushed,
        which keeps repeated one-element extensions cheap.  The walk still
        reaches all of H = <K, seed>.  The elements it reaches outside K are
        closed under the ``base_gens`` rows, so they form whole left cosets
        gK, and the walk is reachability from the seeds' cosets in the coset
        digraph D with arcs gK -> gkxK (g in H, k in K, x a seed), with the
        vertex K removed.  D is finite, loop-free, vertex-transitive (H acts
        on it) and strongly connected.  If K has one out-neighbour, it is a
        seed's coset.  Otherwise the out-degree is >= 2, and then no vertex
        removal disconnects D.  Suppose one does; a sink component of the
        rest leaves only to that vertex.  Over D and its reverse, take a
        smallest vertex set A whose arcs leave A only to one vertex a, with
        A + a not everything.  Two such sets A, B of that size are disjoint:
        else A & B is smaller, so it has two exits, a in B and b in A; then
        A | B has no exit and is everything, and everything outside A + a,
        of size < |A|, leaves the reverse digraph only to a.  So the sets
        partition the vertices, H permutes them, and each vertex is the exit
        of 1/|A| of them: |A| = 1 and the degree would be 1.

        By Lagrange a subgroup with more than n/2 elements is the whole group,
        so the walk stops once the members pass that size.  The test is
        strict: an index-2 subgroup has exactly n/2 elements and closes
        normally.
        """
        self._materialize()
        members = {self.identity_idx, *base}
        frontier = [j for j in dict.fromkeys(seed) if j not in members]
        members.update(frontier)
        rows = [self.right_row(j) for j in dict.fromkeys([*base_gens, *frontier])]
        half = self._order // 2
        while frontier:
            if len(members) > half:
                return frozenset(range(self._order))
            a = frontier.pop()
            for row in rows:
                b = row[a]
                if b not in members:
                    members.add(b)
                    frontier.append(b)
        return frozenset(members)

    def normal_closure_idx(self, seed):
        """Smallest normal subgroup of this group containing the seed indices.

        Alternates subgroup closure with a normality check on the generators;
        a closed set whose generators conjugate into it is normal.
        """
        self._materialize()
        maps = self.conj_maps()
        gens = [j for j in dict.fromkeys(seed) if j != self.identity_idx]
        while True:
            members = self.closure_idx(gens)
            missing = [c for m in maps for g in gens if (c := m[g]) not in members]
            if not missing:
                return members
            gens.extend(dict.fromkeys(missing))

    # ------------------------------------------------------------------
    # subgroup handles

    def subgroup_from_indices(self, indices, gens_idx=None):
        return Subgroup(self, frozenset(indices), gens_idx)

    def subgroup(self, perms):
        """Subgroup generated by the given member permutations."""
        for p in perms:
            if p not in self:
                raise ValueError(f"{p} is not a member of the group")
        seed = [self.index_of(p) for p in perms]
        return Subgroup(self, self.closure_idx(seed), tuple(dict.fromkeys(seed)))

    def trivial_subgroup(self):
        return self.subgroup_from_indices({self.identity_idx}, ())

    def full_subgroup(self):
        gi = self.gen_indices()
        self._materialize()
        return self.subgroup_from_indices(range(self._order), gi)

    def __repr__(self):
        return f"Group(degree={self.degree}, order={self._order})"


class Subgroup:
    """A subgroup of a parent group, held as a set of element indices.

    The generator list is kept small; it is recovered greedily from the
    element set when the subgroup was produced by a scan.  Fingerprints are
    conjugation-invariant summaries used to prune conjugacy searches.
    """

    __slots__ = ("parent", "indices", "_gens_idx", "_fingerprint", "_abelian")

    def __init__(self, parent, indices, gens_idx=None):
        self.parent = parent
        self.indices = frozenset(indices)
        self._gens_idx = tuple(gens_idx) if gens_idx is not None else None
        self._fingerprint = None
        self._abelian = None

    @property
    def order(self):
        return len(self.indices)

    def gens_idx(self):
        if self._gens_idx is None:
            self._gens_idx = _greedy_gens(self.parent, self.indices)
        return self._gens_idx

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
        orders = self.parent.order_of_idx
        return any(orders(i) == self.order for i in self.indices)

    def element_order_counter(self):
        orders = self.parent.order_of_idx
        return Counter(orders(i) for i in self.indices)

    def fingerprint(self):
        """(order, element-order multiset, abelian flag); conjugation-invariant."""
        if self._fingerprint is None:
            counts = tuple(sorted(self.element_order_counter().items()))
            self._fingerprint = (self.order, counts, self.is_abelian())
        return self._fingerprint

    def key(self):
        """Sorted index tuple; the deterministic identity of the subgroup."""
        return tuple(sorted(self.indices))

    def conjugate_by_idx(self, g):
        p = self.parent
        gi = p.inv_idx(g)
        mul = p.mul_idx
        return Subgroup(p, frozenset(mul(mul(gi, x), g) for x in self.indices))

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
    """Small generating index list for a known-closed index set."""
    order = len(indices)
    if order == 1:
        return ()
    ordered = sorted(indices, key=lambda i: (-parent.order_of_idx(i), i))
    gens = []
    current = frozenset({parent.identity_idx})
    for i in ordered:
        if i in current:
            continue
        gens.append(i)
        current = parent.closure_idx(gens)
        if len(current) == order:
            return tuple(gens)
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


def normalizer(group, sub):
    """N_G(H) = elements g with g^-1 H g = H.

    H <= N_G(H), so every element of a right coset Hg lies in N_G(H) exactly
    when g does: one element is tested per coset of H, and the whole coset is
    kept or dropped with it.
    """
    group._materialize()
    mul = group.mul_idx
    inv = group.inv_idx
    hgens = sub.gens_idx()
    hset = sub.indices
    seen = bytearray(group.order())
    members = []
    for i in range(group.order()):
        if seen[i]:
            continue
        row = group.right_row(i)
        coset = [row[h] for h in hset]
        for c in coset:
            seen[c] = 1
        j = inv(i)
        if all(mul(mul(j, h), i) in hset for h in hgens):
            members.extend(coset)
    return group.subgroup_from_indices(members)


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
    image of G/N.  Only the action is kept: there is no map from G's elements
    to their cosets.
    """

    def __init__(self, group, normal_sub):
        if not is_normal(group, normal_sub):
            raise ValueError("subgroup is not normal; quotient undefined")
        group._materialize()
        mul = group.mul_idx
        nset = sorted(normal_sub.indices)
        # BFS over cosets; each coset is keyed by its least element index.
        id_key = nset[0]
        reps = [group.identity_idx]
        coset_id = {id_key: 0}
        gen_idx = group.gen_indices()
        images = [[] for _ in gen_idx]
        k = 0
        while k < len(reps):
            r = reps[k]
            for gpos, g in enumerate(gen_idx):
                t = mul(r, g)
                key = min(map(group.right_row(t).__getitem__, nset))
                c = coset_id.get(key)
                if c is None:
                    c = len(reps)
                    coset_id[key] = c
                    reps.append(t)
                images[gpos].append(c)
            k += 1
        n_cosets = len(reps)
        perms = [Permutation._from0(tuple(img)) for img in images]
        self.group = Group(perms, degree=max(n_cosets, 1), caps=group.caps)
        if self.group.order() * normal_sub.order != group.order():
            raise RuntimeError("coset action order mismatch")


def quotient(group, normal_sub):
    """G/N as a permutation group on the cosets of N (faithful image of G/N)."""
    return Quotient(group, normal_sub).group


def _factor_gens(a, b):
    """Generators of A and of B on the disjoint union of their point sets."""
    na, nb = a.degree, b.degree
    ga = [Permutation._from0(g._t + tuple(range(na, na + nb))) for g in a.generators]
    gb = [
        Permutation._from0(tuple(range(na)) + tuple(x + na for x in g._t))
        for g in b.generators
    ]
    return ga, gb


def direct_product(a, b):
    """A x B acting on the disjoint union of the two point sets."""
    ga, gb = _factor_gens(a, b)
    prod = Group(ga + gb, degree=a.degree + b.degree, caps=a.caps)
    if prod.order() != a.order() * b.order():  # pragma: no cover
        raise RuntimeError("direct product order mismatch")
    return prod


def direct_factors_embedded(prod, a, b):
    """The canonical copies of A and B inside direct_product(A, B)."""
    ga, gb = _factor_gens(a, b)
    return prod.subgroup(ga), prod.subgroup(gb)


def semidirect_product(normal, acting, action):
    """N x| H for an action of H on N given by automorphism generator images.

    ``action`` maps each generator of ``acting`` (by position) to the list of
    images of the generators of ``normal`` (members of N, by position).  Each
    image map must extend to an automorphism of N; this is verified on the
    full multiplication graph of N.  The walk that checks it starts at the
    identity and follows every generator of N, so when it succeeds it has
    mapped all of N.  The product acts on the elements of N
    (affine action) next to the natural points of H, which is always faithful.

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
    # H-generators act by their automorphism on the N block.
    deg_h = acting.degree
    gens = []
    for g in normal.generators:
        gi = normal.index_of(g)
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
