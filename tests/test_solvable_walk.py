"""The plain walk inside normalisers, against the full walk it replaced.

The walk kept under ``WALK_KEY`` takes x from N_G(H) only.  A complete read
from ``low``, the least order a non-solvable subgroup can have, adds G to
it where no proper subgroup can be non-solvable, and is served by a second
walk over all of G elsewhere.  The inside list must be exactly the solvable
classes, the complete list the oracle's, in any order of reads, and the
verdicts read off them those of the full walk."""

import random

import pytest

from subconj import MEMBER, ClassId, Group, construct, decide
from subconj.fields import divisors
from subconj.harness import CorpusEntry, CorpusManifest, analyze_entry, analyze_group
from subconj.perms import Permutation
from subconj.structure import is_solvable, prime_factors
from subconj.subgroups import (
    WALK_KEY,
    _GradedWalk,
    _walk_classes,
    all_subgroup_classes,
)

from oracles import (
    brute_force_subgroups,
    conjugacy_partition,
    rational_class_verdicts,
    relabelled,
    unpruned_all_subgroup_classes,
)


def _keyed(classes):
    return [(c.order, c.representative.key(), c.orbit_size) for c in classes]


def _fresh(g):
    """The same group, index for index, with no walk started."""
    return Group(g.generators, degree=g.degree, caps=g.caps)


@pytest.fixture(scope="module", params=["as-built", "relabelled"])
def nonsolvable_2000(request):
    """(name, group, oracle classes, solvable flags) for the non-solvable
    default-corpus groups of order at most 2000.  A class is solvable when
    its representative, rebuilt as a Group, is."""
    out = []
    for entry in CorpusManifest.default().entries:
        g = construct(entry.name)
        if g.order() > 2000 or is_solvable(g):
            continue
        if request.param == "relabelled":
            g = relabelled(g)
        classes = unpruned_all_subgroup_classes(g)
        solvable = [
            is_solvable(Group(c.representative.generators, degree=g.degree))
            for c in classes
        ]
        out.append((entry.name, g, classes, solvable))
    assert len(out) == 19
    return out


def test_the_walk_inside_normalisers_lists_the_solvable_classes(nonsolvable_2000):
    for name, g, classes, solvable in nonsolvable_2000:
        fresh = _fresh(g)
        expected = [c for c, s in zip(classes, solvable) if s]
        assert _keyed(_walk_classes(fresh, g.order())) == _keyed(expected), name
        # past the bound every class the walk reaches is listed, and the
        # registry is freed; where no proper subgroup can be non-solvable, a
        # complete read still adds G, with no registry
        walk = fresh.analysis_cache[WALK_KEY]
        assert walk.registry is None, name
        if name in ONLY_G_NONSOLVABLE:
            assert _keyed(all_subgroup_classes(fresh)) == _keyed(classes), name
            assert fresh.analysis_cache[WALK_KEY] is walk, name


def test_interleaved_reads_keep_the_complete_list(nonsolvable_2000):
    # each read of either kind at a random divisor: a complete read lists
    # the oracle's classes of order <= d, an inside read the solvable ones
    # (and G once a complete read has added it), in the oracle's order
    rng = random.Random(29)
    for name, g, classes, solvable in nonsolvable_2000:
        fresh = _fresh(g)
        orders = divisors(g.order())
        for _ in range(6):
            d = rng.choice(orders)
            every = _keyed(c for c in classes if c.order <= d)
            if rng.random() < 0.5:
                assert _keyed(all_subgroup_classes(fresh, d)) == every, (name, d)
                continue
            got = _keyed(_walk_classes(fresh, d))
            assert [k for k in every if k in set(got)] == got, (name, d)
            assert {
                k for k, s in zip(_keyed(classes), solvable) if s and k[0] <= d
            } <= set(got), (name, d)
            nonsolvable = {k for k, s in zip(_keyed(classes), solvable) if not s}
            assert {k[0] for k in nonsolvable & set(got)} <= {g.order()}, (name, d)
        assert _keyed(all_subgroup_classes(fresh)) == _keyed(classes), name
        assert _complete_walk(fresh, name).registry is None


def test_a_complete_read_below_a_nonsolvable_order_reaches_outside(nonsolvable_2000):
    # no group of order 72 is non-solvable (two primes), yet the list up to
    # 72 holds Symmetric(6)'s two classes of A5, of order 60 = low
    ((g, classes),) = [
        (g, c) for name, g, c, _ in nonsolvable_2000 if name == "Symmetric(6)"
    ]
    g = _fresh(g)
    assert 60 not in [c.order for c in _walk_classes(g, 72)]
    got = all_subgroup_classes(g, 72)
    assert [c.order for c in got].count(60) == 2
    assert _keyed(got) == _keyed(c for c in classes if c.order <= 72)


# the non-solvable groups among them with no order d of G, low <= d <=
# Group._closure_bound(), that passes the tests of _nonsolvable_floor: every
# proper subgroup is solvable, so a complete read adds G and reaches no further
ONLY_G_NONSOLVABLE = {
    "Alternating(5)",
    "SL2(4)",
    "SL2(5)",
    "SL2(7)",
    "SL2(8)",
    "PSL2(4)",
    "PSL2(5)",
    "PSL2(7)",
    "PSL2(8)",
}
REACHING_OUTSIDE = {
    "Symmetric(5)",
    "Symmetric(6)",
    "Alternating(6)",
    "PSL2(9)",
    "PSL2(11)",
    "PSL2(13)",
    "SL2(9)",
    "SL2(11)",
    "Alternating(5)*Cyclic(7)",
    "SL2(5)*Cyclic(7)",
}


def test_only_g_is_nonsolvable_where_no_proper_order_can_be(nonsolvable_2000):
    for name, g, classes, solvable in nonsolvable_2000:
        if name in ONLY_G_NONSOLVABLE:
            rest = [(c.order, c.orbit_size) for c, s in zip(classes, solvable) if not s]
            assert rest == [(g.order(), 1)], name


def _complete_walk(g, name):
    """The walk that answers g's complete reads from ``low`` on: the walk
    over all of G where a proper subgroup can be non-solvable, else the
    walk inside normalisers, which has added G."""
    if name in REACHING_OUTSIDE:
        return g.analysis_cache[WALK_KEY, "all"]
    return g.analysis_cache[WALK_KEY]


def test_a_complete_read_reaches_outside_where_a_proper_order_can_be_nonsolvable(
    nonsolvable_2000,
):
    # the walk over all of G is started exactly where a proper subgroup can
    # be non-solvable; no walk changes its mode once started
    names = {name for name, *_ in nonsolvable_2000}
    assert names == ONLY_G_NONSOLVABLE | REACHING_OUTSIDE
    for name, g, classes, _ in nonsolvable_2000:
        fresh = _fresh(g)
        all_subgroup_classes(fresh, 2)  # starts the walk inside normalisers
        assert _keyed(all_subgroup_classes(fresh)) == _keyed(classes), name
        cache = fresh.analysis_cache
        assert ((WALK_KEY, "all") in cache) == (name in REACHING_OUTSIDE), name
        assert cache[WALK_KEY].in_normalizer, name
        if name in REACHING_OUTSIDE:
            assert not cache[WALK_KEY, "all"].in_normalizer, name
        assert _complete_walk(fresh, name).registry is None


def test_b_reads_the_complete_list_and_h_the_solvable_one():
    # PSL2(8) is a member of every class, so both read every order that can
    # split: none past the bound 72, where H's read frees the registry, and
    # no Sylow order.  B's complete reads stop below low = 84, so they add
    # nothing to the solvable list; a complete read of every order adds only
    # the group itself, since no proper subgroup can be non-solvable
    g = construct("PSL2(8)")
    orders = [2, 3, 4, 6, 12, 14, 18, 21, 24, 28, 36, 42, 56, 63, 72]
    assert decide(g, ClassId.H)[0] == MEMBER
    assert sorted(g.analysis_cache["solvable buckets"]) == orders
    walk = g.analysis_cache[WALK_KEY]
    assert walk.registry is None
    assert decide(g, ClassId.B)[0] == MEMBER
    assert sorted(g.analysis_cache["order buckets"]) == orders
    assert max(c.order for c in walk.classes) == 56
    last = all_subgroup_classes(g)[-1]
    assert (last.order, last.orbit_size) == (504, 1)
    assert g.analysis_cache[WALK_KEY] is walk
    assert (WALK_KEY, "all") not in g.analysis_cache


def _full_walk(group):
    """The walk as it was before: x from all of G for every class."""
    pp_element = group.order_mask(lambda o: len(prime_factors(o)) == 1)
    return _GradedWalk(group, group.order(), False, lambda hset, x: pp_element[x])


def _random_groups(count, seed=29):
    """``count`` groups of order 2 to 2000, each generated by 1-3 seeded
    random permutations of degree 5-7."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        degree = rng.randint(5, 7)
        gens = []
        for _ in range(rng.randint(1, 3)):
            images = list(range(1, degree + 1))
            rng.shuffle(images)
            gens.append(Permutation(images))
        g = Group(gens, degree=degree)
        if 2 <= g.order() <= 2000:
            out.append(g)
    return out


@pytest.fixture(scope="module")
def random_groups():
    """The 60 seeded random groups and two products of order 360 with
    three prime divisors, where non-solvable subgroups appear."""
    groups = _random_groups(60)
    groups += [construct("Alternating(5)*Symmetric(3)")]
    groups += [construct("Symmetric(5)*Cyclic(3)")]
    assert not all(map(is_solvable, groups))
    return groups


def test_random_groups_keep_the_full_walk_verdicts(random_groups):
    for i, g in enumerate(random_groups):
        old = _fresh(g)
        old.analysis_cache[WALK_KEY] = _full_walk(old)
        expected = analyze_group(old, f"random {i}")
        got = analyze_group(_fresh(g), f"random {i}")
        assert (got.verdicts, got.witnesses) == (
            expected.verdicts,
            expected.witnesses,
        ), (i, g.order())


def test_random_groups_keep_the_rational_class_cyclic_verdicts(random_groups):
    for i, g in enumerate(random_groups):
        fresh = _fresh(g)
        got = [decide(fresh, cid)[0] == MEMBER for cid in (ClassId.C, ClassId.C_PI)]
        assert tuple(got) == rational_class_verdicts(g), (i, g.order())


# subset closure grows slowly past this order: A5 takes 2.4 s
BRUTE_FORCE_ORDER = 24


def test_small_random_groups_match_the_brute_force_classes(random_groups):
    # per order, the orbit sizes of the full walk's classes against those of
    # every subgroup found by subset closure, partitioned by full scans
    small = [g for g in random_groups if g.order() <= BRUTE_FORCE_ORDER]
    assert len(small) == 22
    for i, g in enumerate(small):
        orbits = conjugacy_partition(g, brute_force_subgroups(g))
        expected = sorted((len(next(iter(o))), len(o)) for o in orbits)
        got = [(c.order, c.orbit_size) for c in all_subgroup_classes(_fresh(g))]
        assert sorted(got) == expected, (i, g.order())


# closure_idx calls of analyze_entry on the full-enum benchmark entries: 801
# with the full walk, 553 inside normalisers, 399 once the B members PSL2(8)
# and SL2(8), whose proper subgroups are all solvable, add the group itself
# instead of walking outside normalisers, and 383 once a read of order d
# extends only the classes of order at most d / 2: the pi verdicts of
# Alternating(6) and PSL2(9) split at order 4, and their classes of order 3
# are no longer extended
FULL_ENUM = {
    "Symmetric(6)": None,
    "SL2(8)": 47,
    "PSL2(11)": None,
    "SL2(7)": None,
    "PSL2(8)": 47,
    "Alternating(6)": 37,
    "PSL2(9)": 35,
}


def test_full_enum_entries_keep_their_closure_count(monkeypatch):
    counts = dict.fromkeys(FULL_ENUM, 0)
    closure = Group.closure_idx
    entry = None

    def counted(self, *args, **kwargs):
        counts[entry] += 1
        return closure(self, *args, **kwargs)

    monkeypatch.setattr(Group, "closure_idx", counted)
    for entry in FULL_ENUM:
        analyze_entry(CorpusEntry(entry))
    assert sum(counts.values()) <= 383, counts
    for name, bound in FULL_ENUM.items():
        if bound is not None:
            assert counts[name] <= bound, (name, counts)
