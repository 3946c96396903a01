"""The work each subgroup walk does per class, against what it replaced.

A read of order d extends only the classes H with 2|H| <= d: every subgroup
K of order at most d is <H, x> for a maximal subgroup H of K, and |H| is at
most |K| / 2.  The lists must still be the oracle's, read in any order of d,
and a verdict under a lowered cap may only move from ``undecided`` to the
uncapped verdict.  ``Group.conjugates`` reads each conjugate through one
getter per generator map, and the registry sorts only the conjugates that
can hold the least key: both must give what the plain map-per-generator
walk and a sort of every conjugate gave."""

import random

import pytest

from subconj import CapExceeded, Group, construct
from subconj.caps import Caps
from subconj.fields import divisors
from subconj.harness import CorpusManifest
from subconj.predicates import UNDECIDED, hierarchy_report
from subconj.structure import is_solvable, p_part, prime_factors
from subconj.subgroups import (
    WALK_KEY,
    _OrbitRegistry,
    _walk_classes,
    all_subgroup_classes,
    p_subgroup_classes,
)

from oracles import (
    reference_conjugates,
    relabelled,
    relabelled_by,
    unpruned_all_subgroup_classes,
    unpruned_p_subgroup_classes,
)


def _keyed(classes):
    return [(c.order, c.representative.key(), c.orbit_size) for c in classes]


def _fresh(g):
    """The same group, index for index, with no walk started."""
    return Group(g.generators, degree=g.degree, caps=g.caps)


@pytest.fixture(scope="module", params=["default", "seed 1"])
def reach_groups(request):
    """(name, group, oracle classes, solvable flags, {p: oracle p-classes})
    for every default-manifest entry at or below ``full_subgroup_cap``, or
    for the seed-1 relabellings of those of order at most 120, the
    small-sweep groups."""
    out = []
    for entry in CorpusManifest.default().entries:
        g = construct(entry.name)
        if request.param == "default":
            if g.order() > g.caps.full_subgroup_cap:
                continue
        elif g.order() <= 120:
            g = relabelled_by(g, 1)
        else:
            continue
        classes = unpruned_all_subgroup_classes(g)
        if is_solvable(g):
            solvable = [True] * len(classes)
        else:
            solvable = [
                is_solvable(Group(c.representative.generators, degree=g.degree))
                for c in classes
            ]
        primes = prime_factors(g.order())
        p_classes = {p: unpruned_p_subgroup_classes(g, p) for p in primes}
        out.append((entry.name, g, classes, solvable, p_classes))
    assert len(out) == (89 if request.param == "default" else 73)
    return out


def _read_orders(orders, bound):
    """The orders of the three read sequences: increasing, shuffled, and the
    bound followed by the top, which reads past the freed registry."""
    shuffled = list(orders)
    random.Random(len(orders)).shuffle(shuffled)
    return [list(orders), shuffled, [bound, orders[-1]]]


def _assert_prefixes(name, read, expected, sequences):
    for sequence in sequences:
        reader = read()
        for d in sequence:
            prefix = [c for c in expected if c.order <= d]
            assert _keyed(reader(d)) == _keyed(prefix), (name, sequence, d)


def test_every_read_order_lists_the_oracle_prefix(reach_groups):
    # the complete list, the solvable list and each p-list, on a fresh group
    # per read sequence, against the unpruned oracles
    for name, g, classes, solvable, p_classes in reach_groups:
        n = g.order()
        fresh = _fresh(g)
        fresh.rational_classes()
        sequences = _read_orders(divisors(n), fresh._closure_bound())

        def plain(complete):
            group = _fresh(g)
            return lambda d: _walk_classes(group, d, complete)

        _assert_prefixes(name, lambda: plain(True), classes, sequences)
        inside = [c for c, s in zip(classes, solvable) if s]
        _assert_prefixes(name, lambda: plain(False), inside, sequences)
        for p, expected in p_classes.items():
            sylow = p_part(n, p)
            sequences = _read_orders(divisors(sylow), sylow // p)

            def p_walk():
                group = _fresh(g)
                return lambda d: p_subgroup_classes(group, p, d)

            _assert_prefixes((name, p), p_walk, expected, sequences)


def test_the_freed_registry_leaves_no_kept_orbit_walk():
    # a read at the bound frees the registry and drops the edges of every
    # class it did not extend; the read of |G| after it extends nothing
    for name in ("Alternating(6)", "PSL2(9)", "SL2(7)", "Symmetric(4)"):
        g = construct(name)
        g.rational_classes()
        bound = g._closure_bound()
        listed = _keyed(_walk_classes(g, bound))
        walk = g.analysis_cache[WALK_KEY]
        assert walk.registry is None, name
        assert all(c._walk is None for c in walk.classes), name
        extended = walk.extended
        assert _keyed(_walk_classes(g, g.order())[: len(listed)]) == listed
        assert walk.extended == extended, name


@pytest.mark.parametrize("name", ["Alternating(6)", "PSL2(9)"])
def test_a_read_through_order_4_extends_only_orders_1_and_2(name):
    # B_pi splits at order 4 in both, the last order any verdict reads;
    # their classes of order 3 are listed, but what they extend to is not
    g = construct(name)
    listed = _walk_classes(g, 4)
    walk = g.analysis_cache[WALK_KEY]
    assert {c.order for c in walk.classes[: walk.extended]} == {1, 2}
    assert {c.order for c in listed} == {1, 2, 3, 4}


ORBIT_NAMES = [
    "Symmetric(4)",
    "SL2(3)",
    "Alternating(5)",
    "Symmetric(6)",
    "SL2(7)",
    "PSL2(11)",
]


@pytest.mark.parametrize("relabel", (False, True))
@pytest.mark.parametrize("name", ORBIT_NAMES)
def test_the_orbit_walk_and_least_key_match_the_reference(name, relabel):
    # every class, the trivial one and G included, walked from its
    # representative and from its last conjugate found, which rarely holds
    # the least key; the root is the place of the least sorted key
    g = construct(name)
    if relabel:
        g = relabelled(g)
    # the least key holds the identity, index 0, and the least other index
    assert g.identity_idx == 0
    for c in all_subgroup_classes(g):
        start = reference_conjugates(g, c.representative.indices)[0][-1]
        for hset in (c.representative.indices, start):
            orbit, edges = reference_conjugates(g, hset)
            assert g.conjugates(hset) == (orbit, edges), (name, c.order)
            keys = list(map(sorted, orbit))
            root = keys.index(min(keys))
            registry = _OrbitRegistry(g)
            registry.top = g.order() + 1  # so the class keeps its walk
            got = registry.classes[registry.classify(hset)[0]]
            assert got.representative.indices == orbit[root] == c.representative.indices
            assert got.orbit_size == len(orbit) == c.orbit_size
            assert got._walk == (edges, root)


@pytest.mark.parametrize("name", ["Symmetric(4)", "SL2(3)"])
def test_a_capped_orbit_walk_is_still_refused(name):
    # every class, the one-element trivial set included, is walked whole at
    # a cap of exactly its |H| x orbit size indices and refused one below
    g = construct(name)
    for c in all_subgroup_classes(g):
        hset = c.representative.indices
        stored = len(hset) * c.orbit_size
        assert g.conjugates(hset, stored) == reference_conjugates(g, hset)
        with pytest.raises(CapExceeded) as info:
            g.conjugates(hset, stored - 1)
        assert info.value.kind == "stored indices"


CAPPED_GRID_NAMES = [
    "Symmetric(4)",
    "Alternating(5)",
    "Alternating(6)",
    "PSL2(11)",
    "SL2(7)",
    "E25xSL(2,3)",
]
CAPPED_GRID_CAPS = [0, 100, 600, 2000, 5000]


@pytest.mark.parametrize("name", CAPPED_GRID_NAMES)
def test_capped_verdicts_move_only_toward_the_uncapped_ones(name):
    # a lowered stored-index cap may leave a verdict undecided, but never
    # give another answer than the uncapped report
    g = construct(name)
    expected = hierarchy_report(_fresh(g)).verdicts
    for cap in CAPPED_GRID_CAPS:
        capped = Group(g.generators, degree=g.degree, caps=Caps(stored_index_cap=cap))
        for cid, verdict in hierarchy_report(capped).verdicts.items():
            assert verdict in (UNDECIDED, expected[cid]), (name, cap, cid)
