import gc
import tracemalloc
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from subconj import (
    CapExceeded,
    Group,
    all_subgroup_classes,
    are_conjugate,
    construct,
    parse_permutation,
    p_subgroup_classes,
)

from subconj.caps import Caps
from subconj.predicates import (
    MEMBER,
    NON_MEMBER,
    UNDECIDED,
    ClassId,
    decide,
    hierarchy_report,
)
from subconj.structure import core_p, o_pprime, p_part, prime_factors, sylow_subgroup
from subconj import subgroups
from subconj.subgroups import WALK_KEY, SubgroupClass, _OrbitRegistry

from oracles import (
    brute_force_subgroups,
    conjugacy_partition,
    exhaustive_conjugator,
    relabelled,
    unpruned_all_subgroup_classes,
    unpruned_p_subgroup_classes,
)


def P(text, degree):
    return parse_permutation(text, degree)


def S(n):
    return Group([P(f"({','.join(map(str, range(1, n + 1)))})", n), P("(1,2)", n)])


def test_cyclic_four_has_two_nontrivial_2_classes():
    classes = p_subgroup_classes(construct("Cyclic(4)"), 2)
    assert [(c.order, c.orbit_size) for c in classes] == [(2, 1), (4, 1)]


def test_s4_two_subgroup_classes():
    classes = p_subgroup_classes(S(4), 2)
    assert [c.order for c in classes] == [2, 2, 4, 4, 4, 8]
    by_order = {}
    for c in classes:
        by_order.setdefault(c.order, []).append(c)
    # two classes of order 2: transpositions (6) and double transpositions (3)
    assert sorted(c.orbit_size for c in by_order[2]) == [3, 6]
    # order 4: the cyclic class, the normal V4 and the non-normal V4s
    kinds = sorted((c.is_cyclic(), c.orbit_size) for c in by_order[4])
    assert kinds == [(False, 1), (False, 3), (True, 3)]
    assert [c.orbit_size for c in by_order[8]] == [3]


def test_q8_classes_are_singletons():
    classes = p_subgroup_classes(construct("GeneralizedQuaternion(8)"), 2)
    assert [(c.order, c.orbit_size) for c in classes] == [
        (2, 1),
        (4, 1),
        (4, 1),
        (4, 1),
        (8, 1),
    ]


def test_q8_abelian_classes_drop_the_top():
    g = construct("GeneralizedQuaternion(8)")
    classes = [c for c in p_subgroup_classes(g, 2) if c.is_abelian()]
    assert [c.order for c in classes] == [2, 4, 4, 4]


def test_e8_all_abelian_classes_are_singletons():
    g = construct("ElementaryAbelian(2,3)")
    classes = [c for c in all_subgroup_classes(g) if c.is_abelian()]
    assert len(classes) == 16  # 1 + 7 + 7 + 1 subspaces
    assert all(c.orbit_size == 1 for c in classes)
    assert sorted(c.order for c in classes) == [1] + [2] * 7 + [4] * 7 + [8]


def test_a5_abelian_kinds():
    g = construct("Alternating(5)")
    classes = [c for c in all_subgroup_classes(g) if c.is_abelian()]
    kinds = sorted((c.order, c.is_cyclic()) for c in classes)
    assert kinds == [(1, True), (2, True), (3, True), (4, False), (5, True)]


def test_c6_lattice():
    classes = all_subgroup_classes(construct("Cyclic(6)"))
    assert [c.order for c in classes] == [1, 2, 3, 6]
    assert all(c.orbit_size == 1 for c in classes)


def test_s3_lattice():
    classes = all_subgroup_classes(S(3))
    assert len(classes) == 4
    assert sum(c.orbit_size for c in classes) == 6


def test_a5_lattice():
    classes = all_subgroup_classes(construct("Alternating(5)"))
    assert len(classes) == 9
    assert sum(c.orbit_size for c in classes) == 59
    assert classes[-1].order == 60


ORACLE_NAMES = [
    "Cyclic(16)",
    "Cyclic(24)",
    "Dihedral(6)",
    "Dihedral(8)",
    "GeneralizedQuaternion(8)",
    "GeneralizedQuaternion(16)",
    "ElementaryAbelian(2,3)",
    "ElementaryAbelian(3,2)",
    "Symmetric(4)",
    "Alternating(4)",
    "SL2(3)",
    "E4xC3",
    "Cyclic(3)*Cyclic(4)",
    "Symmetric(3)*Cyclic(2)",
]


@pytest.mark.parametrize("name", ORACLE_NAMES)
def test_enumeration_matches_subset_closure_oracle(name):
    group = construct(name)
    assert group.order() <= 48
    oracle_sets = brute_force_subgroups(group)
    classes = all_subgroup_classes(group)
    # total subgroup count
    assert sum(c.orbit_size for c in classes) == len(oracle_sets)
    # class count and orbit sizes against exhaustive conjugation
    orbits = conjugacy_partition(group, oracle_sets)
    assert len(classes) == len(orbits)
    assert sorted(c.orbit_size for c in classes) == sorted(len(o) for o in orbits)
    # representatives land in oracle orbits of the same size
    orbit_of = {}
    for orbit in orbits:
        for s in orbit:
            orbit_of[s] = orbit
    for c in classes:
        rep = frozenset(c.representative.elements())
        assert rep in orbit_of
        assert len(orbit_of[rep]) == c.orbit_size


@pytest.mark.parametrize("name", ["Symmetric(4)", "SL2(3)", "GeneralizedQuaternion(16)"])
def test_p_enumeration_matches_oracle(name):
    group = construct(name)
    oracle_sets = [
        s
        for s in brute_force_subgroups(group)
        if len(s) > 1 and not (len(s) & (len(s) - 1))
    ]
    orbits = conjugacy_partition(group, oracle_sets)
    classes = p_subgroup_classes(group, 2)
    assert len(classes) == len(orbits)
    assert sorted(c.orbit_size for c in classes) == sorted(len(o) for o in orbits)


def test_class_tests_leave_the_class_as_built():
    # nothing is cached on a class, so asking it anything leaves it equal to
    # the class built from its representative and orbit size
    for c in all_subgroup_classes(S(4)):
        for test in ("is_abelian", "is_cyclic", "is_nilpotent", "is_supersolvable"):
            getattr(c, test)()
            assert c == SubgroupClass(c.representative, c.orbit_size), (c, test)


def test_walks_list_the_registry_objects():
    # while a walk keeps its registry, each class it lists is the registry's
    # own object, not a copy
    g, h = construct("Alternating(5)"), S(5)
    lists = {
        # below the largest order a proper subgroup of A5 can have (12), the
        # walk inside normalisers keeps its registry
        WALK_KEY: (g, subgroups._walk_classes(g, 10)),
        # below |Syl_2| / 2 = 4 the p-walk keeps its registry; a fresh
        # group, since g's plain walk would answer the p-subgroup read
        ("p walk", 2): (h, p_subgroup_classes(h, 2, 2)),
    }
    for key, (group, classes) in lists.items():
        registry = group.analysis_cache[key].registry
        assert registry is not None and classes, key
        for c in classes:
            assert any(c is own for own in registry.classes), (key, c)


def test_a_kept_plain_walk_answers_the_p_subgroup_reads(monkeypatch):
    # every p-subgroup is solvable, so once the plain walk is kept its list
    # holds the p-subgroup classes: read off it, they match a fresh copy's
    # p-walk, prefixes included, and no walk starts
    for name in ["Symmetric(5)", "PSL2(7)", "SL2(3)"]:
        g = construct(name)
        primes = prime_factors(g.order())
        fresh = Group(g.generators, degree=g.degree)
        expected = {p: p_subgroup_classes(fresh, p) for p in primes}
        all_subgroup_classes(g, 1)
        started = []
        init = subgroups._GradedWalk.__init__

        def recording_init(self, *args):
            started.append(self)
            init(self, *args)

        monkeypatch.setattr(subgroups._GradedWalk, "__init__", recording_init)
        for p in primes:
            order_p = [c for c in expected[p] if c.order == p]
            assert _keyed(p_subgroup_classes(g, p, p)) == _keyed(order_p), (name, p)
            assert _keyed(p_subgroup_classes(g, p)) == _keyed(expected[p]), (name, p)
        monkeypatch.undo()
        assert not started, name


def test_a_refused_plain_read_falls_back_to_the_p_walk():
    # B splits before this cap refuses SL2(7)'s plain walk, which is kept;
    # reading the 2-subgroups off it is refused, the refusal is kept in the
    # walk's place, and the p-walk, which stores less, answers as it does
    # on a fresh copy
    g = _capped("SL2(7)", stored_index_cap=1500)
    assert decide(g, ClassId.B)[0] == NON_MEMBER
    assert isinstance(g.analysis_cache[WALK_KEY], subgroups._GradedWalk)
    classes = p_subgroup_classes(g, 2)
    order, kind, _ = g.analysis_cache[WALK_KEY]
    assert (order, kind) == (16, "stored indices")
    assert ("p walk", 2) in g.analysis_cache
    fresh = _capped("SL2(7)", stored_index_cap=1500)
    assert _keyed(classes) == _keyed(p_subgroup_classes(fresh, 2))
    assert classes[-1].order == 16
    # a later p-subgroup read goes to the p-walk, not the refusal
    assert _keyed(p_subgroup_classes(g, 2)) == _keyed(classes)


def _counting_walk_starts(monkeypatch):
    """The ``_GradedWalk`` started from now on, as a list that grows."""
    started = []
    init = subgroups._GradedWalk.__init__

    def recording_init(self, *args):
        started.append(self)
        init(self, *args)

    monkeypatch.setattr(subgroups._GradedWalk, "__init__", recording_init)
    return started


def test_a_report_frees_the_registry_of_the_walk_inside_normalisers():
    # PSL2(11) has non-solvable proper subgroups (A5), so its complete reads
    # take the walk over all of G, and the walk inside normalisers frees its
    # registry once a solvable read reaches |G|.  The group's classes and
    # conjugation maps are built first, so only what the report keeps counts
    g0 = construct("PSL2(11)")
    g = Group(g0.generators, degree=g0.degree, caps=g0.caps)
    g.rational_classes()
    g.conj_maps()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        hierarchy_report(g)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert g.analysis_cache[WALK_KEY].registry is None
    # 72 KB measured; 449 KB while the registry was kept for a complete read
    assert retained <= 150_000


def test_a_refused_walk_keeps_its_refusal(monkeypatch):
    # under this cap SL2(7)'s solvable read of order 16 is refused; a read of
    # as much is refused again with no walk, a complete one too, while a
    # smaller read starts the walk afresh
    g = _capped("SL2(7)", stored_index_cap=1500)
    started = _counting_walk_starts(monkeypatch)
    with pytest.raises(CapExceeded) as first:
        subgroups._walk_classes(g, 16)
    assert len(started) == 1
    for d, complete in [(16, False), (48, False), (16, True), (336, True)]:
        with pytest.raises(CapExceeded) as again:
            subgroups._walk_classes(g, d, complete)
        assert again.value.args == first.value.args, (d, complete)
    assert len(started) == 1
    fresh = _capped("SL2(7)", stored_index_cap=1500)
    assert _keyed(subgroups._walk_classes(g, 8)) == _keyed(
        subgroups._walk_classes(fresh, 8)
    )
    assert len(started) == 3 and g.analysis_cache[WALK_KEY] is started[1]
    # a refused complete read refuses a solvable read of as much, which does
    # the same work, with no walk
    h = _capped("SL2(7)", stored_index_cap=1500)
    with pytest.raises(CapExceeded):
        subgroups._walk_classes(h, 16, True)
    with pytest.raises(CapExceeded) as again:
        subgroups._walk_classes(h, 48)
    assert again.value.args == first.value.args
    assert len(started) == 4


def test_a_refused_complete_read_does_not_refuse_a_solvable_one(monkeypatch):
    # Symmetric(5) has a non-solvable proper subgroup (A5), so its complete
    # read from low = 60 on takes the walk over all of G, which stores 1 211
    # indices; the walk inside normalisers stores 1 031 for every order
    g = _capped("Symmetric(5)", stored_index_cap=1100)
    with pytest.raises(CapExceeded):
        all_subgroup_classes(g)
    order, _, _ = g.analysis_cache[WALK_KEY, "all"]
    assert order == 120
    started = _counting_walk_starts(monkeypatch)
    fresh = _capped("Symmetric(5)", stored_index_cap=1100)
    assert _keyed(subgroups._walk_classes(g, 120)) == _keyed(
        subgroups._walk_classes(fresh, 120)
    )
    assert len(started) == 2
    # SL2(7) has none: its complete read adds G to the walk inside
    # normalisers with no stored index, so it passes every cap the solvable
    # read of every order passes (2 971 indices)
    assert _keyed(all_subgroup_classes(_capped("SL2(7)", stored_index_cap=2971))) == (
        _keyed(all_subgroup_classes(construct("SL2(7)")))
    )
    with pytest.raises(CapExceeded):
        all_subgroup_classes(_capped("SL2(7)", stored_index_cap=2970))


def test_a_capped_report_restarts_no_refused_plain_walk(monkeypatch):
    # under this cap SL2(8)'s plain walk is refused at order 4: B's complete
    # read, then H's solvable read, which starts at order 2, below the
    # refusal; N's and A's reads of order 4 are refused by H's refusal with
    # no walk.  Dropping each refused walk started it 4 times
    g = _capped("SL2(8)", stored_index_cap=1000)
    started = _counting_walk_starts(monkeypatch)
    report = hierarchy_report(g)
    plain = [w for w in started if w.top == g.order()]
    assert len(plain) == 2
    for cid in (ClassId.B, ClassId.H, ClassId.N, ClassId.A):
        assert report.verdicts[cid] == UNDECIDED, cid


CAPPED_GROUPS = ["SL2(7)", "Symmetric(5)", "SL2(8)", "PSL2(7)", "Alternating(6)"]


@pytest.mark.parametrize("name", CAPPED_GROUPS)
def test_a_capped_report_matches_each_verdict_on_a_fresh_group(name):
    # the report shares its walks and their refusals across the ten
    # verdicts; each verdict and witness is a fresh group's
    for cap in (300, 1000, 1500, 2298, 3000, 8000):
        report = hierarchy_report(_capped(name, stored_index_cap=cap))
        for cid in ClassId:
            verdict, w = decide(_capped(name, stored_index_cap=cap), cid)
            assert report.verdicts[cid] == verdict, (cap, cid)
            got = report.witnesses.get(cid)
            assert (got is None) == (w is None), (cap, cid)
            if w is not None:
                expected = (w.prime, w.order, w.method, w.sub_a.key(), w.sub_b.key())
                assert (
                    got.prime,
                    got.order,
                    got.method,
                    got.sub_a.key(),
                    got.sub_b.key(),
                ) == expected, (cap, cid)


def test_orbit_sizes_divide_group_order():
    for name in ["Symmetric(5)", "PSL2(7)", "E8xC7"]:
        g = construct(name)
        for c in all_subgroup_classes(g):
            assert g.order() % c.orbit_size == 0


def test_conjugate_of_itself_is_identity():
    g = S(4)
    h = g.subgroup([P("(1,2,3)", 4)])
    assert are_conjugate(g, h, h) == g.identity()


def test_conjugator_is_verified():
    g = S(3)
    h = g.subgroup([P("(1,2)", 3)])
    k = g.subgroup([P("(1,3)", 3)])
    conj = are_conjugate(g, h, k)
    assert conj is not None
    assert frozenset(conj.inverse() * x * conj for x in h.elements()) == frozenset(
        k.elements()
    )
    assert exhaustive_conjugator(
        g, frozenset(h.elements()), frozenset(k.elements())
    ) is not None


def test_transposition_vs_double_transposition():
    g = S(4)
    h = g.subgroup([P("(1,2)", 4)])
    k = g.subgroup([P("(1,2)(3,4)", 4)])
    assert are_conjugate(g, h, k) is None
    assert exhaustive_conjugator(
        g, frozenset(h.elements()), frozenset(k.elements())
    ) is None


def test_are_conjugate_is_symmetric():
    g = construct("PSL2(7)")
    classes = p_subgroup_classes(g, 2)
    reps = [c.representative for c in classes if c.order == 4]
    for a in reps:
        for b in reps:
            ab = are_conjugate(g, a, b)
            ba = are_conjugate(g, b, a)
            assert (ab is None) == (ba is None)


def test_conjugate_subgroups_share_fingerprints():
    g = construct("SL2(3)")
    for c in all_subgroup_classes(g):
        rep = c.representative
        for x in list(g.elements())[::5]:
            conj = g.subgroup([x.inverse() * t * x for t in rep.generators])
            assert conj.fingerprint() == rep.fingerprint()


def test_full_enumeration_cap():
    g = construct("SL2(13)")  # order 2184
    with pytest.raises(CapExceeded, match="full subgroup"):
        all_subgroup_classes(g)


# The orbit keys a registry stores are bounded by the indices they hold:
# stored_index_cap counts |H| x orbit size for every class registered, the
# first set of a class included.  p_subgroup_classes(S4, 2) registers 17
# subgroup sets over six classes below the Sylow order (the trivial one
# included), holding 47 indices; the three Sylow subgroups, 24 more, are
# classified in a registry of their own once that one is freed, and 47 is
# the smallest cap the enumeration passes
S4_TWO_SUBGROUP_INDICES = 47
# bytes a registry takes per stored index on small sets, as the README states
BYTES_PER_INDEX = 250


def _capped(name, **caps):
    g = construct(name)
    return Group(g.generators, degree=g.degree, caps=Caps(**caps))


def _s4(**caps):
    return _capped("Symmetric(4)", **caps)


def test_orbit_key_cap_bounds_the_registry():
    g = _s4(stored_index_cap=S4_TWO_SUBGROUP_INDICES)
    assert [c.orbit_size for c in p_subgroup_classes(g, 2)] == [6, 3, 3, 1, 3, 3]
    g = _s4(stored_index_cap=S4_TWO_SUBGROUP_INDICES - 1)
    with pytest.raises(CapExceeded, match="stored indices"):
        p_subgroup_classes(g, 2)
    # B_pi splits at order 2, which the p-walk reaches below the cap, with
    # the uncapped witness; the whole p-walk is still refused after it
    verdict, w = decide(g, ClassId.B_PI)
    _, expected = decide(construct("Symmetric(4)"), ClassId.B_PI)
    assert verdict == NON_MEMBER and w.order == 2
    assert (w.sub_a.key(), w.sub_b.key()) == (
        expected.sub_a.key(),
        expected.sub_b.key(),
    )
    with pytest.raises(CapExceeded, match="stored indices"):
        p_subgroup_classes(g, 2)


@pytest.mark.parametrize("name", ["ElementaryAbelian(2,4)", "Symmetric(4)", "SL2(3)"])
def test_a_registry_never_holds_more_than_the_cap(name):
    # every class, normal subgroups included, costs |H| x orbit size indices;
    # the registry holds exactly the classes that fit and refuses the first
    # that does not, at every cap up to the whole list
    classes = all_subgroup_classes(construct(name))
    total = sum(c.order * c.orbit_size for c in classes)
    for cap in range(0, total + 1, 7):
        registry = _OrbitRegistry(_capped(name, stored_index_cap=cap))
        held = 0
        for c in classes:
            held += c.order * c.orbit_size
            if held > cap:
                with pytest.raises(CapExceeded, match="stored indices"):
                    registry.classify(c.representative.indices)
                break
            registry.classify(c.representative.indices)
            assert registry.stored == held


def test_the_cap_counts_the_normal_subgroups_too():
    # all 67 subgroups of ElementaryAbelian(2,4) are normal, one set per
    # class; the 66 proper ones hold 291 indices (G, listed past the bound,
    # stores none): a cap below that refuses the full walk
    g = _capped("ElementaryAbelian(2,4)", stored_index_cap=291)
    assert len(all_subgroup_classes(g)) == 67
    g = _capped("ElementaryAbelian(2,4)", stored_index_cap=290)
    with pytest.raises(CapExceeded, match="stored indices"):
        all_subgroup_classes(g)


def test_orbit_key_cap_bounds_are_conjugate():
    # <(1,2)> and <(1,2)(3,4)> share a fingerprint, so the walk reads all six
    # conjugates of <(1,2)>, 12 indices, before it can say no
    def pair(cap):
        g = _s4(stored_index_cap=cap)
        return g, g.subgroup([P("(1,2)", 4)]), g.subgroup([P("(1,2)(3,4)", 4)])

    assert are_conjugate(*pair(12)) is None
    with pytest.raises(CapExceeded) as info:
        are_conjugate(*pair(11))
    assert info.value.kind == "stored indices"


def test_orbit_key_cap_spares_a_verdict_settled_before_it():
    # Symmetric(6) has 1455 subgroups holding 18421 indices, but every one of
    # its verdicts splits at order 2, which the walk reaches holding 811
    with pytest.raises(CapExceeded, match="stored indices"):
        all_subgroup_classes(_capped("Symmetric(6)", stored_index_cap=1000))
    g = _capped("Symmetric(6)", stored_index_cap=1000)
    assert decide(g, ClassId.B)[0] == NON_MEMBER
    report = hierarchy_report(g)
    expected = hierarchy_report(construct("Symmetric(6)"))
    assert report.verdicts == expected.verdicts
    # the plain witnesses come from the walk, not from the pi fallback
    for cid, w in expected.witnesses.items():
        got = report.witnesses[cid]
        assert (got.prime, got.sub_a.key(), got.sub_b.key()) == (
            w.prime,
            w.sub_a.key(),
            w.sub_b.key(),
        )


def test_orbit_key_cap_leaves_a_member_walk_undecided():
    # SL2(8) (386 subgroups, 3559 indices) is a member of every class, so
    # each plain verdict but C needs the whole walk; under the cap it is
    # refused, and the pi verdicts come from the p-walks, which stay below it
    # (451 indices at most).  C reads the rational classes, one per element
    # order, so it needs no walk
    report = hierarchy_report(_capped("SL2(8)", stored_index_cap=1000))
    assert {c: v for c, v in report.verdicts.items() if not c.is_pi} == {
        c: MEMBER if c is ClassId.C else UNDECIDED for c in ClassId if not c.is_pi
    }
    assert {c: v for c, v in report.verdicts.items() if c.is_pi} == {
        c: MEMBER for c in ClassId if c.is_pi
    }


def test_stored_index_cap_bounds_a_p_walk_in_memory():
    # ElementaryAbelian(2,9) has millions of 2-subgroups: its p-walk is
    # refused at the cap, within the memory the README states per index
    g = _capped("ElementaryAbelian(2,9)", stored_index_cap=10_000)
    g.rational_classes()
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match="stored indices"):
            p_subgroup_classes(g, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10_000 * BYTES_PER_INDEX


def test_a_p_walk_stops_at_its_first_split():
    # the abelian 2-subgroups of order 2 are 511 classes, so A_pi splits at
    # once, whatever the size of the whole p-walk
    verdict, w = decide(construct("ElementaryAbelian(2,9)"), ClassId.A_PI)
    assert verdict == NON_MEMBER
    assert (w.order, w.prime) == (2, 2)


@pytest.mark.parametrize("p", [1, 4, 6])
def test_p_must_be_a_prime(p):
    g = S(4)
    for fn in (sylow_subgroup, p_subgroup_classes, core_p, o_pprime):
        with pytest.raises(ValueError) as info:
            fn(g, p)
        assert str(info.value) == f"{p} is not a prime"


def test_a_sylow_prime_must_divide_the_order():
    g = S(4)
    for fn in (sylow_subgroup, p_subgroup_classes):
        with pytest.raises(ValueError, match="^5 does not divide the group order 24$"):
            fn(g, 5)
    # the cores take any prime
    assert (core_p(g, 5).order, o_pprime(g, 5).order) == (1, 24)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(["Symmetric(4)", "Dihedral(8)", "SL2(3)", "Alternating(4)"]))
def test_bucket_members_really_equal_order(name):
    g = construct(name)
    for c in all_subgroup_classes(g):
        assert c.order == c.representative.order
        assert c.representative.fingerprint()[0] == c.order


# ----------------------------------------------------------------------
# one extension per N_G(H)-orbit of cosets, against one per coset


def _keyed(classes):
    return [(c.representative.key(), c.orbit_size) for c in classes]


def _assert_walks_agree(g):
    fresh = Group(g.generators, degree=g.degree)
    assert _keyed(all_subgroup_classes(g)) == _keyed(unpruned_all_subgroup_classes(g))
    for p in prime_factors(g.order()):
        # the p-walk of a fresh copy; g's own read is served by its plain walk
        pruned = _keyed(p_subgroup_classes(fresh, p))
        assert pruned == _keyed(unpruned_p_subgroup_classes(g, p))
        assert pruned[0][0] != (g.identity_idx,)
        assert _keyed(p_subgroup_classes(g, p)) == pruned


@pytest.mark.parametrize(
    "name", ["Symmetric(4)", "SL2(3)", "Symmetric(5)", "PSL2(7)", "E25xSL(2,3)"]
)
def test_orbit_walks_match_unpruned_walks(name):
    _assert_walks_agree(construct(name))


@pytest.mark.parametrize("name", ["Symmetric(5)", "PSL2(7)"])
def test_orbit_walks_match_unpruned_walks_without_table(name):
    """No product table is kept: every product reads x_i's getter over the
    base images of x_j.  A relabelled copy puts the base off 0..k-1, so the
    getters read other points than on the group as constructed."""
    g = relabelled(construct(name))
    assert g._base != tuple(range(len(g._base)))
    _assert_walks_agree(g)


def _closures_from_trivial(monkeypatch, g, run):
    """Seeds of the closures that extend the trivial class during ``run(g)``:
    those whose base is a registry's representative of that class."""
    closure = g.closure_idx
    registries = []
    seeds = []
    init = _OrbitRegistry.__init__

    def recording_init(self, group):
        init(self, group)
        registries.append(self)

    def counted(seed, base=None):
        if any(r.classes and base is r.classes[0].representative for r in registries):
            seeds.append(tuple(seed))
        return closure(seed, base=base)

    monkeypatch.setattr(_OrbitRegistry, "__init__", recording_init)
    monkeypatch.setattr(g, "closure_idx", counted)
    run(g)
    monkeypatch.undo()
    return seeds


def test_trivial_class_takes_one_closure_per_element_class(monkeypatch):
    g = S(5)
    order = g.order_of_idx
    classes = g.conjugacy_classes_idx()
    pp = [c for c in classes if len(prime_factors(order(c[0]))) == 1]
    seeds = _closures_from_trivial(monkeypatch, g, all_subgroup_classes)
    assert len(seeds) == len(pp) == 5
    assert sorted(next(c for c in pp if s[0] in c) for s in seeds) == sorted(pp)
    for n, p in ((5, 2), (5, 3), (5, 5), (6, 3)):
        g = S(n)
        classes = g.conjugacy_classes_idx()
        order_p = [c for c in classes if g.order_of_idx(c[0]) == p]
        # a fresh group each time, so a p-walk answers, not a plain walk; it
        # extends the trivial class only below |G|_p / p, so where |G|_p = p
        # the one class of order p is the Sylow class, built with no closure
        seeds = _closures_from_trivial(
            monkeypatch, g, lambda g: p_subgroup_classes(g, p)
        )
        if p_part(g.order(), p) == p:
            assert seeds == [], (n, p)
            continue
        assert len(seeds) == len(order_p), (n, p)
        assert {next(c for c in order_p if s[0] in c) for s in seeds} == set(order_p)


@pytest.mark.parametrize("name", ["Symmetric(5)", "PSL2(7)"])
def test_the_first_level_reads_the_rational_classes(monkeypatch, name):
    # the trivial class is extended by its rational-class representatives,
    # so no coset walk runs for it, in the full walk or in any p-walk
    g = relabelled(construct(name))
    walk = subgroups._coset_orbit_reps
    bases = []

    def recording(group, rep, *args):
        bases.append(rep.order)
        return walk(group, rep, *args)

    monkeypatch.setattr(subgroups, "_coset_orbit_reps", recording)
    all_subgroup_classes(g)
    # a fresh copy, so that p-walks answer, not g's plain walk
    fresh = Group(g.generators, degree=g.degree)
    for p in prime_factors(g.order()):
        p_subgroup_classes(fresh, p)
    assert bases and 1 not in bases


@pytest.mark.parametrize("name", ["Symmetric(5)", "PSL2(7)"])
def test_one_extension_per_cyclic_subgroup(monkeypatch, name):
    """No single orbit walk yields both x and a power x^k with k prime to
    |x|: the cosets H x^k give <H, x> again and are marked with x's orbit."""
    g = relabelled(construct(name))
    walk = subgroups._coset_orbit_reps
    calls = []

    def recording(*args):
        calls.append(list(walk(*args)))
        return iter(calls[-1])

    monkeypatch.setattr(subgroups, "_coset_orbit_reps", recording)
    all_subgroup_classes(g)
    # a fresh copy, so that p-walks answer, not g's plain walk
    fresh = Group(g.generators, degree=g.degree)
    for p in prime_factors(g.order()):
        p_subgroup_classes(fresh, p)
    assert sum(map(len, calls)) > len(calls)
    for yielded in calls:
        seen = set(yielded)
        for x in yielded:
            m = g.order_of_idx(x)
            powers = {g.pow_idx(x, k) for k in range(2, m) if gcd(k, m) == 1}
            assert not powers & seen, (x, sorted(powers & seen))


@pytest.mark.parametrize("name,p", [("Symmetric(5)", None), ("SL2(7)", None), ("M11", 2)])
def test_one_orbit_walk_per_class(monkeypatch, name, p):
    # the walk that registers a class also gives its normaliser, so the
    # conjugation orbits walked are exactly the classes registered, in the
    # full walk (on relabelled points) and in a p-walk, which classifies its
    # Sylow subgroups in a registry of their own once its own is freed
    g = relabelled(construct(name)) if p is None else construct(name)
    registries, walks = [], []
    init, conjugates = _OrbitRegistry.__init__, Group.conjugates

    def recording_init(self, group):
        init(self, group)
        registries.append(self)

    def counted(self, *args):
        walks.append(args[0])
        return conjugates(self, *args)

    monkeypatch.setattr(_OrbitRegistry, "__init__", recording_init)
    monkeypatch.setattr(Group, "conjugates", counted)
    all_subgroup_classes(g) if p is None else p_subgroup_classes(g, p)
    monkeypatch.undo()
    assert len(registries) == (1 if p is None else 2)
    assert len(walks) == sum(len(r.classes) for r in registries) > 5
