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
from subconj.structure import prime_factors
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
    g = S(5)
    lists = {
        # S5 is not solvable, so its walk inside normalisers keeps the registry
        WALK_KEY: subgroups._walk_classes(g, g.order()),
        # below |Syl_2| = 8 the p-walk is unfinished
        ("p walk", 2): p_subgroup_classes(g, 2, 4),
    }
    for key, classes in lists.items():
        registry = g.analysis_cache[key].registry
        assert registry is not None and classes, key
        for c in classes:
            assert any(c is own for own in registry.classes), (key, c)


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


# p_subgroup_classes(S4, 2) registers 20 subgroup sets over seven classes (the
# trivial one included); the first set of a class is not counted against
# orbit_key_cap, and 20 is the smallest cap the enumeration passes
S4_TWO_SUBGROUP_ORBIT_KEYS = 20


def _capped(name, **caps):
    g = construct(name)
    return Group(g.generators, degree=g.degree, caps=Caps(**caps))


def _s4(**caps):
    return _capped("Symmetric(4)", **caps)


def test_orbit_key_cap_bounds_the_registry():
    g = _s4(orbit_key_cap=S4_TWO_SUBGROUP_ORBIT_KEYS)
    assert [c.orbit_size for c in p_subgroup_classes(g, 2)] == [6, 3, 3, 1, 3, 3]
    g = _s4(orbit_key_cap=S4_TWO_SUBGROUP_ORBIT_KEYS - 1)
    with pytest.raises(CapExceeded, match="orbit keys"):
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
    with pytest.raises(CapExceeded, match="orbit keys"):
        p_subgroup_classes(g, 2)


def test_orbit_key_cap_bounds_are_conjugate():
    # <(1,2)> and <(1,2)(3,4)> share a fingerprint, so the walk reads all six
    # conjugates of <(1,2)> before it can say no
    def pair(cap):
        g = _s4(orbit_key_cap=cap)
        return g, g.subgroup([P("(1,2)", 4)]), g.subgroup([P("(1,2)(3,4)", 4)])

    assert are_conjugate(*pair(6)) is None
    with pytest.raises(CapExceeded) as info:
        are_conjugate(*pair(5))
    assert info.value.kind == "orbit keys"


def test_orbit_key_cap_spares_a_verdict_settled_before_it():
    # Symmetric(6) has 1455 subgroups, but every one of its verdicts splits
    # at order 2, which the walk reaches after 242 subgroup sets
    with pytest.raises(CapExceeded, match="orbit keys"):
        all_subgroup_classes(_capped("Symmetric(6)", orbit_key_cap=300))
    g = _capped("Symmetric(6)", orbit_key_cap=300)
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
    # SL2(8) (386 subgroups) is a member of every class, so each plain
    # verdict but C needs the whole walk; under the cap it is refused, and
    # the pi verdicts come from the p-walks, which stay below it.  C reads
    # the rational classes, one per element order, so it needs no walk
    report = hierarchy_report(_capped("SL2(8)", orbit_key_cap=300))
    assert {c: v for c, v in report.verdicts.items() if not c.is_pi} == {
        c: MEMBER if c is ClassId.C else UNDECIDED for c in ClassId if not c.is_pi
    }
    assert {c: v for c, v in report.verdicts.items() if c.is_pi} == {
        c: MEMBER for c in ClassId if c.is_pi
    }


def test_sylow_cap_blocks_p_enumeration():
    g = construct("ElementaryAbelian(2,9)")  # Sylow order 512 > 256
    with pytest.raises(CapExceeded, match="sylow"):
        p_subgroup_classes(g, 2)


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
    assert _keyed(all_subgroup_classes(g)) == _keyed(unpruned_all_subgroup_classes(g))
    for p in prime_factors(g.order()):
        pruned = _keyed(p_subgroup_classes(g, p))
        assert pruned == _keyed(unpruned_p_subgroup_classes(g, p))
        assert pruned[0][0] != (g.identity_idx,)


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
    for p in (2, 3, 5):
        order_p = [c for c in classes if order(c[0]) == p]
        seeds = _closures_from_trivial(
            monkeypatch, g, lambda g: p_subgroup_classes(g, p)
        )
        assert len(seeds) == len(order_p)
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
    for p in prime_factors(g.order()):
        p_subgroup_classes(g, p)
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
    for p in prime_factors(g.order()):
        p_subgroup_classes(g, p)
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
    # full walk (on relabelled points) and in a p-walk
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
    assert len(registries) == 1
    assert len(walks) == len(registries[0].classes) > 5
