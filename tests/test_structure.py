import gc
import random
import weakref

import pytest

from subconj import (
    CapExceeded,
    Caps,
    Group,
    all_subgroup_classes,
    are_conjugate,
    construct,
    core_p,
    derived_series,
    derived_subgroup,
    direct_product,
    fitting_subgroup,
    is_isomorphic_small,
    is_nilpotent,
    is_normal,
    is_solvable,
    is_supersolvable,
    normal_subgroups,
    o_pprime,
    Permutation,
    parse_permutation,
    p_subgroup_classes,
    quotient,
    semidirect_product,
    structural_fingerprint,
    sylow_shape,
    sylow_subgroup,
)
from subconj.harness import CorpusManifest
from subconj.structure import p_part, prime_factors

from oracles import (
    commutator_subgroup_oracle,
    core_p_oracle,
    element_walk_closure,
    is_nilpotent_oracle,
    is_supersolvable_oracle,
    normal_closure_joins,
    normal_subgroups_oracle,
    normalizer_sylow_growth,
    o_pprime_oracle,
    relabelled,
)

ORACLE_GROUPS = ["Symmetric(4)", "SL2(3)", "Dihedral(6)", "E4xC3", "Q8xC3"]


def P(text, degree):
    return parse_permutation(text, degree)


def S(n):
    return Group([P(f"({','.join(map(str, range(1, n + 1)))})", n), P("(1,2)", n)])


def test_abelian_series_stops_immediately():
    g = construct("Cyclic(12)")
    series = derived_series(g)
    assert len(series) == 2  # G then trivial
    assert series[-1].order == 1
    assert is_solvable(g)


def test_s4_derived_series_orders():
    g = S(4)
    assert [h.order for h in derived_series(g)] == [24, 12, 4, 1]
    with pytest.raises(ValueError):  # <(1,2,3)> is not normal in S4
        derived_subgroup(g, g.subgroup([P("(1,2,3)", 4)]))


def test_derived_subgroup_matches_commutator_oracle():
    for name in ["Symmetric(4)", "SL2(3)", "Dihedral(6)", "Alternating(4)"]:
        g = construct(name)
        oracle = commutator_subgroup_oracle(g)
        assert derived_subgroup(g).order == len(oracle)


def test_a5_is_perfect_hence_unsolvable():
    g = construct("Alternating(5)")
    series = derived_series(g)
    assert series[-1].order == 60  # A5' = A5
    assert not is_solvable(g)


def test_p_groups_are_nilpotent():
    for name in ["GeneralizedQuaternion(16)", "ElementaryAbelian(3,3)", "Cyclic(32)"]:
        assert is_nilpotent(construct(name))


def test_s3_is_not_nilpotent():
    g = S(3)
    assert not is_nilpotent(g)


def test_nilpotency_cross_checked_with_sylow_normality():
    for name in [
        "GeneralizedQuaternion(8)*Cyclic(7)",
        "Symmetric(3)",
        "Cyclic(30)",
        "SL2(3)",
        "Dihedral(8)",
        "Alternating(4)",
    ]:
        g = construct(name)
        all_sylow_normal = all(
            is_normal(g, sylow_subgroup(g, p)) for p in prime_factors(g.order())
        )
        assert is_nilpotent(g) == all_sylow_normal


def test_sylow_of_p_group_is_everything():
    g = construct("GeneralizedQuaternion(32)")
    assert sylow_subgroup(g, 2).order == 32


def test_sylow2_of_s4_is_dihedral():
    syl = sylow_subgroup(S(4), 2)
    assert syl.order == 8
    assert sylow_shape(syl).tag == "Dihedral"


def test_sylow2_of_sl25_is_quaternion():
    g = construct("SL2(5)")
    syl = sylow_subgroup(g, 2)
    assert syl.order == 8
    shape = sylow_shape(syl)
    assert shape.tag == "QuaternionQ8"
    # unique involution, directly
    invs = [i for i in syl.indices if g.order_of_idx(i) == 2]
    assert len(invs) == 1


@pytest.mark.parametrize(
    "name", ["Symmetric(5)", "SL2(7)", "PSL2(8)", "M11", "E25xSL(2,3)", "Dihedral(12)"]
)
def test_sylow_orders_are_the_p_parts(name):
    g = construct(name)
    for p in prime_factors(g.order()):
        assert sylow_subgroup(g, p).order == p_part(g.order(), p)


def test_sylow_rejects_non_divisor():
    with pytest.raises(ValueError, match="does not divide"):
        sylow_subgroup(S(4), 5)


def test_analysed_sylow_subgroups_are_kept_for_reuse():
    from subconj.harness import analyze_group

    g = construct("Symmetric(4)")
    analyze_group(g, "Symmetric(4)")
    syl = g.analysis_cache["sylow", 2]
    assert sylow_subgroup(g, 2) is syl
    # a group that was only fingerprinted keeps nothing that refers back to
    # it, so dropping it frees it at once
    h = construct("Symmetric(4)")
    assert structural_fingerprint(h) == structural_fingerprint(g)
    assert sylow_subgroup(h, 2).indices == syl.indices
    ref = weakref.ref(h)
    gc.disable()
    try:
        del h
        assert ref() is None
    finally:
        gc.enable()


def test_sylow_is_conjugate_to_top_p_class():
    # the normaliser growth lands in the one class of Sylow subgroups
    for name in ["Symmetric(4)", "SL2(3)", "PSL2(7)"]:
        g = construct(name)
        for p in prime_factors(g.order()):
            top = p_subgroup_classes(g, p)[-1].representative
            syl = sylow_subgroup(g, p)
            assert syl.order == top.order == p_part(g.order(), p)
            assert are_conjugate(g, syl, top) is not None


def test_core_of_p_group_is_everything():
    g = construct("ElementaryAbelian(5,2)")
    assert core_p(g, 5).order == 25


def test_core2_of_s4_is_v4():
    g = S(4)
    core = core_p(g, 2)
    assert core.order == 4
    # oracle: intersect the three Sylow 2-subgroups directly
    syl = sylow_subgroup(g, 2)
    conjugates = set()
    for x in g.elements():
        conjugates.add(frozenset(x.inverse() * s * x for s in syl.elements()))
    meet = None
    for c in conjugates:
        meet = c if meet is None else meet & c
    assert len(conjugates) == 3
    assert frozenset(core.elements()) == meet


def test_core5_of_a5_is_trivial():
    assert core_p(construct("Alternating(5)"), 5).order == 1


def test_fitting_of_nilpotent_group_is_itself():
    g = construct("GeneralizedQuaternion(16)")
    assert fitting_subgroup(g).order == 16


def test_fitting_of_s4_is_v4():
    assert fitting_subgroup(S(4)).order == 4


def test_fitting_of_s3_times_c5():
    g = direct_product(S(3), construct("Cyclic(5)"))
    fit = fitting_subgroup(g)
    assert fit.order == 15
    assert fit.is_abelian()


@pytest.mark.parametrize("name", ["Symmetric(4)", "SL2(3)", "Dihedral(10)", "E4xC3"])
def test_fitting_is_max_normal_nilpotent(name):
    g = construct(name)
    assert g.order() <= 500
    fit = fitting_subgroup(g)
    assert is_normal(g, fit)
    assert is_nilpotent(g, fit)
    best = 1
    for n in normal_subgroups(g):
        if is_nilpotent(g, n):
            best = max(best, n.order)
    assert fit.order == best


def test_normal_subgroups_match_oracle():
    for name in ["Symmetric(4)", "SL2(3)", "Dihedral(6)", "GeneralizedQuaternion(8)"]:
        g = construct(name)
        got = {frozenset(n.elements()) for n in normal_subgroups(g)}
        expected = {frozenset(s) for s in normal_subgroups_oracle(g)}
        assert got == expected


@pytest.fixture(scope="module")
def large_groups():
    # E32x(C31xC5) on relabelled points, with its 3 generators
    return {
        "E32x(C31xC5)": relabelled(construct("E32x(C31xC5)")),
        "SL2(13)": construct("SL2(13)"),
        "M11": construct("M11"),
    }


@pytest.mark.parametrize("name", ["E32x(C31xC5)", "SL2(13)", "M11"])
def test_normal_subgroups_match_the_normal_closure_joins(large_groups, name):
    # products of class closures against a normal closure per join
    g = large_groups[name]
    got = normal_subgroups(g)
    assert [n.order for n in got] == sorted(n.order for n in got)
    assert {n.indices for n in got} == normal_closure_joins(g)
    for n in got:
        assert g.closure_idx(n.gens_idx()) == n.indices
        assert is_normal(g, n)


NORMAL_CASES = ("E32x(C31xC5)", "SL2(13)", "M11", "E25xSL(2,3)")


@pytest.fixture(scope="module")
def moved_groups():
    return {name: relabelled(construct(name)) for name in NORMAL_CASES}


@pytest.mark.parametrize("name", NORMAL_CASES)
def test_normal_closure_grows_from_a_normal_base(moved_groups, name):
    # grown from N, the normal closure of N and x is the from-scratch one of
    # N's generators and x, generator tuple included
    g = moved_groups[name]
    reps = [c[0] for c in g.conjugacy_classes_idx()]
    for n in normal_subgroups(g):
        gens = n.gens_idx()
        for x in reps:
            if x in n.indices:
                continue
            grown = g._normal_closure([x], base=n)
            scratch = g._normal_closure([*gens, x])
            assert grown.indices == scratch.indices
            assert grown.gens_idx() == scratch.gens_idx()
            assert is_normal(g, grown)


@pytest.mark.parametrize(
    "name", ["Symmetric(4)", "SL2(3)", "E4xC3", "Q8xC3", *NORMAL_CASES]
)
def test_one_closure_per_rational_class_finds_every_normal_subgroup(
    moved_groups, name
):
    # against the joins over every conjugacy class, and for the small groups
    # against O_p' of the brute-force normal subgroup list
    g = moved_groups[name] if name in moved_groups else relabelled(construct(name))
    joins = normal_closure_joins(g)
    assert {n.indices for n in normal_subgroups(g)} == joins
    for p in prime_factors(g.order()):
        got = o_pprime(g, p)
        assert got.indices == max((n for n in joins if len(n) % p), key=len)
        if g.order() <= 24:
            assert set(got.elements()) == o_pprime_oracle(g, p)


@pytest.mark.parametrize("name", NORMAL_CASES)
def test_cores_are_the_largest_admitted_normal_subgroups(monkeypatch, moved_groups, name):
    # and every closure they grow from a base gets generators of that base
    g = moved_groups[name]
    normals = normal_subgroups(g)

    def largest(admits):
        return max((n.indices for n in normals if admits(n)), key=len)

    closure = g.closure_idx
    bases = set()

    def recording(seed, base=None):
        if base is not None:
            bases.add((base.indices, base.gens_idx()))
        return closure(seed, base)

    monkeypatch.setattr(g, "closure_idx", recording)
    for p in prime_factors(g.order()):
        assert core_p(g, p).indices == largest(lambda n: p_part(n.order, p) == n.order)
        assert o_pprime(g, p).indices == largest(lambda n: n.order % p)
    assert fitting_subgroup(g).indices == largest(lambda n: is_nilpotent(g, n))
    for base, base_gens in bases:
        assert element_walk_closure(g, base_gens) == base | {g.identity_idx}


@pytest.mark.parametrize("name,p", [("E32x(C31xC5)", 2), ("M11", 2), ("M11", 3)])
def test_sylow_subgroup_is_the_p_element_set_when_it_is_normal(large_groups, name, p):
    g = large_groups[name]
    n = g.order()
    target = p_part(n, p)
    p_elements = {i for i in range(n) if p_part(o := g.order_of_idx(i), p) == o}
    syl = sylow_subgroup(g, p)
    assert syl.order == target
    assert syl.indices <= p_elements
    assert g.closure_idx(syl.gens_idx()) == syl.indices
    # normal exactly when the p-elements are |G|_p many: E32's, not M11's
    assert (syl.indices == p_elements) == (len(p_elements) == target)
    assert is_normal(g, syl) == (name == "E32x(C31xC5)")


def _assert_sylow_matches_the_normalizer_growth(g):
    for p in prime_factors(g.order()):
        syl = sylow_subgroup(g, p)
        if p_part(g.order(), p) == p:
            # <x> for one x of order p: another Sylow subgroup, maybe
            assert syl.order == p and len(syl.gens_idx()) == 1
            continue
        old = normalizer_sylow_growth(g, p)
        assert (syl.indices, syl.gens_idx()) == (old.indices, old.gens_idx()), p


def _corpus_groups_up_to(order):
    built = (construct(e.name) for e in CorpusManifest.default().entries)
    return [g for g in built if g.order() <= order]


def test_sylow_growth_matches_the_normalizer_growth_on_the_corpus():
    # the first p-element y outside P with P^y = P is the first p-element of
    # N_G(P) outside P: the same subgroup, with the same generators
    for g in _corpus_groups_up_to(2000):
        _assert_sylow_matches_the_normalizer_growth(g)


@pytest.mark.parametrize("name", ["M11", "SL2(13)", "E32x(C31xC5)", "Symmetric(6)"])
def test_sylow_growth_matches_the_normalizer_growth_on_moved_points(name):
    _assert_sylow_matches_the_normalizer_growth(relabelled(construct(name)))


def test_sylow_growth_walks_no_conjugation_orbit(monkeypatch):
    walks = []
    conjugates = Group.conjugates

    def counting(self, hset, cap=None):
        walks.append(len(hset))
        return conjugates(self, hset, cap)

    monkeypatch.setattr(Group, "conjugates", counting)
    g = relabelled(construct("M11"))
    for p in (2, 3):
        assert sylow_subgroup(g, p).order == p_part(g.order(), p)
    assert walks == []


def test_o_2prime_of_a_2_group_is_trivial():
    assert o_pprime(construct("GeneralizedQuaternion(16)"), 2).order == 1


def test_o_2prime_of_s3():
    sub = o_pprime(S(3), 2)
    assert sub.order == 3


def test_o_5prime_of_e25_semidirect_is_trivial():
    g = construct("E25xSL(2,3)")
    assert o_pprime(g, 5).order == 1
    # oracle: largest normal subgroup of order coprime to 5, by full scan
    best = max(
        (n.order for n in normal_subgroups(g) if n.order % 5), default=1
    )
    assert best == 1


@pytest.mark.parametrize(
    "name,p", [("Symmetric(4)", 2), ("Dihedral(15)", 2), ("E8xC7", 7), ("SL2(3)", 3)]
)
def test_o_pprime_properties(name, p):
    g = construct(name)
    sub = o_pprime(g, p)
    assert sub.order % p != 0 or sub.order == 1
    assert is_normal(g, sub)
    if sub.order < g.order():
        q = quotient(g, sub)
        again = o_pprime(q, p)
        assert again.order == 1  # nothing p'-normal left upstairs


@pytest.mark.parametrize("name", ORACLE_GROUPS)
def test_o_pprime_matches_oracle(name):
    g = construct(name)
    for p in prime_factors(g.order()):
        assert set(o_pprime(g, p).elements()) == o_pprime_oracle(g, p)
        assert set(core_p(g, p).elements()) == core_p_oracle(g, p)


def test_shape_cyclic():
    g = construct("Cyclic(8)")
    s = sylow_shape(g.full_subgroup())
    assert (s.tag, s.order) == ("Cyclic", 8)


def test_shape_quaternion():
    g = construct("GeneralizedQuaternion(8)")
    assert sylow_shape(g.full_subgroup()).tag == "QuaternionQ8"


def test_shape_generalized_quaternion():
    g = construct("GeneralizedQuaternion(32)")
    s = sylow_shape(g.full_subgroup())
    assert (s.tag, s.order) == ("GeneralizedQuaternion", 32)


def test_shape_of_psl28_sylow2_is_elementary_abelian():
    g = construct("PSL2(8)")
    s = sylow_shape(sylow_subgroup(g, 2))
    assert (s.tag, s.p, s.rank) == ("ElementaryAbelian", 2, 3)


def test_shape_of_m11_sylow2_is_unnamed():
    g = construct("M11")
    s = sylow_shape(sylow_subgroup(g, 2))
    assert s.tag == "Other"
    assert s.order == 16


def test_shape_rejects_mixed_order():
    g = construct("Cyclic(6)")
    with pytest.raises(ValueError, match="not a p-group"):
        sylow_shape(g.full_subgroup())


def test_quaternion_tags_match_unique_involution_rule():
    g = construct("SL2(7)")
    for cls in p_subgroup_classes(g, 2):
        rep = cls.representative
        shape = sylow_shape(rep)
        quaternionish = shape.tag in ("QuaternionQ8", "GeneralizedQuaternion")
        invs = [i for i in rep.indices if g.order_of_idx(i) == 2]
        expected = len(invs) == 1 and not rep.is_abelian()
        assert quaternionish == expected


def test_fingerprints_equal_on_conjugate_subgroups():
    g = construct("Symmetric(4)")
    for cls in p_subgroup_classes(g, 2):
        rep = cls.representative
        for x in list(g.elements())[:6]:
            conj = g.subgroup([x.inverse() * t * x for t in rep.generators])
            assert conj.fingerprint() == rep.fingerprint()


def test_iso_reflexive():
    g = construct("SL2(3)")
    assert is_isomorphic_small(g, g)


@pytest.mark.parametrize(
    "name",
    [
        "Symmetric(4)",
        "SL2(3)",
        "Q8xC3",
        "Dihedral(8)",
        "GeneralizedQuaternion(16)",
        "Alternating(5)",
        "E8xC7",
        "SL2(5)",
        "E8x(C7xC3)",
        "PSL2(7)",
    ],
)
def test_iso_accepts_a_relabelled_copy(name):
    # the copy lists its elements in another order, so the search must find a
    # nontrivial generator-image map through the homomorphism walk
    g = construct(name)
    pi = list(range(g.degree))
    random.Random(7).shuffle(pi)

    def relabel(perm):
        images = [0] * g.degree
        for i, j in enumerate(perm.images):
            images[pi[i]] = pi[j - 1] + 1
        return Permutation(images)

    copy = Group([relabel(x) for x in g.generators], degree=g.degree)
    assert copy.order() == g.order()
    assert is_isomorphic_small(g, copy)
    assert is_isomorphic_small(copy, g)


def test_iso_rejects_q8_vs_c8():
    assert not is_isomorphic_small(
        construct("GeneralizedQuaternion(8)"), construct("Cyclic(8)")
    )


def test_iso_rejects_d8_vs_q8():
    assert not is_isomorphic_small(
        construct("Dihedral(4)"), construct("GeneralizedQuaternion(8)")
    )


def test_sl23_is_quaternion_semidirect():
    assert is_isomorphic_small(construct("SL2(3)"), construct("Q8xC3"))


def test_e4_c3_is_a4():
    assert is_isomorphic_small(construct("E4xC3"), construct("Alternating(4)"))


def test_iso_detects_non_isomorphic_same_counts():
    # C4 x C4 vs C2 x (C8?): use fingerprint-distinct pair of order 16
    a = direct_product(construct("Cyclic(4)"), construct("Cyclic(4)"))
    b = direct_product(construct("Cyclic(2)"), construct("Cyclic(8)"))
    assert not is_isomorphic_small(a, b)


def test_iso_rejects_a_fingerprint_twin():
    # C4 x| C4 (inversion) and C2 x Q8 agree on order, element orders, Sylow
    # shape, centre and derived orders: only the generator-image walk, which
    # must reject a map that gives one element two images, tells them apart
    c4 = construct("Cyclic(4)")
    a = semidirect_product(c4, construct("Cyclic(4)"), [[c4.generators[0].inverse()]])
    b = direct_product(construct("Cyclic(2)"), construct("GeneralizedQuaternion(8)"))
    assert structural_fingerprint(a) == structural_fingerprint(b)
    assert not is_isomorphic_small(a, b)
    assert not is_isomorphic_small(b, a)
    assert is_isomorphic_small(a, a)


def test_iso_cap_enforced():
    psl27 = construct("PSL2(7)")
    a = Group(psl27.generators, degree=psl27.degree, caps=Caps(iso_cap=100))
    with pytest.raises(CapExceeded, match="isomorphism"):
        is_isomorphic_small(a, a)


def test_iso_search_separates_by_fingerprint_above_the_cap():
    # orders equal, fingerprints differ: no search is needed, so no cap applies
    s5 = construct("Symmetric(5)")
    a = Group(s5.generators, degree=s5.degree, caps=Caps(iso_cap=100))
    assert not is_isomorphic_small(a, construct("SL2(5)"))


def test_supersolvability_calls():
    assert is_supersolvable(S(3))
    assert is_supersolvable(construct("Dihedral(8)"))
    assert is_supersolvable(construct("Cyclic(12)"))
    assert not is_supersolvable(construct("Alternating(4)"))
    assert not is_supersolvable(S(4))
    assert not is_supersolvable(construct("SL2(3)"))


# PSL2(5): in its A4 subgroups a greedy chain of prime-index steps reaches
# the whole subgroup, so only the normality of each step shows that A4 is
# not supersolvable
@pytest.mark.parametrize("name", [*ORACLE_GROUPS, "PSL2(5)"])
def test_nilpotency_and_supersolvability_match_oracles(name):
    g = construct(name)
    for c in all_subgroup_classes(g):
        rep = c.representative
        assert is_nilpotent(g, rep) == is_nilpotent_oracle(rep.elements())
        assert is_supersolvable(g, rep) == is_supersolvable_oracle(rep.elements())


def test_fingerprint_separates_a4_from_d6():
    a4 = construct("Alternating(4)")
    d6 = construct("Dihedral(6)")
    assert structural_fingerprint(a4) != structural_fingerprint(d6)


def test_fingerprint_is_representation_independent():
    q8_native = construct("GeneralizedQuaternion(8)")
    g = construct("SL2(5)")
    q8_inside = Group(sylow_subgroup(g, 2).generators)
    assert structural_fingerprint(q8_native) == structural_fingerprint(q8_inside)
