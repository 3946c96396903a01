import pytest

from subconj import (
    CapExceeded,
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
    parse_permutation,
    p_subgroup_classes,
    quotient,
    structural_fingerprint,
    sylow_shape,
    sylow_subgroup,
)
from subconj.structure import p_part, prime_factors

from oracles import (
    commutator_subgroup_oracle,
    is_nilpotent_oracle,
    is_supersolvable_oracle,
    normal_subgroups_oracle,
    o_pprime_oracle,
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


def test_sylows_from_different_seeds_are_conjugate():
    for name in ["Symmetric(4)", "SL2(3)", "PSL2(7)"]:
        g = construct(name)
        p = 2
        seeds = [
            g.perm_at(i)
            for i in range(g.order())
            if g.order_of_idx(i) == 2
        ][:5]
        reference = sylow_subgroup(g, p)
        for seed in seeds:
            other = sylow_subgroup(g, p, containing=seed)
            assert seed in other
            assert are_conjugate(g, other, reference) is not None


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


def test_iso_cap_enforced():
    a = construct("PSL2(7)")
    with pytest.raises(CapExceeded, match="isomorphism"):
        is_isomorphic_small(a, a, cap=100)


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
