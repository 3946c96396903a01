import random
import sys
from bisect import bisect_left
from collections import Counter
from itertools import accumulate
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from subconj import (
    CapExceeded,
    Group,
    Permutation,
    are_conjugate,
    center,
    centralizer,
    construct,
    direct_product,
    is_normal,
    normalizer,
    parse_permutation,
    quotient,
    semidirect_product,
    structural_fingerprint,
)
from subconj import groups as groups_module
from subconj import subgroups as subgroups_module
from subconj.caps import Caps
from subconj.fields import is_prime
from subconj.groups import _coset_images
from subconj.harness import CorpusManifest, analyze_group
from subconj.subgroups import all_subgroup_classes
from subconj.zoo import (
    SEMIDIRECT_DATASETS,
    build_semidirect_dataset,
    elementary_abelian,
    generalized_quaternion,
)

from oracles import (
    coset_walk_rational_classes,
    element_walk_closure,
    exhaustive_conjugator,
    min_key_quotient_images,
    naive_closure,
    naive_order,
    relabelled,
)


def P(text, degree):
    return parse_permutation(text, degree)


def S(n):
    return Group([P(f"({','.join(map(str, range(1, n + 1)))})", n), P("(1,2)", n)])


def test_single_transposition_has_order_two():
    assert Group([P("(1,2)", 2)]).order() == 2


def test_s5_order_matches_naive_closure():
    g = S(5)
    assert g.order() == 120
    assert g.order() == len(naive_closure(list(g.generators)))


def test_sl25_order_matches_naive_closure():
    g = construct("SL2(5)")
    assert g.order() == 120
    assert g.order() == len(naive_closure(list(g.generators)))


@pytest.mark.parametrize(
    "name",
    ["Alternating(5)", "SL2(3)", "Dihedral(8)", "PSL2(7)", "Symmetric(6)", "E25xSL(2,3)"],
)
def test_chain_order_equals_closure_order(name):
    g = construct(name)
    assert g.order() <= 5000
    assert g.order() == len(naive_closure(list(g.generators)))


def test_membership():
    g = construct("Alternating(4)")
    assert P("(1,2,3)", 4) in g
    assert P("(1,2)", 4) not in g
    assert P("(1,2)", 5) not in g


def test_generators_pass_membership():
    for name in ["SL2(7)", "M11", "E8x(C7xC3)"]:
        g = construct(name)
        for gen in g.generators:
            assert gen in g


def test_element_order_examples():
    g = S(6)

    def order(perm):
        return g.order_of_idx(g.index_of(perm))

    assert order(Permutation.identity(6)) == 1
    f = P("(1,2,3)(4,5)", 6)
    assert order(f) == 6
    assert order(f) == naive_order(f)
    assert order(P("(1,4)", 6)) == 2


def test_element_order_rejects_non_member():
    g = construct("Alternating(4)")
    with pytest.raises(ValueError, match="not a member"):
        g.index_of(P("(1,2)", 4))


def test_closure_of_nothing_is_trivial():
    g = S(4)
    assert g.subgroup([]).order == 1


def test_closure_example_in_s4():
    g = S(4)
    h = g.subgroup([P("(1,2)", 4), P("(3,4)", 4)])
    assert h.order == 4
    assert h.is_abelian()
    assert not h.is_cyclic()


def test_closure_of_all_generators_is_the_group():
    g = construct("PSL2(7)")
    assert g.subgroup(list(g.generators)).order == g.order()


def test_closure_rejects_foreign_seed():
    g = construct("Alternating(4)")
    with pytest.raises(ValueError, match="not a member"):
        g.subgroup([P("(1,2)", 4)])


def test_centralizer_of_trivial_subgroup():
    g = S(4)
    assert centralizer(g, g.trivial_subgroup()).order == 24


def test_normalizer_in_s3_matches_scan():
    g = S(3)
    h = g.subgroup([P("(1,2)", 3)])
    nz = normalizer(g, h)
    assert nz.order == 2
    # exhaustive oracle
    direct = [
        x
        for x in g.elements()
        if frozenset(x.inverse() * t * x for t in h.elements()) == frozenset(h.elements())
    ]
    assert nz.order == len(direct)


def test_quaternion_centralizes_its_center():
    q8 = construct("GeneralizedQuaternion(8)")
    z = center(q8)
    assert z.order == 2
    assert centralizer(q8, z).order == 8


def test_center_is_normal():
    for name in ["SL2(3)", "GeneralizedQuaternion(16)", "Symmetric(4)"]:
        g = construct(name)
        assert is_normal(g, center(g))


def test_transposition_subgroup_not_normal_in_s3():
    g = S(3)
    assert not is_normal(g, g.subgroup([P("(1,2)", 3)]))


def test_a4_is_normal_in_s4():
    g = S(4)
    a4 = g.subgroup([P("(1,2,3)", 4), P("(2,3,4)", 4)])
    assert a4.order == 12  # index 2
    assert is_normal(g, a4)


def test_quotient_by_trivial_preserves_structure():
    g = construct("SL2(3)")
    q = quotient(g, g.trivial_subgroup())
    assert q.order() == g.order()
    assert (
        q.full_subgroup().element_order_counter()
        == g.full_subgroup().element_order_counter()
    )


def test_quotient_by_trivial_is_the_group():
    g = construct("SL2(3)")
    assert quotient(g, g.trivial_subgroup()) is g


def test_quotient_is_built_once_per_normal_subgroup():
    g = construct("SL2(3)")
    q = quotient(g, center(g))
    assert quotient(g, center(g)) is q
    assert q.order() == 12


def test_quotient_rejects_a_subgroup_of_another_group():
    g, h = construct("SL2(3)"), construct("SL2(3)")
    with pytest.raises(ValueError, match="another group"):
        quotient(g, center(h))
    with pytest.raises(ValueError, match="another group"):
        quotient(g, h.trivial_subgroup())


def test_s4_mod_v4_is_s3_shaped():
    g = S(4)
    v4 = g.subgroup([P("(1,2)(3,4)", 4), P("(1,3)(2,4)", 4)])
    q = quotient(g, v4)
    assert q.order() == 6
    assert structural_fingerprint(q) == structural_fingerprint(S(3))


def test_sl25_mod_center_is_a5_shaped():
    g = construct("SL2(5)")
    q = quotient(g, center(g))
    assert q.order() == 60
    fp = structural_fingerprint(q)
    assert fp == structural_fingerprint(construct("Alternating(5)"))
    assert not fp.solvable


def test_quotient_rejects_non_normal():
    g = S(3)
    with pytest.raises(ValueError, match="not normal"):
        quotient(g, g.subgroup([P("(1,2)", 3)]))


def test_quotient_order_multiplicativity():
    from subconj import normal_subgroups

    for name in ["Symmetric(4)", "SL2(3)", "Dihedral(6)", "E4xC3"]:
        g = construct(name)
        for n in normal_subgroups(g):
            if n.order < g.order():
                assert quotient(g, n).order() * n.order == g.order()


def test_quotient_above_degree_256_builds_its_identity():
    # SL2(9)/Z acts on its 360 cosets, above the degree bound of
    # Permutation.identity: the group's identity, powers and the conjugator
    # of a subgroup with itself are built on the element's own points
    g = construct("SL2(9)")
    q = quotient(g, center(g))
    assert q.degree == 360
    one = q.identity()
    assert one.degree == 360 and one.is_identity() and one in q
    x = q.perm_at(1)
    assert not x.is_identity()
    assert x**2 == x * x
    assert x**0 == one
    t = q.subgroup([x])
    assert are_conjugate(q, t, t) == one


@pytest.mark.parametrize(
    "build",
    [
        lambda: construct("Symmetric(4)"),
        lambda: construct("SL2(3)"),
        lambda: construct("E4xC3"),
        lambda: relabelled(construct("E32x(C31xC5)")),
        lambda: construct("M11"),
    ],
    ids=["Symmetric(4)", "SL2(3)", "E4xC3", "E32x(C31xC5)-relabelled", "M11"],
)
def test_quotient_labels_match_the_min_key_walk(build):
    # one coset label per element against a min over each coset: the same
    # cosets in the same order, so the same generator images, for every
    # proper normal subgroup (M11 is simple: only the trivial one)
    from subconj import normal_subgroups

    g = build()
    proper = [n for n in normal_subgroups(g) if n.order < g.order()]
    assert proper
    for n in proper:
        assert _coset_images(g, n) == min_key_quotient_images(g, n)


def test_direct_product_with_trivial():
    a = construct("Alternating(4)")
    t = Group((), degree=1)
    assert direct_product(a, t).order() == 12


def test_c2_times_c3_is_cyclic():
    p = direct_product(construct("Cyclic(2)"), construct("Cyclic(3)"))
    assert p.order() == 6
    assert max(x.order() for x in p.elements()) == 6


def test_q8_times_c7_order():
    p = direct_product(construct("GeneralizedQuaternion(8)"), construct("Cyclic(7)"))
    assert p.order() == 56
    assert p.degree == 8 + 7


def test_embedded_factors_commute():
    a, b = construct("Symmetric(3)"), construct("Cyclic(4)")
    p = direct_product(a, b)
    na, nb = a.degree, b.degree
    lift_a = [g.images + tuple(range(na + 1, na + nb + 1)) for g in a.generators]
    lift_b = [tuple(range(1, na + 1)) + tuple(x + na for x in g.images) for g in b.generators]
    for ga in lift_a:
        for gb in lift_b:
            x, y = Permutation(list(ga)), Permutation(list(gb))
            assert x * y == y * x


def test_semidirect_with_trivial_action_is_direct():
    c5 = construct("Cyclic(5)")
    c4 = construct("Cyclic(4)")
    g = semidirect_product(c5, c4, [[c5.generators[0]]])
    assert g.order() == 20
    assert max(x.order() for x in g.elements()) == 20  # cyclic: really C5 x C4


def test_semidirect_inversion_action():
    e9 = direct_product(construct("Cyclic(3)"), construct("Cyclic(3)"))
    c2 = construct("Cyclic(2)")
    g = semidirect_product(e9, c2, [[x.inverse() for x in e9.generators]])
    assert g.order() == 18
    assert not g.full_subgroup().is_abelian()


def _translations(g, n_size):
    """The generators of a semidirect product that fix its acting block."""
    block = range(n_size + 1, g.degree + 1)
    return [p for p in g.generators if all(p.apply(i) == i for i in block)]


def test_semidirect_embeds_normal_factor():
    e9 = direct_product(construct("Cyclic(3)"), construct("Cyclic(3)"))
    c2 = construct("Cyclic(2)")
    g = semidirect_product(e9, c2, [[x.inverse() for x in e9.generators]])
    # the normal closure of the translation generators is the copy of E9;
    # inversion leaves every subgroup invariant, so both generators are kept
    translations = _translations(g, 9)
    assert len(translations) == 2
    embedded = g.subgroup_from_indices(
        g.normal_closure_idx([g.index_of(p) for p in translations])
    )
    assert embedded.order == 9
    assert is_normal(g, embedded)


# the normal factor of each dataset, and the generator count of the product
SEMIDIRECT_NORMALS = {
    "E25xSL(2,3)": (lambda: elementary_abelian(5, 2), 4),
    "E4xC3": (lambda: elementary_abelian(2, 2), 2),
    "E8xC7": (lambda: elementary_abelian(2, 3), 2),
    "E8x(C7xC3)": (lambda: elementary_abelian(2, 3), 3),
    "E32x(C31xC5)": (lambda: elementary_abelian(2, 5), 3),
    "Q8xC3": (lambda: generalized_quaternion(8), 2),
}


@pytest.mark.parametrize("name", sorted(SEMIDIRECT_DATASETS))
def test_semidirect_products_keep_the_translations_they_need(name):
    # a translation inside the invariant span of those kept is left out; the
    # group built with every translation generator has the same elements
    build_normal, count = SEMIDIRECT_NORMALS[name]
    normal = build_normal()
    n_size = normal.order()
    g = build_semidirect_dataset(name)
    assert len(g.generators) == count
    assert 1 <= len(_translations(g, n_size)) < len(normal.generators)
    rest = tuple(range(n_size, g.degree))
    every = [
        Permutation._from0(
            tuple(normal.mul_idx(x, normal.index_of(t)) for x in range(n_size)) + rest
        )
        for t in normal.generators
    ]
    full = Group([*every, *g.generators], degree=g.degree)
    assert full.order() == g.order() == SEMIDIRECT_DATASETS[name][1]
    assert full.elements() == g.elements()


def test_semidirect_rejects_non_automorphism():
    c4 = construct("Cyclic(4)")
    c2 = construct("Cyclic(2)")
    square = c4.generators[0] ** 2  # not bijective as a generator image
    with pytest.raises(ValueError, match="automorphism"):
        semidirect_product(c4, c2, [[square]])


def test_semidirect_rejects_inconsistent_relations():
    c5 = construct("Cyclic(5)")
    c2 = construct("Cyclic(2)")
    # a -> a^2 has order 4, not 2: relations of C2 are violated
    with pytest.raises(ValueError, match="relations"):
        semidirect_product(c5, c2, [[c5.generators[0] ** 2]])


def test_lagrange_on_enumerated_subgroups():
    from subconj import all_subgroup_classes

    for name in ["Symmetric(4)", "SL2(3)", "Dihedral(8)"]:
        g = construct(name)
        for cls in all_subgroup_classes(g):
            assert g.order() % cls.order == 0


def test_element_cap_is_enforced():
    small = Caps(element_cap=10)
    g = Group([P("(1,2,3,4,5)", 5), P("(1,2)", 5)], caps=small)
    assert g.order() == 120  # the chain itself is fine
    with pytest.raises(CapExceeded, match="element enumeration"):
        g.elements()


def test_conjugator_oracle_agreement():
    g = S(4)
    h = g.subgroup([P("(1,2)", 4)])
    k = g.subgroup([P("(3,4)", 4)])
    found = exhaustive_conjugator(g, frozenset(h.elements()), frozenset(k.elements()))
    assert found is not None


@settings(max_examples=25)
@given(st.lists(st.permutations(list(range(1, 6))), min_size=1, max_size=3))
def test_random_generators_build_consistent_groups(images):
    gens = [Permutation(list(im)) for im in images]
    g = Group(gens, degree=5)
    assert g.order() == len(naive_closure(gens, degree=5))
    for gen in gens:
        assert gen in g


# ----------------------------------------------------------------------
# base-image key products against permutation products

KEY_GROUPS = ("Symmetric(4)", "SL2(3)", "Q8xC3", "Dihedral(6)", "E25xSL(2,3)")


def _build(name, reverse=False, relabel=False):
    """construct(name), materialised.  ``reverse`` rebuilds it from its
    generators in reverse order, which reorders the base of SL2(3), Q8xC3,
    Dihedral(6), E25xSL(2,3) and SL2(13) and keeps the sorted element list;
    ``relabel`` moves it to points where the base is not 0..k-1."""
    g = construct(name)
    if reverse:
        g = Group(g.generators[::-1], degree=g.degree)
    if relabel:
        g = relabelled(g)
    g._materialize()
    return g


@pytest.fixture(scope="module")
def key_groups():
    return {name: construct(name) for name in KEY_GROUPS}


@settings(max_examples=60)
@given(st.sampled_from(KEY_GROUPS), st.integers(0, 10**6), st.integers(0, 10**6))
def test_products_match_permutation_products(key_groups, name, a, b):
    g = key_groups[name]
    i, j = a % g.order(), b % g.order()
    product = g.index_of(g.perm_at(i) * g.perm_at(j))
    assert g.mul_idx(i, j) == g.left_coset(i, [j])[0] == product


@pytest.mark.parametrize("name", KEY_GROUPS)
def test_pow_idx_matches_permutation_power(name):
    g = construct(name)
    for i in range(0, g.order(), 7):
        for k in (0, 1, 2, 3, 5, 12):
            assert g.pow_idx(i, k) == g.index_of(g.perm_at(i) ** k)


@pytest.mark.parametrize("name", ["Symmetric(4)", "SL2(3)"])
def test_analysis_with_orbit_walk_matches_scan(monkeypatch, name):
    from subconj import predicates
    from subconj.harness import analyze_group

    scanned = analyze_group(construct(name), name)
    monkeypatch.setattr(predicates, "_SCAN_ORDER", 0)
    walked = analyze_group(construct(name), name)
    # witnesses of groups up to _SCAN_ORDER are re-verified by a scan over
    # every element, larger ones by an orbit walk; everything else is equal
    methods = [w.pop("verified") for w in scanned.witnesses]
    assert methods == ["exhaustive-scan"] * len(scanned.witnesses)
    methods = [w.pop("verified") for w in walked.witnesses]
    assert methods == ["orbit-walk"] * len(walked.witnesses)
    assert walked == scanned


# ----------------------------------------------------------------------
# Lagrange exits (closure past n/2), the orbit-stabiliser normaliser and the
# center from the conjugacy classes, against naive scans, as built and on
# relabelled points

LAGRANGE_CASES = [(name, relabel) for name in KEY_GROUPS for relabel in (False, True)]


@pytest.fixture(scope="module")
def subgroup_reps():
    # a rebuild indexes the same sorted element list, so the index sets of
    # these representatives carry over to every _build of the same case
    return {
        (name, relabel): [
            c.representative
            for c in all_subgroup_classes(_build(name, relabel=relabel))
        ]
        for name, relabel in LAGRANGE_CASES
    }


@pytest.mark.parametrize("name,relabel", LAGRANGE_CASES)
def test_closure_idx_matches_naive_closure(subgroup_reps, name, relabel):
    g = _build(name, relabel=relabel)
    n = g.order()

    def naive(seed):
        perms = [g.perm_at(i) for i in seed]
        return frozenset(map(g.index_of, naive_closure(perms, g.degree)))

    gens = g.gen_indices()
    assert g.closure_idx(gens) == naive(gens) == frozenset(range(n))
    # every subgroup class, index-2 ones included, and each grown through
    # base= one generator at a time
    for rep in subgroup_reps[name, relabel]:
        rgens = list(rep.gens_idx())
        assert g.closure_idx(rgens) == naive(rgens) == rep.indices
        for k in range(1, len(rgens)):
            base = g.subgroup_from_indices(g.closure_idx(rgens[:k]), rgens[:k])
            grown = g.closure_idx(rgens[k : k + 1], base=base)
            assert grown == naive(rgens[: k + 1])
        # grown by each element outside it (a sample for the order-600 group):
        # the walk never pushes the members of base itself
        outside = [x for x in range(n) if x not in rep.indices]
        for x in outside[:: max(1, len(outside) // 8) if n > 100 else 1]:
            grown = g.closure_idx([x], base=rep)
            assert grown == naive([*rgens, x])
    for i in range(0, n, max(1, n // 12)):
        seed = [i, (5 * i + 3) % n]
        assert g.closure_idx(seed) == naive(seed)
        base = g.subgroup_from_indices(g.closure_idx(seed[:1]), seed[:1])
        assert g.closure_idx(seed[1:], base=base) == naive(seed)


@pytest.mark.parametrize("relabel", (True, False))
def test_closure_idx_closes_an_index_two_subgroup(relabel):
    # |A4| = 12 = |S4| / 2 exactly: the exit past n/2 must not fire; the
    # relabelled copy is S4 again, on another base
    g = _build("Symmetric(4)", relabel=relabel)
    a, b = g.index_of(P("(1,2,3)", 4)), g.index_of(P("(2,3,4)", 4))
    a4 = g.closure_idx([a, b])
    assert len(a4) == 12
    base = g.subgroup_from_indices(g.closure_idx([a]), [a])
    assert g.closure_idx([b], base=base) == a4
    t = g.index_of(P("(1,2)", 4))
    base = g.subgroup_from_indices(a4, [a, b])
    assert g.closure_idx([t], base=base) == frozenset(range(24))


@pytest.mark.parametrize("name", KEY_GROUPS)
def test_coset_walk_matches_the_element_walk(subgroup_reps, name):
    # the coset walk of closure_idx against the element walk it replaced and
    # the naive closure of the base's generators and the seed, on relabelled
    # points
    g = _build(name, relabel=True)
    n, one = g.order(), g.identity_idx
    rng = random.Random(name)

    def naive(gens):
        perms = [g.perm_at(i) for i in gens]
        return frozenset(map(g.index_of, naive_closure(perms, g.degree)))

    def check(seed, base=(), base_gens=()):
        sub = g.subgroup_from_indices(base, base_gens) if base else None
        got = g.closure_idx(seed, base=sub)
        assert got == element_walk_closure(g, seed, base, base_gens)
        assert got == naive([*base_gens, *seed])
        return got

    # a trivial base with one to three seeds, repeats and the identity
    for _ in range(8):
        x, y, z = rng.sample(range(n), 3)
        for seed in ([x], [x, x], [one], [x, one], [y, x, y], [x, y, z]):
            check(seed)
    # bases of order 2 to 4, where every coset is tiny: <x> for x of order
    # 2, 3 or 4, and a Klein four-group where there is one
    bases = [[x] for x in range(n) if g.order_of_idx(x) in (2, 3, 4)]
    involutions = [x for x in range(n) if g.order_of_idx(x) == 2]
    bases += [
        [a, b]
        for a in involutions[:6]
        for b in involutions
        if a < b and g.mul_idx(a, b) == g.mul_idx(b, a)
    ][:3]
    for base_gens in rng.sample(bases, min(8, len(bases))):
        base = check(base_gens)
        assert 2 <= len(base) <= 4
        for x in rng.sample(range(n), 3):
            check([x], base, base_gens)
        check([*base][:2], base, base_gens)  # seeds already in the base
    # every subgroup class as the base: seeds inside it give it back, seeds
    # outside grow it, and an index-2 base (A4 in S4, exactly n/2) closes to
    # the whole group
    for rep in subgroup_reps[name, True]:
        base, base_gens = rep.indices, rep.gens_idx()
        assert check([min(base), max(base)], base, base_gens) == base
        outside = [x for x in range(n) if x not in base]
        for x in rng.sample(outside, min(3, len(outside))):
            grown = check([x], base, base_gens)
            if 2 * len(base) == n:
                assert grown == frozenset(range(n))
    if name == "Symmetric(4)":
        assert any(2 * rep.order == n for rep in subgroup_reps[name, True])
    # closures that end at the whole group, from scratch and from a base
    gens = g.gen_indices()
    assert check(gens) == frozenset(range(n))
    base = check(gens[:-1])
    assert check(gens[-1:], base, gens[:-1]) == frozenset(range(n))


class _CountingDict(dict):
    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return dict.__getitem__(self, key)


def test_closure_idx_stops_once_past_half_the_group(monkeypatch):
    # every product is one read of the key dict: one per coset representative
    # and generator, and one per element of each new coset; closing the whole
    # group stops once the members pass n/2
    g = _build("E25xSL(2,3)")
    gens = g.gen_indices()
    counted = _CountingDict(g._by_bimg)
    monkeypatch.setattr(g, "_by_bimg", counted)
    assert g.closure_idx(gens) == frozenset(range(g.order()))
    assert 0 < counted.reads <= (g.order() // 2) * len(gens)


def test_closure_idx_stops_past_the_largest_proper_subgroup_order():
    # PSL2(11) has no proper subgroup above order 60 (n/2 = 330): a closure
    # reads n/2 and builds no classes; building them computes no bound, and
    # the next closure computes it and stops the whole group just past 60
    # members, one read per product as above
    g = _build("PSL2(11)")
    gens = g.gen_indices()
    whole = g.closure_idx(gens)
    assert whole == frozenset(range(g.order()))
    assert g._classes is None and g._proper_max is None
    g.conjugacy_classes_idx()
    assert g._proper_max is None
    counted = _CountingDict(g._by_bimg)
    g._by_bimg = counted
    assert g.closure_idx(gens) is whole
    assert g._proper_max == 60
    # 11 reads close <x> of order 11, and each new coset of it costs 11 more
    # plus one per generator: 6 cosets pass 60, where n/2 takes 31 (382 reads)
    assert 60 < counted.reads < 2 * 60
    # every closure that reaches the group returns the one kept set
    assert g.closure_idx(gens[::-1]) is whole is g.full_subgroup().indices


@pytest.mark.parametrize("name", ["PSL2(11)", "SL2(7)"])
def test_closure_idx_under_the_class_bound_matches_naive_closure(
    monkeypatch, name
):
    # relabelled, every subgroup class grown by sampled outside elements:
    # the same sets as the naive closure and as the walk that stops at n/2
    g = relabelled(construct(name))
    reps = [c.representative for c in all_subgroup_classes(g)]
    n, bound = g.order(), g._closure_bound()
    assert bound == {"PSL2(11)": 60, "SL2(7)": 48}[name] < n // 2
    rng = random.Random(name)

    def naive(seed):
        perms = [g.perm_at(i) for i in seed]
        return frozenset(map(g.index_of, naive_closure(perms, g.degree)))

    grown = []
    for rep in reps:
        outside = [x for x in range(n) if x not in rep.indices]
        for x in rng.sample(outside, min(4, len(outside))):
            got = g.closure_idx([x], base=rep)
            assert got == naive([*rep.gens_idx(), x])
            grown.append((rep, x, got))
    assert sum(len(got) == n for _, _, got in grown) > len(grown) // 2
    monkeypatch.setattr(g, "_proper_max", n // 2)
    for rep, x, got in grown:
        assert g.closure_idx([x], base=rep) == got


def _largest_proper_order(g):
    return max(c.order for c in all_subgroup_classes(g) if c.order < g.order())


def test_proper_subgroup_bound_is_sound_on_the_corpus():
    # a divisor of n, at most n/2 and never below a proper subgroup order;
    # 0 for the trivial group, which has no proper subgroup
    for entry in CorpusManifest.default().entries:
        g = construct(entry.name)
        n = g.order()
        if n > 2000:
            continue
        g.conjugacy_classes_idx()
        bound = g._closure_bound()
        if n == 1:
            assert bound == 0
            continue
        assert n % bound == 0 and 2 * bound <= n, entry.name
        assert bound >= _largest_proper_order(g), entry.name


@pytest.mark.parametrize(
    "name,bound",
    # M10 is the largest proper subgroup of M11; M11 is above the full
    # subgroup cap, so only the bound is checked there
    [("PSL2(11)", 60), ("SL2(7)", 48), ("Alternating(6)", 60), ("M11", 720)],
)
def test_proper_subgroup_bound_examples(name, bound):
    g = construct(name)
    assert g._closure_bound() == g.order() // 2
    g.conjugacy_classes_idx()
    assert g._closure_bound() == bound
    if g.order() <= 2000:
        assert _largest_proper_order(g) == bound


def test_least_factorial_multiple_matches_the_definition():
    # mu(k), the least m >= 1 with k | m!, against the factorials themselves;
    # k | m! holds for every m from mu(k) on, so a bisection finds it
    factorials = list(accumulate(range(1, 2001), mul, initial=1))
    for k in range(1, 2001):
        at = bisect_left(range(1, k + 1), True, key=lambda m: factorials[m] % k == 0)
        assert groups_module._least_factorial_multiple(k) == at + 1, k


def test_proper_subgroup_bound_of_a_prime_order_near_the_element_cap():
    # a cyclic group of prime order p has p - 1 classes of size 1 and no
    # proper subgroup but the trivial one; the bound takes a few hundred
    # trial divisions and one chunk per bit of p, not a loop over p or p!
    p = next(q for q in range(Caps().element_cap, 1, -1) if is_prime(q))
    lines = Counter()

    def trace(frame, event, arg):
        if frame.f_globals["__name__"].startswith("subconj."):
            lines[frame.f_code.co_name] += event == "line"
            return trace
        return None

    sizes = [1] * (p - 1)
    old = sys.gettrace()
    sys.settrace(trace)
    try:
        bound = groups_module._proper_subgroup_bound(p, sizes)
    finally:
        sys.settrace(old)
    assert bound == 1
    assert lines["prime_powers"] > 0 and sum(lines.values()) < 5000, lines


@pytest.mark.parametrize("name,relabel", LAGRANGE_CASES)
def test_normalizer_matches_brute_force(monkeypatch, subgroup_reps, name, relabel):
    # normalizer on a fresh walk, and the normaliser the full subgroup walk
    # builds from the walk its registry kept for each class it extends (all
    # but the trivial class and G), against a scan of the elements
    g = _build(name, relabel=relabel)
    built = {}
    walk_normalizer = subgroups_module._walk_normalizer

    def recording(group, sub, *walk):
        nz = walk_normalizer(group, sub, *walk)
        built[sub.indices] = nz.indices
        return nz

    monkeypatch.setattr(subgroups_module, "_walk_normalizer", recording)
    all_subgroup_classes(g)
    elements = g.elements()
    reps = subgroup_reps[name, relabel]
    assert set(built) == {rep.indices for rep in reps[1:-1]}
    for rep in reps:
        sub = g.subgroup_from_indices(rep.indices)
        hset = frozenset(sub.elements())
        hgens = rep.generators
        scan = frozenset(
            i
            for i, x in enumerate(elements)
            if all(x.inverse() * h * x in hset for h in hgens)
        )
        assert normalizer(g, sub).indices == scan
        assert built.get(rep.indices, scan) == scan


@pytest.mark.parametrize("relabel", (True, False))
def test_normalizer_is_the_stabiliser_of_the_conjugates(monkeypatch, relabel):
    # |N_G(H)| times the number of conjugates of H (counted by the subgroup
    # registry) is |G|, and each closure adjoins a Schreier generator that at
    # least doubles the subgroup: at most log2 |N_G(H) : H| closures
    g = _build("E25xSL(2,3)", relabel=relabel)
    classes = all_subgroup_classes(g)
    closure = g.closure_idx
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return closure(*args, **kwargs)

    monkeypatch.setattr(g, "closure_idx", counted)
    for c in classes:
        sub = g.subgroup_from_indices(c.representative.indices)
        sub.gens_idx()
        calls.clear()
        nz = normalizer(g, sub)
        assert nz.order * c.orbit_size == g.order()
        assert 2 ** len(calls) <= nz.order // sub.order
        assert closure(nz.gens_idx()) == nz.indices


@pytest.mark.parametrize(
    "name,relabel",
    [(n, relabel) for n in ("Symmetric(4)", "SL2(3)") for relabel in (False, True)],
)
def test_conjugates_walk_matches_brute_force(subgroup_reps, name, relabel):
    # every conjugate g^-1 H g is listed once, each edge K_i -> K_i^g_j lands
    # on the conjugate it names, and the carrier built along the first edge
    # into each conjugate conjugates H onto it
    g = _build(name, relabel=relabel)
    elements = g.elements()
    gens = g.generators
    for rep in subgroup_reps[name, relabel]:
        hset = rep.indices
        h = [g.perm_at(i) for i in hset]
        brute = {
            frozenset(g.index_of(x.inverse() * y * x) for y in h) for x in elements
        }
        orbit, edges = g.conjugates(hset)
        assert orbit[0] == hset and len(edges) == len(orbit) * len(gens)
        carriers = [g.identity()]
        for e, m in enumerate(edges):
            i, j = divmod(e, len(gens))
            x = gens[j]
            stepped = {g.index_of(x.inverse() * g.perm_at(y) * x) for y in orbit[i]}
            assert stepped == orbit[m]
            if m == len(carriers):
                carriers.append(carriers[i] * x)
        assert len(set(orbit)) == len(orbit)
        assert set(orbit) == brute
        assert groups_module._carriers(g, edges) == list(map(g.index_of, carriers))
        for k, c in zip(orbit, carriers, strict=True):
            assert frozenset(g.index_of(c.inverse() * y * c) for y in h) == k


def test_normalizer_ignores_the_orbit_key_cap():
    s4 = construct("Symmetric(4)")
    g = Group(s4.generators, degree=s4.degree, caps=Caps(orbit_key_cap=1))
    h = g.subgroup([P("(1,2)", 4)])  # six conjugates
    nz = normalizer(g, h)
    assert nz.indices == normalizer(s4, s4.subgroup([P("(1,2)", 4)])).indices
    assert nz.indices == g.subgroup([P("(1,2)", 4), P("(3,4)", 4)]).indices


@pytest.mark.parametrize("name,relabel", LAGRANGE_CASES)
def test_center_matches_centralizer(name, relabel):
    g = _build(name, relabel=relabel)
    assert center(g).indices == centralizer(g, g.full_subgroup()).indices


# ----------------------------------------------------------------------
# base-image keys: every element is indexed by its images of the base points,
# checked against full image tuples, on rebuilds with the base reordered and
# on copies whose points are relabelled so that the base is not 0..k-1

KEY_CASES = [
    (name, reverse, relabel)
    for name in KEY_GROUPS
    for reverse in (True, False)
    for relabel in (False, True)
]
# a one-point base, where a key is a bare point; the trivial group's empty
# base, where the one key is (); and SL2(13), order 2184, with a 2-point base
KEY_CASES += [
    ("Cyclic(7)", True, False),
    ("Cyclic(7)", False, False),
    ("Cyclic(1)", True, False),
    ("Cyclic(1)", False, False),
    ("SL2(13)", False, False),
]


@pytest.mark.parametrize("name,reverse,relabel", KEY_CASES)
def test_base_image_keys_match_full_image_tuples(name, reverse, relabel):
    g = _build(name, reverse, relabel)
    n = g.order()
    elts = g.elements()
    full = {x: i for i, x in enumerate(elts)}
    if n <= 100:
        pairs = [(i, j) for i in range(n) for j in range(n)]
    else:
        rng = random.Random(5)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(3000)]
    assert g.index_of(g.identity()) == g.identity_idx
    for i, j in pairs:
        product = elts[i] * elts[j]
        assert g.mul_idx(i, j) == full[product]
        assert g.index_of(product) == full[product]
    for j in sorted({j for _, j in pairs[:: max(1, len(pairs) // 8)]}):
        coset = [full[elts[j] * x] for x in elts]
        assert g.left_coset(j, range(n)) == coset
        conj = g.conjugator(j)
        ji = elts[j].inverse()
        assert [conj(y) for y in range(n)] == [full[ji * y * elts[j]] for y in elts]
    maps = g.conj_maps()
    for k, x in enumerate(g.generators):
        xi = x.inverse()
        assert maps[k] == [full[xi * y * x] for y in elts]
    assert [g.inv_idx(i) for i in range(n)] == [full[y.inverse()] for y in elts]


@pytest.mark.parametrize("name", [n for n in KEY_GROUPS if n != "Symmetric(4)"])
@pytest.mark.parametrize("relabel", (False, True))
def test_index_of_rejects_a_non_member_with_a_member_base_image(name, relabel):
    _assert_rejects_base_twins(_build(name, relabel=relabel))


def test_tuple_form_rejects_a_non_member_with_a_member_base_image(monkeypatch):
    _assert_rejects_base_twins(_in_tuples(monkeypatch, _build("SL2(3)", relabel=True)))


def _assert_rejects_base_twins(g):
    # t swaps two points off the base (S4 has only one), so t * x agrees with
    # x on every base point, and it is no member: t fixes the base, t != 1
    a, b = [p for p in range(1, g.degree + 1) if p - 1 not in g._base][:2]
    t = P(f"({a},{b})", g.degree)
    for x in g.elements()[:: max(1, g.order() // 50)]:
        y = t * x
        assert all(y.images[p] == x.images[p] for p in g._base)
        assert y not in g
        with pytest.raises(ValueError):
            g.index_of(y)


def _cycle(n):
    return Group([Permutation._from0((*range(1, n), 0))], degree=n)


_ORDER_BUILDS = {
    "E32x(C31xC5)-relabelled": lambda: relabelled(construct("E32x(C31xC5)")),
    "SL2(3)-redundant": lambda: _redundant("SL2(3)"),
    "Cyclic(1)": lambda: construct("Cyclic(1)"),
    "cycle-256": lambda: _cycle(256),
    "cycle-257": lambda: _cycle(257),
}


@pytest.mark.parametrize("name", (*KEY_GROUPS, "M11", "SL2(13)", *_ORDER_BUILDS))
def test_order_of_idx_matches_permutation_order(name):
    # the orders and inverses the class walk carries, asked for first,
    # against Permutation.order and Permutation.inverse
    _assert_orders_and_inverses(_ORDER_BUILDS.get(name, lambda: construct(name))())


@pytest.mark.parametrize("name", ["SL2(3)-redundant", "E32x(C31xC5)-relabelled"])
def test_tuple_form_orders_and_inverses(monkeypatch, name):
    _assert_orders_and_inverses(_in_tuples(monkeypatch, _ORDER_BUILDS[name]()))


def _assert_orders_and_inverses(g):
    assert g._classes is None
    orders = [g.order_of_idx(i) for i in range(g.order())]
    elts = g.elements()
    assert orders == [x.order() for x in elts]
    index = {x: i for i, x in enumerate(elts)}
    assert [g.inv_idx(i) for i in range(g.order())] == [index[x.inverse()] for x in elts]


@pytest.mark.parametrize("name", ["Cyclic(1)", "Symmetric(4)", "M11", "E32x(C31xC5)"])
def test_listed_elements_take_degree_bytes(name):
    # only generators, the chain and coset representatives are 256-byte tables
    g = construct(name)
    assert g.degree < 256
    g._materialize()
    assert all(type(x) is bytes and len(x) == g.degree for x in g._elts0)
    assert all(len(t) == 256 for t in g._gens)


@pytest.mark.parametrize("name", ["Symmetric(4)", "SL2(3)", "Q8xC3"])
def test_is_cyclic_matches_brute_force(name):
    g = construct(name)
    for cls in all_subgroup_classes(g):
        sub = cls.representative
        brute = any(x.order() == sub.order for x in sub.elements())
        assert sub.is_cyclic() == brute
        sub.is_abelian()  # known from here on
        assert sub.is_cyclic() == brute


def _redundant(name):
    # the product of the first two generators, given as a third one
    a, b = construct(name).generators[:2]
    return Group([a, b, a * b])


@pytest.mark.parametrize(
    "build",
    [
        lambda: relabelled(construct("E32x(C31xC5)")),
        lambda: _redundant("SL2(3)"),
        lambda: _redundant("Symmetric(5)"),
        lambda: construct("Cyclic(1)"),
    ],
    ids=["E32x(C31xC5)-relabelled", "SL2(3)-redundant", "Symmetric(5)-redundant", "Cyclic(1)"],
)
def test_materialize_lists_the_naive_closure(build):
    # the coset-by-coset listing against a breadth-first search over products
    g = build()
    naive = naive_closure(list(g.generators), g.degree)
    assert g.elements() == tuple(sorted(naive))


def _in_tuples(monkeypatch, g):
    # g's generators in the image-tuple form of degrees above 256; every group
    # built later in the test, quotients included, takes that form too
    monkeypatch.setattr(groups_module, "_TABLE_DEGREE", 0)
    copy = Group(g.generators, degree=g.degree)
    assert isinstance(copy._form.identity, tuple)
    return copy


@pytest.mark.parametrize("name", ["SL2(13)", "E32x(C31xC5)", "Symmetric(4)", "SL2(3)"])
def test_byte_tables_and_tuples_list_the_same_group(monkeypatch, name):
    tables = relabelled(construct(name))
    assert isinstance(tables._form.identity, bytes)
    tuples = _in_tuples(monkeypatch, tables)
    assert tuples._base == tables._base
    assert tuples.elements() == tables.elements()
    assert tuples.conj_maps() == tables.conj_maps()
    for j in (1, tables.order() // 2):
        assert list(map(tuples.conjugator(j), range(tables.order()))) == list(
            map(tables.conjugator(j), range(tables.order()))
        )
    assert tuples.conjugacy_classes_idx() == tables.conjugacy_classes_idx()
    assert tuples.rational_classes() == tables.rational_classes()


@pytest.mark.parametrize("name", ["Symmetric(4)", "SL2(3)"])
def test_byte_tables_and_tuples_analyse_alike(monkeypatch, name):
    tables = construct(name)
    expected = analyze_group(tables, name)
    assert analyze_group(_in_tuples(monkeypatch, tables), name) == expected


@pytest.mark.parametrize("n,form", [(256, bytes), (257, tuple)])
def test_the_element_form_changes_above_degree_256(n, form):
    c = Permutation._from0((*range(1, n), 0))
    g = Group([c], degree=n)
    assert isinstance(g._form.identity, form)
    assert g.order() == n
    for i in (0, 1, n // 2, n - 1):
        assert g.index_of(g.perm_at(i)) == i
    assert g.perm_at(g.index_of(c)) == c
    assert c in g and c * c in g
    swap = Permutation._from0((1, 0, *range(2, n)))
    assert swap not in g
    with pytest.raises(ValueError, match="not a member"):
        g.index_of(swap)


def _handed_out(g):
    sub = g.subgroup(g.generators[:1])
    q = quotient(g, center(g)) if center(g).order > 1 else g
    yield from (g.perm_at(0), g.perm_at(g.order() - 1), g.identity())
    yield from g.elements()
    yield from sub.generators
    yield from sub.elements()
    yield from q.elements()
    yield q.identity()


@pytest.mark.parametrize("name", ["SL2(3)", "SL2(13)", "Dihedral(8)"])
def test_handed_out_permutations_are_plain_tuples(name):
    # no packed table leaks: each permutation equals and hashes as one built
    # from its 1-based images (SL2(13)'s G/Z(G) has degree 1092)
    g = construct(name)
    for x in _handed_out(g):
        assert type(x._t) is tuple and len(x._t) == x.degree
        twin = Permutation._from0(tuple(j - 1 for j in x.images))
        assert x == twin and hash(x) == hash(twin)
    assert g.identity() == Permutation.identity(g.degree)


@pytest.mark.parametrize("delta", (-1, 1))
def test_materialize_checks_the_closure_against_the_chain_order(delta):
    # the element walk must still close the group and compare sizes
    built = construct("SL2(3)")
    g = Group(built.generators, degree=built.degree)
    g._order += delta
    with pytest.raises(RuntimeError, match="closure size 24"):
        g._materialize()


def _corpus_groups(top):
    """Every default-corpus group of order at most ``top``, with its
    relabelled copy where a relabelling moves the base."""
    for entry in CorpusManifest.default().entries:
        g = construct(entry.name)
        if g.order() > top:
            continue
        yield entry.name, g
        try:
            yield entry.name, relabelled(g)
        except AssertionError:
            pass


def test_rational_classes_match_the_coset_sweep():
    # merged conjugacy classes against the coset walk over every element
    for name, g in _corpus_groups(2000):
        got = g.rational_classes()
        assert list(got.items()) == list(coset_walk_rational_classes(g).items()), name


@pytest.mark.parametrize("name", ["M11", "SL2(13)", "E32x(C31xC5)"])
def test_rational_classes_of_the_large_groups(name):
    g = construct(name)
    got = g.rational_classes()
    assert list(got.items()) == list(coset_walk_rational_classes(g).items())
    assert g.rational_classes() is got
