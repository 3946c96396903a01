import random

import pytest
from hypothesis import given, settings, strategies as st

from subconj import (
    CapExceeded,
    Group,
    Permutation,
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
from subconj import groups
from subconj.caps import Caps
from subconj.subgroups import all_subgroup_classes

from oracles import exhaustive_conjugator, naive_closure, naive_order


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


def test_semidirect_embeds_normal_factor():
    e9 = direct_product(construct("Cyclic(3)"), construct("Cyclic(3)"))
    c2 = construct("Cyclic(2)")
    g = semidirect_product(e9, c2, [[x.inverse() for x in e9.generators]])
    # the translation generators fix the acting block and span the copy of E9
    embedded = g.subgroup(
        [p for p in g.generators if all(p.apply(i) == i for i in range(10, g.degree + 1))]
    )
    assert embedded.order == 9
    assert is_normal(g, embedded)


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
# multiplication table against the image-tuple products it replaces

TABLE_GROUPS = ("Symmetric(4)", "SL2(3)", "Q8xC3", "Dihedral(6)", "E25xSL(2,3)")


@pytest.fixture(scope="module")
def tabled_groups():
    out = {name: construct(name) for name in TABLE_GROUPS}
    for g in out.values():
        g._materialize()
        assert g._rows is not None
    return out


@settings(max_examples=60)
@given(st.sampled_from(TABLE_GROUPS), st.integers(0, 10**6), st.integers(0, 10**6))
def test_table_products_match_permutation_products(tabled_groups, name, a, b):
    g = tabled_groups[name]
    i, j = a % g.order(), b % g.order()
    product = g.mul_idx(i, j)
    assert product == g.right_row(j)[i] == g.index_of(g.perm_at(i) * g.perm_at(j))


@pytest.mark.parametrize("name", TABLE_GROUPS)
def test_table_rows_cover_every_element(name):
    # the rows are composed along a spanning tree; every node, generators
    # included, must get a row
    g = construct(name)
    g._materialize()
    assert len(g._rows) == g.order()
    ident = list(range(g.order()))
    for j in range(g.order()):
        row = g._rows[j]
        assert sorted(row) == ident
        assert row[g.identity_idx] == j


@pytest.mark.parametrize("name", TABLE_GROUPS)
def test_pow_idx_matches_permutation_power(name):
    g = construct(name)
    for i in range(0, g.order(), 7):
        for k in (0, 1, 2, 3, 5, 12):
            assert g.pow_idx(i, k) == g.index_of(g.perm_at(i) ** k)


@pytest.mark.parametrize("name", TABLE_GROUPS)
def test_closure_without_table_matches_table(monkeypatch, name):
    tabled = construct(name)
    with monkeypatch.context() as m:
        m.setattr(groups, "_TABLE_BYTES", 0)
        plain = construct(name)
        plain._materialize()
    tabled._materialize()
    assert tabled._rows is not None and plain._rows is None
    n = tabled.order()
    seeds = [[i, (5 * i + 3) % n] for i in range(0, n, max(1, n // 12))]
    for seed in seeds:
        assert tabled.closure_idx(seed) == plain.closure_idx(seed)
        base = tabled.closure_idx(seed[:1])
        for x in (seed[1], (seed[1] + 11) % n):
            assert tabled.closure_idx(
                [x], base=base, base_gens=seed[:1]
            ) == plain.closure_idx([x], base=base, base_gens=seed[:1])


@pytest.mark.parametrize("name", ["Symmetric(4)", "SL2(3)"])
def test_analysis_without_table_matches_table(monkeypatch, name):
    from subconj.harness import analyze_group

    tabled, _ = analyze_group(construct(name), name)
    monkeypatch.setattr(groups, "_TABLE_BYTES", 0)
    plain_group = construct(name)
    plain, _ = analyze_group(plain_group, name)
    assert plain_group._rows is None
    # the re-verification method follows the product path: a scan over every
    # element with a table, an orbit walk without; everything else is equal
    methods = [w.pop("verified") for w in tabled.witnesses]
    assert methods == ["exhaustive-scan"] * len(tabled.witnesses)
    methods = [w.pop("verified") for w in plain.witnesses]
    assert methods == ["orbit-walk"] * len(plain.witnesses)
    assert plain == tabled


# ----------------------------------------------------------------------
# Lagrange exits (closure past n/2, one normaliser test per coset) and the
# center from the conjugacy classes, against naive scans, with and without
# the table

LAGRANGE_CASES = [(name, table) for name in TABLE_GROUPS for table in (True, False)]


def _build(name, table):
    """construct(name), materialised with or without its multiplication table."""
    with pytest.MonkeyPatch.context() as m:
        if not table:
            m.setattr(groups, "_TABLE_BYTES", 0)
        g = construct(name)
        g._materialize()
    assert g.has_table() == table
    return g


@pytest.fixture(scope="module")
def subgroup_reps():
    # found once on the tabled groups; both builds index the same sorted
    # element list, so the index sets carry over
    return {
        name: [c.representative for c in all_subgroup_classes(construct(name))]
        for name in TABLE_GROUPS
    }


@pytest.mark.parametrize("name,table", LAGRANGE_CASES)
def test_closure_idx_matches_naive_closure(subgroup_reps, name, table):
    g = _build(name, table)
    n = g.order()

    def naive(seed):
        perms = [g.perm_at(i) for i in seed]
        return frozenset(map(g.index_of, naive_closure(perms, g.degree)))

    gens = g.gen_indices()
    assert g.closure_idx(gens) == naive(gens) == frozenset(range(n))
    # every subgroup class, index-2 ones included, and each grown through
    # base= one generator at a time
    for rep in subgroup_reps[name]:
        rgens = list(rep.gens_idx())
        assert g.closure_idx(rgens) == naive(rgens) == rep.indices
        for k in range(1, len(rgens)):
            base = g.closure_idx(rgens[:k])
            grown = g.closure_idx(rgens[k : k + 1], base=base, base_gens=rgens[:k])
            assert grown == naive(rgens[: k + 1])
        # grown by each element outside it (a sample for the order-600 group):
        # the walk never pushes the members of base itself
        outside = [x for x in range(n) if x not in rep.indices]
        for x in outside[:: max(1, len(outside) // 8) if n > 100 else 1]:
            grown = g.closure_idx([x], base=rep.indices, base_gens=rgens)
            assert grown == naive([*rgens, x])
    for i in range(0, n, max(1, n // 12)):
        seed = [i, (5 * i + 3) % n]
        assert g.closure_idx(seed) == naive(seed)
        base = g.closure_idx(seed[:1])
        assert g.closure_idx(seed[1:], base=base, base_gens=seed[:1]) == naive(seed)


@pytest.mark.parametrize("table", (True, False))
def test_closure_idx_closes_an_index_two_subgroup(table):
    # |A4| = 12 = |S4| / 2 exactly: the exit past n/2 must not fire
    g = _build("Symmetric(4)", table)
    a, b = g.index_of(P("(1,2,3)", 4)), g.index_of(P("(2,3,4)", 4))
    a4 = g.closure_idx([a, b])
    assert len(a4) == 12
    assert g.closure_idx([b], base=g.closure_idx([a]), base_gens=[a]) == a4
    t = g.index_of(P("(1,2)", 4))
    assert g.closure_idx([t], base=a4, base_gens=[a, b]) == frozenset(range(24))


def test_closure_idx_stops_once_past_half_the_group(monkeypatch):
    # without a table every product is one untabled row lookup; closing the
    # whole group pops fewer than n/2 members instead of all n - 1
    g = _build("E25xSL(2,3)", False)
    gens = g.gen_indices()
    calls = [0]
    lookup = groups._ProductRow.__getitem__

    def counted(row, i):
        calls[0] += 1
        return lookup(row, i)

    monkeypatch.setattr(groups._ProductRow, "__getitem__", counted)
    assert g.closure_idx(gens) == frozenset(range(g.order()))
    assert 0 < calls[0] <= (g.order() // 2) * len(gens)


@pytest.mark.parametrize("name,table", LAGRANGE_CASES)
def test_normalizer_matches_brute_force(subgroup_reps, name, table):
    g = _build(name, table)
    elements = g.elements()
    for rep in subgroup_reps[name]:
        sub = g.subgroup_from_indices(rep.indices)
        hset = frozenset(sub.elements())
        hgens = rep.generators
        scan = frozenset(
            i
            for i, x in enumerate(elements)
            if all(x.inverse() * h * x in hset for h in hgens)
        )
        assert normalizer(g, sub).indices == scan


@pytest.mark.parametrize("table", (True, False))
def test_normalizer_tests_one_element_per_coset(monkeypatch, subgroup_reps, table):
    # normalizer inverts exactly the elements it tests
    g = _build("E25xSL(2,3)", table)
    tested = []
    inv = g.inv_idx

    def counted(i):
        tested.append(i)
        return inv(i)

    monkeypatch.setattr(g, "inv_idx", counted)
    for rep in subgroup_reps["E25xSL(2,3)"]:
        tested.clear()
        normalizer(g, g.subgroup_from_indices(rep.indices))
        assert len(tested) == g.order() // rep.order


@pytest.mark.parametrize("name,table", LAGRANGE_CASES)
def test_center_matches_centralizer(name, table):
    g = _build(name, table)
    assert center(g).indices == centralizer(g, g.full_subgroup()).indices


# ----------------------------------------------------------------------
# base-image keys: every element is indexed by its images of the base points,
# checked against full image tuples, with and without the table, and on
# copies whose points are relabelled so that the base is not 0..k-1


def _relabelled(g):
    """A copy of g with its points relabelled by the first seeded shuffle
    that moves its base off 0..k-1."""

    def relabel(perm, pi):
        images = [0] * g.degree
        for i, j in enumerate(perm.images):
            images[pi[i]] = pi[j - 1] + 1
        return Permutation(images)

    for seed in range(1, 100):
        pi = list(range(g.degree))
        random.Random(seed).shuffle(pi)
        copy = Group([relabel(x, pi) for x in g.generators], degree=g.degree)
        if copy._base != tuple(range(len(copy._base))):
            return copy
    raise AssertionError("no seed moves the base")


def _keyed(name, table, relabel):
    g = _relabelled(construct(name)) if relabel else construct(name)
    with pytest.MonkeyPatch.context() as m:
        if not table:
            m.setattr(groups, "_TABLE_BYTES", 0)
        g._materialize()
    assert g.has_table() == table
    return g


KEY_CASES = [
    (name, table, relabel)
    for name in TABLE_GROUPS
    for table in (True, False)
    for relabel in (False, True)
]


@pytest.mark.parametrize("name,table,relabel", KEY_CASES)
def test_base_image_keys_match_full_image_tuples(name, table, relabel):
    g = _keyed(name, table, relabel)
    n = g.order()
    elts = g.elements()
    full = {x: i for i, x in enumerate(elts)}
    if n <= 100:
        pairs = [(i, j) for i in range(n) for j in range(n)]
    else:
        rng = random.Random(5)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(3000)]
    for i, j in pairs:
        product = elts[i] * elts[j]
        assert g.mul_idx(i, j) == full[product] == g.index_of(product)
    maps = g.conj_maps()
    for k, x in enumerate(g.generators):
        xi = x.inverse()
        assert maps[k] == [full[xi * y * x] for y in elts]
    assert [g.inv_idx(i) for i in range(n)] == [full[y.inverse()] for y in elts]


@pytest.mark.parametrize("name", [n for n in TABLE_GROUPS if n != "Symmetric(4)"])
@pytest.mark.parametrize("relabel", (False, True))
def test_index_of_rejects_a_non_member_with_a_member_base_image(name, relabel):
    # t swaps two points off the base (S4 has only one), so t * x agrees with
    # x on every base point, and it is no member: t fixes the base, t != 1
    g = _keyed(name, False, relabel)
    a, b = [p for p in range(1, g.degree + 1) if p - 1 not in g._base][:2]
    t = P(f"({a},{b})", g.degree)
    for x in g.elements()[:: max(1, g.order() // 50)]:
        y = t * x
        assert all(y.images[p] == x.images[p] for p in g._base)
        assert y not in g
        with pytest.raises(ValueError):
            g.index_of(y)


@pytest.mark.parametrize("name", (*TABLE_GROUPS, "M11", "SL2(13)"))
def test_order_of_idx_matches_permutation_order(name):
    g = construct(name)
    assert [g.order_of_idx(i) for i in range(g.order())] == [
        x.order() for x in g.elements()
    ]
