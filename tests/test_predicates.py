from dataclasses import replace
from itertools import combinations

import pytest

from subconj import (
    MEMBER,
    NON_MEMBER,
    UNDECIDED,
    Caps,
    ClassId,
    Group,
    Subgroup,
    all_subgroup_classes,
    center,
    construct,
    decide,
    hierarchy_report,
    predicates,
    p_subgroup_classes,
    quotient,
    verify_witness,
)
from subconj.fields import divisors
from subconj.harness import CorpusManifest, analyze_group
from subconj.predicates import (
    _cyclic_buckets,
    _first_split_bucket,
    _kind_filter,
    _p_buckets,
    _verified_witness,
    _walk_buckets,
)
from subconj.structure import p_part, prime_factors
from subconj.subgroups import WALK_KEY, _OrbitRegistry

from oracles import (
    eager_first_split_bucket,
    every_order_verdicts,
    p_classes_of,
    relabelled,
    relabelled_by,
    unpruned_all_subgroup_classes,
)

PI_IDS = [c for c in ClassId if c.is_pi]
PLAIN_IDS = [c for c in ClassId if not c.is_pi]


@pytest.mark.parametrize("n", [1, 5, 8, 12, 30])
def test_cyclic_groups_belong_everywhere(n):
    # one subgroup of each order: every verdict is read off the rational
    # classes, with no subgroup walk and no bucket
    g = construct(f"Cyclic({n})")
    report = hierarchy_report(g)
    assert set(report.verdicts.values()) == {MEMBER}
    assert WALK_KEY not in g.analysis_cache and not _p_walks(g)
    for key in ("order buckets", "solvable buckets", "cyclic buckets"):
        assert key not in g.analysis_cache


def test_e4_fails_already_for_cyclic_pi():
    v, w = decide(construct("ElementaryAbelian(2,2)"), ClassId.C_PI)
    assert v == NON_MEMBER
    assert w.order == 2  # three distinct normal C2s


def test_q8_fails_abelian_pi_with_two_c4s():
    v, w = decide(construct("GeneralizedQuaternion(8)"), ClassId.A_PI)
    assert v == NON_MEMBER
    assert w.order == 4
    assert w.sub_a.is_cyclic() and w.sub_b.is_cyclic()
    ok, method = verify_witness(construct("GeneralizedQuaternion(8)"), w)
    assert ok and method == "exhaustive-scan"


def test_sl23_belongs_to_b():
    v, _ = decide(construct("SL2(3)"), ClassId.B)
    assert v == MEMBER


def test_psl27_in_c_pi_but_not_a_pi():
    g = construct("PSL2(7)")
    assert decide(g, ClassId.C_PI)[0] == MEMBER
    v, w = decide(g, ClassId.A_PI)
    assert v == NON_MEMBER
    assert (w.order, w.prime) == (4, 2)
    cyclic_flags = sorted((w.sub_a.is_cyclic(), w.sub_b.is_cyclic()))
    assert cyclic_flags == [False, True]  # one C4, one E4


def test_sl27_in_a_but_not_b_pi():
    g = construct("SL2(7)")
    assert decide(g, ClassId.A)[0] == MEMBER
    v, w = decide(g, ClassId.B_PI)
    assert v == NON_MEMBER
    assert w.order == 8
    kinds = sorted((w.sub_a.is_cyclic(), w.sub_b.is_cyclic()))
    assert kinds == [False, True]  # quaternion vs cyclic
    ok, _ = verify_witness(g, w)
    assert ok


def test_a5_report_is_all_member():
    report = hierarchy_report(construct("Alternating(5)"), "A5")
    assert set(report.verdicts.values()) == {MEMBER}


def test_q8_report_fails_c_pi_downwards():
    report = hierarchy_report(construct("GeneralizedQuaternion(8)"))
    assert report.verdicts[ClassId.C_PI] == NON_MEMBER
    for cid in (ClassId.B_PI, ClassId.A_PI, ClassId.B, ClassId.A, ClassId.C):
        assert report.verdicts[cid] == NON_MEMBER


def test_s4_witness_is_the_classic_pair():
    v, w = decide(construct("Symmetric(4)"), ClassId.C_PI)
    assert v == NON_MEMBER
    assert w.order == 2
    a, b = w.sub_a.elements(), w.sub_b.elements()
    # a transposition subgroup against a double-transposition subgroup
    assert {len(x) for x in (a, b)} == {2}


def test_quotient_of_sl27_by_center_drops_out():
    g = construct("SL2(7)")
    q = quotient(g, center(g))
    v, w = decide(q, ClassId.A_PI)
    assert v == NON_MEMBER and w.order == 4


@pytest.mark.parametrize(
    "name",
    [
        "Symmetric(4)",
        "GeneralizedQuaternion(16)",
        "SL2(3)",
        "Dihedral(5)",
        "Dihedral(6)",
        "E4xC3",
        "E8xC7",
        "PSL2(7)",
        "SL2(7)",
        "Alternating(6)",
    ],
)
def test_chain_consistency(name):
    report = hierarchy_report(construct(name))
    order = [ClassId.B, ClassId.H, ClassId.N, ClassId.A, ClassId.C]
    for smaller, larger in zip(order, order[1:]):
        if report.verdicts[smaller] == MEMBER and report.verdicts[larger] != UNDECIDED:
            assert report.verdicts[larger] == MEMBER
    for plain in PLAIN_IDS:
        if report.verdicts[plain] == MEMBER:
            assert report.verdicts[plain.pi_counterpart] in (MEMBER, UNDECIDED)


@pytest.mark.parametrize(
    "name", ["Symmetric(5)", "SL2(5)", "PSL2(7)", "M11", "Q8xC3", "Dihedral(16)"]
)
def test_b_pi_equals_n_pi(name):
    report = hierarchy_report(construct(name))
    assert report.verdicts[ClassId.B_PI] == report.verdicts[ClassId.N_PI]
    assert report.verdicts[ClassId.B_PI] == report.verdicts[ClassId.H_PI]


@pytest.mark.parametrize(
    "name",
    ["Dihedral(7)", "SL2(3)", "E8x(C7xC3)", "Cyclic(20)", "E25xSL(2,3)"],
)
def test_solvable_a_pi_members_are_b_pi_members(name):
    report = hierarchy_report(construct(name))
    if report.verdicts[ClassId.A_PI] == MEMBER:
        assert report.verdicts[ClassId.B_PI] == MEMBER


def test_every_emitted_witness_reverifies():
    for name in ["Symmetric(4)", "GeneralizedQuaternion(16)", "PSL2(9)", "Dihedral(6)"]:
        g = construct(name)
        report = hierarchy_report(g)
        assert report.witnesses  # all four fail something
        for w in report.witnesses.values():
            ok, _ = verify_witness(g, w)
            assert ok


def test_capped_plain_class_is_undecided():
    g = construct("SL2(13)")  # order 2184 over the default full cap
    v, w = decide(g, ClassId.B)
    assert v == UNDECIDED and w is None
    # the bound is the group's own, so the call order cannot change a verdict
    a5 = construct("Alternating(5)")
    for order in ((ClassId.B, ClassId.B_PI), (ClassId.B_PI, ClassId.B)):
        g = Group(a5.generators, degree=a5.degree, caps=Caps(full_subgroup_cap=10))
        verdicts = {cid: decide(g, cid)[0] for cid in order}
        assert verdicts == {ClassId.B: UNDECIDED, ClassId.B_PI: MEMBER}


def test_capped_plain_class_still_detects_non_membership():
    g = construct("M11")  # order 7920; A_pi fails, so A must fail too
    v, w = decide(g, ClassId.A)
    assert v == NON_MEMBER
    assert w.class_id == ClassId.A
    assert w.prime == 2 and w.order == 4


def test_cyclic_sylow_subgroups_need_no_sylow_order_cap():
    # every Sylow subgroup of Cyclic(4) is cyclic, so no pi verdict walks
    # p-subgroups, and the group is cyclic, so no plain verdict walks
    # subgroups: a stored-index cap that refuses every walk refuses none of
    # the ten verdicts
    g0 = construct("Cyclic(4)")
    g = Group(g0.generators, degree=g0.degree, caps=Caps(stored_index_cap=0))
    assert hierarchy_report(g).verdicts == dict.fromkeys(ClassId, MEMBER)
    assert WALK_KEY not in g.analysis_cache and not _p_walks(g)


def test_plain_verdicts_read_only_the_orders_that_can_split():
    # Symmetric(4) reads 2, 4, 6 and 12, the bound past which no proper
    # subgroup lies, but not 8 = |G|_2, 3 = |G|_3 nor 24 = |G|
    g = construct("Symmetric(4)")
    assert predicates._split_orders(g) == [2, 4, 6, 12]
    assert g._closure_bound() == 12
    # SL2(3) has no subgroup of order 12, but the bound from its class
    # sizes does not rule it out: the bucket is read, and empty
    h = construct("SL2(3)")
    assert predicates._split_orders(h) == [2, 4, 6, 12]
    assert decide(h, ClassId.H)[0] == MEMBER
    buckets = h.analysis_cache["solvable buckets"]
    assert sorted(buckets) == [2, 4, 6, 12] and buckets[12] == []
    assert predicates._p_orders(h, 2) == [2, 4]
    assert predicates._p_orders(h, 3) == []


def test_cyclic_sylow_test_keeps_the_element_cap():
    # telling a cyclic Sylow subgroup lists the elements: an element cap
    # below the order leaves the pi verdict undecided, not raised
    g0 = construct("Cyclic(12)")
    g = Group(g0.generators, degree=g0.degree, caps=Caps(element_cap=5))
    assert decide(g, ClassId.A_PI) == (UNDECIDED, None)


def test_undecided_never_blocks_pi_verdicts():
    report = hierarchy_report(construct("M11"))
    for cid in PI_IDS:
        assert report.verdicts[cid] != UNDECIDED


def test_m11_is_in_c_pi_only():
    report = hierarchy_report(construct("M11"))
    assert report.verdicts[ClassId.C_PI] == MEMBER
    assert report.verdicts[ClassId.A_PI] == NON_MEMBER


def test_class_ids_may_be_given_as_strings():
    # as in decide: a string id is its ClassId, and an unknown one is refused
    members = (ClassId.B, ClassId.A_PI)
    by_member = hierarchy_report(construct("Symmetric(4)"), classes=members)
    by_string = hierarchy_report(construct("Symmetric(4)"), classes=("B", "A_pi"))
    assert by_string.verdicts == by_member.verdicts
    assert by_string.verdicts[ClassId.B] == NON_MEMBER
    # the records carry the serialised witnesses too
    record = analyze_group(construct("Symmetric(4)"), "S4", classes=("B", "A_pi"))
    assert record == analyze_group(construct("Symmetric(4)"), "S4", classes=members)
    assert record.verdicts["B"] == NON_MEMBER
    for run in (hierarchy_report, lambda g, classes: analyze_group(g, "S4", classes)):
        with pytest.raises(ValueError, match="'X' is not a valid ClassId"):
            run(construct("Symmetric(4)"), classes=("X",))


def test_witness_prime_marks_pi_buckets():
    _, w = decide(construct("PSL2(9)"), ClassId.A_PI)
    assert w.prime is not None
    assert w.order % w.prime == 0


# ----------------------------------------------------------------------
# verdicts without repeated work: p-classes and split buckets read off the
# order-graded walk, which stops at the first split


def _keyed(classes):
    return [(c.order, c.representative.key(), c.orbit_size) for c in classes]


def _split_keys(split):
    if split is None:
        return None
    order, ca, cb = split
    return order, ca.representative.key(), cb.representative.key()


def _fresh(g):
    """The same group, index for index, with no walk started."""
    return Group(g.generators, degree=g.degree, caps=g.caps)


@pytest.fixture(scope="module", params=["as-built", "relabelled"])
def corpus_walks_2000(request):
    """(name, group, all_subgroup_classes) for every default-corpus group of
    order at most 2000, as built, or relabelled where a relabelling moves the
    base (it cannot for the cyclic, small dihedral and quaternion actions)."""
    out = []
    for entry in CorpusManifest.default().entries:
        g = construct(entry.name)
        if g.order() > 2000:
            continue
        if request.param == "relabelled":
            try:
                g = relabelled(g)
            except AssertionError:
                continue
        out.append((entry.name, g, all_subgroup_classes(g)))
    return out


@pytest.fixture(scope="module")
def corpus_walks(corpus_walks_2000):
    """The walks of ``corpus_walks_2000`` for groups of order at most 720."""
    return [(name, g, walk) for name, g, walk in corpus_walks_2000 if g.order() <= 720]


def test_p_classes_read_off_the_walk_match_the_p_walk(corpus_walks):
    # the p buckets stop below |G|_p, which holds the one class of Sylow
    # subgroups
    for name, g, walk in corpus_walks:
        for p in prime_factors(g.order()):
            sylow = p_part(g.order(), p)
            read = [c for bucket in _p_buckets(g, p) for c in bucket]
            p_walk = p_subgroup_classes(_fresh(g), p)
            assert [c.order for c in p_walk].count(sylow) == 1, (name, p)
            below = [c for c in p_walk if c.order < sylow]
            assert _keyed(read) == _keyed(below), (name, p)
            below = [c for c in p_classes_of(walk, p) if c.order < sylow]
            assert _keyed(read) == _keyed(below), (name, p)


def test_graded_walk_lists_a_prefix_of_the_full_walk(corpus_walks):
    # a walk run through order d, resumed order by order, lists exactly the
    # classes of order <= d of the full list, in its order
    for name, g, walk in corpus_walks:
        fresh = _fresh(g)
        for d in divisors(g.order()):
            prefix = [c for c in walk if c.order <= d]
            assert _keyed(all_subgroup_classes(fresh, d)) == _keyed(prefix), (name, d)
        assert _keyed(all_subgroup_classes(fresh, 1)) == _keyed(walk[:1])
        # the walk that read |G|, the one over all of G where there is one,
        # has freed its registry
        cache = fresh.analysis_cache
        assert cache.get((WALK_KEY, "all"), cache[WALK_KEY]).registry is None


@pytest.fixture(scope="module", params=["default", "seed 1", "seed 2"])
def split_order_groups(request):
    """(name, group) for every default-manifest entry at or below
    ``full_subgroup_cap``, or for seeded relabellings of those of order at
    most 120, the small-sweep groups."""
    out = []
    for entry in CorpusManifest.default().entries:
        g = construct(entry.name)
        if request.param == "default":
            if g.order() <= g.caps.full_subgroup_cap:
                out.append((entry.name, g))
        elif g.order() <= 120:
            out.append((entry.name, relabelled_by(g, int(request.param[-1]))))
    assert len(out) == (89 if request.param == "default" else 73)
    return out


def _report_keys(report):
    out = {}
    for cid in ClassId:
        w = report.witnesses.get(cid)
        if w is not None:
            w = w.class_id, w.order, w.prime, w.sub_a.key(), w.sub_b.key()
        out[cid] = report.verdicts[cid], w
    return out


def test_split_orders_give_the_verdicts_of_every_order(split_order_groups):
    # every verdict and witness of the report, read at the orders that can
    # split, against a fresh copy read at every order with no cyclic skip
    for name, g in split_order_groups:
        expected = every_order_verdicts(_fresh(g))
        assert _report_keys(hierarchy_report(_fresh(g))) == expected, name


def test_the_bound_is_at_least_every_proper_subgroup_order(split_order_groups):
    # the plain verdicts read no order past the bound, so no proper subgroup
    # may lie past it
    for name, g in split_order_groups:
        classes = unpruned_all_subgroup_classes(g)
        g.rational_classes()
        proper = max((c.order for c in classes[:-1]), default=0)
        assert g._closure_bound() >= proper, name
        assert classes[-1].order == g.order(), name


def test_lazy_split_bucket_matches_the_eager_one(corpus_walks):
    # the splits read off a fresh graded walk, plain and per prime, against
    # the eager split of the full lists, for every kind
    for name, g, walk in corpus_walks:
        fresh = _fresh(g)
        for kind in ("any", "supersolvable", "nilpotent", "abelian", "cyclic"):
            keep = _kind_filter(kind)
            lazy = _first_split_bucket(_walk_buckets(fresh, divisors(g.order())), keep)
            eager = eager_first_split_bucket(walk, keep)
            assert _split_keys(lazy) == _split_keys(eager), (name, kind)
            for p in prime_factors(g.order()):
                lazy = _first_split_bucket(_p_buckets(fresh, p), keep)
                eager = eager_first_split_bucket(p_classes_of(walk, p), keep)
                assert _split_keys(lazy) == _split_keys(eager), (name, kind, p)


def _assert_cyclic_buckets(g, orders, classes):
    """The cyclic buckets of g at ``orders`` hold the cyclic classes of each
    order among ``classes``: the same classes in order, key and orbit size
    where two or more can split, one generator of the class otherwise."""
    for d, bucket in zip(orders, _cyclic_buckets(g, orders)):
        expected = [c for c in classes if c.order == d and c.is_cyclic()]
        if len(expected) > 1:
            assert _keyed(bucket) == _keyed(expected), d
        else:
            assert [g.order_of_idx(x) for x in bucket] == [d] * len(expected), d


def test_cyclic_buckets_match_the_walk(corpus_walks_2000):
    # built from the rational classes of a fresh copy, with no subgroup walk
    for name, g, walk in corpus_walks_2000:
        fresh = _fresh(g)
        _assert_cyclic_buckets(fresh, divisors(g.order())[1:], walk)
        for p in prime_factors(g.order()):
            orders = divisors(p_part(g.order(), p))[1:]
            _assert_cyclic_buckets(fresh, orders, p_classes_of(walk, p))
        assert WALK_KEY not in fresh.analysis_cache and not _p_walks(fresh), name


def test_graded_p_walk_lists_a_prefix_of_the_p_classes(corpus_walks):
    # a p-walk run through order d, resumed order by order, lists exactly the
    # classes of order <= d of the whole p-walk, which are the walk's p-classes
    for name, g, walk in corpus_walks:
        for p in prime_factors(g.order()):
            whole = p_classes_of(walk, p)
            assert _keyed(p_subgroup_classes(_fresh(g), p)) == _keyed(whole), (name, p)
            fresh = _fresh(g)
            for d in divisors(p_part(g.order(), p)):
                prefix = [c for c in whole if c.order <= d]
                assert _keyed(p_subgroup_classes(fresh, p, d)) == _keyed(prefix)
            assert fresh.analysis_cache["p walk", p].registry is None


def _verdict_keys(result):
    verdict, w = result
    return verdict, w and (w.prime, w.order, w.sub_a.key(), w.sub_b.key())


def test_pi_verdicts_do_not_depend_on_what_was_asked_first():
    # under a lowered cap B's plain walk may be refused where a p-walk is
    # not, or split before it is refused; p_subgroup_classes picks the walk
    # either way, so a pi verdict and its witness are a fresh group's
    names = [
        "SL2(7)",
        "Symmetric(5)",
        "PSL2(7)",
        "SL2(8)",
        "SL2(3)",
        "GeneralizedQuaternion(16)",
        "Alternating(6)",
    ]
    for name in names:
        g = construct(name)
        for cap in (100, 300, 700, 1000, 1500, 2298, 3000):
            caps = replace(g.caps, stored_index_cap=cap)
            for cid in (ClassId.B_PI, ClassId.A_PI):
                fresh = Group(g.generators, degree=g.degree, caps=caps)
                after_b = Group(g.generators, degree=g.degree, caps=caps)
                decide(after_b, ClassId.B)
                expected = _verdict_keys(decide(fresh, cid))
                assert _verdict_keys(decide(after_b, cid)) == expected, (name, cap, cid)


def test_a_cyclic_sylow_subgroup_has_one_class_per_order():
    # the reason _decide_pi skips such a prime: no pi verdict splits there
    skipped = 0
    for entry in CorpusManifest.default().entries:
        g = construct(entry.name)
        for p in prime_factors(g.order()):
            sylow_order = p_part(g.order(), p)
            if sylow_order in g.rational_classes():
                orders = [c.order for c in p_subgroup_classes(g, p)]
                assert orders == divisors(sylow_order)[1:], (entry.name, p)
                skipped += 1
    assert skipped > 100


def _p_walks(g):
    """The p-walks that ``p_subgroup_classes`` keeps on g, by cache key."""
    cache = g.analysis_cache
    return {k: v for k, v in cache.items() if isinstance(k, tuple) and k[0] == "p walk"}


@pytest.mark.parametrize("name", ["M11", "SL2(13)", "E32x(C31xC5)"])
def test_cyclic_verdicts_above_the_full_cap_need_no_walk(name):
    g = construct(name)
    assert decide(g, ClassId.C) == (MEMBER, None)
    assert decide(g, ClassId.C_PI) == (MEMBER, None)
    assert WALK_KEY not in g.analysis_cache and not _p_walks(g)


@pytest.mark.parametrize("name", ["SL2(13)", "E32x(C31xC5)"])
def test_cyclic_verdict_above_the_cap_matches_the_raised_walk(name):
    g0 = construct(name)
    g = Group(g0.generators, degree=g0.degree, caps=Caps(full_subgroup_cap=8000))
    cyclic = [c.order for c in all_subgroup_classes(g) if c.is_cyclic()]
    assert len(cyclic) == len(set(cyclic))  # one class per order: a C member
    assert decide(g0, ClassId.C)[0] == MEMBER


@pytest.mark.parametrize(
    "name,top", [("M11", 4), ("SL2(13)", 4), ("E32x(C31xC5)", 16)]
)
def test_above_cap_groups_walk_only_their_2_subgroups(name, top):
    # M11's B_pi splits at order 4 (C4 against E4), so nothing of order 8 is
    # built; the other two are pi members, walked up to half their Sylow
    # 2-subgroup, since the Sylow subgroups are all conjugate.  C and C_pi
    # read the rational classes, and every other Sylow subgroup of these
    # groups that could split is never reached or is cyclic
    g = construct(name)
    assert hierarchy_report(g).verdicts[ClassId.C] == MEMBER
    walks = _p_walks(g)
    assert list(walks) == [("p walk", 2)]
    walk = walks["p walk", 2]
    assert max(c.order for c in walk.classes) == top
    assert all(order <= top for order, _, _ in walk.pending)
    assert top < p_part(g.order(), 2)


def _run_counting_classes(monkeypatch, run):
    """Classes registered by each subgroup walk that ``run`` starts."""
    registries = []
    init = _OrbitRegistry.__init__

    def recording_init(self, group):
        init(self, group)
        registries.append(self)

    monkeypatch.setattr(_OrbitRegistry, "__init__", recording_init)
    result = run()
    monkeypatch.undo()
    return result, [len(r.classes) for r in registries]


def test_symmetric6_stops_its_walk_at_the_first_split(monkeypatch):
    # every Symmetric(6) witness has order 2, so its analysis registers only
    # the classes that extending the trivial class reaches, not all 56
    s6 = construct("Symmetric(6)")
    full, counts = _run_counting_classes(
        monkeypatch, lambda: all_subgroup_classes(_fresh(s6))
    )
    assert counts == [len(full)] == [56]
    walked = _fresh(s6)
    report, counts = _run_counting_classes(monkeypatch, lambda: hierarchy_report(walked))
    # the second registry classifies C's bucket of order 2, read off the
    # rational classes: the three classes of involutions
    assert len(counts) == 2 and counts[0] < 56 and counts[1] == 3
    assert walked.analysis_cache[WALK_KEY].registry is not None
    whole = _fresh(s6)
    all_subgroup_classes(whole)
    expected = hierarchy_report(whole)
    assert report.verdicts == expected.verdicts
    assert set(report.witnesses) == set(ClassId)
    for cid, w in report.witnesses.items():
        assert w.order == 2
        assert w.sub_a.key() == expected.witnesses[cid].sub_a.key()
        assert w.sub_b.key() == expected.witnesses[cid].sub_b.key()


# ----------------------------------------------------------------------
# witness work once per distinct pair: the first witness of a pair proves
# non-conjugacy, later ones run their own checks and reuse its method


def _uncached_check(g, w):
    """verify_witness for ``w`` on a freshly built copy of g, which has
    proved no pair yet."""
    fresh = _fresh(g)
    copy = replace(
        w,
        sub_a=Subgroup(fresh, w.sub_a.indices),
        sub_b=Subgroup(fresh, w.sub_b.indices),
        method="",
    )
    return verify_witness(fresh, copy)


def test_reused_pair_methods_match_an_uncached_check():
    names = [e.name for e in CorpusManifest.default().entries]
    groups = [(name, construct(name)) for name in names]
    groups = [(name, g) for name, g in groups if g.order() <= 720]
    for name, g in groups + [("M11", construct("M11"))]:
        for cid, w in hierarchy_report(g).witnesses.items():
            assert _uncached_check(g, w) == (True, w.method), (name, cid)


def _counting(monkeypatch, attr):
    """Replace ``predicates.<attr>`` by a wrapper recording each result."""
    calls = []
    fn = getattr(predicates, attr)

    def wrapper(*args):
        result = fn(*args)
        calls.append(result)
        return result

    monkeypatch.setattr(predicates, attr, wrapper)
    return calls


@pytest.mark.parametrize(
    "name,witnesses,method",
    [("Symmetric(6)", 10, "exhaustive-scan"), ("M11", 8, "orbit-walk")],
)
def test_one_proof_per_distinct_pair(monkeypatch, name, witnesses, method):
    # every witness of these groups is one pair: one proof, and the per-witness
    # checks still run for each witness
    proofs = _counting(monkeypatch, "verify_witness")
    checks = _counting(monkeypatch, "_witness_checks")
    report = hierarchy_report(construct(name))
    assert len(report.witnesses) == witnesses
    assert proofs == [(True, method)]
    assert checks == [(True, "")] * witnesses
    assert {w.method for w in report.witnesses.values()} == {method}


@pytest.mark.parametrize("name", ["Symmetric(6)", "M11"])
def test_proved_pairs_do_not_pass_other_pairs(name):
    # the proofs are keyed by the pair, not by the class: after every verdict
    # is decided, A against a conjugate of A is still refused for a class
    # whose pair was proved, and a proved pair still fails its own checks
    g = construct(name)
    w = hierarchy_report(g).witnesses[ClassId.A]
    a = w.sub_a
    mul, inv = g.mul_idx, g.inv_idx
    for x in range(g.order()):
        moved = frozenset(mul(mul(inv(x), i), x) for i in a.indices)
        if moved != a.indices:
            break
    with pytest.raises(RuntimeError, match="conjugate after all"):
        _verified_witness(g, ClassId.A, w.prime, w.order, a, Subgroup(g, moved))
    with pytest.raises(RuntimeError, match="not a p-subgroup"):
        _verified_witness(g, ClassId.A_PI, 3, w.order, w.sub_a, w.sub_b)
    again = _verified_witness(g, ClassId.A, w.prime, w.order, w.sub_a, w.sub_b)
    assert again.method == w.method


def _scan_one_element_at_a_time(group, a, b):
    """The exhaustive non-conjugacy scan by products, one g at a time: the
    reference for the scan narrowed by ``Group.conjugates_by``."""
    mul, inv, target = group.mul_idx, group.inv_idx, b.indices
    for g in range(group.order()):
        gi = inv(g)
        if all(mul(mul(gi, x), g) in target for x in a.gens_idx()):
            if frozenset(mul(mul(gi, x), g) for x in a.indices) == target:
                return False, "conjugate after all"
    return True, "exhaustive-scan"


@pytest.mark.parametrize(
    "name", ["Symmetric(4)", "SL2(3)", "Alternating(5)", "Dihedral(6)"]
)
def test_the_exhaustive_scan_matches_the_one_element_scan(name):
    # every pair of equal-order subgroups, conjugate or not (SL2(3) is a B
    # member, so its pairs are all conjugate)
    g = construct(name)
    subs = []
    for c in all_subgroup_classes(g):
        orbit, _ = g.conjugates(c.representative.indices)
        subs += [(c, Subgroup(g, key)) for key in orbit]
    pairs = [(x, y) for x, y in combinations(subs, 2) if x[1].order == y[1].order]
    assert pairs
    for (ca, a), (cb, b) in pairs:
        got = predicates._non_conjugacy(g, a, b)
        assert got == _scan_one_element_at_a_time(g, a, b), (a.indices, b.indices)
        assert got[0] == (ca is not cb)
