"""The plain walk inside normalisers, against the full walk it replaced.

The walk kept by ``all_subgroup_classes`` takes x from N_G(H) until a
complete read reaches ``low``, the least order a non-solvable subgroup can
have.  Its inside list must be exactly the solvable classes, its complete
list the oracle's, in any order of reads, and the verdicts read off it those
of the full walk."""

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

from oracles import relabelled, unpruned_all_subgroup_classes


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
        # a complete read may still reach outside, so the registry is kept
        assert fresh.analysis_cache[WALK_KEY].registry is not None


def test_interleaved_reads_keep_the_complete_list(nonsolvable_2000):
    # each read of either kind at a random divisor: a complete read lists
    # the oracle's classes of order <= d, an inside read those in between
    # the solvable ones and all, in the oracle's order
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
        assert _keyed(all_subgroup_classes(fresh)) == _keyed(classes), name
        assert fresh.analysis_cache[WALK_KEY].registry is None


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


def test_b_reads_the_complete_list_and_h_the_solvable_one():
    # PSL2(8) is a member of every class, so both read every order; only B
    # needs the walk to reach outside, for the group itself
    g = construct("PSL2(8)")
    assert decide(g, ClassId.H)[0] == MEMBER
    assert g.analysis_cache["solvable buckets"][504] == []
    assert g.analysis_cache[WALK_KEY].registry is not None
    assert decide(g, ClassId.B)[0] == MEMBER
    assert [c.order for c in g.analysis_cache["order buckets"][504]] == [504]
    assert g.analysis_cache[WALK_KEY].registry is None


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


def test_random_groups_keep_the_full_walk_verdicts():
    groups = _random_groups(60)
    groups += [construct("Alternating(5)*Symmetric(3)")]
    groups += [construct("Symmetric(5)*Cyclic(3)")]
    assert not all(map(is_solvable, groups))
    for i, g in enumerate(groups):
        old = _fresh(g)
        old.analysis_cache[WALK_KEY] = _full_walk(old)
        expected = analyze_group(old, f"random {i}")
        got = analyze_group(_fresh(g), f"random {i}")
        assert (got.verdicts, got.witnesses) == (
            expected.verdicts,
            expected.witnesses,
        ), (i, g.order())


# closure_idx calls of analyze_entry on the full-enum benchmark entries: 801
# with the full walk, 589 inside normalisers; the B members PSL2(8) and
# SL2(8) walk everything either way, and pay nothing for the split
FULL_ENUM = {
    "Symmetric(6)": None,
    "SL2(8)": 133,
    "PSL2(11)": None,
    "SL2(7)": None,
    "PSL2(8)": 125,
    "Alternating(6)": None,
    "PSL2(9)": None,
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
    assert sum(counts.values()) <= 620, counts
    for name, bound in FULL_ENUM.items():
        if bound is not None:
            assert counts[name] <= bound, (name, counts)
