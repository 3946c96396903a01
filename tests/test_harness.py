import gc
import json
import os
import pickle
import re
import subprocess
import sys
import weakref
from dataclasses import dataclass, replace

import pytest

from subconj import groups, harness, structure, subgroups
from subconj.caps import DEFAULT_CAPS, CapExceeded, Caps
from subconj.groups import Group, Subgroup
from subconj.harness import (
    CHECK_IDS,
    CorpusEntry,
    CorpusManifest,
    _T12_TARGETS,
    _match_t12_target,
    analyze_corpus,
    analyze_entry,
    emit_report,
    report_document,
    run_checks,
    witness_search,
)
from subconj.fields import prime_powers
from subconj.predicates import ClassId, MEMBER, NON_MEMBER, UNDECIDED, decide
from subconj.structure import (
    derived_subgroup,
    normal_subgroups,
    prime_factors,
    structural_fingerprint,
    sylow_subgroup,
)
from subconj.zoo import SEMIDIRECT_DATASETS, construct

from oracles import element_walk_closure, relabelled

SMALL_MANIFEST = CorpusManifest(
    [
        CorpusEntry(name)
        for name in [
            "Cyclic(6)",
            "ElementaryAbelian(2,2)",
            "Dihedral(5)",
            "GeneralizedQuaternion(8)",
            "Symmetric(4)",
            "Alternating(5)",
            "SL2(3)",
            "SL2(5)",
            "SL2(7)",
            "PSL2(7)",
            "PSL2(8)",
            "E25xSL(2,3)",
            "E4xC3",
            "Q8xC3",
            "GeneralizedQuaternion(8)*Cyclic(7)",
            "Alternating(4)*Cyclic(5)",
        ]
    ]
)


@pytest.fixture(scope="module")
def records():
    return analyze_corpus(SMALL_MANIFEST)


def test_default_manifest_spans_the_required_families():
    names = [e.name for e in CorpusManifest.default().entries]
    for needed in [
        "Cyclic(32)",
        "ElementaryAbelian(5,3)",
        "Dihedral(16)",
        "GeneralizedQuaternion(32)",
        "Symmetric(6)",
        "Alternating(6)",
        "SL2(13)",
        "PSL2(13)",
        "E25xSL(2,3)",
        "E32x(C31xC5)",
        "M11",
        "Alternating(5)*Cyclic(7)",
    ]:
        assert needed in names
    assert len(names) == len(set(names))


def test_records_follow_manifest_order(records):
    assert [r.name for r in records] == [e.name for e in SMALL_MANIFEST.entries]


def test_every_check_runs_on_the_small_corpus(records):
    results = run_checks(records)
    assert [c.check_id for c in results] == list(CHECK_IDS)
    failing = [c.check_id for c in results if c.status == "fail"]
    assert failing == []
    statuses = {c.check_id: c.status for c in results}
    for cid in ("T5", "T9", "T10", "T12", "T15", "T16", "T17", "C14", "hierarchy"):
        assert statuses[cid] == "pass"


def test_single_check_by_id(records):
    [result] = run_checks(records, only=["T15"])
    assert result.check_id == "T15"
    assert result.status == "pass"


def test_t17_reports_vacuous_instances(records):
    result = run_checks(records, only=["T17"])[0]
    assert "GeneralizedQuaternion(8)*Cyclic(7): hypothesis fails" in result.details


def test_witness_search_finds_the_classic_separators(records):
    hit = witness_search(records, ClassId.C_PI, ClassId.A_PI)
    assert hit.name == "PSL2(7)" and hit.order == 168
    hit = witness_search(records, ClassId.A_PI, ClassId.B_PI)
    assert hit.name == "SL2(7)" and hit.order == 336
    assert witness_search(records, ClassId.B, ClassId.B) is None
    assert witness_search(records, "A_pi", "N_pi").name == "SL2(7)"


@dataclass(frozen=True)
class _RelabelledEntry(CorpusEntry):
    def build(self):
        return relabelled(super().build())


@pytest.mark.parametrize("name", ["Alternating(4)*Cyclic(5)", "SL2(3)*Cyclic(5)"])
def test_relabelled_product_entry_keeps_its_facts(name):
    # the factor copies are found by element order, not by point labels
    canonical = analyze_entry(CorpusEntry(name))
    moved = analyze_entry(_RelabelledEntry(name))
    assert moved.facts["factor_quotients"] == [
        [name.split("*")[0], MEMBER],
        [name.split("*")[1], MEMBER],
    ]
    assert moved.facts == canonical.facts
    assert moved.verdicts == canonical.verdicts


_CONTRACT_ENTRIES = [
    CorpusEntry("E25xSL(2,3)"),
    CorpusEntry("SL2(7)"),
    _RelabelledEntry("SL2(13)"),
]


@pytest.mark.parametrize("entry", _CONTRACT_ENTRIES, ids=lambda e: e.name)
def test_closure_bases_are_generated_by_their_base_gens(monkeypatch, entry):
    # the coset walk of closure_idx needs <base.gens_idx()> = base; a base
    # that breaks it gets a wrong set without an error, so every base a whole
    # analysis passes is closed again from its generators alone
    closure = Group.closure_idx
    bases = {}

    def recording(group, seed, base=None):
        if base is not None and base.order > 1:
            bases[base.indices, base.gens_idx()] = base
        return closure(group, seed, base)

    monkeypatch.setattr(Group, "closure_idx", recording)
    analyze_entry(entry)
    monkeypatch.undo()
    assert len(bases) > 10
    for base in bases.values():
        assert element_walk_closure(base.parent, base.gens_idx()) == base.indices


@pytest.mark.parametrize("entry", _CONTRACT_ENTRIES, ids=lambda e: e.name)
def test_grown_subgroups_are_generated_by_their_gens(monkeypatch, entry):
    # every Subgroup that a growth step hands out during a whole analysis is
    # closed again from the generators it carries
    grown = {}

    def keep(sub):
        grown[sub.indices, sub.gens_idx()] = sub

    def recording(fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            for sub in result if isinstance(result, list) else [result]:
                keep(sub)
            return result

        return wrapper

    monkeypatch.setattr(Subgroup, "join", recording(Subgroup.join))
    monkeypatch.setattr(Group, "_normal_closure", recording(Group._normal_closure))
    for module in (groups, structure, subgroups):
        monkeypatch.setattr(module, "normalizer", recording(module.normalizer))
    for module in (structure, harness):
        for name in ("normal_subgroups", "sylow_subgroup"):
            monkeypatch.setattr(module, name, recording(getattr(module, name)))
    analyze_entry(entry)
    monkeypatch.undo()
    assert len(grown) > 10
    for sub in grown.values():
        assert element_walk_closure(sub.parent, sub.gens_idx()) == sub.indices


@pytest.mark.parametrize("name", list(_T12_TARGETS))
def test_stored_t12_fingerprints_match_the_built_targets(name):
    fingerprint = _T12_TARGETS[name]
    assert fingerprint == structural_fingerprint(construct(name))
    assert fingerprint.order == SEMIDIRECT_DATASETS[name][1]


@pytest.mark.parametrize(
    "name", [n for n, f in _T12_TARGETS.items() if f.order <= DEFAULT_CAPS.iso_cap]
)
def test_exact_t12_match_frees_its_target_copy(monkeypatch, name):
    # the exact search leaves no reference cycle behind: the target copy it
    # builds is freed when the call returns, without the cyclic collector
    copies = []

    def recording(target):
        built = construct(target)
        copies.append(weakref.ref(built))
        return built

    monkeypatch.setattr(harness, "construct", recording)
    group = relabelled(construct(name))
    gc.disable()
    try:
        assert _match_t12_target(group) == (name, "exact")
        assert len(copies) == 1
        assert copies[0]() is None
    finally:
        gc.enable()


def _refuse_construct(monkeypatch):
    def refuse(name):
        raise AssertionError(f"built a copy of {name}")

    monkeypatch.setattr(harness, "construct", refuse)


def test_t12_match_above_iso_cap_builds_no_target(monkeypatch):
    group = construct("E32x(C31xC5)")
    assert group.order() > group.caps.iso_cap
    _refuse_construct(monkeypatch)
    assert _match_t12_target(group) == ("E32x(C31xC5)", "fingerprint")


def test_t12_match_under_a_lowered_iso_cap_reads_the_fingerprint(monkeypatch):
    built = construct("E4xC3")
    group = Group(built.generators, degree=built.degree, caps=Caps(iso_cap=8))
    _refuse_construct(monkeypatch)
    assert _match_t12_target(group) == ("E4xC3", "fingerprint")


def test_e32_entry_builds_its_group_once(monkeypatch):
    built = []

    def recording(name):
        built.append(name)
        return construct(name)

    monkeypatch.setattr(harness, "construct", recording)
    record = analyze_entry(CorpusEntry("E32x(C31xC5)"))
    assert built == ["E32x(C31xC5)"]
    assert record.facts["o2prime_quotient"]["level"] == "fingerprint"


def test_e32_entry_computes_its_derived_series_once(monkeypatch):
    # is_solvable, derived_subgroup(group) and structural_fingerprint read
    # the series off the group's analysis_cache, so each step of the series
    # is one commutator closure
    computed = []
    derived = structure.derived_subgroup

    def recording(group, sub=None):
        if sub is not None:
            computed.append(group)
        return derived(group, sub)

    monkeypatch.setattr(structure, "derived_subgroup", recording)
    monkeypatch.setattr(harness, "derived_subgroup", recording)
    record = analyze_entry(CorpusEntry("E32x(C31xC5)"))
    assert record.solvable
    group = computed[0]
    series = structure.derived_series(group)
    assert [s.order for s in series] == [4960, 992, 32, 1]
    assert computed == [group] * (len(series) - 1)


@pytest.mark.parametrize(
    "name",
    ["Dihedral(15)", "Cyclic(30)", "E25xSL(2,3)", "Alternating(4)*Cyclic(5)"],
)
def test_facts_pass_builds_each_quotient_once(monkeypatch, name):
    # each fact asks quotient() for G/N; those sharing an N share one build
    built = []
    init = groups.Quotient.__init__

    def recording(self, group, normal_sub):
        built.append(normal_sub.indices)
        init(self, group, normal_sub)

    monkeypatch.setattr(groups.Quotient, "__init__", recording)
    analyze_entry(CorpusEntry(name))
    assert built
    assert len(built) == len(set(built))


def test_e32_entry_builds_no_quotient(monkeypatch):
    # G/N for N of order 32 and 992 has squarefree order 155 or 5, and
    # O_2'(G) is trivial, so the facts pass reads every verdict off |G:N|
    built = []
    init = groups.Quotient.__init__

    def recording(self, group, normal_sub):
        built.append(normal_sub.order)
        init(self, group, normal_sub)

    monkeypatch.setattr(groups.Quotient, "__init__", recording)
    record = analyze_entry(CorpusEntry("E32x(C31xC5)"))
    assert built == []
    assert record.facts["normal_quotients"] == [[32, MEMBER], [992, MEMBER]]


@pytest.fixture(scope="module")
def sweep_groups():
    # the default entries of order <= 120, and E32x(C31xC5)
    built = [construct(e.name) for e in CorpusManifest.default().entries]
    return [g for g in built if g.order() <= 120] + [construct("E32x(C31xC5)")]


def test_squarefree_index_quotients_are_a_pi_members(sweep_groups):
    # the facts pass reads `member` off a squarefree |G:N| without G/N
    seen = 0
    for g in sweep_groups:
        for n in normal_subgroups(g):
            index = g.order() // n.order
            if index > 1 and all(e == 1 for e in prime_powers(index).values()):
                assert decide(groups.quotient(g, n), ClassId.A_PI)[0] == MEMBER
                seen += 1
    assert seen > 100


def test_z_group_quotients_are_cyclic_exactly_over_the_derived_subgroup(
    sweep_groups,
):
    # with every Sylow subgroup cyclic, G/N is cyclic exactly when G' <= N
    seen = set()
    for g in sweep_groups:
        if not all(sylow_subgroup(g, p).is_cyclic() for p in prime_factors(g.order())):
            continue
        derived = derived_subgroup(g)
        for n in normal_subgroups(g):
            if n.is_cyclic():
                cyclic = groups.quotient(g, n).full_subgroup().is_cyclic()
                assert cyclic == (derived.indices <= n.indices)
                seen.add(cyclic)
    assert seen == {True, False}


def test_record_facts_cover_quotient_suites(records):
    by_name = {r.name: r for r in records}
    e25 = by_name["E25xSL(2,3)"]
    # T5 reads the odd-order entries, T16 all of them
    assert e25.facts["normal_quotients"] == [[25, MEMBER], [50, MEMBER], [200, MEMBER]]
    for r in records:
        if not r.solvable:
            assert all(n % 2 for n, _ in r.facts.get("normal_quotients", [])), r.name
    assert e25.facts["o2prime_quotient"]["matched"] == "Q8xC3"
    assert e25.facts["o2prime_quotient"]["level"] == "exact"
    assert e25.facts["sylow2_normal"] is False
    sl23 = by_name["SL2(3)"]
    assert sl23.facts["o2prime_quotient"]["matched"] == "Q8xC3"
    assert by_name["Cyclic(6)"].facts["o2prime_quotient"]["matched"] == "C_2^1"


def test_report_document_schema(records):
    results = run_checks(records)
    doc = report_document(records, results)
    assert set(doc) == {"groups", "checks"}
    g = doc["groups"][0]
    assert set(g) == {"id", "order", "solvable", "sylow_shapes", "classes", "witnesses"}
    assert set(g["classes"]) == {c.value for c in ClassId}
    for shape in g["sylow_shapes"]:
        assert set(shape) == {"p", "tag", "order"}
    for c in doc["checks"]:
        assert set(c) == {"id", "status", "details"}
        assert c["status"] in {"pass", "fail", "vacuous", "skipped"}


def test_empty_corpus_yields_a_valid_document():
    doc = report_document([], run_checks([]))
    assert doc["groups"] == []
    assert all(c["status"] in {"vacuous", "fail"} for c in doc["checks"])
    text = emit_report([], run_checks([]), fmt="json")
    assert json.loads(text) == doc


def test_emit_report_is_deterministic(records):
    results = run_checks(records)
    assert emit_report(records, results) == emit_report(records, results)


_CLASS_BOUND_ENTRIES = [
    CorpusEntry(name)
    for name in (
        "Symmetric(6)",
        "SL2(8)",
        "PSL2(11)",
        "SL2(7)",
        "PSL2(8)",
        "Alternating(6)",
        "PSL2(9)",
        "M11",
    )
]


def test_records_do_not_depend_on_the_proper_subgroup_bound(monkeypatch):
    # closures that stop at the bound read off the classes against closures
    # that stop at n/2 (Lagrange), on the groups where the two differ most
    def analyse():
        records = [analyze_entry(entry) for entry in _CLASS_BOUND_ENTRIES]
        return records, emit_report(records, run_checks(records))

    records, text = analyse()
    monkeypatch.setattr(groups, "_proper_subgroup_bound", lambda n, sizes: n // 2)
    half_records, half_text = analyse()
    assert half_records == records
    assert half_text == text


def test_markdown_report_renders(records):
    results = run_checks(records)
    text = emit_report(records, results, fmt="markdown")
    assert "| id | status | details |" in text
    assert "PSL2(8)" in text


def test_a5_entry_is_member_everywhere(records):
    doc = report_document(records, run_checks(records))
    a5 = next(g for g in doc["groups"] if g["id"] == "Alternating(5)")
    assert set(a5["classes"].values()) == {MEMBER}
    assert a5["witnesses"] == []


def test_q8_entry_carries_order_four_witness(records):
    doc = report_document(records, run_checks(records))
    q8 = next(g for g in doc["groups"] if g["id"] == "GeneralizedQuaternion(8)")
    assert q8["classes"]["C_pi"] == NON_MEMBER
    w = next(w for w in q8["witnesses"] if w["class"] == "C_pi")
    assert w["order"] == 4
    assert len(w["subgroup_a"]) == 4 and len(w["subgroup_b"]) == 4


def test_manifest_round_trip(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(
        json.dumps(
            {"entries": [{"id": "Cyclic(6)"}, {"id": "Symmetric(4)", "full_cap": 10}]}
        ),
        encoding="utf-8",
    )
    manifest = CorpusManifest.from_json(path)
    assert [e.name for e in manifest.entries] == ["Cyclic(6)", "Symmetric(4)"]
    assert manifest.entries[1].full_cap == 10
    records = analyze_corpus(manifest)
    # the capped entry cannot decide its plain classes positively
    assert records[1].verdicts["B"] in ("undecided", NON_MEMBER)


def test_per_entry_cap_degrades_gracefully():
    entry = CorpusEntry("Alternating(5)", full_cap=10)
    assert entry.build().caps.full_subgroup_cap == 10
    record = analyze_entry(entry)
    assert record.verdicts["B"] == "undecided"
    assert record.verdicts["B_pi"] == MEMBER


def test_c14_skips_a_capped_b_verdict():
    # an undecided B verdict is a cap hit, not evidence against C14
    record = analyze_entry(CorpusEntry("E25xSL(2,3)", full_cap=10))
    assert record.verdicts["B"] == "undecided"
    assert run_checks([record], only=["C14"])[0].status == "skipped"


def test_parallel_analysis_matches_serial(records):
    parallel = analyze_corpus(SMALL_MANIFEST, jobs=2)
    serial_doc = report_document(records, run_checks(records))
    parallel_doc = report_document(parallel, run_checks(parallel))
    assert serial_doc == parallel_doc


_COLD_START = """
import sys
from subconj import harness
assert "concurrent.futures.process" not in sys.modules
manifest = harness.CorpusManifest([harness.CorpusEntry("Symmetric(4)"), harness.CorpusEntry("SL2(3)")])
serial = harness.analyze_corpus(manifest)
assert "concurrent.futures.process" not in sys.modules
assert harness.analyze_corpus(manifest, jobs=2) == serial
"""


def test_a_serial_process_never_loads_the_pool():
    # importing the pool loads multiprocessing, a cost a serial run skips
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_START], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_cap_error_names_the_entry_and_pickles():
    with pytest.raises(CapExceeded) as info:
        analyze_entry(CorpusEntry("Symmetric(9)"))
    exc = pickle.loads(pickle.dumps(info.value))
    assert exc.kind == "element enumeration"
    assert str(exc) == (
        "Symmetric(9): element enumeration cap exceeded: order 362880 > 200000"
    )


def test_t5_remark_reads_only_records(monkeypatch, records):
    # SL2(7)/Z is decided in the entry's facts pass; the check builds nothing
    from subconj import harness, zoo

    def refuse(name):
        raise AssertionError(f"check built {name}")

    monkeypatch.setattr(harness, "construct", refuse)
    monkeypatch.setattr(zoo, "construct", refuse)
    (result,) = run_checks(records, only=["T5-remark"])
    assert result.status == "pass"
    assert result.details == (
        "1 instance(s); quotient by the center drops out of A_pi at order 4"
    )


@pytest.mark.parametrize("capped", ["A_pi", "center_quotient_a_pi"])
def test_t5_remark_skips_a_capped_verdict(records, capped):
    # a lowered cap leaves SL2(7) or SL2(7)/Z undecided: a capped instance,
    # not evidence against the remark
    (r,) = [r for r in records if r.name == "SL2(7)"]
    if capped == "A_pi":
        r = replace(r, verdicts={**r.verdicts, "A_pi": UNDECIDED})
    else:
        r = replace(r, facts={**r.facts, capped: [UNDECIDED, None]})
    (result,) = run_checks([r], only=["T5-remark"])
    assert (result.status, result.details) == ("skipped", "all instances capped")


def _capped(value):
    """``value`` with every verdict in it, at any depth, undecided."""
    if isinstance(value, dict):
        return {k: _capped(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_capped(v) for v in value]
    return UNDECIDED if value in (MEMBER, NON_MEMBER) else value


def _capped_classes(r, *classes):
    return replace(r, verdicts={**r.verdicts, **{c.value: UNDECIDED for c in classes}})


def _instance_counts(details):
    """(instances, capped instances skipped) of a ``pass`` details string."""
    instances = int(re.match(r"(\d+) instance\(s\)", details)[1])
    skipped = re.search(r"(\d+) capped instance\(s\) skipped", details)
    return instances, int(skipped[1]) if skipped else 0


def test_t1_t4_skips_its_capped_verdicts(records):
    capped = [_capped_classes(r, ClassId.B, ClassId.B_PI) for r in records]
    (result,) = run_checks(capped, only=["T1-T4"])
    assert (result.status, result.details) == ("skipped", "all instances capped")
    one = [_capped_classes(r, ClassId.B) if r.name == "SL2(5)" else r for r in records]
    (result,) = run_checks(one, only=["T1-T4"])
    assert (result.status, result.details) == (
        "pass",
        "3 instance(s); PSL2(8) in B_pi; PSL2(8) in B; Alternating(5) in B; "
        "1 capped instance(s) skipped",
    )


def test_t17_skips_capped_factor_quotients(records):
    # an undecided hypothesis is a capped instance, not a failed hypothesis
    capped = [
        replace(r, facts=_capped(r.facts)) if "factor_quotients" in r.facts else r
        for r in records
    ]
    (result,) = run_checks(capped, only=["T17"])
    assert (result.status, result.details) == ("skipped", "all instances capped")


def test_t20_case5_skips_a_capped_quotient_verdict(records):
    # E25xSL(2,3) is the one instance whose quaternion Sylow is not normal
    capped = [
        replace(r, facts={**r.facts, "gfg_b_verdict": UNDECIDED})
        if "gfg_b_verdict" in r.facts
        else r
        for r in records
    ]
    (result,) = run_checks(capped, only=["T20-case5"])
    assert result.status == "pass"
    assert "E25xSL(2,3)" not in result.details
    assert result.details.endswith("; 1 capped instance(s) skipped")


def test_a_capped_verdict_never_fails_a_check(records):
    # each record in turn with its class verdicts, then its facts, capped
    for i, r in enumerate(records):
        for capped in (
            replace(r, verdicts=_capped(r.verdicts)),
            replace(r, facts=_capped(r.facts)),
        ):
            for result in run_checks([*records[:i], capped, *records[i + 1 :]]):
                assert result.status != "fail", (r.name, result)
                if result.status == "pass":
                    instances, skipped = _instance_counts(result.details)
                    assert instances > skipped, (r.name, result)


def test_capped_verdicts_alone_pass_no_check(records):
    # a pass needs a decided instance
    capped = [replace(r, verdicts=_capped(r.verdicts)) for r in records]
    capped = [replace(r, facts=_capped(r.facts)) for r in capped]
    statuses = {c.check_id: c.status for c in run_checks(capped)}
    assert set(statuses.values()) <= {"skipped", "vacuous"}, statuses


def _q8xc3_match(r):
    return (r.facts.get("o2prime_quotient") or {}).get("matched") == "Q8xC3"


def _capped_a_pi(r):
    return replace(r, verdicts={**r.verdicts, "A_pi": UNDECIDED})


def _fingerprint_only(r):
    info = {**r.facts["o2prime_quotient"], "level": "fingerprint"}
    return replace(r, facts={**r.facts, "o2prime_quotient": info})


@pytest.mark.parametrize(
    "capped", [_capped_a_pi, _fingerprint_only, None], ids=["A_pi", "fingerprint", "none"]
)
def test_t12_skips_a_capped_witness(records, capped):
    # the groups whose G/O_2'(G) is the SL(2,3)-type target get a capped A_pi
    # verdict or a match cut off by iso_cap, either of which may hide the
    # witness, or they drop out of the corpus
    if capped:
        hidden = [capped(r) if _q8xc3_match(r) else r for r in records]
    else:
        hidden = [r for r in records if not _q8xc3_match(r)]
    assert len(hidden) == len(records) - 3 * (not capped)
    (result,) = run_checks(hidden, only=["T12"])
    if capped:
        assert result.status == "skipped"
        assert result.details.endswith("; witness for SL(2,3)-type target capped")
    else:
        assert result.status == "fail"
        assert result.details.startswith(
            "no corpus witness matched the SL(2,3)-type target exactly"
        )


@pytest.mark.parametrize(
    "name,capped,above",
    [
        ("SL2(7)", "A_pi", "A_pi strictly above N_pi"),
        ("SL2(7)", "N_pi", "A_pi strictly above N_pi"),
        ("PSL2(7)", "C_pi", "C_pi strictly above A_pi"),
        ("PSL2(7)", "A_pi", "C_pi strictly above A_pi"),
    ],
)
def test_hierarchy_skips_a_capped_witness(records, name, capped, above):
    # SL2(7) is the only A_pi-not-N_pi group here and PSL2(7) the only
    # C_pi-not-A_pi one: a capped verdict of either may hide the witness,
    # while without the group the strictness claim fails
    hidden = [
        replace(r, verdicts={**r.verdicts, capped: UNDECIDED}) if r.name == name else r
        for r in records
    ]
    (result,) = run_checks(hidden, only=["hierarchy"])
    assert result.status == "skipped"
    assert result.details.endswith(f"witness for {above} capped")
    (result,) = run_checks([r for r in records if r.name != name], only=["hierarchy"])
    assert result.status == "fail"
    assert result.details.startswith(f"no corpus witness for {above}")


@pytest.mark.parametrize(
    "stage,target",
    [
        ("build", "subconj.harness.CorpusEntry.build"),
        ("verdicts", "subconj.harness.analyze_group"),
        ("facts", "subconj.harness._collect_facts"),
    ],
)
def test_non_cap_failure_names_the_entry_and_stage(monkeypatch, stage, target):
    def broken(*args, **kwargs):
        raise KeyError("defect")

    monkeypatch.setattr(target, broken)
    with pytest.raises(KeyError) as info:
        analyze_entry(CorpusEntry("Cyclic(6)"))
    # the note survives the trip back from a --jobs worker
    exc = pickle.loads(pickle.dumps(info.value))
    assert exc.args == ("defect",)
    assert exc.__notes__ == [f"in corpus entry Cyclic(6), stage {stage}"]


_CAPPED_CORPUS = """
from subconj import harness
records = harness.analyze_corpus(harness.CorpusManifest.default())
for result in harness.run_checks(records):
    print(result.check_id, result.status, result.details, sep="\\t")
"""


def test_capped_hypotheses_skip_their_checks():
    # under these caps most A_pi verdicts are undecided: the checks whose
    # every instance is then capped are skipped, not vacuous, while T5 and
    # T16 pass on the groups whose Sylow subgroups are all cyclic, which no
    # cap refuses, and count the capped rest
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(sys.path),
        SUBCONJ_FULL_SUBGROUP_CAP="10",
        SUBCONJ_SYLOW_ORDER_CAP="2",
    )
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_CORPUS], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    results = {}
    for line in proc.stdout.splitlines():
        check_id, status, details = line.split("\t")
        results[check_id] = status, details
    for check_id in ("T9", "T10", "C13", "T20-case5"):
        assert results[check_id][0] == "skipped", (check_id, results)
    for check_id in ("T5", "T16"):
        status, details = results[check_id]
        assert status == "pass", (check_id, results)
        assert re.search(r"; [1-9]\d* capped instance\(s\) skipped", details), details
    statuses = {status for status, _ in results.values()}
    assert not statuses & {"vacuous", "fail"}, results
