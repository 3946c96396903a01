import json
import pickle

import pytest

from subconj.caps import CapExceeded
from subconj.harness import (
    CHECK_IDS,
    CorpusEntry,
    CorpusManifest,
    analyze_corpus,
    analyze_entry,
    emit_report,
    report_document,
    run_checks,
    witness_search,
)
from subconj.predicates import ClassId, MEMBER, NON_MEMBER

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


def test_record_facts_cover_quotient_suites(records):
    by_name = {r.name: r for r in records}
    e25 = by_name["E25xSL(2,3)"]
    assert e25.facts["odd_normal_quotients"] == [[25, MEMBER]]
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


def test_cap_error_names_the_entry_and_pickles():
    with pytest.raises(CapExceeded) as info:
        analyze_entry(CorpusEntry("Symmetric(9)"))
    exc = pickle.loads(pickle.dumps(info.value))
    assert exc.kind == "element enumeration"
    assert str(exc) == (
        "Symmetric(9): element enumeration cap exceeded: order 362880 > 200000"
    )
