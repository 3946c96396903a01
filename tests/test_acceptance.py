"""Acceptance criteria, one test per criterion.

Each test prints a single ``ACCEPTANCE nn PASS/FAIL`` line (run with ``-s`` to
see them live).  Group-theoretic assertions are exact; the only tolerances are
the wall-clock budgets stated inline.
"""

import hashlib
import json
import subprocess
import sys
import time

import pytest

from subconj import (
    MEMBER,
    NON_MEMBER,
    UNDECIDED,
    ClassId,
    all_subgroup_classes,
    construct,
    decide,
    is_normal,
    sylow_shape,
    sylow_subgroup,
    verify_witness,
)
from subconj.harness import CorpusManifest, analyze_corpus, run_checks

from oracles import brute_force_subgroups, conjugacy_partition, rational_class_verdicts


def _report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {status}: {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def corpus_records():
    t0 = time.time()
    records = analyze_corpus(CorpusManifest.default())
    elapsed = time.time() - t0
    assert elapsed < 900, f"corpus analysis took {elapsed:.0f}s (budget 900s)"
    return records


def test_criterion_01_a5_in_b():
    t0 = time.time()
    a5 = construct("Alternating(5)")
    classes = all_subgroup_classes(a5)
    buckets = {}
    for c in classes:
        buckets.setdefault(c.order, []).append(c)
    single = all(len(v) == 1 for v in buckets.values())
    verdict, _ = decide(a5, ClassId.B)
    elapsed = time.time() - t0
    ok = len(classes) == 9 and single and verdict == MEMBER and elapsed < 5
    _report(
        1,
        ok,
        f"A5 in B: {len(classes)} classes, single-class buckets={single}, "
        f"{elapsed:.2f}s (budget 5s)",
    )


def test_criterion_02_sl25_and_psl28_in_b():
    t0 = time.time()
    v_sl25, _ = decide(construct("SL2(5)"), ClassId.B)
    t_sl25 = time.time() - t0
    t0 = time.time()
    psl28 = construct("PSL2(8)")
    v_pi, _ = decide(psl28, ClassId.B_PI)
    v_b, _ = decide(psl28, ClassId.B)  # order 504, under the 2000 cap
    t_psl28 = time.time() - t0
    ok = (
        v_sl25 == MEMBER
        and v_pi == MEMBER
        and v_b == MEMBER
        and t_sl25 < 60
        and t_psl28 < 60
    )
    _report(
        2,
        ok,
        f"SL(2,5) in B ({t_sl25:.1f}s), PSL(2,8) in B_pi and B ({t_psl28:.1f}s; "
        "budgets 60s each)",
    )


def test_criterion_03_e25_semidirect():
    t0 = time.time()
    g = construct("E25xSL(2,3)")
    verdict, _ = decide(g, ClassId.B)
    syl2 = sylow_subgroup(g, 2)
    shape = sylow_shape(syl2)
    normal = is_normal(g, syl2)
    elapsed = time.time() - t0
    ok = (
        verdict == MEMBER
        and shape.tag == "QuaternionQ8"
        and not normal
        and elapsed < 60
    )
    _report(
        3,
        ok,
        f"E25:SL(2,3) in B, Syl_2 {shape.tag}, normal={normal}, "
        f"{elapsed:.1f}s (budget 60s)",
    )


def test_criterion_04_sl27():
    t0 = time.time()
    g = construct("SL2(7)")
    v_a, _ = decide(g, ClassId.A)
    v_bpi, w = decide(g, ClassId.B_PI)
    ok = v_a == MEMBER and v_bpi == NON_MEMBER and w is not None and w.order == 8
    if ok:
        kinds = sorted((w.sub_a.is_cyclic(), w.sub_b.is_cyclic()))
        ok = kinds == [False, True]  # quaternion vs cyclic at order 8
        verified, _method = verify_witness(g, w)
        ok = ok and verified
    elapsed = time.time() - t0
    _report(
        4,
        ok and elapsed < 120,
        f"SL(2,7) in A, not in B_pi with verified order-8 witness, "
        f"{elapsed:.1f}s (budget 120s)",
    )


def test_criterion_05_psl27():
    g = construct("PSL2(7)")
    v_c, _ = decide(g, ClassId.C_PI)
    v_a, w = decide(g, ClassId.A_PI)
    ok = v_c == MEMBER and v_a == NON_MEMBER and w is not None and w.order == 4
    if ok:
        kinds = sorted((w.sub_a.is_cyclic(), w.sub_b.is_cyclic()))
        ok = kinds == [False, True]  # cyclic vs elementary abelian
        verified, _method = verify_witness(g, w)
        ok = ok and verified
    _report(5, ok, "PSL(2,7) in C_pi, not in A_pi with order-4 witness")


def test_criterion_06_t15_suite(corpus_records):
    result = run_checks(corpus_records, only=["T15"])[0]
    ok = result.status == "pass"
    _report(6, ok, f"T15 over the default corpus: {result.status} ({result.details})")


def test_criterion_07_quotient_suites(corpus_records):
    r5 = run_checks(corpus_records, only=["T5"])[0]
    r16 = run_checks(corpus_records, only=["T16"])[0]
    ok = r5.status == "pass" and r16.status == "pass"
    _report(7, ok, f"T5: {r5.status} ({r5.details}); T16: {r16.status} ({r16.details})")


def test_criterion_08_shape_conformance(corpus_records):
    r10 = run_checks(corpus_records, only=["T10"])[0]
    r12 = run_checks(corpus_records, only=["T12"])[0]
    ok = r10.status == "pass" and r12.status == "pass"
    ok = ok and "Q8xC3" in r12.details  # the SL(2,3)-type target matched exactly
    _report(8, ok, f"T10: {r10.status}; T12: {r12.status} (exact SL(2,3)-type match)")


def test_criterion_09_oracle_equivalence(corpus_records):
    checked = 0
    ok = True
    for record in corpus_records:
        if record.order > 48 or "*" in record.name:
            continue
        group = construct(record.name)
        oracle_sets = brute_force_subgroups(group)
        classes = all_subgroup_classes(group)
        orbits = conjugacy_partition(group, oracle_sets)
        if sum(c.orbit_size for c in classes) != len(oracle_sets):
            ok = False
        if len(classes) != len(orbits):
            ok = False
        if sorted(c.orbit_size for c in classes) != sorted(len(o) for o in orbits):
            ok = False
        checked += 1
    agree = all(
        r.verdicts["B_pi"] == r.verdicts["N_pi"] for r in corpus_records
    )
    _report(
        9,
        ok and agree and checked >= 40,
        f"oracle equality on {checked} corpus groups of order <= 48; "
        f"B_pi == N_pi on all {len(corpus_records)} groups",
    )


def test_cyclic_verdicts_match_rational_classes(corpus_records):
    # every decided C and C_pi verdict against the rational-class count,
    # which needs no subgroup walk
    checked = 0
    for record in corpus_records:
        c, c_pi = rational_class_verdicts(construct(record.name))
        for class_id, member in ((ClassId.C, c), (ClassId.C_PI, c_pi)):
            verdict = record.verdict(class_id)
            if verdict != UNDECIDED:
                assert verdict == (MEMBER if member else NON_MEMBER), (
                    record.name,
                    class_id.value,
                )
                checked += 1
    assert checked >= 2 * len(corpus_records) - 3  # C of SL2(13), E32x(C31xC5), M11


def test_criterion_10_m11():
    t0 = time.time()
    g = construct("M11")  # bundled dataset, declared order verified on load
    v, w = decide(g, ClassId.A_PI)
    ok = g.order() == 7920 and v == NON_MEMBER and w is not None
    if ok:
        ok = w.order == 4 and w.prime == 2
        kinds = sorted((w.sub_a.is_cyclic(), w.sub_b.is_cyclic()))
        ok = ok and kinds == [False, True]  # C4 against E4 inside the Sylow-2
        verified, _method = verify_witness(g, w)
        ok = ok and verified
        shape = sylow_shape(sylow_subgroup(g, 2))
        ok = ok and shape.tag not in ("Cyclic", "ElementaryAbelian")
    elapsed = time.time() - t0
    _report(
        10,
        ok and elapsed < 120,
        f"M11 loads to 7920 and leaves A_pi at order 4, {elapsed:.1f}s (budget 120s)",
    )


# sha256 of the default ``corpus run --json`` report; a deliberate change to
# the report updates it and says so
REPORT_SHA256 = "0ad935c2f8496f22fd6d64f735df52c03a987e356638f6470628dd346d34e575"


def test_criterion_11_determinism(tmp_path):
    out1 = tmp_path / "run1.json"
    out2 = tmp_path / "run2.json"
    for out, jobs in ((out1, []), (out2, ["--jobs", "2"])):
        proc = subprocess.run(
            [sys.executable, "-m", "subconj.cli", "corpus", "run", "--json", str(out)]
            + jobs,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
    b1 = out1.read_bytes()
    b2 = out2.read_bytes()
    assert hashlib.sha256(b1).hexdigest() == REPORT_SHA256
    assert hashlib.sha256(b2).hexdigest() == REPORT_SHA256
    ok = b1 == b2 and len(b1) > 0
    doc = json.loads(b1)
    ok = ok and {c["id"]: c["status"] for c in doc["checks"]} and all(
        c["status"] != "fail" for c in doc["checks"]
    )
    _report(11, ok, f"two corpus runs byte-identical ({len(b1)} bytes), checks green")
