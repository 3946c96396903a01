"""Tests of the benchmark's input generator and correctness gate.

    python3 -m pytest -q bench/test_workloads.py
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

from gate import check_entry, check_results  # noqa: E402
from subconj.harness import CheckResult, analyze_entry  # noqa: E402
from subconj.zoo import construct  # noqa: E402
from workloads import (  # noqa: E402
    Workload,
    build_entries,
    entry_order,
    load_reference,
    make_inputs,
    workloads,
)

REFERENCE = load_reference()
SAMPLE = Workload(
    "sample",
    (
        "Alternating(5)",
        "SL2(5)",
        "Dihedral(12)",
        "Q8xC3",
        "E8xC7",
        "Alternating(4)*Cyclic(5)",
        "PSL2(9)",
    ),
)


def canonical_images(name):
    return tuple(p._t for p in construct(name).generators)


@pytest.mark.parametrize("seed", [1, 2])
def test_relabelled_entries_match_reference(seed):
    inputs = make_inputs(SAMPLE, seed)
    for inp in inputs:
        if "*" in inp.name:
            assert inp.images == canonical_images(inp.name)
        else:
            assert inp.images != canonical_images(inp.name)
    for entry in build_entries(inputs):
        record = analyze_entry(entry)
        failures, upgrades = check_entry(REFERENCE["entries"][entry.name], record)
        assert failures == [] and upgrades == [], entry.name


def test_seed_zero_is_the_shipped_corpus():
    inputs = make_inputs(SAMPLE, 0)
    assert [i.name for i in inputs] == list(SAMPLE.entries)
    for inp in inputs:
        assert inp.images == canonical_images(inp.name)


def test_inputs_repeat_per_seed():
    assert make_inputs(SAMPLE, 5) == make_inputs(SAMPLE, 5)
    assert entry_order(SAMPLE, 5) != entry_order(SAMPLE, 6)


def test_workload_lists():
    ws = workloads(REFERENCE)
    assert len(ws["small-sweep"].entries) == 73
    assert ws["full-enum-jobs2"].entries == ws["full-enum"].entries
    assert ws["full-enum-jobs2"].jobs == 2
    assert entry_order(ws["full-enum-jobs2"], 7) == list(ws["full-enum"].entries)
    for w in ws.values():
        for name in w.entries:
            assert name in REFERENCE["entries"]


def test_gate_rules():
    record = analyze_entry(build_entries(make_inputs(Workload("one", ("SL2(5)",)), 0))[0])
    ref = REFERENCE["entries"]["SL2(5)"]
    flipped = dict(ref, verdicts=dict(ref["verdicts"], B="non-member"))
    failures, _ = check_entry(flipped, record)
    assert failures == ["SL2(5): stage verdict: B non-member -> member"]
    capped = dict(ref, verdicts=dict(ref["verdicts"], B="undecided"))
    assert check_entry(capped, record) == ([], ["SL2(5): B undecided -> member"])

    ref_checks = {
        "T9": {"status": "pass", "details": "1 instance(s)"},
        "hierarchy": {"status": "fail", "details": "no corpus witness for X; note"},
    }
    same = [CheckResult("T9", "pass", ""), CheckResult("hierarchy", "fail", "note")]
    assert all(f == [] for f, _ in check_results(ref_checks, same))
    worse = [
        CheckResult("T9", "vacuous", ""),
        CheckResult("hierarchy", "fail", "a new reason"),
    ]
    assert all(f != [] for f, _ in check_results(ref_checks, worse))
