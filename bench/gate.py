"""Correctness gate: compare a run against the committed reference.

The reference (``reference.json``) holds, per entry, the order, solvability,
Sylow shapes and the ten verdicts of the shipped corpus, and per workload the
status of every registered check.  These do not depend on the seed: relabelling
points and reordering entries change neither.  For ``full-enum`` it also holds
the whole serial seed-0 report, which the ``--jobs 2`` workload must reproduce
byte for byte in its own entry order.

Rules: a decided verdict never changes; ``undecided`` may become decided (listed
as an upgrade, not a failure).  A check never reports ``fail`` and a ``pass``
never turns into anything else, with one exception: on a corpus slice some
checks fail only because the slice lacks a witness group ("no corpus
witness ..."); such a check may keep failing, but only for reasons the
reference already gives.
"""

from __future__ import annotations

import json

from subconj.harness import report_document
from subconj.predicates import UNDECIDED

# a check status may only move from the key to one of the values
_STATUS_UPGRADES = {"skipped": ("pass",), "vacuous": ("pass",), "fail": ("pass",)}


def _reasons(details):
    return set(details.split("; "))


def entry_reference(record):
    """The seed-independent facts of one analysed entry."""
    return {
        "order": record.order,
        "solvable": record.solvable,
        "sylow_shapes": [dict(s) for s in record.sylow_shapes],
        "verdicts": dict(record.verdicts),
    }


def check_entry(ref, record):
    """(failures, upgrades) for one record; each failure names entry and stage."""
    name = record.name
    if ref is None:
        return [f"{name}: stage reference: entry missing from the reference"], []
    failures, upgrades = [], []
    got = entry_reference(record)
    for stage in ("order", "solvable", "sylow_shapes"):
        if got[stage] != ref[stage]:
            failures.append(f"{name}: stage {stage}: {got[stage]} != {ref[stage]}")
    for cls, want in ref["verdicts"].items():
        have = got["verdicts"].get(cls)
        if have == want:
            continue
        if want == UNDECIDED and have is not None and have != UNDECIDED:
            upgrades.append(f"{name}: {cls} undecided -> {have}")
        else:
            failures.append(f"{name}: stage verdict: {cls} {want} -> {have}")
    return failures, upgrades


def check_results(ref_checks, results):
    """Per registered check: (failures, upgrades), reference order first."""
    got = {r.check_id: r for r in results}
    out = []
    for cid in [*ref_checks, *(c for c in got if c not in ref_checks)]:
        r, ref = got.get(cid), ref_checks.get(cid)
        want = ref["status"] if ref else None
        if r is None:
            out.append(([f"check {cid}: stage checks: missing from the run"], []))
        elif r.status == "fail" and not (
            want == "fail" and _reasons(r.details) <= _reasons(ref["details"])
        ):
            out.append(([f"check {cid}: stage checks: fail: {r.details}"], []))
        elif want is None or r.status == want:
            out.append(([], []))
        elif r.status in _STATUS_UPGRADES.get(want, ()):
            out.append(([], [f"check {cid}: {want} -> {r.status}"]))
        else:
            out.append(([f"check {cid}: stage checks: {want} -> {r.status}"], []))
    return out


def expected_report(serial_doc, names):
    """The serial seed-0 report text with its groups put in the given order."""
    by_id = {g["id"]: g for g in serial_doc["groups"]}
    doc = {"groups": [by_id[n] for n in names], "checks": serial_doc["checks"]}
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"


def build_reference(records_by_workload, results_by_workload, serial_workload):
    """Reference document from seed-0 analyses of every workload."""
    entries = {}
    workloads = {}
    for wname, records in records_by_workload.items():
        for r in records:
            entries[r.name] = entry_reference(r)
        workloads[wname] = {
            "entries": [r.name for r in records],
            "checks": {
                c.check_id: {"status": c.status, "details": c.details}
                for c in results_by_workload[wname]
            },
        }
    serial = report_document(
        records_by_workload[serial_workload], results_by_workload[serial_workload]
    )
    return {
        "entries": entries,
        "workloads": workloads,
        "serial_report": {serial_workload: serial},
    }
