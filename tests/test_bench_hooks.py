"""The benchmark's tracer wraps program names by module attribute; every name
it hooks must stay bound, and the layer probes call the program by name, or
``bench/run.py --trace 1`` breaks."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

from subconj import harness  # noqa: E402
from probes import probe_group  # noqa: E402
from tracing import Tracer, install, uninstall  # noqa: E402


def test_tracer_installs_and_uninstalls():
    # Cyclic(6) has one subgroup class per order, so its verdicts never ask
    # for a kind; Symmetric(4)'s split buckets ask for nilpotency and
    # supersolvability, and its facts build quotients (through the
    # group's cache, which must still construct each one by Quotient)
    original = harness.analyze_entry
    tracer = Tracer()
    saved = install(tracer)
    try:
        assert harness.analyze_entry is not original
        for name in ("Cyclic(6)", "Symmetric(4)"):
            harness.analyze_entry(harness.CorpusEntry(name))
    finally:
        uninstall(saved)
    assert harness.analyze_entry is original
    names = {span[0] for span in tracer.spans}
    assert {
        "harness.analyze_entry",
        "predicates.decide",
        "structure.sylow",
        "structure.nilpotent",
        "structure.supersolvable",
        "structure.o_pprime",
        "groups.quotient",
    } <= names
    assert tracer.counters["groups.mul_idx_calls"] > 0


def test_tracer_sees_the_subgroup_walks():
    # Symmetric(4) is enumerated in full, and its p-classes are read off that
    # walk; with the full walk refused (full_cap 12 < 24) they come from the
    # per-prime walk.  Either way p_subgroup_classes answers the p-class
    # reads, so each entry shows its span
    for full_cap in (None, 12):
        tracer = Tracer()
        saved = install(tracer)
        try:
            harness.analyze_entry(harness.CorpusEntry("Symmetric(4)", full_cap=full_cap))
        finally:
            uninstall(saved)
        names = {span[0] for span in tracer.spans}
        assert {"subgroups.full_enum", "subgroups.p_classes"} <= names, full_cap
        assert tracer.counters["subgroups.classes_found"] > 0


def test_tracer_sees_the_untabled_key_path():
    # SL2(13) (order 2184), like every group, multiplies through base-image
    # keys; its one materialisation builds the per-element product getters
    tracer = Tracer()
    saved = install(tracer)
    try:
        harness.analyze_entry(harness.CorpusEntry("SL2(13)"))
    finally:
        uninstall(saved)
    names = {span[0] for span in tracer.spans}
    assert "groups.materialize" in names
    assert tracer.counters["groups.elements_materialized"] == 2184


def test_probes_run_on_a_small_group():
    # the unwrapped probes build a Group and call _materialize, mul_idx,
    # closure_idx and _OrbitRegistry.classify directly
    metrics = probe_group("Symmetric(4)")
    assert set(metrics) == {
        "chain_s",
        "materialize_s",
        "mul_idx_ns",
        "closure_idx_ms",
        "classify_ms",
    }
