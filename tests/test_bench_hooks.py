"""The benchmark's tracer wraps program names by module attribute; every name
it hooks must stay bound, and the layer probes call the program by name, or
``bench/run.py --trace 1`` breaks."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

from subconj import harness  # noqa: E402
from subconj.caps import Caps  # noqa: E402
from subconj.groups import Group  # noqa: E402
from subconj.zoo import construct  # noqa: E402
from probes import probe_group  # noqa: E402
from tracing import Tracer, install, take_worker_run, uninstall, worker_hook  # noqa: E402
from workloads import PrebuiltEntry  # noqa: E402


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
    # walk; with the full walk refused (full_subgroup_cap 12 < 24) they come
    # from the per-prime walk.  Either way p_subgroup_classes answers the
    # p-class reads, so each entry shows its span
    s4 = construct("Symmetric(4)")
    for caps in (None, Caps(full_subgroup_cap=12)):
        group = Group(s4.generators, degree=s4.degree, caps=caps)
        tracer = Tracer()
        saved = install(tracer)
        try:
            harness.analyze_entry(PrebuiltEntry("Symmetric(4)", group=group))
        finally:
            uninstall(saved)
        names = {span[0] for span in tracer.spans}
        assert {"subgroups.full_enum", "subgroups.p_classes"} <= names, caps
        assert tracer.counters["subgroups.classes_found"] > 0


def test_pool_workers_label_their_spans_with_the_entry_name():
    # analyze_corpus hands each worker the tuple (name,), and timed_worker
    # labels the spans with its first item; a bare name would label them
    # with the name's first letter
    names = ("Cyclic(6)", "Symmetric(4)")
    manifest = harness.CorpusManifest([harness.CorpusEntry(n) for n in names])
    tracer = Tracer()
    saved = install(tracer)
    try:
        with worker_hook(tracer):
            records = harness.analyze_corpus(manifest, jobs=2)
    finally:
        uninstall(saved)
    assert [r.name for r in records] == list(names)
    for record in records:
        spans = take_worker_run(record)["trace"]["spans"]
        assert spans and {span[4] for span in spans} == {record.name}


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
