"""The benchmark's tracer wraps program names by module attribute; every name
it hooks must stay bound, or ``bench/run.py --trace 1`` breaks."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

from subconj import harness  # noqa: E402
from tracing import Tracer, install, uninstall  # noqa: E402


def test_tracer_installs_and_uninstalls():
    original = harness.analyze_entry
    tracer = Tracer()
    saved = install(tracer)
    try:
        assert harness.analyze_entry is not original
        harness.analyze_entry(harness.CorpusEntry("Cyclic(6)"))
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
    } <= names
    assert tracer.counters["groups.mul_idx_calls"] > 0
