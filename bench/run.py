"""subconj benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --write-reference

The runner drives ``subconj.harness`` from outside, in a closed loop: one
client in one process analyses the next entry only after the previous one
finished (``analyze_entry``), then runs the check registry (``run_checks``)
and emits the JSON report (``emit_report``).  Only ``full-enum-jobs2`` uses
more processes: ``analyze_corpus(jobs=2)``.

``--trace 0`` repeats whole passes for ``--seconds`` (at least one) and prints
the end-to-end metrics as medians over passes; times are in reference seconds
(see speed.py), wall seconds go to standard error.  ``--trace 1`` runs one
untraced and one traced pass plus the layer micro-probes and prints the
per-layer metrics; the spans go to ``.bench_out/`` under the checkout root.

Every pass is checked against ``bench/reference.json``; the last line of
standard output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  Without ``src/subconj`` beside this directory the runner
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import subprocess
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("full-enum", "above-cap", "small-sweep", "full-enum-jobs2")
SETUP_REPEATS = 9


def import_package():
    """Import subconj from the checkout's src/, never from anywhere else."""
    init = SRC / "subconj" / "__init__.py"
    if not init.is_file():
        print(f"bench: {init} not found; run from a subconj checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import subconj

    if Path(subconj.__file__).resolve() != init.resolve():
        print(f"bench: imported {subconj.__file__}, not {init}", file=sys.stderr)
        sys.exit(2)


# ----------------------------------------------------------------------
# one pass


@dataclass
class PassResult:
    names: list
    corpus_s: float  # wall seconds
    entry_s: list  # wall seconds per entry, in pass order
    analysis_s: float  # wall seconds of the analysis part
    corpus_ref_s: float | None  # reference seconds, calibrated passes only
    entry_ref_s: list | None
    records: list
    results: list
    text: str
    failures: list  # (entry or None, message) for exceptions
    worker_traces: list


def run_pass(workload, inputs, names, tracer=None, calibrate=False):
    """Analyse every entry, run the checks and emit the report, timed.

    With ``calibrate`` the speed kernel runs alongside (see speed.py): in this
    process for serial passes, inside each worker for pool passes.
    """
    from speed import SpeedClock
    from subconj import harness
    from subconj.harness import CorpusEntry, CorpusManifest
    from tracing import take_worker_run, worker_hook
    from workloads import build_entries

    serial = workload.jobs == 1
    span = tracer.span if tracer is not None else (lambda _name: nullcontext())
    if serial:
        entries = build_entries(inputs)  # untimed: fresh lazy caches per pass
        clock = SpeedClock() if calibrate else nullcontext()
        hook = nullcontext()
    else:
        manifest = CorpusManifest([CorpusEntry(n) for n in names])
        clock = nullcontext()
        hook = worker_hook(tracer, calibrate)
    failures, records, intervals, runs = [], [], [], []
    gc.collect()  # garbage of earlier passes is not this pass's cost
    with clock, hook:
        start = perf_counter()
        with span("bench.corpus"):
            if serial:
                for e in entries:
                    if tracer is not None:
                        tracer.entry = e.name
                    t0 = perf_counter()
                    try:
                        records.append(harness.analyze_entry(e))
                    except Exception:
                        msg = f"{e.name}: stage analyze: {traceback.format_exc()}"
                        failures.append((e.name, msg))
                    intervals.append((t0, perf_counter()))
                if tracer is not None:
                    tracer.entry = None
            else:
                try:
                    records = harness.analyze_corpus(manifest, jobs=workload.jobs)
                except Exception:
                    failures.append((None, f"pool: stage analyze: {traceback.format_exc()}"))
                runs = [take_worker_run(r) for r in records]
                intervals = [(r["start"], r["end"]) for r in runs]
            analysis_s = perf_counter() - start
            try:
                results = harness.run_checks(records)
                text = harness.emit_report(records, results)
            except Exception:
                failures.append((None, f"registry: stage checks: {traceback.format_exc()}"))
                results, text = [], ""
        end = perf_counter()
    corpus_ref = entry_ref = None
    if calibrate and serial:
        corpus_ref = clock.reference_seconds(start, end)
        entry_ref = [clock.reference_seconds(a, b) for a, b in intervals]
    elif calibrate:
        # the pool's wall time, scaled by the slowdown the workers measured
        entry_ref = [r["ref_s"] for r in runs]
        slow = [x for r in runs for x in r["slowdowns"]]
        corpus_ref = (end - start) / (sum(slow) / len(slow)) if slow else None
    return PassResult(
        names,
        end - start,
        [b - a for a, b in intervals],
        analysis_s,
        corpus_ref,
        entry_ref,
        records,
        results,
        text,
        failures,
        [r["trace"] for r in runs],
    )


# ----------------------------------------------------------------------
# correctness


class Verdicts:
    """Counts attempted and failed gate items and keeps the messages."""

    def __init__(self, reference, workload):
        self.entries = reference["entries"]
        key = "full-enum" if workload.name == "full-enum-jobs2" else workload.name
        self.checks = reference["workloads"][key]["checks"]
        self.serial = reference["serial_report"].get(key)
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.upgrades = set()

    def item(self, failures, upgrades=()):
        self.attempted += 1
        self.upgrades.update(upgrades)
        if failures:
            self.failed += 1
            self.messages.extend(failures)

    def check_pass(self, p):
        from gate import check_entry, check_results

        raised = {name: msg for name, msg in p.failures if name is not None}
        by_name = {r.name: r for r in p.records}
        for name in p.names:
            if name in raised:
                self.item([raised[name]])
            elif name not in by_name:
                self.item([f"{name}: stage analyze: no record"])
            else:
                self.item(*check_entry(self.entries.get(name), by_name[name]))
        for _, msg in (f for f in p.failures if f[0] is None):
            self.item([msg])
        for fails, ups in check_results(self.checks, p.results):
            self.item(fails, ups)

    def same(self, label, a, b):
        self.item([] if a == b else [f"determinism: {label}"])

    @property
    def share_passed(self):
        return 1.0 - self.failed / self.attempted


def decided_share(p):
    from subconj.predicates import UNDECIDED

    total = sum(len(r.verdicts) for r in p.records)
    undecided = sum(v == UNDECIDED for r in p.records for v in r.verdicts.values())
    return (total - undecided) / total if total else 0.0


def source_digest():
    h = hashlib.sha256()
    for base in (SRC / "subconj", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def compare_with_earlier_runs(verdicts, key, value):
    """Byte-identity across runs: the same seed on the same code must repeat."""
    OUT.mkdir(exist_ok=True)
    path = OUT / "state.json"
    state = json.loads(path.read_text()) if path.exists() else {}
    earlier = state.get(key)
    if earlier is not None:
        verdicts.same(f"{key} differs from an earlier run", earlier, value)
    else:
        state[key] = value
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(state, indent=1, sort_keys=True))
        tmp.replace(path)


# ----------------------------------------------------------------------
# set-up


def setup_inputs(workload, seed):
    from workloads import build_entries, entry_order, make_inputs

    if workload.jobs == 1:
        inputs = make_inputs(workload, seed)
        build_entries(inputs)
        return inputs, [i.name for i in inputs]
    return None, entry_order(workload, seed)


def measure_setup(workload, seed):
    """Set-up in fresh processes; (reference, wall) seconds of each."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--setup-only",
        "--workload",
        workload.name,
        "--seed",
        str(seed),
    ]
    ref, wall = [], []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True).stdout
        timing = json.loads(out.strip().splitlines()[-1])
        ref.append(timing["ref_s"])
        wall.append(timing["wall_s"])
    return ref, wall


def setup_only(args):
    """Import the package and build the workload's inputs, timed from inside
    the process so that interpreter start-up noise stays out."""
    from speed import SpeedClock

    clock = SpeedClock()
    clock.calibrate()
    start = perf_counter()
    import_package()
    _, workload = load(args.workload)
    setup_inputs(workload, args.seed)
    end = perf_counter()
    clock.calibrate()
    print(json.dumps({"ref_s": clock.reference_seconds(start, end), "wall_s": end - start}))
    return 0


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


# ----------------------------------------------------------------------
# modes


def load(workload_name):
    from workloads import check_names, load_reference, workloads

    reference = load_reference()
    workload = workloads(reference)[workload_name]
    check_names(workload)
    return reference, workload


def check_serial_report(verdicts, workload, seed, p):
    """The jobs-2 report, and the serial seed-0 one, must equal the committed
    serial seed-0 report with the groups in this pass's entry order."""
    from gate import expected_report

    if verdicts.serial is not None and (workload.jobs > 1 or seed == 0):
        want = expected_report(verdicts.serial, p.names)
        verdicts.same("report differs from the serial seed-0 report", p.text, want)


def slowest_entry(per_pass):
    """The largest per-entry median over passes; every pass times the entries
    in the same order.  A median per entry first keeps one slow outlier among
    many short entries from setting the result."""
    return max((median(t) for t in zip(*per_pass)), default=0.0)


def measure(workload, seed, seconds, reference):
    setup_ref, setup_wall = measure_setup(workload, seed)
    inputs, names = setup_inputs(workload, seed)
    verdicts = Verdicts(reference, workload)
    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        p = run_pass(workload, inputs, names, calibrate=True)
        verdicts.check_pass(p)
        passes.append(p)
    for p in passes[1:]:
        verdicts.same("same seed, different report within a run", passes[0].text, p.text)
    check_serial_report(verdicts, workload, seed, passes[0])
    digest = hashlib.sha256(passes[0].text.encode()).hexdigest()
    compare_with_earlier_runs(
        verdicts, f"{workload.name}/seed{seed}/{source_digest()}/report", digest
    )
    metrics = {
        "setup_s": (median(setup_ref), "s"),
        "corpus_s": (median(p.corpus_ref_s for p in passes), "s"),
        "entry_max_s": (slowest_entry(p.entry_ref_s for p in passes), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "decided_share": (median(decided_share(p) for p in passes), "share"),
        "passed_share": (verdicts.share_passed, "share"),
    }
    info = {
        "passes": len(passes),
        "wall_setup_s": median(setup_wall),
        "wall_corpus_s": median(p.corpus_s for p in passes),
        "wall_entry_max_s": slowest_entry(p.entry_s for p in passes),
    }
    return verdicts, metrics, info


def traced(workload, seed, reference):
    from probes import run_probes
    from tracing import Tracer, install, layer_metrics, uninstall

    inputs, names = setup_inputs(workload, seed)
    verdicts = Verdicts(reference, workload)
    plain = run_pass(workload, inputs, names)
    verdicts.check_pass(plain)
    tracer = Tracer()
    saved = install(tracer)
    try:
        p = run_pass(workload, inputs, names, tracer)
    finally:
        uninstall(saved)
    for exported in p.worker_traces:
        tracer.merge(exported)
    verdicts.check_pass(p)
    verdicts.same("tracing changed the report", plain.text, p.text)
    check_serial_report(verdicts, workload, seed, p)

    metrics = layer_metrics(tracer.spans, tracer.counters)
    counters = {k: v for k, (v, unit) in metrics.items() if unit == "count"}
    compare_with_earlier_runs(
        verdicts, f"{workload.name}/seed{seed}/{source_digest()}/counters", counters
    )
    metrics["harness.pool_efficiency"] = (
        sum(p.entry_s) / (workload.jobs * p.analysis_s),
        "share",
    )
    metrics["trace.corpus_s"] = (p.corpus_s, "s")
    metrics["trace.untraced_corpus_s"] = (plain.corpus_s, "s")
    metrics["trace.overhead_s"] = (p.corpus_s - plain.corpus_s, "s")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    metrics.update(run_probes())
    write_trace(workload, seed, tracer, metrics)
    return verdicts, metrics, {}


def write_trace(workload, seed, tracer, metrics):
    OUT.mkdir(exist_ok=True)
    doc = {
        "workload": workload.name,
        "seed": seed,
        "span_fields": ["name", "start", "end", "parent", "entry"],
        "spans": tracer.spans,
        "counters": dict(tracer.counters),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    path = OUT / f"trace-{workload.name}-seed{seed}.json"
    path.write_text(json.dumps(doc))


def result_line(verdicts, metrics):
    return json.dumps(
        {
            "correct": verdicts.failed == 0,
            "attempted": verdicts.attempted,
            "failed": verdicts.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


def run_one(args):
    reference, workload = load(args.workload)
    if args.trace:
        verdicts, metrics, info = traced(workload, args.seed, reference)
    else:
        verdicts, metrics, info = measure(workload, args.seed, args.seconds, reference)
    for msg in verdicts.messages:
        print(f"FAIL {msg}", file=sys.stderr)
    for msg in sorted(verdicts.upgrades):
        print(f"UPGRADE {msg}", file=sys.stderr)
    for k, (v, u) in metrics.items():
        print(f"{workload.name:16s} {k:44s} {v:14.6g} {u}", file=sys.stderr)
    if info:
        print(f"{workload.name:16s} {json.dumps(info)}", file=sys.stderr)
    print(result_line(verdicts, metrics))
    return 0


def run_all(args):
    """Every workload in its own process; prints one table of the metrics."""
    rows = {}
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload",
            name,
            "--seed",
            str(args.seed),
            "--seconds",
            str(args.seconds),
            "--trace",
            str(args.trace),
        ]
        proc = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True)
        rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = list(next(iter(rows.values()))["metrics"])
    print(f"{'metric':44s} " + " ".join(f"{n:>16s}" for n in rows))
    for m in metrics:
        unit = next(iter(rows.values()))["metrics"][m]["unit"]
        cells = " ".join(f"{r['metrics'][m]['value']:16.6g}" for r in rows.values())
        print(f"{m + ' [' + unit + ']':44s} {cells}")
    print("correct " + " ".join(f"{n}={r['correct']}" for n, r in rows.items()))
    return 0 if all(r["correct"] for r in rows.values()) else 1


def write_reference():
    """Regenerate reference.json from the shipped corpus, serially."""
    from gate import build_reference
    from subconj import harness
    from subconj.harness import CorpusEntry, CorpusManifest
    from workloads import ABOVE_CAP, FULL_ENUM, REFERENCE_PATH, small_sweep_names

    lists = {
        "full-enum": FULL_ENUM,
        "above-cap": ABOVE_CAP,
        "small-sweep": small_sweep_names(),
    }
    records, results = {}, {}
    for wname, names in lists.items():
        manifest = CorpusManifest([CorpusEntry(n) for n in names])
        records[wname] = harness.analyze_corpus(manifest)
        results[wname] = harness.run_checks(records[wname])
        print(f"{wname}: {len(names)} entries analysed", file=sys.stderr)
    doc = build_reference(records, results, serial_workload="full-enum")
    REFERENCE_PATH.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)
    if args.setup_only:
        return setup_only(args)
    import_package()
    if args.write_reference:
        return write_reference()
    if args.workload is None:
        ap.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
