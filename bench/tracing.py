"""Outside-in tracing of subconj: spans and counters at the layer boundaries.

Nothing in ``src/`` is edited.  ``install`` replaces public functions and
methods with wrappers that record a span (name, start, end, parent span,
entry) or bump a counter, and ``uninstall`` puts the originals back.  Names
bound by ``from .m import f`` are wrapped in every module that looks them up,
otherwise spans would silently miss calls.

Hot methods are counted but not timed: a span on ``Group.mul_idx`` or
``_OrbitRegistry.classify`` would cost more than the work it measures.  Their
per-call cost comes from ``probes.py``.

Spans are kept in memory; ``summary`` turns them into per-name inclusive time
(outermost calls only, so recursion is not counted twice), self time (duration
minus the duration of direct children) per layer, and stage time,
which charges the self time of group primitives (``groups.*``) to the stage
that called them.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager, nullcontext
from functools import wraps
from time import perf_counter

from speed import SpeedClock
from subconj import groups, harness, perms, predicates, structure, subgroups, zoo
from subconj.caps import CapExceeded

CAP_KINDS = (
    "element enumeration",
    "full subgroup enumeration",
    "isomorphism search",
    "orbit keys",
    "sylow order",
)


def cap_metric(kind):
    tag = kind.replace(" ", "_") if kind in CAP_KINDS else "other"
    return f"predicates.cap_hits.{tag}"


class Tracer:
    """Spans and counters of one process, kept in memory."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index, entry)
        self.stack = []
        self.counters = Counter()
        self.entry = None

    @contextmanager
    def span(self, name):
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        start = perf_counter()
        try:
            yield
        except CapExceeded as exc:
            # count a cap hit once, at the innermost boundary it crosses
            if not getattr(exc, "_bench_counted", False):
                exc._bench_counted = True
                self.counters[cap_metric(exc.kind)] += 1
            raise
        finally:
            end = perf_counter()
            self.stack.pop()
            self.spans[idx] = (name, start, end, parent, self.entry)

    def mark(self):
        return len(self.spans), Counter(self.counters)

    def export_since(self, mark):
        """Spans and counter deltas recorded after ``mark``, parents rebased."""
        first, counters = mark
        spans = [
            (n, s, e, p - first if p >= first else -1, entry)
            for n, s, e, p, entry in self.spans[first:]
        ]
        delta = Counter(self.counters)
        delta.subtract(counters)
        return {"spans": spans, "counters": {k: v for k, v in delta.items() if v}}

    def merge(self, exported):
        """Append spans exported by another process (e.g. a pool worker)."""
        base = len(self.spans)
        for n, s, e, p, entry in exported["spans"]:
            self.spans.append((n, s, e, p + base if p >= 0 else -1, entry))
        self.counters.update(exported["counters"])


# ----------------------------------------------------------------------
# wrappers


def _spanned(tracer, name, fn):
    @wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    return wrapper


def _counted(tracer, key, fn):
    counters = tracer.counters

    @wraps(fn)
    def wrapper(*args, **kwargs):
        counters[key] += 1
        return fn(*args, **kwargs)

    return wrapper


def _lazy_spanned(tracer, name, fn, cache_attr):
    """Span only the call that fills a lazy cache; cached calls pass through."""

    @wraps(fn)
    def wrapper(self, *args, **kwargs):
        if getattr(self, cache_attr) is not None:
            return fn(self, *args, **kwargs)
        with tracer.span(name):
            return fn(self, *args, **kwargs)

    return wrapper


def _materialize(tracer, fn):
    @wraps(fn)
    def wrapper(self):
        if self._elts0 is not None:
            return fn(self)
        with tracer.span("groups.materialize"):
            fn(self)
        tracer.counters["groups.elements_materialized"] += len(self._elts0)

    return wrapper


def _classify(tracer, fn):
    counters = tracer.counters

    @wraps(fn)
    def wrapper(self, key):
        before = len(self.class_of)
        counters["subgroups.classify_calls"] += 1
        cid, new = fn(self, key)
        counters["subgroups.orbit_keys"] += len(self.class_of) - before
        counters["subgroups.classes_found"] += new
        return cid, new

    return wrapper


def _verify(tracer, fn):
    @wraps(fn)
    def wrapper(group, witness):
        with tracer.span("predicates.verify"):
            ok, method = fn(group, witness)
        if method == "exhaustive-scan":
            tracer.counters["predicates.verify_exhaustive_calls"] += 1
        elif method == "orbit-walk":
            tracer.counters["predicates.verify_orbit_walk_calls"] += 1
        return ok, method

    return wrapper


# (span name, attribute, modules or classes that look the attribute up)
_SPANS = (
    ("zoo.construct", "construct", (zoo, harness)),
    ("groups.chain", "__init__", (groups.Group,)),
    ("groups.closure_idx", "closure_idx", (groups.Group,)),
    ("groups.normal_closure_idx", "normal_closure_idx", (groups.Group,)),
    ("groups.normalizer", "normalizer", (groups, subgroups, structure)),
    ("groups.centralizer", "centralizer", (groups,)),
    ("groups.quotient", "__init__", (groups.Quotient,)),
    ("subgroups.full_enum", "all_subgroup_classes", (subgroups, predicates)),
    ("subgroups.p_classes", "p_subgroup_classes", (subgroups, predicates)),
    ("subgroups.are_conjugate", "are_conjugate", (subgroups, predicates)),
    ("structure.normal_subgroups", "normal_subgroups", (structure, harness)),
    ("structure.o_pprime", "o_pprime", (structure, harness)),
    ("structure.fingerprint", "structural_fingerprint", (structure, harness)),
    ("structure.sylow", "sylow_subgroup", (structure, harness)),
    ("structure.nilpotent", "is_nilpotent", (structure, subgroups, predicates)),
    ("structure.supersolvable", "is_supersolvable", (structure, subgroups, predicates)),
    ("predicates.decide", "decide", (predicates, harness)),
    ("predicates.decide", "hierarchy_report", (harness,)),
    ("harness.analyze_entry", "analyze_entry", (harness,)),
    ("harness.checks", "run_checks", (harness,)),
    ("harness.report", "emit_report", (harness,)),
)


def install(tracer):
    """Wrap every traced boundary; returns the list ``uninstall`` restores."""
    saved = []

    def put(owner, attr, wrapper):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    for name, attr, owners in _SPANS:
        for owner in owners:
            put(owner, attr, _spanned(tracer, name, owner.__dict__[attr]))
    G = groups.Group
    put(G, "_materialize", _materialize(tracer, G._materialize))
    put(G, "conj_maps", _lazy_spanned(tracer, "groups.conj_maps", G.conj_maps, "_conj_maps"))
    put(G, "mul_idx", _counted(tracer, "groups.mul_idx_calls", G.mul_idx))
    R = subgroups._OrbitRegistry
    put(R, "classify", _classify(tracer, R.classify))
    put(predicates, "verify_witness", _verify(tracer, predicates.verify_witness))
    P = perms.Permutation
    put(P, "__pow__", _counted(tracer, "perms.pow_calls", P.__pow__))
    return saved


def uninstall(saved):
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


# ----------------------------------------------------------------------
# pool workers
#
# harness.analyze_corpus(jobs=K) maps harness._worker over the entries.  The
# replacement below is a module-level function, so the pool pickles it by
# name; forked workers inherit the installed wrappers and this module's state.

_WORKER = {}


def timed_worker(args):
    """harness._worker plus, attached to the returned record, the entry's
    busy interval, its reference seconds when calibrating, and its spans and
    counter deltas when tracing."""
    tracer = _WORKER["tracer"]
    mark = None
    if tracer is not None:
        tracer.entry = args[0]
        mark = tracer.mark()
    clock = SpeedClock() if _WORKER["calibrate"] else nullcontext()
    with clock:
        start = perf_counter()
        record = _WORKER["original"](args)
        end = perf_counter()
    record.__dict__["bench_run"] = {
        "start": start,
        "end": end,
        "ref_s": clock.reference_seconds(start, end) if _WORKER["calibrate"] else None,
        "slowdowns": clock.slowdowns() if _WORKER["calibrate"] else [],
        "trace": tracer.export_since(mark) if tracer is not None else None,
    }
    return record


@contextmanager
def worker_hook(tracer=None, calibrate=False):
    """Route harness._worker through timed_worker for the duration."""
    _WORKER.update(original=harness.__dict__["_worker"], tracer=tracer, calibrate=calibrate)
    harness._worker = timed_worker
    try:
        yield
    finally:
        harness._worker = _WORKER.pop("original")
        _WORKER.clear()


def take_worker_run(record):
    return record.__dict__.pop("bench_run")


# ----------------------------------------------------------------------
# summaries

SPAN_METRICS = (
    # (metric, span name, what): "incl" outermost inclusive time, "stage"
    # stage time (see summary), "calls" number of spans
    ("zoo.construct_s", "zoo.construct", "incl"),
    ("zoo.construct_calls", "zoo.construct", "calls"),
    ("groups.chain_s", "groups.chain", "incl"),
    ("groups.group_count", "groups.chain", "calls"),
    ("groups.materialize_s", "groups.materialize", "incl"),
    ("groups.conj_maps_s", "groups.conj_maps", "incl"),
    ("groups.closure_idx_s", "groups.closure_idx", "incl"),
    ("groups.closure_idx_calls", "groups.closure_idx", "calls"),
    ("groups.normalizer_s", "groups.normalizer", "incl"),
    ("groups.centralizer_s", "groups.centralizer", "incl"),
    ("groups.normal_closure_idx_s", "groups.normal_closure_idx", "incl"),
    ("groups.quotient_s", "groups.quotient", "incl"),
    ("groups.quotient_calls", "groups.quotient", "calls"),
    ("subgroups.full_enum_s", "subgroups.full_enum", "incl"),
    ("subgroups.p_classes_s", "subgroups.p_classes", "incl"),
    ("subgroups.are_conjugate_s", "subgroups.are_conjugate", "incl"),
    ("structure.normal_subgroups_s", "structure.normal_subgroups", "incl"),
    ("structure.o_pprime_s", "structure.o_pprime", "incl"),
    ("structure.fingerprint_s", "structure.fingerprint", "incl"),
    ("structure.sylow_s", "structure.sylow", "incl"),
    ("structure.nilpotent_s", "structure.nilpotent", "incl"),
    ("structure.supersolvable_s", "structure.supersolvable", "incl"),
    ("predicates.decide_s", "predicates.decide", "stage"),
    ("predicates.verify_s", "predicates.verify", "incl"),
    ("harness.facts_s", "harness.analyze_entry", "stage"),
    ("harness.checks_s", "harness.checks", "incl"),
    ("harness.report_s", "harness.report", "incl"),
)

COUNTER_METRICS = (
    "groups.elements_materialized",
    "groups.mul_idx_calls",
    "subgroups.classify_calls",
    "subgroups.orbit_keys",
    "subgroups.classes_found",
    "predicates.verify_exhaustive_calls",
    "predicates.verify_orbit_walk_calls",
    "perms.pow_calls",
    *(cap_metric(k) for k in CAP_KINDS),
    cap_metric("other"),
)

LAYERS = ("zoo", "groups", "subgroups", "structure", "predicates", "harness", "bench")
# analysis stages: time inside group primitives (groups.*) is charged to the
# stage whose code called them
STAGES = ("zoo", "subgroups", "structure", "predicates", "harness", "bench")


def _layer(name):
    return name.split(".", 1)[0]


def summary(spans):
    """Per-name inclusive and stage time and calls; per-layer self time and
    per-stage time.

    Self time is a span's duration minus that of its direct children.  Stage
    time is self time, except that the self time of a ``groups.*`` span goes
    to its nearest ancestor outside ``groups``.
    """
    child = [0.0] * len(spans)
    for n, s, e, p, _ in spans:
        if p >= 0:
            child[p] += e - s
    incl, stage_t, calls = Counter(), Counter(), Counter()
    layer_self, stage = Counter(), Counter()
    for i, (n, s, e, p, _) in enumerate(spans):
        d = e - s
        own = d - child[i]
        calls[n] += 1
        layer_self[_layer(n)] += own
        a = p
        while a >= 0 and spans[a][0] != n:
            a = spans[a][3]
        if a < 0:
            incl[n] += d
        owner = i
        while _layer(spans[owner][0]) == "groups" and spans[owner][3] >= 0:
            owner = spans[owner][3]
        stage_t[spans[owner][0]] += own
        stage[_layer(spans[owner][0])] += own
    return {
        "incl": incl,
        "stage": stage_t,
        "calls": calls,
        "layer_self": layer_self,
        "stage_total": stage,
    }


def layer_metrics(spans, counters):
    """The traced per-layer metrics, every name present (zero if unused)."""
    agg = summary(spans)
    out = {}
    for metric, name, what in SPAN_METRICS:
        value = agg[what][name]
        unit = "count" if what == "calls" else "s"
        out[metric] = (value, unit)
    for key in COUNTER_METRICS:
        out[key] = (counters.get(key, 0), "count")
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = (agg["layer_self"][layer], "s")
    for st in STAGES:
        out[f"stage.{st}_s"] = (agg["stage_total"][st], "s")
    return out
