"""Layer micro-probes on fixed groups, run unwrapped.

Each probe times one layer boundary in isolation on the canonical labelling of
SL2(11), Symmetric(6), E32x(C31xC5) and M11, and reports the median of a few
repeats.  SL2(11) is only built and probed here; its full analysis (about a
minute) stays out of every workload.
"""

from __future__ import annotations

import random
import re
from statistics import median
from time import perf_counter

from subconj.groups import Group
from subconj.subgroups import _OrbitRegistry
from subconj.zoo import construct

PROBE_GROUPS = ("SL2(11)", "Symmetric(6)", "E32x(C31xC5)", "M11")
REPEATS = 5
MUL_PAIRS = 20_000


def slug(name):
    return re.sub(r"[^A-Za-z0-9]+", "_", name).strip("_")


def _timed(fn):
    start = perf_counter()
    fn()
    return perf_counter() - start


def probe_group(name):
    """Timings for one group: chain build, materialisation, index products,
    closure from fixed seeds and one orbit-registry classification."""
    ref = construct(name)
    gens, degree = ref.generators, ref.degree

    def fresh():
        return Group(gens, degree=degree)

    chain = median(_timed(fresh) for _ in range(REPEATS))
    materialize = []
    for _ in range(REPEATS):
        g = fresh()
        materialize.append(_timed(g._materialize))
    n = g.order()
    rng = random.Random(0)
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(MUL_PAIRS)]
    mul = g.mul_idx

    def products():
        for i, j in pairs:
            mul(i, j)

    mul_ns = median(_timed(products) for _ in range(REPEATS)) / MUL_PAIRS * 1e9
    seeds = list(g.gen_indices())
    closure = median(_timed(lambda: g.closure_idx(seeds)) for _ in range(REPEATS))
    g.conj_maps()
    key = g.closure_idx(seeds[:1])
    classify = median(
        _timed(lambda: _OrbitRegistry(g).classify(key)) for _ in range(REPEATS)
    )
    return {
        "chain_s": (chain, "s"),
        "materialize_s": (median(materialize), "s"),
        "mul_idx_ns": (mul_ns, "ns"),
        "closure_idx_ms": (closure * 1e3, "ms"),
        "classify_ms": (classify * 1e3, "ms"),
    }


def run_probes():
    out = {}
    for name in PROBE_GROUPS:
        for metric, value in probe_group(name).items():
            out[f"probe.{slug(name)}.{metric}"] = value
    return out
