"""Benchmark workloads: entry lists and the seeded input generator.

Every workload is a list of entry names from ``CorpusManifest.default()``.
The seed shuffles the entry order and, in the serial workloads, relabels the
points of every non-product group with a seeded permutation of its degree.
Seed 0 is the corpus exactly as shipped: manifest order, canonical labels.

Product entries (``A*B``) keep their labels because the harness embeds the
factors on the canonical labelling (``_product_quotient_facts``).

Workers of the ``--jobs 2`` workload rebuild groups by name, so labels cannot
be varied there, and its entry order stays the manifest order for every seed:
with 7 entries on 2 workers the order alone moved the pool's wall time by up
to 30% between seeds (16.4-21.9 s), which would hide the changes the workload
is there to show.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from subconj.groups import Group
from subconj.harness import CorpusEntry, CorpusManifest
from subconj.perms import Permutation
from subconj.zoo import construct

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Orders 336..720, at or below full_subgroup_cap: dominated by full subgroup
# enumeration.  SL2(11), SL2(9) and PSL2(13) take the same path but are left
# out to keep one pass near half a minute.
FULL_ENUM = (
    "Symmetric(6)",
    "SL2(8)",
    "PSL2(11)",
    "SL2(7)",
    "PSL2(8)",
    "Alternating(6)",
    "PSL2(9)",
)
# Orders above full_subgroup_cap: every undecided verdict of the corpus.
ABOVE_CAP = ("E32x(C31xC5)", "SL2(13)", "M11")
SMALL_ORDER = 120


@dataclass(frozen=True)
class Workload:
    name: str
    entries: tuple
    jobs: int = 1


def load_reference():
    with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def small_sweep_names():
    """Default manifest entries of order <= SMALL_ORDER, in manifest order."""
    return tuple(
        e.name
        for e in CorpusManifest.default().entries
        if construct(e.name).order() <= SMALL_ORDER
    )


def workloads(reference):
    # the small-sweep list is frozen in the reference so that set-up does not
    # construct the whole manifest to filter it
    small = tuple(reference["workloads"]["small-sweep"]["entries"])
    return {
        w.name: w
        for w in (
            Workload("full-enum", FULL_ENUM),
            Workload("above-cap", ABOVE_CAP),
            Workload("small-sweep", small),
            Workload("full-enum-jobs2", FULL_ENUM, jobs=2),
        )
    }


def check_names(workload):
    """Every entry must be a default-manifest name."""
    known = {e.name for e in CorpusManifest.default().entries}
    unknown = [n for n in workload.entries if n not in known]
    if unknown:
        raise ValueError(f"{workload.name}: not in the default manifest: {unknown}")


@dataclass(frozen=True)
class EntryInput:
    """One generated input: the entry name and its (relabelled) generators."""

    name: str
    degree: int
    images: tuple  # 0-based image tuples, one per generator


def entry_order(workload, seed):
    names = list(workload.entries)
    if seed and workload.jobs == 1:
        random.Random(f"order/{workload.name}/{seed}").shuffle(names)
    return names


def relabel(images, degree, rng):
    """Conjugate every generator by a random point permutation sigma:
    the image of sigma(i) is sigma(g(i))."""
    sigma = list(range(degree))
    rng.shuffle(sigma)
    out = []
    for t in images:
        img = [0] * degree
        for i in range(degree):
            img[sigma[i]] = sigma[t[i]]
        out.append(tuple(img))
    return tuple(out)


def make_inputs(workload, seed):
    """Seeded inputs of a serial workload, in the seeded entry order."""
    inputs = []
    for name in entry_order(workload, seed):
        g = construct(name)
        images = tuple(p._t for p in g.generators)
        if seed and "*" not in name:
            # per-entry stream, so an entry's labels do not depend on order
            images = relabel(images, g.degree, random.Random(f"label/{name}/{seed}"))
        inputs.append(EntryInput(name, g.degree, images))
    return inputs


@dataclass(frozen=True)
class PrebuiltEntry(CorpusEntry):
    """A corpus entry whose build() hands out an already built group."""

    group: object = None

    def build(self):
        return self.group


def build_entries(inputs):
    """Fresh groups for one pass; lazy caches must not carry over."""
    return [
        PrebuiltEntry(
            inp.name,
            group=Group(
                [Permutation._from0(t) for t in inp.images], degree=inp.degree
            ),
        )
        for inp in inputs
    ]
