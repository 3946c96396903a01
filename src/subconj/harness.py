"""Corpus runner, check registry and report serialization.

Each corpus entry is analyzed into a plain-data :class:`GroupRecord`; the
registered checks consume only those records, so corpus analysis can run in
worker processes and report output stays byte-identical across runs.  A check
that fails on the bundled corpus indicates a defect in this package, not a
mathematical discovery; failures therefore carry re-verifiable witnesses.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial
from itertools import compress
from math import gcd

from .fields import prime_powers
from .groups import center, is_normal, quotient
from .predicates import (
    MEMBER,
    NON_MEMBER,
    UNDECIDED,
    ClassId,
    decide,
    hierarchy_report,
)
from .structure import (
    StructuralFingerprint,
    derived_subgroup,
    fitting_subgroup,
    is_isomorphic_small,
    is_solvable,
    normal_subgroups,
    o_pprime,
    prime_factors,
    structural_fingerprint,
    sylow_shape,
    sylow_subgroup,
)
from .zoo import SEMIDIRECT_DATASETS, SUPPORTED_Q, _split_product, construct


@dataclass(frozen=True)
class CorpusEntry:
    name: str

    def build(self):
        return construct(self.name)


# manifest keys that once set a cap, and where that cap is set now
_REMOVED_KEYS = {"full_cap": "set SUBCONJ_FULL_SUBGROUP_CAP instead"}


@dataclass
class CorpusManifest:
    entries: list

    @classmethod
    def default(cls):
        names = []
        names += [f"Cyclic({n})" for n in range(1, 33)]
        names += [
            f"ElementaryAbelian({p},{k})" for p in (2, 3, 5) for k in (2, 3)
        ]
        names += [f"Dihedral({n})" for n in range(3, 17)]
        names += [f"GeneralizedQuaternion({n})" for n in (8, 16, 32)]
        names += [f"Symmetric({n})" for n in range(2, 7)]
        names += [f"Alternating({n})" for n in range(3, 7)]
        names += [f"SL2({q})" for q in SUPPORTED_Q]
        names += [f"PSL2({q})" for q in SUPPORTED_Q]
        names += sorted(SEMIDIRECT_DATASETS)
        names += ["M11"]
        names += [
            "Alternating(4)*Cyclic(5)",
            "SL2(3)*Cyclic(5)",
            "GeneralizedQuaternion(8)*Cyclic(7)",
            "Alternating(5)*Cyclic(7)",
            "SL2(5)*Cyclic(7)",
        ]
        return cls([CorpusEntry(n) for n in names])

    @classmethod
    def from_json(cls, path):
        """Read ``{"entries": [{"id": name}, ...]}``.  Malformed input, an
        entry key other than ``id`` included, raises ValueError naming the
        file and the entry index.  Caps come from ``SUBCONJ_*``, not from
        the manifest."""
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: {exc}") from None
        items = data.get("entries") if isinstance(data, dict) else None
        if not isinstance(items, list):
            raise ValueError(f"{path}: expected an object with an 'entries' list")
        entries = []
        for i, item in enumerate(items):
            if not isinstance(item, dict) or not isinstance(item.get("id"), str):
                raise ValueError(f"{path}: entry {i} has no string 'id'")
            for key in item:
                if key != "id":
                    hint = _REMOVED_KEYS.get(key, 'an entry is {"id": NAME}')
                    raise ValueError(f"{path}: entry {i}: key {key!r} is not allowed; {hint}")
            entries.append(CorpusEntry(item["id"]))
        return cls(entries)


@dataclass
class GroupRecord:
    """Everything the checks and reports need about one corpus group."""

    name: str
    order: int
    solvable: bool
    sylow_shapes: list  # [{"p", "tag", "order", "rank"}]
    verdicts: dict  # class value -> verdict string
    witnesses: list  # serialized witness dicts
    facts: dict = field(default_factory=dict)

    def verdict(self, class_id):
        return self.verdicts[class_id.value]


# T5's odd-order condition cannot be dropped: SL2(7) is in A_pi, and its
# quotient by the center (of order 2) is not
_T5_REMARK_GROUP = "SL2(7)"

# The allowed G/O_2'(G) targets besides cyclic 2-groups, each with its
# structural_fingerprint, so that a quotient above iso_cap is compared with a
# stored value and no copy of the target is built.  tests/test_harness.py
# checks every value against the fingerprint of construct(name).
_T12_TARGETS = {
    "E4xC3": StructuralFingerprint(
        order=12,
        element_orders=((1, 1), (2, 3), (3, 8)),
        sylow_shapes=((2, "ElementaryAbelian", 4, 2), (3, "Cyclic", 3, 0)),
        solvable=True,
        nilpotent=False,
        center_order=1,
        derived_order=4,
    ),
    "E8x(C7xC3)": StructuralFingerprint(
        order=168,
        element_orders=((1, 1), (2, 7), (3, 56), (6, 56), (7, 48)),
        sylow_shapes=(
            (2, "ElementaryAbelian", 8, 3),
            (3, "Cyclic", 3, 0),
            (7, "Cyclic", 7, 0),
        ),
        solvable=True,
        nilpotent=False,
        center_order=1,
        derived_order=56,
    ),
    "E8xC7": StructuralFingerprint(
        order=56,
        element_orders=((1, 1), (2, 7), (7, 48)),
        sylow_shapes=((2, "ElementaryAbelian", 8, 3), (7, "Cyclic", 7, 0)),
        solvable=True,
        nilpotent=False,
        center_order=1,
        derived_order=8,
    ),
    "E32x(C31xC5)": StructuralFingerprint(
        order=4960,
        element_orders=((1, 1), (2, 31), (5, 1984), (10, 1984), (31, 960)),
        sylow_shapes=(
            (2, "ElementaryAbelian", 32, 5),
            (5, "Cyclic", 5, 0),
            (31, "Cyclic", 31, 0),
        ),
        solvable=True,
        nilpotent=False,
        center_order=1,
        derived_order=992,
    ),
    "Q8xC3": StructuralFingerprint(
        order=24,
        element_orders=((1, 1), (2, 1), (3, 8), (4, 6), (6, 8)),
        sylow_shapes=((2, "QuaternionQ8", 8, 0), (3, "Cyclic", 3, 0)),
        solvable=True,
        nilpotent=False,
        center_order=2,
        derived_order=8,
    ),
}

_T12_SHAPES_OK = (
    lambda s: s["tag"] == "Cyclic",
    lambda s: s["tag"] == "ElementaryAbelian" and s["p"] != 2 and s["rank"] in (2, 3),
    lambda s: s["tag"] == "ElementaryAbelian" and s["p"] == 2 and s["rank"] in (2, 3, 5),
    lambda s: s["tag"] == "QuaternionQ8",
)


def _serialize_witness(witness, rendered):
    """The witness as a report dict.  ``rendered`` maps a subgroup's index
    set to its element strings, so a subgroup quoted by several witnesses of
    one record is formatted once."""

    def strings(sub):
        if sub.indices not in rendered:
            rendered[sub.indices] = tuple(str(p) for p in sub.elements())
        return list(rendered[sub.indices])

    return {
        "class": witness.class_id.value,
        "kind": witness.kind,
        "prime": witness.prime,
        "order": witness.order,
        "subgroup_a": strings(witness.sub_a),
        "subgroup_b": strings(witness.sub_b),
        "verified": witness.method,
    }


def _match_t12_target(group):
    """Match G/O_2'(G) against the allowed quotient targets; (name, level) or
    None.  Such a quotient has no odd-order normal subgroup, so it is cyclic
    only as a cyclic 2-group."""
    if group.full_subgroup().is_cyclic():
        a = group.order().bit_length() - 1
        return f"C_2^{a}", "exact"
    for name, fingerprint in _T12_TARGETS.items():
        if fingerprint.order != group.order():
            continue
        if group.order() <= group.caps.iso_cap:
            if is_isomorphic_small(group, construct(name)):
                return name, "exact"
        elif structural_fingerprint(group) == fingerprint:
            return name, "fingerprint"
    return None


def _sylow_has_c4_and_e4(group, syl):
    """Disqualifying pair for the Suzuki alternative: a cyclic and a
    non-cyclic abelian subgroup of order 4 inside the given 2-subgroup."""
    mul = group.mul_idx
    has_c4 = any(group.order_of_idx(i) == 4 for i in syl.indices)
    invs = [i for i in sorted(syl.indices) if group.order_of_idx(i) == 2]
    has_e4 = any(
        mul(a, b) == mul(b, a)
        for k, a in enumerate(invs)
        for b in invs[k + 1 :]
    )
    return has_c4 and has_e4


def analyze_group(group, name, classes=tuple(ClassId)):
    """Verdicts, solvability and Sylow shapes of one group, without facts.

    Classes outside ``classes`` are reported "undecided".  The Sylow
    subgroups are kept in the group's ``analysis_cache`` for the facts pass
    and ``structural_fingerprint``.  Only the analysed group keeps them: a
    kept Subgroup refers back to its group, and that cycle would hold a
    target built for the exact T12 match until the cyclic collector runs.
    """
    report = hierarchy_report(group, group_id=name, classes=classes)
    solvable = is_solvable(group)
    shapes = []
    for p in prime_factors(group.order()):
        syl = group.analysis_cache["sylow", p] = sylow_subgroup(group, p)
        s = sylow_shape(syl)
        shapes.append({"p": p, "tag": s.tag, "order": s.order, "rank": s.rank})
    rendered = {}
    record = GroupRecord(
        name=name,
        order=group.order(),
        solvable=solvable,
        sylow_shapes=shapes,
        verdicts={cid.value: report.verdicts[cid] for cid in ClassId},
        witnesses=[
            _serialize_witness(report.witnesses[cid], rendered)
            for cid in ClassId
            if cid in report.witnesses
        ],
    )
    return record


def analyze_entry(entry):
    """Build and fully analyze one corpus entry into a GroupRecord.

    An exception that stops the entry, a cap hit included, gets a note
    naming the entry and the stage (build, verdicts or facts), which
    survives pickling out of a ``--jobs`` worker.
    """
    stage = "build"
    try:
        group = entry.build()
        stage = "verdicts"
        record = analyze_group(group, entry.name)
        stage = "facts"
        record.facts = _collect_facts(group, record)
    except Exception as exc:
        # what exc.add_note (Python 3.11+) appends to
        note = f"in corpus entry {entry.name}, stage {stage}"
        exc.__notes__ = [*getattr(exc, "__notes__", ()), note]
        raise
    return record


def _collect_facts(group, record):
    syl_by_p = {s["p"]: sylow_subgroup(group, s["p"]) for s in record.sylow_shapes}
    facts = {}
    a_pi = record.verdicts[ClassId.A_PI.value]
    solvable = record.solvable
    facts["all_sylow_cyclic"] = all(s["tag"] == "Cyclic" for s in record.sylow_shapes)
    if 2 in syl_by_p:
        s2 = syl_by_p[2]
        shape2 = next(s for s in record.sylow_shapes if s["p"] == 2)
        facts["sylow2_normal"] = is_normal(group, s2)
        if shape2["tag"] not in ("Cyclic", "ElementaryAbelian", "QuaternionQ8"):
            facts["suzuki_candidate"] = not _sylow_has_c4_and_e4(group, s2)

    if "*" in record.name:
        facts["factor_quotients"] = _product_quotient_facts(record.name, group)

    if record.name == _T5_REMARK_GROUP:
        v, w = decide(quotient(group, center(group)), ClassId.A_PI)
        facts["center_quotient_a_pi"] = [v, w.order if w is not None else None]

    if a_pi != MEMBER:
        return facts

    normals = normal_subgroups(group)
    facts["normal_c2"] = any(n.order == 2 for n in normals)
    facts["noncyclic_sylow_normal"] = {
        str(p): is_normal(group, syl)
        for p, syl in syl_by_p.items()
        if not syl.is_cyclic()
    }

    # A_pi verdicts of the quotients by proper normal subgroups: the
    # odd-order ones for every group (T5), all of them for solvable ones (T16)
    facts["normal_quotients"] = [
        [n.order, _quotient_a_pi(group, n)]
        for n in normals
        if 1 < n.order < group.order() and (n.order % 2 or solvable)
    ]

    if solvable:
        q = quotient(group, o_pprime(group, 2))
        matched = _match_t12_target(q)
        facts["o2prime_quotient"] = {
            "order": q.order(),
            "matched": matched[0] if matched else None,
            "level": matched[1] if matched else None,
        }
        facts["g_over_o2prime_cyclic2"] = q.full_subgroup().is_cyclic()

        if facts["all_sylow_cyclic"]:
            # G/N has cyclic Sylow subgroups too, so it is cyclic exactly
            # when it is abelian, that is when G' <= N
            derived = derived_subgroup(group)
            facts["metacyclic_or_cyclic"] = any(
                n.is_cyclic() and derived.indices <= n.indices for n in normals
            )
            facts["derived_coprime"] = (
                gcd(derived.order, group.order() // derived.order) == 1
            )

        shape2 = next((s for s in record.sylow_shapes if s["p"] == 2), None)
        if shape2 is not None and shape2["tag"] == "QuaternionQ8":
            if not facts.get("sylow2_normal"):
                v, _ = decide(quotient(group, fitting_subgroup(group)), ClassId.B)
                facts["gfg_b_verdict"] = v

    return facts


def _product_quotient_facts(name, group):
    """For A*B with coprime factors: A_pi verdicts of G/A-copy and G/B-copy,
    where the copy of A is the elements whose order divides |A|.  Only A is
    built; |B| = |G| / |A|."""
    parts = _split_product(name)
    if len(parts) != 2:
        return None
    a = construct(parts[0]).order()
    orders = [a, group.order() // a]
    if gcd(*orders) != 1:
        return None
    out = []
    for factor_name, k in zip(parts, orders):
        divides = group.order_mask(lambda o: k % o == 0)
        copy = group.subgroup_from_indices(compress(range(group.order()), divides))
        out.append([factor_name, _quotient_a_pi(group, copy)])
    return out


def _quotient_a_pi(group, n):
    """The A_pi verdict of G/N.  When |G:N| is squarefree, every Sylow
    subgroup of G/N has prime order, so its subgroups of each prime-power
    order are conjugate by Sylow's theorem: that is ``member`` without
    building G/N."""
    if all(e == 1 for e in prime_powers(group.order() // n.order).values()):
        return MEMBER
    return decide(quotient(group, n), ClassId.A_PI)[0]


def _worker(args):
    # a tuple, not a bare name: bench/tracing.py labels spans with args[0]
    return analyze_entry(CorpusEntry(*args))


def analyze_corpus(manifest, jobs=1):
    """Analyze every entry; order of the result follows the manifest."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    # a fork pool starts all its workers at once, so it gets no more than
    # there are entries
    workers = min(jobs, len(manifest.entries))
    if workers <= 1:
        return [analyze_entry(e) for e in manifest.entries]
    # imported here: the pool loads multiprocessing, which a serial run
    # never needs
    from concurrent.futures import ProcessPoolExecutor

    args = [(e.name,) for e in manifest.entries]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_worker, args))


# ----------------------------------------------------------------------
# check registry


@dataclass
class CheckResult:
    check_id: str
    status: str  # pass | fail | vacuous | skipped
    details: str


def _resolve(check_id, failures, instances, skipped, notes=()):
    parts = list(notes)
    if failures:
        return CheckResult(check_id, "fail", "; ".join(failures + parts))
    if instances == 0:
        return CheckResult(check_id, "vacuous", "; ".join(["no corpus instance"] + parts))
    if skipped and skipped == instances:
        return CheckResult(check_id, "skipped", "; ".join(parts + ["all instances capped"]))
    parts.insert(0, f"{instances} instance(s)")
    if skipped:
        parts.append(f"{skipped} capped instance(s) skipped")
    return CheckResult(check_id, "pass", "; ".join(parts))


def _tally(check_id, claims, failures=(), notes=()):
    """Resolve a check from its instances' claims, one list per instance.

    A claim (verdict, failure) says that the theorem puts the verdict at
    ``member``: a decided ``non-member`` is that failure, and an
    ``undecided`` one, left by a cap, skips the instance and fails nothing.
    ``failures`` are those found without a verdict."""
    failures = [f for c in claims for v, f in c if v == NON_MEMBER] + list(failures)
    skipped = sum(any(v == UNDECIDED for v, _ in c) for c in claims)
    return _resolve(check_id, failures, len(claims), skipped, notes)


def _capped_witness(check_id, what, notes):
    """A check whose required corpus witness is missing, where an undecided
    verdict may hide it: the check is skipped, as a capped instance."""
    parts = [*notes, f"witness for {what} capped"]
    return CheckResult(check_id, "skipped", "; ".join(parts))


def _may_witness(records, class_in, class_out):
    """Whether some record with an undecided verdict could lie in
    ``class_in`` but not in ``class_out``."""
    return any(
        UNDECIDED in (a, b) and a != NON_MEMBER and b != MEMBER
        for a, b in ((r.verdict(class_in), r.verdict(class_out)) for r in records)
    )


# the claims of an instance whose hypothesis a cap left undecided
_CAPPED = [(UNDECIDED, None)]


def _members(records, class_id, solvable=None):
    """(members, capped): the records in ``class_id``, and those a cap left
    undecided there, of the given solvability.  The theorem's hypothesis is
    open for a capped record, so nothing of it is checked: each check counts
    it by the claims ``_CAPPED``, a skipped instance, once per instance it
    would be where the Sylow shapes tell, else once.  The facts that only
    members gather say nothing of it."""
    members, capped = [], []
    for r in records:
        if solvable is not None and r.solvable != solvable:
            continue
        v = r.verdict(class_id)
        if v == MEMBER:
            members.append(r)
        elif v == UNDECIDED:
            capped.append(r)
    return members, capped


def _check_t1_t4(records):
    wanted = {
        "PSL2(8)": (ClassId.B_PI, ClassId.B),
        "SL2(5)": (ClassId.B,),
        "Alternating(5)": (ClassId.B,),
    }
    by_name = {r.name: r for r in records}
    claims, notes = [], []
    for name, cids in wanted.items():
        r = by_name.get(name)
        if r is not None:
            claims.append([(r.verdict(c), f"{name} not in {c.value}") for c in cids])
            notes += [f"{name} in {c.value}" for c in cids if r.verdict(c) == MEMBER]
    return _tally("T1-T4", claims, notes=notes)


def _check_t5(records, check_id="T5", solvable=None, odd_only=True):
    """T5, and with ``solvable=True, odd_only=False`` T16: the quotients of
    A_pi members by proper normal subgroups stay in A_pi."""
    members, capped = _members(records, ClassId.A_PI, solvable)
    claims = [
        [(v, f"{r.name}/N(order {n}) left A_pi")]
        for r in members
        for n, v in r.facts.get("normal_quotients", [])
        if n % 2 or not odd_only
    ]
    return _tally(check_id, claims + [_CAPPED] * len(capped))


def _check_t5_remark(records):
    r = next((r for r in records if r.name == _T5_REMARK_GROUP), None)
    if r is None:
        return CheckResult("T5-remark", "vacuous", "SL2(7) not in corpus")
    a_pi = r.verdict(ClassId.A_PI)
    v, w_order = r.facts["center_quotient_a_pi"]
    # the remark says SL2(7)/Z is not in A_pi: a member is the failure
    outside = {MEMBER: NON_MEMBER, NON_MEMBER: MEMBER}.get(v, v)
    claims = [
        (a_pi, "SL2(7) should be in A_pi"),
        (outside, "SL2(7)/Z should not be in A_pi"),
    ]
    failures, notes = [], []
    if v == NON_MEMBER and w_order != 4:
        failures.append(f"expected an order-4 witness, got order {w_order}")
    elif (a_pi, v) == (MEMBER, NON_MEMBER):
        notes.append("quotient by the center drops out of A_pi at order 4")
    return _tally("T5-remark", [claims], failures, notes)


def _check_t9(records):
    members, capped = _members(records, ClassId.A_PI, solvable=False)
    failures = []
    for r in members:
        for s in r.sylow_shapes:
            if s["p"] == 2:
                continue
            if s["tag"] not in ("Cyclic", "ElementaryAbelian"):
                failures.append(f"{r.name}: Syl_{s['p']} has shape {s['tag']}")
    return _tally("T9", [[]] * len(members) + [_CAPPED] * len(capped), failures)


def _check_t10(records):
    allowed_ea_ranks = (2, 3, 5)
    members, capped = _members(records, ClassId.A_PI, solvable=False)
    failures = []
    for r in members:
        s = next((x for x in r.sylow_shapes if x["p"] == 2), None)
        if s is None:
            failures.append(f"{r.name}: non-solvable but odd order")
            continue
        ok = s["tag"] in ("QuaternionQ8", "GeneralizedQuaternion") or (
            s["tag"] == "ElementaryAbelian" and s["rank"] in allowed_ea_ranks
        )
        if not ok:
            failures.append(f"{r.name}: Syl_2 has shape {s['tag']}({s['order']})")
    return _tally("T10", [[]] * len(members) + [_CAPPED] * len(capped), failures)


def _check_t11(records):
    members, capped = _members(records, ClassId.C_PI, solvable=True)
    failures, notes = [], []
    for r in members:
        for s in r.sylow_shapes:
            if s["tag"] in ("Cyclic", "ElementaryAbelian", "QuaternionQ8"):
                continue
            if s["p"] == 2 and r.facts.get("suzuki_candidate"):
                notes.append(
                    f"{r.name}: Syl_2 reported as Suzuki-type candidate (not classified)"
                )
                continue
            failures.append(f"{r.name}: Syl_{s['p']} has shape {s['tag']}")
    claims = [[]] * len(members) + [_CAPPED] * len(capped)
    return _tally("T11", claims, failures, notes)


def _check_t12(records):
    members, capped = _members(records, ClassId.A_PI, solvable=True)
    failures, notes = [], []
    exact_hits, fingerprint_hits = [], []
    for r in members:
        for s in r.sylow_shapes:
            if not any(ok(s) for ok in _T12_SHAPES_OK):
                failures.append(f"{r.name}: Syl_{s['p']} shape {s['tag']} not allowed")
        info = r.facts.get("o2prime_quotient")
        if info is None:
            continue
        if info["matched"] is None:
            failures.append(
                f"{r.name}: G/O_2'(G) (order {info['order']}) matches no target"
            )
        elif info["level"] == "exact":
            exact_hits.append(f"{r.name}->{info['matched']}")
        else:
            fingerprint_hits.append(info["matched"])
            notes.append(
                f"{r.name}: order {info['order']} matched {info['matched']} "
                "by fingerprint only"
            )
    if exact_hits:
        notes.append("exact matches: " + ", ".join(sorted(exact_hits)))
    if not failures and not any("Q8xC3" in h for h in exact_hits):
        # the witness may be a fingerprint match that iso_cap kept from the
        # exact test, or a solvable group with a capped A_pi verdict
        if "Q8xC3" in fingerprint_hits or capped:
            return _capped_witness("T12", "SL(2,3)-type target", notes)
        failures.append("no corpus witness matched the SL(2,3)-type target exactly")
    claims = [[]] * len(members) + [_CAPPED] * len(capped)
    return _tally("T12", claims, failures, notes)


def _check_c13(records):
    members, capped = _members(records, ClassId.A_PI, solvable=True)
    failures, claims = [], []
    for r in members:
        normal_map = r.facts.get("noncyclic_sylow_normal", {})
        for s in r.sylow_shapes:
            if s["tag"] == "Cyclic":
                continue
            claims.append([])
            if s["tag"] == "QuaternionQ8":
                continue
            if not normal_map.get(str(s["p"])):
                failures.append(f"{r.name}: non-cyclic Syl_{s['p']} not normal")
    claims += [_CAPPED for r in capped for s in r.sylow_shapes if s["tag"] != "Cyclic"]
    return _tally("C13", claims, failures)


def _check_c14(records):
    r = next((r for r in records if r.name == "E25xSL(2,3)"), None)
    if r is None:
        return CheckResult("C14", "vacuous", "E25xSL(2,3) not in corpus")
    failures, notes = [], []
    s2 = next(s for s in r.sylow_shapes if s["p"] == 2)
    if s2["tag"] != "QuaternionQ8":
        failures.append(f"Syl_2 shape is {s2['tag']}, expected QuaternionQ8")
    if r.facts.get("sylow2_normal"):
        failures.append("Syl_2 unexpectedly normal")
    v = r.verdict(ClassId.B)
    if v == MEMBER and not failures:
        notes.append("quaternion Sylow-2 exists non-normally in a B-group")
    return _tally("C14", [[(v, "E25xSL(2,3) should be in B")]], failures, notes)


def _check_t15(records):
    members, capped = _members(records, ClassId.A_PI, solvable=True)
    claims = [
        [(r.verdict(ClassId.B_PI), f"{r.name}: solvable A_pi member outside B_pi")]
        for r in members
    ]
    return _tally("T15", claims + [_CAPPED] * len(capped))


def _check_t17(records):
    claims, notes = [], []
    for r in records:
        fq = r.facts.get("factor_quotients")
        if not fq:
            continue
        hypothesis = [v for _, v in fq]
        if NON_MEMBER in hypothesis:
            notes.append(f"{r.name}: hypothesis fails (vacuous instance)")
        elif all(v == MEMBER for v in hypothesis):
            failure = f"{r.name}: coprime quotients in A_pi but product is not"
            claims.append([(r.verdict(ClassId.A_PI), failure)])
        else:  # a capped hypothesis: the product's verdict proves nothing
            claims.append([(v, None) for v in hypothesis])
    return _tally("T17", claims, notes=notes)


def _check_t20_case1(records):
    members, capped = _members(records, ClassId.A_PI, solvable=True)
    claims = [_CAPPED for r in capped if r.facts.get("all_sylow_cyclic")]
    failures = []
    for r in members:
        if not r.facts.get("all_sylow_cyclic"):
            continue
        if r.facts.get("metacyclic_or_cyclic") is False:
            failures.append(f"{r.name}: not metacyclic or cyclic")
        if r.facts.get("derived_coprime") is False:
            failures.append(f"{r.name}: derived subgroup order not coprime to index")
        failure = f"{r.name}: all-Sylow-cyclic member outside B"
        claims.append([(r.verdict(ClassId.B), failure)])
    return _tally("T20-case1", claims, failures)


def _has_q8_sylow(r):
    return any(s["p"] == 2 and s["tag"] == "QuaternionQ8" for s in r.sylow_shapes)


def _check_t20_case5(records):
    members, capped = _members(records, ClassId.A_PI, solvable=True)
    claims = [_CAPPED for r in capped if _has_q8_sylow(r)]
    notes = []
    for r in members:
        if not _has_q8_sylow(r):
            continue
        if r.facts.get("sylow2_normal"):
            notes.append(f"{r.name}: Q8 Sylow normal")
            claims.append([])
            continue
        v = r.facts["gfg_b_verdict"]
        if v == MEMBER:
            notes.append(f"{r.name}: Q8 not normal, G/F(G) in B")
        claims.append([(v, f"{r.name}: Q8 not normal and G/F(G) outside B")])
    return _tally("T20-case5", claims, notes=notes)


def _check_t20_case6(records):
    members, capped = _members(records, ClassId.A_PI, solvable=True)
    claims, failures = [_CAPPED] * len(capped), []
    for r in members:
        if not r.facts.get("normal_c2"):
            continue
        claims.append([])
        s2 = next(s for s in r.sylow_shapes if s["p"] == 2)
        if s2["tag"] == "Cyclic":
            if not r.facts.get("g_over_o2prime_cyclic2"):
                failures.append(f"{r.name}: G/O_2'(G) is not the cyclic Sylow-2")
        elif s2["tag"] == "QuaternionQ8":
            if not r.facts.get("sylow2_normal"):
                failures.append(f"{r.name}: quaternion Sylow-2 not normal")
        else:
            failures.append(f"{r.name}: normal C2 with Syl_2 shape {s2['tag']}")
    return _tally("T20-case6", claims, failures)


def _check_hierarchy(records):
    failures, notes = [], []
    for r in records:
        trio = [r.verdicts[c.value] for c in (ClassId.B_PI, ClassId.H_PI, ClassId.N_PI)]
        decided = {v for v in trio if v != UNDECIDED}
        if len(decided) > 1:
            failures.append(f"{r.name}: B_pi/H_pi/N_pi verdicts disagree")
    capped = []
    for big, small in ((ClassId.A_PI, ClassId.N_PI), (ClassId.C_PI, ClassId.A_PI)):
        above = f"{big.value} strictly above {small.value}"
        hit = witness_search(records, big, small)
        if hit is not None:
            notes.append(
                f"{small.value} < {big.value} witnessed by {hit.name} (order {hit.order})"
            )
        elif _may_witness(records, big, small):
            capped.append(above)
        else:
            failures.append(f"no corpus witness for {above}")
    if capped and not failures:
        return _capped_witness("hierarchy", " and ".join(capped), notes)
    return _resolve("hierarchy", failures, len(records), 0, notes)


CHECKS = (
    ("T1-T4", "named groups land in B/B_pi", _check_t1_t4),
    ("T5", "quotients by odd-order normals stay in A_pi", _check_t5),
    ("T5-remark", "the odd-order condition cannot be dropped", _check_t5_remark),
    ("T9", "non-solvable members: odd Sylows cyclic or elementary abelian", _check_t9),
    ("T10", "non-solvable members: Sylow-2 in the five allowed shapes", _check_t10),
    ("T11", "solvable C_pi members: Sylow shape catalogue", _check_t11),
    ("T12", "solvable members: shapes and G/O_2'(G) targets", _check_t12),
    ("C13", "non-cyclic Sylows of solvable members are normal or Q8", _check_c13),
    ("C14", "a B-group with non-normal quaternion Sylow-2 exists", _check_c14),
    ("T15", "solvable A_pi members lie in B_pi", _check_t15),
    (
        "T16",
        "solvable members: every quotient stays in A_pi",
        partial(_check_t5, check_id="T16", solvable=True, odd_only=False),
    ),
    ("T17", "coprime quotient membership lifts to the product", _check_t17),
    ("T20-case1", "all-Sylow-cyclic members: metacyclic B-groups", _check_t20_case1),
    ("T20-case5", "quaternion Sylow: normal or G/F(G) in B", _check_t20_case5),
    ("T20-case6", "normal C2 forces the 2-nilpotent alternatives", _check_t20_case6),
    ("hierarchy", "forced equalities and strictness witnesses", _check_hierarchy),
)

CHECK_IDS = tuple(cid for cid, _, _ in CHECKS)


def run_checks(records, only=None):
    results = []
    for cid, _desc, fn in CHECKS:
        if only is not None and cid not in only:
            continue
        results.append(fn(records))
    return results


def witness_search(records, class_in, class_out):
    """Smallest corpus group in the first class but not the second."""
    if not isinstance(class_in, ClassId):
        class_in = ClassId(class_in)
    if not isinstance(class_out, ClassId):
        class_out = ClassId(class_out)
    hits = [
        r
        for r in records
        if r.verdict(class_in) == MEMBER and r.verdict(class_out) == NON_MEMBER
    ]
    if not hits:
        return None
    return min(hits, key=lambda r: (r.order, r.name))


# ----------------------------------------------------------------------
# report serialization


def report_document(records, results):
    groups = []
    for r in records:
        groups.append(
            {
                "id": r.name,
                "order": r.order,
                "solvable": r.solvable,
                "sylow_shapes": [
                    {"p": s["p"], "tag": s["tag"], "order": s["order"]}
                    for s in r.sylow_shapes
                ],
                "classes": {cid.value: r.verdicts[cid.value] for cid in ClassId},
                "witnesses": r.witnesses,
            }
        )
    checks = [
        {"id": c.check_id, "status": c.status, "details": c.details} for c in results
    ]
    return {"groups": groups, "checks": checks}


def emit_report(records, results, fmt="json"):
    doc = report_document(records, results)
    if fmt == "json":
        return json.dumps(doc, indent=2, sort_keys=False) + "\n"
    if fmt == "markdown":
        return _markdown_report(doc)
    raise ValueError(f"unknown report format {fmt!r}")


def _markdown_report(doc):
    lines = ["# Corpus report", "", "## Groups", ""]
    lines.append("| id | order | solvable | Sylow shapes | " + " | ".join(c.value for c in ClassId) + " |")
    lines.append("|" + "---|" * (4 + len(ClassId)))
    for g in doc["groups"]:
        shapes = ", ".join(f"{s['p']}:{s['tag']}({s['order']})" for s in g["sylow_shapes"])
        row = [
            g["id"],
            str(g["order"]),
            "yes" if g["solvable"] else "no",
            shapes or "-",
        ]
        row += [g["classes"][c.value] for c in ClassId]
        lines.append("| " + " | ".join(row) + " |")
    lines += ["", "## Checks", "", "| id | status | details |", "|---|---|---|"]
    for c in doc["checks"]:
        lines.append(f"| {c['id']} | {c['status']} | {c['details']} |")
    lines.append("")
    return "\n".join(lines)
