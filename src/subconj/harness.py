"""Corpus runner, check registry and report serialization.

Each corpus entry is analyzed into a plain-data :class:`GroupRecord`; the
registered checks consume only those records, so corpus analysis can run in
worker processes and report output stays byte-identical across runs.  A check
that fails on the bundled corpus indicates a defect in this package, not a
mathematical discovery; failures therefore carry re-verifiable witnesses.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from math import gcd

from .caps import CapExceeded
from .groups import Group, center, direct_factors_embedded, is_normal, quotient
from .predicates import (
    MEMBER,
    NON_MEMBER,
    UNDECIDED,
    ClassId,
    decide,
    hierarchy_report,
)
from .structure import (
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
    # when set, build() gives the group (and so its quotients) this
    # full_subgroup_cap in place of the default
    full_cap: int | None = None

    def build(self):
        group = construct(self.name)
        if self.full_cap is None:
            return group
        caps = replace(group.caps, full_subgroup_cap=self.full_cap)
        return Group(group.generators, degree=group.degree, caps=caps)


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
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        entries = []
        for item in data["entries"]:
            entries.append(
                CorpusEntry(name=item["id"], full_cap=item.get("full_cap"))
            )
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


_T12_TARGET_NAMES = ("E4xC3", "E8x(C7xC3)", "E8xC7", "E32x(C31xC5)", "Q8xC3")

_T12_SHAPES_OK = (
    lambda s: s["tag"] == "Cyclic",
    lambda s: s["tag"] == "ElementaryAbelian" and s["p"] != 2 and s["rank"] in (2, 3),
    lambda s: s["tag"] == "ElementaryAbelian" and s["p"] == 2 and s["rank"] in (2, 3, 5),
    lambda s: s["tag"] == "QuaternionQ8",
)


def _serialize_witness(witness):
    a, b = witness.element_lists()
    return {
        "class": witness.class_id.value,
        "kind": witness.kind,
        "prime": witness.prime,
        "order": witness.order,
        "subgroup_a": list(a),
        "subgroup_b": list(b),
        "verified": witness.method,
    }


def _match_t12_target(group):
    """Match G/O_2'(G) against the allowed quotient targets; (name, level) or
    None.  Such a quotient has no odd-order normal subgroup, so it is cyclic
    only as a cyclic 2-group."""
    if group.full_subgroup().is_cyclic():
        a = group.order().bit_length() - 1
        return f"C_2^{a}", "exact"
    for name in _T12_TARGET_NAMES:
        if SEMIDIRECT_DATASETS[name][1] != group.order():
            continue
        target = construct(name)
        if group.order() <= group.caps.iso_cap:
            if is_isomorphic_small(group, target):
                return name, "exact"
        elif structural_fingerprint(group) == structural_fingerprint(target):
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

    Classes outside ``classes`` are reported "undecided".  Returns the
    GroupRecord and the Sylow subgroup per prime, for the facts pass.
    """
    report = hierarchy_report(group, group_id=name, classes=classes)
    solvable = is_solvable(group)
    shapes = []
    syl_by_p = {}
    for p in prime_factors(group.order()):
        syl = sylow_subgroup(group, p)
        syl_by_p[p] = syl
        s = sylow_shape(syl)
        shapes.append({"p": p, "tag": s.tag, "order": s.order, "rank": s.rank})
    record = GroupRecord(
        name=name,
        order=group.order(),
        solvable=solvable,
        sylow_shapes=shapes,
        verdicts={cid.value: report.verdicts[cid] for cid in ClassId},
        witnesses=[
            _serialize_witness(report.witnesses[cid])
            for cid in ClassId
            if cid in report.witnesses
        ],
    )
    return record, syl_by_p


def analyze_entry(entry):
    """Build and fully analyze one corpus entry into a GroupRecord.

    A cap that stops the whole entry is re-raised with the entry's name.
    """
    try:
        group = entry.build()
        record, syl_by_p = analyze_group(group, entry.name)
        record.facts = _collect_facts(group, record, syl_by_p)
    except CapExceeded as exc:
        exc.entry = entry.name
        raise
    return record


def _collect_facts(group, record, syl_by_p):
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
    odd, proper = [], []
    for n in normals:
        odd_order = n.order % 2 == 1
        if 1 < n.order < group.order() and (odd_order or solvable):
            v, _ = decide(quotient(group, n), ClassId.A_PI)
            proper.append([n.order, v])
            if odd_order:
                odd.append([n.order, v])
    facts["odd_normal_quotients"] = odd

    if solvable:
        facts["proper_quotients"] = proper

        o2p = o_pprime(group, 2)
        if o2p.order == 1:
            q = group
        else:
            q = quotient(group, o2p)
        matched = _match_t12_target(q)
        facts["o2prime_quotient"] = {
            "order": q.order(),
            "matched": matched[0] if matched else None,
            "level": matched[1] if matched else None,
        }
        facts["g_over_o2prime_cyclic2"] = q.full_subgroup().is_cyclic()

        if facts["all_sylow_cyclic"]:
            facts["metacyclic_or_cyclic"] = _is_metacyclic_or_cyclic(group, normals)
            derived = derived_subgroup(group)
            facts["derived_coprime"] = (
                gcd(derived.order, group.order() // derived.order) == 1
            )

        shape2 = next((s for s in record.sylow_shapes if s["p"] == 2), None)
        if shape2 is not None and shape2["tag"] == "QuaternionQ8":
            if not facts.get("sylow2_normal"):
                fit = fitting_subgroup(group)
                qf = quotient(group, fit) if fit.order > 1 else group
                v, _ = decide(qf, ClassId.B)
                facts["gfg_b_verdict"] = v

    return facts


def _is_metacyclic_or_cyclic(group, normals):
    for n in normals:
        if not n.is_cyclic():
            continue
        q = quotient(group, n) if n.order > 1 else group
        if q.full_subgroup().is_cyclic():
            return True
    return False


def _product_quotient_facts(name, group):
    """For A*B with coprime factors: A_pi verdicts of G/A-copy and G/B-copy."""
    parts = _split_product(name)
    if len(parts) != 2:
        return None
    a = construct(parts[0])
    b = construct(parts[1])
    if gcd(a.order(), b.order()) != 1:
        return None
    sub_a, sub_b = direct_factors_embedded(group, a, b)
    out = []
    for factor_name, sub in ((parts[0], sub_a), (parts[1], sub_b)):
        q = quotient(group, sub)
        v, _ = decide(q, ClassId.A_PI)
        out.append([factor_name, v])
    return out


def _worker(args):
    name, full_cap = args
    return analyze_entry(CorpusEntry(name, full_cap))


def analyze_corpus(manifest, jobs=1):
    """Analyze every entry; order of the result follows the manifest."""
    if jobs <= 1:
        return [analyze_entry(e) for e in manifest.entries]
    args = [(e.name, e.full_cap) for e in manifest.entries]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
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


def _members(records, class_id, solvable=None):
    out = []
    for r in records:
        if r.verdict(class_id) != MEMBER:
            continue
        if solvable is not None and r.solvable != solvable:
            continue
        out.append(r)
    return out


def _check_t1_t4(records):
    wanted = {
        "PSL2(8)": (ClassId.B_PI, ClassId.B),
        "SL2(5)": (ClassId.B,),
        "Alternating(5)": (ClassId.B,),
    }
    failures, notes, instances = [], [], 0
    by_name = {r.name: r for r in records}
    for name, classes in wanted.items():
        r = by_name.get(name)
        if r is None:
            continue
        instances += 1
        for cid in classes:
            v = r.verdict(cid)
            if v == NON_MEMBER:
                failures.append(f"{name} not in {cid.value}")
            elif v == UNDECIDED:
                notes.append(f"{name} {cid.value} capped")
            else:
                notes.append(f"{name} in {cid.value}")
    return _resolve("T1-T4", failures, instances, 0, notes)


def _check_t5(records):
    failures, instances, skipped = [], 0, 0
    for r in _members(records, ClassId.A_PI):
        for n_order, verdict in r.facts.get("odd_normal_quotients", []):
            instances += 1
            if verdict == NON_MEMBER:
                failures.append(f"{r.name}/N(order {n_order}) left A_pi")
            elif verdict == UNDECIDED:
                skipped += 1
    return _resolve("T5", failures, instances, skipped)


def _check_t5_remark(records):
    by_name = {r.name: r for r in records}
    r = by_name.get("SL2(7)")
    if r is None:
        return CheckResult("T5-remark", "vacuous", "SL2(7) not in corpus")
    failures = []
    if r.verdict(ClassId.A_PI) != MEMBER:
        failures.append("SL2(7) should be in A_pi")
    group = construct("SL2(7)")
    q = quotient(group, center(group))
    v, w = decide(q, ClassId.A_PI)
    if v != NON_MEMBER:
        failures.append("SL2(7)/Z should not be in A_pi")
    elif w.order != 4:
        failures.append(f"expected an order-4 witness, got order {w.order}")
    return _resolve(
        "T5-remark",
        failures,
        1,
        0,
        ["quotient by the center drops out of A_pi at order 4"] if not failures else [],
    )


def _check_t9(records):
    failures, instances = [], 0
    for r in _members(records, ClassId.A_PI, solvable=False):
        instances += 1
        for s in r.sylow_shapes:
            if s["p"] == 2:
                continue
            if s["tag"] not in ("Cyclic", "ElementaryAbelian"):
                failures.append(f"{r.name}: Syl_{s['p']} has shape {s['tag']}")
    return _resolve("T9", failures, instances, 0)


def _check_t10(records):
    allowed_ea_ranks = (2, 3, 5)
    failures, instances = [], 0
    for r in _members(records, ClassId.A_PI, solvable=False):
        instances += 1
        s = next((x for x in r.sylow_shapes if x["p"] == 2), None)
        if s is None:
            failures.append(f"{r.name}: non-solvable but odd order")
            continue
        ok = s["tag"] in ("QuaternionQ8", "GeneralizedQuaternion") or (
            s["tag"] == "ElementaryAbelian" and s["rank"] in allowed_ea_ranks
        )
        if not ok:
            failures.append(f"{r.name}: Syl_2 has shape {s['tag']}({s['order']})")
    return _resolve("T10", failures, instances, 0)


def _check_t11(records):
    failures, instances, notes = [], 0, []
    for r in _members(records, ClassId.C_PI, solvable=True):
        instances += 1
        for s in r.sylow_shapes:
            if s["tag"] in ("Cyclic", "ElementaryAbelian", "QuaternionQ8"):
                continue
            if s["p"] == 2 and r.facts.get("suzuki_candidate"):
                notes.append(
                    f"{r.name}: Syl_2 reported as Suzuki-type candidate (not classified)"
                )
                continue
            failures.append(f"{r.name}: Syl_{s['p']} has shape {s['tag']}")
    return _resolve("T11", failures, instances, 0, notes)


def _check_t12(records):
    failures, instances, notes = [], 0, []
    exact_hits = []
    for r in _members(records, ClassId.A_PI, solvable=True):
        instances += 1
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
            notes.append(
                f"{r.name}: order {info['order']} matched {info['matched']} "
                "by fingerprint only"
            )
    if exact_hits:
        notes.append("exact matches: " + ", ".join(sorted(exact_hits)))
    if not failures and not any("Q8xC3" in h for h in exact_hits):
        failures.append("no corpus witness matched the SL(2,3)-type target exactly")
    return _resolve("T12", failures, instances, 0, notes)


def _check_c13(records):
    failures, instances = [], 0
    for r in _members(records, ClassId.A_PI, solvable=True):
        normal_map = r.facts.get("noncyclic_sylow_normal", {})
        for s in r.sylow_shapes:
            if s["tag"] == "Cyclic":
                continue
            instances += 1
            if s["tag"] == "QuaternionQ8":
                continue
            if not normal_map.get(str(s["p"])):
                failures.append(f"{r.name}: non-cyclic Syl_{s['p']} not normal")
    return _resolve("C13", failures, instances, 0)


def _check_c14(records):
    by_name = {r.name: r for r in records}
    r = by_name.get("E25xSL(2,3)")
    if r is None:
        return CheckResult("C14", "vacuous", "E25xSL(2,3) not in corpus")
    failures, skipped = [], 0
    v = r.verdict(ClassId.B)
    if v == UNDECIDED:
        skipped = 1
    elif v != MEMBER:
        failures.append("E25xSL(2,3) should be in B")
    s2 = next(s for s in r.sylow_shapes if s["p"] == 2)
    if s2["tag"] != "QuaternionQ8":
        failures.append(f"Syl_2 shape is {s2['tag']}, expected QuaternionQ8")
    if r.facts.get("sylow2_normal"):
        failures.append("Syl_2 unexpectedly normal")
    return _resolve(
        "C14",
        failures,
        1,
        skipped,
        ["quaternion Sylow-2 exists non-normally in a B-group"]
        if not failures and not skipped
        else [],
    )


def _check_t15(records):
    failures, instances, skipped = [], 0, 0
    for r in _members(records, ClassId.A_PI, solvable=True):
        instances += 1
        v = r.verdict(ClassId.B_PI)
        if v == NON_MEMBER:
            failures.append(f"{r.name}: solvable A_pi member outside B_pi")
        elif v == UNDECIDED:
            skipped += 1
    return _resolve("T15", failures, instances, skipped)


def _check_t16(records):
    failures, instances, skipped = [], 0, 0
    for r in _members(records, ClassId.A_PI, solvable=True):
        for n_order, verdict in r.facts.get("proper_quotients", []):
            instances += 1
            if verdict == NON_MEMBER:
                failures.append(f"{r.name}/N(order {n_order}) left A_pi")
            elif verdict == UNDECIDED:
                skipped += 1
    return _resolve("T16", failures, instances, skipped)


def _check_t17(records):
    failures, instances, notes = [], 0, []
    for r in records:
        fq = r.facts.get("factor_quotients")
        if not fq:
            continue
        hyp = all(v == MEMBER for _, v in fq)
        if not hyp:
            notes.append(f"{r.name}: hypothesis fails (vacuous instance)")
            continue
        instances += 1
        if r.verdict(ClassId.A_PI) != MEMBER:
            failures.append(f"{r.name}: coprime quotients in A_pi but product is not")
    return _resolve("T17", failures, instances, 0, notes)


def _check_t20_case1(records):
    failures, instances, skipped = [], 0, 0
    for r in _members(records, ClassId.A_PI, solvable=True):
        if not r.facts.get("all_sylow_cyclic"):
            continue
        instances += 1
        if r.facts.get("metacyclic_or_cyclic") is False:
            failures.append(f"{r.name}: not metacyclic or cyclic")
        if r.facts.get("derived_coprime") is False:
            failures.append(f"{r.name}: derived subgroup order not coprime to index")
        b = r.verdict(ClassId.B)
        if b == NON_MEMBER:
            failures.append(f"{r.name}: all-Sylow-cyclic member outside B")
        elif b == UNDECIDED:
            skipped += 1
    return _resolve("T20-case1", failures, instances, skipped)


def _check_t20_case5(records):
    failures, instances, notes = [], 0, []
    for r in _members(records, ClassId.A_PI, solvable=True):
        s2 = next((s for s in r.sylow_shapes if s["p"] == 2), None)
        if s2 is None or s2["tag"] != "QuaternionQ8":
            continue
        instances += 1
        if r.facts.get("sylow2_normal"):
            notes.append(f"{r.name}: Q8 Sylow normal")
            continue
        v = r.facts.get("gfg_b_verdict")
        if v == MEMBER:
            notes.append(f"{r.name}: Q8 not normal, G/F(G) in B")
        elif v == NON_MEMBER:
            failures.append(f"{r.name}: Q8 not normal and G/F(G) outside B")
        else:
            notes.append(f"{r.name}: G/F(G) membership capped")
    return _resolve("T20-case5", failures, instances, 0, notes)


def _check_t20_case6(records):
    failures, instances = [], 0
    for r in _members(records, ClassId.A_PI, solvable=True):
        if not r.facts.get("normal_c2"):
            continue
        instances += 1
        s2 = next(s for s in r.sylow_shapes if s["p"] == 2)
        if s2["tag"] == "Cyclic":
            if not r.facts.get("g_over_o2prime_cyclic2"):
                failures.append(f"{r.name}: G/O_2'(G) is not the cyclic Sylow-2")
        elif s2["tag"] == "QuaternionQ8":
            if not r.facts.get("sylow2_normal"):
                failures.append(f"{r.name}: quaternion Sylow-2 not normal")
        else:
            failures.append(f"{r.name}: normal C2 with Syl_2 shape {s2['tag']}")
    return _resolve("T20-case6", failures, instances, 0)


def _check_hierarchy(records):
    failures, notes = [], []
    for r in records:
        trio = [r.verdicts[c.value] for c in (ClassId.B_PI, ClassId.H_PI, ClassId.N_PI)]
        decided = {v for v in trio if v != UNDECIDED}
        if len(decided) > 1:
            failures.append(f"{r.name}: B_pi/H_pi/N_pi verdicts disagree")
    a_not_n = witness_search(records, ClassId.A_PI, ClassId.N_PI)
    c_not_a = witness_search(records, ClassId.C_PI, ClassId.A_PI)
    if a_not_n is None:
        failures.append("no corpus witness for A_pi strictly above N_pi")
    else:
        notes.append(f"N_pi < A_pi witnessed by {a_not_n.name} (order {a_not_n.order})")
    if c_not_a is None:
        failures.append("no corpus witness for C_pi strictly above A_pi")
    else:
        notes.append(f"A_pi < C_pi witnessed by {c_not_a.name} (order {c_not_a.order})")
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
    ("T16", "solvable members: every quotient stays in A_pi", _check_t16),
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
