"""Command-line surface.

Exit codes: 0 when everything passes, 1 when a registered check fails, 2 for
usage or parse errors, for a file that cannot be read or written, and for a
computation refused by a cap.
"""

from __future__ import annotations

import argparse
import os
import sys

from .caps import CapExceeded, default_caps
from .harness import (
    CHECK_IDS,
    CorpusManifest,
    analyze_corpus,
    analyze_group,
    emit_report,
    run_checks,
    witness_search,
)
from .perms import ParseError
from .predicates import ClassId
from .zoo import construct, format_group_file, ingest


def _print_record(record):
    print(f"group   {record.name}")
    print(f"order   {record.order}")
    print(f"solvable {'yes' if record.solvable else 'no'}")
    shapes = ", ".join(
        f"p={s['p']}: {s['tag']}({s['order']})" for s in record.sylow_shapes
    )
    print(f"sylow   {shapes or '-'}")
    print("classes " + " ".join(f"{k}={v}" for k, v in record.verdicts.items()))
    for w in record.witnesses:
        print(
            f"witness {w['class']}: two {w['kind']} subgroups of order {w['order']}"
            + (f" (p={w['prime']})" if w["prime"] else "")
        )
        print(f"        a: {' '.join(w['subgroup_a'])}")
        print(f"        b: {' '.join(w['subgroup_b'])}")


def cmd_analyze(args):
    target = args.group
    if os.path.exists(target) or os.sep in target:
        group, name = ingest(target), os.path.basename(target)
    else:
        group, name = construct(target), target
    if args.classes == "all":
        classes = tuple(ClassId)
    else:
        classes = tuple(c for c in ClassId if c.is_pi)
    record = analyze_group(group, name, classes=classes)
    _print_record(record)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(emit_report([record], []))
    return 0


def cmd_corpus_run(args):
    manifest = (
        CorpusManifest.from_json(args.manifest)
        if args.manifest
        else CorpusManifest.default()
    )
    records = analyze_corpus(manifest, jobs=args.jobs)
    results = run_checks(records)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(emit_report(records, results, fmt="json"))
        for c in results:
            print(f"{c.check_id}: {c.status}")
    else:
        fmt = "markdown" if args.markdown else "json"
        print(emit_report(records, results, fmt=fmt), end="")
    return 1 if any(c.status == "fail" for c in results) else 0


def cmd_theorems(args):
    manifest = CorpusManifest.default()
    only = None
    if args.only:
        only = [s.strip() for s in args.only.split(",") if s.strip()]
        unknown = [cid for cid in only if cid not in CHECK_IDS]
        if unknown:
            print(f"unknown check ids: {', '.join(unknown)}", file=sys.stderr)
            print(f"known: {', '.join(CHECK_IDS)}", file=sys.stderr)
            return 2
    records = analyze_corpus(manifest, jobs=args.jobs)
    results = run_checks(records, only=only)
    for c in results:
        print(f"{c.check_id}: {c.status}")
        if c.details:
            print(f"    {c.details}")
    return 1 if any(c.status == "fail" for c in results) else 0


def cmd_witness(args):
    try:
        class_in = ClassId(args.class_in)
        class_out = ClassId(args.class_out)
    except ValueError:
        print(
            f"unknown class id; known: {', '.join(c.value for c in ClassId)}",
            file=sys.stderr,
        )
        return 2
    records = analyze_corpus(CorpusManifest.default(), jobs=args.jobs)
    hit = witness_search(records, class_in, class_out)
    if hit is None:
        print(f"none in corpus: every {class_in.value} member is in {class_out.value}")
    else:
        print(f"{hit.name} (order {hit.order}): in {class_in.value}, not in {class_out.value}")
    return 0


def cmd_construct(args):
    group = construct(args.name)
    text = format_group_file(group, comment=args.name)
    if args.emit:
        with open(args.emit, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="subconj",
        description="Exact conjugacy-class predicates and structure checks "
        "for finite permutation groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analyze one group by name or group file")
    p.add_argument("group", help="group id (e.g. 'SL2(5)') or path to a group file")
    p.add_argument("--classes", choices=("all", "pi"), default="all")
    p.add_argument("--json", metavar="OUT", help="also write a JSON report")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("corpus", help="corpus operations")
    corpus_sub = p.add_subparsers(dest="corpus_command", required=True)
    pr = corpus_sub.add_parser("run", help="analyze the corpus and run all checks")
    pr.add_argument("--manifest", help="JSON manifest overriding the default corpus")
    pr.add_argument("--jobs", type=int, default=1)
    out = pr.add_mutually_exclusive_group()
    out.add_argument("--json", metavar="OUT", help="write the JSON report to a file")
    out.add_argument("--markdown", action="store_true", help="print markdown instead")
    pr.set_defaults(fn=cmd_corpus_run)

    p = sub.add_parser("theorems", help="run registered checks on the default corpus")
    p.add_argument("--only", help="comma-separated check ids")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(fn=cmd_theorems)

    p = sub.add_parser("witness", help="smallest corpus member of classA minus classB")
    p.add_argument("class_in", metavar="classA")
    p.add_argument("class_out", metavar="classB")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(fn=cmd_witness)

    p = sub.add_parser("construct", help="build a named group and emit its group file")
    p.add_argument("name")
    p.add_argument("--emit", metavar="FILE")
    p.set_defaults(fn=cmd_construct)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        default_caps()  # a bad SUBCONJ_* value is a one-line error
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, CapExceeded, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        for note in getattr(exc, "__notes__", ()):
            print(f"note: {note}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
