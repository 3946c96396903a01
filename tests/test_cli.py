import hashlib
import json
import os
import subprocess
import sys

import pytest


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "subconj.cli", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


def test_analyze_by_name():
    result = run_cli("analyze", "Dihedral(5)")
    assert result.returncode == 0
    assert "order   10" in result.stdout
    assert "B=member" in result.stdout


def test_analyze_pi_only_skips_plain_classes():
    result = run_cli("analyze", "GeneralizedQuaternion(8)", "--classes", "pi")
    assert result.returncode == 0
    assert "A_pi=non-member" in result.stdout
    assert "B=undecided" in result.stdout


def test_analyze_writes_json(tmp_path):
    out = tmp_path / "report.json"
    result = run_cli("analyze", "Cyclic(6)", "--json", str(out))
    assert result.returncode == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["groups"][0]["id"] == "Cyclic(6)"
    assert doc["groups"][0]["order"] == 6
    assert doc["checks"] == []
    # the same group entry as a corpus run over a one-entry manifest
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"entries": [{"id": "Cyclic(6)"}]}), encoding="utf-8")
    corpus_out = tmp_path / "corpus.json"
    run_cli("corpus", "run", "--manifest", str(manifest), "--json", str(corpus_out))
    corpus_doc = json.loads(corpus_out.read_text(encoding="utf-8"))
    assert corpus_doc["groups"] == doc["groups"]


def test_analyze_group_file(tmp_path):
    path = tmp_path / "c2.grp"
    path.write_text("degree 2\n(1,2)\n", encoding="utf-8")
    result = run_cli("analyze", str(path))
    assert result.returncode == 0
    assert "order   2" in result.stdout
    assert "B=member" in result.stdout
    result = run_cli("analyze", str(path), "--classes", "pi")
    assert result.returncode == 0
    assert "B=undecided H=undecided N=undecided A=undecided C=undecided" in result.stdout
    assert "B_pi=member" in result.stdout


def test_parse_error_exits_2(tmp_path):
    path = tmp_path / "broken.grp"
    path.write_text("degree 4\n(1,2\n", encoding="utf-8")
    result = run_cli("analyze", str(path))
    assert result.returncode == 2
    assert "line 2" in result.stderr


def test_unknown_name_exits_2():
    result = run_cli("analyze", "Monster()")
    assert result.returncode == 2
    assert "unknown group id" in result.stderr


def test_construct_round_trips(tmp_path):
    out = tmp_path / "a4.grp"
    result = run_cli("construct", "Alternating(4)", "--emit", str(out))
    assert result.returncode == 0
    result = run_cli("analyze", str(out))
    assert result.returncode == 0
    assert "order   12" in result.stdout


def test_construct_refuses_a_degree_no_group_file_holds(tmp_path):
    # a product can reach degree 300, which the group file parser refuses
    out = tmp_path / "big.grp"
    result = run_cli("construct", "Cyclic(200)*Cyclic(100)", "--emit", str(out))
    assert result.returncode == 2
    assert result.stderr == "error: degree must be in 1..256, got 300\n"
    assert not out.exists()


def test_construct_prints_without_emit():
    result = run_cli("construct", "Cyclic(4)")
    assert result.returncode == 0
    assert result.stdout.startswith("# Cyclic(4)\ndegree 4\norder 4\n")


def test_witness_rejects_unknown_class():
    result = run_cli("witness", "A_pi", "Z_pi")
    assert result.returncode == 2
    assert "unknown class id" in result.stderr


def test_theorems_rejects_unknown_check_id():
    result = run_cli("theorems", "--only", "T99")
    assert result.returncode == 2
    assert "unknown check ids" in result.stderr


def test_usage_error_exits_2():
    result = run_cli("corpus")
    assert result.returncode == 2


@pytest.mark.parametrize("jobs", ("0", "-1"))
@pytest.mark.parametrize("command", (["corpus", "run"], ["theorems"], ["witness", "B", "A"]))
def test_jobs_below_one_exits_2(command, jobs):
    result = run_cli(*command, "--jobs", jobs)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == f"error: jobs must be at least 1, got {jobs}\n"


def test_cap_hit_exits_2_with_one_error_line():
    # |S9| = 362880 is above the default element cap
    result = run_cli("analyze", "Symmetric(9)")
    assert result.returncode == 2
    assert result.stderr.count("\n") == 1
    assert result.stderr.startswith("error: element enumeration cap exceeded")
    assert "Traceback" not in result.stderr


def test_corpus_cap_hit_names_the_entry(tmp_path):
    # serial and through the process pool: the cap error must survive pickling
    manifest = tmp_path / "manifest.json"
    entries = [{"id": "Cyclic(4)"}, {"id": "Symmetric(9)"}]
    manifest.write_text(json.dumps({"entries": entries}), encoding="utf-8")
    for jobs in ("1", "2"):
        result = run_cli("corpus", "run", "--jobs", jobs, "--manifest", str(manifest))
        assert result.returncode == 2
        assert result.stderr == (
            "error: element enumeration cap exceeded: order 362880 > 200000\n"
            "note: in corpus entry Symmetric(9), stage verdicts\n"
        )


# runs corpus run with the facts pass of Cyclic(6) broken; forked pool workers
# inherit the patch
_BROKEN_FACTS = """
import multiprocessing, sys
from subconj import cli, harness
multiprocessing.set_start_method("fork")
collect = harness._collect_facts
def broken(group, record):
    if record.name == "Cyclic(6)":
        raise {exc}("defect")
    return collect(group, record)
harness._collect_facts = broken
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("exc,code", [("RuntimeError", 1), ("ValueError", 2)])
@pytest.mark.parametrize("jobs", ("1", "2"))
def test_corpus_failure_names_the_entry_and_stage(tmp_path, exc, code, jobs):
    manifest = tmp_path / "manifest.json"
    entries = [{"id": "Cyclic(4)"}, {"id": "Cyclic(6)"}]
    manifest.write_text(json.dumps({"entries": entries}), encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-c", _BROKEN_FACTS.format(exc=exc)]
        + ["corpus", "run", "--jobs", jobs, "--manifest", str(manifest)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == code
    assert result.stdout == ""
    assert "in corpus entry Cyclic(6), stage facts" in result.stderr


@pytest.mark.parametrize(
    "doc,message",
    [
        ("nope", "Expecting value: line 1 column 1 (char 0)"),
        ([{"id": "Cyclic(4)"}], "expected an object with an 'entries' list"),
        ({"entries": {"id": "Cyclic(4)"}}, "expected an object with an 'entries' list"),
        (
            {"entries": [{"id": "Cyclic(4)"}, {"full_cap": 3}]},
            "entry 1 has no string 'id'",
        ),
        ({"entries": ["Cyclic(4)"]}, "entry 0 has no string 'id'"),
        # a manifest sets no cap, and a key it does not read is refused
        (
            {"entries": [{"id": "Cyclic(4)", "full_cap": 0}]},
            "entry 0: key 'full_cap' is not allowed; set SUBCONJ_FULL_SUBGROUP_CAP instead",
        ),
        (
            {"entries": [{"id": "Cyclic(4)"}, {"id": "Cyclic(6)", "fullcap": 10}]},
            """entry 1: key 'fullcap' is not allowed; an entry is {"id": NAME}""",
        ),
        (
            {"entries": [{"name": "x", "id": "Cyclic(4)", "full_cap": 10}]},
            """entry 0: key 'name' is not allowed; an entry is {"id": NAME}""",
        ),
    ],
)
def test_malformed_manifest_exits_2_naming_file_and_entry(tmp_path, doc, message):
    manifest = tmp_path / "manifest.json"
    text = doc if isinstance(doc, str) else json.dumps(doc)
    manifest.write_text(text, encoding="utf-8")
    result = run_cli("corpus", "run", "--manifest", str(manifest))
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == f"error: {manifest}: {message}\n"


def test_corpus_json_file_and_markdown_exclude_each_other(tmp_path):
    out = tmp_path / "report.json"
    result = run_cli("corpus", "run", "--json", str(out), "--markdown")
    assert result.returncode == 2
    assert "not allowed with argument" in result.stderr
    assert not out.exists()


@pytest.mark.parametrize("missing", ["manifest", "json"])
def test_unreadable_or_unwritable_file_exits_2_with_one_error_line(tmp_path, missing):
    manifest = tmp_path / "manifest.json"
    out = tmp_path / "report.json"
    if missing == "manifest":
        manifest = tmp_path / "missing.json"
    else:
        manifest.write_text(json.dumps({"entries": [{"id": "Cyclic(4)"}]}))
        out = tmp_path / "no-such-dir" / "report.json"
    result = run_cli("corpus", "run", "--manifest", str(manifest), "--json", str(out))
    assert result.returncode == 2
    assert result.stderr.count("\n") == 1
    assert result.stderr.startswith("error: [Errno 2] No such file or directory")
    assert "Traceback" not in result.stderr


# sha256 of ``corpus run --json`` with the full subgroup and isomorphism caps
# raised to 8000: the one run in which M11, SL2(13) and E32x(C31xC5) list
# their whole subgroup lattice; a deliberate change to the report updates it
RAISED_CAP_SHA256 = "7fbdb9d6b56f2c91ed24269c18e6b7d12248d7b1792f23c66088c61ec3c9f092"


def test_raised_cap_corpus_report_is_pinned(tmp_path):
    out = tmp_path / "report.json"
    env = dict(os.environ, SUBCONJ_FULL_SUBGROUP_CAP="8000", SUBCONJ_ISO_CAP="8000")
    result = run_cli("corpus", "run", "--json", str(out), env=env)
    assert result.returncode == 0, result.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == RAISED_CAP_SHA256
