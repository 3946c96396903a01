import json
import subprocess
import sys


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
        assert result.stderr.count("\n") == 1
        assert result.stderr.startswith(
            "error: Symmetric(9): element enumeration cap exceeded: order 362880"
        )
