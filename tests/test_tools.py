"""The tools: the benchmark record collector copies run records without
changing them, the stdout digest, and the test session's warning filters."""

import hashlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"


@pytest.fixture
def bench_record(monkeypatch, tmp_path):
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "ROOT", tmp_path)
    return module


def write_record(checkout, name, commit, digest, wall_s):
    out = checkout / ".perfbench_out"
    out.mkdir(parents=True, exist_ok=True)
    record = {"env": {"commit": commit, "src_sha256": digest, "nproc": 2, "python": "3.11"},
              "result": {"metrics": {"wall_s": {"value": wall_s, "unit": "s"}}}}
    (out / name).write_text(json.dumps(record))
    return record


def test_records_are_copied_with_each_sides_stamp(bench_record, tmp_path):
    names = ["bigint-seq-full-seed1-trace0.json", "bigint-seq-full-seed2-trace0.json"]
    parent = [write_record(tmp_path / "p", name, "abc", "d1", 2.5 + i) for i, name in enumerate(names)]
    change = [write_record(tmp_path / "c", name, "abc", "d2", 1.0 + i) for i, name in enumerate(names)]
    assert bench_record.main(["demo", "--parent", str(tmp_path / "p"),
                              "--change", str(tmp_path / "c"), "--runs", *names]) == 0
    bench = json.loads((tmp_path / "BENCH_demo.json").read_text())
    assert bench["parent"] == {"commit": "abc", "src_sha256": "d1", "nproc": 2,
                               "records": dict(zip(names, parent))}
    assert bench["change"]["src_sha256"] == "d2"
    assert bench["change"]["records"] == dict(zip(names, change))


def test_missing_or_mixed_records_are_refused(bench_record, tmp_path):
    for name in ("a.json", "b.json"):
        write_record(tmp_path / "p", name, "abc", "d1", 1.0)
    write_record(tmp_path / "c", "a.json", "abc", "d2", 1.0)
    write_record(tmp_path / "mixed", "a.json", "abc", "d2", 1.0)
    write_record(tmp_path / "mixed", "b.json", "def", "d2", 1.0)

    def run(label, change):
        return bench_record.main([label, "--parent", str(tmp_path / "p"),
                                  "--change", str(tmp_path / change), "--runs", "a.json", "b.json"])

    with pytest.raises(SystemExit, match="cannot read run record"):
        run("x", "c")
    with pytest.raises(SystemExit, match="2 different checkouts"):
        run("x", "mixed")
    with pytest.raises(SystemExit):
        run("../x", "p")
    assert not list(tmp_path.rglob("BENCH_*"))


# --- the stdout digest over a matrix of CLI invocations ---

DIGEST_TOOL = TOOL.parent / "stdout_digest.py"
TINY_MATRIX = [
    ["count", "--family", "cycle", "--n", "10"],
    ["enumerate", "--family", "path", "--n", "3", "--format", "plain"],
    ["count", "--family", "path", "--n", "0", "--method", "arrays"],
    ["count", "--family", "hypercube"],
]


@pytest.fixture
def stdout_digest(monkeypatch):
    spec = importlib.util.spec_from_file_location("stdout_digest", DIGEST_TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.delenv("DIGICON_MAX_SUBSETS", raising=False)
    monkeypatch.setattr(module, "matrix", lambda: TINY_MATRIX)
    return module


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_digest_records_exit_stdout_and_last_stderr_line(stdout_digest, tmp_path, capsys):
    out = tmp_path / "digest.json"
    assert stdout_digest.main(["--out", str(out)]) == 0
    digest = json.loads(out.read_text())
    assert list(digest) == [" ".join(argv) for argv in TINY_MATRIX]
    assert digest["count --family cycle --n 10"] == [0, sha("122\n"), ""]
    assert digest["enumerate --family path --n 3 --format plain"] == [0, sha("\n1\n3\n1 2 3\n"), ""]
    assert digest["count --family path --n 0 --method arrays"] == [
        2, sha(""), "error: n must be >= 1, got 0"]
    code, printed, message = digest["count --family hypercube"]
    assert (code, printed) == (2, sha(""))
    assert "invalid choice: 'hypercube'" in message


def test_the_matrix_covers_every_family_and_method(stdout_digest):
    from digicon.cli import FAMILIES

    assert stdout_digest.METHODS == {family: tuple(methods) for family, (_, methods) in FAMILIES.items()}


def test_compare_fails_on_exit_stdout_or_presence_only(stdout_digest, tmp_path, capsys):
    parent = {"a": [0, sha("1\n"), ""], "b": [2, sha(""), "error: old words"], "c": [0, sha(""), ""]}
    changes = {
        "message": ({**parent, "b": [2, sha(""), "error: new words"]}, 0, "b: stderr"),
        "stdout": ({**parent, "a": [0, sha("2\n"), ""]}, 1, "a: stdout"),
        "exit": ({**parent, "c": [1, sha(""), ""]}, 1, "c: exit 0 -> 1"),
        "missing": ({k: v for k, v in parent.items() if k != "c"}, 1, "only in A: c"),
    }
    (tmp_path / "parent.json").write_text(json.dumps(parent))
    for name, (change, code, line) in changes.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(change))
        assert stdout_digest.main(["--compare", str(tmp_path / "parent.json"),
                                   str(tmp_path / f"{name}.json")]) == code
        assert line in capsys.readouterr().out
    assert stdout_digest.main(["--compare", *[str(tmp_path / "parent.json")] * 2]) == 0
    assert capsys.readouterr().out == "0 of 3 invocations differ, 0 in exit code, stdout or presence\n"


# --- the test session itself ---

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_property_test_does_not_end_the_session(tmp_path):
    # under the project's warning filters, hypothesis' report on a failure
    # must not turn into an INTERNALERROR that skips the tests after it
    (tmp_path / "test_two.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(TOOL.parent.parent / "pyproject.toml"),
         "-p", "no:cacheprovider", "-q", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
