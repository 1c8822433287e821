"""The benchmark record collector copies run records without changing them."""

import importlib.util
import json
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
