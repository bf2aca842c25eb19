"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import sys

import pytest

import run

sys.path.insert(0, str(run.SRC))
import reference  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads(run.BENCHMARK_FILE.read_text(encoding="utf-8"))

TINY = {
    "blowup-reduce": dict(lo=5, hi=20, strata=3),
    "euclid": dict(lo=5, hi=20, strata=3),
    "cli-session": dict(lo=2, hi=8, strata=3),
    "graph-rewrite": dict(lo=3, hi=10, strata=3),
}


def tiny(name):
    return workloads.WORKLOADS[name](**TINY[name])


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_every_metric(name, trace, tmp_path):
    record = run.run_workload(tiny(name), 1, 0.0, trace, tmp_path)
    assert record["failed"] == 0, record["failures"]
    want = SPEC["per_layer" if trace else "end_to_end"]
    metrics = record["metrics"]
    assert list(metrics) == [m["name"] for m in want]
    for m in want:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert isinstance(metrics[m["name"]]["value"], (int, float))
    lines = run.report_lines(record)
    assert any(line.startswith("failed_frac = 0 frac") for line in lines)
    if trace:
        assert (tmp_path / f"spans-{name}-seed1.jsonl").stat().st_size > 0
    else:
        assert all(metrics[m["name"]]["value"] > 0 for m in want)


@pytest.mark.parametrize("name", list(TINY))
def test_same_seed_same_input_digest(name, tmp_path):
    wl = tiny(name)
    digests = []
    for i, seed in enumerate((7, 7, 8)):
        workdir = tmp_path / str(i)
        workdir.mkdir()
        digests.append(wl.build(seed, workdir).digest(wl))
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


def test_wrong_reference_raises_failed_frac(monkeypatch, tmp_path):
    monkeypatch.setattr(reference, "count_triple", lambda c, n: (c, 2 * c + n + 1, c))
    record = run.run_workload(tiny("blowup-reduce"), 1, 0.0, False, tmp_path)
    assert record["attempted"] > 0
    assert record["failed"] == record["attempted"]
    assert record["failed_frac"] == 1.0
    assert "counts" in record["failures"][0]["why"][0]


def test_raising_job_and_wrong_digest_count_as_failures(monkeypatch, tmp_path):
    wl = tiny("euclid")
    job = wl.job

    def flaky(x):
        if x["n"] == 137:
            raise ValueError("boom")
        return job(x)

    monkeypatch.setattr(wl, "job", flaky)
    monkeypatch.setattr(workloads, "load_golden",
                        lambda: {"euclid": {workloads.key_of({"n": 50}): "0" * 64}})
    record = run.run_workload(wl, 1, 0.0, False, tmp_path)
    assert record["failed"] == 2
    assert record["golden_failed"] == 2
    assert record["attempted"] > 2


def test_missing_sources_exit_without_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path)
    assert run.main(["--workload", "euclid", "--seed", "1",
                     "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
