"""Tests of the benchmark itself.

    python3 -m pytest bench/tests -q
"""

import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Calls, Span, self_times  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    out_dir = str(tmp_path_factory.mktemp("out"))
    saved, run.OUT_DIR = run.OUT_DIR, out_dir
    try:
        return {
            (name, trace): run.run(name, 1, 0.05, trace, workloads.TINY)
            for name in workloads.WORKLOADS
            for trace in (0, 1)
        }
    finally:
        run.OUT_DIR = saved


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert list(run.END_TO_END_ALIASES) == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(tiny_runs, trace, kind):
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    for name in workloads.WORKLOADS:
        result, _ = tiny_runs[name, trace]
        got = {k: m["unit"] for k, m in result["metrics"].items()}
        assert got == want, name
        assert all(NAME.match(k) for k in got)


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_report_lines_name_only_benchmark_json_metrics(tmp_path, monkeypatch, capsys, trace, kind):
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
    monkeypatch.setattr(workloads, "DEFAULT", workloads.TINY)
    argv = ["--workload", "link_coarse", "--seed", "1", "--seconds", "0.05", "--trace", str(trace)]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    printed = [line.split()[1] for line in lines if line.startswith("metric ")]
    assert sorted(printed) == sorted(m["name"] for m in SPEC[kind])
    assert set(json.loads(lines[-1])["metrics"]) == set(printed)


def test_alias_names_are_valid():
    for aliases in run.END_TO_END_ALIASES.values():
        assert all(NAME.match(a) for a in aliases.values())


def test_each_workload_runs_at_tiny_size(tiny_runs):
    for (name, trace), (result, notes) in tiny_runs.items():
        assert result["correct"], (name, trace, notes["problems"])
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert all(np.isfinite(m["value"]) for m in result["metrics"].values()), (name, trace)
    for name in workloads.WORKLOADS:
        e2e = tiny_runs[name, 0][0]["metrics"]
        assert all(e2e[k]["value"] != 0 for k in e2e), name


def test_self_time_on_synthetic_span_tree():
    spans = [
        Span("bench.op", 0.0, 10.0, None, "w:0"),
        Span("a.f", 1.0, 4.0, 0, "w:0"),
        Span("a.g", 2.0, 3.0, 1, "w:0"),
        Span("b.h", 5.0, 9.0, 0, "w:0"),
        Span("b.k", 8.0, 12.0, 0, "w:0"),  # overlaps b.h and outlives its parent
    ]
    assert self_times(spans) == pytest.approx([2.0, 2.0, 1.0, 4.0, 4.0])


def test_same_seed_same_inputs_other_seed_other_inputs(tmp_path):
    def inputs(cls, seed):
        wl = cls(seed, workloads.TINY, Calls(), str(tmp_path))
        if isinstance(wl, workloads.RssMapWorkload):
            return wl.scenes, wl.ues
        if isinstance(wl, workloads.RefineStepWorkload):
            return wl.x.data.tobytes(), wl.y.data.tobytes(), wl.params["enc1.w"].data.tobytes()
        return wl.links

    for cls in workloads.WORKLOADS.values():
        assert inputs(cls, 3) == inputs(cls, 3), cls.name
        assert inputs(cls, 3) != inputs(cls, 4), cls.name


def test_golden_mismatch_detection():
    want = {"counts": [3, 4], "nmse": [-12.0, -13.5], "first_loss": 0.5}
    assert run.golden_mismatches(want, json.loads(json.dumps(want))) == []
    near = {"counts": [3, 4], "nmse": [-12.0 * (1 + 1e-12), -13.5], "first_loss": 0.5000001}
    assert run.golden_mismatches(want, near) == []
    bad = {"counts": [3, 5], "nmse": [-12.0, -13.4], "first_loss": 0.6}
    assert sorted(run.golden_mismatches(want, bad)) == ["counts", "first_loss", "nmse"]
    short = {**want, "counts": [3]}
    assert run.golden_mismatches(want, short) == ["counts"]


def test_failed_check_fails_the_run(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
    monkeypatch.setattr(workloads, "DEFAULT", workloads.TINY)
    monkeypatch.setattr(workloads.LinkCoarseWorkload, "problems", lambda self: ["broken"])
    code = run.main(["--workload", "link_coarse", "--seed", "1", "--seconds", "0.05"])
    assert code == 1


def test_wrong_rss_map_fails_the_run(tmp_path, monkeypatch):
    real = workloads.generate_rss_map

    def halved(*args):
        m = real(*args)
        m.values[...] *= 0.5
        return m

    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
    monkeypatch.setattr(workloads, "generate_rss_map", halved)
    result, notes = run.run("rss_map", 1, 0.05, 0, workloads.TINY)
    assert not result["correct"]
    assert any("per-cell reference" in p for p in notes["problems"])
    assert result["metrics"]["nmse_db"]["value"] > -10.0


def test_exits_nonzero_without_library_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "rss_map", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
