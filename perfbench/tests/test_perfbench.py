"""Tests of the benchmark itself: seeded inputs, metric names, digests,
and refusal to run without the program's sources.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
from layers import layer_metrics  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def workdir():
    """A scratch directory inside the checkout, like the benchmark's own."""
    parent = ROOT / ".perfbench_tmp"
    parent.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=parent))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _pool_digest(seed: int) -> str:
    pages, shares = inputs.page_pool(seed, n_pages=4)
    h = hashlib.sha256(json.dumps(shares, sort_keys=True).encode())
    for p in pages:
        h.update(p.origin.encode())
        for c in p.canvases:
            h.update(c)
        h.update(p.audio.tobytes())
        h.update(repr(p.burst_ms).encode())
        h.update(json.dumps(p.trace).encode())
    return h.hexdigest()


def test_page_inputs_repeat_per_seed_and_differ_across_seeds():
    assert _pool_digest(3) == _pool_digest(3)
    assert _pool_digest(3) != _pool_digest(4)


def test_bulk_inputs_repeat_per_seed(workdir):
    a, b = workdir / "a", workdir / "b"
    a.mkdir()
    b.mkdir()
    files_a, shares_a = inputs.bulk_files(5, a, variants=1)
    files_b, shares_b = inputs.bulk_files(5, b, variants=1)
    assert shares_a == shares_b
    for name in ("canvas0.bmp", "audio0.raw", "timestamps0.txt", "trace0.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    assert inputs.bulk_rounds(5, 16) == inputs.bulk_rounds(5, 16)


def test_proxy_mix_repeats_per_seed_and_has_every_kind():
    kinds, shares = inputs.proxy_mix(7)
    assert (kinds, shares) == inputs.proxy_mix(7)
    assert kinds != inputs.proxy_mix(8)[0]
    assert 0.05 < shares["requests_blocked"] < 0.15
    assert 0.05 < shares["requests_connect"] < 0.15
    assert 0.01 < shares["requests_big"] < 0.06


def test_expanded_trace_keeps_every_classified_count():
    _name, doc = inputs.corpus()[0]
    expanded = inputs.expand_trace(doc, random.Random(1), 500)
    assert len(expanded["events"]) == 500
    counts = Counter(e["endpoint"] for e in expanded["events"])
    original = Counter()
    for e in doc["events"]:
        original[e["endpoint"]] += int(e.get("count", 1))
    for endpoint, n in original.items():
        assert counts[endpoint] == n
    stamps = [e["t_ms"] for e in expanded["events"]]
    assert stamps == sorted(stamps)


def test_layer_metric_names_match_benchmark_json():
    names = set(layer_metrics({}, Counter(), Counter(), 1)) | {"trace.overhead_pct"}
    assert names == {m["name"] for m in SPEC["per_layer"]}


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    proc = _run("page_visit", 11, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_bulk_cli_runs_its_commands_in_a_worker():
    proc = _run("bulk_cli", 13, 0)
    assert proc.returncode == 0, proc.stderr
    detail, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    assert result["correct"] and result["attempted"] >= 12
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    # the worker runs only the program: the checks peak in this process
    assert result["metrics"]["peak_rss_mb"]["value"] < detail["benchmark_peak_rss_mb"]


def test_same_seed_gives_same_digest():
    digests = [json.loads(_run("page_visit", 12, 0).stdout.splitlines()[-2])["digest"]
               for _ in range(2)]
    assert digests[0] == digests[1]


def test_refuses_to_run_without_sources(workdir):
    shutil.copy(ROOT / "BENCHMARK.json", workdir / "BENCHMARK.json")
    shutil.copytree(BENCH, workdir / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("page_visit", 1, 0, cwd=workdir)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
