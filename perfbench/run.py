"""webshield benchmark: one seeded workload per run, metrics on stdout.

Usage (from the repository root):

    python3 perfbench/run.py --workload page_visit --seed 1 --seconds 15 --trace 0

Workloads: page_visit, bulk_cli, proxy_preresolve, proxy_learn (see
README.md for why each exists).  With ``--trace 0`` the run measures the
end-to-end metrics named in BENCHMARK.json; with ``--trace 1`` it runs
half the time untraced and half with wrappers around every layer, and
reports the per-layer metrics plus the tracing overhead.

The second-to-last line of stdout is a JSON object with the details:
output digest, error rate, input shares, machine info and the metrics
the workload is named after.  The last line is the result:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
when a result was printed, whether or not it is correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

import inputs
import library_workloads as lib
import proxy_workloads as px
import reference
import setup_probe
import tracer as tracing
from layers import layer_metrics
from procs import Children, peak_rss_mb

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("page_visit", "bulk_cli", "proxy_preresolve", "proxy_learn")
SETUP_PROBES = 7
REFERENCE_SETUP_S = 0.1
TIME_LIMIT_S = 170
UNITS = {"proxy_req_per_s": "1/s", "rounds_per_s": "1/s", "timed_pages": "count",
         "timed_rounds": "count", "timed_requests": "count"}  # other workload metrics are ms


class Failed(Exception):
    """The run could not produce a result."""


def _on_signal(signum, _frame):
    raise Failed(f"stopped by signal {signum}")


def machine_info() -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg_at_start": list(os.getloadavg()),
    }


def scaled_setup(measure, probes: int) -> float:
    """Median set-up time, scaled to a host where the reference set-up
    (importing numpy and click in a fresh process) takes REFERENCE_SETUP_S.

    ``measure(is_reference)`` times one fresh process.  Program and reference
    probes alternate, so both see the same moments of a host whose speed
    drifts by up to 40% between runs; the ratio keeps what the program
    adds to its dependencies' import.
    """
    own, ref = [], []
    for _ in range(probes):
        ref.append(measure(True))
        own.append(measure(False))
    return statistics.median(own) / statistics.median(ref) * REFERENCE_SETUP_S


def setup_seconds(workload: str, env: dict) -> float:
    """Program set-up of an in-process workload, scaled as above."""

    def measure(is_reference: bool) -> float:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), "reference" if is_reference else workload],
            capture_output=True, text=True, env=env, timeout=60, cwd=ROOT)
        if proc.returncode != 0:
            raise Failed(f"set-up probe failed: {proc.stderr.strip()[-300:]}")
        return float(proc.stdout)

    return scaled_setup(measure, SETUP_PROBES)


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def overhead_pct(untraced: float, traced: float) -> float:
    return 100.0 * (traced / untraced - 1.0)


# ----------------------------------------------------------------------
# workloads; each returns its metrics, run outcomes and input shares


def _library(args, env: dict, run, metrics_of, ops_of) -> dict:
    """Measure an in-process workload.  ``run(seconds, spans_out)`` runs
    it, traced when ``spans_out`` is a path, and returns its result with
    the program process's ``peak_rss_mb``."""
    if not args.trace:
        setup_s = setup_seconds(args.workload, env)
        result = run(args.seconds, None)
        metrics = dict(metrics_of(result), setup_s=setup_s, peak_rss_mb=result["peak_rss_mb"])
        return {"metrics": metrics, "outcomes": [result["outcome"]]}
    base = run(args.seconds / 2, None)
    spans_file = _spans_path(args)
    traced = run(args.seconds / 2, spans_file)
    metrics = _traced_layers(spans_file, ops_of(traced))
    metrics["trace.overhead_pct"] = overhead_pct(
        metrics_of(base)["latency_ms"], metrics_of(traced)["latency_ms"])
    return {"metrics": metrics, "outcomes": [base["outcome"], traced["outcome"]]}


def page_visit(args, workdir: Path, env: dict, children) -> dict:
    cfg = setup_probe.setup("page_visit")
    pages, shares = inputs.page_pool(args.seed)

    def run(seconds, spans_out):
        if spans_out is None:
            return dict(lib.run_page_visit(args.seed, seconds, pages, cfg),
                        peak_rss_mb=own_peak_rss_mb())
        t = tracing.Tracer()
        tracing.install_library(t)
        try:
            result = lib.run_page_visit(args.seed, seconds, pages, cfg, t)
        finally:
            t.unpatch()
        t.dump(spans_out)
        return result

    result = _library(args, env, run, lib.page_metrics, lambda r: r["outcome"].attempted)
    return dict(result, shares=shares)


def bulk_cli(args, workdir: Path, env: dict, children) -> dict:
    # The CLI worker, and every process started from here, share one CPU
    # with this process, so a command and the reference timed right after
    # it see the same CPU.  The loop is sequential: nothing waits for it.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    files, shares = inputs.bulk_files(args.seed, workdir)
    out_dir = workdir / "out"
    out_dir.mkdir()

    def run(seconds, spans_out):
        worker = lib.CliWorker(children, env, workdir, spans_out)
        try:
            result = lib.run_bulk_cli(args.seed, seconds, files, out_dir, env, worker)
            result["peak_rss_mb"] = peak_rss_mb(worker.proc.pid)
        finally:
            children.stop(worker.proc)  # a traced worker writes its spans as it ends
        if worker.proc.returncode != 0:
            raise Failed(f"CLI worker exited with {worker.proc.returncode}: "
                         f"{(workdir / 'cli_worker.err').read_text()[-300:]}")
        return result

    def rounds(r):
        return r["outcome"].attempted // (len(lib.COMMANDS) + 1)

    result = _library(args, env, run, lib.bulk_metrics, rounds)
    return dict(result, shares=shares)


def _spans_path(args) -> Path:
    """Where a traced run writes its spans: kept after the run, git-ignored."""
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    return out_dir / f"spans-{args.workload}.npz"


def _traced_layers(spans_file: Path, ops: int, proxy_extra=None) -> dict:
    cols, counts = tracing.load(spans_file)
    spans, pairs = tracing.summarize(cols, cols.pop("names"))
    return layer_metrics(spans, pairs, counts, max(ops, 1), proxy_extra)


def proxy(args, workdir: Path, env: dict, children) -> dict:
    mode = "preresolve" if args.workload == "proxy_preresolve" else "learn"
    kinds, shares = inputs.proxy_mix(args.seed)
    stub = px.Stub(children, env, workdir)

    def phase(tag: str, seconds: float, spans_out=None) -> dict:
        proc, port, setup = px.spawn_proxy(children, env, mode, workdir, tag, spans_out)
        before = stub.accepted()
        run = px.drive(kinds, seconds, port, stub.port)
        connects = stub.accepted() - before  # relayed, tunnelled and direct
        rss = peak_rss_mb(proc.pid)
        children.stop(proc)
        if proc.returncode != 0:
            raise Failed(f"proxy exited with {proc.returncode}: "
                         f"{(workdir / f'proxy-{tag}.err').read_text()[-300:]}")
        summary = px.summarize(run)
        summary.update(setup_s=setup, peak_rss_mb=rss, upstream_connects=connects)
        expected = summary["relayed"] + summary["direct"]
        summary["outcome"].record(  # zero leak: blocked requests never reach the stub
            connects == expected,
            f"stub accepted {connects} connections for {expected} relayed and direct requests")
        log = workdir / f"decisions-{tag}.jsonl"
        summary["log_lines"] = len(log.read_text().splitlines()) if log.exists() else 0
        return summary

    if not args.trace:
        spawns = iter(range(SETUP_PROBES))

        def measure(is_reference: bool) -> float:
            if is_reference:
                return reference.spawn_s(env)
            proc, _port, setup = px.spawn_proxy(children, env, mode, workdir, f"setup{next(spawns)}")
            children.stop(proc)
            return setup

        setup_s = scaled_setup(measure, SETUP_PROBES)
        run = phase("run", args.seconds)
        metrics = dict(run["metrics"], setup_s=setup_s, peak_rss_mb=run["peak_rss_mb"])
        return {"metrics": metrics, "outcomes": [run["outcome"]], "shares": shares}
    base = phase("untraced", args.seconds / 2)
    spans_file = _spans_path(args)
    traced = phase("traced", args.seconds / 2, spans_file)
    extra = {
        "log_lines": traced["log_lines"],
        "relay_bytes": traced["relay_bytes"],
        "upstream_connects": traced["upstream_connects"] - traced["direct"],
        "blocked": traced["blocked"],
        "allowed": traced["relayed"],
    }
    metrics = _traced_layers(spans_file, traced["requests"], extra)
    metrics["trace.overhead_pct"] = overhead_pct(
        base["metrics"]["latency_ms"], traced["metrics"]["latency_ms"])
    return {"metrics": metrics, "outcomes": [base["outcome"], traced["outcome"]], "shares": shares}


RUNNERS = {"page_visit": page_visit, "bulk_cli": bulk_cli,
           "proxy_preresolve": proxy, "proxy_learn": proxy}


# ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "webshield" / "__init__.py").is_file():
        print(f"webshield sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    sys.path.insert(0, str(ROOT / "src"))
    signal.signal(signal.SIGALRM, _on_signal)
    signal.signal(signal.SIGTERM, _on_signal)
    signal.alarm(TIME_LIMIT_S)
    machine = machine_info()
    workdir = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    os.environ["TMPDIR"] = str(workdir)  # keep every temp file in the checkout
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    children = Children()
    try:
        result = RUNNERS[args.workload](args, workdir, env, children)
    except Failed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        # no signal may cut the clean-up short
        signal.alarm(0)
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        children.stop_all()
        shutil.rmtree(workdir, ignore_errors=True)

    outcomes = result["outcomes"]  # the first run is untraced and gives the digest
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    computed = result["metrics"]
    named = {k: v for k, v in computed.items() if k not in {m["name"] for m in declared}}
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "digest": outcomes[0].digest(),
        "digested_ops": outcomes[0].digested,
        "error_rate": failed / max(attempted, 1),
        "failures": [f for o in outcomes for f in o.failures],
        "input_shares": result["shares"],
        "workload_metrics": {
            k: {"value": v, "unit": UNITS.get(k, "ms")} for k, v in named.items()
            if not args.trace
        },
        "machine": machine,
        # this process's peak; for bulk_cli and the proxies it is not the
        # program's, and shows how far the checks stay apart from it
        "benchmark_peak_rss_mb": own_peak_rss_mb(),
    }
    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
