"""Compare two revisions on the benchmark and write a BENCH_<pr>.json.

Usage (from the repository root):

    python3 tools/bench_compare.py --parent HEAD~1 --child HEAD --pr 14 \\
        --seeds 1401-1410 --claim bulk_cli:latency_ms --traced bulk_cli

Each side runs the unchanged ``perfbench/run.py`` from its own
``git archive`` copy, so both measure their own committed files.  For
each run the copy is moved to one shared path, so both sides run from
the same directory.  Per
workload and seed it runs one pair; odd seeds run the parent first and
even seeds the child first, so a drift of the host over a batch does
not favour one side.  ``--child WORKTREE`` (the default) archives the
working tree's tracked and unignored files through a scratch index,
without touching the repository's own.

The output keeps the keys of the earlier BENCH files: per workload and
side the median, quartiles and runs of each end-to-end metric, failed
and attempted operations, the child's wins per metric, whether every
child run beats every parent run per metric (the runs of a bimodal
metric can overlap while its medians differ), the digest of
every run, the machine, an optional claim with its verdict, and an
optional traced run per side.  Next to the end-to-end metrics, each side
keeps the same summary of every ``workload_metrics`` value of
``run.py``'s detail line (``proxy_p50_ms``, ``proxy_req_per_s``,
``time_shield_ms``, ...), so a layer claim rests on the same pairs,
and of every ``input_shares`` value (``repeated_canvas_reads``, ...), so
a claim that helps only inputs with some property cites that property's
share from the same runs.  ``loadavg_1m`` summarizes the host's 1-minute
load average as each of the side's runs started, so a noisy metric can
be read against the load it ran under.
Those figures time whole requests and commands from outside the
program, so they also see costs no traced span covers: the proxy's
``proxy.request`` span starts inside the handler, after the connection
has reached a thread.  Per workload, ``same_outputs`` is true
iff both sides' digests agree at every seed; a claim on a workload whose
outputs differ is not met, and each such workload gets a warning on
stderr.  Each side's ``failed_share`` is its ``failed_ops`` over its
``attempted_ops``; a claim on a workload where the child's share is the
higher is not met.  ``regressions`` lists each end-to-end metric whose
child median is worse than the parent's, in the direction its
``better`` names, by more than its ``BENCHMARK.json`` bound (in the
metric's own unit), with both medians and the bound; each one also gets
a warning on stderr.  The tool only reads ``run.py``'s output and
``BENCHMARK.json``; it changes no bound, metric or benchmark file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKTREE = "WORKTREE"


def git(*args: str, env: dict | None = None) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def tree_of(rev: str) -> str:
    """The tree of a revision, or of the working tree for WORKTREE."""
    if rev != WORKTREE:
        return git("rev-parse", f"{rev}^{{tree}}")
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=str(Path(tmp) / "index"))
        git("add", "-A", env=env)
        return git("write-tree", env=env)


def export(tree: str, dest: Path) -> None:
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", tree], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_bench(tree_dir: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    # with each side run in a directory of its own, bulk_cli's peak_rss_mb
    # read 0.2-0.3 MB higher on the side in "child" whatever code it held
    run_dir = tree_dir.with_name("tree")
    tree_dir.rename(run_dir)
    try:
        done = subprocess.run(cmd, cwd=run_dir, capture_output=True, text=True)
    finally:
        run_dir.rename(tree_dir)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} in {tree_dir} failed:\n{done.stderr}")
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    print(f"{workload} seed {seed} {tree_dir.name}: "
          + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
          file=sys.stderr, flush=True)
    return {"detail": detail, "result": result}


def summary(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(statistics.median(values), 4), "q1": round(q1, 4),
            "q3": round(q3, 4), "runs": [round(v, 4) for v in values]}


def parse_seeds(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="revision of the parent")
    parser.add_argument("--child", default=WORKTREE, help=f"revision, or {WORKTREE}")
    parser.add_argument("--pr", required=True, help="names the output, BENCH_<pr>.json")
    parser.add_argument("--seeds", required=True, help="one seed or a range, e.g. 1401-1410")
    parser.add_argument("--workloads", default="page_visit,bulk_cli,proxy_preresolve,proxy_learn")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--claim", help="WORKLOAD:METRIC the child claims to improve")
    parser.add_argument("--traced", help="workload to run once per side with --trace 1")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    if len(seeds) < 2:
        parser.error("quartiles need at least two seeds")
    trees = {"parent": tree_of(args.parent), "child": tree_of(args.child)}
    out = {
        "claim": None,
        "what": (
            "Alternating parent/child runs of perfbench/run.py, one run per side per seed; "
            "odd seeds run the parent first, even seeds the child first. Each side runs from "
            "a git archive of its own tree, moved to one shared path for the run. "
            f"Run length {args.seconds:g} s on both sides."),
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g}",
        "parent": {"commit": git("rev-parse", "--short", args.parent),
                   "src_tree": git("rev-parse", f"{trees['parent']}:src")},
        "child": {"src_tree": git("rev-parse", f"{trees['child']}:src")},
        "machine": None,
        "workloads": {},
        "digests_at_reference_seeds": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_compare-") as tmp:
        dirs = {side: Path(tmp) / side for side in trees}
        for side, tree in trees.items():
            export(tree, dirs[side])
        for workload in args.workloads.split(","):
            runs = {"parent": [], "child": []}
            for seed in seeds:
                for side in (("parent", "child") if seed % 2 else ("child", "parent")):
                    run = run_bench(dirs[side], workload, seed, args.seconds, 0)
                    runs[side].append(run)
                    out["digests_at_reference_seeds"].setdefault(
                        f"{workload}@{seed}", {})[side] = run["detail"]["digest"]
            entry = {"seeds": seeds, "pairs": len(seeds), "same_outputs": all(
                p["detail"]["digest"] == c["detail"]["digest"]
                for p, c in zip(runs["parent"], runs["child"]))}
            if not entry["same_outputs"]:
                print(f"warning: {workload}: the child's outputs differ from the parent's "
                      "at some seed (digests differ)", file=sys.stderr, flush=True)
            for side, side_runs in runs.items():
                metrics = {name: summary([r["result"]["metrics"][name]["value"]
                                          for r in side_runs]) for name in lower}
                metrics["failed_ops"] = sum(r["result"]["failed"] for r in side_runs)
                metrics["attempted_ops"] = sum(r["result"]["attempted"] for r in side_runs)
                metrics["failed_share"] = metrics["failed_ops"] / max(metrics["attempted_ops"], 1)
                metrics["workload_metrics"] = {
                    name: summary([r["detail"]["workload_metrics"][name]["value"]
                                   for r in side_runs])
                    for name in side_runs[0]["detail"]["workload_metrics"]}
                metrics["input_shares"] = {
                    name: summary([r["detail"]["input_shares"][name] for r in side_runs])
                    for name in side_runs[0]["detail"]["input_shares"]}
                metrics["loadavg_1m"] = summary(
                    [r["detail"]["machine"]["loadavg_at_start"][0] for r in side_runs])
                entry[side] = metrics
            entry["child_wins"] = {
                name: sum((c < p) if is_lower else (c > p) for p, c in zip(
                    entry["parent"][name]["runs"], entry["child"][name]["runs"]))
                for name, is_lower in lower.items()}
            entry["child_beats_every_parent_run"] = {
                name: (max(entry["child"][name]["runs"]) < min(entry["parent"][name]["runs"])
                       if is_lower else
                       min(entry["child"][name]["runs"]) > max(entry["parent"][name]["runs"]))
                for name, is_lower in lower.items()}
            entry["regressions"] = []
            for name, is_lower in lower.items():
                parent, child = entry["parent"][name]["median"], entry["child"][name]["median"]
                if (child - parent if is_lower else parent - child) > bounds[name]:
                    entry["regressions"].append({"metric": name, "median_parent": parent,
                                                 "median_child": child, "bound": bounds[name]})
                    print(f"warning: {workload}: {name} median {child} against the parent's "
                          f"{parent} is worse by more than its bound {bounds[name]}",
                          file=sys.stderr, flush=True)
            out["workloads"][workload] = entry
            if out["machine"] is None:
                machine = runs["parent"][0]["detail"]["machine"]
                out["machine"] = {k: machine[k] for k in ("nproc", "cpu_model", "python", "numpy")}
                # without .pyc files every cold start recompiles the sources
                out["machine"]["PYTHONDONTWRITEBYTECODE"] = os.environ.get(
                    "PYTHONDONTWRITEBYTECODE")
        if args.traced:
            traced = {"seed": seeds[0]}
            for side in trees:
                result = run_bench(dirs[side], args.traced, seeds[0], args.seconds, 1)["result"]
                traced[side] = {"metrics": {k: v["value"] for k, v in result["metrics"].items()}}
            out["traced"] = {args.traced: traced}
    if args.claim:
        workload, metric = args.claim.split(":")
        entry = out["workloads"][workload]
        parent, child = entry["parent"][metric], entry["child"][metric]
        gap = parent["median"] - child["median"] if lower[metric] else (
            child["median"] - parent["median"])
        wins = entry["child_wins"][metric]
        out["claim"] = {
            "workload": workload, "metric": metric, "pairs": entry["pairs"],
            "child_wins": wins,
            "child_beats_every_parent_run": entry["child_beats_every_parent_run"][metric],
            "median_parent": parent["median"],
            "median_child": child["median"], "median_difference": round(gap, 4),
            "parent_iqr": round(parent["q3"] - parent["q1"], 4),
            "same_outputs": entry["same_outputs"],
            "failed_share_parent": entry["parent"]["failed_share"],
            "failed_share_child": entry["child"]["failed_share"],
            "met": (entry["same_outputs"] and wins >= math.ceil(0.9 * entry["pairs"])
                    and gap > parent["q3"] - parent["q1"]
                    and entry["child"]["failed_share"] <= entry["parent"]["failed_share"]),
        }
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
