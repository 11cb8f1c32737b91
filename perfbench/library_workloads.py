"""The two in-process workloads: ``page_visit`` and ``bulk_cli``.

Both are closed loops on one thread.  ``page_visit`` calls the library's
public functions the way a browser-like host would on every page;
``bulk_cli`` invokes the click entry point on real-size files, in process
in a worker (``cli_worker.py``).
Each operation's outputs are checked, and the outputs of the first
``DIGEST_*`` operations are folded into the run's digest.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import inputs
import reference
import stats

DIGEST_PAGES = 16
DIGEST_ROUNDS = 2
WARMUP_PAGES = 3
WARMUP_ROUNDS = 1
PAGE_TAGS = ("canvas", "audio", "webgl", "mediadevices", "geo", "time", "sensor")
GEO_PRECISION_M = 1_000.0
BENCH = Path(__file__).resolve().parent
GL_CHARS = set("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789 ")


# ----------------------------------------------------------------------
# page_visit


def _visit(session, page: inputs.Page, cfg):
    from webshield import farble, fpd, keyrand, sensorsim, timeshield

    origin = keyrand.Origin.parse(page.origin)
    seeds = {tag: keyrand.derive_seed(session, origin, tag) for tag in PAGE_TAGS}
    canvases = [
        farble.farble_bitmap(seeds["canvas"], farble.BitmapBuffer(inputs.PROBE_W, inputs.PROBE_H, data))
        for data in page.canvases
    ]
    audio = farble.farble_audio(seeds["audio"], farble.AudioSamples(44_100, [page.audio]))
    gl = farble.spoof_gl_strings(seeds["webgl"])
    ids = farble.spoof_device_ids(seeds["mediadevices"], 3)
    geo = farble.degrade_geolocation(seeds["geo"], farble.GeoCoordinate(*page.coord), GEO_PRECISION_M)
    shielded = list(timeshield.shield_stream(seeds["time"], page.burst_ms))
    state = sensorsim.init_device_state(seeds["sensor"])
    n = inputs.PAGE_SENSOR_HZ * inputs.PAGE_SENSOR_S
    readings = [
        sensorsim.sample(state, kind, i * 1000.0 / inputs.PAGE_SENSOR_HZ)
        for kind in inputs.PAGE_SENSOR_KINDS
        for i in range(n)
    ]
    _state, verdict, report = fpd.analyze_trace(page.trace, cfg)
    return canvases, audio, gl, ids, geo, shielded, readings, verdict, report


def _canvas_ok(before: bytes, after: bytes) -> bool:
    """Only R/G/B least significant bits change; alpha is untouched."""
    a = np.frombuffer(before, np.uint8).reshape(-1, 4)
    b = np.frombuffer(after, np.uint8).reshape(-1, 4)
    flips = a ^ b
    return a.shape == b.shape and not (flips[:, :3] & 0xFE).any() and not flips[:, 3].any()


def _shield_ok(raw, shielded) -> bool:
    """Monotone and within one quantum of the input."""
    out = np.asarray(shielded, np.float64)
    raw = np.asarray(raw, np.float64)
    return (
        len(out) == len(raw)
        and bool(np.all(np.diff(out) >= 0))
        and bool(np.all(np.abs(out - raw) < inputs.QUANTUM_MS))
    )


def _check_visit(page: inputs.Page, out) -> str | None:
    canvases, audio, gl, ids, geo, shielded, readings, verdict, _report = out
    if not all(_canvas_ok(i, o.data) for i, o in zip(page.canvases, canvases)):
        return "canvas bits outside R/G/B LSBs"
    if canvases[0].data != canvases[1].data:
        return "repeated canvas read differs"
    if np.max(np.abs(audio.channels[0] - page.audio)) > 1e-7:
        return "audio offset above 1e-7"
    strings = gl.as_dict().values()
    if not all(8 <= len(s) <= 32 and set(s) <= GL_CHARS for s in strings):
        return "bad GL string"
    if len(set(ids)) != 3 or any(len(i) != 43 for i in ids):
        return "bad device ids"
    if geo.accuracy < GEO_PRECISION_M:
        return "geolocation accuracy improved"
    if not _shield_ok(page.burst_ms, shielded):
        return "shielded timestamps not monotone or off by a quantum"
    stamps = [r.timestamp_ms for r in readings]
    if any(not np.all(np.isfinite(r.value)) for r in readings) or not all(
        s >= 0 for s in stamps
    ):
        return "bad sensor reading"
    if verdict.detected != page.fp_label:
        return "FPD verdict differs from corpus label"
    return None


def _visit_parts(out) -> list[bytes]:
    canvases, audio, gl, ids, geo, shielded, readings, _verdict, report = out
    return [
        *(c.data for c in canvases),
        np.asarray(audio.channels[0], np.float64).tobytes(),
        json.dumps(gl.as_dict(), sort_keys=True).encode(),
        "\n".join(ids).encode(),
        repr((geo.latitude, geo.longitude, geo.accuracy)).encode(),
        np.asarray(shielded, np.float64).tobytes(),
        repr([(r.kind.value, r.value, r.timestamp_ms) for r in readings]).encode(),
        report.to_json().encode(),
    ]


def run_page_visit(seed: int, seconds: float, pages: list, cfg, tracer=None) -> dict:
    """Visit pages in seeded order for ``seconds``; per-page latency in ms.

    The small-steps reference runs before the first page and after each
    page, outside the pages' timing, so every page is bracketed by two
    reference runs taken in the same moments of the host."""
    from webshield import keyrand

    session = keyrand.SessionKey.from_hex(inputs.session_hex(seed))
    outcome = stats.Outcome(DIGEST_PAGES)
    latencies, scaled = [], []
    ref_before = reference.steps_ms()
    start = time.perf_counter()
    i = 0
    while i < WARMUP_PAGES or time.perf_counter() - start < seconds:
        page = pages[i % len(pages)]
        if tracer is not None:
            tracer.request_id = i + 1
        t0 = time.perf_counter()
        try:
            out = _visit(session, page, cfg)
        except Exception as exc:  # an operation that raises counts as failed
            outcome.record(False, f"page {i}: {exc!r}")
            out = None
        elapsed = (time.perf_counter() - t0) * 1e3
        ref_after = reference.steps_ms()
        if out is not None:
            if i >= WARMUP_PAGES:
                latencies.append(elapsed)
                scaled.append(elapsed / (ref_before + ref_after) * 2 * reference.STEPS_NOMINAL_MS)
            problem = _check_visit(page, out)
            outcome.record(problem is None, f"page {i}: {problem}",
                           _visit_parts(out) if outcome.digested < DIGEST_PAGES else ())
        ref_before = ref_after
        i += 1
    return {"outcome": outcome, "latencies_ms": latencies, "scaled_ms": scaled}


def page_metrics(run: dict) -> dict:
    lat, scaled = run["latencies_ms"], run["scaled_ms"]
    return {
        # each page over the mean of the references around it, scaled to
        # the reference's nominal time: other tenants slow whole stretches
        # of a run by up to 2x, and the references slow with them
        "latency_ms": stats.percentile(scaled, 50),
        "latency_tail_ms": stats.percentile(scaled, 95),
        "page_p50_ms": stats.percentile(lat, 50),
        "page_p95_ms": stats.percentile(lat, 95),
        "timed_pages": len(lat),
    }


# ----------------------------------------------------------------------
# bulk_cli

COMMANDS = ("farble_canvas", "farble_audio", "time_shield", "sensors_gen", "fpd_analyze")
COLD_START = "cli_start"
NAMED = {
    "farble_canvas": "canvas_1080p_ms",
    "farble_audio": "audio_10s_ms",
    "time_shield": "time_shield_ms",
    "sensors_gen": "sensors_gen_ms",
    "fpd_analyze": "fpd_analyze_ms",
    COLD_START: "cli_start_ms",
}


def _args(cmd: str, files: inputs.BulkFiles, variant: int, origin: str, session: str, out_dir: Path):
    keyed = ["--session", session, "--origin", origin]
    if cmd == "farble_canvas":
        return ["farble", "canvas", "--in", str(files.canvases[variant]),
                "--out", str(out_dir / "canvas.out"), *keyed]
    if cmd == "farble_audio":
        return ["farble", "audio", "--in", str(files.audios[variant]),
                "--out", str(out_dir / "audio.out"), *keyed]
    if cmd == "time_shield":
        return ["time", "shield", *keyed]
    if cmd == "sensors_gen":
        return ["sensors", "gen", "--sensor", "magnetometer", "--rate", "100",
                "--duration", "60", *keyed]
    return ["fpd", "analyze", "--trace", str(files.traces[variant][0])]


def _check_command(cmd: str, files, variant: int, stdout: bytes, out_dir: Path,
                   raw_stamps: list) -> tuple[str | None, list]:
    """Return (problem or None, output parts for the digest)."""
    if cmd == "farble_canvas":
        before = files.canvases[variant].read_bytes()
        after = (out_dir / "canvas.out").read_bytes()
        ok = before[:8] == after[:8] and _canvas_ok(before[8:], after[8:])
        return (None if ok else "canvas bits outside R/G/B LSBs"), [after]
    if cmd == "farble_audio":
        before = files.audios[variant].read_bytes()
        after = (out_dir / "audio.out").read_bytes()
        a = np.frombuffer(before, "<f4", offset=12).astype(np.float64)
        b = np.frombuffer(after, "<f4", offset=12).astype(np.float64)
        # the file stores float32, so allow one float32 step of rounding
        bound = 1e-7 + np.spacing(np.abs(a).astype(np.float32)).astype(np.float64)
        ok = before[:12] == after[:12] and a.shape == b.shape and bool(np.all(np.abs(b - a) <= bound))
        return (None if ok else "audio offset above 1e-7"), [after]
    if cmd == "time_shield":
        out = np.array(stdout.split(), dtype=np.float64)
        return (None if _shield_ok(raw_stamps[variant], out) else "shielded timestamps wrong"), [stdout]
    if cmd == "sensors_gen":
        rows = stdout.decode().splitlines()
        data = np.array([r.split(",") for r in rows[1:]], dtype=np.float64)
        ok = (rows[0] == "t_ms,x,y,z" and data.shape == (6000, 4)
              and bool(np.all(np.isfinite(data))) and bool(np.all(np.diff(data[:, 0]) >= 0)))
        return (None if ok else "bad sensor trace"), [stdout]
    detected = b"verdict: fingerprinting detected" in stdout
    ok = detected == files.traces[variant][1]
    return (None if ok else "FPD verdict differs from corpus label"), [stdout]


class CliWorker:
    """The process that runs the CLI commands: ``cli_worker.py``.

    Its peak RSS is the program's alone: input generation, output checks
    and reference timings stay in the benchmark process."""

    def __init__(self, children, env: dict, workdir: Path, spans_out: Path | None = None):
        cmd = [sys.executable, str(BENCH / "cli_worker.py")]
        if spans_out is not None:
            cmd.append(str(spans_out))
        with open(workdir / "cli_worker.err", "w") as err:
            self.proc = children.spawn(cmd, env=env, text=True, cwd=inputs.ROOT,
                                       stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err)

    def run(self, command: str, args: list, stdin: Path | None, stdout: Path,
            round_: int) -> tuple[int | str, float]:
        """Run one command; return its exit code and wall time in ms."""
        req = {"command": command, "args": args, "stdin": stdin and str(stdin),
               "stdout": str(stdout), "round": round_}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"CLI worker exited with {self.proc.wait(timeout=10)}")
        answer = json.loads(line)
        return answer["code"], answer["ms"]


def cold_start(env: dict) -> tuple[float, bytes, int]:
    """Wall time of ``python -m webshield --version`` in a fresh process."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "webshield", "--version"],
                          capture_output=True, env=env, timeout=60, cwd=inputs.ROOT)
    return (time.perf_counter() - t0) * 1e3, proc.stdout, proc.returncode


def run_bulk_cli(seed: int, seconds: float, files: inputs.BulkFiles, out_dir: Path,
                 env: dict, worker: CliWorker) -> dict:
    """Run CLI rounds in seeded order for ``seconds``.

    Each command is followed by the reference kernel, and the cold start
    by a reference process start, so both see the same moments of the
    host.  A round's cost is the geometric mean of its six times, each
    divided by its reference and scaled to the reference's nominal time.
    """
    session = inputs.session_hex(seed)
    rounds = inputs.bulk_rounds(seed, 64)
    outcome = stats.Outcome(DIGEST_ROUNDS * (len(COMMANDS) + 1))
    raw_stamps = [np.array(path.read_text().split(), dtype=np.float64) for path in files.timestamps]
    stdout_path = out_dir / "stdout"
    times = {cmd: [] for cmd in (*COMMANDS, COLD_START)}
    round_ms, round_costs = [], []
    start = time.perf_counter()
    r = 0
    while r < WARMUP_ROUNDS + 1 or time.perf_counter() - start < seconds:
        origin, variant = rounds[r % len(rounds)]
        elapsed, scaled = {}, []
        for cmd in COMMANDS:
            args = _args(cmd, files, variant, origin, session, out_dir)
            stdin = files.timestamps[variant] if cmd == "time_shield" else None
            code, ms = worker.run(cmd, args, stdin, stdout_path, r)
            ref_ms = reference.kernel_ms()
            if code != 0:
                outcome.record(False, f"round {r} {cmd}: exit {code}")
                continue
            try:
                problem, parts = _check_command(cmd, files, variant, stdout_path.read_bytes(),
                                                out_dir, raw_stamps)
            except (OSError, ValueError, IndexError) as exc:
                problem, parts = f"unreadable output: {exc!r}", []
            outcome.record(problem is None, f"round {r} {cmd}: {problem}", parts)
            elapsed[cmd] = ms
            scaled.append(ms / ref_ms * reference.KERNEL_NOMINAL_MS)
        ms, stdout, code = cold_start(env)
        ref_ms = reference.spawn_s(env) * 1e3
        ok = code == 0 and stdout.startswith(b"webshield ")
        outcome.record(ok, f"round {r} cold start: exit {code}", [stdout])
        elapsed[COLD_START] = ms
        scaled.append(ms / ref_ms * reference.SPAWN_NOMINAL_MS)
        if r >= WARMUP_ROUNDS and len(elapsed) == len(times):  # timed, and every command ran
            for cmd, v in elapsed.items():
                times[cmd].append(v)
            round_ms.append(sum(elapsed.values()))
            round_costs.append(statistics.geometric_mean(scaled))
        r += 1
    return {"outcome": outcome, "times_ms": times, "round_ms": round_ms,
            "round_costs": round_costs}


def bulk_metrics(run: dict) -> dict:
    costs = run["round_costs"]
    metrics = {
        "latency_ms": stats.percentile(costs, 50),
        "latency_tail_ms": stats.percentile(costs, 90),
        "rounds_per_s": 1e3 * len(run["round_ms"]) / sum(run["round_ms"]),
        "timed_rounds": len(costs),
    }
    metrics.update({NAMED[cmd]: stats.percentile(v, 50) for cmd, v in run["times_ms"].items()})
    return metrics
