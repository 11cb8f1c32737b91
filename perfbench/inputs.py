"""Seeded input generators for every workload.

Everything the program receives is made here from the workload seed:
origins, session keys, canvases, audio, timestamp streams, FPD traces
and the proxy request mix.  The same seed always yields the same inputs
(numpy's PCG64 and Python's ``random.Random`` are both seeded from it),
so every run at one seed produces the same outputs and digest.

Each generator also reports the share of its inputs that has the
property a later optimization would depend on (repeated canvases,
timestamps sharing a bucket with their predecessor, blocked / CONNECT /
large-body requests), so a claimed gain can be read against it.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "src" / "webshield" / "data"

QUANTUM_MS = 10.0  # the CLI's and library's default shield quantum

PROBE_W, PROBE_H = 300, 150
PAGE_AUDIO_FRAMES = 5_000
PAGE_BURST = 400  # performance.now() reads per page, ~0.1 ms apart
PAGE_SENSOR_KINDS = ("accelerometer", "gyroscope", "orientation_abs")
PAGE_SENSOR_HZ, PAGE_SENSOR_S = 60, 2
PAGE_TRACE_EVENTS = 2_000

BULK_W, BULK_H = 1920, 1080
BULK_AUDIO_RATE, BULK_AUDIO_S = 44_100, 10
BULK_TIMESTAMPS = 100_000
BULK_TRACE_EVENTS = 20_000

BIG_BODY_LEN = 256 * 1024


def session_hex(seed: int) -> str:
    return random.Random(f"session/{seed}").randbytes(32).hex()


def _origins(rng: random.Random, n: int) -> list[str]:
    words = ("news", "shop", "maps", "mail", "video", "bank", "wiki", "game")
    return [
        f"https://{rng.choice(words)}{rng.randrange(1000)}.example" for _ in range(n)
    ]


def _canvas(rng: np.random.Generator, w: int, h: int) -> bytes:
    """RGBA pixels: random colour, alpha mostly opaque with some translucency."""
    px = rng.integers(0, 256, size=(h * w, 4), dtype=np.uint8)
    px[:, 3] = np.where(rng.random(h * w) < 0.8, 255, px[:, 3])
    return px.tobytes()


def _audio(rng: np.random.Generator, frames: int, rate: int) -> np.ndarray:
    t = np.arange(frames) / rate
    tone = 0.5 * np.sin(2 * np.pi * rng.uniform(100, 1000) * t)
    return np.clip(tone + rng.normal(0.0, 0.05, frames), -0.95, 0.95)


def same_bucket_share(ts) -> float:
    """Share of timestamps in the same shield bucket as their predecessor."""
    buckets = np.floor_divide(np.asarray(ts, dtype=np.float64), QUANTUM_MS)
    return float(np.mean(buckets[1:] == buckets[:-1])) if len(buckets) > 1 else 0.0


# ----------------------------------------------------------------------
# FPD traces


def corpus() -> list[tuple[str, dict]]:
    return [
        (p.stem, json.loads(p.read_text()))
        for p in sorted((DATA / "fpd_corpus").glob("*.json"))
    ]


def _config_endpoints() -> set:
    found = set()

    def walk(group):
        for child in group["children"]:
            if "endpoint" in child:
                found.add(child["endpoint"])
            else:
                walk(child["group"])

    walk(json.loads((DATA / "fpd_default_config.json").read_text())["root"])
    return found


def _event_count(doc: dict) -> int:
    return sum(int(e.get("count", 1)) for e in doc["events"])


def expand_trace(doc: dict, rng: random.Random, n_events: int) -> dict:
    """Expand every event into single-count events, then pad to
    ``n_events`` with endpoints the detector does not classify.

    Counters of classified endpoints are unchanged, so the verdict equals
    the source trace's; events stay in ``t_ms`` order.
    """
    known = _config_endpoints()
    events = []
    for e in doc["events"]:
        for j in range(int(e.get("count", 1))):
            events.append((float(e["t_ms"]) + 0.001 * j, e["endpoint"]))
    t_max = max(t for t, _ in events) + 1.0
    noise = [f"Noise{k}.prototype.probe{k % 7}" for k in range(40)]
    if known.intersection(noise):
        raise ValueError("noise endpoints must stay unclassified")
    while len(events) < n_events:
        events.append((round(rng.uniform(0.0, t_max), 3), rng.choice(noise)))
    events.sort(key=lambda e: e[0])
    return {
        "page": doc.get("page", ""),
        "events": [{"t_ms": t, "endpoint": ep} for t, ep in events],
    }


# ----------------------------------------------------------------------
# page_visit


@dataclass(frozen=True)
class Page:
    origin: str
    canvases: tuple  # three probe reads; the first two are one canvas
    audio: np.ndarray
    burst_ms: tuple  # dense, monotone performance.now() reads
    coord: tuple  # latitude, longitude, accuracy
    trace: dict
    fp_label: bool  # source trace is fp_*


def page_pool(seed: int, n_pages: int = 32) -> tuple[list[Page], dict]:
    """The pages one page_visit run cycles through, and their input shares."""
    rng = random.Random(f"page/{seed}")
    nrng = np.random.default_rng([seed, 1])
    origins = _origins(rng, 12)
    canvases = [_canvas(nrng, PROBE_W, PROBE_H) for _ in range(6)]
    # every page ingests the same number of events, so a page's cost does
    # not depend on which trace the seed picked
    traces = [
        (name.startswith("fp_"), expand_trace(doc, rng, PAGE_TRACE_EVENTS))
        for name, doc in corpus()
        if _event_count(doc) <= PAGE_TRACE_EVENTS
    ]
    pages = []
    for _ in range(n_pages):
        a, b = rng.sample(range(len(canvases)), 2)
        fp, trace = rng.choice(traces)
        t0 = nrng.uniform(1_000.0, 60_000.0)
        burst = t0 + np.cumsum(nrng.exponential(0.1, PAGE_BURST))
        pages.append(Page(
            origin=rng.choice(origins),
            canvases=(canvases[a], canvases[a], canvases[b]),
            audio=_audio(nrng, PAGE_AUDIO_FRAMES, 44_100),
            burst_ms=tuple(burst.tolist()),
            coord=(rng.uniform(-80, 80), rng.uniform(-179, 179), rng.uniform(5, 50)),
            trace=trace,
            fp_label=fp,
        ))
    seen, repeats, reads = set(), 0, 0
    for p in pages:
        for c in p.canvases:
            key = (p.origin, hashlib.sha256(c).digest())
            repeats += key in seen
            reads += 1
            seen.add(key)
    shares = {
        "repeated_canvas_reads": repeats / reads,
        "timestamps_same_bucket": float(np.mean([same_bucket_share(p.burst_ms) for p in pages])),
    }
    return pages, shares


# ----------------------------------------------------------------------
# bulk_cli


@dataclass(frozen=True)
class BulkFiles:
    canvases: list  # paths of bitmap files
    audios: list  # paths of audio files
    timestamps: list  # paths of `time shield` stdin files
    traces: list  # (path, fp_label)


def _write_bitmap(path: Path, w: int, h: int, data: bytes) -> None:
    path.write_bytes(w.to_bytes(4, "little") + h.to_bytes(4, "little") + data)


def _write_audio(path: Path, rate: int, channels: list) -> None:
    frames = len(channels[0])
    header = b"".join(v.to_bytes(4, "little") for v in (rate, len(channels), frames))
    path.write_bytes(header + np.stack(channels, axis=1).astype("<f4").tobytes())


def sparse_timestamps(nrng: np.random.Generator, n: int) -> np.ndarray:
    """About one timestamp per shield bucket: gaps uniform in 0.6..1.4 quanta."""
    return 1_000.0 + np.cumsum(nrng.uniform(0.6 * QUANTUM_MS, 1.4 * QUANTUM_MS, n))


def bulk_files(seed: int, workdir: Path, variants: int = 2) -> tuple[BulkFiles, dict]:
    """Write the files one bulk_cli run cycles through; return them and their shares."""
    rng = random.Random(f"bulk/{seed}")
    nrng = np.random.default_rng([seed, 2])
    canvases, audios, stamps, traces = [], [], [], []
    same = []
    docs = corpus()
    for k in range(variants):
        path = workdir / f"canvas{k}.bmp"
        _write_bitmap(path, BULK_W, BULK_H, _canvas(nrng, BULK_W, BULK_H))
        canvases.append(path)
        path = workdir / f"audio{k}.raw"
        frames = BULK_AUDIO_RATE * BULK_AUDIO_S
        _write_audio(path, BULK_AUDIO_RATE, [_audio(nrng, frames, BULK_AUDIO_RATE) for _ in range(2)])
        audios.append(path)
        ts = sparse_timestamps(nrng, BULK_TIMESTAMPS)
        same.append(same_bucket_share(ts))
        path = workdir / f"timestamps{k}.txt"
        path.write_text("".join(f"{t:.3f}\n" for t in ts))
        stamps.append(path)
        # alternate a fingerprinting and a benign source trace
        name, doc = rng.choice([d for d in docs if d[0].startswith("fp_" if k % 2 == 0 else "benign_")])
        path = workdir / f"trace{k}.json"
        path.write_text(json.dumps(expand_trace(doc, rng, BULK_TRACE_EVENTS)))
        traces.append((path, name.startswith("fp_")))
    shares = {"timestamps_same_bucket": float(np.mean(same))}
    return BulkFiles(canvases, audios, stamps, traces), shares


def bulk_rounds(seed: int, n: int, variants: int = 2) -> list[tuple[str, int]]:
    """(origin, input variant) of each CLI round, cycled by the run.

    Every round has its own origin: the origin sets the fake device's
    sine count (60 to 90 terms), so a run samples many devices rather
    than repeating a few seed-chosen ones."""
    rng = random.Random(f"rounds/{seed}")
    return [(origin, k % variants) for k, origin in enumerate(_origins(rng, n))]


# ----------------------------------------------------------------------
# proxy mix

SMALL, BLOCKED, CONNECT, BIG = "small", "blocked", "connect", "big"


def proxy_mix(seed: int, n: int = 4096) -> tuple[list[str], dict]:
    """Request kinds in operation order: ~77% small GETs to localhost,
    ~10% GETs to 0.0.0.0 (must be blocked), ~10% CONNECT tunnels carrying
    one GET, ~3% 256 KiB response bodies."""
    rng = random.Random(f"proxy/{seed}")
    kinds = rng.choices([SMALL, BLOCKED, CONNECT, BIG], weights=[77, 10, 10, 3], k=n)
    shares = {f"requests_{k}": kinds.count(k) / n for k in (BLOCKED, CONNECT, BIG)}
    return kinds, shares


_BIG_BLOCK = hashlib.sha256(b"perfbench big body").digest()
BIG_BODY = (_BIG_BLOCK * (BIG_BODY_LEN // len(_BIG_BLOCK) + 1))[:BIG_BODY_LEN]


def stub_body(path: str) -> bytes:
    """What the stub serves for a path; the client checks relayed bodies against it."""
    if path.startswith("/big/"):
        return BIG_BODY
    return b"stub-ok " + path.encode("ascii")
