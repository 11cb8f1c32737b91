"""Fixed pieces of work that scale the benchmark's timings.

The benchmark was sized on a 2-vCPU VM whose speed drifts by up to 40%
between runs as other tenants come and go.  A reference timed in the
same moments as the program moves with the host and not with webshield,
so the program's time divided by it keeps the program's share of a
change.

- ``kernel_ms``: makes, hashes, XORs, unpacks and converts 8 MiB of
  fresh memory, the kind of work the CLI commands do; about 50 ms on
  that VM.
- ``steps_ms``: many small steps, each a SHA-256 of a few bytes, float
  math and a small numpy call, the kind of work a page visit does;
  3 to 6 ms on that VM.
- ``spawn_s``: starts a Python that imports numpy and click, webshield's
  dependencies, and prints a line; 0.13 to 0.25 s on that VM.
"""

from __future__ import annotations

import hashlib
import math
import subprocess
import sys
import time

import numpy as np

KERNEL_BYTES = 8 << 20
# results are scaled to a host where the references take these times
KERNEL_NOMINAL_MS = 50.0
SPAWN_NOMINAL_MS = 130.0
STEPS_NOMINAL_MS = 4.0
STEPS = 1_500

_SMALL = np.linspace(0.0, 1.0, 4096)


def kernel_ms() -> float:
    """Run the kernel once; return its wall time in ms.

    Like a command, it allocates fresh buffers, so it pays the same page
    faults."""
    t0 = time.perf_counter()
    data = np.random.default_rng(0).integers(0, 256, KERNEL_BYTES, dtype=np.uint8)
    hashlib.sha256(data).digest()
    mixed = data ^ data[::-1]
    del data
    np.unpackbits(mixed[: KERNEL_BYTES // 8])
    (mixed[: KERNEL_BYTES // 2].astype(np.float32) * 0.5).sum()
    return (time.perf_counter() - t0) * 1e3


def steps_ms() -> float:
    """Run the small-steps reference once; return its wall time in ms."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(STEPS):
        digest = hashlib.sha256(b"perfbench reference" + i.to_bytes(8, "little")).digest()
        acc += math.sin(int.from_bytes(digest[:8], "little") / 2**64)
        if i % 4 == 0:
            acc += float(np.sum(_SMALL[i: i + 64]))
    return (time.perf_counter() - t0) * 1e3


def spawn_s(env: dict) -> float:
    """Seconds from spawning a Python that imports numpy and click until
    it prints a line: a webshield start-up without webshield."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", "import click, numpy; print('ready', flush=True)"],
        capture_output=True, text=True, env=env, timeout=60)
    if proc.returncode != 0 or not proc.stdout.startswith("ready"):
        raise RuntimeError(f"reference start-up failed: {proc.stderr[-300:]}")
    return time.perf_counter() - t0
