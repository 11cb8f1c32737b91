"""Time one workload's program set-up in a fresh process.

Usage: ``python3 setup_probe.py WORKLOAD``; prints seconds from the first
import of webshield until the first operation can be issued.  Nothing
heavier than the standard library is imported before the clock starts.
``python3 setup_probe.py reference`` prints the same for the import of
numpy and click alone.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path


def setup(workload: str):
    """The set-up a user of the workload pays once per process.

    ``reference`` imports only webshield's third-party dependencies; its
    time, taken in the same moments, scales the others (see run.py)."""
    if workload == "reference":
        import click  # noqa: F401
        import numpy  # noqa: F401

        return None
    if workload == "page_visit":
        from webshield import farble, fpd, keyrand, sensorsim, timeshield  # noqa: F401

        return fpd.default_config()  # a host loads the detector config once
    from webshield import cli  # the CLI reloads its config on every call

    return cli.main


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    t0 = time.perf_counter()
    setup(sys.argv[1])
    print(f"{time.perf_counter() - t0:.9f}", flush=True)
