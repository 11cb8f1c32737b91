"""Run ``webshield`` with the proxy-side wrappers installed.

Usage: ``python3 launch_proxy.py SPANS_OUT -- <webshield CLI args>``.
Installs the network-layer wrappers from ``tracer.install_proxy``,
calls the CLI entry point in this process, and writes the recorded
spans to SPANS_OUT (an ``.npz`` file) once the CLI returns.
"""

from __future__ import annotations

import sys
from pathlib import Path

import inputs
import tracer as tracing


def main() -> int:
    spans_out, sep, *cli_args = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: launch_proxy.py SPANS_OUT -- <webshield args>")
    sys.path.insert(0, str(inputs.ROOT / "src"))
    from webshield import cli

    t = tracing.Tracer()
    tracing.install_proxy(t)
    try:
        cli.main(cli_args, standalone_mode=False)
    finally:
        t.dump(Path(spans_out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
