"""Run webshield CLI commands in process, one per request line.

Usage: ``python3 cli_worker.py [SPANS_OUT]``.  Each line on stdin is a
JSON request ``{"command", "args", "stdin", "stdout", "round"}``.  The
worker runs ``webshield ARGS <stdin >stdout`` through the click entry
point in this process and answers with one JSON line ``{"code", "ms"}``:
the exit code and the command's wall time.  It exits when stdin closes.

With SPANS_OUT the library wrappers from ``tracer.install_library`` are
installed, each command is a ``cli.<command>`` span, and the spans are
written to SPANS_OUT on exit.

The bulk_cli workload runs its commands here rather than in the
benchmark process, so this process's peak RSS is the program's alone:
input generation, output checks and reference timings stay outside it.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import inputs
import tracer as tracing


def invoke(cli, args: list, stdin: str | None, stdout: str) -> int | str:
    """Run the click entry point as ``webshield ARGS <stdin >stdout``.

    Streams are files, as under a shell redirect; click's in-memory test
    runner grows the process's RSS on every large output.
    """
    import click

    saved = sys.stdin, sys.stdout, sys.stderr
    with open(stdin or os.devnull) as fin, open(stdout, "w") as fout, open(os.devnull, "w") as ferr:
        sys.stdin, sys.stdout, sys.stderr = fin, fout, ferr
        try:
            cli.main.main(args, prog_name="webshield", standalone_mode=False)
            return 0
        except (click.ClickException, click.exceptions.Exit) as exc:
            return exc.exit_code
        except Exception as exc:  # a command that raises counts as failed
            return f"raised {exc!r}"
        finally:
            sys.stdin, sys.stdout, sys.stderr = saved


def main() -> int:
    spans_out = Path(sys.argv[1]) if len(sys.argv) > 1 else None
    # answers go to a private copy of stdout; nothing the program prints
    # can reach them
    answers = os.fdopen(os.dup(1), "w")
    os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
    sys.path.insert(0, str(inputs.ROOT / "src"))
    from webshield import cli

    t = None
    if spans_out is not None:
        t = tracing.Tracer()
        tracing.install_library(t)
    try:
        for line in sys.stdin:
            req = json.loads(line)
            span = t.begin(f"cli.{req['command']}", request_id=req["round"] + 1) if t else None
            t0 = time.perf_counter()
            code = invoke(cli, req["args"], req["stdin"], req["stdout"])
            elapsed = (time.perf_counter() - t0) * 1e3
            if span:
                t.end(span)
            answers.write(json.dumps({"code": code, "ms": elapsed}) + "\n")
            answers.flush()
    finally:
        if t is not None:
            t.unpatch()
            t.dump(spans_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
