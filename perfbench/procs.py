"""Child processes of a run: started, stopped and reaped in one place."""

from __future__ import annotations

import signal
import subprocess
from pathlib import Path


class Children:
    """Every subprocess this run started; ``stop_all`` ends and reaps them."""

    def __init__(self):
        self.procs = []

    def spawn(self, cmd, **kwargs) -> subprocess.Popen:
        proc = subprocess.Popen(cmd, **kwargs)
        self.procs.append(proc)
        return proc

    @staticmethod
    def stop(proc: subprocess.Popen, sig=signal.SIGTERM) -> None:
        """Close its stdin, which ends the stub and the CLI worker; signal
        it if it still runs; kill it if that does not end it either."""
        if proc.stdin:
            proc.stdin.close()
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        if proc.poll() is None:
            proc.send_signal(sig)
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10)
        for stream in (proc.stdin, proc.stdout, proc.stderr):
            if stream:
                stream.close()

    def stop_all(self) -> None:
        while self.procs:
            self.stop(self.procs.pop())


def peak_rss_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM for pid {pid}")
