"""Run outcomes and summary statistics shared by the workloads."""

from __future__ import annotations

import hashlib

import numpy as np


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile; ``q`` in 0..100."""
    return float(np.percentile(np.asarray(list(values), dtype=np.float64), q))


class Outcome:
    """Operation counts, failures and the digest of a run."""

    def __init__(self, digest_ops: int):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self._digest = hashlib.sha256()
        self._digest_ops = digest_ops
        self.digested = 0

    def record(self, ok: bool, what: str, parts=()) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(what)
        if self.digested < self._digest_ops:
            for part in parts:
                self._digest.update(len(part).to_bytes(8, "little") + part)
            self.digested += 1

    def digest(self) -> str:
        return self._digest.hexdigest()
