"""Spans and counts recorded around the calls into each webshield layer.

The wrappers live only here; nothing under ``src/`` knows about them.
Each is installed where its caller looks the name up: a name bound by
``from ... import`` in a calling module is patched in that module, a
name looked up through its own module's globals is patched there.

A span is (id, name, start_ns, end_ns, parent_id, request_id).  Spans
are buffered per thread in memory and written once, when the run ends.
A span's self time is its duration minus the time its child spans
cover; children run on the parent's thread, so they never overlap.
"""

from __future__ import annotations

import functools
import ipaddress
import itertools
import threading
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np


_INHERITED = object()  # marks a class attribute that was looked up on a base


class _Buffer:
    """One thread's spans and counts."""

    def __init__(self):
        self.cols = [array("q") for _ in range(6)]
        self.counts = Counter()
        self.stack = []  # open span ids


class Tracer:
    def __init__(self):
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._buffers = []
        self._lock = threading.Lock()
        self._names = {}
        self._undo = []
        self._cells = {}  # name -> [count], see wrap_count
        self.request_id = 0  # set per operation by the single-threaded workload loops

    def _buf(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
        return buf

    def _name_id(self, name: str) -> int:
        nid = self._names.get(name)
        if nid is None:
            with self._lock:
                nid = self._names.setdefault(name, len(self._names))
        return nid

    def count(self, name: str, n: int = 1) -> None:
        self._buf().counts[name] += n

    # -- spans ---------------------------------------------------------

    def begin(self, name: str, request_id: int | None = None):
        buf = self._buf()
        parent = buf.stack[-1] if buf.stack else None
        req = parent[2] if parent else (self.request_id if request_id is None else request_id)
        span = (next(self._ids), name, req, parent[0] if parent else 0, time.perf_counter_ns())
        buf.stack.append(span)
        return span

    def end(self, span, end_ns: int | None = None) -> None:
        buf = self._buf()
        if buf.stack and buf.stack[-1] is span:
            buf.stack.pop()
        sid, name, req, parent, start = span
        end = time.perf_counter_ns() if end_ns is None else end_ns
        for col, v in zip(buf.cols, (sid, self._name_id(name), start, end, parent, req)):
            col.append(v)

    def wrap(self, name, fn, name_of=None):
        """Span around every call; ``name_of(args)`` may refine the name."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.begin(name_of(args) if name_of else name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span)

        return wrapper

    def wrap_generator(self, name, fn):
        """Span over the time spent inside a generator's ``next`` calls.

        The span starts at the first ``next`` and lasts as long as the
        generator was busy; items yielded are counted as ``<name>.items``.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._drive(name, fn(*args, **kwargs))

        return wrapper

    def _drive(self, name, gen):
        span = None
        busy = items = 0
        try:
            while True:
                t0 = time.perf_counter_ns()
                if span is None:
                    span = self.begin(name)
                    t0 = span[4]
                else:
                    self._buf().stack.append(span)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._buf().stack.pop()
                    busy += time.perf_counter_ns() - t0
                items += 1
                yield item
        finally:
            if span is not None:
                self.end(span, span[4] + busy)
                self.count(name + ".items", items)

    def wrap_count(self, name, fn):
        """Count calls only, for functions too hot for a span.  The
        counter is a plain cell: use it from one thread only."""
        cell = self._cells.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, _fn=fn, _cell=cell):
            _cell[0] += 1
            return _fn(*args)

        return wrapper

    def patch(self, owner, attr: str, wrapper) -> None:
        """Bind ``wrapper`` as ``owner.attr`` until ``unpatch``."""
        self._undo.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, wrapper)

    def unpatch(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- results -------------------------------------------------------

    def counts(self) -> Counter:
        total = Counter({name: cell[0] for name, cell in self._cells.items()})
        for buf in self._buffers:
            total.update(buf.counts)
        return total

    def columns(self) -> dict:
        with self._lock:
            bufs = list(self._buffers)
        cols = [np.concatenate([np.frombuffer(b.cols[i], dtype=np.int64) for b in bufs])
                if bufs else np.zeros(0, np.int64) for i in range(6)]
        return dict(zip(("id", "name", "start_ns", "end_ns", "parent", "request"), cols))

    def dump(self, path: Path) -> None:
        """Write every span, the name table and the counts."""
        cols = self.columns()
        names = np.array(sorted(self._names, key=self._names.get), dtype=object)
        counts = self.counts()
        np.savez(path, names=names.astype(str), count_names=np.array(list(counts), dtype=str),
                 count_values=np.array(list(counts.values()), dtype=np.int64), **cols)


def load(path: Path) -> tuple[dict, Counter]:
    with np.load(path) as z:
        cols = {k: z[k] for k in ("id", "name", "start_ns", "end_ns", "parent", "request")}
        names = list(z["names"])
        counts = Counter(dict(zip(z["count_names"].tolist(), z["count_values"].tolist())))
    return {"names": names, **cols}, counts


def summarize(cols: dict, names: list) -> tuple[dict, Counter]:
    """Per span name: calls, total ms and self ms; and calls per
    (name, parent name) pair."""
    ids, name_ids = cols["id"], cols["name"]
    dur = cols["end_ns"] - cols["start_ns"]
    child = np.zeros(len(ids), dtype=np.int64)
    parent_name = np.full(len(ids), -1, dtype=np.int64)
    if len(ids):
        order = np.argsort(ids)
        pos = np.minimum(np.searchsorted(ids[order], cols["parent"]), len(ids) - 1)
        parent_row = order[pos]
        has_parent = (cols["parent"] > 0) & (ids[parent_row] == cols["parent"])
        np.add.at(child, parent_row[has_parent], dur[has_parent])
        parent_name[has_parent] = name_ids[parent_row[has_parent]]
    out = {}
    for nid, name in enumerate(names):
        sel = name_ids == nid
        if sel.any():
            out[name] = {
                "calls": int(sel.sum()),
                "ms": float(dur[sel].sum()) / 1e6,
                "self_ms": float((dur[sel] - child[sel]).sum()) / 1e6,
            }
    pairs = Counter()
    for (nid, pid), n in Counter(zip(name_ids.tolist(), parent_name.tolist())).items():
        if pid >= 0:
            pairs[(names[nid], names[pid])] += n
    return out, pairs


# ----------------------------------------------------------------------
# Patch sets


def install_library(tracer: Tracer) -> None:
    """Wrap the library layers used by page_visit and bulk_cli."""
    from webshield import cli, farble, formats, fpd, keyrand, sensorsim, timeshield

    t = tracer
    t.patch(keyrand, "keystream_block", t.wrap_count("keyrand.keystream_block", keyrand.keystream_block))
    blocks = t._cells["keyrand.keystream_block"]

    def bytes_wrapper(fn):
        """Bulk keystream reads come only from farble; every other block
        is hashed for a uniform01 draw."""
        inner = t.wrap("keyrand.keystream_bytes", fn)

        def wrapper(seed, offset, length):
            before = blocks[0]
            try:
                return inner(seed, offset, length)
            finally:
                t.count("keyrand.keystream_bytes.bytes", length)
                t.count("keyrand.keystream_block@keyrand.keystream_bytes", blocks[0] - before)

        return wrapper

    t.patch(farble, "keystream_bytes", bytes_wrapper(farble.keystream_bytes))
    u01 = t.wrap("keyrand.uniform01", keyrand.uniform01)
    for mod in (keyrand, farble, timeshield, sensorsim):
        t.patch(mod, "uniform01", u01)
    seed_fn = t.wrap("keyrand.derive_seed", keyrand.derive_seed)
    for mod in (keyrand, cli):
        t.patch(mod, "derive_seed", seed_fn)

    for mods, name in (
        ((farble, cli), "farble_bitmap"),
        ((farble, cli), "farble_audio"),
        ((farble, cli), "spoof_gl_strings"),
        ((farble,), "bitmap_content_hash"),
        ((farble,), "audio_content_hash"),
        ((formats,), "read_bitmap"),
        ((formats,), "write_bitmap"),
        ((formats,), "read_audio"),
        ((formats,), "write_audio"),
        ((sensorsim, cli), "init_device_state"),
        ((fpd, cli), "analyze_trace"),
        ((fpd, cli), "default_config"),
        ((fpd,), "load_trace"),
        ((fpd,), "ingest"),
        ((fpd,), "evaluate"),
        ((fpd,), "render_report"),
    ):
        wrapped = t.wrap(f"{mods[0].__name__.split('.')[-1]}.{name}", getattr(mods[0], name))
        for mod in mods:
            t.patch(mod, name, wrapped)

    stream = t.wrap_generator("timeshield.shield_stream", timeshield.shield_stream)
    for mod in (timeshield, cli):
        t.patch(mod, "shield_stream", stream)
    sub = t.wrap("timeshield.time_subseed", timeshield.time_subseed)
    for mod in (timeshield, sensorsim):
        t.patch(mod, "time_subseed", sub)

    def sample_name(args):
        kind = args[1]
        return f"sensorsim.sample.{getattr(kind, 'value', kind)}"

    sample = t.wrap("sensorsim.sample", sensorsim.sample, name_of=sample_name)
    for mod in (sensorsim, cli):
        t.patch(mod, "sample", sample)


def _is_literal(host: str) -> bool:
    try:
        ipaddress.ip_address(host.strip("[]"))
        return True
    except ValueError:
        return False


def install_proxy(tracer: Tracer) -> None:
    """Wrap the network layers inside the proxy's own process."""
    import http.client
    import socket

    from webshield import nbs, proxy

    t = tracer
    handler = proxy._ProxyHandler

    def handle_wrapper(fn):
        requests = itertools.count(1)

        @functools.wraps(fn)
        def wrapper(self):
            span = t.begin("proxy.request", request_id=next(requests))
            try:
                return fn(self)
            finally:
                t.end(span)

        return wrapper

    t.patch(handler, "handle", handle_wrapper(handler.handle))
    t.patch(handler, "_pump", t.wrap("proxy.tunnel", handler._pump))
    t.patch(socket, "getaddrinfo", t.wrap("proxy.resolve", socket.getaddrinfo))
    t.patch(proxy.DecisionLog, "log", t.wrap("proxy.DecisionLog.log", proxy.DecisionLog.log))
    lookup = nbs.LearnCache.lookup

    def counted_lookup(self, hostname):  # handler threads: count per thread
        t.count("nbs.LearnCache.lookup")
        return lookup(self, hostname)

    t.patch(nbs.LearnCache, "lookup", counted_lookup)
    classify = t.wrap("nbs.classify_address", nbs.classify_address)
    for mod in (nbs, proxy):
        t.patch(mod, "classify_address", classify)

    traced_decide = t.wrap("nbs.decide", nbs.decide)

    def decide(mode, origin_class, target_host, resolved=None, cache=None):
        decision = traced_decide(mode, origin_class, target_host, resolved, cache)
        if mode is nbs.NbsMode.LEARN_ON_REPLY and not _is_literal(target_host):
            t.count("nbs.learn.hostname_decisions")
            if decision.value is not nbs.Decision.ALLOW_AND_LEARN:
                t.count("nbs.learn.cache_hits")
        return decision

    for mod in (nbs, proxy):
        t.patch(mod, "decide", decide)

    class TracedConnection(http.client.HTTPConnection):
        """Upstream span: from connect until the proxy closes the connection
        after reading the response."""

        _span = None

        def connect(self):
            self._span = t.begin("proxy.upstream")
            super().connect()

        def close(self):
            super().close()
            if self._span is not None:
                span, self._span = self._span, None
                t.end(span)

    t.patch(http.client, "HTTPConnection", TracedConnection)
