"""Per-layer metrics derived from a traced run's spans and counts.

Every metric is normalised per operation (a page visit, a CLI round, a
proxied request) unless it is a ratio, so a layer's ``ms/op`` can be set
against the operation latency it feeds.  A layer the workload does not
run reads 0.  ``README.md`` maps each metric to the end-to-end metric it
should move.
"""

from __future__ import annotations

from collections import Counter

CLI_COMMANDS = ("farble_canvas", "farble_audio", "time_shield", "sensors_gen", "fpd_analyze")
SENSOR_KINDS = ("accelerometer", "gyroscope", "orientation_abs", "magnetometer")


def layer_metrics(spans: dict, pairs: Counter, counts: Counter, ops: int,
                  proxy: dict | None = None) -> dict:
    """``spans`` and ``pairs`` come from ``tracer.summarize``; ``proxy``
    holds what the client and stub observed in a proxy workload."""

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def ms(name, field="ms"):
        return spans.get(name, {}).get(field, 0.0) / ops

    def per_op(n):
        return n / ops

    def ratio(a, b):
        return a / b if b else 0.0

    u01 = calls("keyrand.uniform01")
    stamps = counts["timeshield.shield_stream.items"]
    m = {
        "keyrand.keystream_bytes.calls": per_op(calls("keyrand.keystream_bytes")),
        "keyrand.keystream_bytes.bytes": per_op(counts["keyrand.keystream_bytes.bytes"]),
        "keyrand.keystream_bytes.ms": ms("keyrand.keystream_bytes"),
        "keyrand.keystream_block.calls": per_op(counts["keyrand.keystream_block"]),
        "keyrand.uniform01.calls": per_op(u01),
        "keyrand.uniform01.ms": ms("keyrand.uniform01"),
        "keyrand.blocks_per_u01": ratio(
            counts["keyrand.keystream_block"] - counts["keyrand.keystream_block@keyrand.keystream_bytes"],
            u01),
        "keyrand.derive_seed.calls": per_op(calls("keyrand.derive_seed")),
        "farble.farble_bitmap.ms": ms("farble.farble_bitmap", "self_ms"),
        "farble.bitmap_content_hash.ms": ms("farble.bitmap_content_hash"),
        "farble.farble_audio.ms": ms("farble.farble_audio", "self_ms"),
        "farble.audio_content_hash.ms": ms("farble.audio_content_hash"),
        "farble.spoof_gl_strings.us": 1e3 * ms("farble.spoof_gl_strings"),
        "timeshield.shield_stream.ms": ms("timeshield.shield_stream"),
        "timeshield.timestamps": per_op(stamps),
        "timeshield.draws_per_timestamp": ratio(
            pairs[("keyrand.uniform01", "timeshield.shield_stream")], stamps),
        "timeshield.time_subseed.calls": per_op(calls("timeshield.time_subseed")),
        "sensorsim.sample.calls": per_op(sum(calls(f"sensorsim.sample.{k}") for k in SENSOR_KINDS)),
        "sensorsim.init_device_state.ms": ms("sensorsim.init_device_state"),
        "fpd.load_trace.ms": ms("fpd.load_trace"),
        "fpd.ingest.calls": per_op(calls("fpd.ingest")),
        "fpd.ingest.ms": ms("fpd.ingest"),
        "fpd.evaluate.us": 1e3 * ms("fpd.evaluate"),
        "fpd.render_report.us": 1e3 * ms("fpd.render_report"),
        "fpd.default_config.calls": per_op(calls("fpd.default_config")),
        "fpd.default_config.ms": ms("fpd.default_config"),
        "nbs.classify_address.calls": per_op(calls("nbs.classify_address")),
        "nbs.classify_address.us": 1e3 * ms("nbs.classify_address"),
        "nbs.decide.calls": per_op(calls("nbs.decide")),
        "nbs.decide.us": 1e3 * ms("nbs.decide"),
        "nbs.LearnCache.lookup.calls": per_op(counts["nbs.LearnCache.lookup"]),
        "nbs.learn_hit_ratio": ratio(counts["nbs.learn.cache_hits"],
                                     counts["nbs.learn.hostname_decisions"]),
        "proxy.resolve.ms": ms("proxy.resolve"),
        "proxy.upstream.ms": ms("proxy.upstream"),
        "proxy.tunnel.ms": ms("proxy.tunnel"),
        "proxy.DecisionLog.log.us": 1e3 * ms("proxy.DecisionLog.log"),
    }
    for fn in ("read_bitmap", "write_bitmap", "read_audio", "write_audio"):
        m[f"formats.{fn}.ms"] = ms(f"formats.{fn}")
    for kind in SENSOR_KINDS:
        m[f"sensorsim.sample.us.{kind}"] = 1e3 * ms(f"sensorsim.sample.{kind}")
    for cmd in CLI_COMMANDS:
        m[f"cli.self_ms.{cmd}"] = ms(f"cli.{cmd}", "self_ms")
    proxy = proxy or {}
    for key in ("log_lines", "relay_bytes", "upstream_connects", "blocked", "allowed"):
        m[f"proxy.{key}"] = per_op(proxy.get(key, 0))
    return m
