"""Fingerprinting detector: config validation, counting, evaluation,
reports, and directives.

Expected scores for fixtures are hand-evaluated against the shipped
tree: a leaf contributes its weight once its count reaches min_calls, a
subgroup forwards its sum only at/above its threshold, the root sum is
the score.
"""

import json
import random

import pytest

from webshield.fpd import (
    ApiCallEvent,
    BlockDirective,
    EndpointRule,
    FpdConfig,
    FpdConfigError,
    FpdMode,
    FpdState,
    Group,
    Severity,
    block_directives,
    default_config,
    evaluate,
    ingest,
    load_fpd_config,
    load_trace,
    render_report,
    validate_config,
)

# The synthetic canvas-fingerprint trace: text rendering plus readout,
# font metric probing, an audio rendering pipeline, and property
# enumeration.  Hand evaluation against the shipped config:
#   canvas_readout: fillText(2) + toDataURL(5)                  =  7 >= 7 -> 7
#   font_metrics:   measureText>=10(4) + offsetWidth>=20(3)     =  7 >= 6 -> 7
#   audio_probe:    getChannelData(3) + startRendering(3)
#                   + oscillator(2) + compressor(2)             = 10 >= 6 -> 10
#   navigator_enum: ua(2)+platform(2)+plugins(3)+hwc(2)+mem(2)  = 11 >= 8 -> 11
#   score = 7 + 7 + 10 + 11                                     = 35
CANVAS_FIXTURE = [
    ("CanvasRenderingContext2D.prototype.fillText", 1),
    ("HTMLCanvasElement.prototype.toDataURL", 1),
    ("CanvasRenderingContext2D.prototype.measureText", 20),
    ("HTMLElement.prototype.offsetWidth", 25),
    ("AudioBuffer.prototype.getChannelData", 1),
    ("OfflineAudioContext.prototype.startRendering", 1),
    ("OscillatorNode.prototype.start", 1),
    ("BaseAudioContext.prototype.createDynamicsCompressor", 1),
    ("Navigator.prototype.userAgent", 1),
    ("Navigator.prototype.platform", 1),
    ("Navigator.prototype.plugins", 1),
    ("Navigator.prototype.hardwareConcurrency", 1),
    ("Navigator.prototype.deviceMemory", 1),
]


def state_from(pairs):
    state = FpdState(page="https://page.example")
    for i, (endpoint, count) in enumerate(pairs):
        ingest(state, ApiCallEvent(t_ms=float(i), endpoint=endpoint, count=count))
    return state


@pytest.fixture(scope="module")
def cfg():
    return default_config()


class TestEvents:
    def test_count_must_be_positive(self):
        with pytest.raises(ValueError):
            ApiCallEvent(0.0, "Navigator.prototype.userAgent", 0)

    def test_endpoint_must_be_nonempty(self):
        with pytest.raises(ValueError):
            ApiCallEvent(0.0, "", 1)


class TestIngest:
    def test_single_event(self):
        state = state_from([("HTMLCanvasElement.prototype.toDataURL", 1)])
        assert state.counters["HTMLCanvasElement.prototype.toDataURL"] == 1

    def test_counts_add(self):
        state = FpdState()
        ingest(state, ApiCallEvent(0.0, "X", 2))
        ingest(state, ApiCallEvent(1.0, "X", 3))
        assert state.counters["X"] == 5

    def test_order_irrelevant(self):
        events = [ApiCallEvent(float(i), f"E{i % 5}", i + 1) for i in range(20)]
        forward = FpdState()
        for event in events:
            ingest(forward, event)
        backward = FpdState()
        for event in reversed(events):
            ingest(backward, event)
        assert forward.counters == backward.counters


class TestConfigValidation:
    def test_default_config_loads(self, cfg):
        assert cfg.root.name == "fingerprinting"
        assert cfg.root.threshold == 15.0
        assert len(cfg.endpoints()) == 45

    def test_negative_weight_rejected(self):
        doc = {
            "version": 1,
            "root": {
                "name": "r",
                "threshold": 1.0,
                "children": [{"weight": -1.0, "endpoint": "X"}],
            },
        }
        with pytest.raises(FpdConfigError, match="weight"):
            load_fpd_config(doc)

    def test_cycle_rejected(self):
        inner = Group("inner", 1.0, [])
        inner.children.append((1.0, inner))
        with pytest.raises(FpdConfigError, match="cycle"):
            validate_config(FpdConfig(Group("root", 1.0, [(1.0, inner)])))

    def test_unknown_field_rejected_with_location(self):
        doc = {
            "version": 1,
            "root": {
                "name": "r",
                "threshold": 1.0,
                "children": [{"weight": 1.0, "endpoint": "X", "wieght": 2}],
            },
        }
        with pytest.raises(FpdConfigError) as excinfo:
            load_fpd_config(doc)
        assert "/root/children/0" in str(excinfo.value)

    def test_negative_threshold_rejected(self):
        doc = {"version": 1, "root": {"name": "r", "threshold": -1.0, "children": [
            {"weight": 1.0, "endpoint": "X"}]}}
        with pytest.raises(FpdConfigError, match="threshold"):
            load_fpd_config(doc)

    def test_zero_min_calls_rejected(self):
        doc = {"version": 1, "root": {"name": "r", "threshold": 1.0, "children": [
            {"weight": 1.0, "endpoint": "X", "min_calls": 0}]}}
        with pytest.raises(FpdConfigError, match="min_calls"):
            load_fpd_config(doc)

    def test_duplicate_group_names_rejected(self):
        doc = {"version": 1, "root": {"name": "r", "threshold": 1.0, "children": [
            {"weight": 1.0, "group": {"name": "g", "threshold": 1.0, "children": [
                {"weight": 1.0, "endpoint": "X"}]}},
            {"weight": 1.0, "group": {"name": "g", "threshold": 1.0, "children": [
                {"weight": 1.0, "endpoint": "Y"}]}},
        ]}}
        with pytest.raises(FpdConfigError, match="duplicate"):
            load_fpd_config(doc)

    def test_missing_version_rejected(self):
        with pytest.raises(FpdConfigError, match="version"):
            load_fpd_config({"root": {"name": "r", "threshold": 1, "children": []}})

    def test_empty_config_rejected(self):
        doc = {"version": 1, "root": {"name": "r", "threshold": 1.0, "children": []}}
        with pytest.raises(FpdConfigError, match="no endpoint leaves"):
            load_fpd_config(doc)


class TestEvaluate:
    def test_empty_trace_green(self, cfg):
        verdict = evaluate(FpdState(), cfg)
        assert verdict.score == 0.0
        assert not verdict.detected
        assert verdict.severity is Severity.GREEN
        assert verdict.fired_groups == ()

    def test_canvas_fixture_detected(self, cfg):
        verdict = evaluate(state_from(CANVAS_FIXTURE), cfg)
        assert verdict.score == 35.0
        assert verdict.detected
        assert verdict.severity is Severity.RED
        assert set(verdict.fired_groups) == {
            "canvas_readout",
            "font_metrics",
            "audio_probe",
            "navigator_enum",
            "fingerprinting",
        }

    def test_single_user_agent_read_not_detected(self, cfg):
        verdict = evaluate(state_from([("Navigator.prototype.userAgent", 1)]), cfg)
        assert verdict.score == 0.0
        assert not verdict.detected

    def test_min_calls_gate(self, cfg):
        # measureText below its enumeration threshold contributes nothing
        below = evaluate(state_from([("CanvasRenderingContext2D.prototype.measureText", 9)]), cfg)
        assert below.score == 0.0

    def test_group_fires_as_unit(self, cfg):
        # one canvas read alone stays below the canvas threshold
        verdict = evaluate(state_from([("HTMLCanvasElement.prototype.toDataURL", 1)]), cfg)
        assert verdict.score == 0.0
        # adding a text draw reaches it and the whole sum appears at once
        verdict = evaluate(
            state_from(
                [
                    ("HTMLCanvasElement.prototype.toDataURL", 1),
                    ("CanvasRenderingContext2D.prototype.fillText", 1),
                ]
            ),
            cfg,
        )
        assert verdict.score == 7.0

    def test_permutation_invariance(self, cfg):
        events = [
            ApiCallEvent(float(i), endpoint, count)
            for i, (endpoint, count) in enumerate(CANVAS_FIXTURE)
        ]
        baseline = None
        rng = random.Random(11)
        for _ in range(5):
            rng.shuffle(events)
            state = FpdState()
            for event in events:
                ingest(state, event)
            verdict = evaluate(state, cfg)
            if baseline is None:
                baseline = verdict
            assert verdict == baseline

    def test_monotone_in_events(self, cfg):
        state = FpdState()
        last = 0.0
        for i, (endpoint, count) in enumerate(CANVAS_FIXTURE):
            ingest(state, ApiCallEvent(float(i), endpoint, count))
            score = evaluate(state, cfg).score
            assert score >= last
            last = score

    def test_idempotent_evaluation(self, cfg):
        state = state_from(CANVAS_FIXTURE)
        assert evaluate(state, cfg) == evaluate(state, cfg)

    def test_severity_ladder(self):
        cfg = load_fpd_config(
            {
                "version": 1,
                "root": {
                    "name": "r",
                    "threshold": 8.0,
                    "children": [
                        {"weight": 1.0, "endpoint": "A"},
                        {"weight": 2.0, "endpoint": "B"},
                        {"weight": 3.0, "endpoint": "C"},
                        {"weight": 4.0, "endpoint": "D"},
                    ],
                },
            }
        )
        def verdict_for(*endpoints):
            return evaluate(state_from([(e, 1) for e in endpoints]), cfg)

        assert verdict_for().severity is Severity.GREEN            # 0 < 2
        assert verdict_for("B").severity is Severity.YELLOW        # 2 in [2, 4)
        assert verdict_for("C").severity is Severity.YELLOW        # 3 in [2, 4)
        assert verdict_for("D").severity is Severity.ORANGE        # 4 in [4, 8)
        assert verdict_for("C", "D").severity is Severity.ORANGE   # 7 in [4, 8)
        red = verdict_for("A", "C", "D")                           # 8 >= 8
        assert red.severity is Severity.RED
        assert red.detected


class TestReport:
    def test_empty_report_says_so(self, cfg):
        state = FpdState(page="https://quiet.example")
        verdict = evaluate(state, cfg)
        report = render_report(state, cfg, verdict)
        assert "no fingerprinting activity" in report.to_text()
        assert report.groups == ()

    def test_canvas_fixture_report_lists_groups_and_counts(self, cfg):
        state = state_from(CANVAS_FIXTURE)
        verdict = evaluate(state, cfg)
        report = render_report(state, cfg, verdict)
        by_name = {g.name: g for g in report.groups}
        assert by_name["canvas_readout"].fired
        assert by_name["canvas_readout"].endpoints[
            "HTMLCanvasElement.prototype.toDataURL"
        ] == 1
        assert by_name["font_metrics"].endpoints[
            "CanvasRenderingContext2D.prototype.measureText"
        ] == 20

    def test_unclassified_endpoints_listed_not_scored(self, cfg):
        state = state_from([("Window.prototype.fetch", 7)])
        verdict = evaluate(state, cfg)
        assert verdict.score == 0.0
        report = render_report(state, cfg, verdict)
        assert report.unclassified == {"Window.prototype.fetch": 7}

    def test_json_round_trip(self, cfg):
        state = state_from(CANVAS_FIXTURE)
        verdict = evaluate(state, cfg)
        report = render_report(state, cfg, verdict)
        doc = json.loads(report.to_json())
        assert doc["page"] == report.page
        assert doc["score"] == report.score
        assert doc["detected"] == report.detected
        assert doc["severity"] == report.severity
        assert doc["groups"] == [
            {"name": g.name, "fired": g.fired, "endpoints": g.endpoints}
            for g in report.groups
        ]
        assert doc["unclassified"] == report.unclassified


class TestDirectives:
    def _detected(self, cfg):
        return evaluate(state_from(CANVAS_FIXTURE), cfg)

    def test_block_mode_on_detection(self, cfg):
        directives = block_directives(self._detected(cfg), FpdMode.BLOCK)
        assert directives == [
            BlockDirective.BLOCK_SUBSEQUENT_ASYNC_REQUESTS,
            BlockDirective.CLEAR_PAGE_STORAGE,
        ]

    def test_passive_never_acts(self, cfg):
        assert block_directives(self._detected(cfg), FpdMode.PASSIVE) == []

    def test_notify_never_acts(self, cfg):
        assert block_directives(self._detected(cfg), "notify") == []

    def test_no_detection_no_directives(self, cfg):
        verdict = evaluate(FpdState(), cfg)
        assert block_directives(verdict, FpdMode.BLOCK) == []


class TestTraceFormat:
    def test_round_trip(self, tmp_path):
        doc = {
            "page": "https://x.example",
            "events": [{"t_ms": 1.0, "endpoint": "A", "count": 2}, {"t_ms": 2.0, "endpoint": "B"}],
        }
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(doc))
        page, events = load_trace(path)
        assert page == "https://x.example"
        assert events == [ApiCallEvent(1.0, "A", 2), ApiCallEvent(2.0, "B", 1)]

    def test_invalid_event_rejected_with_index(self):
        with pytest.raises(ValueError, match="index 1"):
            load_trace({"page": "x", "events": [{"t_ms": 1, "endpoint": "A"}, {"t_ms": 2}]})

    def test_not_an_object_rejected(self):
        with pytest.raises(ValueError):
            load_trace({"page": "x"})
