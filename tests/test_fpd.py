"""Fingerprinting detector: config validation, counting, evaluation,
reports, and directives.

Expected scores for fixtures are hand-evaluated against the shipped
tree: a leaf contributes its weight once its count reaches min_calls, a
subgroup forwards its sum only at/above its threshold, the root sum is
the score.
"""

import json
import math
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from webshield.fpd import (
    BlockDirective,
    FpdConfig,
    FpdConfigError,
    FpdMode,
    FpdState,
    Severity,
    block_directives,
    default_config,
    evaluate,
    ingest,
    load_fpd_config,
    load_trace,
    render_report,
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


def raw_events(pairs):
    return [{"t_ms": float(i), "endpoint": endpoint, "count": count}
            for i, (endpoint, count) in enumerate(pairs)]


def state_from(pairs):
    return ingest(FpdState(page="https://page.example"), raw_events(pairs))


@pytest.fixture(scope="module")
def cfg():
    return default_config()


class TestEvents:
    def test_count_must_be_positive(self):
        state = FpdState()
        with pytest.raises(ValueError, match="count must be >= 1"):
            ingest(state, raw_events([("Navigator.prototype.userAgent", 0)]))
        assert not state.counters

    def test_endpoint_must_be_nonempty(self):
        state = FpdState()
        with pytest.raises(ValueError, match="endpoint must be non-empty"):
            ingest(state, raw_events([("", 1)]))
        assert not state.counters


class TestIngest:
    def test_single_event(self):
        state = state_from([("HTMLCanvasElement.prototype.toDataURL", 1)])
        assert state.counters["HTMLCanvasElement.prototype.toDataURL"] == 1

    def test_counts_add(self):
        state = FpdState()
        ingest(state, [{"t_ms": 0.0, "endpoint": "X", "count": 2}])
        ingest(state, [{"t_ms": 1.0, "endpoint": "X", "count": 3}])
        assert state.counters["X"] == 5

    def test_order_irrelevant(self):
        events = raw_events([(f"E{i % 5}", i + 1) for i in range(20)])
        forward = ingest(FpdState(), events)
        backward = ingest(FpdState(), events[::-1])
        assert forward.counters == backward.counters


class TestConfigValidation:
    def test_default_config_loads(self, cfg):
        name, threshold, _children = cfg.groups[-1]
        assert name == "fingerprinting"
        assert threshold == 15.0
        assert len(cfg.endpoints) == 45

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
        inner = {"name": "inner", "threshold": 1.0, "children": []}
        inner["children"].append({"weight": 1.0, "group": inner})
        doc = {"version": 1, "root": {"name": "root", "threshold": 1.0, "children": [
            {"weight": 1.0, "group": inner}]}}
        with pytest.raises(FpdConfigError, match="cycle") as excinfo:
            load_fpd_config(doc)
        assert excinfo.value.location == "/root/children/0/group/children/0/group"

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

    @pytest.mark.parametrize("root, severity, location", [
        ({"threshold": None}, None, "/root/threshold"),
        ({"threshold": "1"}, None, "/root/threshold"),
        ({"leaf": {"min_calls": None}}, None, "/root/children/0/min_calls"),
        ({"leaf": {"min_calls": 2.9}}, None, "/root/children/0/min_calls"),
        ({"leaf": {"min_calls": True}}, None, "/root/children/0/min_calls"),
        ({"leaf": {"weight": True}}, None, "/root/children/0/weight"),
        ({"leaf": {"weight": None}}, None, "/root/children/0/weight"),
        ({"leaf": {"weight": float("inf")}}, None, "/root/children/0/weight"),
        ({"leaf": {"weight": 10**400}}, None, "/root/children/0/weight"),
        ({}, {"yellow": None}, "/severity/yellow"),
        ({}, {"red": False}, "/severity/red"),
        ({}, {"yellow": 0.9, "orange": 0.5}, "/severity"),
    ], ids=["threshold-null", "threshold-string", "min_calls-null", "min_calls-2.9",
            "min_calls-bool", "weight-bool", "weight-null", "weight-inf", "weight-huge-int",
            "severity-null", "severity-bool", "severity-unordered"])
    def test_wrong_type_rejected_at_its_location(self, root, severity, location):
        leaf = {"weight": 1.0, "endpoint": "X", **root.get("leaf", {})}
        doc = {"version": 1, "root": {
            "name": "r", "threshold": root.get("threshold", 1.0), "children": [leaf]}}
        if severity is not None:
            doc["severity"] = severity
        with pytest.raises(FpdConfigError) as excinfo:
            load_fpd_config(doc)
        assert excinfo.value.location == location

    def test_nested_group_threshold_type_rejected_at_its_location(self):
        doc = {"version": 1, "root": {"name": "r", "threshold": 1.0, "children": [
            {"weight": 1, "group": {"name": "g", "threshold": None, "children": [
                {"weight": 1, "endpoint": "X"}]}}]}}
        with pytest.raises(FpdConfigError) as excinfo:
            load_fpd_config(doc)
        assert excinfo.value.location == "/root/children/0/group/threshold"

    @pytest.mark.parametrize("group, leaf, location, message", [
        ({"name": None}, {}, "/root/name", "expected a string, got null"),
        ({"name": 5}, {}, "/root/name", "expected a string, got 5"),
        ({"name": ""}, {}, "/root", "group name must be non-empty"),
        ({}, {"endpoint": 5}, "/root/children/0/endpoint", "expected a string, got 5"),
        ({}, {"endpoint": None}, "/root/children/0/endpoint", "expected a string, got null"),
        ({}, {"endpoint": ""}, "/root/children/0", "endpoint must be non-empty"),
    ], ids=["name-null", "name-int", "name-empty", "endpoint-int", "endpoint-null",
            "endpoint-empty"])
    def test_name_and_endpoint_must_be_nonempty_strings(self, group, leaf, location, message):
        doc = {"version": 1, "root": {"name": "r", "threshold": 1.0, "children": [
            {"weight": 1.0, "endpoint": "X", **leaf}], **group}}
        with pytest.raises(FpdConfigError) as excinfo:
            load_fpd_config(doc)
        assert (excinfo.value.location, str(excinfo.value)) == (
            location, f"{location}: {message}")

    @pytest.mark.parametrize("source, location, message", [
        ("[]", "/", "config must be an object"),
        ({"version": 1, "root": {"name": "r", "threshold": 1.0, "children": {
            "weight": 1.0, "endpoint": "X"}}}, "/root/children", "children must be an array"),
    ], ids=["document-array", "children-object"])
    def test_wrong_shape_rejected_with_its_message(self, source, location, message):
        with pytest.raises(FpdConfigError) as excinfo:
            load_fpd_config(source)
        assert (excinfo.value.location, str(excinfo.value)) == (
            location, f"{location}: {message}")

    @pytest.mark.parametrize("version", [True, 1.0, "1"])
    def test_version_must_be_the_integer_1(self, version):
        doc = {"version": version, "root": {"name": "r", "threshold": 1, "children": [
            {"weight": 1, "endpoint": "X"}]}}
        with pytest.raises(FpdConfigError) as excinfo:
            load_fpd_config(doc)
        assert str(excinfo.value) == f"/version: unsupported version {version!r}"

    def test_deep_text_rejected_at_the_top(self):
        # too deep for the decoder or, where it copes, for the walk
        leaf = '{"name": "g", "threshold": 0, "children": [{"weight": 1, "endpoint": "X"}]}'
        wrap = '{"name": "g%d", "threshold": 0, "children": [{"weight": 1, "group": '
        text = ('{"version": 1, "root": ' + "".join(wrap % i for i in range(2000)) + leaf
                + "}]}" * 2000 + "}")
        with pytest.raises(FpdConfigError) as excinfo:
            load_fpd_config(text)
        assert str(excinfo.value) == "/: config is nested too deeply"

    def test_deep_dict_rejected_at_the_top(self):
        group = {"name": "g", "threshold": 0, "children": [{"weight": 1, "endpoint": "X"}]}
        for i in range(5000):
            group = {"name": f"g{i}", "threshold": 0, "children": [{"weight": 1, "group": group}]}
        with pytest.raises(FpdConfigError) as excinfo:
            load_fpd_config({"version": 1, "root": group})
        assert str(excinfo.value) == "/: config is nested too deeply"

    def test_groups_are_in_post_order(self):
        cfg = load_fpd_config({"version": 1, "root": {"name": "r", "threshold": 1, "children": [
            {"weight": 1, "group": {"name": "a", "threshold": 1, "children": [
                {"weight": 1, "group": {"name": "a1", "threshold": 1, "children": []}},
                {"weight": 2, "endpoint": "X"}]}},
            {"weight": 3, "group": {"name": "b", "threshold": 1, "children": []}},
            {"weight": 4, "endpoint": "Y", "min_calls": 2}]}})
        assert cfg.groups == (
            ("a1", 1.0, ()),
            ("a", 1.0, ((1.0, 0), (2.0, "X", 1))),
            ("b", 1.0, ()),
            ("r", 1.0, ((1.0, 1), (3.0, 2), (4.0, "Y", 2))),
        )
        assert cfg.endpoints == frozenset({"X", "Y"})

    def test_integral_numbers_still_load(self):
        doc = {"version": 1, "severity": {"yellow": 1, "orange": 1, "red": 2},
               "root": {"name": "r", "threshold": 3, "children": [
                   {"weight": 2, "endpoint": "X", "min_calls": 4}]}}
        cfg = load_fpd_config(doc)
        assert cfg.groups == (("r", 3.0, ((2.0, "X", 4),)),)
        assert cfg.severity_fractions == {"yellow": 1.0, "orange": 1.0, "red": 2.0}


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
        events = raw_events(CANVAS_FIXTURE)
        baseline = None
        rng = random.Random(11)
        for _ in range(5):
            rng.shuffle(events)
            verdict = evaluate(ingest(FpdState(), events), cfg)
            if baseline is None:
                baseline = verdict
            assert verdict == baseline

    def test_monotone_in_events(self, cfg):
        state = FpdState()
        last = 0.0
        for event in raw_events(CANVAS_FIXTURE):
            ingest(state, [event])
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
        state = load_trace(path)
        assert state.page == "https://x.example"
        assert state.counters == {"A": 2, "B": 1}

    def test_invalid_event_rejected_with_index(self):
        with pytest.raises(ValueError, match="index 1"):
            load_trace({"page": "x", "events": [{"t_ms": 1, "endpoint": "A"}, {"t_ms": 2}]})

    def test_not_an_object_rejected(self):
        with pytest.raises(ValueError):
            load_trace({"page": "x"})

    @pytest.mark.parametrize("events", [5, None, "abc", {"t_ms": 1}])
    def test_events_must_be_a_list(self, events):
        with pytest.raises(ValueError, match="'events' array"):
            load_trace({"page": "x", "events": events})

    def test_overflowing_count_rejected_with_index(self):
        text = ('{"events": [{"t_ms": 1, "endpoint": "A"}, '
                '{"t_ms": 2, "endpoint": "B", "count": 1e400}]}')
        with pytest.raises(ValueError, match="index 1"):
            load_trace(text)

    @pytest.mark.parametrize("event, message", [
        ({"t_ms": float("nan")}, "t_ms: expected a finite number, got NaN"),
        ({"t_ms": "5"}, 't_ms: expected a finite number, got "5"'),
        ({"t_ms": True}, "t_ms: expected a finite number, got true"),
        ({"endpoint": 5}, "endpoint: expected a string, got 5"),
        ({"endpoint": None}, "endpoint: expected a string, got null"),
        ({"endpoint": ""}, "endpoint must be non-empty"),
        ({"count": True}, "count: expected an integer, got true"),
        ({"count": 2.7}, "count: expected an integer, got 2.7"),
        ({"count": 0}, "count must be >= 1, got 0"),
    ], ids=["t_ms-nan", "t_ms-string", "t_ms-bool", "endpoint-int", "endpoint-null",
            "endpoint-empty", "count-bool", "count-float", "count-zero"])
    def test_ill_typed_event_rejected_with_index(self, event, message):
        doc = {"events": [{"t_ms": 1, "endpoint": "A"},
                          {"t_ms": 2.0, "endpoint": "B", "count": 3, **event}]}
        with pytest.raises(ValueError) as excinfo:
            load_trace(doc)
        assert str(excinfo.value) == f"invalid trace event at index 1: {message}"

    def test_event_must_be_an_object(self):
        with pytest.raises(ValueError, match="index 0: event must be an object"):
            load_trace({"events": [["A", 1]]})

    @pytest.mark.parametrize("page", [None, 5, ["p"]])
    def test_page_must_be_a_string(self, page):
        with pytest.raises(ValueError, match="'page' must be a string"):
            load_trace({"page": page, "events": []})

    def test_deep_text_rejected(self):
        with pytest.raises(ValueError, match="trace is nested too deeply"):
            load_trace('{"events": ' + "[" * 100_000 + "]" * 100_000 + "}")


# Hostile-document properties: a loader either returns what the document
# says, checked field by field, or raises its documented error.  Documents
# are well formed but for up to two faults: a value replaced by any
# JSON-like value, a field deleted or a stray field added.
CONFIG_KEYS = ["version", "severity", "root", "name", "threshold", "children", "weight",
               "endpoint", "min_calls", "group", "yellow", "orange", "red"]
TRACE_KEYS = ["page", "events", "t_ms", "endpoint", "count"]
SCALARS = (st.none() | st.booleans() | st.integers(-2, 3) | st.floats()
           | st.sampled_from(["", "X", "1"]))


def _hostile(keys):
    return st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=2)
                        | st.dictionaries(st.sampled_from(keys), inner, max_size=2),
                        max_leaves=4)


@st.composite
def _with_faults(draw, docs, keys):
    doc = draw(docs)
    slots = []  # (container, key) of every value in the document

    def collect(node):
        for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
            slots.append((node, key))
            if isinstance(value, (dict, list)):
                collect(value)

    collect(doc)
    for _ in range(draw(st.integers(0, 2))):
        node, key = draw(st.sampled_from(slots))
        fault = draw(st.sampled_from(["replace", "delete", "add"]))
        if fault == "delete" and isinstance(node, dict):
            node.pop(key, None)
        elif fault == "add" and isinstance(node, dict):
            node[draw(st.sampled_from(keys))] = draw(_hostile(keys))
        elif isinstance(node, dict) or key < len(node):
            node[key] = draw(_hostile(keys))
    return doc


_LEAF = st.fixed_dictionaries(
    {"weight": st.integers(1, 9) | st.floats(0.5, 9), "endpoint": st.sampled_from("ABC")},
    optional={"min_calls": st.integers(1, 3)})
_CHILD = st.recursive(_LEAF, lambda inner: st.fixed_dictionaries({
    "weight": st.integers(1, 3) | st.floats(0.5, 3),
    "group": st.fixed_dictionaries({
        "name": st.text("abcdef", min_size=1, max_size=4),
        "threshold": st.integers(0, 9) | st.floats(0, 9),
        "children": st.lists(inner, max_size=3)}),
}), max_leaves=6)
CONFIG_DOCS = _with_faults(st.fixed_dictionaries(
    {"version": st.just(1), "root": st.fixed_dictionaries({
        "name": st.just("root"), "threshold": st.integers(0, 20),
        "children": st.lists(_CHILD, min_size=1, max_size=3)})},
    optional={"severity": st.lists(st.floats(0.1, 2), min_size=3, max_size=3).map(
        lambda fr: dict(zip(("yellow", "orange", "red"), sorted(fr))))},
), CONFIG_KEYS)
TRACE_DOCS = _with_faults(st.fixed_dictionaries(
    {"events": st.lists(st.fixed_dictionaries(
        {"t_ms": st.integers(0, 9) | st.floats(0, 9), "endpoint": st.sampled_from("ABC")},
        optional={"count": st.integers(1, 3)}), max_size=4)},
    optional={"page": st.sampled_from(["", "p"])}), TRACE_KEYS)


def _finite(value):
    return type(value) in (int, float) and math.isfinite(value)


def _expected_table(doc):
    """The flat table a well-typed config document loads into."""
    table = []

    def walk(group):
        assert type(group["name"]) is str and group["name"]
        assert _finite(group["threshold"]) and group["threshold"] >= 0
        children = []
        for child in group["children"]:
            assert _finite(child["weight"]) and child["weight"] > 0
            if "group" in child:
                walk(child["group"])
                children.append((child["weight"], len(table) - 1))
            else:
                assert type(child["endpoint"]) is str and child["endpoint"]
                assert type(child.get("min_calls", 1)) is int and child.get("min_calls", 1) >= 1
                children.append((child["weight"], child["endpoint"], child.get("min_calls", 1)))
        table.append((group["name"], group["threshold"], tuple(children)))

    walk(doc["root"])
    return tuple(table)


class TestLoaderProperties:
    @given(CONFIG_DOCS)
    @example({"version": 1, "root": {"name": None, "threshold": 1, "children": [
        {"weight": 1, "endpoint": "X"}]}})
    @example({"version": 1, "root": {"name": "r", "threshold": 1, "children": [
        {"weight": 1, "endpoint": 5}]}})
    @example({"version": True, "root": {"name": "r", "threshold": 1, "children": [
        {"weight": 1, "endpoint": "X"}]}})
    @example({"version": 1, "root": {"name": "r", "threshold": {1}, "children": []}})
    @settings(max_examples=100, deadline=None)
    def test_config_loads_faithfully_or_raises_config_error(self, doc):
        try:
            cfg = load_fpd_config(doc)
        except FpdConfigError as exc:
            assert exc.location.startswith("/")
            return
        assert isinstance(cfg, FpdConfig)
        assert type(doc["version"]) is int
        assert cfg.groups == _expected_table(doc)
        for name, threshold, children in cfg.groups:
            assert type(threshold) is float
            assert all(type(child[0]) is float for child in children)
        assert cfg.endpoints == {c[1] for g in cfg.groups for c in g[2] if len(c) == 3}
        assert all(type(f) is float and math.isfinite(f)
                   for f in cfg.severity_fractions.values())
        state = FpdState(counters={endpoint: 1 for endpoint in cfg.endpoints})
        evaluate(state, cfg)

    @given(TRACE_DOCS)
    @example({"events": [{"t_ms": float("nan"), "endpoint": "A", "count": True}]})
    @example({"events": [{"t_ms": "5", "endpoint": 5, "count": 2.7}]})
    @example({"events": [{"t_ms": 1, "endpoint": None}]})
    @example({"events": [], "page": None})
    @example({"events": [{"t_ms": 1.0, "endpoint": b"a"}]})
    @settings(max_examples=100, deadline=None)
    def test_trace_loads_faithfully_or_raises_value_error(self, doc):
        try:
            state = load_trace(doc)
        except ValueError:
            return
        assert state.page == doc.get("page", "")
        expected = Counter()
        for raw in doc["events"]:
            assert _finite(raw["t_ms"])
            assert type(raw["endpoint"]) is str and raw["endpoint"]
            assert type(raw.get("count", 1)) is int and raw.get("count", 1) >= 1
            expected[raw["endpoint"]] += raw.get("count", 1)
        assert state.counters == expected
