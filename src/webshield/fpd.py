"""Heuristic fingerprinting detection over API-call traces.

The detector never inspects code; it counts calls to endpoints that
fingerprinting scripts rely on and evaluates a weighted group tree.
Each group bundles the endpoints of one technique (canvas readout, font
metric probing, property enumeration, ...) so the steps count regardless
of the order a script performs them in.

Evaluation: a leaf contributes its weight once its endpoint's call count
reaches ``min_calls``.  A group sums its children's contributions and
fires as a unit: the sum propagates to the parent only when it reaches
the group's threshold, otherwise the whole group contributes nothing.
The root is the exception: its raw sum is the score (so severity can
grade sub-threshold activity) and detection means score >= root
threshold.

Counting is commutative, so verdicts are invariant under permutation of
the trace and never decrease as events arrive.  Blocking directives can
stop a page's later uploads and wipe its storage; they cannot recall
values already exfiltrated.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from pathlib import Path

CONFIG_SCHEMA_VERSION = 1

_TOP_FIELDS = {"version", "severity", "root"}
_GROUP_FIELDS = {"name", "threshold", "children"}
_LEAF_FIELDS = {"weight", "endpoint", "min_calls"}
_GROUP_CHILD_FIELDS = {"weight", "group"}
_SEVERITY_FIELDS = {"yellow", "orange", "red"}

DEFAULT_SEVERITY_FRACTIONS = {"yellow": 0.25, "orange": 0.5, "red": 1.0}


class FpdConfigError(ValueError):
    """Invalid detector configuration; ``location`` points at the fault."""

    def __init__(self, location: str, message: str):
        self.location = location
        super().__init__(f"{location}: {message}")


class Severity(str, Enum):
    GREEN = "green"
    YELLOW = "yellow"
    ORANGE = "orange"
    RED = "red"


class FpdMode(str, Enum):
    PASSIVE = "passive"
    NOTIFY = "notify"
    BLOCK = "block"


class BlockDirective(str, Enum):
    BLOCK_SUBSEQUENT_ASYNC_REQUESTS = "BlockSubsequentAsyncRequests"
    CLEAR_PAGE_STORAGE = "ClearPageStorage"


@dataclass(frozen=True)
class ApiCallEvent:
    t_ms: float
    endpoint: str
    count: int = 1

    def __post_init__(self):
        if not self.endpoint:
            raise ValueError("endpoint must be non-empty")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")


@dataclass(frozen=True)
class EndpointRule:
    """Leaf criterion: fires once the endpoint reaches min_calls."""

    endpoint: str
    min_calls: int = 1


@dataclass
class Group:
    name: str
    threshold: float
    children: list  # of (weight, Group | EndpointRule)


@dataclass
class FpdConfig:
    root: Group
    severity_fractions: dict = field(
        default_factory=lambda: dict(DEFAULT_SEVERITY_FRACTIONS)
    )

    def endpoints(self) -> set:
        found = set()

        def walk(group: Group):
            for _w, child in group.children:
                if isinstance(child, EndpointRule):
                    found.add(child.endpoint)
                else:
                    walk(child)

        walk(self.root)
        return found


@dataclass
class FpdState:
    """Per-page call counters; ingestion order never matters."""

    page: str = ""
    counters: Counter = field(default_factory=Counter)


@dataclass(frozen=True)
class FpdVerdict:
    score: float
    detected: bool
    severity: Severity
    fired_groups: tuple


def ingest(state: FpdState, event: ApiCallEvent) -> FpdState:
    """Add one trace event to the state's counters."""
    state.counters[event.endpoint] += event.count
    return state


def _validate_group(group, location: str, seen_names: dict, path_ids: set) -> None:
    if not isinstance(group, Group):
        raise FpdConfigError(location, f"expected a group, got {type(group).__name__}")
    if id(group) in path_ids:
        raise FpdConfigError(location, f"group {group.name!r} participates in a cycle")
    if not group.name:
        raise FpdConfigError(location, "group name must be non-empty")
    if group.name in seen_names and seen_names[group.name] is not group:
        raise FpdConfigError(location, f"duplicate group name {group.name!r}")
    seen_names[group.name] = group
    if not group.threshold >= 0:
        raise FpdConfigError(location, f"threshold must be >= 0, got {group.threshold}")
    path_ids = path_ids | {id(group)}
    for i, entry in enumerate(group.children):
        child_loc = f"{location}/children/{i}"
        try:
            weight, child = entry
        except (TypeError, ValueError):
            raise FpdConfigError(child_loc, "child must be a (weight, node) pair") from None
        if not weight > 0:
            raise FpdConfigError(child_loc, f"weight must be > 0, got {weight}")
        if isinstance(child, EndpointRule):
            if not child.endpoint:
                raise FpdConfigError(child_loc, "endpoint must be non-empty")
            if child.min_calls < 1:
                raise FpdConfigError(
                    child_loc, f"min_calls must be >= 1, got {child.min_calls}"
                )
        else:
            _validate_group(child, child_loc, seen_names, path_ids)


def validate_config(cfg: FpdConfig) -> FpdConfig:
    _validate_group(cfg.root, "/root", {}, set())
    if not cfg.endpoints():
        raise FpdConfigError("/root", "config defines no endpoint leaves")
    for key in _SEVERITY_FIELDS:
        if key not in cfg.severity_fractions:
            raise FpdConfigError("/severity", f"missing fraction {key!r}")
    fr = cfg.severity_fractions
    if not 0 < fr["yellow"] <= fr["orange"] <= fr["red"]:
        raise FpdConfigError("/severity", "fractions must be positive and ordered")
    return cfg


def _parse_group(doc, location: str) -> Group:
    if not isinstance(doc, dict):
        raise FpdConfigError(location, "group must be an object")
    unknown = set(doc) - _GROUP_FIELDS
    if unknown:
        raise FpdConfigError(location, f"unknown field {sorted(unknown)[0]!r}")
    for req in ("name", "threshold", "children"):
        if req not in doc:
            raise FpdConfigError(location, f"missing field {req!r}")
    children = []
    if not isinstance(doc["children"], list):
        raise FpdConfigError(f"{location}/children", "children must be an array")
    for i, entry in enumerate(doc["children"]):
        child_loc = f"{location}/children/{i}"
        if not isinstance(entry, dict):
            raise FpdConfigError(child_loc, "child must be an object")
        if "weight" not in entry:
            raise FpdConfigError(child_loc, "missing field 'weight'")
        if "endpoint" in entry:
            unknown = set(entry) - _LEAF_FIELDS
            if unknown:
                raise FpdConfigError(child_loc, f"unknown field {sorted(unknown)[0]!r}")
            leaf = EndpointRule(entry["endpoint"], int(entry.get("min_calls", 1)))
            children.append((float(entry["weight"]), leaf))
        elif "group" in entry:
            unknown = set(entry) - _GROUP_CHILD_FIELDS
            if unknown:
                raise FpdConfigError(child_loc, f"unknown field {sorted(unknown)[0]!r}")
            children.append(
                (float(entry["weight"]), _parse_group(entry["group"], f"{child_loc}/group"))
            )
        else:
            raise FpdConfigError(child_loc, "child needs either 'endpoint' or 'group'")
    return Group(str(doc["name"]), float(doc["threshold"]), children)


def load_fpd_config(source: str | Path | dict) -> FpdConfig:
    """Parse and validate a detector configuration document."""
    if isinstance(source, Path):
        doc = json.loads(source.read_text())
    elif isinstance(source, str):
        doc = json.loads(source)
    else:
        doc = source
    if not isinstance(doc, dict):
        raise FpdConfigError("/", "config must be an object")
    unknown = set(doc) - _TOP_FIELDS
    if unknown:
        raise FpdConfigError("/", f"unknown field {sorted(unknown)[0]!r}")
    if doc.get("version") != CONFIG_SCHEMA_VERSION:
        raise FpdConfigError("/version", f"unsupported version {doc.get('version')!r}")
    if "root" not in doc:
        raise FpdConfigError("/", "missing field 'root'")
    severity = dict(DEFAULT_SEVERITY_FRACTIONS)
    if "severity" in doc:
        if not isinstance(doc["severity"], dict):
            raise FpdConfigError("/severity", "severity must be an object")
        unknown = set(doc["severity"]) - _SEVERITY_FIELDS
        if unknown:
            raise FpdConfigError("/severity", f"unknown field {sorted(unknown)[0]!r}")
        severity.update({k: float(v) for k, v in doc["severity"].items()})
    cfg = FpdConfig(_parse_group(doc["root"], "/root"), severity)
    return validate_config(cfg)


def default_config() -> FpdConfig:
    """The shipped detector configuration."""
    text = resources.files("webshield.data").joinpath("fpd_default_config.json").read_text()
    return load_fpd_config(text)


def _group_sum(group: Group, counters: Counter, fired: list) -> float:
    total = 0.0
    for weight, child in group.children:
        if isinstance(child, EndpointRule):
            if counters.get(child.endpoint, 0) >= child.min_calls:
                total += weight
        else:
            inner = _group_sum(child, counters, fired)
            if inner >= child.threshold:
                fired.append(child.name)
                total += weight * inner
    return total


def evaluate(state: FpdState, cfg: FpdConfig) -> FpdVerdict:
    """Score the trace against the group tree.

    Pure and idempotent; endpoints absent from the config contribute
    nothing here and surface in the report as unclassified.
    """
    fired: list = []
    score = _group_sum(cfg.root, state.counters, fired)
    threshold = cfg.root.threshold
    detected = score >= threshold
    if detected:
        fired.append(cfg.root.name)
    fr = cfg.severity_fractions
    if score >= fr["red"] * threshold:
        severity = Severity.RED
    elif score >= fr["orange"] * threshold:
        severity = Severity.ORANGE
    elif score >= fr["yellow"] * threshold:
        severity = Severity.YELLOW
    else:
        severity = Severity.GREEN
    return FpdVerdict(
        score=score, detected=detected, severity=severity, fired_groups=tuple(fired)
    )


@dataclass(frozen=True)
class GroupReport:
    name: str
    fired: bool
    endpoints: dict  # endpoint -> observed count


@dataclass(frozen=True)
class Report:
    page: str
    score: float
    detected: bool
    severity: str
    groups: tuple  # GroupReport for each group with observed activity
    unclassified: dict  # endpoint -> count

    def to_dict(self) -> dict:
        return {
            "page": self.page,
            "score": self.score,
            "detected": self.detected,
            "severity": self.severity,
            "groups": [
                {"name": g.name, "fired": g.fired, "endpoints": dict(g.endpoints)}
                for g in self.groups
            ],
            "unclassified": dict(self.unclassified),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_text(self) -> str:
        lines = [f"page: {self.page or '(unknown)'}"]
        lines.append(
            f"verdict: {'fingerprinting detected' if self.detected else 'not detected'}"
            f" (score {self.score:g}, severity {self.severity})"
        )
        if not self.groups and not self.unclassified:
            lines.append("no fingerprinting activity observed")
            return "\n".join(lines)
        for g in self.groups:
            marker = "fired" if g.fired else "quiet"
            lines.append(f"group {g.name} [{marker}]")
            for endpoint, count in sorted(g.endpoints.items()):
                lines.append(f"  {endpoint}: {count}")
        if self.unclassified:
            lines.append("unclassified endpoints:")
            for endpoint, count in sorted(self.unclassified.items()):
                lines.append(f"  {endpoint}: {count}")
        return "\n".join(lines)


def render_report(state: FpdState, cfg: FpdConfig, verdict: FpdVerdict) -> Report:
    """Summarize what the page called, grouped by technique."""
    fired = set(verdict.fired_groups)
    groups = []

    def walk(group: Group):
        observed = {}
        for _w, child in group.children:
            if isinstance(child, EndpointRule):
                count = state.counters.get(child.endpoint, 0)
                if count:
                    observed[child.endpoint] = count
            else:
                walk(child)
        if observed:
            groups.append(GroupReport(group.name, group.name in fired, observed))

    walk(cfg.root)
    known = cfg.endpoints()
    unclassified = {
        endpoint: count
        for endpoint, count in sorted(state.counters.items())
        if endpoint not in known and count
    }
    return Report(
        page=state.page,
        score=verdict.score,
        detected=verdict.detected,
        severity=verdict.severity.value,
        groups=tuple(groups),
        unclassified=unclassified,
    )


def block_directives(verdict: FpdVerdict, mode: FpdMode | str) -> list:
    """Directives to apply for a verdict under the given mode.

    Only block mode acts, and only on detection; passive observation
    never emits directives.
    """
    mode = FpdMode(mode)
    if mode is FpdMode.BLOCK and verdict.detected:
        return [
            BlockDirective.BLOCK_SUBSEQUENT_ASYNC_REQUESTS,
            BlockDirective.CLEAR_PAGE_STORAGE,
        ]
    return []


def load_trace(source: str | Path | dict) -> tuple[str, list]:
    """Parse a trace document: {"page": url, "events": [...]}. """
    if isinstance(source, Path):
        doc = json.loads(source.read_text())
    elif isinstance(source, str):
        doc = json.loads(source)
    else:
        doc = source
    if not isinstance(doc, dict) or "events" not in doc:
        raise ValueError("trace must be an object with an 'events' array")
    events = []
    for i, entry in enumerate(doc["events"]):
        try:
            events.append(
                ApiCallEvent(
                    t_ms=float(entry["t_ms"]),
                    endpoint=str(entry["endpoint"]),
                    count=int(entry.get("count", 1)),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"invalid trace event at index {i}: {exc}") from exc
    return str(doc.get("page", "")), events


def analyze_trace(
    source: str | Path | dict, cfg: FpdConfig | None = None
) -> tuple[FpdState, FpdVerdict, Report]:
    """Convenience pipeline: load, ingest, evaluate, report."""
    cfg = cfg or default_config()
    page, events = load_trace(source)
    state = FpdState(page=page)
    for event in events:
        ingest(state, event)
    verdict = evaluate(state, cfg)
    return state, verdict, render_report(state, cfg, verdict)
