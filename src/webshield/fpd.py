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
import math
from collections import Counter
from dataclasses import asdict, dataclass, field
from enum import Enum
from importlib import resources
from pathlib import Path

from . import CONFIG_SCHEMA_VERSION

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
class FpdConfig:
    """A detector config flattened into one table by ``load_fpd_config``.

    ``groups`` holds each group as ``(name, threshold, children)`` in
    post-order (children before their parent, the root last).  A child is
    ``(weight, endpoint, min_calls)`` for a leaf or ``(weight, i)`` for
    ``groups[i]``, in document order.
    """

    groups: tuple
    endpoints: frozenset
    severity_fractions: dict


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


def _read(source: str | Path | dict):
    if isinstance(source, Path):
        source = source.read_text()
    return json.loads(source) if isinstance(source, str) else source


def _fields(doc: dict, allowed: set, required: tuple, location: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise FpdConfigError(location, f"unknown field {sorted(unknown)[0]!r}")
    for req in required:
        if req not in doc:
            raise FpdConfigError(location, f"missing field {req!r}")


def _describe(value) -> str:
    """``value`` as JSON, or its repr when it is no JSON value (a dict built in code)."""
    try:
        return json.dumps(value)
    except (TypeError, ValueError):  # a non-JSON type, or a container holding itself
        return repr(value)


def _number(value, location: str) -> float:
    """A finite JSON number (a bool is not one) as a float."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an int too large for a float
            pass
    raise FpdConfigError(location, f"expected a finite number, got {_describe(value)}")


def _typed(value, kind: type, location: str):
    """``value`` if it is a ``kind`` (str or int; a bool is not an int)."""
    if isinstance(value, kind) and not isinstance(value, bool):
        return value
    expected = "a string" if kind is str else "an integer"
    raise FpdConfigError(location, f"expected {expected}, got {_describe(value)}")


def _parse_group(doc, location: str, table: list, names: set, path: frozenset) -> None:
    """Check one group document and append it to ``table`` after its subgroups."""
    if not isinstance(doc, dict):
        raise FpdConfigError(location, "group must be an object")
    if id(doc) in path:
        raise FpdConfigError(location, f"group {doc['name']!r} participates in a cycle")
    _fields(doc, _GROUP_FIELDS, ("name", "threshold", "children"), location)
    name = _typed(doc["name"], str, f"{location}/name")
    if not name:
        raise FpdConfigError(location, "group name must be non-empty")
    if name in names:
        raise FpdConfigError(location, f"duplicate group name {name!r}")
    names.add(name)
    threshold = _number(doc["threshold"], f"{location}/threshold")
    if not threshold >= 0:
        raise FpdConfigError(location, f"threshold must be >= 0, got {threshold}")
    if not isinstance(doc["children"], list):
        raise FpdConfigError(f"{location}/children", "children must be an array")
    children = []
    for i, entry in enumerate(doc["children"]):
        loc = f"{location}/children/{i}"
        if not isinstance(entry, dict):
            raise FpdConfigError(loc, "child must be an object")
        if "endpoint" in entry:
            _fields(entry, _LEAF_FIELDS, ("weight",), loc)
        elif "group" in entry:
            _fields(entry, _GROUP_CHILD_FIELDS, ("weight",), loc)
        else:
            raise FpdConfigError(loc, "child needs either 'endpoint' or 'group'")
        weight = _number(entry["weight"], f"{loc}/weight")
        if not weight > 0:
            raise FpdConfigError(loc, f"weight must be > 0, got {weight}")
        if "group" in entry:
            _parse_group(entry["group"], f"{loc}/group", table, names, path | {id(doc)})
            children.append((weight, len(table) - 1))
            continue
        endpoint = _typed(entry["endpoint"], str, f"{loc}/endpoint")
        if not endpoint:
            raise FpdConfigError(loc, "endpoint must be non-empty")
        min_calls = _typed(entry.get("min_calls", 1), int, f"{loc}/min_calls")
        if min_calls < 1:
            raise FpdConfigError(loc, f"min_calls must be >= 1, got {min_calls}")
        children.append((weight, endpoint, min_calls))
    table.append((name, threshold, tuple(children)))


def load_fpd_config(source: str | Path | dict) -> FpdConfig:
    """Parse and validate a detector configuration document."""
    try:
        doc = _read(source)
        if not isinstance(doc, dict):
            raise FpdConfigError("/", "config must be an object")
        if type(doc.get("version")) is not int or doc["version"] != CONFIG_SCHEMA_VERSION:
            raise FpdConfigError("/version", f"unsupported version {doc.get('version')!r}")
        _fields(doc, _TOP_FIELDS, ("root",), "/")
        severity = dict(DEFAULT_SEVERITY_FRACTIONS)
        if "severity" in doc:
            if not isinstance(doc["severity"], dict):
                raise FpdConfigError("/severity", "severity must be an object")
            _fields(doc["severity"], _SEVERITY_FIELDS, (), "/severity")
            severity.update({k: _number(v, f"/severity/{k}") for k, v in doc["severity"].items()})
        if not 0 < severity["yellow"] <= severity["orange"] <= severity["red"]:
            raise FpdConfigError("/severity", "fractions must be positive and ordered")
        table: list = []
        _parse_group(doc["root"], "/root", table, set(), frozenset())
    except json.JSONDecodeError as exc:
        raise FpdConfigError("/", f"invalid JSON: {exc}") from None
    except RecursionError:
        raise FpdConfigError("/", "config is nested too deeply") from None
    endpoints = frozenset(c[1] for _n, _t, children in table for c in children if len(c) == 3)
    if not endpoints:
        raise FpdConfigError("/root", "config defines no endpoint leaves")
    return FpdConfig(tuple(table), endpoints, severity)


def default_config() -> FpdConfig:
    """The shipped detector configuration."""
    text = resources.files("webshield.data").joinpath("fpd_default_config.json").read_text()
    return load_fpd_config(text)


def evaluate(state: FpdState, cfg: FpdConfig) -> FpdVerdict:
    """Score the trace against the group table.

    Pure and idempotent; endpoints absent from the config contribute
    nothing here and surface in the report as unclassified.
    """
    counters = state.counters
    sums, fired = [], []
    for name, threshold, children in cfg.groups:
        total = 0.0
        for child in children:
            if len(child) == 3:
                weight, endpoint, min_calls = child
                if counters.get(endpoint, 0) >= min_calls:
                    total += weight
            else:
                weight, i = child
                if sums[i] >= cfg.groups[i][1]:
                    total += weight * sums[i]
        sums.append(total)
        if total >= threshold:
            fired.append(name)
    score, threshold = sums[-1], cfg.groups[-1][1]  # the root comes last
    detected = score >= threshold
    fr = cfg.severity_fractions
    if score >= fr["red"] * threshold:
        severity = Severity.RED
    elif score >= fr["orange"] * threshold:
        severity = Severity.ORANGE
    elif score >= fr["yellow"] * threshold:
        severity = Severity.YELLOW
    else:
        severity = Severity.GREEN
    return FpdVerdict(score, detected, severity, tuple(fired))


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

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

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
    counters = state.counters
    groups = []
    for name, _threshold, children in cfg.groups:
        observed = {c[1]: n for c in children if len(c) == 3 and (n := counters.get(c[1], 0))}
        if observed:
            groups.append(GroupReport(name, name in fired, observed))
    unclassified = {
        endpoint: count
        for endpoint, count in sorted(counters.items())
        if endpoint not in cfg.endpoints and count
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


def ingest(state: FpdState, events: list) -> FpdState:
    """Check raw trace events and add their counts to the state's counters.

    An event needs a finite number ``t_ms``, a non-empty string
    ``endpoint`` and an integer ``count`` >= 1 (default 1); a bool is
    neither.  A bad event raises ``ValueError`` naming its index; the
    events before it have already been counted.
    """
    counters = state.counters
    for i, entry in enumerate(events):
        try:
            if not isinstance(entry, dict):
                raise ValueError("event must be an object")
            t_ms, endpoint, count = entry["t_ms"], entry["endpoint"], entry.get("count", 1)
            # exact type tests first: a trace holds thousands of well-typed events
            if type(t_ms) is not float or not math.isfinite(t_ms):
                _number(t_ms, "t_ms")
            if type(endpoint) is not str or type(count) is not int:
                _typed(endpoint, str, "endpoint")
                _typed(count, int, "count")
            if not endpoint:
                raise ValueError("endpoint must be non-empty")
            if count < 1:
                raise ValueError(f"count must be >= 1, got {count}")
        except (KeyError, ValueError, RecursionError) as exc:
            raise ValueError(f"invalid trace event at index {i}: {exc}") from exc
        counters[endpoint] += count
    return state


def load_trace(source: str | Path | dict) -> FpdState:
    """Check and count a trace document, {"page": url, "events": [...]}.

    ``page`` is an optional string; ``ingest`` checks and counts the
    events.
    """
    try:
        doc = _read(source)
    except RecursionError:
        raise ValueError("trace is nested too deeply") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("events"), list):
        raise ValueError("trace must be an object with an 'events' array")
    if not isinstance(doc.get("page", ""), str):
        raise ValueError("trace 'page' must be a string")
    return ingest(FpdState(page=doc.get("page", "")), doc["events"])


def analyze_trace(
    source: str | Path | dict, cfg: FpdConfig | None = None
) -> tuple[FpdState, FpdVerdict, Report]:
    """Convenience pipeline: load, evaluate, report."""
    cfg = cfg or default_config()
    state = load_trace(source)
    verdict = evaluate(state, cfg)
    return state, verdict, render_report(state, cfg, verdict)
