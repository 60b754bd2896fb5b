"""Labeled metric instruments and the per-scenario registry.

The observability plane's first pillar: :class:`Counter`,
:class:`Gauge`, and :class:`HistogramMetric` families, each optionally
labeled (``family.labels(backend="server0").inc()``), owned by one
:class:`Registry` per scenario.  Histograms reuse
:class:`repro.telemetry.histogram.LogHistogram` as their backend, so
latency metrics get log-bucketed resolution for free.

Exports are dependency-free: :meth:`Registry.to_json` for programmatic
consumers and :meth:`Registry.to_prometheus` for the text exposition
format real dataplanes scrape.  :func:`parse_prometheus_text` is the
matching strict line-format validator (used by tests and the CI smoke
job; it is a checker, not a full client).

Pull-style sources (pipe drop counters, engine stats, the event logs
components keep) register a *collect hook* — a callback the registry
runs before every export and every :meth:`Registry.get` — so values
that live elsewhere are refreshed at read time instead of being pushed
on every change.
"""

from __future__ import annotations

import math
import re
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.telemetry.histogram import LogHistogram

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class MetricError(ValueError):
    """Malformed metric name, labels, or export text."""


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise MetricError("invalid metric name %r" % name)
    return name


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value: float) -> str:
    """Render a sample value losslessly (no %g precision cliff)."""
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 2 ** 53:
        return "%d" % int(value)
    return repr(float(value))


def format_labels(labels: Dict[str, str]) -> str:
    """Render a label dict in Prometheus sample syntax (sorted keys)."""
    if not labels:
        return ""
    inner = ",".join(
        '%s="%s"' % (key, _escape_label_value(str(labels[key])))
        for key in sorted(labels)
    )
    return "{%s}" % inner


class _Family:
    """Common machinery: a named metric with labeled children."""

    kind = "untyped"

    def __init__(self, name: str, help: str, label_names: Sequence[str] = ()):
        self.name = _check_name(name)
        self.help = help
        self.label_names = tuple(label_names)
        for label in self.label_names:
            if not _LABEL_NAME_RE.match(label):
                raise MetricError("invalid label name %r" % label)
        self._children: Dict[Tuple[str, ...], object] = {}
        if not self.label_names:
            # Label-less families have exactly one implicit child.
            self._children[()] = self._make_child()

    def _make_child(self):
        raise NotImplementedError

    def labels(self, **labels: object):
        """The child for one label-value combination (created lazily)."""
        if set(labels) != set(self.label_names):
            raise MetricError(
                "metric %s takes labels %r, got %r"
                % (self.name, list(self.label_names), sorted(labels))
            )
        key = tuple(str(labels[name]) for name in self.label_names)
        child = self._children.get(key)
        if child is None:
            child = self._make_child()
            self._children[key] = child
        return child

    def children(self) -> Iterator[Tuple[Dict[str, str], object]]:
        """Iterate ``(labels, child)`` pairs in insertion order."""
        for key, child in self._children.items():
            yield dict(zip(self.label_names, key)), child

    # Label-less convenience: the family proxies its single child.

    def _only_child(self):
        if self.label_names:
            raise MetricError(
                "metric %s is labeled; call .labels(...) first" % self.name
            )
        return self._children[()]


class _CounterChild:
    """Monotonic value for one label combination."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0)."""
        if amount < 0:
            raise MetricError("counters only go up, got %r" % amount)
        self.value += amount


class Counter(_Family):
    """A monotonically increasing count (events, packets, samples)."""

    kind = "counter"

    def _make_child(self) -> _CounterChild:
        return _CounterChild()

    def inc(self, amount: float = 1.0) -> None:
        """Increment the label-less child."""
        self._only_child().inc(amount)

    def set_counts(self, counts: Dict[Tuple[str, ...], int]) -> None:
        """Set children from ``label values → count`` (a recounted log).

        New children are created in the mapping's order, and not for a
        zero count: a first-occurrence mapping lays them out as one
        ``inc`` per logged event would have.
        """
        for key, count in counts.items():
            if not count:
                continue
            child = self.labels(**dict(zip(self.label_names, key)))
            if count < child.value:
                raise MetricError("counter %s%r went down" % (self.name, key))
            child.value = float(count)

    @property
    def value(self) -> float:
        """Value of the label-less child."""
        return self._only_child().value


class _GaugeChild:
    """Settable value for one label combination."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Set the current value."""
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Adjust upward."""
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Adjust downward."""
        self.value -= amount


class Gauge(_Family):
    """A value that can go up and down (queue depth, weight, mode)."""

    kind = "gauge"

    def _make_child(self) -> _GaugeChild:
        return _GaugeChild()

    def set(self, value: float) -> None:
        """Set the label-less child."""
        self._only_child().set(value)

    def inc(self, amount: float = 1.0) -> None:
        """Increment the label-less child."""
        self._only_child().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        """Decrement the label-less child."""
        self._only_child().dec(amount)

    @property
    def value(self) -> float:
        """Value of the label-less child."""
        return self._only_child().value


class _HistogramChild:
    """A :class:`LogHistogram` for one label combination."""

    __slots__ = ("histogram",)

    def __init__(self, base: float, sub: int) -> None:
        self.histogram = LogHistogram(base=base, sub=sub)

    def observe(self, value: float) -> None:
        """Record one (positive) observation."""
        self.histogram.record(value)


class HistogramMetric(_Family):
    """A log-bucketed distribution (latencies; values must be > 0)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        label_names: Sequence[str] = (),
        base: float = 2.0,
        sub: int = 4,
    ):
        self._base = base
        self._sub = sub
        super().__init__(name, help, label_names)

    def _make_child(self) -> _HistogramChild:
        return _HistogramChild(self._base, self._sub)

    def observe(self, value: float) -> None:
        """Record into the label-less child."""
        self._only_child().observe(value)


class Registry:
    """All of one scenario's instruments, keyed by metric name."""

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}
        self._collect_hooks: List[Callable[[], None]] = []

    def __len__(self) -> int:
        return len(self._families)

    def counter(
        self, name: str, help: str, labels: Sequence[str] = ()
    ) -> Counter:
        """Register (or fetch the identical existing) counter family."""
        return self._register(Counter(name, help, labels))

    def gauge(self, name: str, help: str, labels: Sequence[str] = ()) -> Gauge:
        """Register (or fetch the identical existing) gauge family."""
        return self._register(Gauge(name, help, labels))

    def histogram(
        self,
        name: str,
        help: str,
        labels: Sequence[str] = (),
        base: float = 2.0,
        sub: int = 4,
    ) -> HistogramMetric:
        """Register (or fetch the identical existing) histogram family."""
        return self._register(HistogramMetric(name, help, labels, base, sub))

    def _register(self, family: _Family) -> _Family:
        existing = self._families.get(family.name)
        if existing is not None:
            if (
                type(existing) is not type(family)
                or existing.label_names != family.label_names
            ):
                raise MetricError(
                    "metric %s already registered with a different "
                    "type or label set" % family.name
                )
            return existing
        self._families[family.name] = family
        return family

    def get(self, name: str) -> Optional[_Family]:
        """Look up a family by name (None when absent), freshly collected."""
        self.collect()
        return self._families.get(name)

    def families(self) -> List[_Family]:
        """All families, sorted by name."""
        return [self._families[name] for name in sorted(self._families)]

    def add_collect_hook(self, hook: Callable[[], None]) -> None:
        """Run ``hook`` before every export (pull-style sources)."""
        self._collect_hooks.append(hook)

    def collect(self) -> None:
        """Refresh pull-style sources (runs every registered hook)."""
        for hook in self._collect_hooks:
            hook()

    # ------------------------------------------------------------------
    # Exports
    # ------------------------------------------------------------------

    def to_json(self) -> Dict[str, dict]:
        """Nested-dict rendering: name → type/help/samples."""
        self.collect()
        out: Dict[str, dict] = {}
        for family in self.families():
            samples = []
            for labels, child in family.children():
                if isinstance(child, _HistogramChild):
                    hist = child.histogram
                    samples.append(
                        {
                            "labels": labels,
                            "count": hist.total,
                            "sum": hist.sum,
                            "buckets": [
                                {"le": hi, "count": count}
                                for _lo, hi, count in hist.buckets()
                            ],
                        }
                    )
                else:
                    samples.append({"labels": labels, "value": child.value})
            out[family.name] = {
                "type": family.kind,
                "help": family.help,
                "samples": samples,
            }
        return out

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        self.collect()
        lines: List[str] = []
        for family in self.families():
            lines.append("# HELP %s %s" % (family.name, _escape_help(family.help)))
            lines.append("# TYPE %s %s" % (family.name, family.kind))
            for labels, child in family.children():
                if isinstance(child, _HistogramChild):
                    lines.extend(self._histogram_lines(family.name, labels, child))
                else:
                    lines.append(
                        "%s%s %s"
                        % (family.name, format_labels(labels), _format_value(child.value))
                    )
        return "\n".join(lines) + "\n"

    @staticmethod
    def _histogram_lines(
        name: str, labels: Dict[str, str], child: _HistogramChild
    ) -> List[str]:
        hist = child.histogram
        lines: List[str] = []
        cumulative = 0
        for _lo, hi, count in hist.buckets():
            cumulative += count
            le_labels = dict(labels)
            le_labels["le"] = _format_value(hi)
            lines.append(
                "%s_bucket%s %d" % (name, format_labels(le_labels), cumulative)
            )
        inf_labels = dict(labels)
        inf_labels["le"] = "+Inf"
        lines.append(
            "%s_bucket%s %d" % (name, format_labels(inf_labels), hist.total)
        )
        lines.append(
            "%s_sum%s %s" % (name, format_labels(labels), _format_value(hist.sum))
        )
        lines.append("%s_count%s %d" % (name, format_labels(labels), hist.total))
        return lines


# ======================================================================
# Exposition-format validation (tests + CI smoke, no third-party deps)
# ======================================================================

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\""
    r"(?:,[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\")*\})?"
    r" (?P<value>[^ ]+)(?: (?P<timestamp>-?[0-9]+))?$"
)
_LABEL_PAIR_RE = re.compile(r"([a-zA-Z_][a-zA-Z0-9_]*)=\"((?:[^\"\\]|\\.)*)\"")
_HISTOGRAM_SUFFIXES = ("_bucket", "_sum", "_count")


def _parse_value(text: str) -> float:
    if text in ("+Inf", "Inf"):
        return math.inf
    if text == "-Inf":
        return -math.inf
    if text == "NaN":
        return math.nan
    try:
        return float(text)
    except ValueError:
        raise MetricError("invalid sample value %r" % text) from None


def parse_prometheus_text(text: str) -> Dict[str, dict]:
    """Strictly parse Prometheus exposition text.

    Returns ``{family: {"type": ..., "samples": [(name, labels, value)]}}``
    and raises :class:`MetricError` on any malformed line, on samples
    with no preceding ``# TYPE``, or on histogram series missing their
    ``+Inf`` bucket.
    """
    families: Dict[str, dict] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            parts = line.split(" ", 3)
            if len(parts) < 4 and parts[1] == "HELP":
                parts.append("")
            if len(parts) < 4:
                raise MetricError("line %d: malformed comment %r" % (lineno, line))
            _hash, keyword, name, rest = parts
            if not _NAME_RE.match(name):
                raise MetricError("line %d: invalid metric name %r" % (lineno, name))
            family = families.setdefault(
                name, {"type": None, "help": None, "samples": []}
            )
            if keyword == "TYPE":
                if rest not in ("counter", "gauge", "histogram", "summary", "untyped"):
                    raise MetricError("line %d: unknown type %r" % (lineno, rest))
                if family["samples"]:
                    raise MetricError(
                        "line %d: TYPE for %s after its samples" % (lineno, name)
                    )
                family["type"] = rest
            else:
                family["help"] = rest
            continue
        if line.startswith("#"):
            continue  # free-form comment
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise MetricError("line %d: malformed sample %r" % (lineno, line))
        name = match.group("name")
        labels: Dict[str, str] = {}
        if match.group("labels"):
            for key, value in _LABEL_PAIR_RE.findall(match.group("labels")):
                if key in labels:
                    raise MetricError("line %d: duplicate label %r" % (lineno, key))
                labels[key] = value
        value = _parse_value(match.group("value"))
        base = name
        for suffix in _HISTOGRAM_SUFFIXES:
            trimmed = name[: -len(suffix)] if name.endswith(suffix) else None
            if trimmed and families.get(trimmed, {}).get("type") == "histogram":
                base = trimmed
                break
        family = families.get(base)
        if family is None or family["type"] is None:
            raise MetricError(
                "line %d: sample %s has no preceding # TYPE" % (lineno, name)
            )
        family["samples"].append((name, labels, value))

    for name, family in families.items():
        if family["type"] == "histogram" and family["samples"]:
            inf_buckets = [
                s
                for s in family["samples"]
                if s[0] == name + "_bucket" and s[1].get("le") == "+Inf"
            ]
            if not inf_buckets:
                raise MetricError("histogram %s missing +Inf bucket" % name)
    return families
