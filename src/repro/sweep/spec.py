"""Declarative sweep specifications.

A :class:`SweepSpec` names a family of config points: a base config
plus axes that vary fields of it.  The base may be any config dataclass
with ``validate()`` (spec files build a :class:`ScenarioConfig`).  Three
expansion forms compose (explicit points × zipped axes × grid axes ×
seeds):

* ``grid`` — dotted field path → value list; axes combine as a
  cartesian product (``{"feedback.controller.alpha": [.05, .1],
  "seed": [1, 2]}`` is four points);
* ``zipped`` — dotted field path → value list; all zipped axes advance
  *together* (equal lengths required), like Python's ``zip``;
* ``points`` — explicit override dicts, for irregular families no grid
  expresses.

Paths address nested config fields (``feedback.controller.alpha``,
``network.client_lb_delay``, ``memtier.pipeline``); the named attribute
must already exist — a typo fails expansion, not silently sweeps
nothing.  Values may be given as strings for readability in spec files:
durations take time suffixes (``"250ms"``), ``policy`` takes a
:class:`PolicyName` value, and ``faults`` takes a list of chaos-plane
spec strings (see :mod:`repro.faults.parse`).

**Per-point seed derivation.**  Unless a point's overrides set ``seed``
explicitly (directly or via the ``seeds`` axis), each point's seed is
derived from the base seed and the point's canonical overrides via
:func:`repro.sim.random.derive_seed`.  Distinct points therefore get
decorrelated random streams by default, and the same point always gets
the same seed — in any process, in any execution order.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.faults.model import FaultSpec
from repro.faults.parse import parse_faults
from repro.harness.config import PolicyName, ScenarioConfig
from repro.sim.random import derive_seed
from repro.sweep.canon import canonical_json, config_key


@dataclass
class SweepPoint:
    """One expanded point: resolved config plus its identity."""

    index: int
    overrides: Dict[str, object]
    config: object
    label: str

    def key(self, runner: object) -> str:
        """Content hash of (runner, config) — the cache address."""
        return config_key([runner, self.config])


@dataclass
class SweepSpec:
    """A base config (any dataclass with ``validate()``) and its axes."""

    base: object = field(default_factory=ScenarioConfig)
    grid: Dict[str, Sequence[object]] = field(default_factory=dict)
    zipped: Dict[str, Sequence[object]] = field(default_factory=dict)
    points: List[Dict[str, object]] = field(default_factory=list)
    #: Replicate every point once per seed (an outer axis).
    seeds: Optional[Sequence[int]] = None
    name: str = "sweep"
    #: Derive a per-point seed from the overrides when none is set.
    derive_seeds: bool = True

    def expand(self) -> List[SweepPoint]:
        """All points, in deterministic order; every config validated."""
        rows: List[Dict[str, object]] = [dict(p) for p in self.points] or [{}]
        if self.zipped:
            lengths = {len(values) for values in self.zipped.values()}
            if len(lengths) != 1:
                raise ConfigError(
                    "zipped axes must have equal lengths, got %s"
                    % sorted(lengths)
                )
            count = lengths.pop()
            if count == 0:
                raise ConfigError("zipped axes must be non-empty")
            zip_rows = [
                {path: self.zipped[path][i] for path in sorted(self.zipped)}
                for i in range(count)
            ]
            rows = [{**row, **z} for row in rows for z in zip_rows]
        for path in sorted(self.grid):
            values = list(self.grid[path])
            if not values:
                raise ConfigError("grid axis %r is empty" % path)
            rows = [{**row, path: value} for row in rows for value in values]
        if self.seeds is not None:
            seeds = list(self.seeds)
            if not seeds:
                raise ConfigError("seeds axis is empty")
            rows = [{**row, "seed": seed} for row in rows for seed in seeds]

        points = []
        for index, overrides in enumerate(rows):
            config = apply_overrides(self.base, overrides)
            if "seed" not in overrides and overrides and self.derive_seeds:
                config.seed = derive_seed(
                    self.base.seed, "sweep-point", canonical_json(overrides)
                )
            config.validate()
            points.append(
                SweepPoint(
                    index=index,
                    overrides=overrides,
                    config=config,
                    label=_label(overrides),
                )
            )
        return points

    # ------------------------------------------------------------------
    # Spec files
    # ------------------------------------------------------------------

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SweepSpec":
        """Build a spec from a parsed JSON document."""
        known = {"name", "base", "grid", "zip", "points", "seeds"}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(
                "unknown sweep spec keys: %s (expected %s)"
                % (", ".join(sorted(unknown)), ", ".join(sorted(known)))
            )
        base_overrides = data.get("base", {})
        if not isinstance(base_overrides, dict):
            raise ConfigError("sweep spec 'base' must be an object")
        spec = cls(
            base=apply_overrides(ScenarioConfig(), base_overrides),
            grid=dict(data.get("grid", {})),
            zipped=dict(data.get("zip", {})),
            points=[dict(p) for p in data.get("points", [])],
            seeds=data.get("seeds"),
            name=str(data.get("name", "sweep")),
        )
        return spec


def load_spec(path: str) -> SweepSpec:
    """Read a JSON sweep spec file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError("cannot read sweep spec %s: %s" % (path, exc)) from exc
    except ValueError as exc:
        raise ConfigError("sweep spec %s is not valid JSON: %s" % (path, exc)) from exc
    if not isinstance(data, dict):
        raise ConfigError("sweep spec %s must be a JSON object" % path)
    return SweepSpec.from_dict(data)


def apply_overrides(base: object, overrides: Dict[str, object]) -> object:
    """Deep-copy ``base`` and assign a deep copy of every dotted-path override.

    ``duration`` is applied first so time-relative values (fault spec
    strings expanded against the run length) see the final horizon.
    """
    config = copy.deepcopy(base)
    ordered = sorted(overrides, key=lambda path: (path != "duration", path))
    for path in ordered:
        _assign(config, path, copy.deepcopy(overrides[path]))
    return config


def _assign(config: object, path: str, value: object) -> None:
    target = config
    parts = path.split(".")
    for part in parts[:-1]:
        if not hasattr(target, part):
            raise ConfigError(
                "sweep path %r: %r has no field %r"
                % (path, type(target).__name__, part)
            )
        target = getattr(target, part)
    leaf = parts[-1]
    if not hasattr(target, leaf):
        raise ConfigError(
            "sweep path %r: %r has no field %r"
            % (path, type(target).__name__, leaf)
        )
    setattr(target, leaf, _coerce(leaf, value, getattr(target, leaf), config))


def _coerce(leaf: str, value: object, current: object, config: object) -> object:
    """Interpret string forms against the field being assigned."""
    if leaf == "policy" and isinstance(value, str):
        try:
            return PolicyName(value)
        except ValueError:
            raise ConfigError(
                "unknown policy %r (expected one of %s)"
                % (value, ", ".join(p.value for p in PolicyName))
            ) from None
    if leaf == "faults":
        if not isinstance(value, (list, tuple)):
            raise ConfigError("faults override must be a list")
        faults: List[FaultSpec] = []
        for item in value:
            if isinstance(item, FaultSpec):
                faults.append(item)
            elif isinstance(item, str):
                faults.extend(parse_faults(item, config.duration))
            else:
                raise ConfigError(
                    "faults entries must be FaultSpec or spec strings, got %r"
                    % (item,)
                )
        return faults
    if isinstance(value, str) and isinstance(current, int) and not isinstance(
        current, bool
    ):
        return parse_scalar(value, want_time=True)
    return value


def parse_scalar(text: str, want_time: bool = False) -> object:
    """Parse one inline axis value: int, float, time suffix, or string."""
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    lowered = text.lower()
    if lowered.endswith(("ns", "us", "ms", "s")):
        from repro.faults.parse import _parse_time

        try:
            return _parse_time(lowered)
        except ConfigError:
            pass
    if want_time:
        raise ConfigError("expected a number or time value, got %r" % text)
    return text


def parse_axis(text: str) -> Tuple[str, List[object]]:
    """``"path=v1,v2,..."`` → ``(path, values)`` for inline CLI axes."""
    path, sep, body = text.partition("=")
    path = path.strip()
    if not sep or not path or not body.strip():
        raise ConfigError(
            "axis %r is not of the form path=value[,value...]" % text
        )
    values = [parse_scalar(part) for part in body.split(",") if part.strip()]
    if not values:
        raise ConfigError("axis %r has no values" % text)
    return path, values


def _label(overrides: Dict[str, object]) -> str:
    if not overrides:
        return "base"
    parts = []
    for path in sorted(overrides):
        value = overrides[path]
        parts.append("%s=%s" % (path.rsplit(".", 1)[-1], _fmt(value)))
    return ",".join(parts)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return "%g" % value
    if isinstance(value, (list, tuple)):
        return "[%d]" % len(value)
    if isinstance(value, PolicyName):
        return value.value
    return str(value)
