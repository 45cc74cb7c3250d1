"""Pipeline configuration: one JSON file, optional flag overrides, defaults
matching the standard run (5 clusters, support count 3, confidence 10%,
top 5 assignees)."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Mapping

from .errors import ConfigError
from .ingest import LOGICAL_FIELDS


def default_column_map() -> dict[str, str]:
    return {name: name for name in LOGICAL_FIELDS}


@dataclass
class PipelineConfig:
    input_path: str
    output_dir: str = "triage_report"
    column_map: dict[str, str] = field(default_factory=default_column_map)
    k: int = 5
    min_support_count: int = 3
    min_confidence: float = 0.10
    top_n: int = 5
    seed: int = 0
    max_iterations: int = 100

    def analysis_parameters(self) -> dict[str, object]:
        """The knobs that determine the output, excluding file locations."""
        return {
            "column_map": dict(self.column_map),
            "k": self.k,
            "min_support_count": self.min_support_count,
            "min_confidence": self.min_confidence,
            "top_n": self.top_n,
            "seed": self.seed,
            "max_iterations": self.max_iterations,
        }


_KNOWN_KEYS = {f.name for f in fields(PipelineConfig)}


def validate_config(raw_text: str, overrides: Mapping[str, object] | None = None) -> PipelineConfig:
    """Parse config JSON, apply overrides (overrides win), fill defaults and
    validate every field, reporting all violations at once."""
    violations: list[str] = []
    data: dict[str, object] = {}
    if raw_text.strip():
        try:
            parsed = json.loads(raw_text)
        except json.JSONDecodeError as exc:
            raise ConfigError([f"config is not valid JSON: {exc}"]) from exc
        if not isinstance(parsed, dict):
            raise ConfigError(["config must be a JSON object"])
        data = parsed
    for key in sorted(set(data) - _KNOWN_KEYS):
        violations.append(f"unknown config key: {key}")
    data = {key: value for key, value in data.items() if key in _KNOWN_KEYS}
    if overrides:
        data.update({key: value for key, value in overrides.items() if value is not None})

    def check_positive_int(name: str, default: int) -> int:
        value = data.get(name, default)
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            violations.append(f"{name} must be a positive integer, got {value!r}")
            return default
        return value

    input_path = data.get("input_path")
    if not isinstance(input_path, str) or not input_path:
        violations.append("input_path must be a non-empty string")
        input_path = ""
    output_dir = data.get("output_dir", "triage_report")
    if not isinstance(output_dir, str) or not output_dir:
        violations.append("output_dir must be a non-empty string")
        output_dir = "triage_report"

    column_map = data.get("column_map", default_column_map())
    if not isinstance(column_map, dict):
        violations.append("column_map must be an object of logical field -> header name")
        column_map = default_column_map()
    else:
        column_map = dict(column_map)
        mapped_from: dict[str, str] = {}
        for name in LOGICAL_FIELDS:
            header = column_map.get(name)
            if name not in column_map:
                violations.append(f"column_map missing logical field: {name}")
            elif not isinstance(header, str) or not header:
                violations.append(f"column_map.{name} must be a non-empty header name")
            elif header in mapped_from:
                violations.append(
                    f"column_map.{mapped_from[header]} and column_map.{name}"
                    f" both name column {header!r}"
                )
            else:
                mapped_from[header] = name
        for name in sorted(set(column_map) - set(LOGICAL_FIELDS)):
            violations.append(f"column_map has unknown logical field: {name}")

    k = check_positive_int("k", 5)
    min_support_count = check_positive_int("min_support_count", 3)
    top_n = check_positive_int("top_n", 5)
    max_iterations = check_positive_int("max_iterations", 100)

    min_confidence = data.get("min_confidence", 0.10)
    if isinstance(min_confidence, bool) or not isinstance(min_confidence, (int, float)):
        violations.append(f"min_confidence must be a number in (0, 1], got {min_confidence!r}")
        min_confidence = 0.10
    elif not 0.0 < float(min_confidence) <= 1.0:
        violations.append(f"min_confidence must be in (0, 1], got {min_confidence!r}")
        min_confidence = 0.10

    seed = data.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < 2**64:
        violations.append(f"seed must be an integer in [0, 2^64), got {seed!r}")
        seed = 0

    if violations:
        raise ConfigError(violations)
    return PipelineConfig(
        input_path=input_path,
        output_dir=output_dir,
        column_map=column_map,
        k=k,
        min_support_count=min_support_count,
        min_confidence=float(min_confidence),
        top_n=top_n,
        seed=seed,
        max_iterations=max_iterations,
    )
