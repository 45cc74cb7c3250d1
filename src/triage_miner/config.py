"""Pipeline configuration: one JSON file and optional flag overrides over
PipelineConfig's defaults, which are the paper's standard run."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Mapping

from .errors import ConfigError
from .ingest import LOGICAL_FIELDS


def default_column_map() -> dict[str, str]:
    return {name: name for name in LOGICAL_FIELDS}


@dataclass
class PipelineConfig:
    """Every setting of a run and its default, stated once: validation,
    config_used.json and the CLI flags all read these fields."""

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
        """The settings that determine the output, in field order; the paths are left out."""
        parameters = asdict(self)
        del parameters["input_path"], parameters["output_dir"]
        return parameters


def validate_config(raw_text: str, overrides: Mapping[str, object] | None = None) -> PipelineConfig:
    """Parse config JSON, apply overrides (overrides win; their None values
    and unknown keys are ignored), fill defaults and validate every field,
    reporting all violations at once."""
    data: dict[str, object] = {}
    if raw_text.strip():
        try:
            data = json.loads(raw_text)
        except json.JSONDecodeError as exc:
            raise ConfigError([f"config is not valid JSON: {exc}"]) from exc
        if not isinstance(data, dict):
            raise ConfigError(["config must be a JSON object"])
    values = asdict(PipelineConfig(input_path=""))
    violations = [f"unknown config key: {key}" for key in sorted(set(data) - set(values))]
    given = {**data, **{key: value for key, value in (overrides or {}).items() if value is not None}}
    values.update((key, value) for key, value in given.items() if key in values)

    for name in ("input_path", "output_dir"):
        if not isinstance(values[name], str) or not values[name]:
            violations.append(f"{name} must be a non-empty string")

    column_map = values["column_map"]
    if not isinstance(column_map, dict):
        violations.append("column_map must be an object of logical field -> header name")
    else:
        values["column_map"] = dict(column_map)
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

    for name in ("k", "min_support_count", "top_n", "max_iterations"):
        value = values[name]
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            violations.append(f"{name} must be a positive integer, got {value!r}")

    min_confidence = values["min_confidence"]
    if isinstance(min_confidence, bool) or not isinstance(min_confidence, (int, float)):
        violations.append(f"min_confidence must be a number in (0, 1], got {min_confidence!r}")
    elif not 0.0 < float(min_confidence) <= 1.0:
        violations.append(f"min_confidence must be in (0, 1], got {min_confidence!r}")

    seed = values["seed"]
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < 2**64:
        violations.append(f"seed must be an integer in [0, 2^64), got {seed!r}")

    if violations:
        raise ConfigError(violations)
    values["min_confidence"] = float(min_confidence)
    return PipelineConfig(**values)
