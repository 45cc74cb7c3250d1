"""Deterministic synthetic bug-report datasets.

Real triage data has skewed categorical marginals and a strong
component->assignee affinity (module owners fix their module's bugs); the
generator reproduces both so mined rule sets are non-trivial. Everything is
driven by one seed, so a (seed, shape) pair always yields the same CSV.
"""

from __future__ import annotations

import csv
import random
from bisect import bisect
from itertools import accumulate
from pathlib import Path
from typing import Callable, Sequence

from .errors import InputError, ParameterError
from .ingest import LOGICAL_FIELDS, PRIORITY_LABELS, SEVERITY_LABELS

# Marginal weights loosely shaped like a public tracker: most bugs are
# normal severity / default priority.
_SEVERITY_WEIGHTS = (2, 6, 10, 55, 12, 8, 7)
_PRIORITY_WEIGHTS = (8, 14, 60, 10, 8)

_OS_NAMES = (
    "All",
    "Windows",
    "Linux",
    "macOS",
    "Android",
    "Unspecified",
    "FreeBSD",
    "Solaris",
    "iOS",
    "ChromeOS",
)

_COMPONENT_NAMES = (
    "General",
    "User Interface",
    "Build Config",
    "Backend",
    "Sync",
    "Preferences",
    "Networking",
    "Documentation",
    "Installer",
    "Security",
    "Printing",
    "Bookmarks",
)

_ASSIGNEE_NAMES = (
    "Ada Riley",
    "Ben Okafor",
    "Carla Jensen",
    "Deepak Rao",
    "Elif Kaya",
    "Frank Moreau",
    "Grace Lindqvist",
    "Hiro Tanaka",
    "Irene Sousa",
    "Jamal Carter",
    "Katya Petrova",
    "Liam Byrne",
    "Mona Haddad",
    "Nils Berg",
    "Olga Marsh",
)


def _category_names(base: tuple[str, ...], count: int, generic: str) -> list[str]:
    names = list(base[:count])
    names += [f"{generic} {i}" for i in range(len(names) + 1, count + 1)]
    return names


def _zipf_weights(count: int, skew: float) -> list[float]:
    return [1.0 / (rank**skew) for rank in range(1, count + 1)]


def _weighted_draw(rng: random.Random, weights: Sequence[float]) -> Callable[[], int]:
    """An index drawn with chance proportional to its weight from one ``rng.random()``,
    as ``Random.choices`` draws it; Python fixes only ``random()``'s sequence per seed."""
    cumulative = list(accumulate(weights))
    return lambda: bisect(cumulative, rng.random() * cumulative[-1], 0, len(cumulative) - 1)


def synthesize_rows(
    rows: int,
    components: int = 12,
    operating_systems: int = 8,
    assignees: int = 15,
    skew: float = 1.0,
    seed: int = 0,
) -> list[tuple[str, ...]]:
    """Generate ``rows`` bug rows with skewed, correlated attributes, each a
    tuple of cells in LOGICAL_FIELDS order.

    Each component has a primary owner who takes ~65% of its bugs and a
    (component, os)-specific secondary owner for another ~15%; the rest go
    to a skew-weighted random assignee.
    """
    if rows < 1:
        raise ParameterError(f"rows must be positive, got {rows}")
    for name, value in (
        ("components", components),
        ("operating_systems", operating_systems),
        ("assignees", assignees),
    ):
        if value < 1:
            raise ParameterError(f"{name} must be positive, got {value}")
    if not skew >= 0:  # NaN too
        raise ParameterError(f"skew must be non-negative, got {skew}")
    if seed < 0:  # random.Random would take -seed's absolute value, aliasing seed
        raise ParameterError(f"seed must be non-negative, got {seed}")

    rng = random.Random(seed)
    component_names = _category_names(_COMPONENT_NAMES, components, "Component")
    os_names = _category_names(_OS_NAMES, operating_systems, "OS")
    assignee_names = _category_names(_ASSIGNEE_NAMES, assignees, "Developer")
    draw_severity = _weighted_draw(rng, _SEVERITY_WEIGHTS)
    draw_priority = _weighted_draw(rng, _PRIORITY_WEIGHTS)
    draw_component = _weighted_draw(rng, _zipf_weights(components, skew))
    draw_os = _weighted_draw(rng, _zipf_weights(operating_systems, skew))
    draw_assignee = _weighted_draw(rng, _zipf_weights(assignees, skew))

    out = []
    for i in range(rows):
        severity = SEVERITY_LABELS[draw_severity()]
        priority = PRIORITY_LABELS[draw_priority()]
        component_idx = draw_component()
        os_idx = draw_os()
        draw = rng.random()
        if draw < 0.65:
            assignee_idx = (component_idx * 7 + 3) % assignees
        elif draw < 0.80:
            assignee_idx = (component_idx * 5 + os_idx * 3 + 1) % assignees
        else:
            assignee_idx = draw_assignee()
        out.append(
            (
                f"BUG-{i + 1:06d}",
                severity,
                priority,
                component_names[component_idx],
                os_names[os_idx],
                assignee_names[assignee_idx],
            )
        )
    return out


def write_csv(path: Path, rows: list[tuple[str, ...]]) -> None:
    """Write rows with the logical field names as the header."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(LOGICAL_FIELDS)
            writer.writerows(rows)
    except OSError as exc:
        raise InputError(f"cannot write {str(path)!r}: {exc}") from exc
