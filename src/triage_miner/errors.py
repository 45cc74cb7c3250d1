"""Error taxonomy. Every error carries the CLI exit code for its failure class:
1 = bad parameters/config, 2 = unreadable or invalid input, or unwritable
output, 3 = internal invariant violation.
"""

from __future__ import annotations


class TriageMinerError(Exception):
    exit_code = 3


class ConfigError(TriageMinerError):
    """Invalid configuration; collects every violation at once."""

    exit_code = 1

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))


class ParameterError(TriageMinerError):
    exit_code = 1


class InfeasibleKError(ParameterError):
    """Requested more clusters than there are distinct feature vectors."""


class InputError(TriageMinerError):
    exit_code = 2


class SchemaError(InputError):
    """A mapped column is missing from the CSV header."""


class DuplicateIdError(InputError):
    """The same bug_id appears on more than one row."""


class RowError(InputError):
    """A data row could not be read; message carries the line number."""


class UnknownCategoryError(InputError):
    """A label falls outside a fixed scale (severity/priority) at a line of the input."""


class ConsistencyError(TriageMinerError):
    """Cross-module invariant broken (index mismatch, table integrity)."""


class DuplicateRuleError(TriageMinerError):
    """Two rules share antecedent and consequent."""


class AuditError(ConsistencyError):
    """The pipeline's self-audit found an invariant violation in its own output."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
