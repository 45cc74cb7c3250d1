"""Bug-assignee rule mining: encode bug-report exports, cluster them, mine
class association rules per cluster, and split essential from redundant
rules. The public API lives in the submodules (``triage_miner.pipeline``,
``triage_miner.cli`` and so on)."""

__version__ = "0.1.0"
