#!/usr/bin/env python3
"""Regenerate the golden report tree used by the byte-for-byte tests.

Runs the pipeline on the bundled sample once, checks that run against the
brute-force oracles (as ``triage-miner verify`` does), and only then writes
that same result. The run keeps no itemset table: verify mines each cluster
again, checks that table against the itemset oracle and checks that the
run's kept rule table is exactly what it yields, so the golden rules are the
ones whose itemsets were verified. Usage: python scripts/refresh_golden.py
"""

import sys
from pathlib import Path

from triage_miner.config import PipelineConfig
from triage_miner.pipeline import execute, run_verify, write_outputs

REPO_ROOT = Path(__file__).resolve().parent.parent
SAMPLE = REPO_ROOT / "data" / "sample_bugs.csv"
GOLDEN = REPO_ROOT / "tests" / "golden" / "sample_report"

if __name__ == "__main__":
    result = execute(PipelineConfig(input_path=str(SAMPLE), output_dir=str(GOLDEN)))
    ok, lines = run_verify(result)
    for line in lines:
        print(line)
    if not ok:
        print("refusing to refresh golden files: oracle verification failed", file=sys.stderr)
        sys.exit(3)
    write_outputs(result)
    print(f"golden report refreshed at {GOLDEN}")
