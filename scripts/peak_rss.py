#!/usr/bin/env python3
"""Run ``python -m triage_miner.cli`` with the given arguments and report its
peak resident set size on stderr, so that a redirected stdout holds only the
CLI's own output. Exits with the CLI's status if it fails, else with 1 when
the peak passes the budget (Linux: ``ru_maxrss`` is in KiB).

Usage: python scripts/peak_rss.py BUDGET_MIB CLI_ARGUMENT...
e.g.   python scripts/peak_rss.py 42 run --input bugs.csv --output out
"""

import resource
import subprocess
import sys

if __name__ == "__main__":
    budget, arguments = float(sys.argv[1]), sys.argv[2:]
    status = subprocess.run([sys.executable, "-m", "triage_miner.cli", *arguments]).returncode
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"peak RSS {peak:.1f} MiB (budget {budget:g} MiB)", file=sys.stderr)
    sys.exit(status or peak > budget)
