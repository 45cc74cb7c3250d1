"""Command-line interface.

Subcommands: ``run`` (full pipeline), ``verify`` (run the pipeline and
diff its tables against brute-force oracles), ``synthesize`` (deterministic
synthetic datasets). Exit codes: 0 success, 1 bad parameters/config, 2
unreadable input or unwritable output, 3 internal invariant failure. Set
TRIAGE_MINER_LOG to control log verbosity.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import traceback
from pathlib import Path

from .config import validate_config
from .errors import InputError, ParameterError, TriageMinerError
from .pipeline import MAX_VERIFY_RULES, MAX_VERIFY_TRANSACTIONS, execute, run_pipeline, run_verify
from .synth import synthesize_rows, write_csv


def _setup_logging() -> None:
    level_name = os.environ.get("TRIAGE_MINER_LOG", "WARNING").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _add_pipeline_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", help="input CSV path")
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("--output", help="output directory for reports")
    parser.add_argument("--clusters", type=int, help="number of k-means clusters (default 5)")
    parser.add_argument("--min-support", type=int, help="minimum rule support count (default 3)")
    parser.add_argument(
        "--min-confidence", type=float, help="minimum rule confidence in (0,1] (default 0.10)"
    )
    parser.add_argument(
        "--top-assignees", type=int, help="rule consequents per cluster (default 5)"
    )
    parser.add_argument("--seed", type=int, help="clustering seed (default 0)")
    parser.add_argument("--max-iterations", type=int, help="k-means iteration cap (default 100)")


def _config_from_args(args: argparse.Namespace):
    raw = ""
    if args.config:
        try:
            raw = Path(args.config).read_text(encoding="utf-8")
        except OSError as exc:
            raise InputError(f"cannot read config {args.config!r}: {exc}") from exc
    overrides = {
        "input_path": args.input,
        "output_dir": args.output,
        "k": args.clusters,
        "min_support_count": args.min_support,
        "min_confidence": args.min_confidence,
        "top_n": args.top_assignees,
        "seed": args.seed,
        "max_iterations": args.max_iterations,
    }
    return validate_config(raw, overrides)


def _cmd_run(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    result = run_pipeline(config)
    total_rules = sum(outcome.partition.rule_count for outcome in result.outcomes)
    essential = sum(len(outcome.partition.essential) for outcome in result.outcomes)
    print(
        f"{len(result.bug_ids)} records -> {config.k} clusters ->"
        f" {total_rules} rules ({essential} essential,"
        f" {total_rules - essential} redundant); report in {config.output_dir}"
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    caps = {"--max-transactions": args.max_transactions, "--max-rules": args.max_rules}
    for flag, cap in caps.items():
        if cap < 0:
            raise ParameterError(f"{flag} must be >= 0, got {cap}")
    result = execute(_config_from_args(args))
    ok, lines = run_verify(
        result, max_transactions=args.max_transactions, max_rules=args.max_rules
    )
    for line in lines:
        print(line)
    if not ok:
        print("verification FAILED", file=sys.stderr)
        return 3
    print("verification passed")
    return 0


def _cmd_synthesize(args: argparse.Namespace) -> int:
    rows = synthesize_rows(
        rows=args.rows,
        components=args.components,
        operating_systems=args.operating_systems,
        assignees=args.assignees,
        skew=args.skew,
        seed=args.seed,
    )
    write_csv(Path(args.output), rows)
    print(f"wrote {len(rows)} rows to {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triage-miner",
        description=(
            "Cluster bug-report CSV exports and mine per-cluster assignee"
            " association rules, separating essential from redundant rules."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser("run", help="run the full pipeline")
    _add_pipeline_flags(run_parser)
    run_parser.set_defaults(handler=_cmd_run)

    verify_parser = subparsers.add_parser(
        "verify", help="cross-check mining against brute-force oracles"
    )
    _add_pipeline_flags(verify_parser)
    verify_parser.add_argument(
        "--max-transactions",
        type=int,
        default=MAX_VERIFY_TRANSACTIONS,
        help="skip the itemset oracle for clusters above this size",
    )
    verify_parser.add_argument(
        "--max-rules",
        type=int,
        default=MAX_VERIFY_RULES,
        help="skip the redundancy oracle for rule sets above this size",
    )
    verify_parser.set_defaults(handler=_cmd_verify)

    synth_parser = subparsers.add_parser(
        "synthesize", help="generate a deterministic synthetic dataset"
    )
    synth_parser.add_argument("--output", required=True, help="CSV path to write")
    synth_parser.add_argument("--rows", type=int, default=500)
    synth_parser.add_argument("--components", type=int, default=12)
    synth_parser.add_argument("--operating-systems", type=int, default=8)
    synth_parser.add_argument("--assignees", type=int, default=15)
    synth_parser.add_argument("--skew", type=float, default=1.0)
    synth_parser.add_argument("--seed", type=int, default=0)
    synth_parser.set_defaults(handler=_cmd_synthesize)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _setup_logging()
    try:
        return args.handler(args)
    except TriageMinerError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code
    except Exception:  # unexpected -> internal failure
        traceback.print_exc()
        return 3


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
