import argparse
import errno
import hashlib
import inspect
import io
import json
import os
import re
import subprocess
import sys
from dataclasses import fields

import pytest

from conftest import REPO_ROOT, tree_bytes
from triage_miner import cli, pipeline
from triage_miner.config import PipelineConfig, default_column_map, validate_config
from triage_miner.errors import AuditError, ConfigError
from triage_miner.ingest import Attribute
from triage_miner.pipeline import run_verify
from triage_miner.synth import synthesize_rows, write_csv


def _report_manifest(tmp_path, rows, *flags) -> dict[str, str]:
    """Relative path -> sha256 of every file ``run`` writes for ``rows``."""
    path, out = tmp_path / "input.csv", tmp_path / "out"
    write_csv(path, rows)
    assert cli.main(["run", "--input", str(path), "--output", str(out), *flags]) == 0
    return {
        file.relative_to(out).as_posix(): hashlib.sha256(file.read_bytes()).hexdigest()
        for file in sorted(out.rglob("*"))
        if file.is_file()
    }


class TestValidateConfig:
    def test_empty_config_plus_input_gives_defaults(self):
        config = validate_config("", {"input_path": "bugs.csv"})
        assert config.k == 5
        assert config.min_support_count == 3
        assert config.min_confidence == 0.10
        assert config.top_n == 5
        assert config.seed == 0
        assert config.max_iterations == 100
        assert config.column_map["operating_system"] == "operating_system"

    def test_out_of_range_confidence_names_the_field(self):
        with pytest.raises(ConfigError, match="min_confidence"):
            validate_config("", {"input_path": "x.csv", "min_confidence": 1.5})

    def test_zero_support_rejected(self):
        with pytest.raises(ConfigError, match="min_support_count"):
            validate_config("", {"input_path": "x.csv", "min_support_count": 0})

    def test_all_violations_reported_at_once(self):
        with pytest.raises(ConfigError) as err:
            validate_config(
                json.dumps({"min_confidence": 0.0, "k": -1, "mystery": True}),
                {"input_path": "x.csv"},
            )
        text = str(err.value)
        assert "min_confidence" in text
        assert "k" in text
        assert "mystery" in text

    def test_flags_override_file(self):
        raw = json.dumps({"input_path": "a.csv", "k": 3, "seed": 9})
        config = validate_config(raw, {"k": 7})
        assert config.k == 7
        assert config.seed == 9
        assert config.input_path == "a.csv"

    def test_column_map_must_cover_all_fields(self):
        raw = json.dumps({"input_path": "a.csv", "column_map": {"bug_id": "id"}})
        with pytest.raises(ConfigError, match="severity"):
            validate_config(raw)

    def test_two_fields_mapped_to_one_column_name_both(self):
        column_map = dict(default_column_map(), operating_system="component")
        raw = json.dumps({"input_path": "a.csv", "column_map": column_map})
        with pytest.raises(ConfigError, match="component and column_map.operating_system"):
            validate_config(raw)

    def test_invalid_json_is_a_config_error(self):
        with pytest.raises(ConfigError, match="JSON"):
            validate_config("{not json", {"input_path": "x"})

    def test_missing_input_path_is_a_violation(self):
        with pytest.raises(ConfigError, match="input_path"):
            validate_config("")

    def test_seed_range(self):
        with pytest.raises(ConfigError, match="seed"):
            validate_config("", {"input_path": "x.csv", "seed": -1})

    def test_every_field_invalid_reports_each_violation_in_order(self):
        raw = json.dumps(
            {
                "input_path": 7,
                "output_dir": "",
                "column_map": [],
                "k": 0,
                "min_support_count": -3,
                "min_confidence": 1.5,
                "top_n": "5",
                "seed": 2**64,
                "max_iterations": True,
                "mystery": 1,
                "another": None,
            }
        )
        with pytest.raises(ConfigError) as err:
            validate_config(raw)
        assert str(err.value) == (
            "unknown config key: another; unknown config key: mystery;"
            " input_path must be a non-empty string; output_dir must be a non-empty string;"
            " column_map must be an object of logical field -> header name;"
            " k must be a positive integer, got 0;"
            " min_support_count must be a positive integer, got -3;"
            " top_n must be a positive integer, got '5';"
            " max_iterations must be a positive integer, got True;"
            " min_confidence must be in (0, 1], got 1.5;"
            " seed must be an integer in [0, 2^64), got 18446744073709551616"
        )

    def test_every_column_map_violation_in_order(self):
        column_map = {
            "bug_id": "", "severity": "sev", "priority": "sev", "component": 3,
            "extra": "x", "zzz": "y",
        }
        raw = json.dumps(
            {"input_path": "a.csv", "column_map": column_map, "min_confidence": "high", "seed": 1.5}
        )
        with pytest.raises(ConfigError) as err:
            validate_config(raw)
        assert str(err.value) == (
            "column_map.bug_id must be a non-empty header name;"
            " column_map.severity and column_map.priority both name column 'sev';"
            " column_map.component must be a non-empty header name;"
            " column_map missing logical field: operating_system;"
            " column_map missing logical field: assignee;"
            " column_map has unknown logical field: extra;"
            " column_map has unknown logical field: zzz;"
            " min_confidence must be a number in (0, 1], got 'high';"
            " seed must be an integer in [0, 2^64), got 1.5"
        )

    def test_integer_confidence_becomes_a_float(self):
        config = validate_config("", {"input_path": "x.csv", "min_confidence": 1})
        assert type(config.min_confidence) is float and config.min_confidence == 1.0

    def test_analysis_parameters_are_the_fields_but_the_paths_in_field_order(self):
        config = PipelineConfig(input_path="x.csv", output_dir="out", k=4, seed=9)
        names = [f.name for f in fields(PipelineConfig) if f.name not in ("input_path", "output_dir")]
        parameters = config.analysis_parameters()
        assert list(parameters) == names
        assert parameters == {name: getattr(config, name) for name in names}
        parameters["column_map"]["bug_id"] = "id"  # a copy: the config is unchanged
        assert config.column_map == default_column_map()


# each pipeline flag that sets a PipelineConfig field with a default
SETTING_FLAGS = {
    "--output": ("output_dir", "elsewhere"),
    "--clusters": ("k", 7),
    "--min-support": ("min_support_count", 2),
    "--min-confidence": ("min_confidence", 0.5),
    "--top-assignees": ("top_n", 9),
    "--seed": ("seed", 11),
    "--max-iterations": ("max_iterations", 20),
}


class TestPipelineFlags:
    @pytest.mark.parametrize("command", ["run", "verify"])
    @pytest.mark.parametrize("flag", sorted(SETTING_FLAGS))
    def test_flag_sets_its_field(self, command, flag):
        name, value = SETTING_FLAGS[flag]
        args = cli.build_parser().parse_args([command, "--input", "x.csv", flag, str(value)])
        config = cli._config_from_args(args)
        assert getattr(config, name) == value
        assert config.input_path == "x.csv"
        untouched = PipelineConfig(input_path="x.csv")
        for other in fields(PipelineConfig):
            if other.name not in (name, "input_path"):
                assert getattr(config, other.name) == getattr(untouched, other.name)

    @pytest.mark.parametrize("flag", sorted(set(SETTING_FLAGS) - {"--output"}))
    def test_help_shows_the_fields_default(self, flag):
        parser = argparse.ArgumentParser()
        cli._add_pipeline_flags(parser)
        (action,) = [a for a in parser._actions if flag in a.option_strings]
        default = next(f.default for f in fields(PipelineConfig) if f.name == SETTING_FLAGS[flag][0])
        shown = re.search(r"\(default ([^)]+)\)", action.help)
        assert shown is not None, action.help
        assert type(default)(shown.group(1)) == default


class TestRunCommand:
    def test_run_writes_the_full_layout(self, sample_csv, tmp_path):
        out = tmp_path / "report_dir"
        code = cli.main(["run", "--input", str(sample_csv), "--output", str(out)])
        assert code == 0
        for expected in (
            "config_used.json",
            "codebooks.json",
            "clusters.json",
            "report/summary.json",
            "report/rules.csv",
            "report/figures/cluster_sizes.csv",
            "report/figures/essential_redundant.csv",
            "report/figures/rule_lengths.csv",
        ):
            assert (out / expected).is_file(), expected
        summary = json.loads((out / "report" / "summary.json").read_text())
        for cluster in summary["clusters"]:
            assert (out / "report" / f"cluster_{cluster['cluster']}.txt").is_file()
        assert summary["records"] == 360

    def test_rerun_is_byte_identical(self, sample_csv, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        assert cli.main(["run", "--input", str(sample_csv), "--output", str(first)]) == 0
        assert cli.main(["run", "--input", str(sample_csv), "--output", str(second)]) == 0
        assert tree_bytes(first) == tree_bytes(second)

    def test_matches_checked_in_golden_report(self, sample_csv, tmp_path, golden_report_dir):
        out = tmp_path / "fresh"
        assert cli.main(["run", "--input", str(sample_csv), "--output", str(out)]) == 0
        assert tree_bytes(out) == tree_bytes(golden_report_dir)

    def test_output_can_be_overwritten(self, sample_csv, tmp_path):
        out = tmp_path / "twice"
        assert cli.main(["run", "--input", str(sample_csv), "--output", str(out)]) == 0
        before = tree_bytes(out)
        assert cli.main(["run", "--input", str(sample_csv), "--output", str(out)]) == 0
        assert tree_bytes(out) == before
        assert [path.name for path in tmp_path.iterdir()] == ["twice"]

    def test_refuses_to_replace_a_directory_that_is_not_a_report(
        self, sample_csv, tmp_path, capsys
    ):
        out = tmp_path / "mine"
        out.mkdir()
        (out / "notes.txt").write_text("keep me\n")
        code = cli.main(["run", "--input", str(sample_csv), "--output", str(out)])
        assert code == 1
        assert "not a triage-miner report" in capsys.readouterr().err
        assert tree_bytes(out) == {"notes.txt": b"keep me\n"}
        assert [path.name for path in tmp_path.iterdir()] == ["mine"]

    def test_refuses_to_replace_a_file(self, sample_csv, tmp_path):
        out = tmp_path / "report.txt"
        out.write_text("keep me\n")
        assert cli.main(["run", "--input", str(sample_csv), "--output", str(out)]) == 1
        assert out.read_text() == "keep me\n"

    @pytest.mark.parametrize("foreign", ["bugs.csv", "report/my_notes.txt"])
    def test_refuses_to_replace_a_report_holding_a_foreign_file(
        self, sample_csv, tmp_path, capsys, foreign
    ):
        out = tmp_path / "out"
        assert cli.main(["run", "--input", str(sample_csv), "--output", str(out)]) == 0
        # a copy of the input (the run then reads it from there) or a note
        (out / foreign).write_bytes(sample_csv.read_bytes())
        before = tree_bytes(out)
        capsys.readouterr()
        code = cli.main(["run", "--input", str(out / foreign), "--output", str(out)])
        assert code == 1
        assert repr(str(out / foreign)) in capsys.readouterr().err
        assert tree_bytes(out) == before
        assert [path.name for path in tmp_path.iterdir()] == ["out"]

    def test_a_smaller_k_replaces_every_cluster_file(self, sample_csv, tmp_path):
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        for flags in (["--clusters", "5"], ["--clusters", "3"]):
            run = ["run", "--input", str(sample_csv), "--output", str(out), *flags]
            assert cli.main(run) == 0
        assert cli.main(
            ["run", "--input", str(sample_csv), "--output", str(fresh), "--clusters", "3"]
        ) == 0
        assert tree_bytes(out) == tree_bytes(fresh)
        assert not (out / "report" / "cluster_3.txt").exists()
        assert not (out / "report" / "cluster_4.txt").exists()

    def test_output_under_a_regular_file_exits_2_and_names_the_path(
        self, sample_csv, tmp_path, capsys
    ):
        blocker = tmp_path / "afile"
        blocker.write_text("keep me\n")
        out = blocker / "report"
        assert cli.main(["run", "--input", str(sample_csv), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write output {str(out)!r}")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert blocker.read_text() == "keep me\n"
        assert [path.name for path in tmp_path.iterdir()] == ["afile"]

    def test_utf8_bom_gives_the_golden_report(self, sample_csv, tmp_path, golden_report_dir):
        bom_csv = tmp_path / "bom.csv"
        bom_csv.write_bytes(b"\xef\xbb\xbf" + sample_csv.read_bytes())
        out = tmp_path / "from_bom"
        assert cli.main(["run", "--input", str(bom_csv), "--output", str(out)]) == 0
        fresh, golden = tree_bytes(out), tree_bytes(golden_report_dir)
        fresh_config = json.loads(fresh.pop("config_used.json"))
        golden_config = json.loads(golden.pop("config_used.json"))
        assert fresh == golden
        fresh_config.pop("input_sha256")
        golden_config.pop("input_sha256")
        assert fresh_config == golden_config

    def test_missing_input_exits_2_and_names_the_path(self, tmp_path, capsys):
        out = tmp_path / "never"
        code = cli.main(["run", "--input", str(tmp_path / "nope.csv"), "--output", str(out)])
        assert code == 2
        assert "nope.csv" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "variant",
        [
            lambda data: data,
            lambda data: b"\xef\xbb\xbf" + data,
            lambda data: data.replace(b"\n", b"\r\n"),
            lambda data: data.rstrip(b"\n"),
            lambda data: data.replace(b",Build Config,", b',"Build\nConfig",'),
        ],
        ids=["plain", "bom", "crlf", "no-final-newline", "quoted-newline"],
    )
    def test_input_sha256_is_the_digest_of_the_input_bytes(self, sample_csv, tmp_path, variant):
        path, out = tmp_path / "input.csv", tmp_path / "out"
        path.write_bytes(variant(sample_csv.read_bytes()))
        assert cli.main(["run", "--input", str(path), "--output", str(out)]) == 0
        used = json.loads((out / "config_used.json").read_text())
        assert used["input_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_a_read_error_halfway_exits_2_and_names_the_input(
        self, sample_csv, tmp_path, monkeypatch, capsys
    ):
        limit = sample_csv.stat().st_size // 2

        class FailingHalfway(io.RawIOBase):
            """The input in 1 KiB reads, failing once half of it has been read."""

            def __init__(self, raw):
                self.raw, self.done = raw, 0

            def readable(self):
                return True

            def readinto(self, buffer):
                if self.done >= limit:
                    raise OSError(errno.EIO, os.strerror(errno.EIO))
                count = self.raw.readinto(memoryview(buffer)[:1024])
                self.done += count
                return count

            def close(self):
                self.raw.close()
                super().close()

        monkeypatch.setattr(
            pipeline, "open", lambda *args, **kwargs: FailingHalfway(open(*args, **kwargs)),
            raising=False,
        )
        out = tmp_path / "x"
        assert cli.main(["run", "--input", str(sample_csv), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read input {str(sample_csv)!r}")
        assert os.strerror(errno.EIO) in err and "Traceback" not in err
        assert not out.exists()

    def test_run_imports_neither_numpy_ma_nor_numpy_random(self, sample_csv, tmp_path):
        # numpy.ma costs milliseconds to import and the pipeline needs none of
        # it; numpy.random costs about 7 MiB of RSS, and k-means++ draws
        # without it. A numpy that loads numpy.random on import is not checked.
        script = (
            "import sys, numpy; eager = 'numpy.random' in sys.modules;"
            " from triage_miner import cli;"
            f" assert cli.main(['run', '--input', {str(sample_csv)!r},"
            f" '--output', {str(tmp_path / 'out')!r}]) == 0;"
            " print('numpy.ma' in sys.modules, 'numpy.random' in sys.modules, eager)"
        )
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        numpy_ma, numpy_random, eager = done.stdout.splitlines()[-1].split()
        assert numpy_ma == "False"
        assert numpy_random == eager

    def test_openblas_runs_one_thread_unless_the_caller_set_it(self):
        # importing the CLI caps OpenBLAS's pool before numpy loads, and keeps
        # a value the caller already set
        script = (
            "import os, triage_miner.cli; print(os.environ['OPENBLAS_NUM_THREADS']);"
            " status = '/proc/self/status';"
            " print(os.path.exists(status) and next(line.split()[1] for line in open(status)"
            " if line.startswith('Threads:')))"
        )
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        for preset, expected in ((None, "1"), ("3", "3")):
            if preset is not None:
                env["OPENBLAS_NUM_THREADS"] = preset
            done = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
            )
            value, threads = done.stdout.split()
            assert value == expected
            if preset is None and threads != "False":  # /proc/self/status exists
                assert threads == "1"

    def test_a_code_outside_its_codebook_exits_3(self, sample_csv, tmp_path, monkeypatch, capsys):
        # ingest hands out no such code, so meeting one is an internal fault
        read = pipeline.read_bug_csv

        def short_assignee_book(source, column_map):
            bug_ids, codebooks, rows, index = read(source, column_map)
            codebooks[Attribute.ASSIGNEE] = codebooks[Attribute.ASSIGNEE][:1]
            return bug_ids, codebooks, rows, index

        monkeypatch.setattr(pipeline, "read_bug_csv", short_assignee_book)
        out = tmp_path / "x"
        assert cli.main(["run", "--input", str(sample_csv), "--output", str(out)]) == 3
        assert "outside its codebook" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_config_exits_1(self, sample_csv, tmp_path):
        code = cli.main(
            ["run", "--input", str(sample_csv), "--output", str(tmp_path / "x"),
             "--min-confidence", "7"]
        )
        assert code == 1

    def test_one_column_mapped_twice_exits_1(self, sample_csv, tmp_path, capsys):
        column_map = dict(default_column_map(), operating_system="component")
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps({"input_path": str(sample_csv), "column_map": column_map})
        )
        out = tmp_path / "x"
        assert cli.main(["run", "--config", str(config_path), "--output", str(out)]) == 1
        assert "column_map.component and column_map.operating_system" in capsys.readouterr().err
        assert not out.exists()

    def test_first_bad_row_in_file_order_exits_2_and_names_its_line(self, tmp_path, capsys):
        # line 2 has an unknown severity, line 3 repeats line 2's bug id
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "bug_id,severity,priority,component,operating_system,assignee\n"
            "7,S1,P3,General,Linux,a\n"
            "7,normal,P3,General,Linux,b\n"
        )
        out = tmp_path / "x"
        assert cli.main(["run", "--input", str(bad), "--output", str(out)]) == 2
        assert "unknown Severity label: 'S1' at line 2" in capsys.readouterr().err
        assert not out.exists()

    def test_infeasible_k_exits_nonzero_and_leaves_no_output(self, sample_csv, tmp_path, capsys):
        out = tmp_path / "partial"
        code = cli.main(
            ["run", "--input", str(sample_csv), "--output", str(out), "--clusters", "99999"]
        )
        assert code == 1
        assert "99999" in capsys.readouterr().err
        assert not out.exists()

    def test_audit_failure_exits_3(self, sample_csv, tmp_path, monkeypatch):
        def boom(config):
            raise AuditError(["fabricated violation"])

        monkeypatch.setattr(cli, "run_pipeline", boom)
        code = cli.main(
            ["run", "--input", str(sample_csv), "--output", str(tmp_path / "x")]
        )
        assert code == 3

    def test_config_file_is_honored(self, sample_csv, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps({"input_path": str(sample_csv), "k": 4, "top_n": 2})
        )
        out = tmp_path / "from_config"
        code = cli.main(["run", "--config", str(config_path), "--output", str(out)])
        assert code == 0
        used = json.loads((out / "config_used.json").read_text())
        assert used["k"] == 4
        assert used["top_n"] == 2
        assert len(json.loads((out / "report" / "summary.json").read_text())["clusters"]) == 4

    def test_config_used_has_no_paths(self, sample_csv, tmp_path):
        out = tmp_path / "r"
        assert cli.main(["run", "--input", str(sample_csv), "--output", str(out)]) == 0
        used = json.loads((out / "config_used.json").read_text())
        assert set(used) == {
            "column_map", "k", "min_support_count", "min_confidence",
            "top_n", "seed", "max_iterations", "input_sha256",
        }

    def test_config_naming_parallelism_exits_1(self, sample_csv, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"input_path": str(sample_csv), "parallelism": 5}))
        code = cli.main(["run", "--config", str(config_path), "--output", str(tmp_path / "x")])
        assert code == 1
        assert "unknown config key: parallelism" in capsys.readouterr().err

    def test_figure_csvs_are_consistent_with_summary(self, sample_csv, tmp_path):
        out = tmp_path / "figures"
        assert cli.main(["run", "--input", str(sample_csv), "--output", str(out)]) == 0
        summary = json.loads((out / "report" / "summary.json").read_text())
        sizes_csv = (out / "report" / "figures" / "cluster_sizes.csv").read_text().splitlines()
        total = sum(int(line.split(",")[1]) for line in sizes_csv[1:])
        assert total == summary["records"]
        er_csv = (out / "report" / "figures" / "essential_redundant.csv").read_text().splitlines()
        essential = sum(int(line.split(",")[1]) for line in er_csv[1:])
        redundant = sum(int(line.split(",")[2]) for line in er_csv[1:])
        assert essential == summary["totals"]["essential"]
        assert redundant == summary["totals"]["redundant"]


class TestVerifyCommand:
    def test_verify_passes_on_the_sample(self, sample_csv, capsys):
        code = cli.main(["verify", "--input", str(sample_csv)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines() == [
            "cluster 0: itemsets OK (91 frequent itemsets)",
            "cluster 0: redundancy OK (37 rules, 21 essential)",
            "cluster 1: itemsets OK (159 frequent itemsets)",
            "cluster 1: redundancy OK (62 rules, 41 essential)",
            "cluster 2: itemsets OK (374 frequent itemsets)",
            "cluster 2: redundancy OK (158 rules, 81 essential)",
            "cluster 3: itemsets OK (150 frequent itemsets)",
            "cluster 3: redundancy OK (63 rules, 41 essential)",
            "cluster 4: itemsets OK (160 frequent itemsets)",
            "cluster 4: redundancy OK (65 rules, 47 essential)",
            "verification passed",
        ]

    def test_caps_skip_large_clusters(self, sample_csv, capsys):
        code = cli.main(["verify", "--input", str(sample_csv), "--max-transactions", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "skipped itemset check" in out

    def test_no_cap_flag_checks_a_cluster_above_2000_rows(self, tmp_path, capsys):
        path = tmp_path / "bugs.csv"
        write_csv(path, synthesize_rows(rows=2100, components=40, assignees=60, seed=11))
        code = cli.main(["verify", "--input", str(path), "--clusters", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "cluster 0: itemsets OK" in out and "cluster 0: redundancy OK" in out
        assert "skipped" not in out

    def test_cap_defaults_are_run_verifys(self):
        args = cli.build_parser().parse_args(["verify", "--input", "bugs.csv"])
        defaults = inspect.signature(run_verify).parameters
        assert args.max_transactions == defaults["max_transactions"].default
        assert args.max_rules == defaults["max_rules"].default

    @pytest.mark.parametrize("flag,cap", [("--max-transactions", "-5"), ("--max-rules", "-1")])
    def test_negative_cap_exits_1_before_the_pipeline(
        self, sample_csv, capsys, monkeypatch, flag, cap
    ):
        # a negative cap would skip every cluster and still print "passed"
        monkeypatch.setattr(cli, "execute", lambda config: pytest.fail("the pipeline ran"))
        code = cli.main(["verify", "--input", str(sample_csv), flag, cap])
        captured = capsys.readouterr()
        assert code == 1
        assert f"{flag} must be >= 0, got {cap}" in captured.err
        assert "verification passed" not in captured.out


class TestSynthesizeCommand:
    def test_same_seed_same_bytes(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert cli.main(["synthesize", "--output", str(a), "--rows", "200", "--seed", "5"]) == 0
        assert cli.main(["synthesize", "--output", str(b), "--rows", "200", "--seed", "5"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_different_bytes(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert cli.main(["synthesize", "--output", str(a), "--rows", "200", "--seed", "5"]) == 0
        assert cli.main(["synthesize", "--output", str(b), "--rows", "200", "--seed", "6"]) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_nan_skew_exits_1(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = cli.main(["synthesize", "--output", str(out), "--skew", "nan"])
        assert code == 1
        assert "skew must be non-negative, got nan" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_exits_1(self, tmp_path, capsys):
        """random.Random takes a seed's absolute value, so -7 would write
        the CSV of seed 7; a negative seed is refused instead."""
        out = tmp_path / "x.csv"
        code = cli.main(["synthesize", "--output", str(out), "--rows", "50", "--seed", "-7"])
        assert code == 1
        assert "seed must be non-negative, got -7" in capsys.readouterr().err
        assert not out.exists()

    def test_output_under_a_regular_file_exits_2_and_names_the_path(self, tmp_path, capsys):
        blocker = tmp_path / "afile"
        blocker.write_text("keep me\n")
        out = blocker / "x.csv"
        assert cli.main(["synthesize", "--output", str(out), "--rows", "10"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {str(out)!r}")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert blocker.read_text() == "keep me\n"

    def test_synthesized_data_runs_through_the_pipeline(self, tmp_path):
        csv_path = tmp_path / "synth.csv"
        assert cli.main(["synthesize", "--output", str(csv_path), "--rows", "300"]) == 0
        out = tmp_path / "out"
        assert cli.main(["run", "--input", str(csv_path), "--output", str(out)]) == 0
        summary = json.loads((out / "report" / "summary.json").read_text())
        assert summary["records"] == 300

    def test_rule_dense_5k_input_is_pinned(self, tmp_path):
        # the benchmark's rule-dense-5k input: the generator and the writer
        # must keep producing these bytes
        path = tmp_path / "dense.csv"
        write_csv(path, synthesize_rows(5000, 40, 8, 60, 1.0, 11))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "ac67f8bf695fbe0320ee4fae754fe92af441f387d51a92a0e2bf7773f787c7f1"
        )

    def test_benchmark_shape_20k_report_is_pinned(self, tmp_path):
        # the sha256 of every file of the report for a 20k benchmark-shape
        # input: the fast counting and k-means paths must write these bytes
        manifest = _report_manifest(tmp_path, synthesize_rows(20000, 40, 8, 60, 1.0, 11))
        assert manifest == {
            "clusters.json":
                "b6eec67676fa030634e17c3664218db53a387404d4b51382f9c853030b1ba89c",
            "codebooks.json":
                "db276c492cf56d38a94a4831bb819dffa9b76cbb3e6a9a0518dadd2fcc2af92f",
            "config_used.json":
                "885dce124d780fe3a26a2f891cda02614bc90e84a063b8e942285a8fa615cc08",
            "report/cluster_0.txt":
                "a4f58ff162f8fec6afc73b31816d91f2d42d825629021ba5b2ff54b9e820e0f6",
            "report/cluster_1.txt":
                "c5e5ae5d5ebc6dbb0b056b57c6500a1107821630d665f0795d4eb9acee27c16c",
            "report/cluster_2.txt":
                "1dace28f45b55c578dcf71d10bd73d99629a55a0a2e1ed1571ff7dc26b46968d",
            "report/cluster_3.txt":
                "963bf929142f604ecffd0cddd24442ef1f476b8ad53f56853bedbf1c5ec965d6",
            "report/cluster_4.txt":
                "3db289a31ef27ae1cd977950f9c23e0bd051371a5998237e5f4c1642981588f5",
            "report/figures/cluster_sizes.csv":
                "b954e4e98c04dd309d48524855d07d1b5b6c8d31e86aa19bc6c0006b8e55663f",
            "report/figures/essential_redundant.csv":
                "925c52bb171ddb23297ef1d8c070397f4698a48b8ac825dcd207e717539407cb",
            "report/figures/rule_lengths.csv":
                "dc2a17ff2dd7aebd4a737994f7522cbbe3f394880f2a0b868ba18f6422487021",
            "report/rules.csv":
                "f4285747b2e36eb168510cfb40b0cefe1184bc80ea9aec38501d2f8b5f3cf983",
            "report/summary.json":
                "48fcd0be8689aed981a7aa64e2cab991842cfba979d87756934a945332377d3a",
        }

    def test_rule_dense_5k_report_is_pinned(self, tmp_path):
        # the benchmark's rule-dense-5k run (22,093 rules, 7,884 redundant):
        # the rule table's ordering, elimination and rendering must write
        # these bytes
        manifest = _report_manifest(
            tmp_path,
            synthesize_rows(5000, 40, 8, 60, 1.0, 11),
            "--min-support", "1", "--min-confidence", "0.01", "--top-assignees", "60",
        )
        assert manifest == {
            "clusters.json":
                "f3620167beaca124a33f06beee3f2706257df700dd6dcc566ea2f403a77a0404",
            "codebooks.json":
                "db276c492cf56d38a94a4831bb819dffa9b76cbb3e6a9a0518dadd2fcc2af92f",
            "config_used.json":
                "0c1b6bac00efd885de99aa15daa836cc3cafcc4a8e921bfc71f2ab8e4b1f2371",
            "report/cluster_0.txt":
                "cac1c46c75f66b1aba4debc1c5020c71b90a24f22e8d3166199b451682a4d5df",
            "report/cluster_1.txt":
                "b6b0fa929c9a24486b62c3dd1ee2d1e09cc15253283e19da9fa265c4d90f93c7",
            "report/cluster_2.txt":
                "01cf0d404df3678c70f66aa879ed4602c30f789fdf208af890a357cedf76ee47",
            "report/cluster_3.txt":
                "6bb8bbc9ef3d7a4104e347be3b2fecce1b8c7f94dc12a7ae9817409607ed01d4",
            "report/cluster_4.txt":
                "d672aa8696809d169c8856073c1873e6ed869099b207651d6cbd438a390eb48e",
            "report/figures/cluster_sizes.csv":
                "f9799ae8658d57cc270bcde712f1e37217231fd5b36ce6e14349458295d723f7",
            "report/figures/essential_redundant.csv":
                "07fde2adbc186a0f242e12ffaf84d542963aba6abeee824257dafdb585ff794b",
            "report/figures/rule_lengths.csv":
                "00495e66a0420e1ecc05ee8e2b4aaad71f3a4c12d6901c2d46c706bbd668c188",
            "report/rules.csv":
                "a016f7ba4a34e473bdcaa194da6c688f5236762bf290d08986e8b33db9512d6e",
            "report/summary.json":
                "e783cf5ddce9738003dc5c16c54fe10702f95164bda4b7e98b33f4e8d7c66d28",
        }

    def test_bad_row_count_exits_1(self, tmp_path):
        code = cli.main(["synthesize", "--output", str(tmp_path / "x.csv"), "--rows", "0"])
        assert code == 1
