"""Tests for the runcompss-style CLI."""

import json

import pytest

from repro.cli import build_parser, main
from repro.hpo.config_file import write_config_file

SMALL_CONFIG = {
    "optimizer": ["Adam", "SGD"],
    "num_epochs": [2, 4],
    "batch_size": [32],
}


@pytest.fixture
def config_path(tmp_path):
    return write_config_file(SMALL_CONFIG, tmp_path / "config.json")


class TestParser:
    def test_run_defaults(self, config_path):
        args = build_parser().parse_args(["run", str(config_path)])
        assert args.cluster == "local"
        assert args.algorithm == "grid"
        assert args.executor == "local"

    def test_all_schedulers_accepted(self, config_path):
        for s in ("fifo", "priority", "locality", "lpt"):
            args = build_parser().parse_args(
                ["run", str(config_path), "--scheduler", s]
            )
            assert args.scheduler == s

    def test_unknown_cluster_rejected(self, config_path):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", str(config_path), "--cluster", "summit"]
            )

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestKnobFlagErrors:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "c.json", "--poison-threshold", "0"],
             "RuntimeConfig.poison_threshold must be > 0, got 0"),
            (["run", "c.json", "--stage-epochs", "0"],
             "StudyRequest.stage_epochs must be >= 1, got 0"),
            (["submit", "root", "s1", "c.json", "--max-tenant-slots", "0"],
             "StudyRequest.max_tenant_slots must be > 0, got 0"),
        ],
    )
    def test_bad_value_exits_2_with_the_knob_message(
        self, argv, message, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {argv[-2]}: {message}" in err
        assert "Traceback" not in err


class TestRunCommand:
    def test_simulated_grid_with_artifacts(self, config_path, tmp_path, capsys):
        out_dir = tmp_path / "results"
        code = main(
            [
                "run", str(config_path),
                "--cluster", "mn4", "--nodes", "1",
                "--executor", "simulated",
                "--mock-objective",
                "--reserved-cores", "24",
                "--out-dir", str(out_dir),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "4/4 trials completed" in printed
        for artifact in (
            "study.json", "study.csv", "history.csv",
            "graph.dot", "trace.prv", "report.txt",
        ):
            assert (out_dir / artifact).exists(), artifact
        study = json.loads((out_dir / "study.json").read_text())
        assert len(study["trials"]) == 4

    def test_no_tracing_skips_prv(self, config_path, tmp_path):
        out_dir = tmp_path / "results"
        code = main(
            [
                "run", str(config_path),
                "--executor", "simulated", "--cluster", "mn4",
                "--mock-objective", "--no-tracing", "--no-graph",
                "--out-dir", str(out_dir),
            ]
        )
        assert code == 0
        assert not (out_dir / "trace.prv").exists()
        assert not (out_dir / "graph.dot").exists()
        assert (out_dir / "study.json").exists()

    def test_random_algorithm_budget(self, config_path, tmp_path, capsys):
        code = main(
            [
                "run", str(config_path),
                "--executor", "simulated", "--cluster", "mn4",
                "--mock-objective",
                "--algorithm", "random", "--n-trials", "3",
            ]
        )
        assert code == 0
        assert "3/3 trials completed" in capsys.readouterr().out

    def test_target_accuracy_stops(self, config_path, capsys):
        code = main(
            [
                "run", str(config_path),
                "--executor", "simulated", "--cluster", "mn4",
                "--mock-objective",
                "--target-accuracy", "0.5",
            ]
        )
        assert code == 0
        assert "stopped early" in capsys.readouterr().out

    def test_real_training_local(self, tmp_path, capsys):
        cfg = dict(SMALL_CONFIG, n_train=200, n_test=60)
        path = write_config_file(cfg, tmp_path / "c.json")
        code = main(["run", str(path), "--cluster", "local"])
        assert code == 0
        assert "trials completed" in capsys.readouterr().out

    def test_lpt_scheduler_runs(self, config_path, capsys):
        code = main(
            [
                "run", str(config_path),
                "--executor", "simulated", "--cluster", "mn4",
                "--mock-objective", "--scheduler", "lpt",
            ]
        )
        assert code == 0


class TestIntegrityFlags:
    def test_verify_outputs_prints_integrity_summary(self, config_path, capsys):
        code = main(
            [
                "run", str(config_path),
                "--executor", "simulated", "--cluster", "mn4",
                "--mock-objective", "--verify-outputs",
                "--replication-factor", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "integrity:" in out
        assert "0 unverified reads" in out

    def test_integrity_flags_parsed(self, config_path):
        args = build_parser().parse_args(
            [
                "run", str(config_path), "--verify-outputs",
                "--replication-factor", "3", "--transfer-retries", "5",
            ]
        )
        assert args.verify_outputs is True
        assert args.replication_factor == 3
        assert args.transfer_retries == 5


class TestRecoverCommand:
    def _checkpointed_run(self, config_path, tmp_path):
        ckpt_dir = tmp_path / "ckpt"
        code = main(
            [
                "run", str(config_path),
                "--executor", "simulated", "--cluster", "mn4",
                "--mock-objective", "--no-tracing", "--no-graph",
                "--checkpoint-dir", str(ckpt_dir),
            ]
        )
        assert code == 0
        return ckpt_dir

    def test_recover_reports_clean_spill_integrity(
        self, config_path, tmp_path, capsys
    ):
        ckpt_dir = self._checkpointed_run(config_path, tmp_path)
        capsys.readouterr()
        assert main(["recover", str(ckpt_dir)]) == 0
        out = capsys.readouterr().out
        assert "spill integrity:" in out
        assert "0 corrupt" in out

    def test_recover_counts_corrupt_spills(self, config_path, tmp_path, capsys):
        ckpt_dir = self._checkpointed_run(config_path, tmp_path)
        spills = sorted((ckpt_dir / "outputs").glob("*.pkl"))
        assert spills
        victim = spills[0]
        data = bytearray(victim.read_bytes())
        data[len(data) // 2] ^= 0xFF
        victim.write_bytes(bytes(data))
        capsys.readouterr()
        assert main(["recover", str(ckpt_dir)]) == 0
        out = capsys.readouterr().out
        assert "1 corrupt" in out
        assert "corrupt spills re-execute on resume" in out

    def test_recover_json_includes_spill_integrity(
        self, config_path, tmp_path, capsys
    ):
        ckpt_dir = self._checkpointed_run(config_path, tmp_path)
        capsys.readouterr()
        assert main(["recover", str(ckpt_dir), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert set(summary["spill_integrity"]) == {"ok", "corrupt", "missing"}
        assert summary["spill_integrity"]["corrupt"] == 0


    def test_one_record_per_task_journal_reads_back_and_survives_gc(
        self, config_path, tmp_path, capsys
    ):
        ckpt_dir = self._checkpointed_run(config_path, tmp_path)
        spills = sorted((ckpt_dir / "outputs").glob("*.pkl"))
        kinds = [
            json.loads(line)["rec"]
            for line in (ckpt_dir / "journal.jsonl").read_text().splitlines()
        ]
        assert kinds == ["session"] + ["completed"] * len(spills)
        capsys.readouterr()
        assert main(["recover", str(ckpt_dir)]) == 0
        out = capsys.readouterr().out
        assert f"completed: {len(spills)}" in out
        assert "unfinished in journal (failed or in flight at a crash): 0" in out
        # gc protects a spill through its completed record alone.
        assert main(["gc", str(ckpt_dir)]) == 0
        assert "0 orphan(s)" in capsys.readouterr().out
        assert sorted((ckpt_dir / "outputs").glob("*.pkl")) == spills


class TestDescribeCluster:
    def test_describe(self, capsys):
        code = main(["describe-cluster", "--cluster", "power9", "--nodes", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 nodes" in out and "GPU" in out.upper()
