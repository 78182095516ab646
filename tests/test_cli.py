"""Command-line interface: argument handling, commands, files, exit codes."""

import subprocess
import sys

import numpy as np
import pytest

from mlsa4rec.bench import read_bench_csv
from mlsa4rec.cli import main

TINY_DATA = ["--dataset", "synthetic", "--syn_items", "30",
             "--syn_users", "12", "--syn_len", "5"]
TINY_MODEL = ["--max_len", "8", "--d_model", "8", "--d_state", "4",
              "--n_interests", "2", "--n_heads", "2", "--n_layers", "0"]
TINY_TRAIN = ["--epochs", "1", "--batch_size", "16", "--lr", "0.01"]


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        code, _, err = run([], capsys)
        assert code == 2
        assert "usage:" in err

    def test_unknown_command(self, capsys):
        code, _, err = run(["launch"], capsys)
        assert code == 2
        assert "unknown command" in err

    def test_unknown_key(self, capsys):
        code, _, err = run(["prep", "--dmodel=8"], capsys)
        assert code == 2
        assert "unknown config key" in err

    @pytest.mark.parametrize("flag", [["--freeze-padding"],
                                      ["--freeze-padding=on"],
                                      ["--freeze_padding", "true"]])
    def test_removed_freeze_padding_switch(self, flag, capsys):
        code, _, err = run(["prep"] + TINY_DATA + flag, capsys)
        assert code == 2
        assert "freeze_padding" in err

    def test_missing_value(self, capsys):
        code, _, err = run(["prep", "--lr"], capsys)
        assert code == 2
        assert "needs a value" in err

    def test_bad_value_type(self, capsys):
        code, _, err = run(["prep", "--epochs=soon"], capsys)
        assert code == 2

    def test_help_lists_keys(self, capsys):
        code, out, _ = run(["help"], capsys)
        assert code == 0
        for key in ("d_model", "bench_lengths", "grid_dropout"):
            assert key in out


class TestPrep:
    def test_synthetic_stats(self, capsys):
        code, out, _ = run(["prep"] + TINY_DATA, capsys)
        assert code == 0
        assert "12 users, 30 items, 60 interactions, avg 5.0" in out

    def test_dash_and_equals_forms(self, capsys):
        code, out, _ = run(["prep", "--dataset=synthetic", "--syn-items=20",
                            "--syn-users", "5", "--syn_len=4"], capsys)
        assert code == 0
        assert "5 users, 20 items, 20 interactions, avg 4.0" in out

    def test_movielens_file(self, tmp_path, capsys):
        raw = tmp_path / "ratings.dat"
        lines = []
        for u in range(1, 4):
            for i in range(1, 5):
                lines.append(f"{u}::{i}::5::{1000 * u + i}")
        raw.write_text("\n".join(lines) + "\n")
        code, out, _ = run(["prep", "--dataset", "movielens",
                            "--path", str(raw), "--kcore", "3"], capsys)
        assert code == 0
        assert "3 users, 4 items, 12 interactions, avg 4.0" in out

    def test_missing_file(self, capsys):
        code, _, err = run(["prep", "--dataset", "movielens",
                            "--path", "/no/such/file.dat"], capsys)
        assert code == 1
        assert "not found" in err

    def test_data_dir_resolution(self, tmp_path, capsys, monkeypatch):
        raw = tmp_path / "ratings.dat"
        raw.write_text("\n".join(f"1::{i}::4::{i}" for i in range(1, 4)) + "\n")
        monkeypatch.setenv("MLSA_DATA_DIR", str(tmp_path))
        code, out, _ = run(["prep", "--dataset", "movielens",
                            "--path", "ratings.dat", "--kcore", "1"], capsys)
        assert code == 0
        assert "1 users, 3 items" in out

    def test_cache_round_trip(self, tmp_path, capsys):
        raw = tmp_path / "ratings.dat"
        raw.write_text("\n".join(f"7::{i}::4::{i}" for i in range(1, 5)) + "\n")
        cache = tmp_path / "processed.json"
        code, out, _ = run(["prep", "--dataset", "movielens", "--path",
                            str(raw), "--kcore", "1", "--cache", str(cache)],
                           capsys)
        assert code == 0
        assert cache.exists()
        # training reads the cache without touching the raw path
        code, out, _ = run(["train", "--dataset", "movielens", "--cache",
                            str(cache), "--path", "/gone.dat", "--k", "2"]
                           + TINY_MODEL + TINY_TRAIN, capsys)
        assert code == 0


class TestTrainEvalCli:
    def test_train_writes_artifacts_and_eval_reads_them(self, tmp_path, capsys):
        ckpt = str(tmp_path / "model.ckpt")
        csv_path = str(tmp_path / "metrics.csv")
        code, out, _ = run(["train"] + TINY_DATA + TINY_MODEL + TINY_TRAIN
                           + ["--checkpoint", ckpt, "--metrics_csv", csv_path],
                           capsys)
        assert code == 0
        assert "test: hr@10" in out
        assert "checkpoint written" in out
        header = open(csv_path).readline().strip()
        assert header == "phase,epoch,hr@10,ndcg@10,mrr@10,loss,seed"

        code, out, _ = run(["eval"] + TINY_DATA + TINY_MODEL
                           + ["--checkpoint", ckpt], capsys)
        assert code == 0
        assert "valid: hr@10" in out
        assert "test: hr@10" in out

    def test_eval_rejects_checkpoint_missing_layers(self, tmp_path, capsys):
        ckpt = str(tmp_path / "model.ckpt")
        code, _, _ = run(["train"] + TINY_DATA + TINY_MODEL + TINY_TRAIN
                         + ["--checkpoint", ckpt], capsys)
        assert code == 0
        code, out, err = run(["eval"] + TINY_DATA + TINY_MODEL
                             + ["--n-layers", "1", "--checkpoint", ckpt], capsys)
        assert code == 1
        assert "stack.0.mamba.in_proj.w" in err
        assert "hr@10" not in out

    def test_eval_requires_checkpoint(self, capsys):
        code, _, err = run(["eval"] + TINY_DATA + TINY_MODEL, capsys)
        assert code == 1
        assert "checkpoint" in err

    def test_training_reproducible(self, capsys):
        outs = []
        for _ in range(2):
            code, out, _ = run(["train"] + TINY_DATA + TINY_MODEL + TINY_TRAIN
                               + ["--seed", "3"], capsys)
            assert code == 0
            outs.append([l for l in out.splitlines() if l.startswith("test:")])
        assert outs[0] == outs[1]

    def test_multi_seed_summary(self, capsys):
        code, out, _ = run(["train"] + TINY_DATA + TINY_MODEL + TINY_TRAIN
                           + ["--seeds", "2"], capsys)
        assert code == 0
        assert "test over 2 seeds" in out

    def test_multi_seed_checkpoint_is_first_seed(self, tmp_path, capsys):
        paths = [str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")]
        for path, seeds in zip(paths, (["--seeds", "2"], [])):
            code, _, _ = run(["train"] + TINY_DATA + TINY_MODEL + TINY_TRAIN
                             + ["--seed", "3", "--checkpoint", path] + seeds,
                             capsys)
            assert code == 0
        assert open(paths[0], "rb").read() == open(paths[1], "rb").read()

    @pytest.mark.parametrize("command", ["train", "eval", "gridsearch"])
    @pytest.mark.parametrize("key", ["epochs", "patience", "k", "seeds"])
    def test_count_below_one_rejected(self, tmp_path, capsys, command, key):
        ckpt = tmp_path / "model.ckpt"
        code, _, err = run([command] + TINY_DATA + TINY_MODEL + TINY_TRAIN
                           + [f"--{key}", "0", "--grid_n_heads", "2",
                              "--checkpoint", str(ckpt)], capsys)
        assert code == 1
        assert f"{key} must be >= 1" in err
        assert not ckpt.exists()


class TestGradcheckCli:
    def test_toy_problem_passes(self, capsys):
        code, out, _ = run(["gradcheck", "--toy"], capsys)
        assert code == 0
        assert "gradcheck passed" in out

    def test_dataset_problem_passes(self, capsys):
        code, out, _ = run(["gradcheck"] + TINY_DATA + TINY_MODEL, capsys)
        assert code == 0
        assert "gradcheck passed" in out


class TestBenchCli:
    def test_scaling_mode_with_outputs(self, tmp_path, capsys):
        out_csv = str(tmp_path / "bench.csv")
        out_svg = str(tmp_path / "bench.svg")
        code, out, _ = run(["bench", "--components", "lsa",
                            "--bench_lengths", "8,16,32,64",
                            "--bench_reps", "5", "--d_model", "16",
                            "--d_state", "8", "--n_interests", "2",
                            "--out", out_csv, "--plot", out_svg], capsys)
        assert code == 0
        assert "slope lsa:" in out
        rows = read_bench_csv(out_csv)
        assert len(rows) == 4
        assert "<svg" in open(out_svg).read()

    def test_bad_lengths_fail_cleanly(self, capsys):
        code, _, err = run(["bench", "--bench_lengths", "8,16"], capsys)
        assert code == 1


class TestGridsearchCli:
    def test_singleton_grid(self, capsys):
        code, out, _ = run(["gridsearch"] + TINY_DATA + TINY_MODEL + TINY_TRAIN
                           + ["--grid_n_heads", "2"], capsys)
        assert code == 0
        assert "best cell" in out

    def test_no_grid_keys(self, capsys):
        code, _, err = run(["gridsearch"] + TINY_DATA, capsys)
        assert code == 1
        assert "grid" in err


class TestAblateCli:
    def test_all_variants_tabulated(self, tmp_path, capsys):
        out_csv = str(tmp_path / "ablation.csv")
        code, out, _ = run(["ablate"] + TINY_DATA + TINY_MODEL + TINY_TRAIN
                           + ["--out", out_csv], capsys)
        assert code == 0
        for variant in ("default", "v1", "v2", "v3", "v4"):
            assert f"{variant}: hr@10" in out
        rows = read_bench_csv(out_csv)
        assert [r["variant"] for r in rows] == ["default", "v1", "v2",
                                                "v3", "v4"]


class TestConfigFile:
    def test_file_plus_override(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("dataset = synthetic\nsyn_items = 25\n"
                        "syn_users = 8\nsyn_len = 4\n")
        code, out, _ = run(["prep", "--config", str(conf),
                            "--syn_users", "6"], capsys)
        assert code == 0
        assert "6 users, 25 items" in out


class TestEntryPoint:
    def test_installed_script(self):
        proc = subprocess.run([sys.executable, "-m", "mlsa4rec.cli", "help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "usage:" in proc.stdout
