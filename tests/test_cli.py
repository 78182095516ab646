"""Command-line interface: argument handling, commands, files, exit codes."""

import csv
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from mlsa4rec import bench, cli, train_eval
from mlsa4rec.cli import HANDLERS, USAGE, main, write_csv
from mlsa4rec.config import build_config
from mlsa4rec.data import save_dataset_cache, synthetic_successor_dataset
from mlsa4rec.model import VARIANTS, MlsaModel
from mlsa4rec.train_eval import MetricsReport

TINY_DATA = ["--dataset", "synthetic", "--syn_items", "30",
             "--syn_users", "12", "--syn_len", "5"]
TINY_MODEL = ["--max_len", "8", "--d_model", "8", "--d_state", "4",
              "--n_interests", "2", "--n_heads", "2", "--n_layers", "0"]
TINY_TRAIN = ["--epochs", "1", "--batch_size", "16", "--lr", "0.01"]


def read_csv(path):
    """A report's rows, every value a string."""
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


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

    def test_usage_names_every_command(self):
        for command in HANDLERS:
            assert f"\n  {command} " in USAGE

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
        # with no cache set, train parses the raw file itself
        code, out, _ = run(["train", "--dataset", "movielens", "--path",
                            str(raw), "--kcore", "3", "--k", "2"]
                           + TINY_MODEL + TINY_TRAIN, capsys)
        assert code == 0
        assert "test: hr@2" in out

    @pytest.mark.parametrize("command", ["train", "eval", "gridsearch",
                                         "gradcheck", "ablate"])
    def test_no_users_left(self, tmp_path, capsys, command):
        raw = tmp_path / "ratings.dat"
        raw.write_text("\n".join(f"{u}::{i}::5::{i}" for u in (1, 2)
                                 for i in (1, 2, 3)) + "\n")
        argv = ["--dataset", "movielens", "--path", str(raw), "--kcore", "50"]
        code, out, _ = run(["prep"] + argv, capsys)
        assert code == 0
        assert "0 users, 0 items, 0 interactions, avg 0.0" in out
        code, _, err = run([command] + argv + TINY_MODEL + TINY_TRAIN
                           + ["--grid_n_heads", "2", "--checkpoint",
                              str(tmp_path / "model.ckpt")], capsys)
        assert code == 1
        assert f"dataset has no users (--path {raw})" in err

    def test_user_with_two_events_fails_the_split(self, tmp_path, capsys):
        # every user and item survives the 2-core, but user 3 has only two
        # events, too few for a validation and a test target
        raw = tmp_path / "ratings.dat"
        raw.write_text("\n".join(f"{u}::{i}::5::{i}" for u in (1, 2, 3)
                                 for i in (1, 2, 3) if (u, i) != (3, 3)) + "\n")
        code, out, err = run(["prep", "--dataset", "movielens",
                              "--path", str(raw), "--kcore", "2"], capsys)
        assert code == 1
        assert "leave-one-out split needs >= 3 interactions per user" in err
        assert "users" not in out

    @pytest.mark.parametrize("command", ["prep", "train"])
    def test_unknown_dataset_lists_the_choices(self, tmp_path, capsys, command):
        # a readable cache must not make an unknown name look valid
        cache = tmp_path / "c.json"
        save_dataset_cache(synthetic_successor_dataset(10, 4, 5)[0], str(cache))
        code, out, err = run([command, "--dataset", "nonsense", "--cache",
                              str(cache)] + TINY_MODEL + TINY_TRAIN, capsys)
        assert code == 1
        assert "unknown dataset 'nonsense'" in err
        assert "movielens" in err and "synthetic" in err
        assert out == ""

    @pytest.mark.parametrize("command", ["prep", "train", "eval", "gridsearch",
                                         "gradcheck", "ablate"])
    def test_synthetic_rejects_cache(self, tmp_path, capsys, command):
        cache = tmp_path / "c.json"
        code, out, err = run([command] + TINY_DATA + TINY_MODEL + TINY_TRAIN
                             + ["--cache", str(cache), "--grid_n_heads", "2",
                                "--checkpoint", str(tmp_path / "m.ckpt")],
                             capsys)
        assert code == 1
        assert err == ("error: --cache applies to raw datasets only; "
                       "synthetic data is generated from --seed\n")
        assert out == ""
        assert list(tmp_path.iterdir()) == []

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
        header = Path(csv_path).read_text().splitlines()[0]
        assert header == "phase,epoch,hr@10,ndcg@10,mrr@10,loss,seed"
        assert [r["phase"] for r in read_csv(csv_path)] == ["valid", "test"]

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

    @pytest.mark.parametrize("flags, mismatch", [
        (["--variant", "v3"], "unknown parameter: il.lsa.theta"),
        (["--d_state", "5"], "shape mismatch loading il.mamba.ssm.a_log: "
                             "given (16, 4), parameter is (16, 5)"),
    ], ids=["name", "shape"])
    def test_eval_names_the_checkpoint_it_cannot_load(self, tmp_path, capsys,
                                                      flags, mismatch):
        ckpt = str(tmp_path / "model.ckpt")
        code, _, _ = run(["train"] + TINY_DATA + TINY_MODEL + TINY_TRAIN
                         + ["--checkpoint", ckpt], capsys)
        assert code == 0
        code, out, err = run(["eval"] + TINY_DATA + TINY_MODEL + flags
                             + ["--checkpoint", ckpt], capsys)
        assert code == 1
        assert err == (f"error: {ckpt}: does not fit the model the flags "
                       f"describe: {mismatch}\n")
        assert out == ""

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
        assert Path(paths[0]).read_bytes() == Path(paths[1]).read_bytes()

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

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_non_finite_lr_rejected(self, tmp_path, capsys, lr):
        ckpt = tmp_path / "model.ckpt"
        code, out, err = run(["train"] + TINY_DATA + TINY_MODEL + TINY_TRAIN
                             + ["--lr", lr, "--checkpoint", str(ckpt)], capsys)
        assert code == 1
        assert f"lr must be finite and > 0, got {lr}" in err
        assert "epoch" not in out
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

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_toy_problem_passes_for_every_variant(self, variant, capsys):
        code, out, _ = run(["gradcheck", "--toy", "--variant", variant], capsys)
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
        rows = read_csv(out_csv)
        assert [int(r["L"]) for r in rows] == [8, 16, 32, 64]
        assert "<svg" in Path(out_svg).read_text()

    def test_bad_lengths_fail_cleanly(self, capsys):
        code, _, err = run(["bench", "--bench_lengths", "8,16"], capsys)
        assert code == 1

    @pytest.mark.parametrize("extra", [[], ["--out", "bench.csv"]])
    def test_empty_component_list_fails_cleanly(self, tmp_path, capsys,
                                                monkeypatch, extra):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(["bench", "--components", ","] + extra, capsys)
        assert code == 1
        assert "no components to benchmark" in err and "full_model" in err
        assert out == ""
        assert not (tmp_path / "bench.csv").exists()


    def test_repeated_component_fails_cleanly(self, tmp_path, capsys):
        out_csv = tmp_path / "bench.csv"
        code, out, err = run(["bench", "--components", "lsa,mamba_block,lsa",
                              "--bench_lengths", "8,16,32,64",
                              "--out", str(out_csv)], capsys)
        assert code == 1
        assert "component 'lsa' is listed more than once" in err
        assert "full_model" in err
        assert out == ""
        assert not out_csv.exists()


class TestGridsearchCli:
    def test_singleton_grid(self, tmp_path, capsys):
        out_csv = str(tmp_path / "grid.csv")
        code, out, _ = run(["gridsearch"] + TINY_DATA + TINY_MODEL + TINY_TRAIN
                           + ["--grid_n_heads", "2", "--out", out_csv], capsys)
        assert code == 0
        assert "best cell: {'n_heads': 2}" in out
        rows = read_csv(out_csv)
        assert len(rows) == 1 and int(rows[0]["n_heads"]) == 2
        assert f"valid ndcg@10 {float(rows[0]['ndcg@10']):.4f}" in out

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
        rows = read_csv(out_csv)
        assert [r["variant"] for r in rows] == ["default", "v1", "v2",
                                                "v3", "v4"]

    def test_full_means_four_seeds(self, capsys):
        outs = []
        for extra in (["--full"], ["--seeds", "4"]):
            code, out, _ = run(["ablate"] + TINY_DATA + TINY_MODEL + TINY_TRAIN
                               + extra, capsys)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        assert outs[0].count(": hr@10") == 5


# model keys set away from their defaults; gradcheck --toy fixes TOY_SIZES
CONFIGURED = {"max_len": "8", "d_model": "8", "d_state": "4",
              "n_interests": "2", "n_heads": "2", "n_layers": "0",
              "variant": "v2", "expand": "1", "d_conv": "2"}
TOY_SIZES = ("d_model", "d_state", "n_interests", "n_heads", "n_layers")
BENCH_ARGS = ["--components", "full_model,mamba_block",
              "--bench_lengths", "8,16,32,64", "--bench_reps", "5"]


class TestModelFlags:
    """Every command builds the model its flags describe."""

    @pytest.fixture
    def built(self, monkeypatch):
        """Each MlsaModel config and each bench mamba_block's parameter
        shapes, in the order they are built or run."""
        record = {"configs": [], "mamba_shapes": set()}
        real_mamba_block = bench.mamba_block

        class Recording(MlsaModel):
            def __init__(self, config, seed=0):
                record["configs"].append(config)
                super().__init__(config, seed)

        def mamba_block(x, p, keep=None):
            record["mamba_shapes"].add((p.in_proj.shape, p.conv_w.shape))
            return real_mamba_block(x, p, keep)

        for module in (cli, train_eval, bench):
            monkeypatch.setattr(module, "MlsaModel", Recording)
        monkeypatch.setattr(bench, "mamba_block", mamba_block)
        return record

    @pytest.mark.parametrize("argv", [
        ["train"] + TINY_DATA + TINY_TRAIN,
        ["eval"] + TINY_DATA,
        ["gridsearch"] + TINY_DATA + TINY_TRAIN + ["--grid_n_heads", "2"],
        ["ablate"] + TINY_DATA + TINY_TRAIN,
        ["gradcheck"] + TINY_DATA,
        ["gradcheck", "--toy"],
        ["bench"] + BENCH_ARGS,
    ], ids=["train", "eval", "gridsearch", "ablate", "gradcheck",
            "gradcheck-toy", "bench"])
    def test_command_builds_the_configured_model(self, argv, built, tmp_path,
                                                 capsys):
        flags = [f"--{key}={value}" for key, value in CONFIGURED.items()]
        if argv[0] == "eval":
            ckpt = str(tmp_path / "model.ckpt")
            argv = argv + ["--checkpoint", ckpt]
            assert main(["train"] + TINY_DATA + TINY_TRAIN + flags
                        + ["--checkpoint", ckpt]) == 0
            built["configs"].clear()
        code, _, err = run(argv + flags, capsys)
        assert code == 0, err
        assert built["configs"]
        free = {"vocab_size", "max_len"}
        if "--toy" in argv:
            free.update(TOY_SIZES)
        if argv[0] == "ablate":
            free.add("variant")      # ablate trains every variant in turn
            assert [c.variant for c in built["configs"]] == list(VARIANTS)
        want = asdict(build_config(overrides=CONFIGURED).to_model_config(2))
        for config in built["configs"]:
            got = asdict(config)
            assert {k: v for k, v in got.items() if k not in free} == \
                {k: v for k, v in want.items() if k not in free}
        if argv[0] == "bench":
            # in_proj [d_model, 2 * expand * d_model], conv [expand * d_model, d_conv]
            assert built["mamba_shapes"] == {((8, 16), (8, 2))}


class TestWriteCsv:
    def test_metrics_row_layout(self, tmp_path):
        rep = MetricsReport(0.5, 0.4, 0.3, k=10, population=1)
        path = str(tmp_path / "metrics.csv")
        write_csv(path, [{"phase": "valid", "epoch": 0, **rep.columns(),
                          "loss": 2.5, "seed": 1}])
        lines = Path(path).read_text().strip().splitlines()
        assert lines == ["phase,epoch,hr@10,ndcg@10,mrr@10,loss,seed",
                         "valid,0,0.5,0.4,0.3,2.5,1"]
        assert str(rep) == "hr@10 0.5000 ndcg@10 0.4000 mrr@10 0.3000"


class TestConfigFile:
    def test_file_plus_override(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("dataset = synthetic\nsyn_items = 25\n"
                        "syn_users = 8\nsyn_len = 4\n")
        code, out, _ = run(["prep", "--config", str(conf),
                            "--syn_users", "6"], capsys)
        assert code == 0
        assert "6 users, 25 items" in out


    @pytest.mark.parametrize("kind", ["missing", "directory", "not utf-8"])
    def test_unreadable_file_is_a_usage_error(self, tmp_path, capsys, kind):
        conf = tmp_path / "run.conf"
        if kind == "directory":
            conf.mkdir()
        elif kind == "not utf-8":
            conf.write_bytes(b"syn_items = \xff\n")
        code, out, err = run(["train", "--config", str(conf)], capsys)
        assert code == 2
        assert err.startswith(f"error: cannot read config file {conf}")
        assert "Traceback" not in err and out == ""


class TestEntryPoint:
    def test_installed_script(self):
        proc = subprocess.run([sys.executable, "-m", "mlsa4rec.cli", "help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "usage:" in proc.stdout
