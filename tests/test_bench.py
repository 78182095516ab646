"""Benchmark harness: slope fitting, CSV/SVG output, memory scaling."""

import csv
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from mlsa4rec import bench, kernels
from mlsa4rec.bench import (bench_scaling, fit_slope, write_scaling_svg,
                            _median_of_means, _peak_bytes)
from mlsa4rec.cli import write_csv
from mlsa4rec.model import MlsaModel, ModelConfig
from mlsa4rec.train_eval import Adam, train_step

TINY_LENGTHS = [8, 16, 32, 64]


class TestSlopeFit:
    def test_recovers_exact_powers(self):
        lengths = [256, 512, 1024, 2048]
        for power in (1.0, 1.5, 2.0):
            means = [0.003 * L ** power for L in lengths]
            assert fit_slope(lengths, means) == pytest.approx(power, abs=1e-9)

    def test_constant_time_gives_zero(self):
        assert fit_slope([1, 2, 4, 8], [5.0, 5.0, 5.0, 5.0]) == \
            pytest.approx(0.0, abs=1e-12)

    def test_median_of_means_shrugs_off_bursts(self):
        quiet = [1.0] * 20
        bursty = quiet.copy()
        bursty[3] = 500.0                      # one transient load spike
        assert _median_of_means(bursty) == pytest.approx(
            _median_of_means(quiet), rel=0.02)
        assert np.mean(bursty) > 20.0


class TestBenchScaling:
    def test_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            bench_scaling(["lsa"], [8, 16, 16, 32])
        with pytest.raises(ValueError, match="4"):
            bench_scaling(["lsa"], [8, 16, 32])
        with pytest.raises(ValueError, match="reps"):
            bench_scaling(["lsa"], TINY_LENGTHS, reps=2)
        with pytest.raises(ValueError, match="component"):
            bench_scaling(["warp_drive"], TINY_LENGTHS)

    def test_empty_component_list_names_the_choices(self):
        with pytest.raises(ValueError, match="no components.*full_model"):
            bench_scaling([], TINY_LENGTHS)

    @pytest.mark.parametrize("components", [["lsa", "lsa"],
                                            ["mamba_block", "lsa", "mamba_block"]])
    def test_repeated_component_rejected_before_timing(self, components,
                                                       monkeypatch):
        def no_build(*args):
            raise AssertionError("a component was built")
        monkeypatch.setattr(bench, "_component_fn", no_build)
        with pytest.raises(ValueError, match=f"component '{components[-1]}' "
                           "is listed more than once.*full_model"):
            bench_scaling(components, TINY_LENGTHS)

    def test_rows_and_slopes(self):
        components = ["lsa", "mamba_block"]
        res = bench_scaling(components, TINY_LENGTHS, reps=5, d_model=16,
                            d_state=8, n_interests=2)
        assert len(res.rows) == len(components) * len(TINY_LENGTHS)
        assert [r["component"] for r in res.rows] == \
            [c for c in components for _ in TINY_LENGTHS]
        for row in res.rows:
            assert row["mean_ms"] > 0.0
            assert row["reps"] >= 5
        assert set(res.slopes) == set(components)
        assert all(np.isfinite(s) for s in res.slopes.values())

    def test_slope_recomputable_from_csv(self, tmp_path):
        res = bench_scaling(["lsa"], TINY_LENGTHS, reps=5, d_model=16,
                            d_state=8, n_interests=2)
        path = str(tmp_path / "bench.csv")
        write_csv(path, res.rows)
        with open(path, newline="", encoding="utf-8") as fh:
            back = list(csv.DictReader(fh))
        lengths = [int(r["L"]) for r in back]
        means = [float(r["mean_ms"]) for r in back]
        assert fit_slope(lengths, means) == pytest.approx(res.slopes["lsa"],
                                                          abs=1e-9)


class TestMemory:
    def test_forward_memory_scales_linearly(self):
        # one throwaway forward first so one-time set-up is not measured
        warm = MlsaModel(ModelConfig(vocab_size=50, max_len=16, d_model=16,
                                     d_state=8, n_interests=4, n_heads=2,
                                     n_layers=1), seed=0)
        warm.forward(np.ones((1, 16), dtype=np.int64))
        lengths = (128, 256, 512, 1024)
        peaks = []
        for seq_len in lengths:
            cfg = ModelConfig(vocab_size=50, max_len=seq_len, d_model=16,
                              d_state=8, n_interests=4, n_heads=2, n_layers=1)
            model = MlsaModel(cfg, seed=0)
            ids = np.random.default_rng(0).integers(1, 50, size=(1, seq_len))
            # a gradient-enabled forward pass
            peaks.append(_peak_bytes(lambda: model.forward(ids, training=False)))
        slope = fit_slope(lengths, peaks)
        assert 0.7 <= slope <= 1.2, f"memory slope {slope}: {peaks}"


    def test_training_step_keeps_one_state_per_chunk(self, monkeypatch):
        # desk widths; with n_layers 1, il.mamba and one stack layer save
        # states.  B is four row blocks, so the backward's per-chunk
        # buffers stay small beside the states the chunking saves.
        B, L, vocab = 64, 50, 501
        cfg = ModelConfig(vocab_size=vocab, max_len=L, d_model=64, d_state=32,
                          n_interests=8, n_heads=2, n_layers=1)
        rng = np.random.default_rng(0)
        xb = rng.integers(1, vocab, size=(B, L))
        yb = rng.integers(1, vocab, size=B)

        def peak(chunk_steps):
            monkeypatch.setattr(kernels, "_CHUNK_STEPS", chunk_steps)
            model = MlsaModel(cfg, seed=0)
            opt = Adam(model.params, lr=1e-3)
            train_step(model, opt, xb, yb)    # Adam's moments exist first
            return _peak_bytes(lambda: train_step(model, opt, xb, yb))

        C = kernels._CHUNK_STEPS
        state_bytes = cfg.d_state * cfg.expand * cfg.d_model * 4
        saved = (cfg.n_layers + 1) * B * (L - -(-L // C)) * state_bytes
        assert peak(1) - peak(C) >= 0.9 * saved


class TestTrainingScaling:
    def test_training_step_time_and_peak_scale_linearly(self, monkeypatch):
        # a whole training step, backward and Adam included, at the desk
        # widths: a [B, L, L] temporary or an unchunked per-position head
        # would push a slope toward 2
        monkeypatch.setattr(bench, "BATCH_SIZE", 4)
        lengths = [128, 256, 512, 1024]
        res = bench_scaling(["train_step"], lengths, reps=5)
        peaks = [r["peak_bytes"] for r in res.rows]
        time_slope = res.slopes["train_step"]
        peak_slope = fit_slope(lengths, peaks)
        assert time_slope <= 1.3 and peak_slope <= 1.3, \
            f"slopes: time {time_slope:.3f}, peak {peak_slope:.3f}; {res.rows}"


class TestSvg:
    def test_chart_well_formed(self, tmp_path):
        rows = [{"component": c, "L": L, "mean_ms": 0.01 * L * (i + 1),
                 "std_ms": 0.0, "reps": 5}
                for i, c in enumerate(("lsa", "full_model"))
                for L in TINY_LENGTHS]
        path = str(tmp_path / "scaling.svg")
        write_scaling_svg(path, rows)
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")
        polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(polylines) == 2
