"""Scan kernels against a float64 per-step loop and central differences."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from mlsa4rec import kernels
from mlsa4rec import tensor as T
from mlsa4rec.data import synthetic_successor_dataset
from mlsa4rec.model import MlsaModel, ModelConfig
from mlsa4rec.train_eval import Adam, build_training_examples, train_step


def random_instance(rng, batch=2, seq=9, e_inner=4, d_state=3, dtype=np.float64):
    u = rng.standard_normal((batch, seq, e_inner)).astype(dtype)
    delta = rng.uniform(0.01, 0.8, size=(batch, seq, e_inner)).astype(dtype)
    a = -np.exp(rng.standard_normal((e_inner, d_state))).astype(dtype)
    bm = rng.standard_normal((batch, seq, d_state)).astype(dtype)
    cm = rng.standard_normal((batch, seq, d_state)).astype(dtype)
    return u, delta, a, bm, cm


def loop_scan(u, delta, a, bm, cm):
    """y of the recurrence, one step at a time, in float64, with the exact
    zero-order hold c = expm1(delta * a) / a."""
    B, L, E = u.shape
    y = np.zeros((B, L, E))
    for b in range(B):
        h = np.zeros(a.shape)
        for t in range(L):
            dt = delta[b, t][:, None]
            c = np.expm1(dt * a) / a
            h = np.exp(dt * a) * h + c * bm[b, t] * u[b, t][:, None]
            y[b, t] = h @ cm[b, t]
    return y


class TestBackendAgreement:
    """The scan's own agreement checks; the class keeps its name so that
    the test ids stay stable."""

    def test_no_state_saving_when_not_needed(self):
        rng = np.random.default_rng(2)
        u, delta, a, bm, cm = random_instance(rng)
        _, h = kernels.scan_forward(u, delta, a, bm, cm, False)
        assert h is None

    def test_float32_tracks_float64(self):
        rng = np.random.default_rng(3)
        u, delta, a, bm, cm = random_instance(rng, seq=16)
        args32 = [x.astype(np.float32) for x in (u, delta, a, bm, cm)]
        y64, _ = kernels.scan_forward(u, delta, a, bm, cm, False)
        y32, _ = kernels.scan_forward(*args32, False)
        np.testing.assert_allclose(y32, y64, rtol=2e-4, atol=2e-5)


class TestScan:
    def test_saved_states_hold_one_state_per_chunk(self, monkeypatch):
        rng = np.random.default_rng(2)
        C = kernels._CHUNK_STEPS
        B, L, E, N = 3, 2 * C + 3, 4, 2
        args = random_instance(rng, B, L, E, N, dtype=np.float32)
        _, h = kernels.scan_forward(*args, True)
        assert h.nbytes == B * -(-L // C) * N * E * np.dtype(np.float32).itemsize
        # checkpoint k is the state entering step k*C: zero for chunk 0,
        # and with one-step chunks every such state is kept
        monkeypatch.setattr(kernels, "_CHUNK_STEPS", 1)
        _, every = kernels.scan_forward(*args, True)
        assert not every[0].any()
        np.testing.assert_array_equal(h, every[::C])

    def test_saving_states_leaves_output_unchanged(self):
        rng = np.random.default_rng(4)
        for dtype in (np.float32, np.float64):
            args = random_instance(rng, dtype=dtype)
            y_saved, _ = kernels.scan_forward(*args, True)
            y_bare, _ = kernels.scan_forward(*args, False)
            np.testing.assert_array_equal(y_saved, y_bare)

    def test_forward_matches_loop_with_small_poles(self):
        # tiny negative poles take the same formula as the others, and it
        # keeps the exact zero-order hold (the limit c = delta does not)
        rng = np.random.default_rng(0)
        u, delta, a, bm, cm = random_instance(rng)
        a[0, 0], a[1, 2], a[3, 1] = -1e-9, -1e-12, -1e-30
        y, _ = kernels.scan_forward(u, delta, a, bm, cm, False)
        np.testing.assert_allclose(y, loop_scan(u, delta, a, bm, cm),
                                   rtol=1e-10, atol=1e-12)

    def test_zero_pole_fails_loudly(self):
        # a_log = -200 underflows a = -exp(a_log) to 0 in float32, and the
        # scan op's output check names the op instead of the pole passing
        # silently
        model = MlsaModel(ModelConfig(vocab_size=30, max_len=8, d_model=8,
                                      d_state=4, n_layers=1), seed=0)
        model.params["il.mamba.ssm.a_log"].data[0, 0] = -200.0
        ids = np.random.default_rng(0).integers(1, 30, size=(3, 8))
        with np.errstate(all="ignore"), \
                pytest.raises(T.NumericsError, match="selective_scan"):
            model.forward(ids)

    def test_backward_leaves_no_subnormal_gradient(self):
        # Only the last step carries a loss, so g only decays on the way
        # back; in float32 it would pass through the subnormal range.  The
        # float32 gradients still track float64 within 8 eps of their scale.
        rng = np.random.default_rng(12)
        B, L, E, N = 2, 512, 16, 8
        u = rng.standard_normal((B, L, E))
        delta = rng.uniform(0.001, 0.5, (B, L, E))
        a = -np.tile(np.arange(1.0, N + 1), (E, 1))
        bm = rng.standard_normal((B, L, N))
        cm = rng.standard_normal((B, L, N))
        gy = np.zeros((B, L, E))
        gy[:, -1] = rng.standard_normal((B, E))
        runs = []
        for dtype in (np.float64, np.float32):
            args = [x.astype(dtype) for x in (u, delta, a, bm, cm)]
            _, h = kernels.scan_forward(*args, True)
            runs.append(kernels.scan_backward(*args, h, gy.astype(dtype)))
        eps, tiny = np.finfo(np.float32).eps, np.finfo(np.float32).tiny
        for name, g64, g in zip(("u", "delta", "a", "bm", "cm"), *runs):
            subnormal = (g != 0) & (np.abs(g) < tiny)
            assert not subnormal.any(), f"d{name}: {subnormal.sum()} subnormal"
            np.testing.assert_allclose(g, g64, rtol=0,
                                       atol=8 * eps * np.abs(g64).max(),
                                       err_msg=name)

    def test_backward_matches_central_differences(self):
        rng = np.random.default_rng(1)
        args = list(random_instance(rng, batch=2, seq=7))
        args[2][0, 0] = -1e-9    # tiny poles: the plain formulas hold there too
        args[2][1, 2] = 1e-10
        gy = rng.standard_normal(args[0].shape)
        _, h = kernels.scan_forward(*args, True)
        grads = kernels.scan_backward(*args, h, gy)
        eps = 1e-6
        for name, x, g in zip(("u", "delta", "a", "bm", "cm"), args, grads):
            assert g.shape == x.shape
            fd = np.zeros_like(x)
            for idx in np.ndindex(x.shape):
                orig = x[idx]
                x[idx] = orig + eps
                up = (loop_scan(*args) * gy).sum()
                x[idx] = orig - eps
                down = (loop_scan(*args) * gy).sum()
                x[idx] = orig
                fd[idx] = (up - down) / (2 * eps)
            np.testing.assert_allclose(g, fd, rtol=1e-6,
                                       atol=1e-7 * np.abs(fd).max(),
                                       err_msg=f"grad {name}")

    def test_row_blocks_agree_with_one_block(self, monkeypatch):
        rng = np.random.default_rng(5)
        B, E, N = 5, 4, 3
        args = random_instance(rng, batch=B, e_inner=E, d_state=N)
        args[2][1, 2] = 1e-10
        gy = rng.standard_normal(args[0].shape)
        y1, h1 = kernels.scan_forward(*args, True)
        g1 = kernels.scan_backward(*args, h1, gy)
        monkeypatch.setattr(kernels, "_BLOCK_BYTES", 2 * N * E * 8)
        assert len(kernels._row_blocks(B, N, E, np.float64)) == 3  # 2, 2, 1
        y2, h2 = kernels.scan_forward(*args, True)
        g2 = kernels.scan_backward(*args, h2, gy)
        np.testing.assert_allclose(y2, y1, rtol=1e-13, atol=0)
        np.testing.assert_allclose(h2, h1, rtol=1e-13, atol=0)
        for name, x1, x2 in zip(("u", "delta", "a", "bm", "cm"), g1, g2):
            np.testing.assert_allclose(x2, x1, rtol=1e-12, atol=1e-14,
                                       err_msg=f"grad {name}")

    def test_float32_pole_gradient_tracks_float64(self):
        # |a * delta| from 1e-3 to 5, the range the model's poles and
        # softplus timescales cover; float32 da within 8 eps of its scale.
        rng = np.random.default_rng(0)
        B, L, E, N = 4, 12, 8, 6
        u = rng.standard_normal((B, L, E))
        delta = rng.uniform(0.01, 1.0, (B, L, E))
        a = -np.exp(rng.uniform(np.log(0.1), np.log(5.0), (E, N)))
        bm = rng.standard_normal((B, L, N))
        cm = rng.standard_normal((B, L, N))
        gy = rng.standard_normal((B, L, E))
        assert np.abs(a).min() * delta.min() >= 1e-3
        _, h64 = kernels.scan_forward(u, delta, a, bm, cm, True)
        da64 = kernels.scan_backward(u, delta, a, bm, cm, h64, gy)[2]
        args32 = [x.astype(np.float32) for x in (u, delta, a, bm, cm)]
        _, h32 = kernels.scan_forward(*args32, True)
        da32 = kernels.scan_backward(*args32, h32, gy.astype(np.float32))[2]
        assert da32.dtype == np.float32
        scale = np.abs(da64).max()
        np.testing.assert_allclose(da32, da64, rtol=0,
                                   atol=8 * np.finfo(np.float32).eps * scale)

    def test_float32_tracks_float64_at_model_width(self):
        # the desk model's scan width (E 128, N 32) over 40 steps, with the
        # poles and timescales it trains into; y and every gradient in
        # float32 within 8 eps of that array's scale
        rng = np.random.default_rng(10)
        B, L, E, N = 4, 40, 128, 32
        u = rng.standard_normal((B, L, E))
        delta = rng.uniform(0.001, 0.5, (B, L, E))
        a = -np.exp(rng.uniform(np.log(0.5), np.log(32.0), (E, N)))
        bm = rng.standard_normal((B, L, N))
        cm = rng.standard_normal((B, L, N))
        gy = rng.standard_normal((B, L, E))
        runs = []
        for dtype in (np.float64, np.float32):
            args = [x.astype(dtype) for x in (u, delta, a, bm, cm)]
            y, h = kernels.scan_forward(*args, True)
            runs.append((y,) + kernels.scan_backward(*args, h, gy.astype(dtype)))
        eps = np.finfo(np.float32).eps
        for name, x64, x32 in zip(("y", "u", "delta", "a", "bm", "cm"), *runs):
            assert x32.dtype == np.float32
            np.testing.assert_allclose(x32, x64, rtol=0,
                                       atol=8 * eps * np.abs(x64).max(),
                                       err_msg=name)

    def test_chunk_length_leaves_results_unchanged(self, monkeypatch):
        # L = 3C + 1: full chunks and a one-step tail, under every length
        default = kernels._CHUNK_STEPS
        L = 3 * default + 1
        rng = np.random.default_rng(6)
        for dtype in (np.float32, np.float64):
            args = random_instance(rng, batch=3, seq=L, dtype=dtype)
            args[2][0, 0] = -1e-9
            args[2][1, 2] = 1e-10
            gy = rng.standard_normal(args[0].shape).astype(dtype)
            runs = []
            for steps in (1, 2, default, L + 2):
                monkeypatch.setattr(kernels, "_CHUNK_STEPS", steps)
                y, h = kernels.scan_forward(*args, True)
                runs.append((y,) + kernels.scan_backward(*args, h, gy))
            for run in runs[1:]:
                for name, x1, x2 in zip(("y", "u", "delta", "a", "bm", "cm"),
                                        runs[0], run):
                    np.testing.assert_array_equal(x2, x1, err_msg=name)


class SpyPool:
    """Stands in for kernels._pool: counts map calls and runs them inline."""

    def __init__(self):
        self.maps = 0

    def map(self, fn, items):
        self.maps += 1
        return map(fn, items)


@pytest.fixture
def spy_pool(monkeypatch):
    spy = SpyPool()
    monkeypatch.setattr(kernels, "_pool", spy)
    return spy


class TestParallelBlocks:
    def test_import_starts_no_thread(self):
        # the pool is built at import; its threads start at its first map
        src = str(Path(kernels.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", "import threading, mlsa4rec.kernels; "
             "print(threading.active_count())"],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src})
        assert proc.stdout.strip() == "1"

    def test_blocked_pool_does_not_hold_up_exit(self):
        # both pool threads wait forever; the main thread then returns
        script = (
            "import threading\n"
            "from mlsa4rec import kernels\n"
            "kernels._WORKERS = 2\n"
            "started, never = threading.Barrier(3, timeout=30), threading.Event()\n"
            "def stuck(g):\n"
            "    started.wait()\n"
            "    never.wait()\n"
            "threading.Thread(target=kernels.map_rows, args=(stuck, [0, 1]),\n"
            "                 daemon=True).start()\n"
            "started.wait()\n")
        src = str(Path(kernels.__file__).parents[1])
        proc = subprocess.run([sys.executable, "-c", script], timeout=60,
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr

    def test_pool_map_keeps_order_and_raises(self, monkeypatch):
        monkeypatch.setattr(kernels, "_WORKERS", 2)
        assert kernels.map_rows(lambda g: g * g, list(range(9))) == \
            [g * g for g in range(9)]
        with pytest.raises(ZeroDivisionError):
            kernels.map_rows(lambda g: 1 / g, [2, 1, 0, 3])

    def test_workers_leave_results_bitwise_unchanged(self, monkeypatch, spy_pool):
        rng = np.random.default_rng(7)
        B, L, E, N = 7, 2 * kernels._CHUNK_STEPS + 3, 4, 3
        for dtype in (np.float32, np.float64):
            args = random_instance(rng, B, L, E, N, dtype=dtype)
            args[2][0, 0] = -1e-9
            args[2][1, 2] = 1e-10
            gy = rng.standard_normal(args[0].shape).astype(dtype)
            monkeypatch.setattr(kernels, "_BLOCK_BYTES",
                                2 * N * E * np.dtype(dtype).itemsize)
            assert len(kernels._row_blocks(B, N, E, dtype)) == 4  # 2, 2, 2, 1
            runs, maps = [], []
            for workers in (1, 2):
                monkeypatch.setattr(kernels, "_WORKERS", workers)
                before = spy_pool.maps
                y, h = kernels.scan_forward(*args, True)
                runs.append((y, h) + kernels.scan_backward(*args, h, gy))
                maps.append(spy_pool.maps - before)
            assert maps == [0, 2]     # only two workers went through the pool
            for name, x1, x2 in zip(("y", "states", "u", "delta", "a", "bm",
                                     "cm"), *runs):
                assert x2.dtype == dtype
                np.testing.assert_array_equal(x2, x1, err_msg=name)

    def test_one_block_runs_inline(self, monkeypatch, spy_pool):
        monkeypatch.setattr(kernels, "_WORKERS", 2)
        rng = np.random.default_rng(8)
        args = random_instance(rng)
        assert len(kernels._row_blocks(2, 3, 4, np.float64)) == 1
        _, h = kernels.scan_forward(*args, True)
        kernels.scan_backward(*args, h, rng.standard_normal(args[0].shape))
        assert spy_pool.maps == 0

    def test_desk_training_steps_agree_across_workers(self, monkeypatch):
        # B 128, N 32, E 128 in float32: eight row blocks per scan call
        batch = 128
        _, split = synthetic_successor_dataset(n_items=500, n_users=3 * batch,
                                               seq_len=20, seed=0)
        xs, ys = build_training_examples(split, 50)
        losses = {}
        for workers in (1, 2):
            monkeypatch.setattr(kernels, "_WORKERS", workers)
            model = MlsaModel(ModelConfig(vocab_size=501), seed=3)
            opt = Adam(model.params, lr=1e-3)
            losses[workers] = [
                train_step(model, opt, xs[i:i + batch], ys[i:i + batch])[0]
                for i in range(0, 3 * batch, batch)]
        assert len(kernels._row_blocks(batch, 32, 128, np.float32)) == 8
        assert losses[2] == losses[1]


def score_case(rows, seed=9):
    """A small model and [rows, 12] ids whose rows hold 1 to 12 real items,
    so row groups trim different numbers of padding columns."""
    model = MlsaModel(ModelConfig(vocab_size=30, max_len=12, d_model=8,
                                  d_state=4, n_interests=2, n_heads=2,
                                  n_layers=1), seed=seed)
    rng = np.random.default_rng(seed)
    ids = np.zeros((rows, 12), dtype=np.int64)
    for r, n in enumerate(rng.integers(1, 13, size=rows)):
        ids[r, 12 - n:] = rng.integers(1, 30, size=n)
    return model, ids


def forward_maps(spy_pool, model, ids):
    """Pool maps made by one no-grad forward over ids."""
    before = spy_pool.maps
    with T.no_grad():
        model.forward(ids)
    return spy_pool.maps - before


class TestParallelScore:
    def test_groups_agree_across_workers_and_with_one_forward(self, monkeypatch):
        monkeypatch.setattr("mlsa4rec.model.SCORE_ROWS", 3)
        monkeypatch.setattr(kernels, "_BLOCK_BYTES", 1)    # a scan block per row
        model, ids = score_case(8)                       # groups of 3, 3, 2
        runs = {}
        for workers in (1, 2):
            monkeypatch.setattr(kernels, "_WORKERS", workers)
            runs[workers] = model.score(ids)
        np.testing.assert_array_equal(runs[2], runs[1])
        with T.no_grad():
            whole = model.forward(ids)[0].data
        np.testing.assert_allclose(runs[1], whole, rtol=1e-5, atol=1e-6)

    def test_groups_with_several_scan_blocks_finish(self, monkeypatch):
        # each group's scan maps 2 row blocks from a pool thread; waiting on
        # the pool there would leave both workers blocked for good
        monkeypatch.setattr("mlsa4rec.model.SCORE_ROWS", 2)
        monkeypatch.setattr(kernels, "_BLOCK_BYTES", 1)
        monkeypatch.setattr(kernels, "_WORKERS", 2)
        model, ids = score_case(4)
        out = []
        worker = threading.Thread(target=lambda: out.append(model.score(ids)),
                                  daemon=True)
        worker.start()
        worker.join(60)
        assert not worker.is_alive(), "score deadlocked on the kernels pool"
        assert out[0].shape == (4, 30)

    def test_each_group_runs_untaped_on_the_thread_that_runs_it(self, monkeypatch):
        # no_grad holds per thread, so a group on a pool thread must turn
        # the tape off there itself
        monkeypatch.setattr("mlsa4rec.model.SCORE_ROWS", 2)
        monkeypatch.setattr(kernels, "_BLOCK_BYTES", 1)
        monkeypatch.setattr(kernels, "_WORKERS", 2)
        model, ids = score_case(6)                       # groups of 2, 2, 2
        forward, groups = MlsaModel.forward, []

        def spy(self, *args, **kwargs):
            logits, inter = forward(self, *args, **kwargs)
            groups.append((threading.current_thread(), logits._node))
            return logits, inter
        monkeypatch.setattr(MlsaModel, "forward", spy)
        model.score(ids)
        assert len(groups) == 3
        assert all(node is None for _, node in groups)
        assert any(thread is not threading.main_thread() for thread, _ in groups)

    def test_small_batch_makes_no_map_of_its_own(self, monkeypatch, spy_pool):
        monkeypatch.setattr(kernels, "_BLOCK_BYTES", 1)
        monkeypatch.setattr(kernels, "_WORKERS", 2)
        model, ids = score_case(4)
        scan_maps = forward_maps(spy_pool, model, ids)
        assert scan_maps > 0
        before = spy_pool.maps
        model.score(ids)
        assert spy_pool.maps - before == scan_maps

    def test_large_batch_makes_one_map_of_groups(self, monkeypatch, spy_pool):
        monkeypatch.setattr("mlsa4rec.model.SCORE_ROWS", 2)
        monkeypatch.setattr(kernels, "_BLOCK_BYTES", 1)
        monkeypatch.setattr(kernels, "_WORKERS", 2)
        model, ids = score_case(5)                       # groups of 2, 2, 1
        scan_maps = sum(forward_maps(spy_pool, model, ids[r])
                        for r in (slice(0, 2), slice(2, 4), slice(4, 5)))
        before = spy_pool.maps
        model.score(ids)
        assert spy_pool.maps - before == 1 + scan_maps
