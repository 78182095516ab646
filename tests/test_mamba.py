"""Selective-scan block: discretization, recurrence oracle, conv, causality."""

import numpy as np
import pytest

from mlsa4rec import kernels
from mlsa4rec import tensor as T
from mlsa4rec.mamba import (causal_conv1d, discretize_zoh, init_mamba,
                            init_ssm, mamba_block, selective_scan)
from mlsa4rec.tensor import ParameterStore, Tensor


def naive_scan(u, delta, a, bm, cm):
    """Per-step float64 reference for the state recurrence.

    h[e,n] <- exp(delta*a)*h[e,n] + zoh(b)*u[e];  y[e] = sum_n c[n]*h[e,n].
    """
    u, delta, a, bm, cm = (np.asarray(x, dtype=np.float64)
                           for x in (u, delta, a, bm, cm))
    seq, e_inner = u.shape
    n_state = a.shape[1]
    h = np.zeros((e_inner, n_state))
    y = np.zeros((seq, e_inner))
    for t in range(seq):
        for e in range(e_inner):
            for n in range(n_state):
                a_bar, b_bar = discretize_zoh(a[e, n], bm[t, n], delta[t, e])
                h[e, n] = a_bar * h[e, n] + b_bar * u[t, e]
                y[t, e] += cm[t, n] * h[e, n]
    return y


def naive_selective_scan(x, ssm):
    """Straight-line float64 transcription of selective_scan."""
    xd = np.asarray(x, dtype=np.float64)
    bm = xd @ ssm.proj_b.data.astype(np.float64)
    cm = xd @ ssm.proj_c.data.astype(np.float64)
    pre = xd @ ssm.proj_delta_w.data.astype(np.float64) + ssm.proj_delta_b.data
    delta = np.logaddexp(0.0, pre)
    a = -np.exp(ssm.a_log.data.astype(np.float64))
    y = naive_scan(xd, delta, a, bm, cm)
    return y + ssm.skip_d.data * xd


class TestDiscretizeZoh:
    def test_unit_dynamics(self):
        a_bar, b_bar = discretize_zoh(1.0, 1.0, np.log(2.0))
        assert a_bar == pytest.approx(2.0, rel=1e-12)
        assert b_bar == pytest.approx(1.0, rel=1e-12)

    def test_pole_at_zero_uses_limit(self):
        a_bar, b_bar = discretize_zoh(0.0, 2.0, 0.5)
        assert a_bar == 1.0
        assert b_bar == pytest.approx(1.0, rel=1e-12)

    def test_decay(self):
        a_bar, b_bar = discretize_zoh(-1.0, 1.0, 1.0)
        assert a_bar == pytest.approx(np.exp(-1.0), rel=1e-12)
        assert b_bar == pytest.approx(1.0 - np.exp(-1.0), rel=1e-12)

    def test_limit_is_continuous(self):
        near = discretize_zoh(1e-9, 3.0, 0.25)
        at = discretize_zoh(0.0, 3.0, 0.25)
        assert near[1] == pytest.approx(at[1], rel=1e-6)

    def test_vectorized(self):
        a = np.array([-1.0, 0.0])
        a_bar, b_bar = discretize_zoh(a, np.array([1.0, 2.0]), 1.0)
        np.testing.assert_allclose(a_bar, [np.exp(-1.0), 1.0])
        np.testing.assert_allclose(b_bar, [1.0 - np.exp(-1.0), 2.0])

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(ValueError):
            discretize_zoh(-1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            discretize_zoh(-1.0, 1.0, -0.5)


class TestScanRecurrence:
    def test_halving_state_hand_example(self):
        # Constant a_bar = 1/2 and unit effective input: pick a = ln(1/2),
        # delta = 1 so a_bar = 1/2, then b so that zoh(b) = 1.
        a_val = np.log(0.5)
        b_val = a_val / (0.5 - 1.0)
        u = np.ones((1, 3, 1))
        delta = np.ones((1, 3, 1))
        a = np.full((1, 1), a_val)
        bm = np.full((1, 3, 1), b_val)
        cm = np.ones((1, 3, 1))
        y, _ = kernels.scan_forward(u, delta, a, bm, cm, False)
        np.testing.assert_allclose(y[0, :, 0], [1.0, 1.5, 1.75], rtol=1e-12)

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            seq = int(rng.integers(1, 33))
            e_inner = int(rng.integers(1, 9))
            n_state = int(rng.integers(1, 9))
            u = rng.standard_normal((seq, e_inner))
            delta = rng.uniform(0.005, 1.0, size=(seq, e_inner))
            a = -np.exp(rng.standard_normal((e_inner, n_state)))
            bm = rng.standard_normal((seq, n_state))
            cm = rng.standard_normal((seq, n_state))
            y, _ = kernels.scan_forward(u[None], delta[None], a,
                                        bm[None], cm[None], False)
            expect = naive_scan(u, delta, a, bm, cm)
            np.testing.assert_allclose(y[0], expect, rtol=1e-10, atol=1e-12,
                                       err_msg=f"trial {trial}")

    def test_selective_scan_matches_transcription(self):
        store = ParameterStore(rng_seed=11, dtype=np.float64)
        ssm = init_ssm(store, "ssm", e_inner=6, d_state=4)
        rng = np.random.default_rng(12)
        x = rng.standard_normal((5, 6))
        got = selective_scan(Tensor(x), ssm)
        np.testing.assert_allclose(got.data, naive_selective_scan(x, ssm),
                                   rtol=1e-9, atol=1e-11)

    def test_skip_connection_switch(self):
        # skip_d starts at ones, so zeroing it removes exactly x
        rng = np.random.default_rng(13)
        x = rng.standard_normal((4, 3))
        ssm = init_ssm(ParameterStore(5, np.float64), "s", 3, 2)
        y_with = selective_scan(Tensor(x), ssm).data
        ssm.skip_d.data[...] = 0.0
        y_without = selective_scan(Tensor(x), ssm).data
        np.testing.assert_allclose(y_with - y_without, x, rtol=1e-9, atol=1e-12)

    def test_discrete_pole_inside_unit_interval(self):
        # With a = -exp(a_log) < 0 and delta = softplus(.) > 0 the decay
        # factor exp(delta*a) must land strictly inside (0, 1).
        store = ParameterStore(rng_seed=3, dtype=np.float64)
        ssm = init_ssm(store, "ssm", e_inner=8, d_state=5)
        rng = np.random.default_rng(4)
        x = 10.0 * rng.standard_normal((64, 8))
        pre = x @ ssm.proj_delta_w.data + ssm.proj_delta_b.data
        delta = np.logaddexp(0.0, pre)
        a = -np.exp(ssm.a_log.data)
        a_bar = np.exp(delta[:, :, None] * a[None, :, :])
        assert np.all(a_bar > 0.0)
        assert np.all(a_bar < 1.0)

    def test_gradients_against_finite_differences(self):
        store = ParameterStore(rng_seed=21, dtype=np.float64)
        ssm = init_ssm(store, "ssm", e_inner=3, d_state=2)
        rng = np.random.default_rng(22)
        xd = rng.standard_normal((4, 3))

        def loss_fn(_store):
            return T.tsum(T.mul(selective_scan(Tensor(xd), ssm),
                                selective_scan(Tensor(xd), ssm)))

        err = T.grad_check(loss_fn, store)
        assert err < 1e-6


class TestCausalConv:
    def test_identity_kernel(self):
        # Kernel that only reads the current position reproduces the input.
        x = np.random.default_rng(0).standard_normal((6, 3))
        k = np.zeros((3, 4))
        k[:, -1] = 1.0
        b = np.zeros(3)
        out = causal_conv1d(Tensor(x), Tensor(k), Tensor(b))
        np.testing.assert_allclose(out.data, x)

    def test_delay_kernel(self):
        # Kernel reading one step back delays the signal by one position.
        x = np.random.default_rng(1).standard_normal((5, 2))
        k = np.zeros((2, 4))
        k[:, -2] = 1.0
        out = causal_conv1d(Tensor(x), Tensor(k), Tensor(np.zeros(2))).data
        np.testing.assert_allclose(out[0], 0.0, atol=1e-12)
        np.testing.assert_allclose(out[1:], x[:-1])

    def test_matches_explicit_loop(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 7, 3))
        k = rng.standard_normal((3, 4))
        b = rng.standard_normal(3)
        out = causal_conv1d(Tensor(x), Tensor(k), Tensor(b)).data
        expect = np.zeros_like(x)
        for bi in range(2):
            for t in range(7):
                for e in range(3):
                    acc = b[e]
                    for j in range(4):
                        src = t - (4 - 1 - j)
                        if src >= 0:
                            acc += k[e, j] * x[bi, src, e]
                    expect[bi, t, e] = acc
        np.testing.assert_allclose(out, expect, rtol=1e-6, atol=1e-7)

    def test_rejects_channel_mismatch(self):
        with pytest.raises(T.ShapeError):
            causal_conv1d(Tensor(np.zeros((4, 3))), Tensor(np.zeros((2, 4))),
                          Tensor(np.zeros(2)))

    def test_gradients(self):
        store = ParameterStore(rng_seed=31, dtype=np.float64)
        k = store.uniform("k", (2, 3), 3)
        b = store.zeros("b", (2,))
        x = store.uniform("x", (5, 2), 2)

        def loss_fn(_store):
            out = causal_conv1d(x, k, b)
            return T.tsum(T.mul(out, out))

        assert T.grad_check(loss_fn, store) < 1e-6


class TestMambaBlock:
    def _params(self, seed=41, d_model=4, d_state=3, dtype=np.float64):
        store = ParameterStore(rng_seed=seed, dtype=dtype)
        return store, init_mamba(store, "m", d_model, d_state, d_conv=4, expand=2)

    def test_shapes_2d_and_3d(self):
        _, p = self._params()
        rng = np.random.default_rng(0)
        y2 = mamba_block(Tensor(rng.standard_normal((6, 4))), p)
        y3 = mamba_block(Tensor(rng.standard_normal((2, 6, 4))), p)
        assert y2.data.shape == (6, 4)
        assert y3.data.shape == (2, 6, 4)

    def test_causality_bitwise(self):
        # Perturbing position t must leave outputs before t byte-identical.
        _, p = self._params(dtype=np.float32)
        rng = np.random.default_rng(9)
        for trial in range(20):
            seq = int(rng.integers(2, 17))
            x = rng.standard_normal((seq, 4)).astype(np.float32)
            t = int(rng.integers(1, seq))
            base = mamba_block(Tensor(x), p).data
            x2 = x.copy()
            x2[t:] += rng.standard_normal((seq - t, 4)).astype(np.float32)
            pert = mamba_block(Tensor(x2), p).data
            assert np.array_equal(base[:t], pert[:t]), f"trial {trial}, t={t}"
            assert not np.array_equal(base[t:], pert[t:])

    def test_zero_gate_zeroes_output(self):
        # Forcing the gate half of in_proj to zero gives silu(0) = 0 gates,
        # so the block output collapses to zero (out_proj has no bias).
        _, p = self._params()
        p.in_proj.data[:, p.e_inner:] = 0.0
        x = np.random.default_rng(1).standard_normal((5, 4))
        out = mamba_block(Tensor(x), p).data
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_gradients(self):
        store, p = self._params(seed=43, d_model=3, d_state=2)
        xd = np.random.default_rng(44).standard_normal((4, 3))

        def loss_fn(_store):
            return T.tsum(T.mul(mamba_block(Tensor(xd), p),
                                mamba_block(Tensor(xd), p)))

        assert T.grad_check(loss_fn, store) < 1e-6
