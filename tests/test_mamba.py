"""Selective-scan block: discretization, recurrence oracle, conv, causality."""

import numpy as np
import pytest

from mlsa4rec import kernels
from mlsa4rec import tensor as T
from mlsa4rec.mamba import (_scan_op, causal_conv1d, init_mamba, init_ssm,
                            mamba_block, selective_scan)
from mlsa4rec.tensor import ParameterStore, Tensor

from .conftest import captured, tape_nodes


def discretize_zoh(a, b, delta):
    """Map continuous diagonal dynamics (a, b) and step delta to discrete
    (a_bar, b_bar): a_bar = exp(delta*a), b_bar = ((exp(delta*a)-1)/a)*b,
    with the limit b_bar = delta*b as a -> 0."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    if np.any(delta <= 0):
        raise ValueError("discretize_zoh: delta must be positive")
    a_bar = np.exp(delta * a)
    small = np.abs(a) < 1e-8
    b_bar = np.where(small, delta * b, (a_bar - 1.0) / np.where(small, 1.0, a) * b)
    if a_bar.ndim == 0:
        return float(a_bar), float(b_bar)
    return a_bar, b_bar


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


def plain_scan_op(u, delta, a, bm, cm):
    """The scan alone as a tape op, taking delta as a tensor."""
    squeeze = u.data.ndim == 2
    ud, dd, bd, cd = (np.ascontiguousarray(t.data[None] if squeeze else t.data)
                      for t in (u, delta, bm, cm))
    y, states = kernels.scan_forward(ud, dd, a.data, bd, cd, True)

    def bwd(g):
        grads = kernels.scan_backward(ud, dd, a.data, bd, cd, states,
                                      np.ascontiguousarray(g[None] if squeeze else g))
        return tuple(d[0] if squeeze and d.ndim == 3 else d for d in grads)
    return T.make_op(y[0] if squeeze else y, (u, delta, a, bm, cm), bwd, "scan")


def composed_selective_scan(x, ssm, keep):
    """selective_scan spelled with separate bias, softplus, mask and skip ops."""
    delta = T.softplus(T.add(T.matmul(x, ssm.proj_delta_w), ssm.proj_delta_b))
    if keep is not None:
        delta = T.masked_fill(delta, keep)
    y = plain_scan_op(x, delta, T.neg(T.exp(ssm.a_log)),
                      T.matmul(x, ssm.proj_b), T.matmul(x, ssm.proj_c))
    xd, dsk = x.data, ssm.skip_d.data

    def skip_bwd(g):
        return g * dsk, (g * xd).sum(axis=tuple(range(g.ndim - 1)))
    return T.add(y, T.make_op(xd * dsk, (x, ssm.skip_d), skip_bwd, "mul"))


def explicit_conv(x, k, b):
    """Per-element loop of the causal depthwise convolution, x [B, L, E]."""
    n_batch, seq, e_inner = x.shape
    width = k.shape[1]
    out = np.zeros_like(x)
    for bi in range(n_batch):
        for t in range(seq):
            for e in range(e_inner):
                acc = b[e]
                for j in range(width):
                    src = t - (width - 1 - j)
                    if src >= 0:
                        acc += k[e, j] * x[bi, src, e]
                out[bi, t, e] = acc
    return out


def padded_keep(lengths, seq):
    """[B, L, 1] mask of left-padded rows holding lengths[b] real steps."""
    return (np.arange(seq)[None, :] >= seq - np.asarray(lengths)[:, None])[:, :, None]


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


class TestFusedScanOp:
    """selective_scan's one op against the separate ops it replaces."""

    def _case(self, shape, keep):
        store = ParameterStore(rng_seed=51, dtype=np.float64)
        ssm = init_ssm(store, "ssm", e_inner=shape[-1], d_state=3)
        x = Tensor(np.random.default_rng(52).standard_normal(shape),
                   requires_grad=True)
        gy = np.random.default_rng(53).standard_normal(shape)
        outs, grads = [], []
        for fn in (selective_scan, composed_selective_scan):
            store.zero_grads()
            x.grad = None
            y = fn(x, ssm, keep)
            T.tsum(T.mul(y, Tensor(gy))).backward()
            outs.append(y.data)
            grads.append([x.grad] + [t.grad.copy() for t in store.entries.values()])
        return outs, grads, list(store.entries)

    @pytest.mark.parametrize("shape, keep", [
        ((6, 4), np.arange(6)[:, None] >= 2),
        ((3, 6, 4), padded_keep([6, 2, 4], 6)),
    ])
    def test_output_and_gradients_match_separate_ops(self, shape, keep):
        (fused, plain), (g_fused, g_plain), names = self._case(shape, keep)
        np.testing.assert_allclose(fused, plain, rtol=1e-12, atol=0)
        for name, a, b in zip(["x"] + names, g_fused, g_plain):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=0, err_msg=name)

    def test_returns_a_gradient_for_every_parent(self):
        rng = np.random.default_rng(54)
        leaves = [Tensor(rng.standard_normal(s), requires_grad=True)
                  for s in ((2, 5, 3), (2, 5, 3), (3,), (3, 2), (2, 5, 2),
                            (2, 5, 2), (3,))]
        y = _scan_op(*leaves, keep=padded_keep([5, 3], 5))
        assert y._op == "selective_scan"
        grads = y._backward(np.ones_like(y.data))
        assert [g.shape for g in grads] == [t.shape for t in leaves]

    def test_gradients_with_padding_against_finite_differences(self):
        store = ParameterStore(rng_seed=55, dtype=np.float64)
        ssm = init_ssm(store, "ssm", e_inner=3, d_state=2)
        xd = np.random.default_rng(56).standard_normal((2, 5, 3))
        keep = padded_keep([5, 3], 5)

        def loss_fn(_store):
            y = selective_scan(Tensor(xd), ssm, keep)
            return T.tsum(T.mul(y, y))

        # the separate ops give the same 7.5e-6 here: it is the truncation
        # error of central differences at grad_check's step
        assert T.grad_check(loss_fn, store) < 1e-5


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
        np.testing.assert_allclose(out, explicit_conv(x, k, b), rtol=1e-6, atol=1e-7)

    @pytest.mark.parametrize("seq", [1, 2])
    def test_shorter_than_kernel(self, seq):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, seq, 3))
        k = rng.standard_normal((3, 4))
        b = rng.standard_normal(3)
        out = causal_conv1d(Tensor(x), Tensor(k), Tensor(b)).data
        np.testing.assert_allclose(out, explicit_conv(x, k, b), rtol=1e-12)

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

    def test_tape_keeps_no_copies(self):
        # Sum the distinct buffers that the closures on a block's tape
        # capture, a view counted once through its base, leaving out the
        # parameters and the block's input, in units of one [B, L, E_inner]
        # array.  A separate slice copy, softplus, mask or skip node, a
        # closure that captured an op result, or a u that views one
        # [B, L, 2E] in-projection (the conv reads u when there is no mask)
        # would add a unit.  The block holds 9.76 padded and 9.75 not; when
        # the tape kept every op result it held 14.26 and 13.25.
        B, L, D = 8, 20, 16
        store = ParameterStore(rng_seed=45, dtype=np.float32)
        p = init_mamba(store, "m", D, 8, d_conv=4, expand=2)
        x = Tensor(np.random.default_rng(46).standard_normal((B, L, D), dtype=np.float32))
        owned = {id(t.data) for t in store.entries.values()} | {id(x.data)}
        unit = B * L * p.e_inner * 4
        for keep in (padded_keep([20, 15, 10, 5, 20, 1, 12, 7], L), None):
            out = mamba_block(x, p, keep)
            buffers = {}
            for node in tape_nodes(out):
                if node.leaf is None:
                    for obj in captured(node.backward):
                        if isinstance(obj, Tensor):
                            obj = obj.data
                        if isinstance(obj, np.ndarray):
                            base = obj if obj.base is None else obj.base
                            if id(base) not in owned:
                                buffers[id(base)] = base.nbytes
            assert sum(buffers.values()) <= 10.0 * unit, keep is not None
