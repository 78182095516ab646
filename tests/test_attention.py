"""Low-rank attention: aggregation oracle, dense-loop equivalence, structure."""

import logging

import numpy as np
import pytest

from mlsa4rec import tensor as T
from mlsa4rec.attention import (LsaParams, init_lsa, interest_aggregate,
                                lsa_attention, vanilla_attention)
from mlsa4rec.tensor import ParameterStore, Tensor


def _softmax_rows(m):
    e = np.exp(m - m.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def naive_lsa(x, theta, wq, wk, wv, n_heads):
    """Independent float64 dense-loop transcription of the shared-assignment
    low-rank attention: assign keys to interests, pool keys/values, then
    per-head softmax attention over the pooled rows."""
    x = np.asarray(x, np.float64)
    q, k, v = x @ wq, x @ wk, x @ wv
    seq, d_model = x.shape
    n_int = theta.shape[0]
    d_head = d_model // n_heads
    z = np.zeros((seq, n_int))
    for t in range(seq):
        z[t] = _softmax_rows(k[t] @ theta.T)
    k_pool = z.T @ k
    v_pool = z.T @ v
    out = np.zeros((seq, d_model))
    for h in range(n_heads):
        cols = slice(h * d_head, (h + 1) * d_head)
        for t in range(seq):
            scores = q[t, cols] @ k_pool[:, cols].T / np.sqrt(d_head)
            out[t, cols] = _softmax_rows(scores) @ v_pool[:, cols]
    return out


def naive_vanilla(x, wq, wk, wv, n_heads):
    x = np.asarray(x, np.float64)
    q, k, v = x @ wq, x @ wk, x @ wv
    seq, d_model = x.shape
    d_head = d_model // n_heads
    out = np.zeros((seq, d_model))
    for h in range(n_heads):
        cols = slice(h * d_head, (h + 1) * d_head)
        for t in range(seq):
            scores = q[t, cols] @ k[:, cols].T / np.sqrt(d_head)
            out[t, cols] = _softmax_rows(scores) @ v[:, cols]
    return out


def make_params(seed=0, d_model=8, n_interests=3, n_heads=2):
    store = ParameterStore(rng_seed=seed, dtype=np.float64)
    return store, init_lsa(store, "lsa", d_model, n_interests, n_heads)


class TestInterestAggregate:
    def test_single_interest_pools_everything(self):
        rng = np.random.default_rng(0)
        h = rng.standard_normal((5, 4))
        zt, pooled = interest_aggregate(Tensor(h), Tensor(rng.standard_normal((1, 4))))
        np.testing.assert_allclose(zt.data, np.ones((1, 5)))
        np.testing.assert_allclose(pooled.data, h.sum(axis=0, keepdims=True),
                                   rtol=1e-12)

    def test_matches_direct_computation(self):
        rng = np.random.default_rng(1)
        h = rng.standard_normal((6, 4))
        th = rng.standard_normal((3, 4))
        zt, pooled = interest_aggregate(Tensor(h), Tensor(th))
        z_ref = _softmax_rows(h @ th.T)
        np.testing.assert_allclose(zt.data, z_ref.T, rtol=1e-12)
        np.testing.assert_allclose(pooled.data, z_ref.T @ h, rtol=1e-12)

    def test_assignment_rows_are_distributions(self):
        rng = np.random.default_rng(2)
        zt, _ = interest_aggregate(Tensor(rng.standard_normal((9, 5))),
                                   Tensor(rng.standard_normal((4, 5))))
        assert zt.shape == (4, 9) and np.all(zt.data >= 0)
        np.testing.assert_allclose(zt.data.sum(axis=-2), 1.0, rtol=1e-12)


class TestLsaOracle:
    def test_matches_dense_loop_reference(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            n_heads = int(rng.choice([1, 2]))
            d_model = int(rng.choice([2, 4, 8]))
            n_int = int(rng.integers(1, 4))
            seq = int(rng.integers(1, 9))
            store, p = make_params(seed=trial, d_model=d_model,
                                   n_interests=n_int, n_heads=n_heads)
            x = rng.standard_normal((seq, d_model))
            got = lsa_attention(Tensor(x), p).data
            expect = naive_lsa(x, p.theta.data, p.w_q.data, p.w_k.data,
                               p.w_v.data, n_heads)
            err = np.max(np.abs(got - expect)) / max(1.0, np.max(np.abs(expect)))
            assert err <= 1e-5, f"trial {trial}: rel err {err}"

    def test_batched_equals_per_sequence(self):
        _, p = make_params(seed=9)
        rng = np.random.default_rng(9)
        x = rng.standard_normal((3, 6, 8))
        batched = lsa_attention(Tensor(x), p).data
        for b in range(3):
            single = lsa_attention(Tensor(x[b]), p).data
            np.testing.assert_allclose(batched[b], single, rtol=1e-10, atol=1e-12)

    def test_requires_prototypes(self):
        _, p = make_params()
        p.theta = None
        with pytest.raises(ValueError):
            lsa_attention(Tensor(np.zeros((4, 8))), p)

    def test_head_count_must_divide_width(self):
        store = ParameterStore(0)
        with pytest.raises(ValueError):
            init_lsa(store, "lsa", d_model=6, n_interests=2, n_heads=4)

    def test_logs_when_no_rank_reduction(self, caplog):
        _, p = make_params(n_interests=3)
        with caplog.at_level(logging.INFO, logger="mlsa4rec.attention"):
            lsa_attention(Tensor(np.zeros((2, 8))), p)
        assert any("no rank reduction" in r.message for r in caplog.records)


class TestLsaStructure:
    def test_single_interest_collapses_rows(self):
        # P=1 forces every query through one pooled key/value row, so all
        # output positions coincide — direct witness of the L x P bottleneck.
        _, p = make_params(seed=6, n_interests=1)
        x = np.random.default_rng(6).standard_normal((7, 8))
        out = lsa_attention(Tensor(x), p).data
        np.testing.assert_allclose(out, np.broadcast_to(out[0], out.shape),
                                   rtol=1e-10, atol=1e-12)

    def test_permuting_positions_permutes_outputs(self):
        # no causal mask and order-free pooling => position covariance
        _, p = make_params(seed=7)
        rng = np.random.default_rng(7)
        x = rng.standard_normal((6, 8))
        perm = rng.permutation(6)
        base = lsa_attention(Tensor(x), p).data
        shuffled = lsa_attention(Tensor(x[perm]), p).data
        np.testing.assert_allclose(shuffled, base[perm], rtol=1e-9, atol=1e-11)

    def test_single_position_sequence(self):
        _, p = make_params(seed=8)
        x = np.random.default_rng(8).standard_normal((1, 8))
        out = lsa_attention(Tensor(x), p).data
        assert out.shape == (1, 8)
        np.testing.assert_allclose(
            out, naive_lsa(x, p.theta.data, p.w_q.data, p.w_k.data,
                           p.w_v.data, 2), rtol=1e-9, atol=1e-11)

    def test_gradients(self):
        store, p = make_params(seed=10, d_model=4, n_interests=2, n_heads=2)
        x = np.random.default_rng(10).standard_normal((5, 4))

        def loss_fn(_store):
            out = lsa_attention(Tensor(x), p)
            return T.tsum(T.mul(out, out))

        assert T.grad_check(loss_fn, store) < 1e-6


class TestVanillaAttention:
    def test_matches_dense_loop_reference(self):
        rng = np.random.default_rng(11)
        for trial in range(10):
            n_heads = int(rng.choice([1, 2]))
            _, p = make_params(seed=20 + trial, n_heads=n_heads, n_interests=None)
            x = rng.standard_normal((int(rng.integers(1, 9)), 8))
            got = vanilla_attention(Tensor(x), p).data
            expect = naive_vanilla(x, p.w_q.data, p.w_k.data, p.w_v.data, n_heads)
            np.testing.assert_allclose(got, expect, rtol=1e-9, atol=1e-11)

    def test_uniform_attention_averages_values(self):
        # identical positions => uniform weights => output is the mean value
        _, p = make_params(seed=12, n_interests=None, n_heads=1)
        x = np.tile(np.random.default_rng(12).standard_normal((1, 8)), (5, 1))
        out = vanilla_attention(Tensor(x), p).data
        np.testing.assert_allclose(out, (x @ p.w_v.data), rtol=1e-10)

    def test_no_interest_count_builds_no_prototypes(self):
        store = ParameterStore(0)
        p = init_lsa(store, "a", 8, None, 2)
        assert p.theta is None
        assert list(store.entries) == ["a.w_q", "a.w_k", "a.w_v"]

    def test_gradients(self):
        store, p = make_params(seed=13, d_model=4, n_heads=2, n_interests=None)
        x = np.random.default_rng(13).standard_normal((4, 4))

        def loss_fn(_store):
            out = vanilla_attention(Tensor(x), p)
            return T.tsum(T.mul(out, out))

        assert T.grad_check(loss_fn, store) < 1e-5
