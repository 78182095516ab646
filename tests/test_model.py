"""Model assembly: fusion-layer oracle, variants, stack, prediction contracts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from mlsa4rec import tensor as T
from mlsa4rec.model import MlsaModel, ModelConfig, VARIANTS
from mlsa4rec.tensor import load_checkpoint, save_checkpoint
from mlsa4rec.train_eval import model_grad_check


# --- independent numpy transcription of the forward pieces -----------------

def np_silu(x):
    return x / (1.0 + np.exp(-x))


def np_gelu(x):
    return x * 0.5 * (1.0 + erf(x / np.sqrt(2.0)))


def np_layernorm(x, g, b, eps=1e-12):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * g + b


def np_softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def np_mamba(x, p):
    """Per-step float64 re-implementation of the Mamba block on [L, D]."""
    xz = x @ p.in_proj.data
    e_inner = p.e_inner
    u, z = xz[:, :e_inner], xz[:, e_inner:]
    kw, kb = p.conv_w.data, p.conv_b.data
    k = kw.shape[1]
    seq = x.shape[0]
    xp = np.vstack([np.zeros((k - 1, e_inner)), u])
    conv = np.zeros_like(u)
    for t in range(seq):
        for j in range(k):
            conv[t] += kw[:, j] * xp[t + j]
    u2 = np_silu(conv + kb)

    ssm = p.ssm
    bm = u2 @ ssm.proj_b.data
    cm = u2 @ ssm.proj_c.data
    delta = np.logaddexp(0.0, u2 @ ssm.proj_delta_w.data + ssm.proj_delta_b.data)
    a = -np.exp(ssm.a_log.data)
    n_state = a.shape[1]
    h = np.zeros((e_inner, n_state))
    y = np.zeros_like(u2)
    for t in range(seq):
        a_bar = np.exp(delta[t][:, None] * a)
        b_bar = (a_bar - 1.0) / a * bm[t][None, :]
        h = a_bar * h + b_bar * u2[t][:, None]
        y[t] = h @ cm[t]
    y = y + ssm.skip_d.data * u2
    return (y * np_silu(z)) @ p.out_proj.data


def np_lsa(x, p):
    q, k, v = x @ p.w_q.data, x @ p.w_k.data, x @ p.w_v.data
    z = np_softmax(k @ p.theta.data.T)
    k_pool, v_pool = z.T @ k, z.T @ v
    d_head = x.shape[-1] // p.n_heads
    out = np.zeros_like(x)
    for h in range(p.n_heads):
        cols = slice(h * d_head, (h + 1) * d_head)
        attn = np_softmax(q[:, cols] @ k_pool[:, cols].T / np.sqrt(d_head))
        out[:, cols] = attn @ v_pool[:, cols]
    return out


def np_fusion_layer(e, model):
    """Straight-line transcription of the Mamba/attention fusion on [L, D]."""
    ln = {name: (g.data, b.data) for name, (g, b) in model.lns.items()}
    h = np_layernorm(np_mamba(e, model.il_mamba) + e, *ln["il.ln1"])
    h_attn = np_layernorm(np_lsa(h, model.il_lsa) + h, *ln["il.ln2"])
    gate = np_gelu(h_attn @ model.mlp1[0].data + model.mlp1[1].data)
    gated_norm = np_layernorm(h * gate, *ln["il.ln3"])
    mixed = np.concatenate([gated_norm, gate], axis=-1)
    return np_layernorm(mixed @ model.mlp2[0].data + model.mlp2[1].data
                        + e @ model.mlp3[0].data + model.mlp3[1].data,
                        *ln["il.ln4"])


def left_pad(rows, width):
    """Rows of item ids right-aligned in a [len(rows), width] id array."""
    out = np.zeros((len(rows), width), dtype=np.int64)
    for r, seq in enumerate(rows):
        out[r, width - len(seq):] = seq
    return out


# rows with different numbers of leading zeros; the first two columns
# are padding in every row
MIXED = np.array([[0, 0, 0, 3, 4, 5, 6, 7],
                  [0, 0, 0, 0, 0, 0, 1, 2],
                  [0, 0, 18, 9, 8, 7, 6, 5]])


def small_config(**kw):
    base = dict(vocab_size=20, max_len=8, d_model=8, d_state=4, n_interests=2,
                n_heads=2, n_layers=1, expand=2, d_conv=4)
    base.update(kw)
    return ModelConfig(**base)


class TestFusionLayerOracle:
    def test_matches_independent_transcription(self):
        model = MlsaModel(small_config(n_layers=0), seed=3)
        model.cast_float64()
        ids = np.array([4, 9, 1, 17])
        _, inter = model.forward(ids)
        e = inter["embeddings"].data[0]
        expect = np_fusion_layer(e, model)
        got = inter["fused"].data[0]
        err = np.max(np.abs(got - expect)) / max(1.0, np.max(np.abs(expect)))
        assert err <= 1e-5, f"rel err {err}"

    def test_gate_range(self):
        # gelu gates lie in (-0.17..., inf) and the gated stream vanishes
        # wherever the gate does
        model = MlsaModel(small_config(), seed=1)
        _, inter = model.forward(np.array([1, 2, 3]))
        assert inter["gate"].data.min() > -0.2
        np.testing.assert_allclose(
            inter["gated"].data, inter["hidden"].data * inter["gate"].data,
            rtol=1e-6)

    def test_gated_norm_standardized_at_init(self):
        # fresh LN has unit gain / zero bias => rows come out standardized
        model = MlsaModel(small_config(), seed=2)
        _, inter = model.forward(np.arange(1, 9))
        rows = inter["gated_norm"].data.reshape(-1, 8)
        np.testing.assert_allclose(rows.mean(axis=-1), 0.0, atol=1e-5)
        np.testing.assert_allclose(rows.std(axis=-1), 1.0, rtol=1e-4)


class TestStack:
    def test_zero_layers_is_identity(self):
        model = MlsaModel(small_config(n_layers=0), seed=4)
        _, inter = model.forward(np.array([1, 2, 3]))
        np.testing.assert_allclose(inter["last_hidden"].data[0],
                                   inter["fused"].data[0, -1], rtol=1e-7)

    def test_one_layer_matches_manual_recurrence(self):
        model = MlsaModel(small_config(n_layers=1), seed=5)
        model.cast_float64()
        _, inter = model.forward(np.array([3, 7, 2, 11]))
        fused = inter["fused"].data[0]
        layer = model.stack[0]
        g, b = model.lns["stack.0.ln"]
        expect = np_layernorm(np_mamba(fused, layer.mamba) + fused,
                              g.data, b.data)
        np.testing.assert_allclose(inter["stack_0"].data[0], expect,
                                   rtol=1e-7, atol=1e-9)

    def test_depth_changes_output(self):
        ids = np.array([1, 2, 3, 4])
        out0 = MlsaModel(small_config(n_layers=0), seed=6).score(ids)
        out2 = MlsaModel(small_config(n_layers=2), seed=6).score(ids)
        assert not np.allclose(out0, out2)

    def test_pffn_stack_matches_manual(self):
        model = MlsaModel(small_config(variant="v4", n_layers=1), seed=7)
        model.cast_float64()
        _, inter = model.forward(np.array([5, 6]))
        fused = inter["fused"].data[0]
        p = model.stack[0].pffn
        y = np_gelu(fused @ p.w1.data + p.b1.data) @ p.w2.data + p.b2.data
        g, b = model.lns["stack.0.ln"]
        expect = np_layernorm(y + fused, g.data, b.data)
        np.testing.assert_allclose(inter["stack_0"].data[0], expect,
                                   rtol=1e-7, atol=1e-9)


def predict(model, ids):
    """The next-item distribution: the softmax of model.score."""
    return T.softmax(T.Tensor(model.score(ids))).data


class TestPrediction:
    def test_predict_is_distribution(self):
        model = MlsaModel(small_config(), seed=8)
        probs = predict(model, np.array([1, 2, 3]))
        assert probs.shape == (20,)
        assert np.all(probs > 0)
        assert probs.sum() == pytest.approx(1.0, abs=1e-5)

    def test_batched_predict(self):
        model = MlsaModel(small_config(), seed=8)
        probs = predict(model, np.array([[1, 2, 3], [4, 5, 6]]))
        assert probs.shape == (2, 20)
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-5)

    def test_score_and_predict_rank_identically(self):
        model = MlsaModel(small_config(), seed=9)
        ids = np.array([2, 4, 6])
        assert np.argsort(model.score(ids)).tolist() == \
            np.argsort(predict(model, ids)).tolist()

    def test_single_and_batch_agree(self):
        model = MlsaModel(small_config(), seed=10)
        ids = np.array([1, 5, 9, 13])
        np.testing.assert_allclose(model.score(ids),
                                   model.score(ids[None])[0],
                                   rtol=1e-6, atol=1e-7)

    def test_deterministic_across_calls_and_seeds(self):
        ids = np.array([1, 2, 3])
        a = MlsaModel(small_config(), seed=11).score(ids)
        b = MlsaModel(small_config(), seed=11).score(ids)
        c = MlsaModel(small_config(), seed=12).score(ids)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestVariants:
    def test_all_variants_build_and_run(self):
        ids = np.array([[1, 2, 3], [4, 5, 6]])
        outs = {}
        for v in VARIANTS:
            model = MlsaModel(small_config(variant=v), seed=0)
            logits, _ = model.forward(ids)
            assert logits.data.shape == (2, 20)
            outs[v] = logits.data
        for v in VARIANTS[1:]:
            assert not np.allclose(outs["default"], outs[v])

    def test_v1_has_no_attention_parameters(self):
        names = list(MlsaModel(small_config(variant="v1")).params.entries)
        assert not any(".lsa." in n or ".mlp" in n for n in names)
        assert any("il.mamba" in n for n in names)

    def test_v2_has_no_state_space_parameters(self):
        names = list(MlsaModel(small_config(variant="v2")).params.entries)
        assert not any(".mamba." in n or ".ssm." in n for n in names)
        assert any(".pffn." in n for n in names)
        assert any(".lsa." in n for n in names)

    def test_v3_uses_attention_without_prototypes(self):
        names = list(MlsaModel(small_config(variant="v3")).params.entries)
        assert "il.lsa.theta" not in names
        assert "il.lsa.w_q" in names

    def test_v4_swaps_stack_only(self):
        names = list(MlsaModel(small_config(variant="v4")).params.entries)
        assert any(n.startswith("il.mamba") for n in names)
        assert any(".pffn." in n for n in names)
        assert not any(n.startswith("stack.") and ".mamba." in n for n in names)

    def test_v3_never_reads_interest_count(self):
        ids = np.array([[0, 0, 3, 4, 5, 6, 7, 8], [1, 2, 3, 4, 5, 6, 7, 8]])
        m_1 = MlsaModel(small_config(variant="v3", n_interests=1), seed=15)
        m_7 = MlsaModel(small_config(variant="v3", n_interests=7), seed=15)
        assert list(m_1.params.entries) == list(m_7.params.entries)
        for name, t in m_1.params.entries.items():
            np.testing.assert_array_equal(t.data, m_7.params[name].data)
        np.testing.assert_array_equal(m_1.score(ids), m_7.score(ids))

    def test_v3_equals_default_on_single_position(self):
        # with one position and one interest, pooling and plain attention
        # both put all weight on that position, so sharing weights makes
        # the two architectures numerically identical
        cfg_d = small_config(variant="default", n_interests=1, n_layers=1)
        cfg_3 = small_config(variant="v3", n_interests=1, n_layers=1)
        m_d = MlsaModel(cfg_d, seed=13)
        m_3 = MlsaModel(cfg_3, seed=14)
        shared = {n: v.data.copy() for n, v in m_d.params.entries.items()
                  if n != "il.lsa.theta"}
        m_3.params.load_values(shared)
        ids = np.array([7])
        np.testing.assert_allclose(m_3.score(ids), m_d.score(ids),
                                   rtol=1e-5, atol=1e-6)

    def test_parameter_manifest_default(self):
        model = MlsaModel(small_config(n_layers=2))
        names = set(model.params.entries)
        mamba_leaves = ["in_proj.w", "conv.w", "conv.b", "ssm.a_log",
                        "ssm.proj_B.w", "ssm.proj_C.w", "ssm.proj_delta.w",
                        "ssm.proj_delta.b", "ssm.skip_d", "out_proj.w"]
        expect = {"embedding.M", "head.W", "head.b",
                  "il.lsa.theta", "il.lsa.w_q", "il.lsa.w_k", "il.lsa.w_v",
                  "il.mlp1.w", "il.mlp1.b", "il.mlp2.w", "il.mlp2.b",
                  "il.mlp3.w", "il.mlp3.b"}
        expect |= {f"il.mamba.{leaf}" for leaf in mamba_leaves}
        expect |= {f"il.ln{i}.{s}" for i in (1, 2, 3, 4) for s in "gb"}
        for b in range(2):
            expect |= {f"stack.{b}.mamba.{leaf}" for leaf in mamba_leaves}
            expect |= {f"stack.{b}.ln.g", f"stack.{b}.ln.b"}
        assert names == expect

    def test_config_validation(self):
        with pytest.raises(ValueError):
            small_config(variant="v9").validate()
        with pytest.raises(ValueError):
            small_config(d_model=6, n_heads=4).validate()
        with pytest.raises(ValueError):
            small_config(dropout=1.0).validate()
        with pytest.raises(ValueError, match="vocab_size must cover"):
            small_config(vocab_size=1).validate()
        with pytest.raises(ValueError, match="d_state must be >= 1"):
            small_config(d_state=0).validate()
        with pytest.raises(ValueError):
            small_config(n_layers=-1).validate()


class TestPaddingAndDropout:
    def test_left_padding_neutral_at_init(self):
        # forward drops the columns that are padding in every row, so the
        # padded and unpadded inputs run the same computation
        cfg = small_config(n_layers=0)
        model = MlsaModel(cfg, seed=15)
        ids = np.array([3, 8, 2, 14, 6])
        padded = np.concatenate([np.zeros(3, dtype=np.int64), ids])
        a = model.score(ids)
        b = model.score(padded)
        np.testing.assert_allclose(a, b, rtol=1e-5, atol=1e-5)

    @settings(max_examples=60, deadline=None)
    @given(variant=st.sampled_from(VARIANTS), n_layers=st.integers(0, 2),
           seed=st.integers(0, 2**16),
           history=st.lists(st.integers(1, 19), min_size=1, max_size=5),
           prefix=st.lists(st.integers(1, 19), min_size=1, max_size=4),
           others=st.lists(st.lists(st.integers(1, 19), min_size=1, max_size=9),
                           max_size=2),
           extra=st.integers(1, 4))
    def test_scores_ignore_padding(self, variant, n_layers, seed, history,
                                   prefix, others, extra):
        # Trained-looking weights: every parameter moved off its initial
        # value, the padding row and the norm and conv biases included.
        model = MlsaModel(small_config(variant=variant, n_layers=n_layers),
                          seed=seed)
        model.cast_float64()
        rng = np.random.default_rng(seed)
        for t in model.params.entries.values():
            t.data += 0.3 * rng.standard_normal(t.data.shape)
        alone = model.score(np.array(history))
        padded = model.score(left_pad([history], len(history) + extra)[0])
        # prefix + history is longer than history, so history keeps real
        # padding inside the batch
        rows = [history, prefix + history] + others
        width = max(map(len, rows)) + extra
        batched = model.score(left_pad(rows, width))
        np.testing.assert_allclose(padded, alone, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(batched[0], alone, rtol=1e-9, atol=1e-12)
        longer = model.score(np.array(prefix + history))
        np.testing.assert_allclose(batched[1], longer, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_padding_row_gets_no_gradient(self, variant):
        model = MlsaModel(small_config(variant=variant, n_layers=2, dropout=0.1),
                          seed=21)
        logits, _ = model.forward(MIXED, training=True)
        T.cross_entropy(logits, np.array([1, 2, 3])).backward()
        np.testing.assert_array_equal(model.embedding.grad[0], 0.0)
        assert np.any(model.embedding.grad[MIXED[0, -1]] != 0.0)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_gradient_check_on_padded_batch(self, variant):
        # criterion 5's check and tolerance on rows with different padding
        cfg = small_config(variant=variant, n_layers=1)
        err = model_grad_check(cfg, MIXED, np.array([4, 9, 13]), seed=5,
                               n_samples=200)
        assert err < 1e-3

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_all_padding_batch_keeps_one_column(self, variant):
        model = MlsaModel(small_config(variant=variant), seed=22)
        logits, inter = model.forward(np.zeros((3, 6), dtype=np.int64))
        assert inter["embeddings"].shape[1] == 1
        assert logits.shape == (3, 20)
        assert np.all(np.isfinite(logits.data))

    def test_leading_zeros_score_as_trimmed(self):
        model = MlsaModel(small_config(), seed=23)
        np.testing.assert_array_equal(model.score(np.array([0, 0, 0, 5, 6, 7])),
                                      model.score(np.array([5, 6, 7])))

    def test_predict_on_padded_batch_is_distribution(self):
        probs = predict(MlsaModel(small_config(), seed=24), MIXED)
        assert probs.shape == (3, 20)
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-5)

    def test_dropout_only_in_training_mode(self):
        model = MlsaModel(small_config(dropout=0.5), seed=17)
        ids = np.array([1, 2, 3])
        a = model.score(ids)
        b = model.score(ids)
        np.testing.assert_array_equal(a, b)
        la, _ = model.forward(ids, training=True)
        lb, _ = model.forward(ids, training=True)
        assert not np.array_equal(la.data, lb.data)

    def test_dropout_reseed_reproduces(self):
        model = MlsaModel(small_config(dropout=0.3), seed=18)
        ids = np.array([4, 5, 6])
        model.reseed_dropout(99)
        a, _ = model.forward(ids, training=True)
        model.reseed_dropout(99)
        b, _ = model.forward(ids, training=True)
        np.testing.assert_array_equal(a.data, b.data)


class TestStoreManagement:
    def test_cast_float64_preserves_function(self):
        model = MlsaModel(small_config(), seed=19)
        ids = np.array([1, 2, 3])
        before = model.score(ids)
        model.cast_float64()
        assert model.params["head.W"].data.dtype == np.float64
        after = model.score(ids)
        np.testing.assert_allclose(after, before, rtol=1e-5, atol=1e-6)

    def test_checkpoint_restores_scores(self, tmp_path):
        cfg = small_config()
        src = MlsaModel(cfg, seed=20)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(src.params, path)
        dst = MlsaModel(cfg, seed=21)
        ids = np.array([2, 3, 5, 7])
        assert not np.allclose(dst.score(ids), src.score(ids))
        dst.params.load_values(load_checkpoint(path))
        np.testing.assert_array_equal(dst.score(ids), src.score(ids))


# bundle field -> the suffix of the store name it must hold
MAMBA_FIELDS = {"in_proj": "in_proj.w", "conv_w": "conv.w", "conv_b": "conv.b",
                "out_proj": "out_proj.w"}
SSM_FIELDS = {"a_log": "a_log", "proj_b": "proj_B.w", "proj_c": "proj_C.w",
              "proj_delta_w": "proj_delta.w", "proj_delta_b": "proj_delta.b",
              "skip_d": "skip_d"}


def wired_params(model):
    """(tensor a model field holds, the store name that field stands for)."""
    pairs = [(model.embedding, "embedding.M"), (model.head_w, "head.W"),
             (model.head_b, "head.b")]

    def mamba(p, prefix):
        pairs.extend((getattr(p, f), f"{prefix}.{n}") for f, n in MAMBA_FIELDS.items())
        pairs.extend((getattr(p.ssm, f), f"{prefix}.ssm.{n}")
                     for f, n in SSM_FIELDS.items())

    if model.il_mamba is not None:
        mamba(model.il_mamba, "il.mamba")
    if model.il_lsa is not None:
        pairs.extend((getattr(model.il_lsa, f), f"il.lsa.{f}")
                     for f in ("theta", "w_q", "w_k", "w_v")
                     if getattr(model.il_lsa, f) is not None)
        for i, (w, b) in enumerate((model.mlp1, model.mlp2, model.mlp3), start=1):
            pairs += [(w, f"il.mlp{i}.w"), (b, f"il.mlp{i}.b")]
    for b, layer in enumerate(model.stack):
        if layer.mamba is not None:
            mamba(layer.mamba, f"stack.{b}.mamba")
        else:
            pairs.extend((getattr(layer.pffn, f), f"stack.{b}.pffn.{f}")
                         for f in ("w1", "b1", "w2", "b2"))
    for name, (g, b) in model.lns.items():
        pairs += [(g, f"{name}.g"), (b, f"{name}.b")]
    return pairs


class TestWiring:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_every_field_holds_its_named_parameter(self, variant):
        # same-shaped parameters (proj_B and proj_C, w_q, w_k and w_v) would
        # run if swapped; only their names tell them apart
        model = MlsaModel(small_config(variant=variant, n_layers=1), seed=23)
        pairs = wired_params(model)
        for tensor, name in pairs:
            assert tensor is model.params[name], name
        assert sorted(name for _, name in pairs) == sorted(model.params.entries)
