"""Acceptance gate: ten end-to-end checks with one verdict line apiece.

Each test computes its quantities, appends a human-readable PASS/FAIL
line to the run summary (see conftest), and then asserts.  Heavier
checks (runtime scaling, learning sanity) run at calibrated desk-scale
budgets; the raw-data preprocessing check skips when no ratings files
are installed.
"""

import os
import time

import numpy as np
import pytest
from scipy.special import erf

from .conftest import ACCEPTANCE
from mlsa4rec import kernels
from mlsa4rec import tensor as T
from mlsa4rec.attention import init_lsa, lsa_attention
from mlsa4rec.bench import bench_scaling
from mlsa4rec.cli import HANDLERS
from mlsa4rec.config import SCHEMA
from mlsa4rec.data import (build_split, dataset_stats, kcore_filter,
                           parse_amazon, parse_movielens,
                           synthetic_successor_dataset)
from mlsa4rec.mamba import init_mamba, mamba_block
from mlsa4rec.model import MlsaModel, ModelConfig
from mlsa4rec.tensor import ParameterStore, Tensor
from mlsa4rec.train_eval import (TrainConfig, evaluate, metrics_at_k,
                                 model_grad_check, train)


def _verdict(criterion: int, ok: bool, detail: str) -> None:
    line = f"criterion {criterion:>2}: {'PASS' if ok else 'FAIL'} — {detail}"
    ACCEPTANCE.append(line)
    print(line)
    assert ok, line


def _skip(criterion: int, reason: str) -> None:
    ACCEPTANCE.append(f"criterion {criterion:>2}: SKIP — {reason}")
    pytest.skip(reason)


def _rel_err(got, expect):
    return float(np.max(np.abs(got - expect)) / max(1.0, np.max(np.abs(expect))))


# --------------------------------------------------------------------------
# 1. preprocessing statistics on the raw ratings files


def _find_file(candidates):
    roots = [os.environ.get("MLSA_DATA_DIR", ""), "data",
             os.path.join(os.path.dirname(__file__), "..", "data")]
    for root in roots:
        if not root:
            continue
        for name in candidates:
            path = os.path.join(root, name)
            if os.path.exists(path):
                return path
    return None


def test_criterion_01_preprocessing_statistics():
    ml_path = _find_file(["ml-1m/ratings.dat", "movielens-1m/ratings.dat",
                          "ratings.dat"])
    if ml_path is None:
        _skip(1, "raw MovieLens-1M ratings file not installed "
                 "(set MLSA_DATA_DIR or place data/ml-1m/ratings.dat)")
    t0 = time.monotonic()
    ds, _ = build_split(kcore_filter(parse_movielens(ml_path), k=5))
    users, items, inter, avg = dataset_stats(ds)
    elapsed = time.monotonic() - t0
    checks = [(users, 6040), (items, 3416), (inter, 999611)]
    ok = all(a == b for a, b in checks) and abs(avg - 165.4) <= 0.05 \
        and elapsed < 60.0
    detail = (f"movielens {users}/{items}/{inter}/avg {avg:.4f} "
              f"in {elapsed:.1f}s (want 6040/3416/999611/165.4±0.05, <60s)")
    for names, want in ((["amazon-beauty.csv", "ratings_Beauty.csv"],
                         (22363, 12101, 198502, 8.9)),
                        (["amazon-video-games.csv", "ratings_Video_Games.csv"],
                         (14494, 6950, 132209, 9.1))):
        path = _find_file(names)
        if path is None:
            continue
        ds2, _ = build_split(kcore_filter(parse_amazon(path), k=5))
        u2, i2, n2, a2 = dataset_stats(ds2)
        ok = ok and (u2, i2, n2) == want[:3] and abs(a2 - want[3]) <= 0.05
        detail += f"; {names[0]} {u2}/{i2}/{n2}/avg {a2:.2f}"
    _verdict(1, ok, detail)


# --------------------------------------------------------------------------
# 2. selective-scan recurrence against a naive per-step reference


def _naive_recurrence(u, delta, a, bm, cm):
    seq, e_inner = u.shape
    n_state = a.shape[1]
    h = np.zeros((e_inner, n_state))
    y = np.zeros((seq, e_inner))
    for t in range(seq):
        for e in range(e_inner):
            for n in range(n_state):
                a_bar = np.exp(delta[t, e] * a[e, n])
                if abs(a[e, n]) < 1e-8:
                    b_bar = delta[t, e] * bm[t, n]
                else:
                    b_bar = (a_bar - 1.0) / a[e, n] * bm[t, n]
                h[e, n] = a_bar * h[e, n] + b_bar * u[t, e]
                y[t, e] += cm[t, n] * h[e, n]
    return y


def test_criterion_02_scan_oracle():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        seq = int(rng.integers(1, 33))
        e_inner = int(rng.integers(1, 9))
        n_state = int(rng.integers(1, 9))
        u = rng.standard_normal((seq, e_inner))
        delta = rng.uniform(0.001, 1.5, size=(seq, e_inner))
        a = -np.exp(rng.standard_normal((e_inner, n_state)))
        bm = rng.standard_normal((seq, n_state))
        cm = rng.standard_normal((seq, n_state))
        y, _ = kernels.scan_forward(u[None], delta[None], a, bm[None],
                                    cm[None], False)
        worst = max(worst, _rel_err(y[0], _naive_recurrence(u, delta, a, bm, cm)))
    _verdict(2, worst <= 1e-5,
             f"scan vs per-step reference, 100 instances, worst rel err "
             f"{worst:.2e} (tol 1e-5)")


# --------------------------------------------------------------------------
# 3. low-rank attention against a dense-loop reference


def _naive_low_rank_attention(x, theta, wq, wk, wv, n_heads):
    def softmax_row(v):
        e = np.exp(v - v.max())
        return e / e.sum()

    q, k, v = x @ wq, x @ wk, x @ wv
    seq, d_model = x.shape
    n_int = theta.shape[0]
    d_head = d_model // n_heads
    z = np.zeros((seq, n_int))
    for t in range(seq):
        z[t] = softmax_row(k[t] @ theta.T)
    k_pool = z.T @ k
    v_pool = z.T @ v
    out = np.zeros((seq, d_model))
    for h in range(n_heads):
        cols = slice(h * d_head, (h + 1) * d_head)
        for t in range(seq):
            w = softmax_row(q[t, cols] @ k_pool[:, cols].T / np.sqrt(d_head))
            out[t, cols] = w @ v_pool[:, cols]
    return out


def test_criterion_03_low_rank_attention_oracle():
    rng = np.random.default_rng(3031)
    worst = 0.0
    for trial in range(100):
        n_heads = int(rng.choice([1, 2]))
        d_model = int(n_heads * rng.integers(1, 9 // n_heads))
        n_int = int(rng.integers(1, 4))
        seq = int(rng.integers(1, 9))
        store = ParameterStore(rng_seed=trial, dtype=np.float64)
        p = init_lsa(store, "lsa", d_model, n_int, n_heads)
        x = rng.standard_normal((seq, d_model))
        got = lsa_attention(Tensor(x), p).data
        expect = _naive_low_rank_attention(x, p.theta.data, p.w_q.data,
                                           p.w_k.data, p.w_v.data, n_heads)
        worst = max(worst, _rel_err(got, expect))
    _verdict(3, worst <= 1e-5,
             f"low-rank attention vs dense loops, 100 instances, worst rel "
             f"err {worst:.2e} (tol 1e-5)")


# --------------------------------------------------------------------------
# 4. fusion layer against a straight-line transcription


def test_criterion_04_fusion_layer_oracle():
    cfg = ModelConfig(vocab_size=20, max_len=4, d_model=8, d_state=4,
                      n_interests=2, n_heads=2, n_layers=0)
    model = MlsaModel(cfg, seed=4)
    model.cast_float64()
    ids = np.array([3, 11, 7, 18])
    _, inter = model.forward(ids)
    e = inter["embeddings"].data[0]

    def layernorm(x, g, b):
        mu = x.mean(-1, keepdims=True)
        return (x - mu) / np.sqrt(x.var(-1, keepdims=True) + 1e-12) * g + b

    def gelu(x):
        return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))

    def silu(x):
        return x / (1.0 + np.exp(-x))

    mp = model.il_mamba
    xz = e @ mp.in_proj.data
    u, z = xz[:, :mp.e_inner], xz[:, mp.e_inner:]
    kw = mp.conv_w.data
    pad = np.zeros((kw.shape[1] - 1, mp.e_inner))
    xp = np.vstack([pad, u])
    conv = sum(kw[:, j] * xp[j:j + len(e)] for j in range(kw.shape[1]))
    u = silu(conv + mp.conv_b.data)
    sp = mp.ssm
    bm, cm = u @ sp.proj_b.data, u @ sp.proj_c.data
    delta = np.logaddexp(0.0, u @ sp.proj_delta_w.data + sp.proj_delta_b.data)
    y = _naive_recurrence(u, delta, -np.exp(sp.a_log.data), bm, cm)
    y = y + sp.skip_d.data * u
    mamba_out = (y * silu(z)) @ mp.out_proj.data

    ln = {name: (g.data, b.data) for name, (g, b) in model.lns.items()}
    h = layernorm(mamba_out + e, *ln["il.ln1"])
    lp = model.il_lsa
    attn = _naive_low_rank_attention(h, lp.theta.data, lp.w_q.data,
                                     lp.w_k.data, lp.w_v.data, lp.n_heads)
    h_attn = layernorm(attn + h, *ln["il.ln2"])
    gate = gelu(h_attn @ model.mlp1[0].data + model.mlp1[1].data)
    gated_norm = layernorm(h * gate, *ln["il.ln3"])
    fused = layernorm(np.concatenate([gated_norm, gate], axis=-1)
                      @ model.mlp2[0].data + model.mlp2[1].data
                      + e @ model.mlp3[0].data + model.mlp3[1].data,
                      *ln["il.ln4"])

    err = _rel_err(inter["fused"].data[0], fused)
    _verdict(4, err <= 1e-5,
             f"fusion layer vs transcription on fixed 4x8 input, rel err "
             f"{err:.2e} (tol 1e-5)")


# --------------------------------------------------------------------------
# 5. full-model gradient check


def test_criterion_05_gradient_check():
    cfg = ModelConfig(vocab_size=20, max_len=8, d_model=8, d_state=4,
                      n_interests=2, n_heads=2, n_layers=1)
    rng = np.random.default_rng(5)
    ids = rng.integers(1, 20, size=(2, 8))
    targets = rng.integers(1, 20, size=2)
    t0 = time.monotonic()
    err = model_grad_check(cfg, ids, targets, seed=5, n_samples=200)
    elapsed = time.monotonic() - t0
    _verdict(5, err < 1e-3 and elapsed < 60.0,
             f"2x8 toy batch, 200 sampled parameters, max rel err {err:.2e} "
             f"(tol 1e-3) in {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 6. causality of the recurrent block


def test_criterion_06_causality():
    store = ParameterStore(6)
    params = init_mamba(store, "m", d_model=16, d_state=8, d_conv=4, expand=2)
    rng = np.random.default_rng(6)
    ok = True
    for _ in range(20):
        seq = int(rng.integers(4, 33))
        x = rng.standard_normal((seq, 16)).astype(np.float32)
        t = int(rng.integers(1, seq))
        base = mamba_block(Tensor(x), params).data
        x2 = x.copy()
        x2[t] += rng.standard_normal(16).astype(np.float32)
        pert = mamba_block(Tensor(x2), params).data
        ok = ok and np.array_equal(base[:t], pert[:t]) \
            and not np.array_equal(base[t:], pert[t:])
    _verdict(6, ok, "perturbing position t leaves outputs before t bitwise "
                    "identical in 20/20 trials")


# --------------------------------------------------------------------------
# 7. runtime scaling


def test_criterion_07_runtime_scaling():
    t0 = time.monotonic()
    res = bench_scaling(("full_model", "lsa", "vanilla_attention"),
                        (256, 512, 1024, 2048, 4096), reps=5,
                        d_model=64, d_state=32, n_interests=8, n_heads=2)
    elapsed = time.monotonic() - t0
    s = res.slopes
    ok = s["full_model"] <= 1.3 and s["lsa"] <= 1.3 \
        and s["vanilla_attention"] >= 1.6 and elapsed < 300.0
    # timings move with BLAS threads and machine load; record both so a
    # slope near its gate can be read
    threads = ", ".join(f"{var} {os.environ.get(var, 'unset')}"
                        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    _verdict(7, ok,
             f"log-log slopes: full_model {s['full_model']:.3f} (<=1.3), "
             f"lsa {s['lsa']:.3f} (<=1.3), vanilla "
             f"{s['vanilla_attention']:.3f} (>=1.6) in {elapsed:.0f}s; "
             f"{threads}, {os.cpu_count()} cpus, load {load}")


# --------------------------------------------------------------------------
# 8. learning sanity on rule-generated data


def test_criterion_08_learning_sanity():
    ds, split = synthetic_successor_dataset(n_items=500, n_users=2000,
                                            seq_len=20, seed=0)
    train_cfg = TrainConfig(lr=0.001, batch_size=128, epochs=14, patience=4,
                            seed=0, k=10)
    t0 = time.monotonic()
    results = {}
    for variant in ("default", "v1", "v2"):
        cfg = ModelConfig(vocab_size=ds.vocab_size, max_len=50, d_model=64,
                          d_state=32, n_layers=0, variant=variant)
        model = MlsaModel(cfg, seed=0)
        fit = train(model, ds, split, train_cfg)
        results[variant] = fit
        if variant == "default":
            test_rep = evaluate(model, split, "test", k=10)
    elapsed = time.monotonic() - t0
    d = results["default"].best_valid.ndcg_at_k
    v1 = results["v1"].best_valid.ndcg_at_k
    v2 = results["v2"].best_valid.ndcg_at_k
    epochs_used = results["default"].best_epoch + 1
    ok = test_rep.hr_at_k >= 0.9 and epochs_used <= 30 \
        and d >= v1 and d >= v2 and elapsed < 900.0
    _verdict(8,
             ok,
             f"default test hr@10 {test_rep.hr_at_k:.4f} (>=0.9) by epoch "
             f"{epochs_used} (<=30); valid ndcg@10 default {d:.4f} >= "
             f"v1 {v1:.4f}, v2 {v2:.4f}; {elapsed:.0f}s")


# --------------------------------------------------------------------------
# 9. ranking-metric closed forms


def test_criterion_09_metric_correctness():
    cases_ok = (metrics_at_k(1, 10) == (1.0, 1.0, 1.0)
                and metrics_at_k(11, 10) == (0.0, 0.0, 0.0))
    hr3, ndcg3, mrr3 = metrics_at_k(3, 10)
    cases_ok = cases_ok and hr3 == 1.0 and abs(ndcg3 - 0.5) < 1e-12 \
        and abs(mrr3 - 1.0 / 3.0) < 1e-4
    chain_ok = all(
        (lambda m: m[2] <= m[1] + 1e-12 and m[1] <= m[0] + 1e-12)(
            metrics_at_k(rank, 10))
        for rank in range(1, 1001))
    _verdict(9, cases_ok and chain_ok,
             "closed forms at ranks 1/3/11 and mrr<=ndcg<=hr over ranks "
             "1..1000")


# --------------------------------------------------------------------------
# 10. full-scale reproduction is a documented optional run, not a gate


def test_criterion_10_full_scale_run_documented():
    readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(readme, "r", encoding="utf-8") as fh:
        text = fh.read()
    documented = "ablate" in text and "--full" in text
    wired = "ablate" in HANDLERS and "full" in SCHEMA
    _verdict(10, documented and wired,
             "extended multi-hour run exposed as `ablate --full` (4-seed "
             "averaging) and documented in README; excluded from this gate")
