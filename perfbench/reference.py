"""Float64 references the benchmark checks the program's outputs against.

Each one is written from the model's definition, independently of the
program's code paths: a log-sum-exp cross-entropy, a per-step loop of the
selective-scan recurrence, the rank bracket of a held-out target with ties
counted against it and for it, and a transcription of the default
architecture's forward pass for one unpadded history.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf


def cross_entropy(logits, targets) -> float:
    """Mean of log-sum-exp(row) - row[target] over the rows of logits [B, V]."""
    x = np.asarray(logits, dtype=np.float64)
    tg = np.asarray(targets, dtype=np.int64)
    m = x.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(x - m).sum(axis=1))
    return float(np.mean(lse - x[np.arange(len(tg)), tg]))


def scan(u, delta, a, bm, cm) -> np.ndarray:
    """y[b, t, e] = sum_n cm[b,t,n] h[b,t,e,n], one time step at a time, with
    h_t = exp(delta_t a) h_{t-1} + (exp(delta_t a) - 1) / a * bm_t * u_t.

    u, delta: [B, L, E]; a: [E, N] (nonzero); bm, cm: [B, L, N].
    """
    u, delta, a, bm, cm = (np.asarray(x, dtype=np.float64)
                           for x in (u, delta, a, bm, cm))
    n_batch, length, width = u.shape
    h = np.zeros((n_batch, width, a.shape[1]))
    y = np.empty((n_batch, length, width))
    for t in range(length):
        da = delta[:, t, :, None] * a
        h = np.exp(da) * h + np.expm1(da) / a * bm[:, t, None, :] * u[:, t, :, None]
        y[:, t] = (h * cm[:, t, None, :]).sum(axis=-1)
    return y


def rank_bracket(scores, target: int) -> tuple[int, int]:
    """(best, worst) 1-based rank of the target among real items 1..V-1:
    best counts tied items for the target, worst counts them against it."""
    s = np.asarray(scores, dtype=np.float64)
    others = np.delete(s[1:], target - 1)
    return 1 + int(np.sum(others > s[target])), 1 + int(np.sum(others >= s[target]))


def metrics_at(rank: int, k: int) -> tuple[float, float, float]:
    """(hit, NDCG, reciprocal rank) at cutoff k of a 1-based rank."""
    if rank > k:
        return 0.0, 0.0, 0.0
    return 1.0, 1.0 / np.log2(rank + 1.0), 1.0 / rank


def metric_bracket(score_rows, targets, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean (HR, NDCG, MRR)@k over users, with ties counted against the
    target (lower) and for it (upper)."""
    lower, upper = np.zeros(3), np.zeros(3)
    for s, tgt in zip(score_rows, targets):
        best, worst = rank_bracket(s, tgt)
        upper += metrics_at(best, k)
        lower += metrics_at(worst, k)
    n = len(targets)
    return lower / n, upper / n


# -- forward transcription --------------------------------------------------

def layernorm(x, g, b, eps: float = 1e-12):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * g + b


def silu(x):
    return x / (1.0 + np.exp(-x))


def gelu(x):
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def causal_conv(x, w, b):
    """out[t] = b + sum_d w[:, K-1-d] * x[t-d] over lags d with t-d >= 0.
    x: [L, E]; w: [E, K]; b: [E]."""
    k = w.shape[1]
    out = np.tile(b, (x.shape[0], 1))
    for d in range(min(k, x.shape[0])):
        out[d:] += w[:, k - 1 - d] * x[:x.shape[0] - d]
    return out


def mamba(x, p: dict, prefix: str):
    """Selective state-space block on one sequence x [L, D]."""
    w_in = p[f"{prefix}.in_proj.w"]
    e_inner = w_in.shape[1] // 2
    xz = x @ w_in
    u = silu(causal_conv(xz[:, :e_inner], p[f"{prefix}.conv.w"], p[f"{prefix}.conv.b"]))
    s = f"{prefix}.ssm"
    delta = np.logaddexp(0.0, u @ p[f"{s}.proj_delta.w"] + p[f"{s}.proj_delta.b"])
    y = scan(u[None], delta[None], -np.exp(p[f"{s}.a_log"]),
             (u @ p[f"{s}.proj_B.w"])[None], (u @ p[f"{s}.proj_C.w"])[None])[0]
    y = y + u * p[f"{s}.skip_d"]
    return (y * silu(xz[:, e_inner:])) @ p[f"{prefix}.out_proj.w"]


def lsa(h, p: dict, prefix: str, n_heads: int):
    """Interest-pooled attention: rows are softly assigned to prototypes,
    keys and values pooled per prototype, each head attends over the pools."""
    q, k, v = (h @ p[f"{prefix}.w_{n}"] for n in "qkv")
    z = softmax(k @ p[f"{prefix}.theta"].T)
    k_pool, v_pool = z.T @ k, z.T @ v
    d_head = h.shape[1] // n_heads
    out = np.empty_like(h)
    for i in range(n_heads):
        cols = slice(i * d_head, (i + 1) * d_head)
        attn = softmax(q[:, cols] @ k_pool[:, cols].T / np.sqrt(d_head))
        out[:, cols] = attn @ v_pool[:, cols]
    return out


def default_scores(params: dict, ids, n_layers: int, n_heads: int) -> np.ndarray:
    """Logits over the vocabulary after the last item of one history, for
    the default architecture (skip term on, shared prototypes, tied gate).

    params maps the model's parameter names to arrays; ids is [L] with no
    padding.
    """
    p = {name: np.asarray(v, dtype=np.float64) for name, v in params.items()}

    def ln(name, x):
        return layernorm(x, p[f"{name}.g"], p[f"{name}.b"])

    e = p["embedding.M"][np.asarray(ids)]
    h = ln("il.ln1", mamba(e, p, "il.mamba") + e)
    h_attn = ln("il.ln2", lsa(h, p, "il.lsa", n_heads) + h)
    gate = gelu(h_attn @ p["il.mlp1.w"] + p["il.mlp1.b"])
    gated_norm = ln("il.ln3", h * gate)
    x = ln("il.ln4", np.concatenate([gated_norm, gate], axis=1) @ p["il.mlp2.w"]
           + p["il.mlp2.b"] + e @ p["il.mlp3.w"] + p["il.mlp3.b"])
    for b in range(n_layers):
        x = ln(f"stack.{b}.ln", mamba(x, p, f"stack.{b}.mamba") + x)
    return x[-1] @ p["head.W"] + p["head.b"]
