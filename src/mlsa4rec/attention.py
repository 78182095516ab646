"""Low-rank decomposed self-attention and the vanilla baseline.

Instead of scoring every key against every query (L x L), items are
softly assigned to a small set of learned interest prototypes; keys and
values are aggregated per interest, and queries attend over those P
aggregates (L x P).  Cost per head is linear in sequence length.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import ParameterStore, Tensor

log = logging.getLogger(__name__)

MASKED_SCORE = -1e9     # finite, so a row of masked keys stays a distribution


@dataclass
class LsaParams:
    theta: Tensor | None       # [P, D] interest prototypes (None for vanilla)
    w_q: Tensor                # [D, D]
    w_k: Tensor                # [D, D]
    w_v: Tensor                # [D, D]
    n_heads: int


def init_lsa(store: ParameterStore, prefix: str, d_model: int,
             n_interests: int | None, n_heads: int) -> LsaParams:
    """Projections for d_model-wide attention; n_interests prototypes when
    it is set, none (the vanilla attention's parameters) when it is None."""
    if d_model % n_heads:
        raise ValueError(f"d_model {d_model} not divisible by n_heads {n_heads}")
    return LsaParams(
        theta=None if n_interests is None else
        store.uniform(f"{prefix}.theta", (n_interests, d_model), d_model),
        w_q=store.uniform(f"{prefix}.w_q", (d_model, d_model), d_model),
        w_k=store.uniform(f"{prefix}.w_k", (d_model, d_model), d_model),
        w_v=store.uniform(f"{prefix}.w_v", (d_model, d_model), d_model),
        n_heads=n_heads)


def interest_aggregate(hmat: Tensor, theta: Tensor, keep: np.ndarray | None = None
                       ) -> tuple[Tensor, Tensor]:
    """Soft-assign each row of hmat to interests, then pool rows per interest.

    Returns (zt, pooled): zt is the transposed assignment z^T ([.., P, L]),
    whose column t is a distribution over interests for row t (softmax of
    hmat @ theta^T), and pooled = zt @ hmat with one row per interest.
    Rows where keep ([.., L, 1], boolean) is false get z = 0, so they add
    nothing to the pools.
    """
    z = T.softmax(T.matmul(hmat, T.transpose_last(theta)))
    if keep is not None:
        z = T.masked_fill(z, keep)
    zt = T.transpose_last(z)
    return zt, T.matmul(zt, hmat)


def _split_heads(x: Tensor, n_heads: int) -> list[Tensor]:
    d_head = x.shape[-1] // n_heads
    return [T.slice_last(x, i * d_head, (i + 1) * d_head) for i in range(n_heads)]


def _multi_head(q: Tensor, k: Tensor, v: Tensor, n_heads: int,
                keep_keys: np.ndarray | None = None) -> Tensor:
    """Each head's slice of q attends over the rows of its slices of k and
    v; the heads' outputs are concatenated.  Keys where keep_keys
    ([.., 1, rows of k], boolean) is false get a score of MASKED_SCORE,
    so their weight underflows to exactly zero whenever a real key is
    present."""
    inv_scale = 1.0 / np.sqrt(q.shape[-1] // n_heads)
    outs = []
    for qi, ki, vi in zip(_split_heads(q, n_heads), _split_heads(k, n_heads),
                          _split_heads(v, n_heads)):
        scores = T.scale(T.matmul(qi, T.transpose_last(ki)), inv_scale)
        if keep_keys is not None:
            scores = T.masked_fill(scores, keep_keys, MASKED_SCORE)
        outs.append(T.matmul(T.softmax(scores), vi))
    return T.concat_last(outs)


def lsa_attention(x: Tensor, p: LsaParams, keep: np.ndarray | None = None
                  ) -> Tensor:
    """Attention through the interest bottleneck; [.., L, D] -> same shape.

    One assignment z is computed from the keys, and its transpose pools
    both keys and values; each head then attends over its slice of the P
    pooled rows.  Positions where keep ([.., L, 1], boolean) is false are
    left out of the pools.
    """
    if p.theta is None:
        raise ValueError("lsa_attention requires interest prototypes")
    n_interests, seq_len = p.theta.shape[0], x.shape[-2]
    if n_interests >= seq_len:
        log.info("interest count %d >= sequence length %d; no rank reduction",
                 n_interests, seq_len)
    q = T.matmul(x, p.w_q)
    k = T.matmul(x, p.w_k)
    v = T.matmul(x, p.w_v)
    zt, k_pool = interest_aggregate(k, p.theta, keep)
    v_pool = T.matmul(zt, v)
    return _multi_head(q, k_pool, v_pool, p.n_heads)


def vanilla_attention(x: Tensor, p: LsaParams, keep: np.ndarray | None = None
                      ) -> Tensor:
    """Standard multi-head attention over all positions; positions where
    keep ([.., L, 1], boolean) is false are masked as keys."""
    q = T.matmul(x, p.w_q)
    k = T.matmul(x, p.w_k)
    v = T.matmul(x, p.w_v)
    keep_keys = None if keep is None else np.swapaxes(keep, -1, -2)
    return _multi_head(q, k, v, p.n_heads, keep_keys)
