"""Model assembly: embedding, Mamba/attention fusion, recurrent stack, head.

The main architecture embeds an item sequence, fuses a Mamba pass with
low-rank attention through a gated mixing layer, refines the result
with a stack of residual Mamba layers, and scores the full vocabulary
from the final position.  Ablation variants rewire these parts:

    default  full architecture
    v1       fusion layer replaced by a single residual Mamba layer
    v2       no Mamba anywhere: fusion keeps attention only, stack
             layers become feed-forward blocks
    v3       low-rank attention replaced by vanilla attention
    v4       stack layers replaced by feed-forward blocks
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import kernels
from . import tensor as T
from .attention import LsaParams, init_lsa, lsa_attention, vanilla_attention
from .mamba import MambaParams, init_mamba, mamba_block
from .tensor import ParameterStore, Tensor

VARIANTS = ("default", "v1", "v2", "v3", "v4")
# Most rows in one of score's parallel groups.  On the desk data at batch
# 256, groups of 128 rows scored 30 % faster than one forward, and 64
# rows 28 %; 16 and 32 rows gained less and moved the last bits of the
# scores, because BLAS sums differently at small row counts.  128 is
# also the training batch, so a group runs the shapes a training step runs.
SCORE_ROWS = 128


@dataclass
class ModelConfig:
    vocab_size: int                 # item count + 1; id 0 is padding
    max_len: int = 50
    d_model: int = 64
    d_state: int = 32
    n_interests: int = 8
    n_heads: int = 2
    n_layers: int = 2
    expand: int = 2
    d_conv: int = 4
    dropout: float = 0.0
    variant: str = "default"
    # not a setting: read only by perfbench/workloads.py until it calls train_step
    freeze_padding: ClassVar[bool] = False

    def validate(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; choose from {VARIANTS}")
        if self.d_model % self.n_heads:
            raise ValueError("d_model must be divisible by n_heads")
        for name in ("max_len", "d_model", "d_state", "n_interests", "n_heads",
                     "expand", "d_conv"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.n_layers < 0:
            raise ValueError("n_layers must be >= 0")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")
        if self.vocab_size < 2:
            raise ValueError("vocab_size must cover at least one real item")


@dataclass
class PffnParams:
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor


@dataclass
class StackLayer:
    """Stack layer b's mixer; its norm is lns[f"stack.{b}.ln"]."""
    mamba: MambaParams | None = None
    pffn: PffnParams | None = None

    def mix(self, x: Tensor, keep: np.ndarray) -> Tensor:
        """Mamba block or PFFN output; forward adds it at once, so no_grad frees it."""
        if self.mamba is not None:
            return mamba_block(x, self.mamba, keep)
        p = self.pffn
        return _linear(T.gelu(_linear(x, p.w1, p.b1)), p.w2, p.b2)


def _first_real_column(ids: np.ndarray) -> int:
    """Index of the first column of [B, L] ids that is not padding in
    every row; the last column when all of them are."""
    real = ids.any(axis=0)
    return int(real.argmax()) if real.any() else ids.shape[1] - 1


def _linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    return T.add(T.matmul(x, w), b)


class MlsaModel:
    """Sequential recommender over dense item ids (0 = left padding)."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        config.validate()
        self.config = config
        self.params = ParameterStore(seed)
        self.reseed_dropout(seed)
        c = config
        store = self.params

        self.embedding = store.uniform("embedding.M", (c.vocab_size, c.d_model),
                                       c.d_model)

        self.il_mamba: MambaParams | None = None
        self.il_lsa: LsaParams | None = None
        self.mlp1 = self.mlp2 = self.mlp3 = None
        self.lns: dict[str, tuple[Tensor, Tensor]] = {}

        if c.variant != "v2":
            self.il_mamba = init_mamba(store, "il.mamba", c.d_model, c.d_state,
                                       c.d_conv, c.expand)
        self._new_ln("il.ln1")
        if c.variant != "v1":
            # v3's attention is the vanilla one: no interest prototypes
            self.il_lsa = init_lsa(store, "il.lsa", c.d_model,
                                   None if c.variant == "v3" else c.n_interests,
                                   c.n_heads)
            self.mlp1 = (store.uniform("il.mlp1.w", (c.d_model, c.d_model), c.d_model),
                         store.zeros("il.mlp1.b", (c.d_model,)))
            self.mlp2 = (store.uniform("il.mlp2.w", (2 * c.d_model, c.d_model),
                                       2 * c.d_model),
                         store.zeros("il.mlp2.b", (c.d_model,)))
            self.mlp3 = (store.uniform("il.mlp3.w", (c.d_model, c.d_model), c.d_model),
                         store.zeros("il.mlp3.b", (c.d_model,)))
            for name in ("il.ln2", "il.ln3", "il.ln4"):
                self._new_ln(name)

        self.stack: list[StackLayer] = []
        for b in range(c.n_layers):
            if c.variant in ("v2", "v4"):
                hidden = 4 * c.d_model
                layer = StackLayer(pffn=PffnParams(
                    w1=store.uniform(f"stack.{b}.pffn.w1", (c.d_model, hidden),
                                     c.d_model),
                    b1=store.zeros(f"stack.{b}.pffn.b1", (hidden,)),
                    w2=store.uniform(f"stack.{b}.pffn.w2", (hidden, c.d_model), hidden),
                    b2=store.zeros(f"stack.{b}.pffn.b2", (c.d_model,))))
            else:
                mamba = init_mamba(store, f"stack.{b}.mamba", c.d_model, c.d_state,
                                   c.d_conv, c.expand)
                layer = StackLayer(mamba=mamba)
            self.stack.append(layer)
            self._new_ln(f"stack.{b}.ln")

        self.head_w = store.uniform("head.W", (c.d_model, c.vocab_size), c.d_model)
        self.head_b = store.zeros("head.b", (c.vocab_size,))

    # -- parameter helpers ---------------------------------------------

    def _new_ln(self, name: str) -> None:
        self.lns[name] = (self.params.add(f"{name}.g", np.ones(self.config.d_model)),
                          self.params.zeros(f"{name}.b", (self.config.d_model,)))

    def reseed_dropout(self, seed: int) -> None:
        self._drop_rng = np.random.default_rng(seed ^ 0x5EED)

    def _drop(self, x: Tensor, training: bool) -> Tensor:
        return T.dropout(x, self.config.dropout, self._drop_rng, training)

    # -- forward --------------------------------------------------------

    def forward(self, ids: np.ndarray, training: bool = False
                ) -> tuple[Tensor, dict[str, Tensor]]:
        """Score all items from an id sequence.

        ids is [L] or [B, L], right-aligned (newest item last, zeros pad
        the front).  Returns (logits, intermediates); logits is [vocab]
        for a single sequence, [B, vocab] for a batch.

        Padding is masked out of every layer that mixes positions, so a
        row's scores depend on its real items only.  That lets the pass
        drop the leading columns that are padding in every row: it runs
        over the longest real history in the batch, and the
        intermediates have that length.
        """
        ids = np.asarray(ids, dtype=np.int64)
        single = ids.ndim == 1
        if single:
            ids = ids[None, :]
        ids = ids[:, _first_real_column(ids):]
        keep = (ids != 0)[:, :, None]
        keep = None if keep.all() else keep   # nothing to mask: skip the masks
        inter: dict[str, Tensor] = {}

        e = self._drop(T.embedding(self.embedding, ids), training)
        inter["embeddings"] = e

        # the parts __init__ built pick the path: v2 has no fusion Mamba, v1 no
        # attention (its hidden state is the fused output), v3 no prototypes
        if self.il_mamba is None:
            h = e
        else:
            h = T.add(mamba_block(e, self.il_mamba, keep), e)
        h = self._drop(T.layernorm(h, *self.lns["il.ln1"]), training)
        inter["hidden"] = h

        if self.il_lsa is None:
            fused = h
        else:
            if self.il_lsa.theta is None:
                attn = vanilla_attention(h, self.il_lsa, keep)
            else:
                attn = lsa_attention(h, self.il_lsa, keep)
            h_attn = self._drop(T.layernorm(T.add(attn, h), *self.lns["il.ln2"]),
                                training)

            gate = T.gelu(_linear(h_attn, *self.mlp1))
            inter["gate"] = gate
            gated = T.mul(h, gate)
            inter["gated"] = gated
            gated_norm = self._drop(T.layernorm(gated, *self.lns["il.ln3"]),
                                    training)
            inter["gated_norm"] = gated_norm

            fused = T.layernorm(T.add(
                _linear(T.concat_last([gated_norm, gate]), *self.mlp2),
                _linear(e, *self.mlp3)), *self.lns["il.ln4"])
            fused = self._drop(fused, training)
        inter["fused"] = fused

        x = fused
        for b, layer in enumerate(self.stack):
            x = self._drop(T.layernorm(T.add(layer.mix(x, keep), x),
                                       *self.lns[f"stack.{b}.ln"]), training)
            inter[f"stack_{b}"] = x

        h_last = T.take_row(x, x.shape[-2] - 1)
        inter["last_hidden"] = h_last
        logits = _linear(h_last, self.head_w, self.head_b)
        if single:
            logits = T.take_row(logits, 0)
        return logits, inter

    def cast_float64(self) -> None:
        """Cast every parameter to float64 in place (gradient checking).

        The model's fields hold the store's Tensor objects, so they see
        the new precision without rewiring.
        """
        store = self.params
        store.dtype = np.dtype(np.float64)
        for t in store.entries.values():
            t.data = t.data.astype(np.float64)
            t.grad = np.zeros_like(t.data)

    def score(self, ids: np.ndarray) -> np.ndarray:
        """Raw item scores (logits) for the next interaction; their softmax
        is the distribution over items.

        A batch of more than SCORE_ROWS rows is cut into the fewest
        near-equal row groups of at most SCORE_ROWS rows, and the groups'
        forwards run on the kernels pool, each untaped on the thread that
        runs it; no row reads another, so the scores are those of one
        forward over the whole batch.  A smaller batch, or one sequence, is
        one group, run inline: split, its numpy calls are too small to pay
        for handing the interpreter lock over.  A batch of no rows gets
        [0, vocab] scores.
        """
        ids = np.asarray(ids, dtype=np.int64)
        if ids.ndim == 2 and len(ids) == 0:
            return np.empty((0, self.config.vocab_size), dtype=self.params.dtype)
        groups = -(-len(ids) // SCORE_ROWS) if ids.ndim == 2 else 1
        return np.concatenate(kernels.map_rows(
            T.no_grad()(lambda g: self.forward(g)[0].data),
            np.array_split(ids, groups)))
