"""The three workloads: inputs made from a seed, one operation each, and the
checks of its outputs against the float64 references.

All three run the paper's model (variant "default", d_model 64, d_state 32,
8 interests, 2 heads, 2 stack layers, dropout 0):

- train-desk: one training step (forward, cross-entropy, backward, Adam) on
  a batch of 128 histories padded to 50. The only workload that runs the
  tape backward, the scan backward, the saved scan states and Adam.
- rank-desk: one full-vocabulary `evaluate` pass over 2000 users on their
  validation targets, batch 256, no grad. A wide, arithmetic-bound forward
  plus the per-user ranking loop.
- score-long: one `model.score` call on 4 unpadded histories of 2048 items.
  The paper's linear-cost regime, where the scan's per-step overhead and the
  elementwise ops dominate.

The desk data is the criterion-8 desk config, data.synthetic_successor_dataset
with 500 items, 2000 users and 20 items per user (item i is followed by
i + 1). Every training row holds 17 items padded to 50, every ranked row 18.
The long data comes from the same generator with 2048 items per user.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from mlsa4rec import kernels, mamba
from mlsa4rec import tensor as T
from mlsa4rec import train_eval
from mlsa4rec.data import pad_truncate, synthetic_successor_dataset
from mlsa4rec.model import MlsaModel, ModelConfig

import reference as ref


class CheckFailed(AssertionError):
    """A program output disagrees with the benchmark's reference."""


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Sizes:
    """Workload sizes; the defaults are the benchmark's, tests shrink them."""
    n_items: int = 500
    n_users: int = 2000
    seq_len: int = 20
    max_len: int = 50
    batch: int = 128
    eval_batch: int = 256
    long_len: int = 2048
    long_batch: int = 4
    long_items: int = 1000
    d_model: int = 64
    d_state: int = 32
    n_layers: int = 2


@dataclass
class Plan:
    """A set-up workload. op() is one operation, check(out) checks what it
    returned (outside the timing), and final_check() checks the run as a
    whole."""
    op: Callable[[], object]
    check: Callable[[object], None]
    final_check: Callable[[], None]


def model_config(vocab_size: int, max_len: int, sizes: Sizes) -> ModelConfig:
    return ModelConfig(vocab_size=vocab_size, max_len=max_len,
                       d_model=sizes.d_model, d_state=sizes.d_state,
                       n_interests=8, n_heads=2, n_layers=sizes.n_layers,
                       dropout=0.0, variant="default")


def desk_split(rng: np.random.Generator, sizes: Sizes):
    """The leave-one-out split of the desk data."""
    _, split = synthetic_successor_dataset(sizes.n_items, sizes.n_users,
                                           sizes.seq_len, seed=_derived_seed(rng))
    return split


def _derived_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


# -- train-desk ---------------------------------------------------------------

def _scan_operands(model: MlsaModel, ids: np.ndarray, layer: int):
    """The five scan operands that Mamba layer `layer` (0 is il.mamba, b + 1
    is stack.b) computes for these ids, built with the program's own ops in
    the order mamba_block and selective_scan apply them."""
    with T.no_grad():
        _, inter = model.forward(ids)
        x = inter["embeddings"] if layer == 0 else \
            inter["fused"] if layer == 1 else inter[f"stack_{layer - 2}"]
        p = model.il_mamba if layer == 0 else model.stack[layer - 1].mamba
        xz = T.matmul(x, p.in_proj)
        u = T.silu(mamba.causal_conv1d(T.slice_last(xz, 0, p.e_inner),
                                       p.conv_w, p.conv_b))
        s = p.ssm
        delta = T.softplus(T.add(T.matmul(u, s.proj_delta_w), s.proj_delta_b))
        a = T.neg(T.exp(s.a_log))
        return (u.data, delta.data, a.data, T.matmul(u, s.proj_b).data,
                T.matmul(u, s.proj_c).data)


def check_scan_call(u, delta, a, bm, cm, rng: np.random.Generator,
                    n_coords: int = 3) -> None:
    """kernels.scan_forward against the float64 loop, and
    kernels.scan_backward against central differences of that loop."""
    y, states = kernels.scan_forward(u, delta, a, bm, cm, True)
    y_ref = ref.scan(u, delta, a, bm, cm)
    err = np.abs(y - y_ref).max()
    _require(err <= 1e-4 * (1.0 + np.abs(y_ref).max()),
             f"scan_forward differs from the float64 loop by {err:.3g}")
    gy = rng.standard_normal(y.shape).astype(y.dtype)
    grads = kernels.scan_backward(u, delta, a, bm, cm, states, gy)
    operands = [np.asarray(x, dtype=np.float64) for x in (u, delta, a, bm, cm)]
    gy64 = gy.astype(np.float64)
    for i, (name, g) in enumerate(zip(("u", "delta", "a", "bm", "cm"), grads)):
        scale = np.abs(g).max()
        for flat in rng.choice(g.size, size=min(n_coords, g.size), replace=False):
            idx = np.unravel_index(flat, g.shape)
            x = operands[i]
            orig = x[idx]
            eps = 1e-6 * max(1.0, abs(orig))
            x[idx] = orig + eps
            f_plus = float((gy64 * ref.scan(*operands)).sum())
            x[idx] = orig - eps
            f_minus = float((gy64 * ref.scan(*operands)).sum())
            x[idx] = orig
            fd = (f_plus - f_minus) / (2.0 * eps)
            _require(abs(g[idx] - fd) <= 1e-3 * max(abs(fd), scale) + 1e-6,
                     f"scan_backward d{name}{tuple(map(int, idx))} = {g[idx]:.6g}, "
                     f"central difference {fd:.6g}")


def setup_train(seed: int, sizes: Sizes = Sizes()) -> Plan:
    data_rng = np.random.default_rng([seed, 0])
    check_rng = np.random.default_rng([seed, 2])
    split = desk_split(data_rng, sizes)
    xs, ys = train_eval.build_training_examples(split, sizes.max_len)
    order = data_rng.permutation(len(ys))
    n_batches = len(ys) // sizes.batch
    batches = [order[i * sizes.batch:(i + 1) * sizes.batch] for i in range(n_batches)]
    model = MlsaModel(model_config(sizes.n_items + 1, sizes.max_len, sizes),
                      seed=_derived_seed(np.random.default_rng([seed, 1])))
    opt = train_eval.Adam(model.params, lr=1e-3)
    losses: list[float] = []
    steps = [0]

    def op():
        # The inner step of train_eval.train; keep the two in step.
        idx = batches[steps[0] % n_batches]
        steps[0] += 1
        logits, _ = model.forward(xs[idx], training=True)
        loss = train_eval.ce_loss(logits, ys[idx])
        model.params.zero_grads()
        loss.backward()
        if model.config.freeze_padding:
            model.embedding.grad[0, :] = 0.0
        opt.step()
        return logits.data, ys[idx], loss.item()

    def check(out):
        logits, targets, loss = out
        expect = ref.cross_entropy(logits, targets)
        _require(abs(loss - expect) <= 1e-5 * max(1.0, abs(expect)),
                 f"step {len(losses)}: loss {loss:.7g}, float64 reference {expect:.7g}")
        losses.append(loss)

    def final_check():
        _require(len(losses) >= 2, f"{len(losses)} checked steps, too few to see learning")
        k = max(1, len(losses) // 3)
        first, last = np.mean(losses[:k]), np.mean(losses[-k:])
        _require(last < first,
                 f"loss did not fall: first {k} steps {first:.4f}, last {k} {last:.4f}")
        ids = xs[batches[(steps[0] - 1) % n_batches]]
        rows = check_rng.choice(len(ids), size=min(4, len(ids)), replace=False)
        layer = int(check_rng.integers(0, 1 + sizes.n_layers))
        check_scan_call(*_scan_operands(model, ids[rows], layer), check_rng)

    check(op())                                     # warm-up step
    return Plan(op, check, final_check)


# -- rank-desk ----------------------------------------------------------------

class _ScoreRecorder:
    """What evaluate needs of a model (score, config), keeping each batch's
    scores so the check can recount the ranks evaluate computed from them."""

    def __init__(self, model: MlsaModel):
        self.model = model
        self.config = model.config
        self.rows: list[np.ndarray] = []

    def score(self, ids):
        scores = self.model.score(ids)
        self.rows.append(scores)
        return scores


def setup_rank(seed: int, sizes: Sizes = Sizes(), k: int = 10) -> Plan:
    split = desk_split(np.random.default_rng([seed, 0]), sizes)
    model = MlsaModel(model_config(sizes.n_items + 1, sizes.max_len, sizes),
                      seed=_derived_seed(np.random.default_rng([seed, 1])))

    def op():
        recorder = _ScoreRecorder(model)
        report = train_eval.evaluate(recorder, split, "valid", k=k,
                                     batch_size=sizes.eval_batch)
        return report, recorder.rows

    def check(out):
        report, rows = out
        lower, upper = ref.metric_bracket(np.concatenate(rows), split.valid, k)
        got = np.array([report.hr_at_k, report.ndcg_at_k, report.mrr_at_k])
        _require(report.population == len(split.valid),
                 f"evaluate ranked {report.population} of {len(split.valid)} users")
        _require(np.all(lower - 1e-12 <= got) and np.all(got <= upper + 1e-12),
                 f"HR/NDCG/MRR@{k} {got} outside the tie bracket [{lower}, {upper}]")
        _require(got[2] <= got[1] + 1e-12 and got[1] <= got[0] + 1e-12,
                 f"MRR <= NDCG <= HR fails: {got}")

    model.score(np.stack([pad_truncate(h, sizes.max_len)
                          for h in split.train[:sizes.eval_batch]]))
    return Plan(op, check, lambda: None)


# -- score-long ---------------------------------------------------------------

def setup_score(seed: int, sizes: Sizes = Sizes(), n_batches: int = 4) -> Plan:
    data_rng = np.random.default_rng([seed, 0])
    check_rng = np.random.default_rng([seed, 2])
    ds, _ = synthetic_successor_dataset(sizes.long_items,
                                        n_batches * sizes.long_batch,
                                        sizes.long_len, seed=_derived_seed(data_rng))
    batches = np.array(ds.sequences).reshape(n_batches, sizes.long_batch,
                                             sizes.long_len)
    model = MlsaModel(model_config(sizes.long_items + 1, sizes.long_len, sizes),
                      seed=_derived_seed(np.random.default_rng([seed, 1])))
    calls = [0]
    last: list = []

    def op():
        b = calls[0] % n_batches
        calls[0] += 1
        return b, model.score(batches[b])

    def check(out):
        b, scores = out
        _require(scores.shape == (sizes.long_batch, sizes.long_items + 1)
                 and bool(np.all(np.isfinite(scores))),
                 f"scores of shape {scores.shape} or not finite")
        last[:] = [out]

    def final_check():
        _require(bool(last), "no score call returned")
        b, scores = last[0]
        row = int(check_rng.integers(0, sizes.long_batch))
        params = {name: t.data for name, t in model.params.entries.items()}
        expect = ref.default_scores(params, batches[b][row], sizes.n_layers,
                                    model.config.n_heads)
        err = np.abs(scores[row] - expect).max()
        _require(err <= 1e-4 * max(1.0, np.abs(expect).max()),
                 f"user {row}: scores differ from the float64 forward by {err:.3g}")

    model.score(batches[0])
    return Plan(op, check, final_check)


SETUP = {"train-desk": setup_train, "rank-desk": setup_rank,
         "score-long": setup_score}
