"""Loss, optimizer, ranking metrics, training loop, and grid search.

Training minimizes full-vocabulary cross-entropy on next-item targets
with Adam, early-stopping on validation NDCG@10.  Evaluation ranks the
held-out target against every item (id 0 excluded; ties count against
the target) and averages hit rate, NDCG, and reciprocal rank at a cutoff.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import tensor as T
from .data import Split, pad_truncate
from .model import MlsaModel, ModelConfig
from .tensor import ParameterStore, Tensor

AUGMENT_MODES = ("none", "sliding")


@dataclass
class TrainConfig:
    lr: float = 0.001
    batch_size: int = 128
    epochs: int = 200
    patience: int = 10
    seed: int = 0
    k: int = 10
    augment: str = "none"          # one of AUGMENT_MODES
    mask_history: bool = False
    seeds: int = 1

    def validate(self) -> None:
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        for name in ("batch_size", "epochs", "patience", "k", "seeds"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.augment not in AUGMENT_MODES:
            raise ValueError(f"unknown augment mode {self.augment!r}")


@dataclass
class MetricsReport:
    hr_at_k: float
    ndcg_at_k: float
    mrr_at_k: float
    k: int
    population: int

    def columns(self) -> dict[str, float]:
        """The three metrics under their report names, hr@k, ndcg@k, mrr@k."""
        return {f"hr@{self.k}": self.hr_at_k, f"ndcg@{self.k}": self.ndcg_at_k,
                f"mrr@{self.k}": self.mrr_at_k}

    def __str__(self) -> str:
        return " ".join(f"{name} {value:.4f}"
                        for name, value in self.columns().items())


def ce_loss(logits: Tensor, target) -> Tensor:
    """Mean negative log-probability of the target item(s)."""
    return T.cross_entropy(logits, target)


# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Bias-corrected Adam; step() updates parameters in place from their
    .grad and leaves .grad as it is.  Whoever calls backward() clears the
    gradients first."""

    def __init__(self, store: ParameterStore, lr: float = 0.001):
        self.store = store
        self.lr = lr
        self.t = 0
        self.m = {n: np.zeros_like(t.data) for n, t in store.entries.items()}
        self.v = {n: np.zeros_like(t.data) for n, t in store.entries.items()}

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        for name, p in self.store.entries.items():
            g = p.grad
            m = self.m[name]
            v = self.v[name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * (g * g)
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


def rank_of_target(scores: np.ndarray, target: int) -> int:
    """1 + count of other real items scored at or above the target.

    Ties count against the target, so a model that scores every item
    alike ranks it last, not first; the padding slot 0 never ranks.
    """
    if target < 1:
        raise ValueError("target must be a real item id (>= 1)")
    return int(np.sum(scores[1:] >= scores[target]))


def metrics_at_k(rank: int, k: int = 10) -> tuple[float, float, float]:
    """(hit, ndcg, reciprocal rank) of a single target at cutoff k."""
    if rank < 1:
        raise ValueError("rank must be >= 1")
    if rank > k:
        return 0.0, 0.0, 0.0
    return 1.0, 1.0 / np.log2(rank + 1.0), 1.0 / rank


def _eval_inputs(split: Split, phase: str) -> tuple[list[list[int]], list[int]]:
    if phase == "valid":
        return split.train, split.valid
    if phase == "test":
        return [tr + [va] for tr, va in zip(split.train, split.valid)], split.test
    raise ValueError(f"unknown phase {phase!r}")


def evaluate(model, split: Split, phase: str = "valid", k: int = 10,
             mask_history: bool = False, batch_size: int = 256) -> MetricsReport:
    """Average HR/NDCG/MRR@k of the held-out target over all users.

    model only needs a score(ids[B, L]) -> [B, vocab] method and a
    config.max_len, the length histories are padded or cut to.  Each
    metric is summed in user order, then divided by the user count.
    """
    max_len = model.config.max_len
    histories, targets = _eval_inputs(split, phase)
    n = len(targets)
    hr = ndcg = mrr = 0.0
    for start in range(0, n, batch_size):
        chunk = slice(start, min(start + batch_size, n))
        ids = np.stack([pad_truncate(h, max_len) for h in histories[chunk]])
        scores = np.array(model.score(ids), copy=True)
        for row, (hist, tgt) in enumerate(zip(histories[chunk], targets[chunk])):
            s = scores[row]
            if mask_history:
                seen = [i for i in hist if i != tgt]
                s[seen] = -np.inf
            r = rank_of_target(s, tgt)
            h, nd, mr = metrics_at_k(r, k)
            hr += h
            ndcg += nd
            mrr += mr
    return MetricsReport(hr / n, ndcg / n, mrr / n, k, n)


def build_training_examples(split: Split, max_len: int, augment: str = "none"
                            ) -> tuple[np.ndarray, np.ndarray]:
    """(inputs [M, max_len], targets [M]) from the training sequences.

    Default: one example per user, predicting the newest training item
    from everything before it.  "sliding" adds every prefix -> next
    pair.
    """
    xs, ys = [], []
    for seq in split.train:
        if len(seq) < 2:
            continue
        if augment == "sliding":
            for j in range(1, len(seq)):
                xs.append(pad_truncate(seq[:j], max_len))
                ys.append(seq[j])
        else:
            xs.append(pad_truncate(seq[:-1], max_len))
            ys.append(seq[-1])
    if not xs:
        raise ValueError("no training examples; dataset too small")
    return np.stack(xs), np.asarray(ys, dtype=np.int64)


def train_step(model: MlsaModel, opt: Adam, xb: np.ndarray, yb: np.ndarray
               ) -> tuple[float, np.ndarray]:
    """One Adam step on the batch's cross-entropy; returns (loss, logits).

    Only the logits are kept from forward: its intermediates would hold
    their arrays through the backward."""
    logits = model.forward(xb, training=True)[0]
    loss = ce_loss(logits, yb)
    model.params.zero_grads()
    loss.backward()
    opt.step()
    return loss.item(), logits.data


@dataclass
class TrainResult:
    best_valid: MetricsReport
    best_epoch: int
    history: list[dict] = field(default_factory=list)


def train(model: MlsaModel, split: Split, cfg: TrainConfig, log=None) -> TrainResult:
    """Early-stopped Adam training; leaves the model on its best weights."""
    cfg.validate()
    xs, ys = build_training_examples(split, model.config.max_len, cfg.augment)
    rng = np.random.default_rng(cfg.seed)
    model.reseed_dropout(cfg.seed)
    opt = Adam(model.params, lr=cfg.lr)
    best = TrainResult(MetricsReport(0.0, -1.0, 0.0, cfg.k, 0), -1)  # epoch 0 beats it
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(ys))
        total = 0.0
        for start in range(0, len(order), cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            loss, _ = train_step(model, opt, xs[idx], ys[idx])
            total += loss * len(idx)
        epoch_loss = total / len(ys)
        report = evaluate(model, split, "valid", k=cfg.k,
                          mask_history=cfg.mask_history)
        row = {"phase": "valid", "epoch": epoch, **report.columns(),
               "loss": epoch_loss, "seed": cfg.seed}
        best.history.append(row)
        if log:
            log(f"epoch {epoch}: loss {epoch_loss:.4f} "
                f"valid ndcg@{cfg.k} {report.ndcg_at_k:.4f}")
        if report.ndcg_at_k > best.best_valid.ndcg_at_k:
            best.best_valid, best.best_epoch = report, epoch
            best_params = model.params.snapshot()
        elif epoch - best.best_epoch >= cfg.patience:
            break
    model.params.load_values(best_params)
    return best


def _fit_seeds(model_cfg: ModelConfig, split: Split, cfg: TrainConfig, log=None):
    """Yield (seed, model, train result) for seeds seed..seed+seeds-1."""
    cfg.validate()
    for s in range(cfg.seeds):
        run_cfg = replace(cfg, seed=cfg.seed + s, seeds=1)
        model = MlsaModel(model_cfg, seed=run_cfg.seed)
        yield run_cfg.seed, model, train(model, split, run_cfg, log=log)


def _mean_report(reports: list[MetricsReport]) -> MetricsReport:
    """Per-metric mean over seeds; k and population are the first seed's."""
    means = [float(np.mean([getattr(r, name) for r in reports]))
             for name in ("hr_at_k", "ndcg_at_k", "mrr_at_k")]
    return MetricsReport(*means, reports[0].k, reports[0].population)


def train_multi_seed(model_cfg: ModelConfig, split: Split, cfg: TrainConfig,
                     log=None) -> tuple[MetricsReport, list[MetricsReport],
                                        list[dict], MlsaModel]:
    """Independent runs on seeds seed..seed+seeds-1, each tested on its best
    weights.  Returns the mean test report, the per-seed reports, the
    history rows with one test row per seed, and the first seed's model."""
    reports, rows, first = [], [], None
    for seed, model, result in _fit_seeds(model_cfg, split, cfg, log):
        rows.extend(result.history)
        rep = evaluate(model, split, "test", k=cfg.k, mask_history=cfg.mask_history)
        if log:
            log(f"test: {rep}")
        rows.append({"phase": "test", "epoch": result.best_epoch,
                     **rep.columns(), "loss": float("nan"), "seed": seed})
        reports.append(rep)
        first = first or model
    return _mean_report(reports), reports, rows, first


# the settings grid_search may vary; each is a ModelConfig or TrainConfig field
GRID_KEYS = ("batch_size", "n_layers", "dropout", "n_heads", "n_interests")


def grid_search(split: Split, model_cfg: ModelConfig, train_cfg: TrainConfig,
                grid: dict[str, list], log=None
                ) -> tuple[ModelConfig, TrainConfig, list[dict]]:
    """Exhaustive product over the grid, each cell early-stop trained on
    every seed; the best mean validation NDCG@k wins (epoch: first seed's)."""
    if not grid:
        raise ValueError("empty grid")
    unknown = sorted(set(grid) - set(GRID_KEYS))
    if unknown:
        raise ValueError(f"grid keys {unknown} not searchable; allowed: {GRID_KEYS}")
    model_keys = {f.name for f in fields(ModelConfig)}
    names = sorted(grid)
    cells, scores, rows = [], [], []
    for values in itertools.product(*(grid[n] for n in names)):
        cell = dict(zip(names, values))
        in_model = {k: v for k, v in cell.items() if k in model_keys}
        mc = replace(model_cfg, **in_model)
        tc = replace(train_cfg, **{k: v for k, v in cell.items() if k not in in_model})
        results = [r for *_, r in _fit_seeds(mc, split, tc, log)]
        valid = _mean_report([r.best_valid for r in results])
        cells.append((mc, tc))
        scores.append(valid.ndcg_at_k)
        rows.append({**cell, **valid.columns(), "epoch": results[0].best_epoch})
        if log:
            log(f"grid cell {cell}: valid ndcg@{tc.k} {valid.ndcg_at_k:.4f}")
    best = max(range(len(rows)), key=scores.__getitem__)  # first of ties
    return *cells[best], rows


def model_grad_check(model_cfg: ModelConfig, ids: np.ndarray,
                     targets: np.ndarray, seed: int = 0,
                     n_samples: int = 200) -> float:
    """Finite-difference check of the full training-loss gradient.

    Builds the model in float64 and compares analytic gradients of the
    cross-entropy loss on (ids, targets) against central differences on
    n_samples randomly chosen parameter coordinates.
    """
    model = MlsaModel(model_cfg, seed=seed)
    model.cast_float64()

    def loss_fn(_store):
        logits, _ = model.forward(ids, training=False)
        return ce_loss(logits, targets)

    return T.grad_check(loss_fn, model.params, n_samples=n_samples, seed=seed)
