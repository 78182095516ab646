"""Flat key=value run configuration.

One namespace covers model shape, training, data handling, and
command-specific flags.  Sources merge in order: schema defaults, then
a config file of `key = value` lines (# comments allowed), then
command-line overrides.  Unknown keys are rejected everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any

from .model import ModelConfig
from .train_eval import TrainConfig


class ConfigError(ValueError):
    """Unknown key or unparseable value."""


# key -> (default, type, help)
SCHEMA: dict[str, tuple[Any, type, str]] = {
    # model shape
    "max_len": (50, int, "input sequence length after padding/truncation"),
    "d_model": (64, int, "hidden width"),
    "d_state": (32, int, "state size of the recurrence"),
    "n_interests": (8, int, "interest prototypes in low-rank attention"),
    "n_heads": (2, int, "attention heads"),
    "n_layers": (2, int, "residual layers after the fusion layer"),
    "expand": (2, int, "channel expansion inside each Mamba block"),
    "d_conv": (4, int, "causal depthwise conv kernel size"),
    "dropout": (0.0, float, "dropout rate in [0,1)"),
    "variant": ("default", str, "architecture: default|v1|v2|v3|v4"),
    "freeze_padding": (False, bool,
                       "pin the padding embedding row at zero; scores never "
                       "depend on it"),
    # training
    "lr": (0.001, float, "Adam learning rate"),
    "batch_size": (128, int, "training batch size"),
    "epochs": (200, int, "maximum training epochs"),
    "patience": (10, int, "early-stop patience on validation NDCG@k"),
    "seed": (0, int, "base RNG seed"),
    "k": (10, int, "metric cutoff"),
    "augment": ("none", str, "training examples per user: none|sliding"),
    "mask_history": (False, bool, "exclude already-seen items from ranking"),
    "seeds": (1, int, "independent seeds to average over"),
    # data
    "dataset": ("synthetic", str, "movielens|amazon|synthetic"),
    "path": ("", str, "raw ratings file (resolved against MLSA_DATA_DIR)"),
    "cache": ("", str, "processed-dataset cache file to read/write"),
    "filter_mode": ("iterative", str, "k-core mode: iterative|one-pass"),
    "kcore": (5, int, "minimum interactions per user and per item"),
    "syn_items": (500, int, "synthetic data: item count"),
    "syn_users": (2000, int, "synthetic data: user count"),
    "syn_len": (20, int, "synthetic data: sequence length"),
    # io
    "checkpoint": ("", str, "checkpoint file to write (train) or read (eval)"),
    "metrics_csv": ("", str, "write per-epoch metrics here"),
    "out": ("", str, "output CSV path for bench/gridsearch/ablate"),
    "plot": ("", str, "optional SVG chart output path"),
    # bench
    "bench_lengths": ("256,512,1024,2048,4096", str,
                      "comma-separated sequence lengths"),
    "bench_reps": (5, int, "timed repetitions per point (>= 5)"),
    "components": ("full_model,lsa,vanilla_attention", str,
                   "comma-separated components to benchmark"),
    # grid search (comma-separated candidate lists; empty = not searched)
    "grid_batch_size": ("", str, "batch sizes to search"),
    "grid_n_layers": ("", str, "layer counts to search"),
    "grid_dropout": ("", str, "dropout rates to search"),
    "grid_n_heads": ("", str, "head counts to search"),
    "grid_n_interests": ("", str, "interest counts to search"),
    # command flags
    "toy": (False, bool, "gradcheck: use the built-in toy problem"),
    "full": (False, bool, "ablate: full-scale run on the configured dataset"),
}

_BOOL_WORDS = {"true": True, "1": True, "yes": True, "on": True,
               "false": False, "0": False, "no": False, "off": False}


def _convert(key: str, raw: str) -> Any:
    _, typ, _ = SCHEMA[key]
    if typ is bool:
        word = raw.strip().lower()
        if word not in _BOOL_WORDS:
            raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
        return _BOOL_WORDS[word]
    try:
        return typ(raw.strip())
    except ValueError:
        raise ConfigError(f"{key}: expected {typ.__name__}, got {raw!r}") from None


@dataclass
class RunConfig:
    values: dict[str, Any]

    def __getattr__(self, key: str) -> Any:
        try:
            return self.values[key]
        except KeyError:
            raise AttributeError(key) from None

    def to_model_config(self, vocab_size: int) -> ModelConfig:
        """Every ModelConfig field but vocab_size is the config key of the
        same name."""
        return ModelConfig(vocab_size=vocab_size, **{
            f.name: self.values[f.name] for f in fields(ModelConfig)
            if f.name != "vocab_size"})

    def to_train_config(self) -> TrainConfig:
        v = self.values
        return TrainConfig(
            lr=v["lr"], batch_size=v["batch_size"], epochs=v["epochs"],
            patience=v["patience"], seed=v["seed"], k=v["k"],
            augment=v["augment"], mask_history=v["mask_history"],
            n_seeds=v["seeds"])

    def int_list(self, key: str) -> list[int]:
        raw = self.values[key]
        return [int(s) for s in str(raw).split(",") if s.strip()] if raw else []

    def float_list(self, key: str) -> list[float]:
        raw = self.values[key]
        return [float(s) for s in str(raw).split(",") if s.strip()] if raw else []

    def str_list(self, key: str) -> list[str]:
        raw = self.values[key]
        return [s.strip() for s in str(raw).split(",") if s.strip()] if raw else []


def parse_config_file(path: str) -> dict[str, str]:
    """Read `key = value` lines; # starts a comment; blank lines skipped."""
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path} line {lineno}: expected key = value")
            key, _, raw = stripped.partition("=")
            out[key.strip()] = raw.strip()
    return out


def build_config(file_values: dict[str, str] | None = None,
                 overrides: dict[str, str] | None = None) -> RunConfig:
    values = {key: default for key, (default, _, _) in SCHEMA.items()}
    for source in (file_values or {}), (overrides or {}):
        for key, raw in source.items():
            if key not in SCHEMA:
                raise ConfigError(f"unknown config key: {key}")
            values[key] = raw if not isinstance(raw, str) else _convert(key, raw)
    return RunConfig(values)


def describe_keys() -> str:
    lines = []
    for key, (default, typ, help_text) in SCHEMA.items():
        lines.append(f"  {key:<18} {typ.__name__:<6} default={default!r:<12} {help_text}")
    return "\n".join(lines)
