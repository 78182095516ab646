"""Flat key=value run configuration.

One namespace covers model shape, training, data handling, and
command-specific flags.  Sources merge in order: schema defaults, then
a config file of `key = value` lines (# comments allowed), then
command-line overrides.  Unknown keys are rejected everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, get_type_hints

from .bench import COMPONENTS
from .data import DATASETS, FILTER_MODES
from .model import VARIANTS, ModelConfig
from .train_eval import AUGMENT_MODES, GRID_KEYS, TrainConfig


class ConfigError(ValueError):
    """Unknown key, unparseable value or malformed command line."""


def _field_keys(cls: type, help_texts: dict[str, str]
                ) -> dict[str, tuple[Any, type, str]]:
    """Schema entries for fields of cls, with the field's default and type."""
    defaults = {f.name: f.default for f in fields(cls)}
    types = get_type_hints(cls)
    return {key: (defaults[key], types[key], text)
            for key, text in help_texts.items()}


# what each train_eval.GRID_KEYS entry's candidates are, for `help`
_GRID_NOUNS = {"batch_size": "batch sizes", "n_layers": "layer counts",
               "dropout": "dropout rates", "n_heads": "head counts",
               "n_interests": "interest counts"}

# key -> (default, type, help)
SCHEMA: dict[str, tuple[Any, type, str]] = {
    # model shape
    **_field_keys(ModelConfig, {
        "max_len": "input sequence length after padding/truncation",
        "d_model": "hidden width",
        "d_state": "state size of the recurrence",
        "n_interests": "interest prototypes in low-rank attention",
        "n_heads": "attention heads",
        "n_layers": "residual layers after the fusion layer",
        "expand": "channel expansion inside each Mamba block",
        "d_conv": "causal depthwise conv kernel size",
        "dropout": "dropout rate in [0,1)",
        "variant": "architecture: " + "|".join(VARIANTS),
    }),
    # training
    **_field_keys(TrainConfig, {
        "lr": "Adam learning rate",
        "batch_size": "training batch size",
        "epochs": "maximum training epochs",
        "patience": "early-stop patience on validation NDCG@k",
        "seed": "base RNG seed",
        "k": "metric cutoff",
        "augment": "training examples per user: " + "|".join(AUGMENT_MODES),
        "mask_history": "exclude already-seen items from ranking",
        "seeds": "independent seeds to average over",
    }),
    # data
    "dataset": ("synthetic", str, "|".join(DATASETS)),
    "path": ("", str, "raw ratings file (resolved against MLSA_DATA_DIR)"),
    "cache": ("", str, "processed-dataset cache to read/write (raw datasets only)"),
    "filter_mode": ("iterative", str, "k-core mode: " + "|".join(FILTER_MODES)),
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
                   "comma-separated components to benchmark: "
                   + "|".join(COMPONENTS)),
    # grid search (comma-separated candidate lists; empty = not searched)
    **{f"grid_{key}": ("", str, f"{_GRID_NOUNS[key]} to search")
       for key in GRID_KEYS},
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

    def model_keys(self) -> dict[str, Any]:
        """The config keys named after ModelConfig fields: every field but
        vocab_size."""
        return {f.name: self.values[f.name] for f in fields(ModelConfig)
                if f.name != "vocab_size"}

    def to_model_config(self, vocab_size: int) -> ModelConfig:
        return ModelConfig(vocab_size=vocab_size, **self.model_keys())

    def to_train_config(self) -> TrainConfig:
        """Every TrainConfig field is the config key of the same name."""
        return TrainConfig(**{f.name: self.values[f.name]
                              for f in fields(TrainConfig)})

    def grid(self) -> dict[str, list]:
        """The candidates of each set grid_* key, typed as the key they search."""
        lists = {key: self.str_list(f"grid_{key}") for key in GRID_KEYS}
        return {key: [_convert(key, s) for s in raw]
                for key, raw in lists.items() if raw}

    def str_list(self, key: str) -> list[str]:
        raw = self.values[key]
        return [s.strip() for s in str(raw).split(",") if s.strip()] if raw else []

    def int_list(self, key: str) -> list[int]:
        return [int(s) for s in self.str_list(key)]


def parse_config_file(path: str) -> dict[str, str]:
    """Read `key = value` lines; # starts a comment; blank lines skipped."""
    out: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                stripped = line.split("#", 1)[0].strip()
                if not stripped:
                    continue
                if "=" not in stripped:
                    raise ConfigError(f"{path} line {lineno}: expected key = value")
                key, _, raw = stripped.partition("=")
                out[key.strip()] = raw.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
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
    return "\n".join(f"  {key:<18} {typ.__name__:<6} default={default!r:<12} {text}"
                     for key, (default, typ, text) in SCHEMA.items())
