"""Command-line entry point; the subcommands are listed once, in `COMMANDS`.

Every command takes `--config FILE` plus `--key=value` (or `--key value`)
overrides; keys are listed by `mlsa4rec help`.  Exit codes: 0 success,
1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import csv
import os
import sys
from dataclasses import replace

import numpy as np

from .bench import bench_scaling, write_scaling_svg
from .config import (ConfigError, RunConfig, SCHEMA, build_config,
                     describe_keys, parse_config_file)
from .data import (CACHE_SETTINGS, DATASETS, RAW_PARSERS, Dataset, Split,
                   build_split, dataset_stats, kcore_filter, load_dataset_cache,
                   pad_truncate, save_dataset_cache, synthetic_successor_dataset)
from .model import VARIANTS, MlsaModel
from .tensor import CheckpointError, ShapeError, load_checkpoint, save_checkpoint
from .train_eval import evaluate, grid_search, model_grad_check, train_multi_seed


def _parse_args(argv: list[str]) -> RunConfig:
    file_values: dict[str, str] = {}
    overrides: dict[str, str] = {}
    i = 0
    while i < len(argv):
        token = argv[i]
        if not token.startswith("--"):
            raise ConfigError(f"unexpected argument: {token}")
        body = token[2:]
        if "=" in body:
            key, _, value = body.partition("=")
            key = key.replace("-", "_")
        else:
            key = body.replace("-", "_")
            if key in SCHEMA and SCHEMA[key][1] is bool:
                value = "true"
            else:
                i += 1
                if i >= len(argv):
                    raise ConfigError(f"--{key} needs a value")
                value = argv[i]
        if key == "config":
            file_values.update(parse_config_file(value))
        else:
            overrides[key] = value
        i += 1
    return build_config(file_values, overrides)


def write_csv(path: str, rows: list[dict]) -> None:
    """Write rows of one shape (a metrics, bench, grid or ablation report)
    as CSV, the columns in the first row's key order."""
    cols = list(rows[0].keys())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(cols)
        for r in rows:
            w.writerow([r[c] for c in cols])


def _resolve_path(path: str) -> str:
    if not path:
        raise FileNotFoundError("no input path configured (set path=...)")
    if os.path.exists(path):
        return path
    root = os.environ.get("MLSA_DATA_DIR", "")
    if root:
        candidate = os.path.join(root, path)
        if os.path.exists(candidate):
            return candidate
    raise FileNotFoundError(f"dataset file not found: {path}")


def _cache_settings(cfg: RunConfig) -> dict:
    return {key: getattr(cfg, key) for key in CACHE_SETTINGS}


def _from_raw(cfg: RunConfig) -> tuple[Dataset, Split]:
    """Parse, k-core filter and split the raw file; write the cache if set."""
    records = kcore_filter(RAW_PARSERS[cfg.dataset](_resolve_path(cfg.path)),
                           cfg.kcore, cfg.filter_mode)
    ds, split = build_split(records)
    if cfg.cache:
        save_dataset_cache(ds, cfg.cache, _cache_settings(cfg))
    return ds, split


def _load_data(cfg: RunConfig) -> tuple[Dataset, Split]:
    """A raw dataset reads --cache if it exists, and it must have been built
    with this run's dataset, kcore and filter_mode; else it parses the raw
    file and writes the cache."""
    if cfg.dataset not in DATASETS:
        raise ValueError(f"unknown dataset {cfg.dataset!r}; choose from {DATASETS}")
    if cfg.dataset == "synthetic":
        if cfg.cache:
            raise ValueError("--cache applies to raw datasets only; synthetic "
                             "data is generated from --seed")
        ds, split = synthetic_successor_dataset(cfg.syn_items, cfg.syn_users,
                                                cfg.syn_len, cfg.seed)
    elif cfg.cache and os.path.exists(cfg.cache):
        ds, split = load_dataset_cache(cfg.cache, _cache_settings(cfg))
    else:
        ds, split = _from_raw(cfg)
    if ds.user_count == 0:
        source = f" (--path {cfg.path})" if cfg.path else ""
        raise ValueError(f"dataset has no users{source}")
    return ds, split


def cmd_prep(cfg: RunConfig) -> int:
    # prep always parses a raw dataset, so a set --cache has been written
    ds, _ = _from_raw(cfg) if cfg.dataset in RAW_PARSERS else _load_data(cfg)
    if cfg.cache:
        print(f"cache written: {cfg.cache}")
    users, items, inter, avg = dataset_stats(ds)
    print(f"{users} users, {items} items, {inter} interactions, avg {avg:.1f}")
    return 0


def cmd_train(cfg: RunConfig) -> int:
    ds, split = _load_data(cfg)
    train_cfg = cfg.to_train_config()
    mean, _, rows, model = train_multi_seed(cfg.to_model_config(ds.vocab_size),
                                            split, train_cfg, log=print)
    if train_cfg.seeds > 1:
        print(f"test over {train_cfg.seeds} seeds: {mean}")
    if cfg.checkpoint:
        save_checkpoint(model.params, cfg.checkpoint)
        print(f"checkpoint written: {cfg.checkpoint}")
    if cfg.metrics_csv:
        write_csv(cfg.metrics_csv, rows)
        print(f"metrics written: {cfg.metrics_csv}")
    return 0


def cmd_eval(cfg: RunConfig) -> int:
    if not cfg.checkpoint:
        raise ValueError("eval needs checkpoint=...")
    cfg.to_train_config().validate()
    ds, split = _load_data(cfg)
    model = MlsaModel(cfg.to_model_config(ds.vocab_size), seed=cfg.seed)
    try:
        model.params.load_values(load_checkpoint(cfg.checkpoint))
    except (KeyError, ShapeError) as exc:   # args[0]: str(KeyError) adds quotes
        raise CheckpointError(f"{cfg.checkpoint}: does not fit the model the "
                              f"flags describe: {exc.args[0]}") from None
    for phase in ("valid", "test"):
        rep = evaluate(model, split, phase, k=cfg.k,
                       mask_history=cfg.mask_history)
        print(f"{phase}: {rep} ({rep.population} users)")
    return 0


def cmd_gridsearch(cfg: RunConfig) -> int:
    grid = cfg.grid()
    if not grid:
        raise ValueError("no grid_* keys set; nothing to search")
    ds, split = _load_data(cfg)
    model_cfg = cfg.to_model_config(ds.vocab_size)
    best_mc, best_tc, rows = grid_search(split, model_cfg, cfg.to_train_config(),
                                         grid, log=print)
    if cfg.out:
        write_csv(cfg.out, rows)
        print(f"grid report written: {cfg.out}")
    chosen = {k: getattr(best_mc if hasattr(best_mc, k) else best_tc, k)
              for k in grid}
    print(f"best cell: {chosen}")
    return 0


def cmd_bench(cfg: RunConfig) -> int:
    result = bench_scaling(cfg.str_list("components"),
                           cfg.int_list("bench_lengths"),
                           reps=cfg.bench_reps, seed=cfg.seed, log=print,
                           **cfg.model_keys())
    rows = result.rows
    for component, slope in result.slopes.items():
        print(f"slope {component}: {slope:.4f}")
    if cfg.out:
        write_csv(cfg.out, rows)
        print(f"bench rows written: {cfg.out}")
    if cfg.plot:
        write_scaling_svg(cfg.plot, rows)
        print(f"chart written: {cfg.plot}")
    return 0


def cmd_gradcheck(cfg: RunConfig) -> int:
    if cfg.toy:
        # the toy problem fixes its sizes; every other model key is the run's
        model_cfg = replace(cfg.to_model_config(20), max_len=8, d_model=8,
                            d_state=4, n_interests=2, n_heads=2, n_layers=1)
        rng = np.random.default_rng(cfg.seed)
        ids = rng.integers(1, 20, size=(2, 8))
        targets = rng.integers(1, 20, size=2)
    else:
        ds, split = _load_data(cfg)
        model_cfg = cfg.to_model_config(ds.vocab_size)
        ids = np.stack([pad_truncate(split.train[u], cfg.max_len)
                        for u in range(min(2, len(split.train)))])
        targets = np.asarray(split.valid[:ids.shape[0]], dtype=np.int64)
    err = model_grad_check(model_cfg, ids, targets, seed=cfg.seed)
    print(f"max relative gradient error: {err:.3e}")
    if err < 1e-3:
        print("gradcheck passed")
        return 0
    print("gradcheck FAILED (threshold 1e-3)")
    return 1


def cmd_ablate(cfg: RunConfig) -> int:
    ds, split = _load_data(cfg)
    train_cfg = cfg.to_train_config()
    if cfg.full and train_cfg.seeds == 1:
        # extended run: average each variant over 4 independent seeds
        train_cfg = replace(train_cfg, seeds=4)
    base_cfg = cfg.to_model_config(ds.vocab_size)
    rows = []
    for variant in VARIANTS:
        rep, *_ = train_multi_seed(replace(base_cfg, variant=variant), split,
                                   train_cfg)
        rows.append({"variant": variant, **rep.columns()})
        print(f"{variant}: {rep}")
    if cfg.out:
        write_csv(cfg.out, rows)
        print(f"ablation table written: {cfg.out}")
    return 0


def cmd_help(_cfg: RunConfig) -> int:
    print(USAGE)
    print("\nconfig keys:")
    print(describe_keys())
    return 0


# command -> (handler, summary in USAGE)
COMMANDS = {
    "prep": (cmd_prep, "parse + filter + split a dataset, print its statistics"),
    "train": (cmd_train, "train a model, write checkpoint/metrics"),
    "eval": (cmd_eval, "evaluate a checkpoint on validation and test splits"),
    "gridsearch": (cmd_gridsearch, "sweep grid_* keys, report the best cell"),
    "bench": (cmd_bench, "measure runtime scaling"),
    "gradcheck": (cmd_gradcheck,
                  "compare analytic gradients against finite differences"),
    "ablate": (cmd_ablate, "train all variants and tabulate test metrics"),
    "help": (cmd_help, "show all config keys"),
}
HANDLERS = {name: handler for name, (handler, _) in COMMANDS.items()}

USAGE = ("usage: mlsa4rec <command> [--config FILE] [--key=value ...]\n\ncommands:\n"
         + "".join(f"  {name:<11} {text}\n" for name, (_, text) in COMMANDS.items())
         + "\nrun `mlsa4rec help` for the key reference.")


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv:
        print(USAGE, file=sys.stderr)
        return 2
    command, rest = argv[0], argv[1:]
    if command in ("-h", "--help"):
        command = "help"
    if command not in HANDLERS:
        print(f"unknown command: {command}\n{USAGE}", file=sys.stderr)
        return 2
    try:
        cfg = _parse_args(rest)
    except ConfigError as exc:
        print(f"error: {exc}\n{USAGE}", file=sys.stderr)
        return 2
    try:
        return HANDLERS[command](cfg)
    except Exception as exc:  # one-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
