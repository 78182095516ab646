"""Dataset ingestion, filtering, splitting, and fixed-length encoding.

Raw interaction logs (user, item, timestamp) are k-core filtered so
every surviving user and item has at least k interactions, re-indexed
densely (items from 1; 0 is the padding id), sorted chronologically per
user with stable tie-breaking, and split leave-one-out: the newest item
is the test target, the second newest the validation target, the rest
the training sequence.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

CACHE_VERSION = 2
# What a cache records of the run that built it, in the order a load
# compares them.  The raw file's path is not among them: the cache stands
# in for that file, which may be absent.
CACHE_SETTINGS = ("dataset", "kcore", "filter_mode")


class ParseError(ValueError):
    """Input line does not match the documented record layout."""


class InteractionRecord(NamedTuple):
    user: str
    item: str
    timestamp: int
    rating: float = 0.0


@dataclass
class Dataset:
    """Filtered, densely indexed interaction sequences (full, pre-split)."""
    sequences: list[list[int]]      # user index -> chronological item indices
    user_ids: list[str]             # user index -> original id
    item_ids: list[str]             # item index -> original id; [0] is padding

    @property
    def user_count(self) -> int:
        return len(self.sequences)

    @property
    def item_count(self) -> int:
        return len(self.item_ids) - 1

    @property
    def interaction_count(self) -> int:
        return sum(len(s) for s in self.sequences)

    @property
    def vocab_size(self) -> int:
        return len(self.item_ids)


@dataclass
class Split:
    """Leave-one-out views per user."""
    train: list[list[int]]
    valid: list[int]
    test: list[int]


def _parse_lines(path: str, sep: str, source: str) -> list[InteractionRecord]:
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split(sep)
            if len(parts) != 4:
                raise ParseError(
                    f"{source} line {lineno}: expected 4 fields, got {len(parts)}")
            user, item, rating, ts = parts
            try:
                ts_val = int(float(ts))
                rating_val = float(rating)
            except (ValueError, OverflowError):     # "x", or "inf" as a timestamp
                raise ParseError(
                    f"{source} line {lineno}: non-numeric rating/timestamp") from None
            if ts_val < 0:
                raise ParseError(f"{source} line {lineno}: negative timestamp")
            records.append(InteractionRecord(user, item, ts_val, rating_val))
    return records


def parse_movielens(path: str) -> list[InteractionRecord]:
    """Read '::'-delimited lines UserID::MovieID::Rating::Timestamp."""
    return _parse_lines(path, "::", "movielens")


def parse_amazon(path: str) -> list[InteractionRecord]:
    """Read comma-separated lines user,item,rating,timestamp."""
    return _parse_lines(path, ",", "amazon")


# dataset name -> parser of its raw file; "synthetic" is generated instead
RAW_PARSERS = {"movielens": parse_movielens, "amazon": parse_amazon}
DATASETS = (*RAW_PARSERS, "synthetic")
FILTER_MODES = ("iterative", "one-pass")


def kcore_filter(records: list[InteractionRecord], k: int = 5,
                 mode: str = "iterative") -> list[InteractionRecord]:
    """Drop users and items with fewer than k interactions.

    "iterative" repeats removal until both minimum-degree constraints
    hold simultaneously (unique fixpoint); "one-pass" applies a single
    removal round using the raw counts.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if mode not in FILTER_MODES:
        raise ValueError(f"unknown filter mode {mode!r}")
    current = records
    while True:
        user_deg = Counter(r.user for r in current)
        item_deg = Counter(r.item for r in current)
        kept = [r for r in current
                if user_deg[r.user] >= k and item_deg[r.item] >= k]
        if mode == "one-pass" or len(kept) == len(current):
            return kept
        current = kept


def build_split(records: list[InteractionRecord]) -> tuple[Dataset, Split]:
    """Index, sort, and split pre-filtered records.

    Index assignment follows first appearance in file order; per-user
    ordering is a stable sort on timestamp, so equal stamps keep file
    order.  Every user needs >= 3 interactions.
    """
    user_index: dict[str, int] = {}
    item_index: dict[str, int] = {}
    per_user: list[list[tuple[int, int]]] = []   # (timestamp, item index)
    for r in records:
        u = user_index.setdefault(r.user, len(user_index))
        if u == len(per_user):
            per_user.append([])
        i = item_index.setdefault(r.item, len(item_index) + 1)
        per_user[u].append((r.timestamp, i))

    sequences = []
    for events in per_user:
        events.sort(key=lambda e: e[0])          # list.sort is stable
        if len(events) < 3:
            raise ValueError(
                "leave-one-out split needs >= 3 interactions per user; "
                "run k-core filtering first")
        sequences.append([i for _, i in events])

    # indices follow first appearance, and so does a dict's order
    ds = Dataset(sequences, list(user_index), [""] + list(item_index))
    return ds, split_dataset(ds)


def split_dataset(ds: Dataset) -> Split:
    train = [seq[:-2] for seq in ds.sequences]
    valid = [seq[-2] for seq in ds.sequences]
    test = [seq[-1] for seq in ds.sequences]
    return Split(train, valid, test)


def pad_truncate(items: list[int], max_len: int = 50) -> np.ndarray:
    """Right-align the newest max_len items, left-padding with id 0."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    out = np.zeros(max_len, dtype=np.int64)
    tail = items[-max_len:]
    if tail:
        out[max_len - len(tail):] = tail
    return out


def dataset_stats(ds: Dataset) -> tuple[int, int, int, float]:
    """(users, items, interactions, average sequence length)."""
    users = ds.user_count
    if users == 0:
        return 0, 0, 0, 0.0
    inter = ds.interaction_count
    return users, ds.item_count, inter, inter / users


def save_dataset_cache(ds: Dataset, path: str, settings: dict) -> None:
    """Persist the processed dataset (id maps + sequences) as JSON, with the
    CACHE_SETTINGS values it was built with."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"version": CACHE_VERSION,
                   **{key: settings[key] for key in CACHE_SETTINGS},
                   "user_ids": ds.user_ids,
                   "item_ids": ds.item_ids,
                   "sequences": ds.sequences}, fh)


def load_dataset_cache(path: str, settings: dict) -> tuple[Dataset, Split]:
    """Read and split a save_dataset_cache file, or raise a ValueError naming
    it.  The file must have been built with these CACHE_SETTINGS values, and
    every user needs an id and at least 3 items (train, valid, test), each a
    real item id."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            blob = json.load(fh)
        except ValueError as exc:   # bad JSON, or bytes that are not UTF-8
            raise ValueError(f"{path}: not UTF-8 JSON ({exc})") from None
    if not isinstance(blob, dict):
        raise ValueError(f"{path}: top level is a {type(blob).__name__}, "
                         "not an object")
    if blob.get("version") != CACHE_VERSION:
        raise ValueError(f"{path}: cache version {blob.get('version')}, not "
                         f"{CACHE_VERSION}; re-run prep to rebuild it")
    for key in CACHE_SETTINGS:
        if blob.get(key) != settings[key]:
            raise ValueError(f"{path}: built with {key} {blob.get(key)!r}, not "
                             f"{settings[key]!r}; re-run prep to rebuild it")
    for key in ("user_ids", "item_ids", "sequences"):
        if not isinstance(blob.get(key), list):
            raise ValueError(f"{path}: {key!r} is missing or not a list")
    ds = Dataset(blob["sequences"], blob["user_ids"], blob["item_ids"])
    if len(ds.user_ids) != len(ds.sequences):
        raise ValueError(f"{path}: {len(ds.user_ids)} user ids for "
                         f"{len(ds.sequences)} sequences")
    for user, seq in zip(ds.user_ids, ds.sequences):
        if not isinstance(seq, list) or any(type(i) is not int for i in seq):
            raise ValueError(f"{path}: user {user!r} has a sequence that is "
                             "not a list of integer item ids")
        bad = [i for i in seq if not 1 <= i < ds.vocab_size]
        if bad:
            raise ValueError(f"{path}: user {user!r} has item id {bad[0]}, "
                             f"outside [1, {ds.vocab_size})")
        if len(seq) < 3:
            raise ValueError(f"{path}: user {user!r} has {len(seq)} items; "
                             "a train/valid/test split needs at least 3")
    return ds, split_dataset(ds)


def synthetic_successor_dataset(n_items: int = 500, n_users: int = 2000,
                                seq_len: int = 20, seed: int = 0
                                ) -> tuple[Dataset, Split]:
    """Deterministic-rule data: item i is always followed by i+1 mod n_items.

    Each user starts at a random item and walks the cycle; ids are
    1-based so 0 stays reserved for padding.
    """
    rng = np.random.default_rng(seed)
    starts = rng.integers(0, n_items, size=n_users)
    sequences = [[int((s + j) % n_items) + 1 for j in range(seq_len)]
                 for s in starts]
    user_ids = [f"synthetic-{u}" for u in range(n_users)]
    item_ids = [""] + [str(i) for i in range(1, n_items + 1)]
    ds = Dataset(sequences, user_ids, item_ids)
    return ds, split_dataset(ds)
