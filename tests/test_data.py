"""Parsing, k-core filtering, leave-one-out splitting, encoding, caching."""

import json

import numpy as np
import pytest

from mlsa4rec.data import (CACHE_VERSION, Dataset, InteractionRecord,
                           ParseError, build_split,
                           dataset_stats, kcore_filter, load_dataset_cache,
                           pad_truncate, parse_amazon, parse_movielens,
                           save_dataset_cache, split_dataset,
                           synthetic_successor_dataset)


def rec(user, item, ts):
    return InteractionRecord(str(user), str(item), ts)


def brute_force_kcore(records, k):
    """Oracle: re-scan and drop until no undersized user/item remains."""
    kept = list(records)
    changed = True
    while changed:
        changed = False
        users = {}
        items = {}
        for r in kept:
            users[r.user] = users.get(r.user, 0) + 1
            items[r.item] = items.get(r.item, 0) + 1
        nxt = [r for r in kept if users[r.user] >= k and items[r.item] >= k]
        if len(nxt) != len(kept):
            kept = nxt
            changed = True
    return kept


class TestParsing:
    def test_movielens_format(self, tmp_path):
        p = tmp_path / "ratings.dat"
        p.write_text("1::1193::5::978300760\n1::661::3::978302109\n\n"
                     "2::1193::4::978298413\n")
        records = parse_movielens(str(p))
        assert records == [
            InteractionRecord("1", "1193", 978300760, 5.0),
            InteractionRecord("1", "661", 978302109, 3.0),
            InteractionRecord("2", "1193", 978298413, 4.0),
        ]

    def test_amazon_format(self, tmp_path):
        p = tmp_path / "ratings.csv"
        p.write_text("A1,B00001,5.0,1367193600\nA2,B00001,1.0,1367193601\n")
        records = parse_amazon(str(p))
        assert records[0] == InteractionRecord("A1", "B00001", 1367193600, 5.0)
        assert records[1].timestamp == 1367193601

    def test_float_timestamps_truncate(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("u,i,4.0,1367193600.0\n")
        assert parse_amazon(str(p))[0].timestamp == 1367193600

    def test_wrong_field_count_reports_line(self, tmp_path):
        p = tmp_path / "bad.dat"
        p.write_text("1::2::3::4\n1::2::3\n")
        with pytest.raises(ParseError, match="line 2"):
            parse_movielens(str(p))

    def test_non_numeric_timestamp(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("u,i,5,not-a-time\n")
        with pytest.raises(ParseError, match="line 1"):
            parse_amazon(str(p))

    @pytest.mark.parametrize("ts", ["inf", "-inf", "1e400"])
    def test_overflowing_timestamp_reports_line(self, tmp_path, ts):
        p = tmp_path / "bad.csv"
        p.write_text(f"u,i,5,1\nu,i,5,{ts}\n")
        with pytest.raises(ParseError, match="line 2"):
            parse_amazon(str(p))

    def test_negative_timestamp(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("u,i,5,-3\n")
        with pytest.raises(ParseError, match="negative"):
            parse_amazon(str(p))


class TestKcore:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for trial in range(10):
            records = [rec(rng.integers(0, 12), rng.integers(0, 15), t)
                       for t in range(120)]
            got = kcore_filter(records, k=3)
            assert got == brute_force_kcore(records, 3), f"trial {trial}"

    def test_cascade_removal(self):
        # item C has degree 1, so u3 loses it, falls under k, and drags
        # its remaining B interaction out on the next round
        records = [rec("u1", "A", 1), rec("u1", "B", 2),
                   rec("u2", "A", 3), rec("u2", "B", 4),
                   rec("u3", "B", 5), rec("u3", "C", 6)]
        out = kcore_filter(records, k=2)
        assert out == records[:4]
        assert out == brute_force_kcore(records, 2)

    def test_one_pass_keeps_violations(self):
        # one-pass stops after the first round, leaving u3 with a single
        # interaction; the iterative fixpoint removes it
        records = [rec("u1", "A", 1), rec("u1", "B", 2),
                   rec("u2", "A", 3), rec("u2", "B", 4),
                   rec("u3", "B", 5), rec("u3", "C", 6)]
        one = kcore_filter(records, k=2, mode="one-pass")
        assert one == records[:5]
        assert kcore_filter(records, k=2) == records[:4]

    def test_all_pass_through(self):
        records = [rec("u", "i", t) for t in range(5)]
        assert kcore_filter(records, k=5) == records

    def test_validation(self):
        with pytest.raises(ValueError):
            kcore_filter([], k=0)
        with pytest.raises(ValueError):
            kcore_filter([], mode="twice")


class TestBuildSplit:
    def test_basic_example(self):
        records = [rec("alice", "x", 10), rec("alice", "y", 20),
                   rec("alice", "z", 30),
                   rec("bob", "y", 5), rec("bob", "x", 15), rec("bob", "w", 25)]
        ds, split = build_split(records)
        # items indexed from 1 by first appearance: x=1, y=2, z=3, w=4
        assert ds.item_ids == ["", "x", "y", "z", "w"]
        assert ds.user_ids == ["alice", "bob"]
        assert ds.sequences == [[1, 2, 3], [2, 1, 4]]
        assert split.train == [[1], [2]]
        assert split.valid == [2, 1]
        assert split.test == [3, 4]

    def test_chronological_resort(self):
        records = [rec("u", "late", 99), rec("u", "early", 1), rec("u", "mid", 50)]
        ds, _ = build_split(records)
        assert [ds.item_ids[i] for i in ds.sequences[0]] == ["early", "mid", "late"]

    def test_equal_timestamps_keep_file_order(self):
        records = [rec("u", chr(ord("a") + j), 7) for j in range(5)]
        ds, _ = build_split(records)
        assert [ds.item_ids[i] for i in ds.sequences[0]] == list("abcde")

    def test_too_short_user_rejected(self):
        with pytest.raises(ValueError, match=">= 3"):
            build_split([rec("u", "a", 1), rec("u", "b", 2)])

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        records = [rec(rng.integers(0, 5), rng.integers(0, 8), t)
                   for t in range(60)]
        records = kcore_filter(records, k=3)
        a, _ = build_split(records)
        b, _ = build_split(list(records))
        assert a.sequences == b.sequences
        assert a.item_ids == b.item_ids

    def test_counts(self):
        records = [rec("u", i, t) for t, i in enumerate("abcd")] + \
                  [rec("v", i, t) for t, i in enumerate("abc")]
        ds, _ = build_split(records)
        assert ds.user_count == 2
        assert ds.item_count == 4
        assert ds.vocab_size == 5
        assert ds.interaction_count == 7
        users, items, inter, avg = dataset_stats(ds)
        assert (users, items, inter) == (2, 4, 7)
        assert avg == pytest.approx(3.5)


class TestPadTruncate:
    def test_pads_left(self):
        np.testing.assert_array_equal(pad_truncate([5, 6], 5), [0, 0, 0, 5, 6])

    def test_truncates_to_newest(self):
        np.testing.assert_array_equal(pad_truncate([1, 2, 3, 4], 2), [3, 4])

    def test_exact_fit_and_empty(self):
        np.testing.assert_array_equal(pad_truncate([1, 2], 2), [1, 2])
        np.testing.assert_array_equal(pad_truncate([], 3), [0, 0, 0])

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            pad_truncate([1], 0)


# the settings a cache is built and loaded with in these tests
SETTINGS = {"dataset": "movielens", "kcore": 5, "filter_mode": "iterative"}
# a valid save_dataset_cache file's content, for the malformed-cache cases
GOOD_CACHE = {"version": 2, **SETTINGS, "user_ids": ["u0"],
              "item_ids": ["", "a", "b", "c"], "sequences": [[1, 2, 3]]}


class TestCache:
    def test_round_trip(self, tmp_path):
        ds, split = build_split([rec("u", i, t) for t, i in enumerate("abc")]
                                + [rec("v", i, t) for t, i in enumerate("cba")])
        path = str(tmp_path / "cache.json")
        save_dataset_cache(ds, path, SETTINGS)
        with open(path, encoding="utf-8") as fh:
            assert {k: v for k, v in json.load(fh).items()
                    if k in SETTINGS} == SETTINGS
        back, back_split = load_dataset_cache(path, SETTINGS)
        assert back == ds
        assert back_split == split

    def test_version_check(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text('{"version": 999, "user_ids": [], "item_ids": [""], '
                        '"sequences": []}')
        with pytest.raises(ValueError, match="version"):
            load_dataset_cache(str(path), SETTINGS)

    def test_version_1_says_to_rerun_prep(self, tmp_path):
        assert CACHE_VERSION == 2
        path = tmp_path / "cache.json"
        path.write_text(json.dumps({**GOOD_CACHE, "version": 1}))
        with pytest.raises(ValueError) as info:
            load_dataset_cache(str(path), SETTINGS)
        assert str(info.value) == (f"{path}: cache version 1, not 2; "
                                   "re-run prep to rebuild it")

    @pytest.mark.parametrize("key, value, shown", [
        ("dataset", "amazon", "dataset 'movielens', not 'amazon'"),
        ("kcore", 12, "kcore 5, not 12"),
        ("filter_mode", "one-pass", "filter_mode 'iterative', not 'one-pass'"),
    ], ids=["dataset", "kcore", "filter_mode"])
    def test_rejects_other_settings(self, tmp_path, key, value, shown):
        path = tmp_path / "cache.json"
        path.write_text(json.dumps(GOOD_CACHE))
        with pytest.raises(ValueError) as info:
            load_dataset_cache(str(path), {**SETTINGS, key: value})
        assert str(info.value) == (f"{path}: built with {shown}; "
                                   "re-run prep to rebuild it")

    def test_names_the_first_setting_that_differs(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text(json.dumps(GOOD_CACHE))
        with pytest.raises(ValueError, match="with kcore 5, not 3"):
            load_dataset_cache(str(path), {**SETTINGS, "kcore": 3,
                                           "filter_mode": "one-pass"})

    @staticmethod
    def write_cache(tmp_path, sequences, user_ids=None, n_items=5):
        path = tmp_path / "cache.json"
        if user_ids is None:
            user_ids = [f"u{i}" for i in range(len(sequences))]
        item_ids = [""] + [str(i) for i in range(n_items)]
        path.write_text(json.dumps({**GOOD_CACHE, "user_ids": user_ids,
                                    "item_ids": item_ids, "sequences": sequences}))
        return str(path)

    def test_padding_id_in_history(self, tmp_path):
        path = self.write_cache(tmp_path, [[1, 2, 3], [2, 0, 4, 5]])
        with pytest.raises(ValueError, match=r"cache\.json: user 'u1' has item id 0"):
            load_dataset_cache(path, SETTINGS)

    def test_item_id_past_vocab(self, tmp_path):
        path = self.write_cache(tmp_path, [[1, 2, 3], [1, 2, 6], [7, 1, 2]])
        with pytest.raises(ValueError, match=r"user 'u1' has item id 6, outside \[1, 6\)"):
            load_dataset_cache(path, SETTINGS)

    def test_user_with_too_few_items(self, tmp_path):
        path = self.write_cache(tmp_path, [[1, 2, 3], [4], [5, 1]])
        with pytest.raises(ValueError, match="cache.json: user 'u1' has 1 items"):
            load_dataset_cache(path, SETTINGS)

    def test_user_ids_match_sequences(self, tmp_path):
        path = self.write_cache(tmp_path, [[1, 2, 3], [2, 3, 4]], user_ids=["u0"])
        with pytest.raises(ValueError, match="1 user ids for 2 sequences"):
            load_dataset_cache(path, SETTINGS)

    @pytest.mark.parametrize("text, message", [
        ("[1, 2, 3]", "top level is a list, not an object"),
        ("{\"version\": 2,", "not UTF-8 JSON"),
        *[(json.dumps({k: v for k, v in GOOD_CACHE.items() if k != key}),
           f"'{key}' is missing or not a list")
          for key in ("user_ids", "item_ids", "sequences")],
        (json.dumps({**GOOD_CACHE, "sequences": {"u0": [1, 2, 3]}}),
         "'sequences' is missing or not a list"),
        (json.dumps({**GOOD_CACHE, "sequences": [[1, "b", 3]]}),
         "user 'u0' has a sequence that is not a list of integer item ids"),
        (json.dumps({**GOOD_CACHE, "sequences": [[1, 2.0, 3]]}),
         "user 'u0' has a sequence that is not a list of integer item ids"),
        (json.dumps({**GOOD_CACHE, "sequences": [7]}),
         "user 'u0' has a sequence that is not a list of integer item ids"),
    ], ids=["list", "truncated", "no_user_ids", "no_item_ids", "no_sequences",
            "sequences_object", "string_id", "float_id", "sequence_int"])
    def test_malformed_cache_names_the_file(self, tmp_path, text, message):
        path = tmp_path / "cache.json"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            load_dataset_cache(str(path), SETTINGS)
        assert str(info.value).startswith(f"{path}: {message}")


class TestSynthetic:
    def test_successor_rule(self):
        ds, split = synthetic_successor_dataset(n_items=50, n_users=10,
                                                seq_len=6, seed=3)
        for seq in ds.sequences:
            for a, b in zip(seq, seq[1:]):
                assert b == a % 50 + 1
        assert ds.user_count == 10
        assert ds.item_count == 50
        assert min(min(s) for s in ds.sequences) >= 1
        # split views agree with the sequences
        for seq, tr, va, te in zip(ds.sequences, split.train, split.valid,
                                   split.test):
            assert seq == tr + [va, te]

    def test_seeded(self):
        a, _ = synthetic_successor_dataset(seed=1)
        b, _ = synthetic_successor_dataset(seed=1)
        c, _ = synthetic_successor_dataset(seed=2)
        assert a.sequences == b.sequences
        assert a.sequences != c.sequences

    def test_split_dataset_views(self):
        ds = Dataset([[1, 2, 3, 4]], ["u"], ["", "a", "b", "c", "d"])
        split = split_dataset(ds)
        assert split.train == [[1, 2]]
        assert split.valid == [3]
        assert split.test == [4]
        assert len(split.train) == 1
