"""Loss, optimizer, metrics, evaluation protocol, training loop, grid search."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from mlsa4rec import tensor as T
from mlsa4rec.data import synthetic_successor_dataset
from mlsa4rec.model import MlsaModel, ModelConfig
from mlsa4rec.tensor import ParameterStore, Tensor
from mlsa4rec.train_eval import (Adam, TrainConfig, build_training_examples,
                                 ce_loss, evaluate, grid_search, metrics_at_k,
                                 model_grad_check, rank_of_target, train,
                                 train_multi_seed, train_step)


def tiny_data(n_items=30, n_users=40, seq_len=6, seed=0):
    return synthetic_successor_dataset(n_items=n_items, n_users=n_users,
                                       seq_len=seq_len, seed=seed)


def tiny_model_config(vocab_size, **kw):
    base = dict(vocab_size=vocab_size, max_len=8, d_model=8, d_state=4,
                n_interests=2, n_heads=2, n_layers=0)
    base.update(kw)
    return ModelConfig(**base)


class SuccessorOracle:
    """Stub scorer that knows the generating rule of the synthetic data."""

    def __init__(self, n_items, max_len=8):
        self.n_items = n_items
        self.config = SimpleNamespace(max_len=max_len)

    def score(self, ids):
        out = np.zeros((ids.shape[0], self.n_items + 1))
        last = ids[:, -1]
        out[np.arange(len(last)), last % self.n_items + 1] = 1.0
        return out


class FixedScores:
    def __init__(self, scores_fn, max_len=8):
        self.scores_fn = scores_fn
        self.config = SimpleNamespace(max_len=max_len)

    def score(self, ids):
        return self.scores_fn(ids)


class TestCeLoss:
    def test_uniform_logits_give_log_vocab(self):
        logits = Tensor(np.zeros((3, 100)))
        loss = ce_loss(logits, np.array([1, 50, 99]))
        assert loss.item() == pytest.approx(np.log(100.0), rel=1e-6)

    def test_confident_correct_prediction_near_zero(self):
        logits = np.zeros((1, 10))
        logits[0, 4] = 50.0
        assert ce_loss(Tensor(logits), np.array([4])).item() < 1e-6

    def test_matches_naive_computation(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((5, 12))
        targets = rng.integers(1, 12, size=5)
        got = ce_loss(Tensor(logits), targets).item()
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        expect = -np.mean(np.log(probs[np.arange(5), targets]))
        assert got == pytest.approx(expect, rel=1e-6)

    def test_nonnegative_and_padding_rejected(self):
        rng = np.random.default_rng(1)
        logits = Tensor(rng.standard_normal((4, 9)))
        assert ce_loss(logits, np.array([1, 2, 3, 4])).item() >= 0.0
        with pytest.raises(ValueError):
            ce_loss(logits, np.array([0, 1, 2, 3]))


class TestAdam:
    def test_first_step_is_signed_learning_rate(self):
        store = ParameterStore(0)
        p = store.add("p", np.array([1.0, -2.0]))
        p.grad[:] = [0.3, -4.0]
        Adam(store, lr=0.01).step()
        # bias correction makes the first update lr * g / (|g| + eps)
        np.testing.assert_allclose(p.data, [1.0 - 0.01, -2.0 + 0.01], rtol=1e-5)

    def test_zero_gradient_leaves_parameter(self):
        store = ParameterStore(0)
        p = store.add("p", np.array([3.0]))
        Adam(store, lr=0.1).step()
        assert p.data[0] == 3.0

    def test_step_leaves_gradients(self):
        # clearing gradients is the job of whoever calls backward
        store = ParameterStore(0)
        p = store.add("p", np.array([1.0, 2.0]))
        p.grad[:] = [5.0, -3.0]
        Adam(store).step()
        np.testing.assert_array_equal(p.grad, [5.0, -3.0])

    def test_descends_quadratic(self):
        store = ParameterStore(0)
        p = store.add("p", np.array([5.0]))
        opt = Adam(store, lr=0.3)
        for _ in range(200):
            p.grad[:] = 2.0 * p.data
            opt.step()
        assert abs(p.data[0]) < 0.1


class TestRanking:
    def test_rank_counts_strictly_greater(self):
        scores = np.array([99.0, 0.5, 2.0, 1.0, 0.1])
        assert rank_of_target(scores, 2) == 1       # highest real item
        assert rank_of_target(scores, 3) == 2
        assert rank_of_target(scores, 1) == 3
        assert rank_of_target(scores, 4) == 4

    def test_ties_count_against_target(self):
        scores = np.array([0.0, 1.0, 1.0, 1.0, 2.0, 0.5])
        assert rank_of_target(scores, 2) == 4      # 1 above, 2 tied
        assert rank_of_target(scores, 4) == 1
        assert rank_of_target(scores, 5) == 5

    def test_padding_slot_never_competes(self):
        scores = np.array([1e9, 1.0, 0.0])
        assert rank_of_target(scores, 1) == 1
        with pytest.raises(ValueError):
            rank_of_target(scores, 0)

    def test_metric_closed_forms(self):
        assert metrics_at_k(1, 10) == (1.0, 1.0, 1.0)
        hr, ndcg, mrr = metrics_at_k(3, 10)
        assert (hr, mrr) == (1.0, pytest.approx(1 / 3))
        assert ndcg == pytest.approx(0.5)
        assert metrics_at_k(11, 10) == (0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            metrics_at_k(0, 10)

    def test_metric_inequality_all_ranks(self):
        for k in (10, 1000):
            for rank in range(1, 1001):
                hr, ndcg, mrr = metrics_at_k(rank, k)
                assert mrr <= ndcg + 1e-12
                assert ndcg <= hr + 1e-12


class TestEvaluate:
    def test_perfect_oracle_scores_one(self):
        ds, split = tiny_data()
        oracle = SuccessorOracle(ds.item_count)
        for phase in ("valid", "test"):
            rep = evaluate(oracle, split, phase, k=10)
            assert rep.hr_at_k == rep.ndcg_at_k == rep.mrr_at_k == 1.0
            assert rep.population == ds.user_count

    def test_random_scores_hit_at_chance_rate(self):
        ds, split = tiny_data(n_items=100, n_users=2000, seq_len=5, seed=1)
        rng = np.random.default_rng(2)
        model = FixedScores(lambda ids: rng.standard_normal((len(ids), 101)))
        rep = evaluate(model, split, "valid", k=10)
        assert rep.hr_at_k == pytest.approx(10 / 100, abs=0.03)

    def test_monotone_transform_invariance(self):
        # rankings only use score order, so any strictly increasing
        # transform leaves every metric untouched
        ds, split = tiny_data(seed=3)

        def base_fn(ids):
            phases = ids.sum(axis=1, keepdims=True) + np.arange(len(ids))[:, None]
            return np.sin(phases * np.arange(1, ds.vocab_size + 1))

        rep0 = evaluate(FixedScores(base_fn), split, "valid", k=10)
        for transform in (lambda s: 2.0 * s + 5.0, np.exp):
            rep = evaluate(FixedScores(lambda ids: transform(base_fn(ids))),
                           split, "valid", k=10)
            assert rep.hr_at_k == rep0.hr_at_k
            assert rep.ndcg_at_k == rep0.ndcg_at_k
            assert rep.mrr_at_k == rep0.mrr_at_k

    def test_constant_scores_win_nothing(self):
        # every real item ties with the target, so it ranks last of 30
        ds, split = tiny_data()
        model = FixedScores(lambda ids: np.zeros((len(ids), ds.vocab_size)))
        rep = evaluate(model, split, "valid", k=10)
        assert ds.item_count > 10
        assert (rep.hr_at_k, rep.ndcg_at_k, rep.mrr_at_k) == (0.0, 0.0, 0.0)

    def test_test_phase_appends_validation_item(self):
        ds, split = tiny_data(n_users=4)
        seen = []
        model = FixedScores(lambda ids: (seen.append(ids.copy()),
                                         np.zeros((len(ids), ds.vocab_size)))[1])
        evaluate(model, split, "test", k=10)
        last_cols = seen[0][:, -1].tolist()
        assert last_cols == split.valid

    def test_mask_history_excludes_seen_items(self):
        # 14 history items all outscore the target, pushing its rank past
        # k unless the mask removes them from the running; the target
        # (the successor of the last item) outscores every other item
        ds, split = tiny_data(n_items=100, n_users=10, seq_len=16)

        def score_history_high(ids):
            out = np.zeros((len(ids), ds.vocab_size))
            for row, seq in enumerate(ids):
                out[row, seq[seq > 0]] = 10.0
                out[row, seq[-1] % ds.item_count + 1] = 5.0
            return out

        model = FixedScores(score_history_high, max_len=20)
        masked = evaluate(model, split, "valid", k=10, mask_history=True)
        plain = evaluate(model, split, "valid", k=10)
        assert masked.hr_at_k == 1.0
        assert plain.hr_at_k == 0.0

    def test_rejects_unknown_phase(self):
        ds, split = tiny_data(n_users=4)
        with pytest.raises(ValueError, match="^unknown phase 'train'$"):
            evaluate(SuccessorOracle(ds.item_count), split, "train")


class TestTrainingExamples:
    def test_one_example_per_user(self):
        ds, split = tiny_data(n_users=7, seq_len=6)
        xs, ys = build_training_examples(split, max_len=8)
        assert xs.shape == (7, 8)
        for row, seq in zip(range(7), split.train):
            assert ys[row] == seq[-1]
            np.testing.assert_array_equal(xs[row, -len(seq) + 1:], seq[:-1])

    def test_sliding_adds_all_prefixes(self):
        ds, split = tiny_data(n_users=3, seq_len=6)
        xs, ys = build_training_examples(split, max_len=8, augment="sliding")
        per_user = len(split.train[0]) - 1
        assert len(ys) == 3 * per_user
        assert ys[0] == split.train[0][1]

    def test_empty_training_data_rejected(self):
        from mlsa4rec.data import Split
        with pytest.raises(ValueError):
            build_training_examples(Split([[5]], [1], [2]), max_len=8)


class TestTrainStep:
    def test_matches_hand_written_step(self):
        ds, split = tiny_data()
        xs, ys = build_training_examples(split, 8)
        mc = tiny_model_config(ds.vocab_size, n_layers=1, dropout=0.2)
        by_hand, stepped = MlsaModel(mc, seed=9), MlsaModel(mc, seed=9)
        hand_opt, opt = Adam(by_hand.params, lr=0.01), Adam(stepped.params, lr=0.01)
        for idx in (np.arange(0, 16), np.arange(16, 32)):
            logits, _ = by_hand.forward(xs[idx], training=True)
            loss = ce_loss(logits, ys[idx])
            by_hand.params.zero_grads()
            loss.backward()
            hand_opt.step()
            got_loss, got_logits = train_step(stepped, opt, xs[idx], ys[idx])
            assert got_loss == loss.item()
            np.testing.assert_array_equal(got_logits, logits.data)
        for name, p in by_hand.params.entries.items():
            assert np.array_equal(stepped.params.entries[name].data, p.data), name

    def test_ignores_stale_gradients(self):
        ds, split = tiny_data()
        xs, ys = build_training_examples(split, 8)
        mc = tiny_model_config(ds.vocab_size, n_layers=1, dropout=0.2)
        clean, stale = MlsaModel(mc, seed=9), MlsaModel(mc, seed=9)
        clean_opt, stale_opt = Adam(clean.params, lr=0.01), Adam(stale.params, lr=0.01)
        for p in stale.params.entries.values():
            p.grad[...] = 1e3
        train_step(clean, clean_opt, xs[:16], ys[:16])
        train_step(stale, stale_opt, xs[:16], ys[:16])
        for name, p in clean.params.entries.items():
            assert np.array_equal(stale.params.entries[name].data, p.data), name


class TestTrainLoop:
    def test_loss_decreases_and_history_recorded(self):
        ds, split = tiny_data()
        model = MlsaModel(tiny_model_config(ds.vocab_size), seed=0)
        cfg = TrainConfig(lr=0.01, batch_size=16, epochs=5, patience=5, seed=0)
        result = train(model, split, cfg)
        losses = [row["loss"] for row in result.history]
        assert len(losses) == 5
        assert losses[-1] < losses[0]
        assert result.best_epoch >= 0

    def test_first_epoch_loss_near_log_vocab(self):
        ds, split = tiny_data(n_items=50, n_users=30)
        model = MlsaModel(tiny_model_config(ds.vocab_size), seed=1)
        cfg = TrainConfig(lr=1e-5, batch_size=64, epochs=1, patience=1, seed=1)
        result = train(model, split, cfg)
        assert result.history[0]["loss"] == pytest.approx(np.log(51), rel=0.10)

    def test_reproducible_first_epoch(self):
        ds, split = tiny_data()
        losses = []
        for _ in range(2):
            model = MlsaModel(tiny_model_config(ds.vocab_size), seed=7)
            cfg = TrainConfig(lr=0.01, batch_size=16, epochs=1, seed=7)
            losses.append(train(model, split, cfg).history[0]["loss"])
        assert losses[0] == losses[1]

    def test_model_left_on_best_weights(self):
        ds, split = tiny_data()
        model = MlsaModel(tiny_model_config(ds.vocab_size), seed=2)
        cfg = TrainConfig(lr=0.01, batch_size=16, epochs=4, patience=4, seed=2)
        result = train(model, split, cfg)
        rep = evaluate(model, split, "valid", k=10)
        assert rep.ndcg_at_k == pytest.approx(result.best_valid.ndcg_at_k,
                                              abs=1e-12)

    def test_early_stopping_halts(self):
        ds, split = tiny_data(n_users=10)
        model = MlsaModel(tiny_model_config(ds.vocab_size), seed=3)
        # zero learning rate: metrics never improve after the first epoch
        cfg = TrainConfig(lr=1e-12, batch_size=16, epochs=50, patience=2, seed=3)
        result = train(model, split, cfg)
        assert len(result.history) <= 4

    def test_padding_row_stays_frozen(self):
        # row 0 gets exactly zero gradient, so Adam never moves it
        ds, split = tiny_data()
        model = MlsaModel(tiny_model_config(ds.vocab_size), seed=4)
        initial = model.embedding.data[0].copy()
        cfg = TrainConfig(lr=0.05, batch_size=16, epochs=2, seed=4)
        train(model, split, cfg)
        np.testing.assert_array_equal(model.embedding.data[0], initial)

    @pytest.mark.parametrize("key", ["epochs", "patience", "k", "seeds"])
    def test_rejects_count_below_one(self, key):
        ds, split = tiny_data(n_users=10)
        model = MlsaModel(tiny_model_config(ds.vocab_size), seed=0)
        cfg = replace(TrainConfig(lr=0.01, batch_size=16, epochs=1), **{key: 0})
        with pytest.raises(ValueError, match=f"^{key} must be >= 1$"):
            train(model, split, cfg)

    def test_rejects_unknown_augment_mode(self):
        cfg = TrainConfig(augment="shuffle")
        with pytest.raises(ValueError, match="^unknown augment mode 'shuffle'$"):
            cfg.validate()

    def test_multi_seed_averages(self):
        ds, split = tiny_data(n_users=12)
        cfg = TrainConfig(lr=0.01, batch_size=16, epochs=2, seed=0, seeds=2)
        lines = []
        mean, reports, rows, first = train_multi_seed(
            tiny_model_config(ds.vocab_size), split, cfg, log=lines.append)
        assert len(reports) == 2
        assert [l for l in lines if l.startswith("test:")] == [
            f"test: {r}" for r in reports]
        # the returned model is the first seed's, on its best weights
        assert evaluate(first, split, "test", k=cfg.k) == reports[0]
        assert mean.hr_at_k == pytest.approx(
            np.mean([r.hr_at_k for r in reports]))
        assert sum(1 for r in rows if r["phase"] == "test") == 2
        seeds = {r["seed"] for r in rows}
        assert seeds == {0, 1}


class TestGridSearch:
    def test_rejects_unknown_key(self):
        ds, split = tiny_data()
        with pytest.raises(ValueError, match="not searchable"):
            grid_search(split, tiny_model_config(ds.vocab_size),
                        TrainConfig(), {"lr": [0.1]})

    def test_rejects_empty_grid(self):
        ds, split = tiny_data()
        with pytest.raises(ValueError):
            grid_search(split, tiny_model_config(ds.vocab_size),
                        TrainConfig(), {})

    def test_cell_scored_on_mean_over_seeds(self):
        ds, split = tiny_data(n_users=12)
        mc = tiny_model_config(ds.vocab_size)
        tc = TrainConfig(lr=0.01, batch_size=16, epochs=2, seed=5, seeds=2)
        _, _, rows = grid_search(split, mc, tc, {"n_heads": [2]})
        runs = [train(MlsaModel(mc, seed=s), split, replace(tc, seed=s, seeds=1))
                for s in (5, 6)]
        ndcg = [r.best_valid.ndcg_at_k for r in runs]
        assert ndcg[0] != ndcg[1]       # so one seed alone cannot pass
        assert rows[0]["ndcg@10"] == float(np.mean(ndcg))
        assert rows[0]["hr@10"] == float(np.mean([r.best_valid.hr_at_k for r in runs]))
        assert rows[0]["epoch"] == runs[0].best_epoch

    def test_singleton_grid_returns_cell(self):
        ds, split = tiny_data(n_users=10)
        mc, tc, rows = grid_search(
            split, tiny_model_config(ds.vocab_size),
            TrainConfig(lr=0.01, batch_size=16, epochs=1, seed=0),
            {"n_heads": [2], "batch_size": [8]})
        # each key lands in the config that has a field of its name
        assert mc.n_heads == 2 and tc.batch_size == 8
        assert len(rows) == 1

    def test_extreme_dropout_loses(self):
        ds, split = tiny_data(n_items=20, n_users=30)
        mc, tc, rows = grid_search(
            split, tiny_model_config(ds.vocab_size),
            TrainConfig(lr=0.02, batch_size=16, epochs=3, seed=0),
            {"dropout": [0.0, 0.9]})
        assert mc.dropout == 0.0
        assert len(rows) == 2
        assert {r["dropout"] for r in rows} == {0.0, 0.9}


class TestModelGradCheck:
    def test_full_model_gradients(self):
        cfg = ModelConfig(vocab_size=20, max_len=8, d_model=8, d_state=4,
                          n_interests=2, n_heads=2, n_layers=1)
        rng = np.random.default_rng(0)
        ids = rng.integers(1, 20, size=(2, 8))
        targets = rng.integers(1, 20, size=2)
        err = model_grad_check(cfg, ids, targets, seed=0, n_samples=60)
        assert err < 1e-3
