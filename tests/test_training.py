import math
import tracemalloc

import numpy as np
import pytest

from twinrec.autodiff import BLOCK, Tensor, use_dtype
from twinrec.data import (UserSequence, build_context_vocab, eval_input,
                          generate_training_samples)
from twinrec.model import ModelConfig, SequentialRecommender
from twinrec.training import (Adam, TrainConfig, evaluate, export_attention,
                              rank_of, ranking_metrics, train)


def reference_adam(theta, grads, lr=0.1, b1=0.9, b2=0.999, eps=1e-8):
    """Independent scalar Adam for cross-checking updates."""
    m = v = 0.0
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        theta = theta - lr * m_hat / (math.sqrt(v_hat) + eps)
    return theta


class TestTrainConfig:
    @pytest.mark.parametrize("key,value", [("lr", "nan"), ("lr", "inf"), ("lr", "0"),
                                           ("l2", "nan"), ("l2", "inf"), ("l2", "-1")])
    def test_bad_rates_rejected(self, key, value):
        with pytest.raises(ValueError):
            TrainConfig(**{key: float(value)})


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        p = Tensor([1.0, 2.0], requires_grad=True)
        opt = Adam({"p": p}, TrainConfig(lr=0.1, epochs=1))
        p.grad = np.zeros(2, dtype=p.data.dtype)
        opt.step()
        assert opt.t == 1
        np.testing.assert_array_equal(p.data, [1.0, 2.0])

    def test_missing_gradient_rejected(self):
        p = Tensor([1.0], requires_grad=True)
        opt = Adam({"p": p}, TrainConfig(epochs=1))
        with pytest.raises(RuntimeError):
            opt.step()

    def test_matches_reference_on_quadratic(self):
        # f(theta) = theta^2, three steps, checked against the reference update
        from twinrec.autodiff import use_dtype
        with use_dtype(np.float64):
            p = Tensor([1.0], requires_grad=True)
            opt = Adam({"p": p}, TrainConfig(lr=0.1, epochs=1))
            grads = []
            for _ in range(3):
                grads.append(2.0 * p.data[0])
                p.grad = np.array([grads[-1]])
                opt.step()
        # replay the recorded gradient stream through the oracle
        expect = reference_adam(1.0, grads, lr=0.1)
        assert p.data[0] == pytest.approx(expect, abs=1e-10)

    def test_identical_state_identical_updates(self):
        a = Tensor([0.5], requires_grad=True)
        b = Tensor([0.5], requires_grad=True)
        opt = Adam({"a": a, "b": b}, TrainConfig(lr=0.01, epochs=1))
        a.grad = np.array([0.3], dtype=a.data.dtype)
        b.grad = np.array([0.3], dtype=b.data.dtype)
        opt.step()
        assert a.data[0] == b.data[0]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_blocked_update_is_bit_identical_to_plain_formula(self, dtype):
        # More than two blocks, the last one partial.
        rng = np.random.default_rng(4)
        with use_dtype(dtype):
            p = Tensor(rng.standard_normal((3, BLOCK - 5)), requires_grad=True)
        cfg = TrainConfig(lr=0.01, epochs=1)
        opt = Adam({"p": p}, cfg)
        theta, m, v = p.data.copy(), np.zeros_like(p.data), np.zeros_like(p.data)
        for t in range(1, 6):
            g = rng.standard_normal(p.data.shape).astype(dtype)
            p.grad = g
            opt.step()
            # The plain whole-array update, as the oracle.
            m = cfg.beta1 * m + (1.0 - cfg.beta1) * g
            v = cfg.beta2 * v + (1.0 - cfg.beta2) * g * g
            m_hat = m / (1.0 - cfg.beta1 ** t)
            v_hat = v / (1.0 - cfg.beta2 ** t)
            theta = theta - cfg.lr * m_hat / (np.sqrt(v_hat) + cfg.eps)
        assert p.data.dtype == theta.dtype == dtype
        np.testing.assert_array_equal(p.data, theta)
        np.testing.assert_array_equal(opt.m["p"], m)
        np.testing.assert_array_equal(opt.v["p"], v)

    def test_step_allocates_no_parameter_sized_array(self):
        # A (64, 100000) float32 tensor is 25.6 MB; a step that builds
        # whole-array temporaries peaks at several times that.
        p = Tensor(np.zeros((64, 100_000)), requires_grad=True)
        p.grad = np.full(p.data.shape, 0.5, dtype=p.data.dtype)
        opt = Adam({"p": p}, TrainConfig(epochs=1))
        tracemalloc.start()
        try:
            opt.step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert np.all(p.data < 0)


class TestMetrics:
    def test_rank_one_is_perfect(self):
        hr, ndcg = ranking_metrics([1], ks=(5,))
        assert hr[5] == 1.0 and ndcg[5] == 1.0

    def test_rank_three_closed_form(self):
        hr, ndcg = ranking_metrics([3], ks=(5,))
        assert hr[5] == 1.0
        assert ndcg[5] == pytest.approx(1.0 / math.log2(4.0))
        assert ndcg[5] == pytest.approx(0.5)

    def test_rank_outside_cutoff(self):
        hr, ndcg = ranking_metrics([11], ks=(10,))
        assert hr[10] == 0.0 and ndcg[10] == 0.0

    def test_no_users_is_an_error(self):
        with pytest.raises(ValueError):
            ranking_metrics([])

    def test_rank_of_tie_break(self):
        scores = np.array([0.5, 0.9, 0.5, 0.1])
        assert rank_of(scores, 1) == 1
        assert rank_of(scores, 0) == 2  # ties broken toward lower index
        assert rank_of(scores, 2) == 3

    def test_rank_of_nan_ranks_last(self):
        nan = float("nan")
        assert rank_of(np.array([0.5, nan, 0.9, 0.1]), 1) == 4
        hr, ndcg = ranking_metrics([rank_of(np.full(5, nan), 3)], ks=(1,))
        assert hr[1] == 0.0 and ndcg[1] == 0.0

    def test_rank_of_matches_lexsort_with_nans(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            scores = rng.integers(0, 4, size=12).astype(np.float64)
            scores[rng.random(12) < 0.3] = np.nan
            order = np.lexsort((np.arange(12), -scores))
            for target in range(12):
                assert rank_of(scores, target) == int(np.flatnonzero(order == target)[0]) + 1

    def test_matches_bruteforce_on_random_matrices(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n_users = int(rng.integers(1, 20))
            n_items = int(rng.integers(2, 50))
            scores = rng.random((n_users, n_items))
            targets = rng.integers(0, n_items, size=n_users)
            ranks = [rank_of(scores[u], targets[u]) for u in range(n_users)]
            # brute-force oracle: full sort with the same tie rule
            expect_ranks = []
            for u in range(n_users):
                order = sorted(range(n_items), key=lambda i: (-scores[u, i], i))
                expect_ranks.append(order.index(targets[u]) + 1)
            assert ranks == expect_ranks
            for k in (1, 5, 10):
                hr, ndcg = ranking_metrics(ranks, ks=(k,))
                eh = np.mean([1.0 if r <= k else 0.0 for r in expect_ranks])
                en = np.mean([1.0 / math.log2(r + 1) if r <= k else 0.0
                              for r in expect_ranks])
                assert hr[k] == pytest.approx(eh)
                assert ndcg[k] == pytest.approx(en)

    def test_ndcg_bounded_by_hr_and_monotone(self):
        rng = np.random.default_rng(1)
        ranks = rng.integers(1, 40, size=50)
        ks = (5, 10, 20)
        hr, ndcg = ranking_metrics(ranks, ks=ks)
        for k in ks:
            assert ndcg[k] <= hr[k] + 1e-12
        assert hr[5] <= hr[10] <= hr[20]
        assert ndcg[5] <= ndcg[10] <= ndcg[20]


def cyclic_dataset(n_users=12, length=8, vocab=20):
    """Deterministic successor structure: item v is always followed by v+1."""
    seqs = []
    for u in range(n_users):
        start = (u * 3) % vocab
        items = [(start + i) % vocab for i in range(length)]
        cats = [1 + (v % 3) for v in items]
        hours = [v % 24 for v in items]
        seqs.append(UserSequence(f"u{u}", items, cats, hours))
    return seqs


def tiny_setup(variant="full", seed=0):
    seqs = cyclic_dataset()
    ctx_vocab = build_context_vocab(seqs)
    cfg = ModelConfig(vocab_size=20, n_contexts=ctx_vocab.size, dim=8,
                      kernel_size=3, n_heads=1, max_len=10, m1=2, variant=variant)
    model = SequentialRecommender(cfg, seed=seed)
    samples = []
    for s in seqs:
        samples.extend(generate_training_samples(s, ctx_vocab, cfg.max_len))
    return model, samples, seqs, ctx_vocab


class TestTrain:
    def test_loss_decreases_on_memorisable_task(self):
        model, samples, seqs, ctx_vocab = tiny_setup()
        result = train(model, samples, TrainConfig(batch_size=16, epochs=5, seed=0))
        losses = [row[1] for row in result.history]
        assert losses[-1] < losses[0]

    def test_zero_epochs_keeps_initialisation(self):
        model, samples, seqs, ctx_vocab = tiny_setup(seed=3)
        before = model.state_snapshot()
        result = train(model, samples, TrainConfig(epochs=0, seed=0))
        for name, arr in before.items():
            np.testing.assert_array_equal(arr, model.params[name].data)
        assert result.history == []

    def test_same_seed_same_trajectory(self):
        m1, samples, _, _ = tiny_setup(seed=5)
        m2, samples2, _, _ = tiny_setup(seed=5)
        r1 = train(m1, samples, TrainConfig(batch_size=16, epochs=3, seed=7))
        r2 = train(m2, samples2, TrainConfig(batch_size=16, epochs=3, seed=7))
        assert [row[1] for row in r1.history] == [row[1] for row in r2.history]
        for name in m1.params:
            np.testing.assert_array_equal(m1.params[name].data, m2.params[name].data)

    def test_empty_samples_rejected(self):
        model, _, _, _ = tiny_setup()
        with pytest.raises(ValueError):
            train(model, [], TrainConfig(epochs=1))

    def test_best_checkpoint_never_worse_than_history(self):
        model, samples, seqs, ctx_vocab = tiny_setup(seed=6)
        result = train(model, samples,
                       TrainConfig(batch_size=16, epochs=6, seed=1, patience=3),
                       val_sequences=seqs, ctx_vocab=ctx_vocab)
        recorded = [row[2] for row in result.history]
        assert result.best_val_ndcg10 == pytest.approx(max(recorded))
        report = evaluate(model, seqs, ctx_vocab, "val", ks=(10,))
        assert report.ndcg[10] == pytest.approx(result.best_val_ndcg10)


class TestEvaluate:
    def test_report_shape(self):
        model, samples, seqs, ctx_vocab = tiny_setup()
        report = evaluate(model, seqs, ctx_vocab, "test")
        assert report.n_users == len(seqs)
        assert set(report.hr) == {5, 10, 20}
        for k in (5, 10, 20):
            assert 0.0 <= report.ndcg[k] <= report.hr[k] <= 1.0
        doc = report.to_json_dict("abc")
        assert doc["config_hash"] == "abc"
        assert doc["params_total"] == model.count_parameters()["total"]


    def test_all_nan_model_ranks_targets_last(self):
        # every score NaN: a target ranks after the NaNs of lower index, as in
        # a stable numpy sort, so only item 0 can reach rank 1
        model, _, seqs, ctx_vocab = tiny_setup()
        model.params["out.b"].data[:] = np.nan
        report = evaluate(model, seqs, ctx_vocab, "test", ks=(1,))
        targets = [eval_input(s, ctx_vocab, model.config.max_len, "test")[2] for s in seqs]
        assert report.ranks == [t + 1 for t in targets]
        assert report.hr[1] == np.mean([t == 0 for t in targets]) < 1.0


class TestExportAttention:
    def test_single_position(self):
        model, _, seqs, ctx_vocab = tiny_setup()
        maps = export_attention(model, [3], [1], last_k=10)
        np.testing.assert_allclose(maps["mean"], [[1.0]], atol=1e-7)

    def test_rows_renormalised(self):
        model, _, seqs, ctx_vocab = tiny_setup()
        items = [s % 20 for s in range(12 if model.config.max_len >= 12 else 8)][:8]
        ctxs = [0] * len(items)
        maps = export_attention(model, items, ctxs, last_k=5)
        for name, matrix in maps.items():
            assert matrix.shape == (5, 5)
            np.testing.assert_allclose(matrix.sum(axis=1), 1.0, atol=1e-6)

    @pytest.mark.parametrize("last_k", [0, -2])
    def test_last_k_below_one_rejected(self, last_k):
        model, _, _, _ = tiny_setup()
        with pytest.raises(ValueError, match="last_k"):
            export_attention(model, list(range(8)), [0] * 8, last_k=last_k)

    def test_records_no_graph(self, monkeypatch):
        model, _, _, _ = tiny_setup()
        results = []
        forward = model.forward
        monkeypatch.setattr(model, "forward", lambda *a: results.append(forward(*a)) or results[-1])
        export_attention(model, list(range(8)), [0] * 8, last_k=5)
        logits = results[0]["logits"]
        assert not logits.requires_grad and logits._parents == ()

    def test_matches_slice_of_full_attention(self):
        model, _, seqs, ctx_vocab = tiny_setup()
        items = list(range(8))
        ctxs = [0] * 8
        full = model.forward(items, ctxs)["attention"][-1]
        maps = export_attention(model, items, ctxs, last_k=5)
        for h, w in enumerate(full):
            sub = w.data[3:, 3:]
            sub = sub / sub.sum(axis=1, keepdims=True)
            np.testing.assert_allclose(maps[f"head{h}"], sub, atol=1e-6)
