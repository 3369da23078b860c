import ctypes
import gc
import math
import platform
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from twinrec.autodiff import BLOCK, Arena, keep_heap, use_dtype, zero_grads
from twinrec.data import (UserSequence, build_context_vocab, eval_input,
                          generate_training_samples)
from twinrec.model import VARIANTS, ModelConfig, SequentialRecommender
from twinrec.training import (BETA1, BETA2, EPS, Adam, TrainConfig, evaluate,
                              export_attention, rank_of, ranking_metrics, train)


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


def arena_of(**values):
    """An Arena of one leaf per keyword, holding that value."""
    params = Arena({name: np.shape(value) for name, value in values.items()})
    for name, value in values.items():
        params[name].data[...] = value
    return params


class TestTrainConfig:
    @pytest.mark.parametrize("key,value", [("lr", "nan"), ("lr", "inf"), ("lr", "0"),
                                           ("l2", "nan"), ("l2", "inf"), ("l2", "-1")])
    def test_bad_rates_rejected(self, key, value):
        with pytest.raises(ValueError):
            TrainConfig(**{key: float(value)})


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        params = arena_of(p=[1.0, 2.0])
        p = params["p"]
        opt = Adam(params, TrainConfig(lr=0.1, epochs=1))
        p.grad = np.zeros(2, dtype=p.data.dtype)
        opt.step()
        assert opt.t == 1
        np.testing.assert_array_equal(p.data, [1.0, 2.0])

    def test_missing_gradient_rejected(self):
        opt = Adam(arena_of(p=[1.0]), TrainConfig(epochs=1))
        with pytest.raises(RuntimeError):
            opt.step()

    def test_matches_reference_on_quadratic(self):
        # f(theta) = theta^2, three steps, checked against the reference update
        from twinrec.autodiff import use_dtype
        with use_dtype(np.float64):
            params = arena_of(p=[1.0])
            p = params["p"]
            opt = Adam(params, TrainConfig(lr=0.1, epochs=1))
            grads = []
            for _ in range(3):
                grads.append(2.0 * p.data[0])
                p.grad = np.array([grads[-1]])
                opt.step()
        # replay the recorded gradient stream through the oracle
        expect = reference_adam(1.0, grads, lr=0.1)
        assert p.data[0] == pytest.approx(expect, abs=1e-10)

    def test_identical_state_identical_updates(self):
        params = arena_of(a=[0.5], b=[0.5])
        a, b = params["a"], params["b"]
        opt = Adam(params, TrainConfig(lr=0.01, epochs=1))
        a.grad = np.array([0.3], dtype=a.data.dtype)
        b.grad = np.array([0.3], dtype=b.data.dtype)
        opt.step()
        assert a.data[0] == b.data[0]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_blocked_update_is_bit_identical_to_plain_formula(self, dtype):
        # More than two blocks, the last one partial.
        rng = np.random.default_rng(4)
        with use_dtype(dtype):
            params = arena_of(p=rng.standard_normal((3, BLOCK - 5)))
        p = params["p"]
        cfg = TrainConfig(lr=0.01, epochs=1)
        opt = Adam(params, cfg)
        theta, m, v = p.data.copy(), np.zeros_like(p.data), np.zeros_like(p.data)
        for t in range(1, 6):
            g = rng.standard_normal(p.data.shape).astype(dtype)
            p.grad = g
            opt.step()
            # The plain whole-array update, as the oracle.
            m = BETA1 * m + (1.0 - BETA1) * g
            v = BETA2 * v + (1.0 - BETA2) * g * g
            m_hat = m / (1.0 - BETA1 ** t)
            v_hat = v / (1.0 - BETA2 ** t)
            theta = theta - cfg.lr * m_hat / (np.sqrt(v_hat) + EPS)
        assert p.data.dtype == theta.dtype == dtype
        np.testing.assert_array_equal(p.data, theta)
        np.testing.assert_array_equal(opt.m, m.reshape(-1))
        np.testing.assert_array_equal(opt.v, v.reshape(-1))

    def test_step_allocates_no_parameter_sized_array(self):
        # A (64, 100000) float32 tensor is 25.6 MB; a step that builds
        # whole-array temporaries peaks at several times that.
        params = Arena({"p": (64, 100_000)})
        p = params["p"]
        p.grad = np.full(p.data.shape, 0.5, dtype=p.data.dtype)
        opt = Adam(params, TrainConfig(epochs=1))
        tracemalloc.start()
        try:
            opt.step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert np.all(p.data < 0)

    def test_gradients_from_before_the_optimiser_are_not_ignored(self):
        # A backward pass run before Adam exists leaves each gradient outside
        # the gradient arena: the step copies it in, as if Adam came first.
        later, samples, _, _ = tiny_setup(seed=4)
        first, _, _, _ = tiny_setup(seed=4)
        start = later.state_snapshot()
        later.training_loss(samples[:16], 1e-3).backward()
        Adam(later.params, TrainConfig(epochs=1)).step()
        opt = Adam(first.params, TrainConfig(epochs=1))
        first.training_loss(samples[:16], 1e-3).backward()
        opt.step()
        assert not np.array_equal(later.params.flat, start)
        np.testing.assert_array_equal(later.params.flat, first.params.flat)


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
        seqs.append(UserSequence(f"u{u}", np.array(items), np.array(cats), np.array(hours)))
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
        np.testing.assert_array_equal(before, model.params.flat)
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

    @staticmethod
    def count_snapshots(monkeypatch):
        calls = []
        take = SequentialRecommender.state_snapshot
        monkeypatch.setattr(SequentialRecommender, "state_snapshot",
                            lambda self: calls.append(1) or take(self))
        return calls

    def test_no_parameter_copy_without_validation(self, monkeypatch):
        model, samples, _, _ = tiny_setup(seed=8)
        calls = self.count_snapshots(monkeypatch)
        result = train(model, samples, TrainConfig(batch_size=16, epochs=2, seed=0))
        assert calls == [] and result.best_epoch == 1

    def test_one_parameter_copy_per_improving_epoch(self, monkeypatch):
        model, samples, seqs, ctx_vocab = tiny_setup(seed=9)
        calls = self.count_snapshots(monkeypatch)
        result = train(model, samples, TrainConfig(batch_size=16, epochs=6, seed=2, patience=6),
                       val_sequences=seqs, ctx_vocab=ctx_vocab)
        scores = [row[2] for row in result.history]
        improving = sum(score > max(scores[:k], default=-1.0) for k, score in enumerate(scores))
        assert len(calls) == improving >= 1


def random_batch(rng, cfg, size, length):
    return [(rng.integers(0, cfg.vocab_size, length), rng.integers(0, cfg.n_contexts, length),
             int(rng.integers(0, cfg.vocab_size))) for _ in range(size)]


class TestStep:
    """What one training step allocates, faults and reports."""

    def test_loss_and_backward_peak_below_half_of_the_output_layer(self):
        # Large-catalog sizes. Building out.w's (D, |V|) gradient as a fresh
        # array, or a zeroed copy of a table per row gather, peaks at 43.6 MB.
        cfg = ModelConfig(vocab_size=100_000, n_contexts=500, dim=64, kernel_size=5,
                          n_heads=2, max_len=20)
        model = SequentialRecommender(cfg, seed=0)
        Adam(model.params, TrainConfig(epochs=1))  # makes the gradient arena
        batch = random_batch(np.random.default_rng(0), cfg, 8, 20)
        model.training_loss(batch, 1e-5).backward()  # first-call set-up happens once
        zero_grads(model.params)
        tracemalloc.start()
        try:
            model.training_loss(batch, 1e-5).backward()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < model.params["out.w"].data.nbytes / 2

    def test_train_holds_one_batch_graph_at_a_time(self):
        # Windows of 50 over 200 items, so the graph outweighs the parameters' gradients and
        # Adam's moments. Building a batch's graph while the last one's is still held peaks at
        # about 1.55 times one step.
        cfg = ModelConfig(vocab_size=200, n_contexts=50, dim=16, kernel_size=5, n_heads=2,
                          max_len=50)
        config = TrainConfig(batch_size=8, epochs=1)
        samples = random_batch(np.random.default_rng(0), cfg, 3 * 8, 50)

        def one_step(model):
            optim = Adam(model.params, config)
            model.training_loss(samples[:8], config.l2).backward()
            optim.step()
        peaks = []
        for run in (one_step, lambda model: train(model, samples, config)):
            model = SequentialRecommender(cfg, seed=0)
            gc.collect()
            tracemalloc.start()
            try:
                run(model)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.1 * peaks[0]

    @pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                        reason="the heap policy is glibc's mallopt")
    def test_steady_steps_fault_no_pages(self):
        # Baseline sizes. With glibc's default thresholds each step returns
        # its graph's freed memory to the kernel and faults it back: thousands
        # of minor faults a step.
        import resource  # Unix only
        keep_heap()
        cfg = ModelConfig(vocab_size=5000, n_contexts=1500, dim=64, kernel_size=5, n_heads=2,
                          max_len=50)
        model = SequentialRecommender(cfg, seed=0)
        optim = Adam(model.params, TrainConfig(epochs=1))
        rng = np.random.default_rng(1)
        batches = [random_batch(rng, cfg, 32, 50) for _ in range(8)]
        faults = []
        for batch in batches:
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
            zero_grads(model.params)
            model.training_loss(batch, 1e-5).backward()
            optim.step()
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
        assert faults[-1] - faults[3] < 100

    @pytest.mark.parametrize("library", ["unloadable", "without_mallopt"])
    def test_train_runs_without_mallopt(self, monkeypatch, library):
        calls = []

        def fake_cdll(name):
            calls.append(name)
            if library == "unloadable":
                raise OSError("no C library")
            return object()
        monkeypatch.setattr(ctypes, "CDLL", fake_cdll)
        model, samples, _, _ = tiny_setup(seed=2)
        result = train(model, samples, TrainConfig(batch_size=16, epochs=1))
        assert len(calls) == 1 and math.isfinite(result.history[0][1])

    @pytest.mark.parametrize("name,value,site", [
        ("out.w", np.inf, "parameter 'out.w' holds a non-finite value"),
        ("emb.table1", np.nan, "parameter 'emb.table1' holds a non-finite value"),
        ("enc0.ffn.w2", 1e30, "every parameter is finite; the largest absolute value, 1e+30, "
                              "is in 'enc0.ffn.w2'"),
    ])
    def test_divergence_names_the_parameter(self, name, value, site):
        model, samples, _, _ = tiny_setup(seed=3)
        model.params[name].data.flat[5] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeError) as err:
                train(model, samples, TrainConfig(batch_size=16, epochs=1))
        message = str(err.value)
        assert message.startswith("training diverged at epoch 0, batch 0: loss ")
        assert message.endswith(site)

    def test_overflow_in_the_update_stops_training(self):
        # The loss stays finite without L2, but Adam's (1 - beta2) * g * g overflows.
        model, samples, _, _ = tiny_setup(seed=3)
        model.params["enc0.ffn.w2"].data.flat[5] = 1e30
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeError) as err:
                train(model, samples, TrainConfig(batch_size=16, epochs=1, l2=0))
        message = str(err.value)
        assert message.startswith("training diverged at epoch 0, batch 0: overflow encountered ")
        assert message.endswith(" in the backward pass or the update; every parameter is finite; "
                                "the largest absolute value, 1e+30, is in 'enc0.ffn.w2'")
        assert np.isfinite(model.params.flat).all()

    def test_divergence_after_some_steps_names_epoch_and_batch(self, monkeypatch):
        model, samples, _, _ = tiny_setup(seed=3)
        steps = []
        step = Adam.step

        def step_then_break(self):
            step(self)
            steps.append(1)
            if len(steps) == 6:  # after epoch 1's batch 1, with 4 batches an epoch
                model.params["fusion.w_mix"].data[0, 0] = -np.inf
        monkeypatch.setattr(Adam, "step", step_then_break)
        assert math.ceil(len(samples) / 16) == 4
        with pytest.raises(RuntimeError, match=r"^training diverged at epoch 1, batch 2: .*"
                                               r"'fusion.w_mix' holds a non-finite value$"):
            train(model, samples, TrainConfig(batch_size=16, epochs=3))


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

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_ranks_are_positions_in_each_users_own_scores(self, variant):
        # The benchmark checks each rank against a stable numpy sort of that
        # user's single-request forward_scores. Columns of out.w a few ulps
        # apart give logits of order 10 that are a few ulps apart, so scoring
        # these users in right-padded batches instead moves some of their ranks.
        rng = np.random.default_rng(5)
        seqs = []
        for u in range(16):
            items = rng.integers(0, 20, int(rng.integers(4, 12)))
            seqs.append(UserSequence(f"u{u}", items, 1 + items % 3, items % 24))
        ctx_vocab = build_context_vocab(seqs)
        cfg = ModelConfig(vocab_size=20, n_contexts=ctx_vocab.size, dim=64, kernel_size=3,
                          n_heads=1, max_len=10, variant=variant)
        model = SequentialRecommender(cfg, seed=4)
        w = model.params["out.w"].data
        w[:] = 100 * w[:, :1] * (1 + 1e-7 * rng.standard_normal(w.shape))
        report = evaluate(model, seqs, ctx_vocab, "test")
        for seq, rank in zip(seqs, report.ranks):
            items, ctxs, target = eval_input(seq, ctx_vocab, cfg.max_len, "test")
            order = np.argsort(-model.forward_scores(items, ctxs).data[0], kind="stable")
            assert rank == int(np.flatnonzero(order == target)[0]) + 1


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
