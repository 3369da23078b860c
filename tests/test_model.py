import gc
import hashlib
import importlib
import json
import math
import os
import pkgutil
import platform
import subprocess
import sys
import tracemalloc
import zlib
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import twinrec
from twinrec import model as model_module
from twinrec.autodiff import Arena, Tensor, finite_diff_check, use_dtype, zero_grads
from twinrec.model import (CHECKPOINT_MAGIC, VARIANTS, ModelConfig, SequentialRecommender,
                           build_variant, checkpoint_manifest, l2_penalty)


def tiny_config(**kwargs):
    base = dict(vocab_size=12, n_contexts=6, dim=8, kernel_size=3, n_heads=2,
                n_layers=1, max_len=10, n_tables=2, m1=2)
    base.update(kwargs)
    return ModelConfig(**base)


def random_sequence(rng, cfg, t=5):
    items = rng.integers(0, cfg.vocab_size, size=t)
    ctxs = rng.integers(0, cfg.n_contexts, size=t)
    return items, ctxs


class TestForward:
    def test_zero_output_layer_gives_uniform(self):
        model = SequentialRecommender(tiny_config(), seed=0)
        model.params["out.w"].data[:] = 0.0
        model.params["out.b"].data[:] = 0.0
        rng = np.random.default_rng(0)
        items, ctxs = random_sequence(rng, model.config)
        probs = model.forward_scores(items, ctxs)
        np.testing.assert_allclose(probs.data, np.full((1, 12), 1 / 12), atol=1e-6)

    def test_probability_contract(self):
        model = SequentialRecommender(tiny_config(vocab_size=4, m1=2), seed=1)
        rng = np.random.default_rng(1)
        for _ in range(5):
            items, ctxs = random_sequence(rng, model.config, t=int(rng.integers(1, 8)))
            probs = model.forward_scores(items, ctxs).data
            assert probs.shape == (1, 4)
            assert (probs >= 0).all()
            assert probs.sum() == pytest.approx(1.0, abs=1e-6)

    def test_empty_sequence_rejected(self):
        model = SequentialRecommender(tiny_config(), seed=0)
        with pytest.raises(ValueError):
            model.forward_scores([], [])

    def test_argmax_matches_naive_recomputation(self):
        # independent forward pass over the readout in plain numpy
        rng = np.random.default_rng(2)
        with use_dtype(np.float64):
            model = SequentialRecommender(tiny_config(), seed=2)
            items, ctxs = random_sequence(rng, model.config)
            result = model.forward(items, ctxs)
            hidden = result["hidden"].data
            z = hidden[-1]
            logits = z @ model.params["out.w"].data + model.params["out.b"].data
            e = np.exp(logits - logits.max())
            expect = e / e.sum()
            probs = model.forward_scores(items, ctxs).data[0]
        assert int(np.argmax(probs)) == int(np.argmax(expect))
        np.testing.assert_allclose(probs, expect, atol=1e-9)

    def test_last_valid_position_readout(self):
        rng = np.random.default_rng(3)
        with use_dtype(np.float64):
            model = SequentialRecommender(tiny_config(n_layers=2), seed=3)
            windows = [random_sequence(rng, model.config, t=t) for t in (7, 4)]
            alone = [model.forward_scores(it, cx).data[0] for it, cx in windows]
            beside = model.forward(np.concatenate([it for it, _ in windows]),
                                   np.concatenate([cx for _, cx in windows]),
                                   [7, 4])["logits"].softmax(axis=-1).data
        # beside the longer window, the shorter one's grid row ends in three
        # slots that are masked out of attention and enter every layer as zero
        # rows, like the conv's own zero padding
        np.testing.assert_allclose(beside, np.stack(alone), rtol=0, atol=1e-12)

    def test_hidden_and_alphas_are_the_packed_valid_rows(self):
        rng = np.random.default_rng(5)
        model = SequentialRecommender(tiny_config(n_layers=2), seed=5)
        items, ctxs = random_sequence(rng, model.config, t=11)
        result = model.forward(items, ctxs, [4, 6, 1])
        assert result["hidden"].data.shape == (11, 8)
        assert result["alphas"].data.shape == (11, 2)
        assert result["logits"].data.shape == (3, 12)
        assert result["attention"][0][0].data.shape == (3, 6, 6)
        single = model.forward(items[:4], ctxs[:4])
        assert single["hidden"].data.shape == (4, 8)
        assert single["attention"][0][0].data.shape == (4, 4)

    def test_misaligned_contexts_rejected(self):
        model = SequentialRecommender(tiny_config(), seed=5)
        with pytest.raises(ValueError, match="misaligned"):
            model.forward([[1, 2, 3]], [[1, 2]])
        with pytest.raises(ValueError, match="misaligned"):
            model.forward([1, 2, 3], [[1, 2, 3]])

    @pytest.mark.parametrize("where", [0, 2, 4])
    @pytest.mark.parametrize("item,config", [
        (-1, tiny_config()),  # no item id stands for padding
        (11, tiny_config(vocab_size=10, m1=3))])  # base tables of 3 and 4 rows cover 12 ids
    def test_item_outside_the_catalogue_is_rejected(self, where, item, config):
        rng = np.random.default_rng(6)
        model = SequentialRecommender(config, seed=6)
        items, ctxs = random_sequence(rng, model.config)
        items[where] = item
        other = (*random_sequence(rng, model.config, t=8), 1)
        message = f"item {item} outside item range"
        with pytest.raises(ValueError, match=message):
            model.forward_scores(items, ctxs)
        with pytest.raises(ValueError, match=message):
            model.predict_topk(items, ctxs, 3)
        with pytest.raises(ValueError, match=message):
            model.training_loss([other, (items, ctxs, 2)], lam=0.0)

    @pytest.mark.parametrize("where", [0, 2, 4])
    @pytest.mark.parametrize("ctx", [-1, 6])  # tiny_config has 6 contexts
    def test_context_outside_the_vocabulary_is_rejected(self, where, ctx):
        # -1 would read the last context row; 6 would escape as an IndexError.
        rng = np.random.default_rng(7)
        model = SequentialRecommender(tiny_config(), seed=7)
        items, ctxs = random_sequence(rng, model.config)
        ctxs[where] = ctx
        other = (*random_sequence(rng, model.config, t=8), 1)
        message = f"context {ctx} outside context range"
        with pytest.raises(ValueError, match=message):
            model.forward_scores(items, ctxs)
        with pytest.raises(ValueError, match=message):
            model.predict_topk(items, ctxs, 3)
        with pytest.raises(ValueError, match=message):
            model.training_loss([other, (items, ctxs, 2)], lam=0.0)

    @pytest.mark.parametrize("lengths,message", [
        ([2, 2], "sum to 4"), ([3, 3], "sum to 6"), ([5, 0], "at least 1"),
        ([6, -1], "at least 1"), ([], "at least 1"), ([[5]], "at least 1")])
    def test_lengths_that_do_not_describe_the_items_rejected(self, lengths, message):
        model = SequentialRecommender(tiny_config(), seed=6)
        items, ctxs = random_sequence(np.random.default_rng(6), model.config)
        with pytest.raises(ValueError, match=message):
            model.forward(items, ctxs, lengths)

    def test_window_longer_than_max_len_rejected(self):
        model = SequentialRecommender(tiny_config(), seed=6)
        items, ctxs = random_sequence(np.random.default_rng(6), model.config, t=13)
        with pytest.raises(ValueError, match="exceeds max_len 10"):
            model.forward(items, ctxs, [2, 11])
        with pytest.raises(ValueError, match="exceeds max_len 10"):
            model.forward_scores(items[:11], ctxs[:11])

    def test_default_dtype_stays_float32(self):
        model = SequentialRecommender(tiny_config(), seed=3)
        items, ctxs = random_sequence(np.random.default_rng(3), model.config)
        result = model.forward(items, ctxs)
        assert result["hidden"].data.dtype == np.float32
        assert result["logits"].data.dtype == np.float32

    def test_scores_record_no_graph(self):
        model = SequentialRecommender(tiny_config(), seed=3)
        items, ctxs = random_sequence(np.random.default_rng(3), model.config)
        probs = model.forward_scores(items, ctxs)
        assert not probs.requires_grad and probs._parents == ()

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(1, tiny_config().max_len), min_size=1, max_size=6),
           st.integers(0, 2**32 - 1))
    @example(lengths=[3, 7, 1], seed=4)
    def test_batch_rows_match_single_sequences(self, lengths, seed):
        rng = np.random.default_rng(seed)
        with use_dtype(np.float64):
            model = SequentialRecommender(tiny_config(n_layers=2), seed=4)
            windows = [random_sequence(rng, model.config, t=t) for t in lengths]
            batched = model.forward(np.concatenate([it for it, _ in windows]),
                                    np.concatenate([cx for _, cx in windows]),
                                    lengths)["logits"].data
            single = [model.forward(it, cx)["logits"].data[0] for it, cx in windows]
        assert batched.shape == (len(lengths), 12)
        np.testing.assert_allclose(batched, np.stack(single), rtol=0, atol=1e-12)


class TestLoss:
    def test_uniform_gives_log_vocab(self):
        model = SequentialRecommender(tiny_config(vocab_size=4, m1=2), seed=4)
        model.params["out.w"].data[:] = 0.0
        model.params["out.b"].data[:] = 0.0
        rng = np.random.default_rng(4)
        items, ctxs = random_sequence(rng, model.config)
        loss = model.training_loss([(items, ctxs, 2)], lam=0.0)
        assert loss.item() == pytest.approx(math.log(4.0), abs=1e-5)

    def test_confident_model_near_zero_loss(self):
        model = SequentialRecommender(tiny_config(), seed=5)
        model.params["out.w"].data[:] = 0.0
        model.params["out.b"].data[:] = 0.0
        model.params["out.b"].data[7] = 50.0
        rng = np.random.default_rng(5)
        items, ctxs = random_sequence(rng, model.config)
        loss = model.training_loss([(items, ctxs, 7)], lam=0.0)
        assert loss.item() == pytest.approx(0.0, abs=1e-6)

    def test_l2_penalty_only(self):
        # lam=1, single parameter psi=2, zero cross-entropy term -> 4
        params = Arena({"psi": (1,)})
        params["psi"].data[...] = 2.0
        assert l2_penalty(params).item() == pytest.approx(4.0)

    def test_l2_value_matches_float64_sum(self):
        # An output layer at |V| = 100k: one float32 dot product over all of
        # it is off by about 1e-5.
        rng = np.random.default_rng(8)
        params = Arena({"w": (64, 100_000), "b": (7,)})
        params["w"].data[...] = rng.uniform(-0.125, 0.125, (64, 100_000))
        params["b"].data[...] = rng.uniform(-1.0, 1.0, 7)
        expect = sum(float(np.sum(p.data.astype(np.float64) ** 2)) for p in params.values())
        assert l2_penalty(params).item() == pytest.approx(expect, rel=1e-6)

    def test_gradients_do_not_leak_between_steps(self):
        rng = np.random.default_rng(9)
        first, second = (batch_of_every_length(rng, tiny_config()) for _ in range(2))
        used = SequentialRecommender(tiny_config(), seed=9)
        used.training_loss(first, 1e-3).backward()
        zero_grads(used.params)
        used.training_loss(second, 1e-3).backward()
        fresh = SequentialRecommender(tiny_config(), seed=9)
        fresh.training_loss(second, 1e-3).backward()
        for name, p in used.params.items():
            np.testing.assert_array_equal(p.grad, fresh.params[name].grad, err_msg=name)

    def test_invalid_target(self):
        model = SequentialRecommender(tiny_config(), seed=6)
        with pytest.raises(ValueError):
            model.training_loss([(np.array([1]), np.array([0]), 99)], lam=0.0)

    def test_gradient_completeness(self):
        # every parameter tensor receives a gradient after backward
        model = SequentialRecommender(tiny_config(), seed=7)
        rng = np.random.default_rng(7)
        items, ctxs = random_sequence(rng, model.config)
        loss = model.training_loss([(items, ctxs, 3)], lam=1e-5)
        loss.backward()
        missing = [name for name, p in model.params.items() if p.grad is None]
        assert missing == []


def batch_of_every_length(rng, cfg):
    """One window of each length 1..max_len, each with its own target."""
    return [(*random_sequence(rng, cfg, t=t), int(rng.integers(0, cfg.vocab_size)))
            for t in range(1, cfg.max_len + 1)]


def graph_size(loss):
    seen, stack = set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


class TestBatchedLoss:
    def test_equals_mean_of_single_window_losses(self):
        rng = np.random.default_rng(20)
        with use_dtype(np.float64):
            model = SequentialRecommender(tiny_config(n_layers=2), seed=20)
            batch = batch_of_every_length(rng, model.config)
            batched = model.training_loss(batch, lam=0.0).item()
            singles = [model.training_loss([sample], lam=0.0).item() for sample in batch]
        assert batched == pytest.approx(np.mean(singles), rel=0, abs=1e-10)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(21)
        with use_dtype(np.float64):
            model = SequentialRecommender(tiny_config(n_layers=2), seed=21)
            batch = batch_of_every_length(rng, model.config)
            errors = finite_diff_check(lambda: model.training_loss(batch, 1e-2),
                                       model.params, eps=1e-5, n_samples=3, seed=0)
        assert set(errors) == set(model.params)
        assert max(errors.values()) < 1e-3

    def test_graph_size_independent_of_batch_size(self):
        rng = np.random.default_rng(22)
        model = SequentialRecommender(tiny_config(n_layers=2), seed=22)
        batch = batch_of_every_length(rng, model.config)
        sizes = {graph_size(model.training_loss(batch[:n], lam=1e-5)) for n in (1, 4, 10)}
        assert len(sizes) == 1

    def test_graph_freed_without_cycle_collector(self):
        rng = np.random.default_rng(23)
        model = SequentialRecommender(tiny_config(n_layers=2), seed=23)
        batch = batch_of_every_length(rng, model.config)
        gc.collect()
        gc.disable()
        try:
            loss = model.training_loss(batch, lam=1e-5)
            loss.backward()
            del loss
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestTopK:
    def test_full_k_is_permutation(self):
        model = SequentialRecommender(tiny_config(), seed=8)
        rng = np.random.default_rng(8)
        items, ctxs = random_sequence(rng, model.config)
        out = model.predict_topk(items, ctxs, 12)
        assert sorted(out) == list(range(12))

    def test_tie_break_is_lower_index_first(self):
        model = SequentialRecommender(tiny_config(), seed=9)
        model.params["out.w"].data[:] = 0.0
        model.params["out.b"].data[:] = 0.0
        rng = np.random.default_rng(9)
        items, ctxs = random_sequence(rng, model.config)
        assert model.predict_topk(items, ctxs, 5) == [0, 1, 2, 3, 4]

    def test_matches_full_sort_oracle(self):
        model = SequentialRecommender(tiny_config(), seed=10)
        rng = np.random.default_rng(10)
        items, ctxs = random_sequence(rng, model.config)
        scores = model.forward_scores(items, ctxs).data[0]
        oracle = sorted(range(12), key=lambda i: (-scores[i], i))
        assert model.predict_topk(items, ctxs, 12) == oracle

    def test_ranking_invariant_to_logit_shift(self):
        model = SequentialRecommender(tiny_config(), seed=11)
        rng = np.random.default_rng(11)
        items, ctxs = random_sequence(rng, model.config)
        with use_dtype(np.float64):
            model64 = SequentialRecommender(tiny_config(), seed=11)
            before = model64.predict_topk(items, ctxs, 12)
            model64.params["out.b"].data += 3.0
            after = model64.predict_topk(items, ctxs, 12)
        assert before == after

    def test_k_out_of_range(self):
        model = SequentialRecommender(tiny_config(), seed=12)
        with pytest.raises(ValueError):
            model.predict_topk([1], [0], 0)
        with pytest.raises(ValueError):
            model.predict_topk([1], [0], 13)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), dtype=st.sampled_from([np.float32, np.float64]),
           k=st.one_of(st.just(1), st.integers(2, 999), st.just(1000)), nan=st.booleans())
    @example(seed=0, dtype=np.float32, k=1000, nan=True)
    def test_partial_selection_matches_full_sort(self, seed, dtype, k, nan):
        # A zero column of out.w scores its bias exactly, so most items tie at
        # one of four bias levels, across the k-th score; a -1e4 bias gives
        # probability 0, and one NaN bias makes every score NaN.
        v = 1000
        rng = np.random.default_rng(seed)
        with use_dtype(dtype):
            model = SequentialRecommender(tiny_config(vocab_size=v), seed=13)
            model.params["out.w"].data[:, rng.random(v) < 0.9] = 0.0
            bias = model.params["out.b"].data
            bias[:] = rng.choice([0.0, 0.5, 1.0, -1e4], v)
            if nan:
                bias[rng.integers(v)] = np.nan
            items, ctxs = random_sequence(rng, model.config)
            scores = model.forward_scores(items, ctxs).data[0]
            top = model.predict_topk(items, ctxs, k)
        assert scores.dtype == dtype and np.isnan(scores).all() == nan
        assert top == np.lexsort((np.arange(v), -scores))[:k].tolist()

    @pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                        reason="the heap policy is glibc's mallopt")
    def test_fresh_serving_process_faults_no_pages_per_request(self, tmp_path):
        # Long-history sizes. With glibc's default thresholds each request
        # returns its forward's freed temporaries to the kernel and faults
        # them back: about 240 minor faults a request.
        cfg = ModelConfig(vocab_size=2000, n_contexts=200, dim=64, kernel_size=5, n_heads=2,
                          max_len=200)
        path = tmp_path / "ckpt.bin"
        SequentialRecommender(cfg, seed=26).save(path)
        script = (
            "import resource, sys\n"
            "import numpy as np\n"
            "from twinrec.model import SequentialRecommender\n"
            "model = SequentialRecommender.load(sys.argv[1])\n"
            "rng = np.random.default_rng(0)\n"
            "cfg = model.config\n"
            "windows = [(rng.integers(0, cfg.vocab_size, t), rng.integers(0, cfg.n_contexts, t))\n"
            "           for t in rng.integers(100, 201, 220)]\n"
            "for items, ctxs in windows[:20]:\n"
            "    model.predict_topk(items, ctxs, 10)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "for items, ctxs in windows[20:]:\n"
            "    model.predict_topk(items, ctxs, 10)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
        src = os.path.dirname(os.path.dirname(model_module.__file__))
        env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        proc = subprocess.run([sys.executable, "-c", script, str(path)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert int(proc.stdout) < 5 * 200


class TestVariants:
    def test_wo_dynamic_plain_sum(self):
        from twinrec.embedding import fuse_static
        a = Tensor([[1.0, 0.0]])
        b = Tensor([[0.0, 1.0]])
        np.testing.assert_array_equal(fuse_static([a, b]).data, [[1.0, 1.0]])
        model = build_variant("wo_dynamic", tiny_config(), seed=0)
        assert model.embedding.w_att is None
        assert "fusion.w_att" not in model.params

    def test_full_emb_uses_full_table(self):
        model = build_variant("full_emb", tiny_config(vocab_size=5), seed=0)
        assert len(model.embedding.tables) == 1
        assert model.params["emb.table0"].data.shape == (5, 8)
        assert model.count_parameters()["embedding"] == 5 * 8

    def test_plain_attn_param_count(self):
        model = build_variant("plain_attn", tiny_config(), seed=0)
        counts = model.count_parameters()
        assert counts["encoder"] == 6 * 2 * 8 * 8  # 768

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            build_variant("frobnicate", tiny_config())

    @pytest.mark.parametrize("field", ["vocab_size", "n_contexts", "dim", "kernel_size",
                                       "n_heads", "n_layers", "max_len", "n_tables", "m1"])
    def test_config_rejects_sizes_below_one(self, field):
        with pytest.raises(ValueError, match=field):
            tiny_config(**{field: 0})
        with pytest.raises(ValueError, match=field):
            tiny_config(**{field: -1})

    @pytest.mark.parametrize("bad", [{"variant": "frobnicate"}, {"kernel_size": 4}])
    def test_config_rejects_unknown_variant_and_even_kernel(self, bad):
        with pytest.raises(ValueError):
            tiny_config(**bad)

    def test_full_and_wo_dynamic_collapse_at_n1(self):
        # with a single base table both pipelines compute the same embedding
        cfg_full = tiny_config(n_tables=1)
        full = build_variant("full", cfg_full, seed=13)
        ablated = build_variant("wo_dynamic", cfg_full, seed=13)
        rng = np.random.default_rng(13)
        items, ctxs = random_sequence(rng, cfg_full)
        np.testing.assert_allclose(full.forward_scores(items, ctxs).data,
                                   ablated.forward_scores(items, ctxs).data,
                                   atol=1e-6)


class TestCounting:
    def test_reference_scale_compression(self):
        cfg = ModelConfig(vocab_size=12101, n_contexts=1009, dim=128,
                          kernel_size=5, n_heads=2, m1=2)
        model = SequentialRecommender(cfg, seed=0)
        counts = model.count_parameters()
        assert counts["embedding"] == (2 + 6051) * 128 == 774_784
        full = 12101 * 128
        assert full == 1_548_928
        assert counts["embedding_compression_ratio"] == pytest.approx(0.5002, abs=1e-4)

    def test_total_counts_every_optimised_value(self):
        model = SequentialRecommender(tiny_config(), seed=14)
        counts = model.count_parameters()
        assert counts["total"] == sum(p.data.size for p in model.params.values())

    def test_encoder_bucket_matches_formula(self):
        from twinrec.encoder import count_branch_params
        model = SequentialRecommender(tiny_config(), seed=15)
        twin, _ = count_branch_params(2, 3, 8)
        assert model.count_parameters()["encoder"] == twin


class TestCheckpoint:
    def test_roundtrip_bit_identical(self, tmp_path):
        model = SequentialRecommender(tiny_config(), seed=16)
        rng = np.random.default_rng(16)
        items, ctxs = random_sequence(rng, model.config)
        before = model.forward_scores(items, ctxs).data.copy()
        path = tmp_path / "ckpt.bin"
        model.save(path)
        loaded = SequentialRecommender.load(path)
        after = loaded.forward_scores(items, ctxs).data
        np.testing.assert_array_equal(before, after)

    def test_save_is_deterministic(self, tmp_path):
        model = SequentialRecommender(tiny_config(), seed=17)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        model.save(p1)
        model.save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    @staticmethod
    def rewrite(path, edit_header=lambda h: None, cut=0):
        header, payload = path.read_bytes().split(b"\n", 1)
        header = json.loads(header)
        edit_header(header)
        path.write_bytes(json.dumps(header).encode() + b"\n" + payload[:len(payload) - cut])

    def saved(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        SequentialRecommender(tiny_config(), seed=18).save(path)
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.bin"]  # no temp file left
        return path

    def test_unknown_tensor_rejected(self, tmp_path):
        path = self.saved(tmp_path)
        self.rewrite(path, lambda h: h["tensors"][0].update(name="emb.bogus"))
        with pytest.raises(ValueError, match="emb.bogus"):
            SequentialRecommender.load(path)

    def test_missing_tensor_rejected(self, tmp_path):
        path = self.saved(tmp_path)
        self.rewrite(path, lambda h: h["tensors"].pop(), cut=12 * 4)  # drop out.b and its bytes
        with pytest.raises(ValueError, match="out.b"):
            SequentialRecommender.load(path)

    def test_shape_mismatch_rejected(self, tmp_path):
        path = self.saved(tmp_path)
        self.rewrite(path, lambda h: h["tensors"][-1].update(shape=[3, 4]))
        with pytest.raises(ValueError, match="out.b"):
            SequentialRecommender.load(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = self.saved(tmp_path)
        self.rewrite(path, cut=1)
        with pytest.raises(ValueError, match="out.b"):
            SequentialRecommender.load(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = self.saved(tmp_path)
        path.write_bytes(path.read_bytes() + b"\0" * 4)
        with pytest.raises(ValueError, match="payload"):
            SequentialRecommender.load(path)

    def test_reject_garbage(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b'{"magic": "nope"}\n')
        with pytest.raises(ValueError):
            SequentialRecommender.load(path)

    def test_swapped_manifest_order_rejected(self, tmp_path):
        path = self.saved(tmp_path)

        def swap(header):
            tensors = header["tensors"]
            tensors[0], tensors[1] = tensors[1], tensors[0]
        self.rewrite(path, swap)
        with pytest.raises(ValueError, match="emb.table[01]"):
            SequentialRecommender.load(path)

    def test_extra_empty_tensor_rejected(self, tmp_path):
        path = self.saved(tmp_path)
        extra = {"name": "extra", "dtype": "<f4", "shape": [0], "offset": 0}
        self.rewrite(path, lambda h: h["tensors"].append(extra))
        with pytest.raises(ValueError, match="extra"):
            SequentialRecommender.load(path)

    @pytest.mark.parametrize("name,value", [("out.b", np.nan), ("emb.table0", np.nan),
                                            ("enc0.attn0.wq", np.inf)])
    def test_nonfinite_tensor_rejected(self, tmp_path, name, value):
        model = SequentialRecommender(tiny_config(), seed=18)
        model.params[name].data.flat[-1] = value
        model.params["out.b"].data[0] = np.nan  # the last tensor: the error names the first
        path = tmp_path / "ckpt.bin"
        model.save(path)
        with pytest.raises(ValueError) as err:
            SequentialRecommender.load(path)
        assert str(err.value) == (f"{path}: tensor {name!r} holds a non-finite value; "
                                  f"run train again")

    # SHA-256 of each variant's freshly built checkpoint. It pins every
    # parameter's name, order, shape and initial value, and the file layout.
    GOLDEN = {
        "full": "bc4548a4717988ac38ba67b4645f640397a635e976e7339c302a51fe70435360",
        "full_emb": "255615be98da5a51b97aae95ee29820c1d31f9302d30e7fa1bc39d813abfaab0",
        "wo_dynamic": "dc48c3512ffb72eca5778ba427f137510800c530b98e835e0420b60c7457ce52",
        "plain_attn": "b2294fed86d83529240d6f75fd5dc4c5c701d3bef80d19c7e1fd01d0e03ed917",
    }

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_initial_checkpoint_bytes_are_pinned(self, tmp_path, variant):
        path = tmp_path / "ckpt.bin"
        build_variant(variant, tiny_config(n_layers=2, n_tables=3), seed=5).save(path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.GOLDEN[variant]

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_pinned_checkpoints_survive_load_and_save(self, tmp_path, variant):
        first, second = tmp_path / "a.bin", tmp_path / "b.bin"
        build_variant(variant, tiny_config(n_layers=2, n_tables=3), seed=5).save(first)
        SequentialRecommender.load(first).save(second)
        assert hashlib.sha256(second.read_bytes()).hexdigest() == self.GOLDEN[variant]

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_parameters_are_views_of_the_arena_at_the_manifest_offsets(self, variant):
        model = build_variant(variant, tiny_config(n_layers=2, n_tables=3), seed=5)
        flat = model.params.flat
        manifest, size = checkpoint_manifest(model.config, flat.dtype)
        assert [e["name"] for e in manifest] == list(model.params)
        assert size == flat.nbytes
        for entry, p in zip(manifest, model.params.values()):
            assert p.data.base is flat and p.data.flags.c_contiguous
            assert p.data.ctypes.data == flat.ctypes.data + entry["offset"]
            assert list(p.data.shape) == entry["shape"]

    def test_header_of_a_huge_model_is_rejected_before_allocation(self, tmp_path):
        # 10^11 items: the model would need terabytes; the header and its
        # manifest agree, but the payload is empty.
        config = tiny_config(vocab_size=100_000_000_000)
        header = {"magic": CHECKPOINT_MAGIC, "config": asdict(config), "seed": 0,
                  "tensors": checkpoint_manifest(config, np.float32)[0]}
        path = tmp_path / "ckpt.bin"
        path.write_bytes(json.dumps(header).encode() + b"\n")
        gc.collect()
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="payload holds 0 bytes"):
                SequentialRecommender.load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_float64_model_saves_a_float32_checkpoint(self, tmp_path):
        with use_dtype(np.float64):
            model = SequentialRecommender(tiny_config(), seed=22)
        path = tmp_path / "ckpt.bin"
        model.save(path)
        loaded = SequentialRecommender.load(path)
        for name, p in loaded.params.items():
            assert p.data.dtype == np.float32
            np.testing.assert_array_equal(p.data, model.params[name].data.astype(np.float32))

    def test_float64_manifest_rejected(self, tmp_path):
        # A header that describes its payload as float64 throughout, as no save writes.
        path = self.saved(tmp_path)
        self.rewrite(path, lambda h: h.update(
            tensors=checkpoint_manifest(tiny_config(), np.float64)[0]))
        with pytest.raises(ValueError, match="manifest entry 0 "):
            SequentialRecommender.load(path)

    def test_load_peaks_no_higher_than_construction(self, tmp_path):
        # out.w alone is 64 x 20000 float32 values, 5.1 MB.
        config = tiny_config(vocab_size=20_000, dim=64, n_contexts=10)
        path = tmp_path / "ckpt.bin"
        SequentialRecommender(config, seed=19).save(path)
        assert path.stat().st_size >= 5 << 20
        peaks = []
        for build in (lambda: SequentialRecommender(config, seed=19),
                      lambda: SequentialRecommender.load(path)):
            gc.collect()
            tracemalloc.start()
            try:
                model = build()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            del model
        assert peaks[1] <= peaks[0] + (1 << 20)

    def test_construction_and_load_peak_near_the_parameter_bytes(self, tmp_path):
        # V=100k, D=64: 39.3 MB of float32 parameters, out.w alone 25.6 MB.
        config = tiny_config(vocab_size=100_000, dim=64, n_contexts=10, max_len=20)
        path = tmp_path / "ckpt.bin"
        SequentialRecommender(config, seed=23).save(path)
        for build in (lambda: SequentialRecommender(config, seed=23),
                      lambda: SequentialRecommender.load(path)):
            gc.collect()
            tracemalloc.start()
            try:
                model = build()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            size = sum(p.data.nbytes for p in model.params.values())
            del model
            assert size > 30 << 20 and peak < 1.2 * size

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_initial_values_take_one_float64_draw_each(self, dtype):
        # out.w holds 64 x 20000 values, three INIT_BLOCKs: drawing block by block
        # must give the values of one whole-tensor draw, in the storage dtype.
        with use_dtype(dtype):
            model = SequentialRecommender(tiny_config(vocab_size=20_000, dim=64), seed=24)
        for name in ("out.w", "emb.table0"):
            p = model.params[name].data
            rng = np.random.default_rng([24, zlib.crc32(name.encode())])
            want = rng.uniform(-1 / math.sqrt(64), 1 / math.sqrt(64), size=p.shape).astype(dtype)
            assert p.dtype == dtype and p.tobytes() == want.tobytes()
        assert not model.params["out.b"].data.any()

    def test_load_draws_nothing(self, tmp_path, monkeypatch):
        model = SequentialRecommender(tiny_config(), seed=25)
        path = tmp_path / "ckpt.bin"
        model.save(path)

        def no_draws(*args, **kwargs):
            raise AssertionError("load drew random values")
        monkeypatch.setattr(model_module.np.random, "default_rng", no_draws)
        loaded = SequentialRecommender.load(path)
        assert loaded.seed == 25
        assert loaded.params.flat.tobytes() == model.params.flat.tobytes()

    def test_load_snapshot_writes_into_the_existing_arrays(self):
        model = SequentialRecommender(tiny_config(), seed=20)
        snapshot = SequentialRecommender(tiny_config(), seed=21).state_snapshot()
        arrays = {name: p.data for name, p in model.params.items()}
        model.load_snapshot(snapshot)
        for name, p in model.params.items():
            assert p.data is arrays[name]
        np.testing.assert_array_equal(model.params.flat, snapshot)


def test_no_module_names_a_padding_item():
    # forward reads windows with their lengths; no item id stands for padding.
    # The one padding constant left is the category before a window's start.
    names = set()
    for info in pkgutil.iter_modules(twinrec.__path__):
        module = importlib.import_module(f"twinrec.{info.name}")
        names.update(name for name in vars(module) if name.startswith("PAD"))
    assert names == {"PAD_CATEGORY"}
