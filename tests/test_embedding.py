import math

import numpy as np
import pytest

from twinrec.autodiff import Tensor, use_dtype
from twinrec.embedding import (ContextVocab, EmbeddingParams, PAD_CATEGORY,
                               UNK_CONTEXT, contextualize, decompose_index,
                               decompose_indices, embed_sequence,
                               fuse_dynamic, fuse_static, lookup_bases)


def make_params(rng, sizes, dim, n_contexts=6, dynamic=True):
    def mat(shape):
        return Tensor(rng.standard_normal(shape), requires_grad=True)
    return EmbeddingParams(
        tables=[mat((m, dim)) for m in sizes],
        context_table=mat((n_contexts, dim)),
        w_att=mat((dim, dim)) if dynamic else None,
        w_mix=mat((2 * dim, dim)),
        b_mix=mat((dim,)),
    )


class TestDecompose:
    def test_zero_index(self):
        assert decompose_index(0, [2, 6051]) == [0, 0]

    def test_small_example(self):
        # 7 mod 2 = 1, 7 div 2 = 3
        assert decompose_index(7, [2, 8]) == [1, 3]

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            decompose_index(16, [2, 8])
        with pytest.raises(IndexError):
            decompose_index(-1, [2, 8])

    def test_injective_over_full_vocab(self):
        # brute-force uniqueness scan over all indices
        sizes = [2, 6051]
        per_table = decompose_indices(np.arange(12101), sizes)
        tuples = set(zip(*[t.tolist() for t in per_table]))
        assert len(tuples) == 12101

    def test_vectorised_matches_scalar(self):
        sizes = [3, 4, 5]
        gs = np.arange(60)
        per_table = decompose_indices(gs, sizes)
        for g in gs:
            assert [t[g] for t in per_table] == decompose_index(int(g), sizes)


class TestLookup:
    def test_degenerate_full_table(self):
        rng = np.random.default_rng(0)
        params = make_params(rng, [10], dim=4)
        rows = lookup_bases(params, np.array([7]))
        assert len(rows) == 1
        np.testing.assert_array_equal(rows[0].data[0], params.tables[0].data[7])

    def test_rows_follow_decomposition(self):
        rng = np.random.default_rng(1)
        params = make_params(rng, [2, 8], dim=4)
        rows = lookup_bases(params, np.array([7]))
        np.testing.assert_array_equal(rows[0].data[0], params.tables[0].data[1])
        np.testing.assert_array_equal(rows[1].data[0], params.tables[1].data[3])

    def test_distinct_items_never_share_all_rows(self):
        sizes = [3, 7]
        per_table = decompose_indices(np.arange(21), sizes)
        seen = set(zip(*[t.tolist() for t in per_table]))
        assert len(seen) == 21


def write_columns(path, **columns):
    np.savez(path, **columns)
    return path


class TestContextVocab:
    def test_unseen_maps_to_unk(self):
        vocab = ContextVocab({(0, 1, 12): 1})
        ids = vocab.lookup([0, 9], np.array([1, 9]), [12, 9])
        assert ids.dtype == np.int64 and ids.tolist() == [1, UNK_CONTEXT]

    def test_hour_range_checked(self, tmp_path):
        for hour in (24, -1):
            path = write_columns(tmp_path / "ctx.npz", prevs=np.array([0, 0]),
                                 cats=np.array([1, 1]), hours=np.array([3, hour]))
            with pytest.raises(ValueError, match="ctx.npz: not a context vocabulary"):
                ContextVocab.load(path)

    def test_roundtrip(self, tmp_path):
        self.test_roundtrip_keeps_columns_and_ids(
            tmp_path, {(0, 1, 3): 1, (1, 2, 5): 2, (2, 2, 23): 3})

    @pytest.mark.parametrize("vocab", [{(1, 2, 5): 2, (0, 1, 3): 1}, {}],
                             ids=["ids_out_of_insertion_order", "empty"])
    def test_roundtrip_keeps_columns_and_ids(self, tmp_path, vocab):
        vocab = ContextVocab(vocab)
        path = tmp_path / "ctx.npz"
        vocab.save(path)
        with np.load(path) as archive:
            assert sorted(archive.files) == ["cats", "hours", "prevs"]
            assert all(archive[k].dtype == np.int64 for k in archive.files)
        loaded = ContextVocab.load(path)
        assert loaded.index == vocab.index
        assert list(loaded.index.values()) == list(range(1, len(vocab.index) + 1))
        assert loaded.size == vocab.size

    @pytest.mark.parametrize("edit", [
        lambda c: c.pop("hours"),
        lambda c: c.update(ids=np.array([1, 2])),
        lambda c: c.update(cats=c["cats"].astype(str)),
        lambda c: c.update(hours=c["hours"] + 0.5),
        lambda c: c.update(hours=c["hours"].astype(np.int32)),
        lambda c: c.update(prevs=c["prevs"][:1]),
        lambda c: c.update(prevs=c["prevs"].reshape(2, 1)),
    ], ids=["two", "four", "text", "float", "int32", "lengths", "2d"])
    def test_load_requires_three_int64_columns(self, tmp_path, edit):
        cols = {"prevs": np.array([0, 1]), "cats": np.array([1, 2]), "hours": np.array([3, 5])}
        path = write_columns(tmp_path / "ctx.npz", **cols)
        assert len(ContextVocab.load(path).index) == 2
        edit(cols)
        write_columns(path, **cols)
        with pytest.raises(ValueError, match="ctx.npz: not a context vocabulary; run prepare-data"):
            ContextVocab.load(path)

    @pytest.mark.parametrize("second", [(0, 1, 3)], ids=["repeated_triplet"])
    def test_load_requires_ids_one_to_n_of_distinct_triplets(self, tmp_path, second):
        # Row k holds the triplet of id k + 1, so only a repeated triplet can break the ids.
        path = write_columns(tmp_path / "ctx.npz", **dict(zip(("prevs", "cats", "hours"),
                                                              np.array([(0, 1, 3), second]).T)))
        with pytest.raises(ValueError, match="ctx.npz: not a context vocabulary"):
            ContextVocab.load(path)


class TestFusion:
    def test_singleton_softmax(self):
        rng = np.random.default_rng(2)
        params = make_params(rng, [5], dim=4)
        base = lookup_bases(params, np.array([3]))
        ctx = Tensor(rng.standard_normal((1, 4)))
        fused, alphas = fuse_dynamic(base, ctx, params.w_att)
        assert alphas.data[0, 0] == pytest.approx(1.0)
        np.testing.assert_allclose(fused.data, base[0].data, atol=1e-6)

    def test_equal_bases_passthrough(self):
        rng = np.random.default_rng(3)
        params = make_params(rng, [4, 4], dim=4)
        e = Tensor(rng.standard_normal((2, 4)))
        ctx = Tensor(rng.standard_normal((2, 4)))
        fused, alphas = fuse_dynamic([e, e], ctx, params.w_att)
        np.testing.assert_allclose(fused.data, e.data, atol=1e-6)
        np.testing.assert_allclose(alphas.data.sum(axis=1), 1.0, atol=1e-6)

    def test_matches_independent_oracle(self):
        # hand-rolled reimplementation of the attention-weighted sum
        rng = np.random.default_rng(4)
        with use_dtype(np.float64):
            params = make_params(rng, [3, 5], dim=4)
            bases = lookup_bases(params, np.array([2, 9, 14]))
            ctx = Tensor(rng.standard_normal((3, 4)))
            fused, alphas = fuse_dynamic(bases, ctx, params.w_att)
            w = params.w_att.data
            for i in range(3):
                logits = []
                for base in bases:
                    z = w @ base.data[i]
                    s = z / (1.0 + np.exp(-z))
                    logits.append(ctx.data[i] @ s)
                e = np.exp(logits - np.max(logits))
                a = e / e.sum()
                expect = sum(a[n] * bases[n].data[i] for n in range(2))
                np.testing.assert_allclose(alphas.data[i], a, atol=1e-6)
                np.testing.assert_allclose(fused.data[i], expect, atol=1e-6)

    def test_weights_are_probability_vectors(self):
        rng = np.random.default_rng(5)
        params = make_params(rng, [2, 3, 4], dim=6)
        bases = lookup_bases(params, rng.integers(0, 24, size=8))
        ctx = Tensor(rng.standard_normal((8, 6)) * 10)
        _, alphas = fuse_dynamic(bases, ctx, params.w_att)
        assert (alphas.data >= 0).all()
        np.testing.assert_allclose(alphas.data.sum(axis=1), 1.0, atol=1e-6)

    def test_static_sum(self):
        a = Tensor([[1.0, 0.0]])
        b = Tensor([[0.0, 1.0]])
        np.testing.assert_array_equal(fuse_static([a, b]).data, [[1.0, 1.0]])


class TestContextualize:
    def test_zero_weights(self):
        h = Tensor(np.ones((2, 3)))
        r = Tensor(np.ones((2, 3)))
        out = contextualize(h, r, Tensor(np.zeros((6, 3))), Tensor(np.zeros(3)))
        np.testing.assert_array_equal(out.data, np.zeros((2, 3)))

    def test_block_identity_recovers_silu_of_h(self):
        with use_dtype(np.float64):
            h = Tensor(np.array([[0.5, -1.0, 2.0]]))
            r = Tensor(np.array([[3.0, 3.0, 3.0]]))
            w = np.zeros((6, 3))
            w[:3, :3] = np.eye(3)
            out = contextualize(h, r, Tensor(w), Tensor(np.zeros(3)))
            expect = h.data * (1.0 / (1.0 + np.exp(-h.data)))
            np.testing.assert_allclose(out.data, expect, atol=1e-12)

    def test_matches_matmul_oracle(self):
        rng = np.random.default_rng(6)
        with use_dtype(np.float64):
            h = Tensor(rng.standard_normal((4, 5)))
            r = Tensor(rng.standard_normal((4, 5)))
            w = Tensor(rng.standard_normal((10, 5)))
            b = Tensor(rng.standard_normal(5))
            out = contextualize(h, r, w, b)
            pre = np.hstack([h.data, r.data]) @ w.data + b.data
            np.testing.assert_allclose(out.data, pre / (1.0 + np.exp(-pre)), atol=1e-9)


class TestEmbedSequence:
    def test_single_item(self):
        rng = np.random.default_rng(7)
        params = make_params(rng, [2, 5], dim=4)
        h, _ = embed_sequence([3], [1], params)
        assert h.data.shape == (1, 4)

    def test_negative_index_is_rejected(self):
        # No index stands for padding: -1 is out of range like any other negative index.
        rng = np.random.default_rng(8)
        params = make_params(rng, [2, 5], dim=4)
        for items in ([3, -1], [-1, 3], [-2]):
            with pytest.raises(IndexError, match="out of range"):
                embed_sequence(items, [1] * len(items), params)

    def test_rows_match_per_item_pipeline(self):
        rng = np.random.default_rng(9)
        with use_dtype(np.float64):
            params = make_params(rng, [3, 4], dim=4)
            items = [2, 7, 11]
            ctxs = [1, 4, 2]
            h, _ = embed_sequence(items, ctxs, params)
            for i, (item, ctx) in enumerate(zip(items, ctxs)):
                row, _ = embed_sequence([item], [ctx], params)
                np.testing.assert_allclose(h.data[i], row.data[0], atol=1e-9)

    def test_length_mismatch(self):
        rng = np.random.default_rng(10)
        params = make_params(rng, [2, 5], dim=4)
        with pytest.raises(ValueError):
            embed_sequence([1, 2], [0], params)

    def test_permutation_coherence(self):
        # permuting tables with the decomposition order leaves h unchanged
        rng = np.random.default_rng(11)
        with use_dtype(np.float64):
            params = make_params(rng, [3, 4], dim=4)
            h, _ = embed_sequence([5, 9], [1, 2], params)
            swapped = EmbeddingParams(
                tables=[params.tables[1], params.tables[0]],
                context_table=params.context_table,
                w_att=params.w_att, w_mix=params.w_mix, b_mix=params.b_mix)
            # items whose (q, r) tuples swap roles: find indices mapping to the
            # same base rows under the swapped decomposition
            for g in (5, 9):
                r, q = decompose_index(g, [3, 4])
                g_swapped = q + 4 * r
                h2, _ = embed_sequence([g_swapped], [1 if g == 5 else 2], swapped)
                i = 0 if g == 5 else 1
                np.testing.assert_allclose(h.data[i], h2.data[0], atol=1e-9)


def test_parameter_count_beats_full_table():
    # shipped configurations with N=2, m1 >= 2 always compress
    for vocab in (100, 12101, 20000):
        for m1 in (2, 3, 4, 5):
            m2 = math.ceil(vocab / m1)
            assert m1 * m2 >= vocab
            assert m1 + m2 < vocab
