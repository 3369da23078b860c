import math

import numpy as np
import pytest

from twinrec.autodiff import Tensor, finite_diff_check, use_dtype
from twinrec.encoder import attn_branch, conv_branch, count_branch_params, twin_forward
from twinrec.model import ModelConfig, SequentialRecommender


def naive_conv(h, kernels):
    """Triple-nested-loop oracle for the depthwise convolution."""
    t, d = h.shape
    length = kernels.shape[0]
    centre = (length + 1 + 1) // 2 - 1  # 0-based centre tap
    out = np.zeros_like(h)
    for i in range(t):
        for dd in range(d):
            for j in range(length):
                src = i + j - centre
                if 0 <= src < t:
                    out[i, dd] += kernels[j, dd] * h[src, dd]
    return out


def naive_attn(h, pos, w_q, w_k, w_v, n_heads):
    """Explicit Q/K/V oracle with row softmax."""
    t, d = h.shape
    ht = h + pos[:t]
    q, k, v = ht @ w_q.T, ht @ w_k.T, ht @ w_v.T
    logits = q @ k.T / np.sqrt(d / n_heads)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    a = e / e.sum(axis=1, keepdims=True)
    return a @ v, a


def generic_attn(h, positions, head, n_heads, valid):
    """The key-biased head built from the generic ops, one graph node per op."""
    t, d = h.data.shape[-2:]
    ht = h + positions[:t]
    q, k, v = (ht @ w.transpose() for w in head)
    logits = (q @ k.transpose()) * (1.0 / math.sqrt(d / n_heads))
    logits = logits + np.where(valid, 0.0, -np.inf)[..., None, :]
    return logits.softmax(axis=-1) @ v


class TestConvBranch:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        h = Tensor(rng.standard_normal((5, 3)))
        kernels = np.zeros((3, 3))
        kernels[1, :] = 1.0  # centre tap
        out = conv_branch(h, Tensor(kernels))
        np.testing.assert_allclose(out.data, h.data, atol=1e-6)

    def test_zero_kernel(self):
        h = Tensor(np.ones((4, 2)))
        out = conv_branch(h, Tensor(np.zeros((3, 2))))
        np.testing.assert_array_equal(out.data, np.zeros((4, 2)))

    @pytest.mark.parametrize("t,length,d,seed", [(4, 3, 2, 1), (7, 5, 4, 2), (2, 5, 3, 3)])
    def test_matches_naive_oracle(self, t, length, d, seed):
        rng = np.random.default_rng(seed)
        with use_dtype(np.float64):
            h = Tensor(rng.standard_normal((t, d)))
            kernels = rng.standard_normal((length, d))
            out = conv_branch(h, Tensor(kernels))
        np.testing.assert_allclose(out.data, naive_conv(h.data, kernels), atol=1e-6)

    def test_locality_exact(self):
        # perturbing row i changes outputs only within floor(L/2) of i
        rng = np.random.default_rng(4)
        with use_dtype(np.float64):
            base = rng.standard_normal((9, 3))
            kernels = Tensor(rng.standard_normal((5, 3)))
            before = conv_branch(Tensor(base), kernels).data
            perturbed = base.copy()
            perturbed[4] += 10.0
            after = conv_branch(Tensor(perturbed), kernels).data
        changed = np.any(before != after, axis=1)
        for i in range(9):
            if abs(i - 4) > 2:
                assert not changed[i]


class TestAttnBranch:
    def make_head(self, rng, d):
        return tuple(Tensor(rng.standard_normal((d, d)), requires_grad=True) for _ in range(3))

    def test_singleton_sequence(self):
        rng = np.random.default_rng(5)
        d = 4
        head = self.make_head(rng, d)
        pos = Tensor(rng.standard_normal((8, d)))
        h = Tensor(rng.standard_normal((1, d)))
        out, weights = attn_branch(h, pos, head, n_heads=1)
        np.testing.assert_allclose(weights.data, [[1.0]], atol=1e-7)
        ht = h.data + pos.data[:1]
        np.testing.assert_allclose(out.data, ht @ head[2].data.T, atol=1e-5)

    def test_identical_rows_uniform_attention(self):
        rng = np.random.default_rng(6)
        d = 4
        head = self.make_head(rng, d)
        pos = Tensor(np.zeros((8, d)))
        h = Tensor(np.tile(rng.standard_normal(d), (5, 1)))
        _, weights = attn_branch(h, pos, head, n_heads=1)
        np.testing.assert_allclose(weights.data, np.full((5, 5), 0.2), atol=1e-6)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(7)
        d, t = 4, 3
        with use_dtype(np.float64):
            head = self.make_head(rng, d)
            pos = Tensor(rng.standard_normal((8, d)))
            h = Tensor(rng.standard_normal((t, d)))
            out, weights = attn_branch(h, pos, head, n_heads=2)
            expect_out, expect_a = naive_attn(h.data, pos.data,
                                              *(w.data for w in head), 2)
        np.testing.assert_allclose(out.data, expect_out, atol=1e-6)
        np.testing.assert_allclose(weights.data, expect_a, atol=1e-6)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(8)
        d = 6
        head = self.make_head(rng, d)
        pos = Tensor(rng.standard_normal((10, d)))
        h = Tensor(rng.standard_normal((7, d)) * 5)
        _, weights = attn_branch(h, pos, head, n_heads=1)
        np.testing.assert_allclose(weights.data.sum(axis=1), 1.0, atol=1e-6)

    def test_masked_columns_get_zero_weight(self):
        rng = np.random.default_rng(9)
        d = 4
        head = self.make_head(rng, d)
        pos = Tensor(rng.standard_normal((8, d)))
        h = Tensor(rng.standard_normal((4, d)))
        _, weights = attn_branch(h, pos, head, n_heads=1,
                                 valid_mask=[True, True, True, False])
        np.testing.assert_array_equal(weights.data[:, 3], np.zeros(4))
        np.testing.assert_allclose(weights.data.sum(axis=1), 1.0, atol=1e-6)

    def test_single_valid_key_gets_weight_one(self):
        rng = np.random.default_rng(14)
        d = 4
        head = self.make_head(rng, d)
        pos = Tensor(rng.standard_normal((8, d)))
        h = Tensor(rng.standard_normal((3, d)) * 5)
        _, weights = attn_branch(h, pos, head, n_heads=1, valid_mask=[False, True, False])
        np.testing.assert_array_equal(weights.data, np.tile([0.0, 1.0, 0.0], (3, 1)))

    def test_all_padding_row_raises(self):
        rng = np.random.default_rng(15)
        d = 4
        head = self.make_head(rng, d)
        pos = Tensor(rng.standard_normal((8, d)))
        h = Tensor(rng.standard_normal((2, 3, d)))
        with pytest.raises(ValueError):
            attn_branch(h, pos, head, n_heads=1,
                        valid_mask=[[True, True, False], [False, False, False]])

    def test_ragged_mask_matches_where_reference(self):
        rng = np.random.default_rng(16)
        d, t = 8, 6
        head = self.make_head(rng, d)
        pos = Tensor(rng.standard_normal((t, d)))
        h = Tensor(rng.standard_normal((4, t, d)))
        valid = np.arange(t) < np.array([6, 1, 3, 5])[:, None]
        _, weights = attn_branch(h, pos, head, n_heads=2, valid_mask=valid)
        # The same operations, with padded keys replaced by -inf before a plain softmax.
        ht = h.data + pos.data[:t]
        q, k = (ht @ w.data.T for w in head[:2])
        logits = (q @ k.swapaxes(-1, -2)) * (1.0 / math.sqrt(d / 2))
        logits = np.where(valid[:, None, :], logits, logits.dtype.type(-np.inf))
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        np.testing.assert_array_equal(weights.data, e / e.sum(axis=-1, keepdims=True))

    @pytest.mark.parametrize("valid", [np.arange(6) < np.array([6, 1, 3, 5])[:, None],
                                       np.arange(6) < 4])
    def test_matches_generic_ops_to_the_bit(self, valid):
        rng = np.random.default_rng(17)
        d, t = 8, 6
        h0 = rng.standard_normal(valid.shape + (d,))
        pos0 = rng.standard_normal((t + 2, d))
        heads0 = [rng.standard_normal((d, d)) for _ in range(3)]
        g = Tensor(rng.standard_normal(h0.shape))
        results = []
        for head_output in (lambda *a: attn_branch(*a)[0], generic_attn):
            h, pos = Tensor(h0, requires_grad=True), Tensor(pos0, requires_grad=True)
            head = tuple(Tensor(w, requires_grad=True) for w in heads0)
            out = head_output(h, pos, head, 1, valid)  # scale 1/sqrt(8): not a power of two
            (out * g).sum().backward()
            results.append([out.data, h.grad, pos.grad] + [w.grad for w in head])
        assert results[0][0].dtype == np.float32
        for got, want in zip(*results):
            np.testing.assert_array_equal(got, want)

    def test_masked_head_matches_finite_differences(self):
        rng = np.random.default_rng(18)
        d, t = 4, 5
        valid = np.arange(t) < np.array([5, 2, 4])[:, None]
        with use_dtype(np.float64):
            params = {name: Tensor(rng.standard_normal(shape), requires_grad=True)
                      for name, shape in [("h", (3, t, d)), ("positions", (t, d)),
                                          ("w_q", (d, d)), ("w_k", (d, d)), ("w_v", (d, d))]}
            head = tuple(params[f"w_{x}"] for x in "qkv")
            g = Tensor(rng.standard_normal((3, t, d)))
            report = finite_diff_check(
                lambda: (attn_branch(params["h"], params["positions"], head, 2, valid)[0]
                         * g).sum(),
                params, eps=1e-5, n_samples=8)
        assert max(report.values()) < 1e-5

    def test_training_graph_keeps_no_attention_sized_array(self):
        # The head's (B, T, T) weights live in its node's backward, not in any node's data.
        cfg = ModelConfig(vocab_size=12, n_contexts=6, dim=8, kernel_size=3, n_heads=2,
                          n_layers=2, max_len=10)
        model = SequentialRecommender(cfg, seed=0)
        rng = np.random.default_rng(19)
        batch = [(rng.integers(0, 12, t), rng.integers(0, 6, t), int(rng.integers(0, 12)))
                 for t in (3, 7, 5)]
        seen, stack = set(), [model.training_loss(batch, lam=1e-5)]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                assert node.data.shape[-2:] != (7, 7), node
                stack.extend(node._parents)
        assert len(seen) > 50

    def test_returned_weights_are_read_only(self):
        rng = np.random.default_rng(20)
        d = 4
        head = self.make_head(rng, d)
        pos = Tensor(rng.standard_normal((8, d)))
        h = Tensor(rng.standard_normal((5, d)), requires_grad=True)
        out, weights = attn_branch(h, pos, head, n_heads=1)
        with pytest.raises(ValueError, match="read-only"):
            weights.data[0, 0] = 0.5
        assert not weights.requires_grad

    def test_too_long_sequence(self):
        rng = np.random.default_rng(10)
        d = 4
        head = self.make_head(rng, d)
        pos = Tensor(np.zeros((2, d)))
        with pytest.raises(ValueError):
            attn_branch(Tensor(np.zeros((3, d))), pos, head, n_heads=1)


class TestTwinForward:
    def build(self, rng, d, n_conv, n_attn, length=3, t_max=8):
        conv = [Tensor(rng.standard_normal((length, d)), requires_grad=True)
                for _ in range(n_conv)]
        attn = [tuple(Tensor(rng.standard_normal((d, d)), requires_grad=True) for _ in range(3))
                for _ in range(n_attn)]
        pos = Tensor(rng.standard_normal((t_max, d)), requires_grad=True)
        return conv, attn, pos

    def test_output_width_is_two_h_d(self):
        rng = np.random.default_rng(11)
        conv, attn, pos = self.build(rng, d=4, n_conv=1, n_attn=1)
        out, _ = twin_forward(Tensor(rng.standard_normal((2, 4))), conv, attn, pos)
        assert out.data.shape == (2, 8)

    def test_zero_parameters_zero_output(self):
        rng = np.random.default_rng(12)
        d = 4
        conv = [Tensor(np.zeros((3, d)))]
        attn = [tuple(Tensor(np.zeros((d, d))) for _ in range(3))]
        pos = Tensor(np.zeros((8, d)))
        out, _ = twin_forward(Tensor(rng.standard_normal((3, d))), conv, attn, pos)
        np.testing.assert_allclose(out.data, np.zeros((3, 8)), atol=1e-7)

    def test_slices_equal_standalone_heads(self):
        rng = np.random.default_rng(13)
        d = 4
        conv, attn, pos = self.build(rng, d=d, n_conv=2, n_attn=2)
        h = Tensor(rng.standard_normal((5, d)))
        out, _ = twin_forward(h, conv, attn, pos)
        for i, head in enumerate(conv):
            np.testing.assert_allclose(out.data[:, i * d:(i + 1) * d],
                                       conv_branch(h, head).data, atol=1e-6)
        for i, head in enumerate(attn):
            standalone, _ = attn_branch(h, pos, head, n_heads=2)
            lo = (2 + i) * d
            np.testing.assert_allclose(out.data[:, lo:lo + d], standalone.data, atol=1e-6)


class TestParamCount:
    def test_small_example(self):
        assert count_branch_params(1, 5, 8) == (232, 384)

    def test_boundary_where_l_equals_3d(self):
        twin, plain = count_branch_params(2, 24, 8)
        assert twin == plain

    def test_shipped_config(self):
        twin, plain = count_branch_params(2, 5, 128)
        assert twin == 99_584
        assert plain == 196_608
        assert twin < plain

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            count_branch_params(0, 5, 8)
