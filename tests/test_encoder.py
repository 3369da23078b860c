import numpy as np
import pytest

from twinrec.autodiff import Tensor, use_dtype
from twinrec.encoder import attn_branch, conv_branch, count_branch_params, twin_forward


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
