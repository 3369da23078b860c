import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twinrec
from twinrec.autodiff import (BLOCK, Arena, Tensor, concat, cross_entropy, finite_diff_check,
                              no_grad, use_dtype)


def test_silu_at_zero():
    assert Tensor([0.0]).silu().data[0] == 0.0


def test_gelu_at_zero():
    assert Tensor([0.0]).gelu().data[0] == 0.0


def test_silu_at_one():
    # 64-bit oracle: 1 * 1/(1+e^-1)
    with use_dtype(np.float64):
        expected = 1.0 / (1.0 + math.exp(-1.0))
        got = Tensor([1.0]).silu().data[0]
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(0.731059, abs=1e-6)


def test_gelu_at_one():
    # erf oracle: 1 * Phi(1)
    with use_dtype(np.float64):
        expected = 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0)))
        got = Tensor([1.0]).gelu().data[0]
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(0.841345, abs=1e-6)


class TestSoftmax:
    def test_constant_logits(self):
        y = Tensor([2.5, 2.5, 2.5]).softmax(axis=0)
        np.testing.assert_allclose(y.data, [1 / 3] * 3, atol=1e-6)

    def test_closed_form(self):
        y = Tensor([0.0, math.log(2.0)]).softmax(axis=0)
        np.testing.assert_allclose(y.data, [1 / 3, 2 / 3], atol=1e-6)

    @given(st.lists(st.floats(-30, 30), min_size=1, max_size=8),
           st.floats(-30, 30))
    @settings(max_examples=50, deadline=None)
    def test_rows_sum_to_one_and_shift_invariant(self, xs, c):
        with use_dtype(np.float64):
            y = Tensor(xs).softmax(axis=0)
            shifted = Tensor([x + c for x in xs]).softmax(axis=0)
        assert y.data.sum() == pytest.approx(1.0, abs=1e-6)
        assert (y.data >= 0).all()
        np.testing.assert_allclose(y.data, shifted.data, atol=1e-6)


class TestBackward:
    def test_sum_is_linear(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        x.sum().backward()
        np.testing.assert_array_equal(x.grad, [1.0, 1.0, 1.0])

    def test_elementwise_square(self):
        # hand differentiation: d/dx sum(x*x) = 2x
        x = Tensor([2.0, -1.0], requires_grad=True)
        (x * x).sum().backward()
        np.testing.assert_allclose(x.grad, [4.0, -2.0], atol=1e-6)

    def test_nonscalar_backward_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            (x * x).backward()

    def test_fanout_accumulates(self):
        x = Tensor([3.0], requires_grad=True)
        y = x * 2.0 + x * x
        y.sum().backward()
        assert x.grad[0] == pytest.approx(2.0 + 6.0)

    def test_interior_gradients_are_dropped_once_passed_on(self):
        x = Tensor([1.0, -2.0], requires_grad=True)
        y = x * 3.0
        loss = (y * y).sum()
        loss.backward()
        assert y.grad is None and loss.grad is None
        np.testing.assert_array_equal(x.grad, [18.0, -36.0])

    def test_concat_splits_gradients_exactly(self):
        a = Tensor([[1.0, 2.0]], requires_grad=True)
        b = Tensor([[3.0, 4.0], [5.0, 6.0]], requires_grad=True)
        out = concat([a, b], axis=0)
        (out * Tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])).sum().backward()
        np.testing.assert_array_equal(a.grad, [[1.0, 2.0]])
        np.testing.assert_array_equal(b.grad, [[3.0, 4.0], [5.0, 6.0]])

    def test_index_rows_scatter_adds(self):
        table = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        out = table[np.array([0, 2, 0])]
        out.sum().backward()
        np.testing.assert_array_equal(table.grad, [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]])

    def test_slice_and_repeated_gather_gradients(self):
        # loss = sum(x[1:3] * w) + sum(x[[0, 0, 2]]) + sum(x[..., 1:2]) * 3
        x = Tensor(np.arange(8.0).reshape(4, 2), requires_grad=True)
        w = Tensor([[1.0, 2.0], [3.0, 4.0]])
        loss = ((x[1:3] * w).sum() + x[np.array([0, 0, 2])].sum()
                + x[..., 1:2].sum() * 3.0)
        loss.backward()
        np.testing.assert_array_equal(x.grad, [[2.0, 2.0 + 3.0],
                                               [1.0, 2.0 + 3.0],
                                               [3.0 + 1.0, 4.0 + 1.0 + 3.0],
                                               [0.0, 3.0]])

    def test_boolean_mask_gather_assigns_what_add_at_would_scatter(self):
        rng = np.random.default_rng(4)
        mask = rng.random((3, 4)) < 0.5
        g_leaf, g_interior = rng.standard_normal((2, mask.sum(), 5)).astype(np.float32)
        params = Arena({"a": (3, 4, 5)})
        params.grad_flat()
        a = params["a"]  # its first gradient goes into its arena slice
        x = Tensor(rng.standard_normal((3, 4, 5)), requires_grad=True)
        y = x * 1.0  # an interior node, with no gradient slice
        ((a[mask] * g_leaf).sum() + (y[mask] * g_interior).sum()).backward()
        for got, g in ((a.grad, g_leaf), (x.grad, g_interior)):
            want = np.zeros((3, 4, 5), np.float32)
            np.add.at(want, mask, g)
            np.testing.assert_array_equal(got, want)
        assert np.shares_memory(a.grad, params.grad_flat())

    def test_leaf_accumulates_after_read_only_first_gradient(self):
        # ``sum``'s backward hands its input a read-only broadcast view.
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        (x.sum() + (x * x).sum()).backward()
        np.testing.assert_array_equal(x.grad, [3.0, 5.0, 7.0])
        x.sum().backward()  # no zero_grads: gradients add up
        np.testing.assert_array_equal(x.grad, [4.0, 6.0, 8.0])

    def test_arena_gradients_are_slices_of_one_array(self):
        params = Arena({"a": (4, 2), "b": (3,)})
        flat = params.grad_flat()
        a, b = params["a"], params["b"]
        (a[1:3].sum() + a[np.array([0, 0, 2])].sum() + (b * 2.0).sum()).backward()
        assert np.shares_memory(a.grad, flat) and np.shares_memory(b.grad, flat)
        np.testing.assert_array_equal(flat, [2, 2, 1, 1, 2, 2, 0, 0, 2, 2, 2])

    def test_gradients_from_before_the_arena_gradient_are_copied_in(self):
        params = Arena({"a": (2,), "b": (2,)})
        (params["a"] * 3.0 + params["b"]).sum().backward()
        np.testing.assert_array_equal(params.grad_flat(), [3, 3, 1, 1])


def test_first_nonfinite_names_the_first_leaf_in_layout_order():
    params = Arena({"a": (3,), "b": (BLOCK + 5,), "c": (2,)})
    assert params.first_nonfinite() is None
    params["c"].data[1] = np.nan
    assert params.first_nonfinite() == "c"
    params["b"].data[-1] = np.inf  # in the arena's second block
    assert params.first_nonfinite() == "b"
    params["b"].data[0] = -np.inf
    assert params.first_nonfinite() == "b"
    params["a"].data[2] = np.nan
    assert params.first_nonfinite() == "a"


def test_gradient_buffers_are_private_to_autodiff():
    # Only autodiff.py knows how a leaf's gradient is stored.
    for path in sorted(Path(twinrec.__file__).parent.glob("*.py")):
        if path.name != "autodiff.py":
            text = path.read_text()
            assert "_grad_buf" not in text and "_first_grad_buffer" not in text, path.name


def reference_cross_entropy(x, targets):
    """Mean CE and its gradient from a float64 numpy log-softmax."""
    m = x.max(axis=1, keepdims=True)
    log_probs = x - (m + np.log(np.exp(x - m).sum(axis=1, keepdims=True)))
    rows = np.arange(len(targets))
    grad = np.exp(log_probs)
    grad[rows, targets] -= 1.0
    return -log_probs[rows, targets].mean(), grad / len(targets)


class TestCrossEntropy:
    @pytest.mark.parametrize("shape,targets,shift", [
        ((1, 7), [3], 0.0),                    # one row
        ((5, 4), [2, 2, 0, 2, 3], 0.0),        # repeated targets
        ((4, 6), [5, 0, 1, 5], 1e4),           # exp(logits) would overflow unshifted
    ])
    def test_matches_numpy_log_softmax(self, shape, targets, shift):
        rng = np.random.default_rng(len(targets))
        x = rng.standard_normal(shape) * 3.0 + shift
        want, want_grad = reference_cross_entropy(x, np.array(targets))
        with use_dtype(np.float64), warnings.catch_warnings():
            warnings.simplefilter("error")
            leaf = Tensor(x, requires_grad=True)
            loss = cross_entropy(leaf * 1.0, targets)  # a recorded op's output: used in place
            loss.backward()
        assert loss.item() == pytest.approx(want, abs=1e-12)
        np.testing.assert_allclose(leaf.grad, want_grad, rtol=0, atol=1e-10)
        np.testing.assert_array_equal(leaf.data, x)

    def test_leaf_logits_are_copied(self):
        x = np.array([[1.0, 2.0, 3.0], [0.5, 0.5, -1.0]])
        with use_dtype(np.float64):
            leaf = Tensor(x, requires_grad=True)
            cross_entropy(leaf, [2, 0]).backward()
        np.testing.assert_array_equal(leaf.data, x)
        np.testing.assert_allclose(leaf.grad, reference_cross_entropy(x, np.array([2, 0]))[1],
                                   rtol=0, atol=1e-10)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        targets = rng.integers(0, 6, size=5)
        with use_dtype(np.float64):
            x = Tensor(rng.standard_normal((5, 4)))
            w = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
            report = finite_diff_check(lambda: cross_entropy(x @ w, targets), {"w": w},
                                       eps=1e-5, n_samples=8)
        assert report["w"] < 1e-3

    @pytest.mark.parametrize("targets", [[0], [0, 1, 2]])
    def test_misaligned_targets_rejected(self, targets):
        with pytest.raises(ValueError, match="misaligned"):
            cross_entropy(Tensor(np.zeros((2, 3))), targets)


def _random_composite(rng):
    """A small graph exercising every primitive the model uses."""
    params = {
        "w": Tensor(rng.standard_normal((4, 4)), requires_grad=True),
        "u": Tensor(rng.standard_normal((4, 3)), requires_grad=True),
        "b": Tensor(rng.standard_normal(3), requires_grad=True),
        "e": Tensor(rng.standard_normal((5, 4)), requires_grad=True),
    }
    idx = rng.integers(0, 5, size=6)
    targets = rng.integers(0, 3, size=6)

    def forward():
        x = params["e"][idx]
        h = (x @ params["w"].transpose()).silu()
        h = concat([h[:3], h[3:]], axis=0)
        a = (h @ h.transpose()).softmax(axis=1)
        out = ((a @ h) @ params["u"] + params["b"]).gelu()
        # cross_entropy overwrites its input's data, and out also feeds out * out.
        return (out * out).sum() + cross_entropy(out + params["b"], targets) * 0.1

    return forward, params


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_composite_graphs_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    with use_dtype(np.float64):
        forward, params = _random_composite(rng)
        report = finite_diff_check(forward, params, eps=1e-5, n_samples=6, seed=seed)
    assert max(report.values()) < 1e-5


def test_finite_diff_quadratic_closed_form():
    with use_dtype(np.float64):
        theta = Tensor([3.0], requires_grad=True)
        report = finite_diff_check(lambda: (theta * theta).sum(), {"theta": theta}, eps=1e-4)
    # analytic 6 vs numeric 6 within 1e-6 absolute
    assert report["theta"] * 6.0 < 1e-6


def test_finite_diff_constant_function():
    theta = Tensor([1.0, 2.0], requires_grad=True)
    const = Tensor([5.0])
    with use_dtype(np.float64):
        report = finite_diff_check(lambda: (theta * 0.0).sum() + const.sum(),
                                   {"theta": theta}, eps=1e-4)
    assert report["theta"] == 0.0


def test_finite_diff_eps_bounds():
    theta = Tensor([1.0], requires_grad=True)
    with pytest.raises(ValueError):
        finite_diff_check(lambda: theta.sum(), {"theta": theta}, eps=1e-2)


def test_no_grad_records_no_graph():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with no_grad():
        y = (x * x).sum()
    assert not y.requires_grad and y._parents == () and y._backward is None
    assert (x * x).sum().requires_grad


def test_storage_precision_modes():
    assert Tensor([1.0]).data.dtype == np.float32
    with use_dtype(np.float64):
        assert Tensor([1.0]).data.dtype == np.float64
    assert Tensor([1.0]).data.dtype == np.float32
