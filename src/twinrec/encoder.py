"""Twin sequence encoder: depthwise convolution + positional self-attention.

The convolution branch captures local transitions with one length-L kernel
per channel (O(LD) parameters per head, centred window, zero padding). The
attention branch adds learnable position embeddings and applies scaled
dot-product self-attention (O(3D^2) per head). With H heads per branch the
outputs are concatenated along the feature axis into a (T, 2HD) matrix,
convolution heads first. Every function works on the trailing (T, D) axes
under any leading batch shape.

The functions take parameter tensors: a conv head is its (L, D) kernel, an
attention head a ``(w_q, w_k, w_v)`` triple of (D, D) matrices, and the
position table a (T_max, D) tensor whose row t serves position t only; L
and T_max are read from those shapes."""

from __future__ import annotations

import math

import numpy as np

from .autodiff import Tensor, concat


def _correlate(x, kernels):
    """``out[..., i, :] = sum_j kernels[j] * x[..., i + j - L//2, :]``, and the padded ``x``."""
    length, t = kernels.shape[0], x.shape[-2]
    xp = np.pad(x, [(0, 0)] * (x.ndim - 2) + [(length // 2, length // 2), (0, 0)])
    return sum(xp[..., j:j + t, :] * kernels[j] for j in range(length)), xp


def conv_branch(h, kernels):
    """Depthwise 1-D convolution of (..., T, D) by (L, D) kernels: centred window, zero padding.

    One graph node; its backward correlates the gradient with the flipped kernels.
    """
    data, padded = _correlate(h.data, kernels.data)
    out = Tensor._result(data, (h, kernels))
    if out.requires_grad:
        def bw(g):
            if h.requires_grad:
                h._accum(_correlate(g, kernels.data[::-1])[0])
            if kernels.requires_grad:
                t, d = g.shape[-2:]
                kernels._accum(np.stack([(g * padded[..., j:j + t, :]).reshape(-1, d).sum(axis=0)
                                         for j in range(len(kernels.data))]))
        out._backward = bw
    return out


def attn_branch(h, positions, head, n_heads, valid_mask=None):
    """Position-aware scaled dot-product self-attention for one head.

    No causal mask: the encoder is bidirectional and leakage is prevented
    by how training samples are constructed. Padded positions, when given
    via ``valid_mask``, are excluded as attention targets.

    ``head`` is the ``(w_q, w_k, w_v)`` triple and ``positions`` the (T_max, D)
    position table. Works on (..., T, D); ``valid_mask`` has shape (..., T).
    Returns (output (..., T, D), attention weights (..., T, T)).
    """
    t, d = h.data.shape[-2:]
    max_len = positions.data.shape[0]
    if t > max_len:
        raise ValueError(f"sequence length {t} exceeds position table {max_len}")
    ht = h + positions[:t]
    q, k, v = (ht @ w.transpose() for w in head)
    scale = 1.0 / math.sqrt(d / n_heads)
    logits = (q @ k.transpose()) * scale
    mask = None if valid_mask is None else np.asarray(valid_mask, dtype=bool)[..., None, :]
    weights = logits.softmax(axis=-1, mask=mask)
    return weights @ v, weights


def twin_forward(h, kernels, attn_heads, positions, valid_mask=None):
    """Run all heads and concatenate along features: conv heads first.

    Returns (output (..., T, 2HD), list of per-head attention weight tensors).
    """
    outputs = [conv_branch(h, k) for k in kernels]
    attn_weights = []
    for head in attn_heads:
        out, weights = attn_branch(h, positions, head, len(attn_heads), valid_mask)
        outputs.append(out)
        attn_weights.append(weights)
    return concat(outputs, axis=-1), attn_weights


def count_branch_params(n_heads, window, dim):
    """Parameter counts: twin encoder H(LD + 3D^2) vs plain 2H-head attention 6HD^2."""
    if n_heads < 1 or window < 1 or dim < 1:
        raise ValueError("head count, window and dim must be positive")
    twin = n_heads * (window * dim + 3 * dim * dim)
    plain = 6 * n_heads * dim * dim
    return twin, plain
