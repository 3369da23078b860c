"""Twin sequence encoder: depthwise convolution + positional self-attention.

The convolution branch captures local transitions with one length-L kernel
per channel (O(LD) parameters per head, centred window, zero padding). The
attention branch adds learnable position embeddings and applies scaled
dot-product self-attention (O(3D^2) per head). With H heads per branch the
outputs are concatenated along the feature axis into a (T, 2HD) matrix,
convolution heads first. Every function works on the trailing (T, D) axes
under any leading batch shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, concat


@dataclass
class ConvHead:
    kernels: Tensor  # (L, D): one length-L kernel per channel

    @property
    def window(self):
        return self.kernels.data.shape[0]


@dataclass
class AttnHead:
    w_q: Tensor  # (D, D)
    w_k: Tensor  # (D, D)
    w_v: Tensor  # (D, D)


@dataclass
class PositionTable:
    table: Tensor  # (T_max, D); row t serves position t only

    @property
    def max_len(self):
        return self.table.data.shape[0]


def _correlate(x, kernels):
    """``out[..., i, :] = sum_j kernels[j] * x[..., i + j - L//2, :]``, and the padded ``x``."""
    length, t = kernels.shape[0], x.shape[-2]
    xp = np.pad(x, [(0, 0)] * (x.ndim - 2) + [(length // 2, length // 2), (0, 0)])
    return sum(xp[..., j:j + t, :] * kernels[j] for j in range(length)), xp


def conv_branch(h, head):
    """Depthwise 1-D convolution over (..., T, D), centred window, zero padding at the ends.

    One graph node; its backward correlates the gradient with the flipped kernels.
    """
    kernels = head.kernels
    data, padded = _correlate(h.data, kernels.data)
    out = Tensor._result(data, (h, kernels))
    if out.requires_grad:
        def bw(g):
            if h.requires_grad:
                h._accum(_correlate(g, kernels.data[::-1])[0])
            if kernels.requires_grad:
                t, d = g.shape[-2:]
                kernels._accum(np.stack([(g * padded[..., j:j + t, :]).reshape(-1, d).sum(axis=0)
                                         for j in range(head.window)]))
        out._backward = bw
    return out


def attn_branch(h, positions, head, n_heads, valid_mask=None):
    """Position-aware scaled dot-product self-attention for one head.

    No causal mask: the encoder is bidirectional and leakage is prevented
    by how training samples are constructed. Padded positions, when given
    via ``valid_mask``, are excluded as attention targets.

    Works on (..., T, D); ``valid_mask`` has shape (..., T).
    Returns (output (..., T, D), attention weights (..., T, T)).
    """
    t, d = h.data.shape[-2:]
    if t > positions.max_len:
        raise ValueError(f"sequence length {t} exceeds position table {positions.max_len}")
    ht = h + positions.table[:t]
    q = ht @ head.w_q.transpose()
    k = ht @ head.w_k.transpose()
    v = ht @ head.w_v.transpose()
    scale = 1.0 / math.sqrt(d / n_heads)
    logits = (q @ k.transpose()) * scale
    mask = None if valid_mask is None else np.asarray(valid_mask, dtype=bool)[..., None, :]
    weights = logits.softmax(axis=-1, mask=mask)
    return weights @ v, weights


def twin_forward(h, conv_heads, attn_heads, positions, valid_mask=None):
    """Run all heads and concatenate along features: conv heads first.

    Returns (output (..., T, 2HD), list of per-head attention weight tensors).
    """
    outputs = [conv_branch(h, head) for head in conv_heads]
    attn_weights = []
    for head in attn_heads:
        out, weights = attn_branch(h, positions, head, len(attn_heads), valid_mask)
        outputs.append(out)
        attn_weights.append(weights)
    widths = {o.data.shape[-1] for o in outputs}
    if len(widths) != 1:
        raise ValueError(f"mismatched head output widths {sorted(widths)}")
    return concat(outputs, axis=-1), attn_weights


def count_branch_params(n_heads, window, dim):
    """Parameter counts: twin encoder H(LD + 3D^2) vs plain 2H-head attention 6HD^2."""
    if n_heads < 1 or window < 1 or dim < 1:
        raise ValueError("head count, window and dim must be positive")
    twin = n_heads * (window * dim + 3 * dim * dim)
    plain = 6 * n_heads * dim * dim
    return twin, plain
