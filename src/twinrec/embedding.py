"""Compositional item embeddings over quotient-remainder base tables.

The full ``vocab x D`` item table is replaced by N small base tables; an
item's global index is decomposed into one row index per table by repeated
mod/div, which is injective whenever the table sizes multiply to at least
the vocabulary size. The selected base rows are fused with attention
weights conditioned on a per-position context embedding (previous
category, current category, hour of day), then the context vector is
injected through a small MLP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .atomic import atomic_write
from .autodiff import Tensor, concat

# Item padding sentinel lives outside the quotient-remainder range; real
# items use 0-based global indices.
PAD_ITEM = -1
# Category index 0 is reserved for the padded previous-category at the
# start of a window; real categories are 1-based.
PAD_CATEGORY = 0
# Context-table row 0 is reserved for tuples unseen during training.
UNK_CONTEXT = 0


def decompose_index(g, sizes):
    """Map a global item index to one row index per base table.

    The first index is ``g mod m1``; each following index is the running
    quotient mod that table's size. Injective on ``[0, prod(sizes))``.
    """
    if not 0 <= g < math.prod(sizes):
        raise IndexError(f"global index {g} out of range for sizes {sizes}")
    out = []
    q = g
    for m in sizes:
        out.append(q % m)
        q //= m
    return out


def decompose_indices(gs, sizes):
    """Vectorised ``decompose_index``: (n,) int array -> list of N (n,) arrays."""
    gs = np.asarray(gs, dtype=np.int64)
    if gs.size and (gs.min() < 0 or gs.max() >= math.prod(sizes)):
        raise IndexError(f"global index out of range for sizes {sizes}")
    out = []
    q = gs
    for m in sizes:
        out.append(q % m)
        q = q // m
    return out


@dataclass
class ContextVocab:
    """Dense indexing of (prev-category, current-category, hour) triplets.

    Index 0 is reserved for unseen triplets; training-time triplets are
    numbered 1.. in registration order (see ``data.build_context_vocab``).
    """
    index: dict = field(default_factory=dict)

    def lookup(self, triplet):
        # Integer scalars of any type hash and compare as the stored ints do.
        return self.index.get(tuple(triplet), UNK_CONTEXT)

    @property
    def size(self):
        """Number of context-table rows, including the UNK row."""
        return len(self.index) + 1

    def save(self, path):
        with atomic_write(path) as f:
            for (prev, cur, hour), idx in sorted(self.index.items(), key=lambda kv: kv[1]):
                f.write(f"{prev}\t{cur}\t{hour}\t{idx}\n")

    @classmethod
    def load(cls, path):
        """Read a file ``save`` wrote: ids 1..n in file order, hours in 0..23."""
        vocab = cls()
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, start=1):
                if not line.strip():
                    continue
                try:
                    prev, cur, hour, idx = map(int, line.rstrip("\n").split("\t"))
                except ValueError:
                    raise ValueError(f"{path}: line {lineno} is not four integer fields; "
                                     f"run prepare-data again") from None
                if not 0 <= hour <= 23:
                    raise ValueError(f"{path}: line {lineno} has hour {hour} outside 0..23")
                key = (prev, cur, hour)
                if idx != len(vocab.index) + 1 or key in vocab.index:
                    raise ValueError(f"{path}: line {lineno} gives {key} id {idx}; ids must "
                                     f"number distinct triplets 1.. in file order")
                vocab.index[key] = idx
        return vocab


@dataclass
class EmbeddingParams:
    """Trainable state of the embedding layer.

    Table n's row count is its size m_n in the decomposition. ``w_att`` is
    None for the variant that replaces dynamic fusion with a plain sum of
    base embeddings.
    """
    tables: list           # N tensors, table n of shape (m_n, D)
    context_table: Tensor  # (n_contexts, D)
    w_att: Tensor | None   # (D, D)
    w_mix: Tensor          # (2D, D)
    b_mix: Tensor          # (D,)


def lookup_bases(params, item_indices):
    """Base rows for items of shape (..., T): list of N (..., T, D) tensors."""
    per_table = decompose_indices(item_indices, [t.data.shape[0] for t in params.tables])
    return [tbl[idx] for tbl, idx in zip(params.tables, per_table)]


def fuse_dynamic(bases, ctx_emb, w_att):
    """Attention-weighted sum of base embeddings, conditioned on context.

    Per position i and table n the logit is ``r_i . SiLU(W_a e_i^n)``; the
    weights are a softmax over the N tables.
    """
    logits = []
    w_att_t = w_att.transpose()
    for base in bases:
        proj = (base @ w_att_t).silu()            # (..., T, D)
        logits.append((ctx_emb * proj).sum(axis=-1, keepdims=True))
    alphas = concat(logits, axis=-1).softmax(axis=-1)  # (..., T, N)
    terms = [alphas[..., n:n + 1] * base for n, base in enumerate(bases)]
    return sum(terms[1:], terms[0]), alphas


def fuse_static(bases):
    """Unweighted sum of base embeddings (dynamic fusion ablated)."""
    fused = bases[0]
    for base in bases[1:]:
        fused = fused + base
    return fused


def contextualize(fused, ctx_emb, w_mix, b_mix):
    """Inject the context vector: SiLU of an affine map on [h ; r]."""
    return (concat([fused, ctx_emb], axis=-1) @ w_mix + b_mix).silu()


def embed_sequence(item_indices, ctx_indices, params):
    """Compositional embeddings of items (..., T): a (..., T, D) tensor.

    Fusion is dynamic unless ``params.w_att`` is None, and then static.
    Positions holding the padding sentinel yield exact zero rows.
    Returns (H, alphas) where alphas is None for static fusion.
    """
    items = np.asarray(item_indices, dtype=np.int64)
    ctxs = np.asarray(ctx_indices, dtype=np.int64)
    if items.shape != ctxs.shape:
        raise ValueError(f"items {items.shape} and contexts {ctxs.shape} misaligned")
    if items.size == 0:
        raise ValueError("empty sequence")
    valid = items != PAD_ITEM
    safe_items = np.where(valid, items, 0)
    bases = lookup_bases(params, safe_items)
    ctx_emb = params.context_table[np.where(valid, ctxs, UNK_CONTEXT)]
    if params.w_att is None:
        fused, alphas = fuse_static(bases), None
    else:
        fused, alphas = fuse_dynamic(bases, ctx_emb, params.w_att)
    h = contextualize(fused, ctx_emb, params.w_mix, params.b_mix)
    return h * Tensor(valid[..., None]), alphas
