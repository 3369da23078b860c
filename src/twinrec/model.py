"""Full recommender: compositional embedding -> twin encoder -> FFN -> ranking.

The model reads one window of items, or a batch's windows concatenated with
their lengths; no item id stands for padding. The readout takes each
window's last position after the encoder layers, maps it through a
``(D, |V|)`` output layer and produces a probability distribution over the
whole item set. Variants swap individual components for ablation:

  full        the complete model
  full_emb    a single uncompressed base table (N=1, m1=|V|)
  wo_dynamic  base embeddings summed without attention weights
  plain_attn  convolution heads replaced by extra attention heads
"""

from __future__ import annotations

import json
import math
import os
import zlib
from dataclasses import asdict, dataclass, replace
from itertools import zip_longest

import numpy as np

from . import autodiff
from .atomic import atomic_write
from .autodiff import Arena, Tensor, concat, keep_heap, l2_penalty, use_dtype
from . import embedding as emb
from .encoder import twin_forward
from .embedding import EmbeddingParams

VARIANTS = ("full", "full_emb", "wo_dynamic", "plain_attn")

CHECKPOINT_MAGIC = "TWINREC-CKPT-1"
# Values per rng.uniform call when a parameter is initialised (4 MB of
# float64): a larger tensor is drawn block by block into its slice of the
# arena, so no float64 copy of it is built, and a smaller one is drawn whole.
INIT_BLOCK = 1 << 19


@dataclass
class ModelConfig:
    vocab_size: int
    n_contexts: int
    dim: int = 128
    kernel_size: int = 5
    n_heads: int = 2
    n_layers: int = 1
    max_len: int = 50
    n_tables: int = 2
    m1: int = 2
    variant: str = "full"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        for name in ("vocab_size", "n_contexts", "dim", "kernel_size", "n_heads", "n_layers",
                     "max_len", "n_tables", "m1"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.kernel_size % 2 == 0:
            raise ValueError(f"kernel_size must be odd, got {self.kernel_size}")

    def table_sizes(self):
        """Base table sizes: N-1 tables of m1 rows, the last sized to cover |V|."""
        if self.variant == "full_emb" or self.n_tables == 1:
            return [self.vocab_size]
        head = [self.m1] * (self.n_tables - 1)
        rest = math.ceil(self.vocab_size / math.prod(head))
        return head + [rest]

    def layout(self):
        """Each parameter's name -> (``count_parameters`` bucket, shape), in the order in which
        the parameter arena and a checkpoint's payload pack them."""
        d, v = self.dim, self.vocab_size
        n_conv = 0 if self.variant == "plain_attn" else self.n_heads
        width = 2 * self.n_heads * d
        out = {f"emb.table{n}": ("embedding", (m, d)) for n, m in enumerate(self.table_sizes())}
        out["emb.context"] = ("context", (self.n_contexts, d))
        if self.variant != "wo_dynamic":
            out["fusion.w_att"] = ("fusion", (d, d))
        out.update({"fusion.w_mix": ("fusion", (2 * d, d)), "fusion.b_mix": ("fusion", (d,))})
        for l in range(self.n_layers):
            out.update({f"enc{l}.conv{h}.kernel": ("encoder", (self.kernel_size, d))
                        for h in range(n_conv)})
            out.update({f"enc{l}.attn{h}.w{x}": ("encoder", (d, d))
                        for h in range(2 * self.n_heads - n_conv) for x in "qkv"})
            out.update({f"enc{l}.pos": ("positional", (self.max_len, d)),
                        f"enc{l}.ffn.w1": ("ffn", (width, width)), f"enc{l}.ffn.b1": ("ffn", (width,)),
                        f"enc{l}.ffn.w2": ("ffn", (width, d)), f"enc{l}.ffn.b2": ("ffn", (d,))})
        out.update({"out.w": ("output", (d, v)), "out.b": ("output", (v,))})
        return out

    def count_parameters(self):
        """Exact per-bucket value counts, the total, and the embedding's share of a full table."""
        buckets = {}
        for bucket, shape in self.layout().values():
            buckets[bucket] = buckets.get(bucket, 0) + math.prod(shape)
        buckets["total"] = sum(buckets.values())
        buckets["embedding_compression_ratio"] = buckets["embedding"] / (self.dim * self.vocab_size)
        return buckets


def checkpoint_manifest(config, dtype):
    """Each tensor's name, dtype, shape and byte offset in a payload of ``dtype``, and its length."""
    dtype, entries, offset = np.dtype(dtype), [], 0
    for name, (_, shape) in config.layout().items():
        entries.append({"name": name, "dtype": str(dtype), "shape": list(shape), "offset": offset})
        offset += math.prod(shape) * dtype.itemsize
    return entries, offset


class SequentialRecommender:
    """Trainable next-item model; its parameters are the views of one ``Arena``."""

    def __init__(self, config, seed=0):
        self._assemble(config, seed)
        bound = 1.0 / math.sqrt(config.dim)
        for name, t in self.params.items():
            if t.data.ndim == 1:
                continue  # biases start at zero
            # Each tensor draws from its own name-keyed stream so variants
            # sharing a parameter name initialise identically; one uniform
            # draw per value, so blocking keeps the values.
            rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
            flat = t.data.reshape(-1)
            for lo in range(0, flat.size, INIT_BLOCK):
                block = flat[lo:lo + INIT_BLOCK]
                block[...] = rng.uniform(-bound, bound, size=block.size)

    def _assemble(self, config, seed):
        """Make the parameter arena, all zero, and the layers' views of it; draw nothing."""
        self.config = config
        self.seed = seed
        self.params = p = Arena({name: shape for name, (_, shape) in config.layout().items()})
        tables = [p[f"emb.table{n}"] for n in range(len(config.table_sizes()))]
        self.embedding = EmbeddingParams(tables, p["emb.context"], p.get("fusion.w_att"),
                                         p["fusion.w_mix"], p["fusion.b_mix"])
        n_conv = 0 if config.variant == "plain_attn" else config.n_heads
        self.layers = [([p[f"enc{l}.conv{h}.kernel"] for h in range(n_conv)],
                        [tuple(p[f"enc{l}.attn{h}.w{x}"] for x in "qkv")
                         for h in range(2 * config.n_heads - n_conv)],
                        p[f"enc{l}.pos"],
                        tuple(p[f"enc{l}.ffn.{x}"] for x in ("w1", "b1", "w2", "b2")))
                       for l in range(config.n_layers)]

    # -- forward --------------------------------------------------------

    def forward(self, items, ctx_indices, lengths=None):
        """Run the full pipeline for one window (T,), or for windows of ``lengths`` concatenated.

        The embedding and FFNs run on the (N, ·) rows; each encoder gathers its (T, ·) or
        (B, T, ·) grid from them and one zero row, which the slots past a window's end read.
        Returns a dict with each window's last-position logits, (1 or B, |V|), the (N, ·)
        ``hidden`` and ``alphas`` and the per-layer, per-head attention weights, which are
        read-only."""
        items = np.asarray(items, dtype=np.int64)
        ctxs = np.asarray(ctx_indices, dtype=np.int64)
        if items.ndim != 1 or items.shape != ctxs.shape:
            raise ValueError(f"items {items.shape} and contexts {ctxs.shape} misaligned or not 1-D")
        for name, ids, n in (("item", items, self.config.vocab_size),
                             ("context", ctxs, self.config.n_contexts)):
            bad = ids[(ids < 0) | (ids >= n)]
            if bad.size:
                raise ValueError(f"{name} {bad[0]} outside {name} range")
        sizes = np.asarray([items.size] if lengths is None else lengths, dtype=np.int64)
        if sizes.ndim != 1 or not sizes.size or sizes.min() < 1:
            raise ValueError(f"window lengths {sizes.tolist()}: need one or more, each at least 1")
        if sizes.sum() != items.size:
            raise ValueError(f"window lengths sum to {sizes.sum()}, not to the {items.size} items")
        t = sizes.max()
        if t > self.config.max_len:
            raise ValueError(f"sequence length {t} exceeds max_len {self.config.max_len}")
        ends = np.cumsum(sizes)
        valid = np.arange(t) < sizes[:, None]
        slot = np.where(valid, (ends - sizes)[:, None] + np.arange(t), -1)
        if lengths is None:  # one window: its grid has no batch axis
            valid, slot = valid[0], slot[0]
        h, alphas = emb.embed_sequence(items, ctxs, self.embedding)
        zero = Tensor(np.zeros((1, self.config.dim)))
        attention = []
        for kernels, attn_heads, positions, (w1, b1, w2, b2) in self.layers:
            twin, weights = twin_forward(concat([h, zero])[slot], kernels, attn_heads,
                                         positions, valid)
            h = (twin[valid] @ w1 + b1).gelu() @ w2 + b2
            attention.append(weights)
        logits = h[ends - 1] @ self.params["out.w"] + self.params["out.b"]
        return {"logits": logits, "hidden": h, "attention": attention, "alphas": alphas}

    def forward_scores(self, items, ctx_indices):
        """Probability distribution over all items for the next step; records no graph."""
        with autodiff.no_grad():
            return self.forward(items, ctx_indices)["logits"].softmax(axis=-1)

    def predict_topk(self, items, ctx_indices, k):
        """Top-k item indices by score, ties broken by ascending index, NaN scores last.

        The first k of a stable sort of all the scores, found without one: a partial selection
        (``np.partition``) finds the k-th score, and only the scores above it and the lowest
        indices among those equal to it are sorted."""
        v = self.config.vocab_size
        if not 1 <= k <= v:
            raise ValueError(f"k={k} outside 1..{v}")
        keys = -self.forward_scores(items, ctx_indices).data[0]
        kth = np.partition(keys, k - 1)[k - 1]
        if np.isnan(kth):  # fewer than k scores are numbers: all of them, then the first NaNs
            tied = np.isnan(keys)
            above = ~tied
        else:
            above, tied = keys < kth, keys == kth
        top = np.flatnonzero(above)
        top = np.concatenate((top, np.flatnonzero(tied)[:k - top.size]))
        return top[np.lexsort((top, keys[top]))].tolist()

    # -- loss -----------------------------------------------------------

    def training_loss(self, batch, lam):
        """Mean cross-entropy over the batch plus lam * sum of squared parameters.

        One graph: ``forward`` reads the batch's windows concatenated, with their lengths.
        """
        targets = np.array([target for _, _, target in batch], dtype=np.int64)
        bad = targets[(targets < 0) | (targets >= self.config.vocab_size)]
        if bad.size:
            raise ValueError(f"target {bad[0]} outside item range")
        items, ctxs, _ = zip(*batch)
        out = self.forward(np.concatenate(items), np.concatenate(ctxs), list(map(len, items)))
        loss = autodiff.cross_entropy(out["logits"], targets)
        if lam:
            loss = loss + lam * l2_penalty(self.params)
        return loss

    # -- accounting -----------------------------------------------------

    def count_parameters(self):
        return self.config.count_parameters()

    # -- persistence ----------------------------------------------------

    def save(self, path, vocab_digest=None):
        """Write config + manifest + the arena as little-endian float32, and ``vocab_digest``."""
        raw = np.asarray(self.params.flat, "<f4")
        header = {"magic": CHECKPOINT_MAGIC,
                  "config": asdict(self.config),
                  "seed": self.seed,
                  "tensors": checkpoint_manifest(self.config, raw.dtype)[0]}
        if vocab_digest is not None:
            header["vocab_digest"] = vocab_digest
        with atomic_write(path, binary=True) as f:
            f.write(json.dumps(header, sort_keys=True).encode("utf-8"))
            f.write(b"\n")
            f.write(raw)

    @classmethod
    def load(cls, path):
        """Check the manifest and payload length against the header config's layout before building
        the model, then read the float32 payload into its float32 arena (whatever ``use_dtype`` is
        in force), which starts zeroed: nothing is drawn. A payload holding a non-finite value is
        rejected, naming the first such tensor in layout order. ``vocab_digest`` is ``save``'s, or
        None. Sets the process's heap policy (``keep_heap``) first, so that serving keeps its
        per-request temporaries' heap pages."""
        keep_heap()
        with open(path, "rb") as f:
            try:
                header = json.loads(f.readline())
            except ValueError:  # not JSON, or not UTF-8
                header = None
            if not isinstance(header, dict) or header.get("magic") != CHECKPOINT_MAGIC:
                raise ValueError(f"{path}: not a checkpoint file")
            payload = os.fstat(f.fileno()).st_size - f.tell()
            try:
                config = ModelConfig(**header["config"])
                seed, entries = header["seed"], list(header["tensors"])
                if type(seed) is not int or seed < 0:
                    raise ValueError(f"seed {seed!r} is not a non-negative integer")
                want, size = checkpoint_manifest(config, np.float32)
            except (KeyError, TypeError, ValueError) as e:
                raise ValueError(f"{path}: malformed header ({type(e).__name__}: {e}); "
                                 f"run train again") from None
            for k, (got, expected) in enumerate(zip_longest(entries, want)):
                if got != expected:
                    raise ValueError(f"{path}: manifest entry {k} is {got}, where the model's "
                                     f"layout has {expected}")
            if payload != size:
                raise ValueError(f"{path}: the payload holds {payload} bytes, but the manifest's "
                                 f"last tensor, {want[-1]['name']!r}, ends at byte {size}")
            model = cls.__new__(cls)
            with use_dtype(np.float32):
                model._assemble(config, seed)
            model.vocab_digest = header.get("vocab_digest")
            f.readinto(model.params.flat)
        bad = model.params.first_nonfinite()
        if bad is not None:
            raise ValueError(f"{path}: tensor {bad!r} holds a non-finite value; run train again")
        return model

    def state_snapshot(self):
        return self.params.flat.copy()

    def load_snapshot(self, snapshot):
        np.copyto(self.params.flat, snapshot)


def build_variant(kind, config, seed=0):
    """Construct a model variant; embedding/encoder init is shared by name."""
    return SequentialRecommender(replace(config, variant=kind), seed=seed)
