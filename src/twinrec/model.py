"""Full recommender: compositional embedding -> twin encoder -> FFN -> ranking.

The readout takes the last valid position of the encoder output, maps it
through a point-wise feed-forward network and a ``(D, |V|)`` output layer,
and produces a probability distribution over the whole item set. Variants
swap individual components for ablation:

  full        the complete model
  full_emb    a single uncompressed base table (N=1, m1=|V|)
  wo_dynamic  base embeddings summed without attention weights
  plain_attn  convolution heads replaced by extra attention heads
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import autodiff
from .atomic import atomic_write
from .autodiff import BLOCK, Tensor
from . import embedding as emb
from .encoder import twin_forward
from .embedding import EmbeddingParams, PAD_ITEM, UNK_CONTEXT

VARIANTS = ("full", "full_emb", "wo_dynamic", "plain_attn")

CHECKPOINT_MAGIC = "TWINREC-CKPT-1"
# Values per rng.uniform call when a parameter is initialised (4 MB of
# float64): a larger tensor is drawn block by block into its own storage, so
# no float64 copy of it is built, and a smaller one is drawn whole. Smaller
# blocks left glibc's dynamic trim threshold low in a process that only
# loads a model, and serving then re-faulted heap pages on every request.
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


class SequentialRecommender:
    """Trainable next-item model; parameters live in a stable, named dict."""

    def __init__(self, config, seed=0):
        self.config = config
        self.seed = seed
        self.params = {}
        d = config.dim

        def new_param(name, shape, zero=False):
            # Each tensor draws from its own name-keyed stream so variants
            # sharing a parameter name initialise identically; one uniform
            # draw per value, so blocking keeps the values.
            data = np.zeros(shape, autodiff._DTYPE)
            if not zero:
                rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
                bound, flat = 1.0 / math.sqrt(d), data.reshape(-1)
                for lo in range(0, flat.size, INIT_BLOCK):
                    block = flat[lo:lo + INIT_BLOCK]
                    block[...] = rng.uniform(-bound, bound, size=block.size)
            t = Tensor(data, requires_grad=True)
            self.params[name] = t
            return t

        tables = [new_param(f"emb.table{n}", (m, d)) for n, m in enumerate(config.table_sizes())]
        context_table = new_param("emb.context", (config.n_contexts, d))
        w_att = None if config.variant == "wo_dynamic" else new_param("fusion.w_att", (d, d))
        w_mix = new_param("fusion.w_mix", (2 * d, d))
        b_mix = new_param("fusion.b_mix", (d,), zero=True)
        self.embedding = EmbeddingParams(tables, context_table, w_att, w_mix, b_mix)

        n_conv = 0 if config.variant == "plain_attn" else config.n_heads
        n_attn = 2 * config.n_heads - n_conv
        width = (n_conv + n_attn) * d
        self.layers = []
        for l in range(config.n_layers):
            kernels = [new_param(f"enc{l}.conv{h}.kernel", (config.kernel_size, d))
                       for h in range(n_conv)]
            attn_heads = [tuple(new_param(f"enc{l}.attn{h}.w{x}", (d, d)) for x in "qkv")
                          for h in range(n_attn)]
            positions = new_param(f"enc{l}.pos", (config.max_len, d))
            ffn = (new_param(f"enc{l}.ffn.w1", (width, width)),
                   new_param(f"enc{l}.ffn.b1", (width,), zero=True),
                   new_param(f"enc{l}.ffn.w2", (width, d)),
                   new_param(f"enc{l}.ffn.b2", (d,), zero=True))
            self.layers.append((kernels, attn_heads, positions, ffn))

        new_param("out.w", (d, config.vocab_size))
        new_param("out.b", (config.vocab_size,), zero=True)

    # -- forward --------------------------------------------------------

    def forward(self, items, ctx_indices):
        """Run the full pipeline for one sequence (T,) or a batch (B, T).

        Returns a dict with the last-valid-position logits, (1 or B, |V|), the
        encoder hidden states and the per-layer, per-head attention weights.
        """
        items = np.asarray(items, dtype=np.int64)
        if items.size == 0:
            raise ValueError("empty sequence")
        t = items.shape[-1]
        if t > self.config.max_len:
            raise ValueError(f"sequence length {t} exceeds max_len {self.config.max_len}")
        valid = items != PAD_ITEM
        if not valid.any(axis=-1).all():
            raise ValueError("sequence contains only padding")
        h, alphas = emb.embed_sequence(items, ctx_indices, self.embedding)
        attention = []
        for l, (kernels, attn_heads, positions, (w1, b1, w2, b2)) in enumerate(self.layers):
            if l:
                # Padded rows must enter every layer as zeros, as they enter
                # the first, or the conv taps read them into valid rows.
                h = h * Tensor(valid[..., None])
            twin, weights = twin_forward(h, kernels, attn_heads, positions, valid)
            h = (twin @ w1 + b1).gelu() @ w2 + b2
            attention.append(weights)
        rows = valid.reshape(-1, t)
        last = t - 1 - np.argmax(rows[:, ::-1], axis=1)
        z = h.reshape(-1, t, self.config.dim)[np.arange(len(rows)), last]
        logits = z @ self.params["out.w"] + self.params["out.b"]
        return {"logits": logits, "hidden": h, "attention": attention, "alphas": alphas}

    def forward_scores(self, items, ctx_indices):
        """Probability distribution over all items for the next step; records no graph."""
        with autodiff.no_grad():
            return self.forward(items, ctx_indices)["logits"].softmax(axis=-1)

    def predict_topk(self, items, ctx_indices, k):
        """Top-k item indices by score, ties broken by ascending index."""
        v = self.config.vocab_size
        if not 1 <= k <= v:
            raise ValueError(f"k={k} outside 1..{v}")
        scores = self.forward_scores(items, ctx_indices).data[0]
        order = np.lexsort((np.arange(v), -scores))
        return order[:k].tolist()

    # -- loss -----------------------------------------------------------

    def training_loss(self, batch, lam):
        """Mean cross-entropy over the batch plus lam * sum of squared parameters.

        One graph: windows are right-padded with PAD_ITEM, keeping their positions.
        """
        targets = np.array([target for _, _, target in batch], dtype=np.int64)
        bad = targets[(targets < 0) | (targets >= self.config.vocab_size)]
        if bad.size:
            raise ValueError(f"target {bad[0]} outside item range")
        t = max(len(items) for items, _, _ in batch)
        items = np.full((len(batch), t), PAD_ITEM, dtype=np.int64)
        ctxs = np.full((len(batch), t), UNK_CONTEXT, dtype=np.int64)
        for row, (window, contexts, _) in enumerate(batch):
            items[row, :len(window)] = window
            ctxs[row, :len(window)] = contexts
        log_probs = self.forward(items, ctxs)["logits"].log_softmax(axis=-1)
        loss = log_probs[np.arange(len(batch)), targets].sum() * (-1.0 / len(batch))
        if lam:
            loss = loss + lam * l2_penalty(self.params)
        return loss

    # -- accounting -----------------------------------------------------

    def count_parameters(self):
        """Exact per-component value counts from the parameter registry."""
        buckets = {"embedding": 0, "context": 0, "fusion": 0, "encoder": 0,
                   "positional": 0, "ffn": 0, "output": 0}
        for name, p in self.params.items():
            if name.startswith("emb.table"):
                key = "embedding"
            elif name == "emb.context":
                key = "context"
            elif name.startswith("fusion."):
                key = "fusion"
            elif ".conv" in name or ".attn" in name:
                key = "encoder"
            elif name.endswith(".pos"):
                key = "positional"
            elif ".ffn." in name:
                key = "ffn"
            else:
                key = "output"
            buckets[key] += p.data.size
        buckets["total"] = sum(buckets.values())
        full_table = self.config.dim * self.config.vocab_size
        buckets["embedding_compression_ratio"] = buckets["embedding"] / full_table
        return buckets

    # -- persistence ----------------------------------------------------

    def save(self, path, vocab_digest=None):
        """Write config + manifest + raw little-endian payload, and ``vocab_digest`` if given."""
        manifest, raws, offset = [], [], 0
        for name, p in self.params.items():
            raw = np.ascontiguousarray(p.data, dtype="<f8" if p.data.dtype == np.float64 else "<f4")
            manifest.append({"name": name,
                             "dtype": str(raw.dtype),
                             "shape": list(raw.shape),
                             "offset": offset})
            raws.append(raw)
            offset += raw.nbytes
        header = {"magic": CHECKPOINT_MAGIC,
                  "config": asdict(self.config),
                  "seed": self.seed,
                  "tensors": manifest}
        if vocab_digest is not None:
            header["vocab_digest"] = vocab_digest
        with atomic_write(path, binary=True) as f:
            f.write(json.dumps(header, sort_keys=True).encode("utf-8"))
            f.write(b"\n")
            for raw in raws:
                f.write(raw)

    @classmethod
    def load(cls, path):
        """Read each tensor, listed in the model's order and packed end to end, into the model.

        The model's ``vocab_digest`` is the one ``save`` wrote, or None.
        """
        with open(path, "rb") as f:
            header = json.loads(f.readline().decode("utf-8"))
            if header.get("magic") != CHECKPOINT_MAGIC:
                raise ValueError(f"{path}: not a checkpoint file")
            try:
                model = cls(ModelConfig(**header["config"]), seed=header["seed"])
                entries = [(e["name"], list(e["shape"]), e["offset"], np.dtype(e["dtype"]))
                           for e in header["tensors"]]
            except (KeyError, TypeError, ValueError) as e:
                raise ValueError(f"{path}: malformed header ({type(e).__name__}: {e}); "
                                 f"run train again") from None
            model.vocab_digest = header.get("vocab_digest")
            offset = 0
            if len(entries) > len(model.params):
                raise ValueError(f"{path}: unknown tensor {entries[len(model.params)][0]!r}")
            for k, (name, p) in enumerate(model.params.items()):
                got, shape, at, dtype = entries[k] if k < len(entries) else (None,) * 4
                if got != name:
                    raise ValueError(f"{path}: manifest entry {k} is {got!r}, "
                                     f"the model expects tensor {name!r}")
                if tuple(shape) != p.data.shape or at != offset or dtype.kind != "f":
                    raise ValueError(f"{path}: tensor {name!r} has shape {shape} and dtype {dtype} "
                                     f"at offset {at}, not {list(p.data.shape)} floats at {offset}")
                raw = p.data if dtype == p.data.dtype else np.empty(p.data.shape, dtype)
                offset += raw.nbytes
                if f.readinto(raw) != raw.nbytes:
                    raise ValueError(f"{path}: tensor {name!r} runs past the end of the payload")
                if raw is not p.data:
                    p.data[...] = raw
            if f.read(1):
                raise ValueError(f"{path}: the payload is longer than its {offset}-byte manifest")
        return model

    def state_snapshot(self):
        return {name: np.array(p.data, copy=True) for name, p in self.params.items()}

    def load_snapshot(self, snapshot):
        for name, p in self.params.items():
            np.copyto(p.data, snapshot[name])


def l2_penalty(params):
    """Sum of squared values over every trainable tensor, as one graph node.

    The value is summed in float64 over dot products of BLOCK-sized slices,
    so no squared copy of a tensor is built.
    """
    tensors = tuple(params.values())
    total = 0.0
    for p in tensors:
        flat = p.data.reshape(-1)
        for lo in range(0, flat.size, BLOCK):
            total += float(np.vdot(flat[lo:lo + BLOCK], flat[lo:lo + BLOCK]))
    out = Tensor._result(np.asarray(total, dtype=tensors[0].data.dtype), tensors)
    if out.requires_grad:
        def bw(g):
            for p in tensors:
                if p.requires_grad:
                    p._accum(2.0 * g * p.data)
        out._backward = bw
    return out


def build_variant(kind, config, seed=0):
    """Construct a model variant; embedding/encoder init is shared by name."""
    return SequentialRecommender(replace(config, variant=kind), seed=seed)
