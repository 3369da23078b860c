"""Adam optimisation, leave-one-out ranking evaluation and heatmap export."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import data as datamod
from .autodiff import BLOCK, no_grad, zero_grads


@dataclass
class TrainConfig:
    batch_size: int = 256
    lr: float = 0.001
    l2: float = 1e-5
    epochs: int = 10
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    patience: int = 10  # early stop on validation nDCG@10

    def __post_init__(self):
        if self.batch_size < 1 or self.epochs < 0 or self.patience < 1:
            raise ValueError("batch size and patience must be positive, epochs non-negative")
        if not 0 < self.lr < math.inf or not 0 <= self.l2 < math.inf:
            raise ValueError(f"learning rate must be positive and finite (got {self.lr}), "
                             f"l2 finite and non-negative (got {self.l2})")


class Adam:
    """Bias-corrected Adam over a named parameter dict, updated in place.

    ``p.data`` and the moments ``m`` and ``v`` are updated in place, BLOCK
    elements at a time through two block-sized scratch buffers per
    parameter, so a step allocates no parameter-sized array and each block
    stays in cache.
    Each block applies the plain formula's operations in its order,

        m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g
        p = p - lr*(m/bc1) / (sqrt(v/bc2) + eps),

    so the result is bit-identical to evaluating it on whole arrays.
    """

    def __init__(self, params, config):
        self.params = params
        self.config = config
        self.t = 0
        self.m = {name: np.zeros(p.data.shape, p.data.dtype) for name, p in params.items()}
        self.v = {name: np.zeros(p.data.shape, p.data.dtype) for name, p in params.items()}
        self._scratch = {name: (np.empty(min(p.data.size, BLOCK), p.data.dtype),
                                np.empty(min(p.data.size, BLOCK), p.data.dtype))
                         for name, p in params.items()}

    def step(self):
        cfg = self.config
        missing = [name for name, p in self.params.items() if p.grad is None]
        if missing:
            raise RuntimeError(f"parameters without gradients: {missing}")
        self.t += 1
        b1, b2, lr, eps = cfg.beta1, cfg.beta2, cfg.lr, cfg.eps
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for name, p in self.params.items():
            if not (p.data.flags.c_contiguous and p.data.flags.writeable):
                p.data = p.data.copy()  # so the flat view below writes through
            x, g = p.data.reshape(-1), p.grad.reshape(-1)
            m, v = self.m[name].reshape(-1), self.v[name].reshape(-1)
            a, b = self._scratch[name]
            for lo in range(0, x.size, BLOCK):
                s = slice(lo, lo + BLOCK)
                xs, gs, ms, vs = x[s], g[s], m[s], v[s]
                sa, sb = a[:xs.size], b[:xs.size]
                np.multiply(ms, b1, out=ms)
                np.multiply(gs, 1.0 - b1, out=sa)
                np.add(ms, sa, out=ms)
                np.multiply(vs, b2, out=vs)
                np.multiply(gs, 1.0 - b2, out=sa)
                np.multiply(sa, gs, out=sa)
                np.add(vs, sa, out=vs)
                np.divide(ms, bc1, out=sa)
                np.divide(vs, bc2, out=sb)
                np.multiply(sa, lr, out=sa)
                np.sqrt(sb, out=sb)
                np.add(sb, eps, out=sb)
                np.divide(sa, sb, out=sa)
                np.subtract(xs, sa, out=xs)


def rank_of(scores, target):
    """1-based rank of ``target`` under descending score, lower index wins ties.

    NaN ranks after every number, as in a numpy sort.
    """
    s = scores[target]
    if np.isnan(s):
        return int(np.sum(~np.isnan(scores))) + int(np.sum(np.isnan(scores[:target]))) + 1
    better = int(np.sum(scores > s))
    tied_before = int(np.sum(scores[:target] == s))
    return better + tied_before + 1


def ranking_metrics(ranks, ks=(5, 10, 20)):
    """HR@K and nDCG@K averaged over users, single relevant item per user."""
    if len(ranks) == 0:
        raise ValueError("no users to evaluate")
    ranks = np.asarray(ranks, dtype=np.int64)
    hr = {k: float(np.mean(ranks <= k)) for k in ks}
    ndcg = {k: float(np.mean(np.where(ranks <= k, 1.0 / np.log2(ranks + 1), 0.0)))
            for k in ks}
    return hr, ndcg


@dataclass
class EvalReport:
    split: str
    hr: dict
    ndcg: dict
    ranks: list
    n_users: int
    params: dict = field(default_factory=dict)

    def to_json_dict(self, config_hash=""):
        return {
            "split": self.split,
            "n_users": self.n_users,
            "metrics": {str(k): {"hr": round(self.hr[k], 6), "ndcg": round(self.ndcg[k], 6)}
                        for k in sorted(self.hr)},
            "params_total": self.params.get("total", 0),
            "params_embedding": self.params.get("embedding", 0),
            "config_hash": config_hash,
        }


def evaluate(model, sequences, ctx_vocab, split, ks=(5, 10, 20)):
    """Full-ranking leave-one-out evaluation over all users.

    Every item in the vocabulary stays in the candidate set, including ones
    the user already interacted with.
    """
    ranks = []
    for seq in sequences:
        sample = datamod.eval_input(seq, ctx_vocab, model.config.max_len, split)
        if sample is None:
            continue
        items, ctxs, target = sample
        scores = model.forward_scores(items, ctxs).data[0]
        ranks.append(rank_of(scores, target))
    hr, ndcg = ranking_metrics(ranks, ks)
    return EvalReport(split, hr, ndcg, ranks, len(ranks), model.count_parameters())


@dataclass
class TrainResult:
    history: list          # rows of (epoch, loss, val_ndcg10, seconds)
    best_epoch: int
    best_val_ndcg10: float
    best_state: dict       # parameter snapshot at the best validation score


def train(model, samples, config, val_sequences=None, ctx_vocab=None,
          progress=None):
    """Mini-batch training with seeded shuffling and best-checkpoint retention.

    After each epoch validation nDCG@10 is computed (when validation data is
    given) and training stops once it has not improved for ``patience``
    epochs. The returned best snapshot is loaded back into the model.
    """
    import time

    if not samples:
        raise ValueError("no training samples")
    rng = np.random.default_rng(config.seed)
    optim = Adam(model.params, config)
    history = []
    best_ndcg = -1.0
    best_epoch = -1
    best_state = model.state_snapshot()
    since_best = 0
    order = np.arange(len(samples))
    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        rng.shuffle(order)
        epoch_loss = 0.0
        n_batches = 0
        for lo in range(0, len(order), config.batch_size):
            batch = [samples[i] for i in order[lo:lo + config.batch_size]]
            zero_grads(model.params)
            loss = model.training_loss(batch, config.l2)
            value = loss.item()
            if not math.isfinite(value):
                first = batch[0]
                raise RuntimeError(
                    f"non-finite loss {value} at epoch {epoch}, batch starting "
                    f"with items={first[0].tolist()} target={first[2]}")
            loss.backward()
            optim.step()
            epoch_loss += value
            n_batches += 1
        epoch_loss /= n_batches
        val_ndcg = float("nan")
        if val_sequences is not None:
            report = evaluate(model, val_sequences, ctx_vocab, "val", ks=(10,))
            val_ndcg = report.ndcg[10]
            if val_ndcg > best_ndcg:
                best_ndcg = val_ndcg
                best_epoch = epoch
                best_state = model.state_snapshot()
                since_best = 0
            else:
                since_best += 1
        seconds = time.perf_counter() - t0
        history.append((epoch, epoch_loss, val_ndcg, seconds))
        if progress:
            progress(epoch, epoch_loss, val_ndcg, seconds)
        if val_sequences is not None and since_best >= config.patience:
            break
    if val_sequences is not None:
        model.load_snapshot(best_state)
    else:
        best_state = model.state_snapshot()
        best_epoch = config.epochs - 1
    return TrainResult(history, best_epoch, best_ndcg, best_state)


def export_attention(model, items, ctx_indices, last_k=10):
    """Per-head and head-averaged attention over the last ``last_k`` positions.

    The retained sub-matrix rows are renormalised so every exported row sums
    to one. Heads come from the final encoder layer; the convolution branch
    has no weights to export. Keys: ``head0..head{H-1}`` and ``mean``.
    """
    if last_k < 1:
        raise ValueError(f"last_k must be at least 1, got {last_k}")
    with no_grad():
        result = model.forward(items, ctx_indices)
    weights = result["attention"][-1]
    t = weights[0].data.shape[0]
    keep = min(t, last_k)
    out = {}
    acc = None
    for h, w in enumerate(weights):
        sub = np.array(w.data[t - keep:, t - keep:], copy=True)
        sub /= sub.sum(axis=1, keepdims=True)
        out[f"head{h}"] = sub
        acc = sub.copy() if acc is None else acc + sub
    out["mean"] = acc / len(weights)
    return out
