"""Command-line entry point for reproducible experiments.

Subcommands: prepare-data, train, evaluate, ablate, count-params,
export-attention, gradcheck. All take ``--config FILE`` plus repeatable
``--set key=value`` overrides; the ``TWINREC_WORKSPACE`` environment
variable overrides the output directory. Every artifact embeds the
resolved config hash.

``prepare-data`` writes the workspace as three column archives,
``sequences.npz``, ``item_vocab.npz`` and ``context_vocab.npz``; a command
that finds one missing or malformed stops with one ``error:`` line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import data as datamod
from . import training
from .atomic import atomic_write
from .autodiff import finite_diff_check, use_dtype
from .config import ConfigError, config_hash, load_config, model_config, train_config
from .embedding import ContextVocab
from .model import SequentialRecommender, VARIANTS, build_variant
from .encoder import count_branch_params


def _workspace(cfg):
    return Path(os.environ.get("TWINREC_WORKSPACE", cfg["workspace"]))


def _load_workspace(cfg):
    ws = _workspace(cfg)
    for name in ("sequences.npz", "item_vocab.npz", "context_vocab.npz"):
        if not (ws / name).exists():
            raise FileNotFoundError(f"{ws / name} missing; run prepare-data first")
    sequences = datamod.load_sequences(ws / "sequences.npz")
    vocab = datamod.ItemVocab.load(ws / "item_vocab.npz")
    items, cats = (np.concatenate([getattr(s, key) for s in sequences]) for key in ("items", "cats"))
    unlisted = (items >= vocab.n_items) | (cats > vocab.n_categories)
    if unlisted.any():
        owner = np.searchsorted(np.cumsum([len(s) for s in sequences]), unlisted.argmax(), "right")
        raise ValueError(f"{ws / 'sequences.npz'}: user {sequences[owner].user!r} has an item or "
                         f"category that {ws / 'item_vocab.npz'} does not list")
    ctx_vocab = ContextVocab.load(ws / "context_vocab.npz")
    return ws, sequences, vocab, ctx_vocab


def _vocab_digest(ws):
    """SHA-256 over the SHA-256 digests of the workspace's item and context vocabularies."""
    return hashlib.sha256(b"".join(hashlib.sha256((ws / name).read_bytes()).digest()
                                   for name in ("item_vocab.npz", "context_vocab.npz"))).hexdigest()


def _load_checkpoint(ws, vocab, ctx_vocab):
    """The workspace's checkpoint, which must be trained on its vocabularies."""
    model = SequentialRecommender.load(ws / "checkpoint.bin")
    mc = model.config
    if (mc.vocab_size, mc.n_contexts) != (vocab.n_items, ctx_vocab.size):
        raise ValueError(f"{ws / 'checkpoint.bin'} was trained on {mc.vocab_size} items and "
                         f"{mc.n_contexts} contexts, but the workspace has {vocab.n_items} "
                         f"items and {ctx_vocab.size} contexts; run train again")
    if model.vocab_digest != _vocab_digest(ws):
        raise ValueError(f"{ws / 'checkpoint.bin'} records no digest, or another digest, of the "
                         f"workspace's item and context vocabularies; run train again")
    return model


def _all_samples(sequences, ctx_vocab, max_len):
    samples = []
    for seq in sequences:
        samples.extend(datamod.generate_training_samples(seq, ctx_vocab, max_len))
    return samples


def cmd_prepare_data(cfg):
    if not cfg["data"]:
        raise ConfigError("prepare-data requires the 'data' config key")
    log, n_bad = datamod.ingest(cfg["data"])
    if not len(log):
        print(f"warning: {cfg['data']} contains no interactions", file=sys.stderr)
    if n_bad:
        print(f"warning: skipped {n_bad} malformed lines in {cfg['data']}", file=sys.stderr)
    vocab, sequences = datamod.build_sequences(log)
    ctx_vocab = datamod.build_context_vocab(sequences)
    ws = _workspace(cfg)
    ws.mkdir(parents=True, exist_ok=True)
    datamod.save_sequences(sequences, ws / "sequences.npz")
    vocab.save(ws / "item_vocab.npz")
    ctx_vocab.save(ws / "context_vocab.npz")
    stats = datamod.dataset_stats(vocab, sequences)
    stats["n_context_tuples"] = ctx_vocab.size
    stats["n_malformed_lines"] = n_bad
    stats["config_hash"] = config_hash(cfg)
    with atomic_write(ws / "dataset_stats.json") as f:
        json.dump(stats, f, sort_keys=True, indent=2)
    # the context table can eat into the embedding savings; surface that
    ctx_cost = ctx_vocab.size * cfg["dim"]
    saved = (vocab.n_items - sum(model_config(cfg, vocab.n_items, 1).table_sizes())) * cfg["dim"]
    if ctx_cost > saved > 0:
        print(f"warning: context table ({ctx_cost} values) exceeds the "
              f"embedding savings ({saved} values)", file=sys.stderr)
    print(json.dumps(stats, sort_keys=True, indent=2))
    return 0


def cmd_train(cfg):
    ws, sequences, vocab, ctx_vocab = _load_workspace(cfg)
    digest = _vocab_digest(ws)
    model = SequentialRecommender(
        model_config(cfg, vocab.n_items, ctx_vocab.size), seed=cfg["seed"])
    samples = _all_samples(sequences, ctx_vocab, cfg["max_len"])
    tc = train_config(cfg)
    result = training.train(
        model, samples, tc, val_sequences=sequences, ctx_vocab=ctx_vocab,
        progress=lambda e, loss, ndcg, s: print(
            f"epoch {e}: loss {loss:.4f} val_ndcg10 {ndcg:.4f} ({s:.1f}s)"))
    model.save(ws / "checkpoint.bin", vocab_digest=digest)
    with atomic_write(ws / "train_log.csv") as f:
        f.write(f"# config_hash={config_hash(cfg)}\n")
        f.write("epoch,loss,val_ndcg10,seconds\n")
        for epoch, loss, ndcg, seconds in result.history:
            f.write(f"{epoch},{loss:.6f},{ndcg:.6f},{seconds:.3f}\n")
    print(f"best epoch {result.best_epoch} (val nDCG@10 {result.best_val_ndcg10:.4f}); "
          f"checkpoint written to {ws / 'checkpoint.bin'}")
    return 0


def cmd_evaluate(cfg, split):
    ws, sequences, vocab, ctx_vocab = _load_workspace(cfg)
    model = _load_checkpoint(ws, vocab, ctx_vocab)
    report = training.evaluate(model, sequences, ctx_vocab, split)
    doc = report.to_json_dict(config_hash(cfg))
    out = ws / f"metrics_{split}.json"
    with atomic_write(out) as f:
        json.dump(doc, f, sort_keys=True, indent=2)
    print(json.dumps(doc, sort_keys=True, indent=2))
    return 0


def cmd_ablate(cfg):
    ws, sequences, vocab, ctx_vocab = _load_workspace(cfg)
    samples = _all_samples(sequences, ctx_vocab, cfg["max_len"])
    base_config = model_config(cfg, vocab.n_items, ctx_vocab.size)
    rows = []
    for kind in VARIANTS:
        model = build_variant(kind, base_config, seed=cfg["seed"])
        training.train(model, samples, train_config(cfg),
                       val_sequences=sequences, ctx_vocab=ctx_vocab)
        report = training.evaluate(model, sequences, ctx_vocab, "test")
        rows.append((kind, report))
        print(f"{kind}: nDCG@20 {report.ndcg[20]:.4f} HR@20 {report.hr[20]:.4f}")
    with atomic_write(ws / "ablation.csv") as f:
        f.write(f"# config_hash={config_hash(cfg)}\n")
        f.write("variant,hr5,hr10,hr20,ndcg5,ndcg10,ndcg20,params_total\n")
        for kind, r in rows:
            f.write(f"{kind},{r.hr[5]:.6f},{r.hr[10]:.6f},{r.hr[20]:.6f},"
                    f"{r.ndcg[5]:.6f},{r.ndcg[10]:.6f},{r.ndcg[20]:.6f},"
                    f"{r.params['total']}\n")
    return 0


def cmd_count_params(cfg):
    if cfg["vocab_size"] > 0:
        vocab_size, n_contexts = cfg["vocab_size"], max(cfg["contexts"], 1)
    else:
        _, _, vocab, ctx_vocab = _load_workspace(cfg)
        vocab_size, n_contexts = vocab.n_items, ctx_vocab.size
    counts = model_config(cfg, vocab_size, n_contexts).count_parameters()
    full_table = cfg["dim"] * vocab_size
    print(f"config_hash: {config_hash(cfg)}")
    for key in ("embedding", "context", "fusion", "encoder", "positional",
                "ffn", "output", "total"):
        print(f"{key}: {counts[key]}")
    print(f"embedding values: {counts['embedding']} of full-table {full_table} "
          f"({100.0 * counts['embedding_compression_ratio']:.2f}%)")
    twin, plain = count_branch_params(cfg["heads"], cfg["kernel_size"], cfg["dim"])
    print(f"encoder per layer: twin {twin} vs plain 2H-head attention {plain}")
    return 0


def cmd_export_attention(cfg, user, last_k):
    ws, sequences, vocab, ctx_vocab = _load_workspace(cfg)
    model = _load_checkpoint(ws, vocab, ctx_vocab)
    if user is not None:
        matching = [s for s in sequences if s.user == user]
        if not matching:
            raise ValueError(f"user {user!r} not found")
        seq = matching[0]
    else:
        seq = sequences[0]
    sample = datamod.eval_input(seq, ctx_vocab, model.config.max_len, "test")
    if sample is None:
        raise ValueError(f"sequence for user {seq.user!r} too short")
    items, ctxs, _ = sample
    maps = training.export_attention(model, items, ctxs, last_k=last_k)
    chash = config_hash(cfg)
    for name, matrix in maps.items():
        suffix = "attention_mean.csv" if name == "mean" else f"attention_{name}.csv"
        with atomic_write(ws / suffix) as f:
            f.write(f"# config_hash={chash} user={seq.user}\n")
            for row in matrix:
                f.write(",".join(f"{x:.6g}" for x in row) + "\n")
    print(f"wrote {len(maps)} attention maps for user {seq.user} to {ws}")
    return 0


def cmd_gradcheck(cfg, threshold=1e-3):
    rng = np.random.default_rng(cfg["seed"])
    vocab_size = max(cfg["vocab_size"], 20)
    n_contexts = max(cfg["contexts"], 1) if cfg["contexts"] else 8
    with use_dtype(np.float64):
        model = SequentialRecommender(
            model_config(cfg, vocab_size, n_contexts), seed=cfg["seed"])
        t = min(6, cfg["max_len"])
        items = rng.integers(0, vocab_size, size=t)
        ctxs = rng.integers(0, n_contexts, size=t)
        target = int(rng.integers(0, vocab_size))
        batch = [(items, ctxs, target)]
        report = finite_diff_check(
            lambda: model.training_loss(batch, cfg["l2"]), model.params,
            eps=1e-5, n_samples=4, seed=cfg["seed"])
    worst = max(report.values())
    for name in sorted(report):
        print(f"{name}: {report[name]:.3e}")
    print(f"max relative error: {worst:.3e} (threshold {threshold:g})")
    return 0 if worst < threshold else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="twinrec",
        description="Memory-efficient sequential recommender experiments")
    sub = parser.add_subparsers(dest="command")

    def add(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a single config key")
        return p

    add("prepare-data", help="ingest a TSV log into sequences + vocabs")
    add("train", help="train a model on a prepared workspace")
    p = add("evaluate", help="evaluate a checkpoint")
    p.add_argument("--split", choices=("val", "test"), default="test")
    add("ablate", help="train and evaluate all four variants with a shared seed")
    add("count-params", help="print the parameter breakdown")
    p = add("export-attention", help="emit attention heatmap CSVs")
    p.add_argument("--user", default=None, help="raw user id (default: first user)")
    p.add_argument("--last-k", type=int, default=10)
    add("gradcheck", help="finite-difference gradient check on a tiny model")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        cfg = load_config(args.config, args.overrides)
        if args.command == "prepare-data":
            return cmd_prepare_data(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "evaluate":
            return cmd_evaluate(cfg, args.split)
        if args.command == "ablate":
            return cmd_ablate(cfg)
        if args.command == "count-params":
            return cmd_count_params(cfg)
        if args.command == "export-attention":
            return cmd_export_attention(cfg, args.user, args.last_k)
        if args.command == "gradcheck":
            return cmd_gradcheck(cfg)
        parser.print_usage(sys.stderr)
        return 2
    except (ConfigError, OSError, ValueError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
