"""Release acceptance suite.

Nine checks gate a release: exact structural counts, gradient and oracle
equivalence, probability contracts, two behavioural experiments on synthetic
data, and byte-level reproducibility of the CLI pipeline. Each test prints a
single PASS/FAIL line; tolerances are pinned in the assertions.
"""

import math
import time

import numpy as np

from twinrec.autodiff import Tensor, finite_diff_check, use_dtype
from twinrec.cli import main as cli_main
from twinrec.data import (UserSequence, build_context_vocab,
                          generate_training_samples)
from twinrec.embedding import decompose_indices
from twinrec.encoder import attn_branch, conv_branch, count_branch_params
from twinrec.model import ModelConfig, SequentialRecommender, build_variant
from twinrec.training import (Adam, TrainConfig, evaluate, rank_of,
                              ranking_metrics, train)


def report(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_index_decomposition_uniqueness():
    vocab = 12_101
    t0 = time.time()
    ok = True
    for m1 in (2, 3, 4, 5):
        sizes = [m1, math.ceil(vocab / m1)]
        per_table = decompose_indices(np.arange(vocab), sizes)
        tuples = set(zip(*[t.tolist() for t in per_table]))
        ok = ok and len(tuples) == vocab
    elapsed = time.time() - t0
    report(1, ok and elapsed < 1.0,
           f"all {vocab} index tuples distinct for m1 in 2..5 ({elapsed:.2f}s)")


def test_criterion_2_embedding_compression():
    cfg = ModelConfig(vocab_size=12_101, n_contexts=1009, dim=128,
                      kernel_size=5, n_heads=2, m1=2)
    counts = SequentialRecommender(cfg, seed=0).count_parameters()
    full = 12_101 * 128
    ratio = counts["embedding"] / full
    # reference total of 1.11M counts the shared encoder stack but leaves the
    # output projection unspecified; the sanity band applies to everything
    # except that projection
    core = counts["total"] - counts["output"]
    ok = (counts["embedding"] == 774_784 and full == 1_548_928
          and abs(ratio - 0.5002) < 5e-4
          and 0.5 * 1_110_000 <= core <= 1.5 * 1_110_000)
    report(2, ok, f"embedding {counts['embedding']} = {100 * ratio:.2f}% of "
                  f"{full}; core total {core} within ±50% of 1.11M")


def test_criterion_3_twin_vs_plain_parameter_inequality():
    twin, plain = count_branch_params(2, 5, 128)
    h, length, d = 2, 5, 128
    ok = (twin == 99_584 == h * (length * d + 3 * d * d)
          and plain == 196_608 == 6 * h * d * d)
    report(3, ok, f"twin encoder {twin} vs plain {plain} parameters per layer")


def test_criterion_4_full_model_gradient_check():
    t0 = time.time()
    rng = np.random.default_rng(0)
    with use_dtype(np.float64):
        cfg = ModelConfig(vocab_size=20, n_contexts=8, dim=8, kernel_size=3,
                          n_heads=2, max_len=6, n_tables=2, m1=2)
        model = SequentialRecommender(cfg, seed=0)
        items = rng.integers(0, 20, size=6)
        ctxs = rng.integers(0, 8, size=6)
        batch = [(items, ctxs, 13)]
        errors = finite_diff_check(
            lambda: model.training_loss(batch, 1e-5), model.params,
            eps=1e-5, n_samples=5, seed=0)
    elapsed = time.time() - t0
    worst = max(errors.values())
    ok = (set(errors) == set(model.params) and worst < 1e-3 and elapsed < 120)
    report(4, ok, f"max relative error {worst:.2e} over {len(errors)} "
                  f"parameter tensors ({elapsed:.1f}s)")


def test_criterion_5_oracle_equivalence():
    rng = np.random.default_rng(1)
    ok = True
    with use_dtype(np.float64):
        # depthwise convolution vs nested-loop oracle
        t, length, d = 7, 5, 4
        h = rng.standard_normal((t, d))
        kernels = rng.standard_normal((length, d))
        out = conv_branch(Tensor(h), Tensor(kernels)).data
        centre = (length + 1) // 2 - 1
        naive = np.zeros_like(h)
        for i in range(t):
            for dd in range(d):
                for j in range(length):
                    if 0 <= i + j - centre < t:
                        naive[i, dd] += kernels[j, dd] * h[i + j - centre, dd]
        ok = ok and np.allclose(out, naive, atol=1e-6)

        # attention vs explicit Q/K/V oracle
        head = tuple(Tensor(rng.standard_normal((d, d))) for _ in range(3))
        pos = Tensor(rng.standard_normal((8, d)))
        out, weights = attn_branch(Tensor(h), pos, head, n_heads=2)
        ht = h + pos.data[:t]
        q, k, v = (ht @ w.data.T for w in head)
        logits = q @ k.T / np.sqrt(d / 2)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        a = e / e.sum(axis=1, keepdims=True)
        ok = ok and np.allclose(out.data, a @ v, atol=1e-6)
        ok = ok and np.allclose(weights.data, a, atol=1e-6)

    # ranking metrics vs brute-force sort
    scores = rng.random((15, 40))
    targets = rng.integers(0, 40, size=15)
    ranks = [rank_of(scores[u], targets[u]) for u in range(15)]
    expect = [sorted(range(40), key=lambda i: (-scores[u, i], i)).index(targets[u]) + 1
              for u in range(15)]
    ok = ok and ranks == expect
    hr, ndcg = ranking_metrics(ranks, ks=(10,))
    ok = ok and abs(hr[10] - np.mean([r <= 10 for r in expect])) < 1e-6
    ok = ok and abs(ndcg[10] - np.mean(
        [1 / math.log2(r + 1) if r <= 10 else 0.0 for r in expect])) < 1e-6

    # Adam vs reference update on a scalar
    with use_dtype(np.float64):
        p = Tensor([1.0], requires_grad=True)
        opt = Adam({"p": p}, TrainConfig(lr=0.1, epochs=1))
        theta, m, v, b1, b2 = 1.0, 0.0, 0.0, 0.9, 0.999
        for t_step in range(1, 4):
            g = 2.0 * p.data[0]
            p.grad = np.array([g])
            opt.step()
            m = b1 * m + (1 - b1) * (2.0 * theta)
            v = b2 * v + (1 - b2) * (2.0 * theta) ** 2
            theta -= 0.1 * (m / (1 - b1 ** t_step)) / (
                math.sqrt(v / (1 - b2 ** t_step)) + 1e-8)
        ok = ok and abs(p.data[0] - theta) < 1e-6
    report(5, ok, "conv, attention, ranking-metric and Adam oracles agree to 1e-6")


def test_criterion_6_probability_and_locality_suite():
    rng = np.random.default_rng(2)
    ok = True
    cfg = ModelConfig(vocab_size=30, n_contexts=10, dim=8, kernel_size=5,
                      n_heads=2, max_len=12, m1=3)
    model = SequentialRecommender(cfg, seed=2)
    for _ in range(5):
        t = int(rng.integers(1, 12))
        items = rng.integers(0, 30, size=t)
        ctxs = rng.integers(0, 10, size=t)
        result = model.forward(items, ctxs)
        probs = model.forward_scores(items, ctxs).data
        ok = ok and abs(probs.sum() - 1.0) < 1e-6 and (probs >= 0).all()
        for weights in result["attention"][-1]:
            ok = ok and np.allclose(weights.data.sum(axis=1), 1.0, atol=1e-6)
        alphas = result["alphas"]
        ok = ok and np.allclose(alphas.data.sum(axis=1), 1.0, atol=1e-6)

    # conv locality: a perturbation at position i is invisible beyond floor(L/2)
    base = rng.standard_normal((11, 4))
    kernels = Tensor(rng.standard_normal((5, 4)))
    before = conv_branch(Tensor(base), kernels).data
    bumped = base.copy()
    bumped[5] += 7.0
    after = conv_branch(Tensor(bumped), kernels).data
    changed = np.any(before != after, axis=1)
    ok = ok and not any(changed[i] for i in range(11) if abs(i - 5) > 2)
    report(6, ok, "probability vectors normalised to 1e-6; conv locality exact")


def test_criterion_7_memorisation():
    t0 = time.time()
    vocab = 200
    seqs = []
    for u in range(100):
        start = (u * 7) % vocab
        items = [(start + i) % vocab for i in range(12)]
        cats = [1 + (v % 5) for v in items]
        hours = [(v * 3) % 24 for v in items]
        seqs.append(UserSequence(f"u{u}", items, cats, hours))
    ctx = build_context_vocab(seqs)
    cfg = ModelConfig(vocab_size=vocab, n_contexts=ctx.size, dim=32,
                      kernel_size=3, n_heads=2, max_len=12, m1=2)
    model = SequentialRecommender(cfg, seed=0)
    samples = []
    for s in seqs:
        samples.extend(generate_training_samples(s, ctx, cfg.max_len))
    train(model, samples, TrainConfig(batch_size=64, lr=0.003, epochs=30,
                                      seed=0, patience=50))
    hit_rate = evaluate(model, seqs, ctx, "test", ks=(1,)).hr[1]
    elapsed = time.time() - t0
    ok = hit_rate >= 0.95 and elapsed < 600
    report(7, ok, f"cyclic 200-item memorisation HR@1 {hit_rate:.2f} "
                  f"within 30 epochs ({elapsed:.0f}s)")


def test_criterion_8_ablation_direction():
    # category-driven synthetic stand-in for a small review log: chained
    # within-category browsing with occasional random jumps, so the local
    # convolution branch carries real signal
    rng = np.random.default_rng(42)
    vocab, n_cats = 120, 6
    cat_of = [1 + (v * n_cats) // vocab for v in range(vocab)]
    seqs = []
    for u in range(80):
        cur = int(rng.integers(0, vocab))
        items = [cur]
        for _ in range(int(rng.integers(10, 16)) - 1):
            if rng.random() < 0.8 and cat_of[(cur + 1) % vocab] == cat_of[cur]:
                cur = (cur + 1) % vocab
            else:
                cur = int(rng.integers(0, vocab))
            items.append(cur)
        cats = [cat_of[v] for v in items]
        hours = [int(h) for h in rng.integers(0, 24, size=len(items))]
        seqs.append(UserSequence(f"u{u}", items, cats, hours))
    ctx = build_context_vocab(seqs)
    cfg = ModelConfig(vocab_size=vocab, n_contexts=ctx.size, dim=32,
                      kernel_size=3, n_heads=2, max_len=15, m1=2)
    samples = []
    for s in seqs:
        samples.extend(generate_training_samples(s, ctx, cfg.max_len))
    tc = TrainConfig(batch_size=64, lr=0.003, epochs=15, seed=0, patience=50)
    scores = {}
    for kind in ("full", "plain_attn"):
        model = build_variant(kind, cfg, seed=0)
        train(model, samples, tc)
        scores[kind] = evaluate(model, seqs, ctx, "test", ks=(20,)).ndcg[20]
    ok = scores["full"] >= scores["plain_attn"]
    report(8, ok, f"nDCG@20 full {scores['full']:.3f} >= "
                  f"plain_attn {scores['plain_attn']:.3f} (seed 0, 15 epochs)")


def test_criterion_9_byte_level_reproducibility(tmp_path, monkeypatch, capsys):
    log = tmp_path / "log.tsv"
    lines = []
    ts = 0
    for u in range(10):
        start = (u * 3) % 12
        for i in range(10):
            item = (start + i) % 12
            lines.append(f"u{u}\ti{item}\tc{item % 3}\t{ts}")
            ts += 3600
    log.write_text("\n".join(lines) + "\n")
    args = ["--set", "dim=8", "--set", "kernel_size=3", "--set", "heads=1",
            "--set", "max_len=10", "--set", "epochs=2", "--set",
            "batch_size=32", "--set", "seed=0", "--set", f"data={log}"]
    artifacts = ("checkpoint.bin", "metrics_test.json", "attention_mean.csv",
                 "attention_head0.csv")
    blobs = []
    for run in range(2):
        ws = tmp_path / f"run{run}"
        monkeypatch.setenv("TWINREC_WORKSPACE", str(ws))
        for cmd in (["prepare-data"], ["train"], ["evaluate"],
                    ["export-attention", "--last-k", "4"]):
            assert cli_main(cmd + args) == 0
        blobs.append({a: (ws / a).read_bytes() for a in artifacts})
    capsys.readouterr()
    ok = blobs[0] == blobs[1]
    report(9, ok, "two identical runs produce byte-identical checkpoint, "
                  "metrics JSON and heatmap CSVs")
