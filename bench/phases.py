"""The benchmark's three phases, each in a process of its own.

    python3 bench/phases.py {prepare,train,serve} JOB.json RESULT.json

``run.py`` writes the job file and reads the result file; a phase runs in
its own process so that its peak RSS is its own. Each phase times only
calls into twinrec's public API, checks every output against numbers made
apart from the program or against properties the method must have, and
records failed checks in the result rather than stopping.

In a traced job every timed loop runs twice over the same work, first
untraced and then traced, so the phase can report the tracer's overhead
along with the per-layer figures.
"""

from __future__ import annotations

import gc
import json
import math
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import twinrec  # noqa: E402
from twinrec import data, training  # noqa: E402
from twinrec.embedding import ContextVocab  # noqa: E402
from twinrec.model import ModelConfig, SequentialRecommender  # noqa: E402

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

if not Path(twinrec.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"error: twinrec imported from {twinrec.__file__}, not from {ROOT / 'src'}")

TOPK = 10
MIN_TOPK_REQUESTS = 200
EVAL_KS = (1, 5, 10, 20, 50)
# Batches are drawn in the same order on every seed, so each batch holds
# windows of the same lengths and the peak memory of a batch repeats.
SHUFFLE_SEED = 0
FIRST_LOSS_TOL = 0.25  # nats between the untrained model's CE and ln|V|
EPOCHS = 2  # passes over the fixed training set per repetition
N_PROBE = 4  # users whose scores must survive the checkpoint round trip


class Checks:
    """Collects failed correctness checks with a short reason each."""

    def __init__(self):
        self.failures = []

    def __call__(self, ok, message):
        if not ok and len(self.failures) < 20:
            self.failures.append(message)
        return ok


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def model_config(w, n_items, n_contexts):
    return ModelConfig(vocab_size=n_items, n_contexts=n_contexts, dim=w.dim,
                       kernel_size=w.kernel_size, n_heads=w.heads, max_len=w.max_len)


def load_workspace(ws):
    """Sequences in user-index order, the item count and the context vocabulary."""
    sequences = sorted(data.load_sequences(ws / "sequences.json"),
                       key=lambda s: workloads.user_index(s.user))
    n_items = data.ItemVocab.load(ws / "item_vocab.tsv").n_items
    return sequences, n_items, ContextVocab.load(ws / "context_vocab.tsv")


def per_ms(seconds, count):
    return 1000.0 * seconds / count if count else float("nan")


def overhead_pct(untraced, traced):
    return 100.0 * (traced / untraced - 1.0)


def call(tracer, root, request, fn, *args, **kwargs):
    """Run ``fn`` plainly, or inside a ``root`` span when tracing."""
    if tracer is None:
        return fn(*args, **kwargs)
    with tracer.span(root, request=request):
        return fn(*args, **kwargs)


def gc_seconds(summary):
    return sum(v["total"] for k, v in summary.items() if k.startswith("gc."))


# -- prepare ---------------------------------------------------------------

def prepare_once(w, log, seed):
    interactions, n_bad = data.ingest(log)
    vocab, sequences = data.build_sequences(interactions)
    ctx_vocab = data.build_context_vocab(sequences)
    samples = []
    for seq in sequences:
        samples.extend(data.generate_training_samples(seq, ctx_vocab, w.max_len))
    model = SequentialRecommender(model_config(w, vocab.n_items, ctx_vocab.size), seed=seed)
    return interactions, n_bad, vocab, sequences, ctx_vocab, samples, model


def check_prepared(w, expected, out, check):
    interactions, n_bad, vocab, sequences, ctx_vocab, samples, model = out
    lengths = expected["history_lengths"]
    check(n_bad == 0, f"ingest skipped {n_bad} lines")
    check(len(interactions) == expected["rows_total"],
          f"ingest read {len(interactions)} rows, log has {expected['rows_total']}")
    check(sum(len(s) for s in sequences) == expected["rows_kept"], "5-core kept the wrong rows")
    check(len(sequences) == expected["users_kept"], "5-core kept the wrong number of users")
    check(vocab.n_items == expected["items_kept"], "5-core kept the wrong number of items")
    check(all(len(s) == lengths[workloads.user_index(s.user)] for s in sequences),
          "a kept history has the wrong length")
    check(len(samples) == expected["train_windows"], "wrong number of training windows")
    check(sum(len(items) for items, _, _ in samples) == expected["window_positions"],
          "training windows hold the wrong number of positions")
    most = 1 + (w.n_categories + 1) * w.n_categories * 24
    check(2 <= ctx_vocab.size <= most, f"context vocab of {ctx_vocab.size} rows")
    n_params = model.count_parameters()["total"]
    check(n_params == workloads.expected_params(w, ctx_vocab.size, workloads.table_sizes(w)),
          f"model has {n_params} parameters, closed form disagrees")
    return n_params, ctx_vocab.size


def run_prepare(job, w, ws, check):
    """``prepare_reps`` untraced repetitions, plus one traced when tracing."""
    tracer = Tracer() if job["trace"] else None
    times, n_params = [], set()
    for rep in range(w.prepare_reps + (tracer is not None)):
        traced = rep == w.prepare_reps
        gc.collect()
        with tracer.installed() if traced else nullcontext():
            t0 = time.perf_counter()
            out = call(tracer if traced else None, "prepare.rep", rep,
                       prepare_once, w, job["log"], job["seed"])
            times.append(time.perf_counter() - t0)
        count, n_contexts = check_prepared(w, job["expected"], out, check)
        n_params.add(count)
        if rep == 0:
            _, _, vocab, sequences, ctx_vocab, _, _ = out
            data.save_sequences(sequences, ws / "sequences.json")
            vocab.save(ws / "item_vocab.tsv")
            ctx_vocab.save(ws / "context_vocab.tsv")
        del out
    check(len(n_params) == 1, "model size changed between identical prepares")
    untraced = times[:w.prepare_reps]
    result = {"attempted": len(times), "failed": 0,
              "metrics": {"setup_s": statistics.median(untraced),
                          "prepare_peak_rss_mb": peak_rss_mb(),
                          "model_params": n_params.pop()},
              "notes": {"prepare_reps": len(times), "n_contexts": n_contexts,
                        "prepare_s": [round(t, 3) for t in times]}}
    if tracer:
        s = tracer.summary("prepare.rep")
        result["per_layer"] = {
            "data.ingest_ms": per_ms(s["data.ingest"]["total"], 1),
            "data.build_sequences_ms": per_ms(s["data.build_sequences"]["total"], 1),
            "data.context_vocab_ms": per_ms(s["data.context_vocab"]["total"], 1),
            "data.windows_ms": per_ms(s["data.windows"]["total"], 1),
            "trace.prepare_overhead_pct": overhead_pct(statistics.median(untraced), times[-1]),
        }
        tracer.write(job["trace_dir"] / "prepare.json")
    return result


# -- train -----------------------------------------------------------------

def training_set(w, sequences, ctx_vocab):
    """``train_samples`` windows spread evenly over all users' windows.

    Window lengths depend only on the history lengths, which are the same
    for every seed, so every seed trains on windows of the same lengths.
    """
    counts = np.array([max(len(seq) - 3, 0) for seq in sequences])
    ends = np.cumsum(counts)
    picks = ((np.arange(w.train_samples) + 0.5) * ends[-1] / w.train_samples).astype(np.int64)
    owners = np.searchsorted(ends, picks, side="right")
    samples = []
    for u in np.unique(owners):
        windows = data.generate_training_samples(sequences[u], ctx_vocab, w.max_len)
        offset = ends[u] - counts[u]
        samples.extend(windows[i - offset] for i in picks[owners == u])
    return samples


def probe_scores(model, sequences, ctx_vocab, n):
    rows = []
    for seq in sequences[:n]:
        items, ctxs, _ = data.eval_input(seq, ctx_vocab, model.config.max_len, "test")
        rows.append(model.forward_scores(items, ctxs).data[0])
    return np.stack(rows)


def train_reps(model, initial, samples, config, budget, tracer=None):
    """Whole ``train`` calls from the same initial state.

    Untraced, repetitions continue while the next one is expected to end
    within the budget (at least one); traced, exactly one runs. Returns the
    wall time and the per-epoch losses of each repetition, and the peak RSS
    after the first: the same work on every run, however many repetitions
    the budget then allows.
    """
    times, losses = [], []
    start = time.perf_counter()
    while True:
        model.load_snapshot(initial)
        gc.collect()
        t0 = time.perf_counter()
        result = call(tracer, "train.rep", len(times), training.train, model, samples, config)
        times.append(time.perf_counter() - t0)
        losses.append([row[1] for row in result.history])
        if len(times) == 1:
            rss_mb = peak_rss_mb()
        elapsed = time.perf_counter() - start
        if tracer is not None or elapsed * (1 + 1 / len(times)) > budget * 1.15:
            return times, losses, rss_mb


def run_train(job, w, ws, check):
    sequences, n_items, ctx_vocab = load_workspace(ws)
    samples = training_set(w, sequences, ctx_vocab)
    model = SequentialRecommender(model_config(w, n_items, ctx_vocab.size), seed=job["seed"])
    initial = model.state_snapshot()
    config = training.TrainConfig(batch_size=w.batch_size, epochs=EPOCHS, seed=SHUFFLE_SEED)
    batches = EPOCHS * math.ceil(len(samples) / w.batch_size)

    # The batch train() draws first, scored by the untrained model without L2.
    order = np.arange(len(samples))
    np.random.default_rng(SHUFFLE_SEED).shuffle(order)
    first = model.training_loss([samples[i] for i in order[:w.batch_size]], 0.0).item()
    check(abs(first - math.log(n_items)) <= FIRST_LOSS_TOL,
          f"first-batch loss {first:.4f} is not within {FIRST_LOSS_TOL} of ln|V|")

    # Warm-up: one whole untimed repetition, so the heap has grown to its
    # working size before the first timed one.
    _, losses, _ = train_reps(model, initial, samples, config, 0)
    tracer = Tracer() if job["trace"] else None
    budget = job["budget"]["train"] / (2 if tracer else 1)
    times, timed_losses, rss_mb = train_reps(model, initial, samples, config, budget)
    losses += timed_losses
    if tracer:
        with tracer.installed():
            t_times, t_losses, _ = train_reps(model, initial, samples, config, 0, tracer)
        losses += t_losses
    losses_first = losses[0]
    check(all(rep == losses_first for rep in losses),
          "identical training repetitions reported different losses")
    check(all(math.isfinite(x) for x in losses_first), f"non-finite training loss {losses_first}")
    check(losses_first[-1] < losses_first[0], f"training loss did not fall: {losses_first}")

    model.save(ws / "checkpoint.bin")
    np.save(ws / "probe.npy", probe_scores(model, sequences, ctx_vocab, N_PROBE))
    rates = [EPOCHS * len(samples) / t for t in times]
    result = {"attempted": batches * (len(losses) - 1), "failed": 0,
              "metrics": {"train_samples_per_s": statistics.median(rates),
                          "train_loss": statistics.fmean(losses_first),
                          "train_peak_rss_mb": rss_mb},
              "notes": {"train_reps": len(times), "rep_s": [round(t, 3) for t in times],
                        "first_batch_ce": round(first, 5), "ln_vocab": round(math.log(n_items), 5),
                        "epoch_losses": [round(x, 5) for x in losses_first]}}
    if tracer:
        s = tracer.summary("train.rep")
        n_seq = s["embedding.embed"]["calls"]
        result["per_layer"] = {
            "embedding.lookup_ms": per_ms(s["embedding.lookup"]["self"], n_seq),
            "embedding.fuse_ms": per_ms(s["embedding.fuse"]["self"], n_seq),
            "embedding.context_ms": per_ms(s["embedding.context"]["self"], n_seq),
            "encoder.conv_ms": per_ms(s["encoder.conv"]["self"], s["encoder.conv"]["calls"]),
            "encoder.attn_ms": per_ms(s["encoder.attn"]["self"], s["encoder.attn"]["calls"]),
            "model.head_ms": per_ms(s["model.forward"]["self"], s["model.forward"]["calls"]),
            "model.loss_ms": per_ms(s["model.training_loss"]["self"],
                                    s["model.training_loss"]["calls"]),
            "autodiff.backward_ms": per_ms(s["autodiff.backward"]["self"], batches),
            "autodiff.gc_ms": per_ms(gc_seconds(s), batches),
            "autodiff.gc_full_collections": s.get("gc.gen2", {"calls": 0})["calls"],
            "training.adam_ms": per_ms(s["training.adam"]["self"], s["training.adam"]["calls"]),
            "trace.train_overhead_pct": overhead_pct(statistics.median(times), t_times[0]),
        }
        tracer.write(job["trace_dir"] / "train.json")
    return result


# -- serve -----------------------------------------------------------------

def numpy_rank(scores, target):
    """1-based rank by a stable descending sort, lower index first on ties."""
    order = np.lexsort((np.arange(scores.size), -scores))
    return int(np.flatnonzero(order == target)[0]) + 1


def numpy_metrics(ranks, ks):
    ranks = np.asarray(ranks, dtype=np.float64)
    hr = {k: float(np.mean(ranks <= k)) for k in ks}
    ndcg = {k: float(np.mean(np.where(ranks <= k, 1.0 / np.log2(ranks + 1.0), 0.0)))
            for k in ks}
    return hr, ndcg


def check_report(report, chunk, n_items, check):
    ranks = report.ranks
    check(report.n_users == len(chunk), f"evaluate scored {report.n_users} of {len(chunk)} users")
    check(all(1 <= r <= n_items for r in ranks), "a rank outside 1..|V|")
    hr, ndcg = numpy_metrics(ranks, EVAL_KS)
    check(all(abs(hr[k] - report.hr[k]) <= 1e-12 and abs(ndcg[k] - report.ndcg[k]) <= 1e-12
              for k in EVAL_KS), "HR@K or nDCG@K disagrees with a numpy recomputation")
    check(all(report.hr[a] <= report.hr[b] for a, b in zip(EVAL_KS, EVAL_KS[1:])),
          "HR@K decreases as K grows")


def check_ranks_from_scores(model, chunk, report, ctx_vocab, check):
    for seq, rank in zip(chunk, report.ranks):
        items, ctxs, target = data.eval_input(seq, ctx_vocab, model.config.max_len, "test")
        scores = model.forward_scores(items, ctxs).data[0]
        check(np.isfinite(scores).all(), f"non-finite score for {seq.user}")
        check(numpy_rank(scores, target) == rank,
              f"rank {rank} for {seq.user} disagrees with a numpy sort of its scores")


def check_topk(top, scores, n_items, check):
    inside = np.asarray(top)
    ok = (len(top) == TOPK and len(set(top)) == TOPK
          and all(0 <= i < n_items for i in top))
    if not check(ok, f"top-k answer {top} is not {TOPK} distinct in-range items"):
        return
    check(np.isfinite(scores).all(), "non-finite top-k score")
    check(bool(np.all(np.diff(scores[inside]) <= 0)), "top-k scores increase down the list")
    outside = np.delete(scores, inside)
    check(outside.max() <= scores[inside].min(), "an item outside the top-k beats one inside")


def eval_loop(model, chunks, ctx_vocab, check, budget=None, n_chunks=None, tracer=None):
    """Evaluate whole passes over ``chunks`` until the budget is spent.

    With ``n_chunks`` exactly that many chunks run instead. Returns
    (pass, users, seconds) per evaluated chunk, users failed, chunks
    attempted and (chunk, report) for every evaluated chunk of the first
    pass.
    """
    timed, failed, i, first_pass = [], 0, 0, []
    start = time.perf_counter()
    while True:
        if n_chunks is not None:
            if i == n_chunks:
                break
        elif i and i % len(chunks) == 0 and time.perf_counter() - start >= budget:
            break
        chunk = chunks[i % len(chunks)]
        t0 = time.perf_counter()
        try:
            report = call(tracer, "eval.chunk", i, training.evaluate,
                          model, chunk, ctx_vocab, "test", ks=EVAL_KS)
        except Exception as e:  # a failed operation is counted, not fatal
            failed += len(chunk)
            print(f"serve: evaluate failed: {e!r}", file=sys.stderr)
        else:
            timed.append((i // len(chunks), report.n_users, time.perf_counter() - t0))
            check_report(report, chunk, model.config.vocab_size, check)
            if i < len(chunks):
                first_pass.append((chunk, report))
        i += 1
    return timed, failed, i, first_pass


def median_pass_rate(timed):
    """Median users/s over whole passes; a pass is the same users every time."""
    passes = {}
    for p, users, seconds in timed:
        total = passes.setdefault(p, [0, 0.0])
        total[0] += users
        total[1] += seconds
    return statistics.median(users / seconds for users, seconds in passes.values())


def topk_loop(model, inputs, check, budget=None, n_rounds=None, tracer=None):
    """A closed loop with one client: one predict_topk at a time, whole rounds.

    Untraced, rounds continue until the budget is spent and at least
    MIN_TOPK_REQUESTS were sent; otherwise exactly ``n_rounds`` run.
    """
    latencies, answers, failed, r = [], {}, 0, 0
    start = time.perf_counter()
    while True:
        if r % len(inputs) == 0 and r:
            if n_rounds is not None:
                if r // len(inputs) == n_rounds:
                    break
            elif time.perf_counter() - start >= budget and r >= MIN_TOPK_REQUESTS:
                break
        user, items, ctxs = inputs[r % len(inputs)]
        t0 = time.perf_counter()
        try:
            top = call(tracer, "topk.request", r, model.predict_topk, items, ctxs, TOPK)
        except Exception as e:  # a failed request is counted, not fatal
            failed += 1
            print(f"serve: predict_topk failed for {user}: {e!r}", file=sys.stderr)
        else:
            latencies.append(time.perf_counter() - t0)
            check(answers.setdefault(user, top) == top, f"top-k for {user} changed between requests")
        r += 1
    return latencies, failed, r, answers


def run_serve(job, w, ws, check):
    model = SequentialRecommender.load(ws / "checkpoint.bin")
    sequences, n_items, ctx_vocab = load_workspace(ws)
    check(model.config.vocab_size == n_items, "checkpoint vocabulary differs from the workspace")
    probe = probe_scores(model, sequences, ctx_vocab, N_PROBE)
    check(np.array_equal(probe, np.load(ws / "probe.npy")),
          "the loaded checkpoint scores differently from the trained model")
    tracer = Tracer() if job["trace"] else None
    share = 2 if tracer else 1
    per_layer = {}

    chunks = [sequences[i:i + w.eval_chunk] for i in range(0, w.eval_users, w.eval_chunk)]
    training.evaluate(model, chunks[0][:2], ctx_vocab, "test", ks=EVAL_KS)  # warm-up
    timed, failed, n_chunks, first_pass = eval_loop(model, chunks, ctx_vocab, check,
                                                    budget=job["budget"]["eval"] / share)
    for chunk, report in first_pass:  # untimed: every user of one pass
        check_ranks_from_scores(model, chunk, report, ctx_vocab, check)
    users = sum(n for _, n, _ in timed)
    attempted = users + failed
    if tracer:
        with tracer.installed():
            t_timed, t_failed, _, _ = eval_loop(model, chunks, ctx_vocab, check,
                                                n_chunks=n_chunks, tracer=tracer)
        s = tracer.summary("eval.chunk")
        t_users = sum(n for _, n, _ in t_timed)
        attempted += t_users + t_failed
        failed += t_failed
        per_layer["training.rank_ms"] = per_ms(s["training.rank"]["self"], s["training.rank"]["calls"])
        per_layer["autodiff.eval_gc_ms"] = per_ms(gc_seconds(s), t_users)
        per_layer["trace.eval_overhead_pct"] = overhead_pct(
            sum(t for _, _, t in timed) / users, sum(t for _, _, t in t_timed) / t_users)

    inputs = []
    for seq in sequences[:w.topk_round]:
        items, ctxs, _ = data.eval_input(seq, ctx_vocab, w.max_len, "test")
        inputs.append((seq.user, items, ctxs))
    for _, items, ctxs in inputs[:10]:  # warm-up
        model.predict_topk(items, ctxs, TOPK)
    latencies, k_failed, requests, answers = topk_loop(model, inputs, check,
                                                       budget=job["budget"]["topk"] / share)
    failed += k_failed
    attempted += requests
    for user, items, ctxs in inputs:
        if user in answers:
            check_topk(answers[user], model.forward_scores(items, ctxs).data[0], n_items, check)
    if tracer:
        with tracer.installed():
            t_lat, t_failed, t_requests, _ = topk_loop(
                model, inputs, check, n_rounds=requests // len(inputs), tracer=tracer)
        attempted += t_requests
        failed += t_failed
        s = tracer.summary("topk.request")
        n_req = s["model.predict_topk"]["calls"]
        per_layer["serve.forward_ms"] = per_ms(s["model.forward_scores"]["total"], n_req)
        per_layer["serve.select_ms"] = per_ms(s["model.predict_topk"]["self"], n_req)
        per_layer["trace.topk_overhead_pct"] = overhead_pct(sum(latencies), sum(t_lat))
        tracer.write(job["trace_dir"] / "serve.json")

    lat_ms = np.asarray(latencies) * 1000.0
    result = {"attempted": attempted, "failed": failed,
              "metrics": {"eval_users_per_s": median_pass_rate(timed),
                          "topk_p50_ms": float(np.percentile(lat_ms, 50)),
                          "topk_p95_ms": float(np.percentile(lat_ms, 95)),
                          "serve_peak_rss_mb": peak_rss_mb()},
              "notes": {"eval_users": users, "eval_passes": len({p for p, _, _ in timed}),
                        "topk_requests": len(latencies)}}
    if per_layer:
        result["per_layer"] = per_layer
    return result


PHASES = {"prepare": run_prepare, "train": run_train, "serve": run_serve}


def main(argv):
    phase, job_path, result_path = argv
    with open(job_path, encoding="utf-8") as f:
        job = json.load(f)
    w = workloads.Workload(**job["workload"])
    job["trace_dir"] = Path(job["trace_dir"])
    check = Checks()
    result = PHASES[phase](job, w, Path(job["workspace"]), check)
    result["failures"] = check.failures
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
