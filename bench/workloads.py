"""Workload definitions and the seeded synthetic interaction-log generator.

Every workload fixes its structure without a seed: the number of users and
items that survive 5-core filtering and each kept user's history length.
The seed only decides the content: which item sits in which slot, item
categories, timestamps and where the noise rows go. So two seeds give logs
of the same shape, and timing differences between seeds come from the
program, not from a different amount of work.

The generator also plants rows that 5-core filtering must drop, and
returns the counts the filter must keep, so the prepare phase can check
the program's filter against numbers made apart from it:

- rare items (1-4 rows each), dropped on the first item pass;
- short users (1-4 rows each), dropped on the first user pass;
- cascade items: 5 rows, one of them in a cascade user that holds a rare
  item. The first pass keeps the item (5 rows) but drops the user (4 rows
  left), so the item falls to 4 rows and is only dropped on the second
  pass. This exercises the filter's iteration to a fixed point.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

HEADER = "user\titem\tcategory\ttimestamp\n"
START_TS = 1_600_000_000


@dataclass(frozen=True)
class Workload:
    name: str
    n_items: int          # items kept by 5-core
    n_users: int          # users kept by 5-core
    hist_min: int         # shortest kept history
    hist_max: int         # longest kept history
    hist_skew: float      # >1 pushes the length schedule toward hist_min
    n_categories: int
    dim: int
    heads: int
    kernel_size: int
    max_len: int
    batch_size: int
    train_samples: int    # fixed training set, spread evenly over all windows
    prepare_reps: int     # prepare repetitions per run; setup_s is their median
    eval_users: int       # users in one evaluation pass
    eval_chunk: int       # users per training.evaluate call
    topk_round: int       # distinct users cycled through by the top-k client
    eval_share: float = 0.3  # share of --seconds given to the evaluation window

    def history_lengths(self):
        """Kept history length per user; the same for every seed.

        A golden-ratio sequence spreads the users evenly over
        [hist_min, hist_max]; ``hist_skew`` bends it toward short histories.
        """
        q = (np.arange(self.n_users) * 0.6180339887498949) % 1.0
        span = self.hist_max - self.hist_min
        return (self.hist_min + np.floor(span * q ** self.hist_skew + 0.5)).astype(np.int64)


WORKLOADS = {
    # The reference workload: embedding, encoder and output layer each take
    # a comparable share of a step.
    "baseline": Workload(
        name="baseline", n_items=5000, n_users=2500, hist_min=5, hist_max=60,
        hist_skew=1.6, n_categories=8, dim=64, heads=2, kernel_size=5,
        max_len=50, batch_size=32, train_samples=128,
        prepare_reps=3, eval_users=512, eval_chunk=32, topk_round=50),
    # The output layer, its per-sample (D, |V|) gradients, Adam over out.w,
    # full ranking and the 5-core passes dominate; the encoder idles. A pass
    # of 48 users takes about a second, so evaluation gets a longer window:
    # about ten passes, whose median is steadier than five passes'.
    "large-catalog": Workload(
        name="large-catalog", n_items=100_000, n_users=57_000, hist_min=5,
        hist_max=20, hist_skew=2.2, n_categories=8, dim=64, heads=2,
        kernel_size=5, max_len=20, batch_size=8, train_samples=16,
        prepare_reps=1, eval_users=48, eval_chunk=16, topk_round=50,
        eval_share=0.6),
    # Attention (T^2), the conv taps (T*L) and window building dominate.
    "long-history": Workload(
        name="long-history", n_items=2000, n_users=200, hist_min=100,
        hist_max=400, hist_skew=1.5, n_categories=8, dim=64, heads=2,
        kernel_size=5, max_len=200, batch_size=32, train_samples=128,
        prepare_reps=2, eval_users=200, eval_chunk=8, topk_round=50),
    # Tiny sizes for the smoke run only; not listed in BENCHMARK.json.
    "smoke": Workload(
        name="smoke", n_items=120, n_users=60, hist_min=5, hist_max=20,
        hist_skew=1.0, n_categories=3, dim=8, heads=1, kernel_size=3,
        max_len=10, batch_size=8, train_samples=32,
        prepare_reps=2, eval_users=16, eval_chunk=8, topk_round=10),
}


def user_index(name):
    return int(name[1:])


def generate(workload, seed, path):
    """Write a seeded log for ``workload`` to ``path``; return expected counts."""
    w = workload
    rng = np.random.default_rng([seed, zlib.crc32(w.name.encode())])
    lengths = w.history_lengths()
    n_real_rows = int(lengths.sum())
    if n_real_rows < 5 * w.n_items:
        raise ValueError(f"{w.name}: {n_real_rows} rows cannot give {w.n_items} items 5 each")

    # Item slots: every item five times, the rest by a Zipf-like popularity.
    popularity = 1.0 / np.arange(1, w.n_items + 1) ** 0.8
    popular = rng.permutation(w.n_items)
    extra = popular[rng.choice(w.n_items, size=n_real_rows - 5 * w.n_items,
                               p=popularity / popularity.sum())]
    slots = rng.permutation(np.concatenate([np.repeat(np.arange(w.n_items), 5), extra]))

    # Real users: increasing timestamps, gaps from ten minutes to three days.
    owners = np.repeat(np.arange(w.n_users), lengths)
    gaps = rng.integers(600, 3 * 86_400, size=n_real_rows)
    starts = START_TS + rng.integers(0, 180 * 86_400, size=w.n_users)
    first = np.concatenate([[0], np.cumsum(lengths)[:-1]])
    gaps[first] = 0
    ts = np.cumsum(gaps)
    ts = ts - np.repeat(ts[first], lengths) + np.repeat(starts, lengths)
    span_end = ts[np.cumsum(lengths) - 1]

    users = [owners]
    items = [slots]
    times = [ts]
    next_item = w.n_items
    next_user = w.n_users

    def at_random_real_users(n):
        who = rng.integers(0, w.n_users, size=n)
        when = starts[who] + (rng.random(n) * (span_end[who] - starts[who])).astype(np.int64)
        return who, when

    # Rare items: 1-4 rows each at real users.
    n_rare = max(4, w.n_items // 50)
    rare_counts = rng.integers(1, 5, size=n_rare)
    who, when = at_random_real_users(int(rare_counts.sum()))
    users.append(who)
    items.append(np.repeat(np.arange(next_item, next_item + n_rare), rare_counts))
    times.append(when)
    next_item += n_rare

    # Short users: 1-4 rows each of real items.
    n_short = max(4, w.n_users // 20)
    short_counts = rng.integers(1, 5, size=n_short)
    n = int(short_counts.sum())
    users.append(np.repeat(np.arange(next_user, next_user + n_short), short_counts))
    items.append(rng.integers(0, w.n_items, size=n))
    times.append(START_TS + rng.integers(0, 180 * 86_400, size=n))
    next_user += n_short

    # Cascades: item X has 4 rows at real users and 1 at cascade user C;
    # C also holds a one-row item and 3 real items.
    n_cascade = max(2, w.n_items // 500)
    for _ in range(n_cascade):
        x, rare, c = next_item, next_item + 1, next_user
        next_item += 2
        next_user += 1
        who, when = at_random_real_users(4)
        users += [who, np.full(5, c)]
        items += [np.full(4, x), np.array([x, rare, *rng.integers(0, w.n_items, size=3)])]
        c_ts = START_TS + np.sort(rng.integers(0, 180 * 86_400, size=5))
        times += [when, c_ts]

    users = np.concatenate(users)
    items = np.concatenate(items)
    times = np.concatenate(times)
    order = rng.permutation(users.size)
    item_ids = rng.permutation(next_item)  # raw ids carry no structure
    categories = rng.integers(1, w.n_categories + 1, size=next_item)
    lines = [f"u{u}\ti{item_ids[i]}\tc{categories[i]}\t{t}\n"
             for u, i, t in zip(users[order].tolist(), items[order].tolist(),
                                times[order].tolist())]
    with open(path, "w", encoding="utf-8") as f:
        f.write(HEADER)
        f.writelines(lines)
    return {
        "rows_total": int(users.size),
        "rows_kept": n_real_rows,
        "users_kept": w.n_users,
        "items_kept": w.n_items,
        # one sample per training prefix: a history of L gives L - 3
        "train_windows": int((lengths - 3).sum()),
        "window_positions": int(sum(np.minimum(np.arange(1, n - 2), w.max_len).sum()
                                    for n in lengths.tolist())),
        "history_lengths": lengths.tolist(),
    }


def expected_params(w, n_contexts, table_sizes):
    """Closed-form parameter count of one layer of the ``full`` variant."""
    d, h, length, v = w.dim, w.heads, w.kernel_size, w.n_items
    return (sum(table_sizes) * d + n_contexts * d + 3 * d * d + d
            + h * (length * d + 3 * d * d) + w.max_len * d
            + (2 * h * d) ** 2 + 2 * h * d + 2 * h * d * d + d
            + d * v + v)


def table_sizes(w):
    """Base-table sizes of the quotient-remainder split at the model's
    defaults (two tables, m1 = 2): [2, ceil(|V| / 2)]."""
    return [2, math.ceil(w.n_items / 2)]
