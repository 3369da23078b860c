"""Interaction-log ingestion, 5-core filtering, leave-one-out splits and windows.

Input is a UTF-8 tab-separated log with columns ``user item category
timestamp`` (unix seconds), optional header. The parser numbers each
column's ids once; every later step works on integer arrays. Users and
items with fewer than five interactions are discarded iteratively until a
fixed point, one stable sort orders each user's interactions
chronologically (file order breaks ties), and the last two items per user
are held out. A window is a slice of a user's history whose first
position has PAD_CATEGORY as its previous category.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .atomic import atomic_write
from .embedding import ContextVocab, PAD_CATEGORY

MIN_INTERACTIONS = 5


class IngestionError(ValueError):
    pass


@dataclass
class Log:
    """A parsed log as integer columns; each column numbers its ids by first appearance."""
    codes: np.ndarray       # (n, 3) int64: user, item and category code per row
    names: tuple            # three lists: code -> raw id
    timestamps: np.ndarray  # (n,) int64 unix seconds

    def __len__(self):
        return len(self.timestamps)


@dataclass
class ItemVocab:
    """Item and category indexing by first appearance (deterministic)."""
    item_index: dict = field(default_factory=dict)      # raw item -> 0-based global index
    category_index: dict = field(default_factory=dict)  # raw category -> 1-based index
    item_category: list = field(default_factory=list)   # global index -> category index

    @property
    def n_items(self):
        return len(self.item_index)

    @property
    def n_categories(self):
        return len(self.category_index)

    def save(self, path):
        """One row per item: raw item, index, category index, raw category."""
        inverse = {v: k for k, v in self.item_index.items()}
        names = {v: k for k, v in self.category_index.items()}
        with atomic_write(path) as f:
            for idx in range(len(inverse)):
                cat = self.item_category[idx]
                f.write(f"{inverse[idx]}\t{idx}\t{cat}\t{names[cat]}\n")

    @classmethod
    def load(cls, path):
        """Read a file ``save`` wrote: distinct items numbered 0.. in file order, and one
        number per category name, new names numbered 1.. in file order."""
        vocab = cls()
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, start=1):
                if not line.strip():
                    continue
                fields = line.rstrip("\n").split("\t")
                if len(fields) != 4:
                    raise ValueError(f"{path}: line {lineno} has {len(fields)} fields, "
                                     f"expected 4; run prepare-data again")
                raw, idx, cat, name = fields
                try:
                    idx, cat = int(idx), int(cat)
                except ValueError:
                    raise ValueError(f"{path}: line {lineno} has a non-integer index or "
                                     f"category; run prepare-data again") from None
                if (idx != vocab.n_items or raw in vocab.item_index
                        or cat != vocab.category_index.get(name, vocab.n_categories + 1)):
                    raise ValueError(f"{path}: line {lineno} gives item {raw!r} index {idx} and "
                                     f"category {cat} ({name!r}); indices must number distinct "
                                     f"items 0.. and categories 1.. in file order, one number "
                                     f"per category; run prepare-data again")
                vocab.item_index[raw] = idx
                vocab.item_category.append(cat)
                vocab.category_index[name] = cat
        return vocab


@dataclass
class UserSequence:
    user: str
    items: list   # global item indices, chronological
    cats: list    # category index per position
    hours: list   # hour of day per position

    def __len__(self):
        return len(self.items)


def ingest(path):
    """Parse the interaction log; returns (Log, n_malformed).

    Malformed lines are counted and skipped; more than 1% malformed lines
    aborts with samples of the offenders.
    """
    users, items, cats = index = ({}, {}, {})
    codes, stamps = [], []
    bad = []
    n_lines = 0
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            if lineno == 1 and line.lower().startswith("user\t"):
                continue
            n_lines += 1
            parts = line.split("\t")
            if len(parts) != 4 or not all(p.strip() for p in parts[:3]):
                bad.append((lineno, line))
                continue
            user, item, category, ts = parts
            try:
                timestamp = int(ts)
            except ValueError:
                bad.append((lineno, line))
                continue
            if not 0 <= timestamp < 2**63:  # sorted as int64
                bad.append((lineno, line))
                continue
            codes += (users.setdefault(user, len(users)), items.setdefault(item, len(items)),
                      cats.setdefault(category, len(cats)))
            stamps.append(timestamp)
    if n_lines and len(bad) / n_lines > 0.01:
        samples = "; ".join(f"line {ln}: {txt!r}" for ln, txt in bad[:5])
        raise IngestionError(f"{len(bad)}/{n_lines} malformed lines in {path}: {samples}")
    return Log(np.array(codes, dtype=np.int64).reshape(-1, 3), tuple(map(list, index)),
               np.array(stamps, dtype=np.int64)), len(bad)


def _five_core(users, items):
    """Iteratively drop items then users with < MIN_INTERACTIONS, to a fixed point.

    Returns the kept row numbers in file order.
    """
    keep = np.ones(len(users), dtype=bool)
    while True:
        n_kept = np.count_nonzero(keep)
        for codes in (items, users):
            keep &= np.bincount(codes[keep], minlength=len(codes))[codes] >= MIN_INTERACTIONS
        if np.count_nonzero(keep) == n_kept:
            return np.flatnonzero(keep)


def _first_seen(codes):
    """Each element's index by first appearance of its code, and where each index first appears."""
    _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return np.argsort(order)[inverse], first[order]


def build_sequences(log):
    """5-core filter, per-user chronological ordering, vocab assignment.

    Returns (ItemVocab, list of UserSequence). Users and, within a user,
    timestamp ties keep file order; item indices follow first appearance in
    the filtered, ordered stream, and an item's category is the one on its
    first row there. Categories are numbered 1.. among items, in item order.
    """
    if not len(log):
        raise ValueError("no interactions to process")
    users, items, cats = log.codes.T
    rows = _five_core(users, items)
    if not rows.size:
        raise ValueError("all interactions removed by 5-core filtering")
    user_order, _ = _first_seen(users[rows])
    rows = rows[np.lexsort((log.timestamps[rows], user_order))]  # stable: ties keep file order
    item_of, item_first = _first_seen(items[rows])
    first = rows[item_first]  # each item's first row, in item order
    cat_of, cat_item = _first_seen(cats[first])
    item_cat = cat_of + 1  # 0 = PAD
    vocab = ItemVocab({log.names[1][c]: k for k, c in enumerate(items[first].tolist())},
                      {log.names[2][c]: k for k, c in enumerate(cats[first[cat_item]].tolist(), 1)},
                      item_cat.tolist())
    seq_items, seq_cats = item_of.tolist(), item_cat[item_of].tolist()
    hours = (log.timestamps[rows] // 3600 % 24).tolist()
    grouped = users[rows]
    bounds = [0, *(np.flatnonzero(grouped[1:] != grouped[:-1]) + 1).tolist(), len(rows)]
    return vocab, [UserSequence(log.names[0][grouped[lo]], seq_items[lo:hi], seq_cats[lo:hi],
                                hours[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])]


def split_leave_one_out(seq):
    """(train length, validation position, test position) for one user.

    Train items are everything before the second-last; returns None for
    sequences shorter than 3 (the caller should skip them with a warning).
    """
    if len(seq) < 3:
        return None
    return len(seq) - 2, len(seq) - 2, len(seq) - 1


def _contexts(seq, lo, hi):
    """(PAD-previous, true-previous) context triplets of positions lo..hi-1.

    A window's first position sees PAD_CATEGORY as its previous category;
    position 0 has no other, so its two variants are equal.
    """
    cats, hours = seq.cats[lo:hi], seq.hours[lo:hi]
    prev = seq.cats[lo - 1:hi - 1] if lo else [PAD_CATEGORY, *cats[:-1]]
    return (list(zip([PAD_CATEGORY] * len(cats), cats, hours)),
            list(zip(prev, cats, hours)))


def build_context_vocab(sequences):
    """Number every triplet a training window can produce, 1.. by first registration.

    Each training position registers its PAD-previous variant (used when a
    window starts there) and then its true-previous triplet.
    """
    def registered(seq):
        split = split_leave_one_out(seq)
        return chain.from_iterable(zip(*_contexts(seq, 0, split[0] if split else 0)))
    order = dict.fromkeys(chain.from_iterable(map(registered, sequences)))
    return ContextVocab({triplet: i for i, triplet in enumerate(order, start=1)})


def _windows(seq, ctx_vocab, max_len, ends):
    """(items, contexts, target) for the window before each position in range ``ends``.

    Converts only the span the windows cover and looks up each position's
    context once; a window's first position takes its PAD-previous context.
    """
    lo, hi = max(0, ends.start - max_len), ends.stop - 1
    items = np.array(seq.items[lo:hi], dtype=np.int64)
    pad, true = _contexts(seq, lo, hi)
    true = np.fromiter(map(ctx_vocab.lookup, true), dtype=np.int64, count=len(true))
    out = []
    for end in ends:
        start = max(0, end - max_len) - lo
        ctxs = true[start:end - lo].copy()
        ctxs[0] = ctx_vocab.lookup(pad[start])
        out.append((items[start:end - lo].copy(), ctxs, seq.items[end]))
    return out


def generate_training_samples(seq, ctx_vocab, max_len):
    """One sample per prefix: input v_1..v_t (last max_len), target v_{t+1}."""
    split = split_leave_one_out(seq)
    return _windows(seq, ctx_vocab, max_len, range(1, split[0])) if split else []


def eval_input(seq, ctx_vocab, max_len, split):
    """(input items, input contexts, held-out target) for val or test."""
    marks = split_leave_one_out(seq)
    if marks is None:
        return None
    end = marks[1] if split == "val" else marks[2]
    return _windows(seq, ctx_vocab, max_len, range(end, end + 1))[0]


def dataset_stats(vocab, sequences):
    """Summary mirroring the usual users/items/interactions/sparsity columns."""
    n_users = len(sequences)
    n_items = vocab.n_items
    n_inter = sum(len(s) for s in sequences)
    return {
        "n_users": n_users,
        "n_items": n_items,
        "n_categories": vocab.n_categories,
        "n_interactions": n_inter,
        "avg_interactions_per_user": n_inter / n_users if n_users else 0.0,
        "avg_interactions_per_item": n_inter / n_items if n_items else 0.0,
        "sparsity": 1.0 - n_inter / (n_users * n_items) if n_users and n_items else 0.0,
    }


def save_sequences(sequences, path):
    doc = [{"user": s.user, "items": s.items, "cats": s.cats, "hours": s.hours}
           for s in sequences]
    with atomic_write(path) as f:
        json.dump(doc, f, sort_keys=True, separators=(",", ":"))


def load_sequences(path):
    """Read a file ``save_sequences`` wrote, checking each record as it is built."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, list):
        raise ValueError(f"{path}: expected a list of user records")
    sequences = []
    for k, d in enumerate(doc):
        if not isinstance(d, dict) or not isinstance(d.get("user"), str):
            raise ValueError(f"{path}: record {k} has no string user")
        user, columns = d["user"], [d.get(key) for key in ("items", "cats", "hours")]
        if not all(isinstance(c, list) and all(type(x) is int for x in c) for c in columns):
            raise ValueError(f"{path}: user {user!r} needs items, cats and hours lists of integers")
        items, cats, hours = columns
        if not len(items) == len(cats) == len(hours):
            raise ValueError(f"{path}: user {user!r} has items, cats and hours of different lengths")
        if items and (min(items) < 0 or min(cats) < 1 or min(hours) < 0 or max(hours) > 23):
            raise ValueError(f"{path}: user {user!r} needs items from 0, categories from 1 "
                             f"and hours in 0..23")
        sequences.append(UserSequence(user, items, cats, hours))
    return sequences
