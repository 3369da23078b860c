"""Interaction-log ingestion, 5-core filtering, leave-one-out splits and windows.

Input is a UTF-8 tab-separated log with columns ``user item category
timestamp`` (unix seconds), optional header. The parser numbers each
column's ids once; every later step, and the sequence store, works on
integer arrays. Users and items with fewer than five interactions are
discarded iteratively until a fixed point, one stable sort orders each
user's interactions chronologically (file order breaks ties), and the last
two items per user are held out. A window is a slice of a user's history
whose first position has PAD_CATEGORY as its previous category. Its items
are a view of the history; its context ids are a view of one read-only
array per history when it starts at position 0, where that is the true
previous category, and a copy otherwise.

The sequences and the item vocabulary are stored as ``.npz`` column archives
(``atomic.read_columns``) whose string columns drop trailing NULs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .atomic import atomic_write, read_columns
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
    """Raw item and category ids by index (deterministic)."""
    items: np.ndarray          # (n_items,) str: raw id of global item index k
    categories: np.ndarray     # (n_categories,) str: raw name of category index k at k - 1
    item_category: np.ndarray  # (n_items,) int64: each item's category index, from 1

    @property
    def n_items(self):
        return len(self.items)

    @property
    def n_categories(self):
        return len(self.categories)

    def save(self, path):
        """An uncompressed ``.npz`` archive of the three columns."""
        with atomic_write(path, binary=True) as f:
            np.savez(f, **vars(self))

    @classmethod
    def load(cls, path):
        """Read an archive ``save`` wrote, checking every column at once."""
        dtypes = {"items": str, "categories": str, "item_category": np.int64}
        return cls(*read_columns(path, "an item vocabulary", dtypes, _is_item_vocab))


def _is_item_vocab(items, categories, item_category):
    """Distinct items and category names, one category per item, and categories numbered
    1.. by first appearance among the items, each name used."""
    _, first = np.unique(item_category, return_index=True)
    return (len(items) == len(item_category) == len(np.unique(items))
            and len(categories) == len(np.unique(categories))
            and np.array_equal(item_category[np.sort(first)], np.arange(1, len(categories) + 1)))


@dataclass
class UserSequence:
    user: str
    items: np.ndarray  # (n,) int64 global item indices, chronological
    cats: np.ndarray   # (n,) int64 category index per position
    hours: np.ndarray  # (n,) int64 hour of day per position

    def __len__(self):
        return len(self.items)


def _cut(users, offsets, items, cats, hours):
    """One UserSequence per user, its columns views of the flat ones."""
    return [UserSequence(user, items[lo:hi], cats[lo:hi], hours[lo:hi])
            for user, lo, hi in zip(users, offsets[:-1].tolist(), offsets[1:].tolist())]


def ingest(path):
    """Parse the interaction log; returns (Log, n_malformed).

    Malformed lines are counted and skipped; more than 1% malformed lines
    aborts with samples of the offenders. A line may not hold a NUL: the
    workspace archives keep user, item and category ids in fixed-width
    string columns, which drop trailing NULs.
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
            if "\0" in line or len(parts) != 4 or not all(p.strip() for p in parts[:3]):
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
    offsets = np.r_[0, np.cumsum(np.bincount(user_order))]
    rows = rows[np.lexsort((log.timestamps[rows], user_order))]  # stable: ties keep file order
    item_of, item_first = _first_seen(items[rows])
    first = rows[item_first]  # each item's first row, in item order
    cat_of, cat_item = _first_seen(cats[first])
    item_cat = cat_of + 1  # 0 = PAD
    vocab = ItemVocab(np.array(log.names[1])[items[first]],
                      np.array(log.names[2])[cats[first[cat_item]]], item_cat)
    names = [log.names[0][u] for u in users[rows[offsets[:-1]]].tolist()]
    return vocab, _cut(names, offsets, item_of, item_cat[item_of], log.timestamps[rows] // 3600 % 24)


def split_leave_one_out(seq):
    """(train length, validation position, test position) for one user.

    Train items are everything before the second-last; returns None for
    sequences shorter than 3 (the caller should skip them with a warning).
    """
    n = len(seq)
    return (n - 2, n - 2, n - 1) if n >= 3 else None


def build_context_vocab(sequences):
    """Number every triplet a training window can produce, 1.. by first registration.

    Each training position registers its PAD-previous variant (used when a
    window starts there) and then its true-previous triplet. Triplets are
    numbered as integer keys ``(prev * radix + cur) * 24 + hour`` over all
    training positions at once; only the distinct keys are decoded.
    """
    lengths = np.array([len(s) for s in sequences], dtype=np.int64)
    if not lengths.sum():
        return ContextVocab()
    cats, hours = (np.concatenate([getattr(s, key) for s in sequences]) for key in ("cats", "hours"))
    bad = (cats < 1) | (hours < 0) | (hours > 23)
    if bad.any():  # else one triplet's key would be another's
        user = sequences[np.searchsorted(np.cumsum(lengths), bad.argmax(), side="right")].user
        raise ValueError(f"user {user!r} needs categories from 1, hours 0..23 for its contexts")
    radix = int(cats.max()) + 1
    if radix ** 2 * 24 > np.iinfo(np.int64).max:
        raise ValueError(f"category {radix - 1} is too large for an int64 context key")
    pos = np.arange(len(cats)) - np.repeat(np.cumsum(lengths) - lengths, lengths)  # in its history
    n_train = np.maximum(lengths - 2, 0)  # split_leave_one_out's train length, 0 for None
    rows = np.flatnonzero(pos < np.repeat(n_train, lengths))
    cur = cats[rows] * 24 + hours[rows]
    keys = np.empty(2 * len(rows), dtype=np.int64)
    keys[0::2] = PAD_CATEGORY * radix * 24 + cur
    keys[1::2] = np.where(pos[rows] > 0, cats[rows - 1], PAD_CATEGORY) * radix * 24 + cur
    distinct, first = np.unique(keys, return_index=True)
    keys = distinct[np.argsort(first)]
    triplets = zip(*(a.tolist() for a in (keys // 24 // radix, keys // 24 % radix, keys % 24)))
    return ContextVocab(dict(zip(triplets, range(1, len(keys) + 1))))


def _windows(seq, ctx_vocab, max_len, ends):
    """(items, contexts, target) for the window before each position in range ``ends``.

    Items are views of the history. The true-previous context ids of the windows' span are
    looked up once, into one read-only array. A window that starts at position 0, where the
    PAD-previous triplet is the true one, takes a view of that array; a later window takes a
    copy whose first id is its start's PAD-previous context.
    """
    lo, hi = max(0, ends.start - max_len), ends.stop - 1
    cats, hours = seq.cats[lo:hi].tolist(), seq.hours[lo:hi].tolist()
    prev = seq.cats[lo - 1:hi - 1].tolist() if lo else [PAD_CATEGORY, *cats[:-1]]
    true = ctx_vocab.lookup(prev, cats, hours)
    true.flags.writeable = False
    targets = seq.items[ends.start:ends.stop].tolist()
    n_early = max(0, min(ends.stop, max_len + 1) - ends.start)  # windows that start at 0 (lo is 0)
    out = [(seq.items[:end], true[:end], target) for end, target in zip(ends[:n_early], targets)]
    late = ends[n_early:]
    if late:
        starts = slice(late.start - max_len - lo, late.stop - max_len - lo)
        pad = ctx_vocab.lookup(repeat(PAD_CATEGORY), cats[starts], hours[starts]).tolist()
        for end, target, first in zip(late, targets[n_early:], pad):
            ctxs = true[end - max_len - lo:end - lo].copy()
            ctxs[0] = first
            out.append((seq.items[end - max_len:end], ctxs, target))
    return out


def generate_training_samples(seq, ctx_vocab, max_len):
    """One sample per prefix: input v_1..v_t (last max_len), target v_{t+1}."""
    split = split_leave_one_out(seq)
    return _windows(seq, ctx_vocab, max_len, range(1, split[0])) if split else []


def eval_input(seq, ctx_vocab, max_len, split):
    """(input items, input contexts, held-out target) for split "val" or "test"."""
    if split not in ("val", "test"):
        raise ValueError(f"split must be 'val' or 'test', got {split!r}")
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
    """An uncompressed ``.npz`` archive of user names, history offsets and the histories."""
    with atomic_write(path, binary=True) as f:
        np.savez(f, users=[s.user for s in sequences],
                 offsets=np.cumsum([0, *map(len, sequences)], dtype=np.int64),
                 **{key: np.concatenate([getattr(s, key) for s in sequences], dtype=np.int64)
                    for key in ("items", "cats", "hours")})


def load_sequences(path):
    """Read an archive ``save_sequences`` wrote, checking every column at once."""
    users, offsets, items, cats, hours = read_columns(
        path, "a sequence archive",
        {"users": str, **dict.fromkeys(("offsets", "items", "cats", "hours"), np.int64)},
        lambda users, offsets, items, cats, hours: (
            len(offsets) == len(users) + 1 and offsets[0] == 0 and (np.diff(offsets) >= 0).all()
            and offsets[-1] == len(items) == len(cats) == len(hours)))
    bad = (items < 0) | (cats < 1) | (hours < 0) | (hours > 23)
    if bad.any():
        user = str(users[np.searchsorted(offsets, bad.argmax(), side="right") - 1])
        raise ValueError(f"{path}: user {user!r} needs items from 0, categories from 1, hours 0..23")
    return _cut(users.tolist(), offsets, items, cats, hours)
