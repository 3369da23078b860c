import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinrec.data import (IngestionError, build_context_vocab,
                          build_sequences, dataset_stats, eval_input,
                          generate_training_samples, ingest, load_sequences,
                          save_sequences, split_leave_one_out, ItemVocab,
                          UserSequence)
from twinrec.embedding import PAD_CATEGORY, UNK_CONTEXT


def write_tsv(path, rows):
    with open(path, "w", encoding="utf-8") as f:
        for row in rows:
            f.write("\t".join(str(c) for c in row) + "\n")


def parse(rows):
    """Write (user, item, category, timestamp) rows to a temporary TSV and ingest it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "log.tsv")
        write_tsv(path, rows)
        log, bad = ingest(path)
    assert bad == 0
    return log


def dense_log(n_users=4, n_items=6, reps=2):
    """Every user interacts with every item ``reps`` times: nothing filtered."""
    rows = []
    ts = 1000
    for u in range(n_users):
        for r in range(reps):
            for i in range(n_items):
                rows.append((f"u{u}", f"i{i}", f"c{i % 2}", ts))
                ts += 3600
    return rows


def brute_five_core(rows):
    """Dict-counting 5-core: drop items, then users, with < 5 rows until stable."""
    cur = list(rows)
    while True:
        ic = {}
        for _, item, _, _ in cur:
            ic[item] = ic.get(item, 0) + 1
        nxt = [r for r in cur if ic[r[1]] >= 5]
        uc = {}
        for user, _, _, _ in nxt:
            uc[user] = uc.get(user, 0) + 1
        nxt = [r for r in nxt if uc[r[0]] >= 5]
        if len(nxt) == len(cur):
            return cur
        cur = nxt


def naive_sequences(rows):
    """Oracle for build_sequences: per-user lists, sorted with Python's sort."""
    by_user = {}
    for pos, (user, item, category, ts) in enumerate(brute_five_core(rows)):
        by_user.setdefault(user, []).append((ts, pos, item, category))
    item_index, item_cat, cat_index = {}, {}, {}
    out = []
    for user, user_rows in by_user.items():
        items, cats, hours = [], [], []
        for ts, _, item, category in sorted(user_rows, key=lambda t: (t[0], t[1])):
            if item not in item_index:
                item_index[item] = len(item_index)
                item_cat[item] = cat_index.setdefault(category, len(cat_index) + 1)
            items.append(item_index[item])
            cats.append(item_cat[item])
            hours.append((ts // 3600) % 24)
        out.append((user, items, cats, hours))
    return item_index, cat_index, out


def naive_window(seq, ctx_vocab, lo, end):
    """Oracle window: items lo..end-1, contexts with PAD before position lo."""
    triplets = [(PAD_CATEGORY if i == lo else seq.cats[i - 1], seq.cats[i], seq.hours[i])
                for i in range(lo, end)]
    return (np.array(seq.items[lo:end], dtype=np.int64),
            np.array([ctx_vocab.index.get(t, UNK_CONTEXT) for t in triplets], dtype=np.int64),
            seq.items[end])


def assert_same_window(got, want):
    for g, w in zip(got[:2], want[:2]):
        assert g.dtype == np.int64
        np.testing.assert_array_equal(g, w)
    assert got[2] == want[2]


@st.composite
def logs(draw):
    """Shuffled (user, item, category, timestamp) rows: a block of users x items
    that may survive 5-core, plus noise rows (rare items, short users), with
    many timestamp ties and items seen under several categories."""
    stamps = st.sampled_from([0, 60, 3600, 7200, 86399, 90000])
    n_users, n_items, reps = draw(st.integers(1, 4)), draw(st.integers(1, 5)), draw(st.integers(1, 3))
    rows = [(u, i, draw(st.integers(0, 2)), draw(stamps))
            for u in range(n_users) for i in range(n_items) for _ in range(reps)]
    rows += draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 9), st.integers(0, 2), stamps),
                          max_size=30))
    return [(f"u{u}", f"i{i}", f"c{c}", ts) for u, i, c, ts in draw(st.permutations(rows))]


class TestIngest:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "log.tsv"
        path.write_text("")
        log, bad = ingest(path)
        assert len(log) == 0 and log.codes.shape == (0, 3) and bad == 0

    def test_well_formed_lines_in_order(self, tmp_path):
        path = tmp_path / "log.tsv"
        write_tsv(path, [("u1", "a", "c", 10), ("u2", "b", "c", 20), ("u1", "c", "d", 5)])
        log, bad = ingest(path)
        assert bad == 0
        assert [log.names[1][c] for c in log.codes[:, 1]] == ["a", "b", "c"]

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "log.tsv"
        path.write_text("user\titem\tcategory\ttimestamp\nu1\ta\tc\t10\n")
        log, _ = ingest(path)
        assert len(log) == 1

    def test_malformed_counted_and_skipped(self, tmp_path):
        path = tmp_path / "log.tsv"
        rows = [("u", f"i{k}", "c", 10) for k in range(200)]
        write_tsv(path, rows)
        with open(path, "a", encoding="utf-8") as f:
            f.write("u\tix\tc\tnot-a-number\n")
        log, bad = ingest(path)
        assert bad == 1
        assert len(log) == 200

    def test_timestamp_beyond_int64_is_malformed(self, tmp_path):
        path = tmp_path / "log.tsv"
        write_tsv(path, [("u", f"i{k}", "c", 10) for k in range(200)] + [("u", "ix", "c", 2**63)])
        log, bad = ingest(path)
        assert bad == 1 and len(log) == 200

    def test_too_many_malformed_aborts(self, tmp_path):
        path = tmp_path / "log.tsv"
        path.write_text("u\ta\tc\t10\nbroken line\n")
        with pytest.raises(IngestionError):
            ingest(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            ingest(tmp_path / "nope.tsv")

    @settings(max_examples=100, deadline=None)
    @given(logs())
    def test_columns_number_ids_by_first_appearance(self, rows):
        log = parse(rows)
        assert log.codes.dtype == np.int64 and log.codes.shape == (len(rows), 3)
        assert log.timestamps.dtype == np.int64
        for col in range(3):
            first_seen = list(dict.fromkeys(r[col] for r in rows))
            assert log.names[col] == first_seen
            assert log.codes[:, col].tolist() == [first_seen.index(r[col]) for r in rows]
        decoded = [(*(log.names[col][c] for col, c in enumerate(row)), ts)
                   for row, ts in zip(log.codes.tolist(), log.timestamps.tolist())]
        assert decoded == rows


class TestBuildSequences:
    def test_user_below_threshold_removed(self, tmp_path):
        rows = dense_log(n_users=2, reps=3)
        rows += [("sparse", "i0", "c0", 99), ("sparse", "i1", "c0", 100),
                 ("sparse", "i2", "c0", 101), ("sparse", "i3", "c0", 102)]
        vocab, seqs = build_sequences(parse(rows))
        assert {s.user for s in seqs} == {"u0", "u1"}

    def test_timestamp_ties_keep_file_order(self):
        rows = dense_log(n_users=1, n_items=5, reps=5)
        vocab, seqs = build_sequences(parse([(*r[:3], 42) for r in rows]))  # all equal timestamps
        raw_order = [r[1] for r in rows]
        assert [vocab.item_index[raw] for raw in raw_order] == seqs[0].items

    def test_cascading_filter_matches_bruteforce(self):
        # dropping the rare item pushes its user below 5 on the next pass
        rows = dense_log(n_users=5, n_items=5, reps=1)  # each item seen 5 times
        extra = [("u5", "rare", "c0", 5000), ("u5", "i0", "c0", 5001),
                 ("u5", "i1", "c0", 5002), ("u5", "i2", "c0", 5003),
                 ("u5", "i3", "c0", 5004)]
        vocab, seqs = build_sequences(parse(rows + extra))
        survivors = brute_five_core(rows + extra)
        assert sum(len(s) for s in seqs) == len(survivors)
        assert "rare" not in vocab.item_index

    def test_fixed_point_invariant(self):
        rows = dense_log(n_users=4, n_items=8, reps=2)
        vocab, seqs = build_sequences(parse(rows))
        item_counts = {}
        user_counts = {}
        for s in seqs:
            user_counts[s.user] = len(s)
            for i in s.items:
                item_counts[i] = item_counts.get(i, 0) + 1
        assert all(c >= 5 for c in item_counts.values())
        assert all(c >= 5 for c in user_counts.values())

    def test_all_filtered_raises(self):
        with pytest.raises(ValueError):
            build_sequences(parse([("u", "i", "c", 1)]))

    def test_determinism(self):
        log = parse(dense_log())
        v1, s1 = build_sequences(log)
        v2, s2 = build_sequences(log)
        assert v1.item_index == v2.item_index
        assert [(s.user, s.items, s.cats, s.hours) for s in s1] == \
               [(s.user, s.items, s.cats, s.hours) for s in s2]

    @settings(max_examples=200, deadline=None)
    @given(logs())
    def test_matches_naive_oracle(self, rows):
        item_index, cat_index, want = naive_sequences(rows)
        if not want:
            with pytest.raises(ValueError):
                build_sequences(parse(rows))
            return
        vocab, seqs = build_sequences(parse(rows))
        assert [(s.user, s.items, s.cats, s.hours) for s in seqs] == want
        assert all(type(v) is int for s in seqs for v in s.items + s.cats + s.hours)
        assert vocab.item_index == item_index
        assert vocab.category_index == cat_index

    def test_hour_of_day(self):
        rows = dense_log(n_users=1, n_items=5, reps=5)
        _, seqs = build_sequences(parse(rows))
        # first interaction at ts=1000 -> hour 0, then hourly steps
        assert seqs[0].hours[0] == 0
        assert seqs[0].hours[1] == 1


class TestSplit:
    def test_standard_split(self):
        seq = UserSequence("u", [1, 2, 3, 4, 5], [1] * 5, [0] * 5)
        assert split_leave_one_out(seq) == (3, 3, 4)

    def test_minimum_case(self):
        seq = UserSequence("u", [1, 2, 3], [1] * 3, [0] * 3)
        assert split_leave_one_out(seq) == (1, 1, 2)

    def test_too_short_excluded(self):
        seq = UserSequence("u", [1, 2], [1, 1], [0, 0])
        assert split_leave_one_out(seq) is None


class TestSamples:
    def make_vocab(self, seq):
        return build_context_vocab([seq])

    def test_train_length_two_gives_one_sample(self):
        seq = UserSequence("u", [0, 1, 2, 3], [1] * 4, [0] * 4)
        samples = generate_training_samples(seq, self.make_vocab(seq), max_len=10)
        assert len(samples) == 1
        items, _, target = samples[0]
        assert items.tolist() == [0] and target == 1

    def test_train_length_five_gives_four_samples(self):
        seq = UserSequence("u", [0, 1, 2, 3, 4, 5, 6], [1] * 7, [0] * 7)
        samples = generate_training_samples(seq, self.make_vocab(seq), max_len=10)
        assert len(samples) == 4
        assert [t for _, _, t in samples] == [1, 2, 3, 4]

    def test_window_truncation(self):
        seq = UserSequence("u", list(range(8)), [1] * 8, [0] * 8)
        samples = generate_training_samples(seq, self.make_vocab(seq), max_len=3)
        items, _, target = samples[-1]
        # naive slicing oracle: input is the last 3 of v1..v5, target v6
        assert items.tolist() == [2, 3, 4] and target == 5

    def test_split_disjointness(self):
        seq = UserSequence("u", list(range(9)), [1] * 9, [0] * 9)
        samples = generate_training_samples(seq, self.make_vocab(seq), max_len=5)
        targets = {t for _, _, t in samples}
        assert 7 not in targets and 8 not in targets  # val and test items

    def test_context_alignment(self):
        cats = [1, 2, 1, 2, 1, 2, 1, 2, 1]
        seq = UserSequence("u", list(range(9)), cats, [3] * 9)
        vocab = self.make_vocab(seq)
        triplet = {idx: t for t, idx in vocab.index.items()}
        for items, ctxs, _ in generate_training_samples(seq, vocab, max_len=3):
            got = [triplet[c] for c in ctxs.tolist()]
            lo = items[0]
            assert got[0] == (PAD_CATEGORY, cats[lo], 3)
            assert got[1:] == [(cats[i - 1], cats[i], 3) for i in range(lo + 1, lo + len(items))]

    @settings(max_examples=200, deadline=None)
    @given(logs(), st.integers(1, 6))
    def test_windows_match_naive_oracle(self, rows, max_len):
        if not naive_sequences(rows)[2]:
            return
        _, seqs = build_sequences(parse(rows))
        vocab = build_context_vocab(seqs)
        assert all(len(seq) >= 5 for seq in seqs)
        registered = []  # per training position: PAD-previous, then true-previous
        for seq in seqs:
            for i in range(len(seq) - 2):
                registered.append((PAD_CATEGORY, seq.cats[i], seq.hours[i]))
                registered.append((seq.cats[i - 1] if i else PAD_CATEGORY, seq.cats[i], seq.hours[i]))
        assert list(vocab.index) == list(dict.fromkeys(registered))
        for seq in seqs:
            windows = generate_training_samples(seq, vocab, max_len)
            ends = range(1, len(seq) - 2)
            assert len(windows) == len(ends)
            for got, end in zip(windows, ends):
                assert_same_window(got, naive_window(seq, vocab, max(0, end - max_len), end))
            for split, end in (("val", len(seq) - 2), ("test", len(seq) - 1)):
                got = eval_input(seq, vocab, max_len, split)
                assert_same_window(got, naive_window(seq, vocab, max(0, end - max_len), end))


class TestEvalInput:
    def test_val_and_test_targets(self):
        seq = UserSequence("u", [10, 11, 12, 13, 14], [1] * 5, [0] * 5)
        vocab = build_context_vocab([seq])
        items, _, target = eval_input(seq, vocab, max_len=10, split="val")
        assert items.tolist() == [10, 11, 12] and target == 13
        items, _, target = eval_input(seq, vocab, max_len=10, split="test")
        assert items.tolist() == [10, 11, 12, 13] and target == 14


class TestArtifacts:
    def test_sequence_store_roundtrip(self, tmp_path):
        _, seqs = build_sequences(parse(dense_log()))
        path = tmp_path / "sequences.json"
        save_sequences(seqs, path)
        loaded = load_sequences(path)
        assert [(s.user, s.items) for s in loaded] == [(s.user, s.items) for s in seqs]

    @pytest.mark.parametrize("doc,message", [
        ({"user": "u0"}, "expected a list"),
        ([["u0"]], "record 0 has no string user"),
        ([{"user": 7, "items": [0], "cats": [1], "hours": [0]}], "record 0 has no string user"),
        ([{"user": "u0", "items": [0.0], "cats": [1], "hours": [0]}], "'u0' needs items"),
        ([{"user": "u0", "items": [True], "cats": [1], "hours": [0]}], "'u0' needs items"),
        ([{"user": "u0", "items": [0, 1], "cats": [1], "hours": [0]}], "'u0' has items"),
        ([{"user": "u0", "items": [-1], "cats": [1], "hours": [0]}], "'u0' needs items from 0"),
        ([{"user": "u0", "items": [0], "cats": [0], "hours": [0]}], "'u0' needs items from 0"),
        ([{"user": "u0", "items": [0], "cats": [1], "hours": [24]}], "'u0' needs items from 0"),
    ], ids=["dict", "list_record", "int_user", "float_item", "bool_item", "lengths",
            "negative_item", "category_0", "hour_24"])
    def test_malformed_sequence_record_rejected(self, tmp_path, doc, message):
        path = tmp_path / "sequences.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ValueError, match=message) as info:
            load_sequences(path)
        assert str(path) in str(info.value)

    def test_item_vocab_roundtrip(self, tmp_path):
        vocab, _ = build_sequences(parse(dense_log()))
        path = tmp_path / "items.tsv"
        vocab.save(path)
        loaded = ItemVocab.load(path)
        assert loaded.item_index == vocab.item_index
        assert loaded.item_category == vocab.item_category
        assert loaded.category_index == vocab.category_index

    def test_only_items_categories_are_numbered(self, tmp_path):
        # Item a is first seen under X, so Y is no item's category.
        rows = [(f"u{u}", item, cat, 10 * u + k) for u in range(5) for k, (item, cat)
                in enumerate([("a", "X"), ("a", "Y"), ("b", "Z"), ("b", "Z"), ("c", "Z")])]
        vocab, seqs = build_sequences(parse(rows))
        assert vocab.category_index == {"X": 1, "Z": 2}
        assert {c for s in seqs for c in s.cats} == {1, 2}
        vocab.save(tmp_path / "items.tsv")
        loaded = ItemVocab.load(tmp_path / "items.tsv")
        assert loaded.n_categories == dataset_stats(vocab, seqs)["n_categories"] == 2

    def test_item_vocab_keeps_category_names(self, tmp_path):
        vocab = ItemVocab(item_index={"a": 0}, category_index={"books": 1}, item_category=[1])
        vocab.save(tmp_path / "items.tsv")
        assert ItemVocab.load(tmp_path / "items.tsv").category_index == {"books": 1}

    def test_item_vocab_without_category_names_rejected(self, tmp_path):
        path = tmp_path / "items.tsv"
        path.write_text("a\t0\t1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 1"):
            ItemVocab.load(path)

    @pytest.mark.parametrize("text,message", [
        ("a\t0\t1\tx\nb\t2\t1\tx\n", "line 2 gives item 'b' index 2"),
        ("a\t1\t1\tx\nb\t0\t1\tx\n", "line 1 gives item 'a' index 1"),
        ("a\t0\t0\tx\n", "line 1 gives item 'a' index 0 and category 0"),
        ("a\t0\t1\tx\na\t1\t1\tx\n", "line 2 gives item 'a' index 1"),
        ("a\t0\tone\tx\n", "line 1 has a non-integer"),
        ("a\t0\t2\tx\n", "line 1 gives item 'a' index 0 and category 2"),
        ("a\t0\t1\tX\nb\t1\t1\tY\n", "line 2 gives item 'b' index 1 and category 1"),
        ("a\t0\t1\tX\nb\t1\t2\tX\n", "line 2 gives item 'b' index 1 and category 2"),
    ], ids=["gap", "out_of_order", "category_0", "repeated_item", "word_category",
            "category_gap", "two_names_one_number", "one_name_two_numbers"])
    def test_malformed_item_vocab_rejected(self, tmp_path, text, message):
        path = tmp_path / "items.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=message) as info:
            ItemVocab.load(path)
        assert str(path) in str(info.value)

    def test_failed_save_keeps_old_file(self, tmp_path):
        path = tmp_path / "sequences.json"
        good = [UserSequence("u0", [0, 1, 2], [1, 1, 1], [0, 0, 0])]
        save_sequences(good, path)
        before = path.read_bytes()
        # The second user's items cannot be encoded, so JSON output stops
        # partway through the file.
        bad = good + [UserSequence("u1", [object()], [1], [0])]
        with pytest.raises(TypeError):
            save_sequences(bad, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["sequences.json"]

    def test_stats(self):
        vocab, seqs = build_sequences(parse(dense_log(n_users=6, n_items=6, reps=1)))
        stats = dataset_stats(vocab, seqs)
        assert stats["n_users"] == 6
        assert stats["n_items"] == 6
        assert stats["n_interactions"] == 36
        assert stats["avg_interactions_per_user"] == pytest.approx(6.0)
        assert stats["sparsity"] == pytest.approx(0.0)
