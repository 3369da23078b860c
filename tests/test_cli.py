import json
import re
import time
from dataclasses import asdict

import numpy as np
import pytest

from twinrec.cli import main
from twinrec.config import (SCHEMA, ConfigError, config_hash, load_config, model_config,
                            train_config)
from twinrec.data import load_sequences
from twinrec.embedding import ContextVocab
from twinrec.model import SequentialRecommender


def make_log(path, n_users=10, n_items=12, length=10):
    """Small but filter-proof interaction log with cyclic structure."""
    lines = []
    ts = 0
    for u in range(n_users):
        start = (u * 3) % n_items
        for i in range(length):
            item = (start + i) % n_items
            lines.append(f"u{u}\ti{item}\tc{item % 3}\t{ts}")
            ts += 3600
    path.write_text("\n".join(lines) + "\n")


def edit_archive(path, edit):
    """Rewrite the archive at ``path`` after ``edit`` changes its dict of columns."""
    with np.load(path) as archive:
        cols = dict(archive)
    edit(cols)
    with open(path, "wb") as f:
        np.savez(f, **cols)


@pytest.fixture
def workspace(tmp_path, monkeypatch):
    ws = tmp_path / "out"
    monkeypatch.setenv("TWINREC_WORKSPACE", str(ws))
    log = tmp_path / "log.tsv"
    make_log(log)
    return ws, log


WORKSPACE_ARCHIVES = ("sequences.npz", "item_vocab.npz", "context_vocab.npz")

SMALL = ["--set", "dim=8", "--set", "kernel_size=3", "--set", "heads=1",
         "--set", "max_len=10", "--set", "epochs=2", "--set", "batch_size=32",
         "--set", "seed=0"]


class TestConfig:
    def test_defaults(self):
        cfg = load_config()
        assert cfg["dim"] == 128 and cfg["variant"] == "full"

    def test_file_and_override_precedence(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("dim = 16\nseed = 3  # trailing comment\n")
        cfg = load_config(path, ["dim=32"])
        assert cfg["dim"] == 32 and cfg["seed"] == 3

    def test_hash_inside_a_value_is_kept(self, tmp_path):
        # A comment starts at a "#" that opens its line or follows whitespace.
        path = tmp_path / "run.cfg"
        path.write_text("# runs\nworkspace = out#2\ndata = runs/#3/log.tsv\t# the log\n"
                        "seed = 3 #\n#dim = 16\n")
        cfg = load_config(path)
        assert (cfg["workspace"], cfg["data"], cfg["seed"]) == ("out#2", "runs/#3/log.tsv", 3)
        assert cfg["dim"] == 128

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("banana = 1\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            load_config(None, ["dim=notanint"])

    def test_invalid_variant_rejected(self):
        with pytest.raises(ConfigError):
            load_config(None, ["variant=bogus"])

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError):
            load_config(None, ["kernel_size=4"])

    @pytest.mark.parametrize("override", ["lr=nan", "lr=inf", "lr=-inf", "l2=nan", "l2=inf"])
    def test_nonfinite_rate_rejected(self, override):
        with pytest.raises(ConfigError):
            load_config(None, [override])

    @pytest.mark.parametrize("override", ["heads=0", "layers=0", "tables=0", "m1=0", "max_len=0",
                                          "dim=0", "batch_size=0", "patience=0", "epochs=-1",
                                          "l2=-1", "kernel_size=4", "variant=bogus"])
    def test_out_of_range_setting_named_with_its_value(self, override):
        key, value = override.split("=")
        with pytest.raises(ConfigError, match=f"{key}.*{value}"):
            load_config(None, [override])

    def test_every_field_set_by_exactly_one_key(self):
        base = load_config()

        def fields(cfg):
            return {**{("model", k): v for k, v in asdict(model_config(cfg, 7, 3)).items()},
                    **{("train", k): v for k, v in asdict(train_config(cfg)).items()}}

        def changed(default):
            if isinstance(default, str):
                return "plain_attn" if default != "plain_attn" else "full"
            return default + 2 if isinstance(default, int) else default * 2

        ref = fields(base)
        setters = {name: [] for name in ref if name[1] not in ("vocab_size", "n_contexts")}
        for key, (_, default) in SCHEMA.items():
            for name, value in fields(dict(base, **{key: changed(default)})).items():
                if value != ref[name]:
                    setters[name].append(key)
        assert {name: keys for name, keys in setters.items() if len(keys) != 1} == {}
        assert setters[("model", "n_heads")] == ["heads"]
        assert setters[("model", "n_layers")] == ["layers"]
        assert setters[("model", "n_tables")] == ["tables"]

    def test_hash_pinned(self):
        assert config_hash(load_config()) == "f7d0d8327c9e0ccb"
        assert config_hash(load_config(None, SMALL[1::2])) == "02c2ca9dafb52345"

    def test_hash_stable_and_sensitive(self):
        a = config_hash(load_config())
        b = config_hash(load_config())
        c = config_hash(load_config(None, ["seed=1"]))
        assert a == b and a != c and len(a) == 16


class TestDispatch:
    def test_no_subcommand(self, capsys):
        assert main([]) == 2

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) != 0

    def test_missing_workspace_is_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("TWINREC_WORKSPACE", str(tmp_path / "empty"))
        assert main(["train"]) == 1
        assert "prepare-data" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "evaluate", "export-attention"])
    def test_failed_command_creates_no_workspace(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.setenv("TWINREC_WORKSPACE", str(tmp_path / "x" / "y"))
        assert main([command]) == 1
        assert "run prepare-data first" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_bad_override_reported(self, capsys):
        assert main(["count-params", "--set", "dim"]) == 1
        assert "error" in capsys.readouterr().err

    def test_nonfinite_lr_reported(self, capsys):
        assert main(["count-params", "--set", "vocab_size=20", "--set", "lr=nan"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "lr" in err


class TestCountParams:
    def test_reference_compression_figures(self, capsys):
        rc = main(["count-params", "--set", "vocab_size=12101",
                   "--set", "contexts=1009", "--set", "dim=128", "--set", "m1=2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "embedding: 774784" in out
        assert "full-table 1548928" in out
        assert "(50.02%)" in out
        assert "twin 99584 vs plain 2H-head attention 196608" in out

    def test_counts_a_catalog_too_large_to_build(self, capsys):
        assert main(["count-params", "--set", "vocab_size=100000000000"]) == 0
        # Defaults: D=128, two tables (2 and |V|/2 rows), one context row,
        # H=2 conv and 2 attention heads of width L=5, max_len 50, FFN width 4D.
        v, d, w = 100_000_000_000, 128, 4 * 128
        total = ((2 + v // 2) * d + d + (d * d + 2 * d * d + d) + 2 * (5 * d + 3 * d * d)
                 + 50 * d + (w * w + w + w * d + d) + (d * v + v))
        assert f"total: {total}\n" in capsys.readouterr().out


class TestGradcheck:
    def test_passes_on_tiny_model(self, capsys):
        rc = main(["gradcheck", "--set", "dim=6", "--set", "kernel_size=3",
                   "--set", "heads=1", "--set", "max_len=6",
                   "--set", "vocab_size=20", "--set", "contexts=8"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "max relative error" in out


class TestPipeline:
    def test_end_to_end(self, workspace, capsys):
        ws, log = workspace
        args = SMALL + ["--set", f"data={log}"]

        assert main(["prepare-data"] + args) == 0
        stats = json.loads((ws / "dataset_stats.json").read_text())
        assert stats["n_users"] == 10 and stats["n_items"] == 12
        assert (ws / "sequences.npz").exists()
        assert (ws / "item_vocab.npz").exists()
        assert (ws / "context_vocab.npz").exists()

        assert main(["train"] + args) == 0
        assert (ws / "checkpoint.bin").exists()
        log_text = (ws / "train_log.csv").read_text()
        assert log_text.startswith("# config_hash=")
        assert len(log_text.strip().splitlines()) == 4  # header comment + csv header + 2 epochs

        assert main(["evaluate", "--split", "test"] + args) == 0
        doc = json.loads((ws / "metrics_test.json").read_text())
        assert doc["split"] == "test" and doc["n_users"] == 10
        for k in ("5", "10", "20"):
            m = doc["metrics"][k]
            assert 0.0 <= m["ndcg"] <= m["hr"] <= 1.0

        assert main(["export-attention", "--user", "u3", "--last-k", "4"] + args) == 0
        mean = np.loadtxt(ws / "attention_mean.csv", delimiter=",", comments="#")
        assert mean.shape == (4, 4)
        np.testing.assert_allclose(mean.sum(axis=1), 1.0, atol=1e-4)

    def test_export_unknown_user(self, workspace, capsys):
        ws, log = workspace
        args = SMALL + ["--set", f"data={log}"]
        assert main(["prepare-data"] + args) == 0
        assert main(["train"] + args) == 0
        assert main(["export-attention", "--user", "nobody"] + args) == 1

    def test_repeat_runs_byte_identical(self, workspace, capsys):
        ws, log = workspace
        args = SMALL + ["--set", f"data={log}"]
        blobs = []
        for _ in range(2):
            assert main(["prepare-data"] + args) == 0
            assert main(["train"] + args) == 0
            assert main(["evaluate"] + args) == 0
            blobs.append([(ws / name).read_bytes() for name in (
                "checkpoint.bin", "metrics_test.json", *WORKSPACE_ARCHIVES)])
        assert blobs[0] == blobs[1]

    def test_prepare_writes_identical_archives(self, workspace, monkeypatch, capsys):
        # The second run's clock reads three days later: no archive may record it.
        ws, log = workspace
        assert main(["prepare-data", "--set", f"data={log}"]) == 0
        first = [(ws / name).read_bytes() for name in WORKSPACE_ARCHIVES]
        later = time.time() + 3 * 86400
        monkeypatch.setattr(time, "time", lambda: later)
        assert main(["prepare-data", "--set", f"data={log}"]) == 0
        assert [(ws / name).read_bytes() for name in WORKSPACE_ARCHIVES] == first

    def test_json_only_workspace_is_one_error_line(self, workspace, capsys):
        ws, log = workspace
        assert main(["prepare-data", "--set", f"data={log}"]) == 0
        (ws / "sequences.npz").unlink()
        (ws / "sequences.json").write_text('[{"user": "u0", "items": [0], "cats": [1], '
                                           '"hours": [0]}]')
        capsys.readouterr()
        assert main(["train", "--set", f"data={log}"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {ws / 'sequences.npz'} missing; run prepare-data first"]

    def test_tsv_vocab_workspace_is_one_error_line(self, workspace, capsys):
        # A workspace prepared when the vocabularies were text files.
        ws, log = workspace
        assert main(["prepare-data", "--set", f"data={log}"]) == 0
        for name in ("item_vocab", "context_vocab"):
            (ws / f"{name}.npz").unlink()
        (ws / "item_vocab.tsv").write_text("i0\t0\t1\tc0\n")
        (ws / "context_vocab.tsv").write_text("0\t1\t0\t1\n")
        capsys.readouterr()
        assert main(["train", "--set", f"data={log}"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {ws / 'item_vocab.npz'} missing; run prepare-data first"]

    @pytest.mark.parametrize("edit", [
        lambda h: h.pop("seed"),
        lambda h: h.update(seed="abc"),
        lambda h: h.pop("tensors"),
        lambda h: h["tensors"][0].pop("shape"),
        lambda h: h["config"].update(colour="blue"),
        lambda h: h["config"].update(dim="8"),
        lambda h: h["tensors"][0].update(dtype="<i9"),
        lambda h: h["tensors"][0].update(dtype="<i4"),
    ], ids=["no_seed", "mistyped_seed", "no_tensors", "entry_without_shape", "extra_config_field",
            "mistyped_config_field", "dtype_i9", "dtype_i4"])
    def test_malformed_checkpoint_header_is_one_error_line(self, workspace, capsys, edit):
        ws, log = workspace
        args = SMALL + ["--set", "epochs=1", "--set", f"data={log}"]
        assert main(["prepare-data"] + args) == 0
        assert main(["train"] + args) == 0
        ckpt = ws / "checkpoint.bin"
        header, payload = ckpt.read_bytes().split(b"\n", 1)
        header = json.loads(header)
        edit(header)
        ckpt.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        capsys.readouterr()
        assert main(["evaluate"] + args) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and str(ckpt) in err[0]
        assert not list(ws.glob("metrics_*.json"))

    @pytest.mark.parametrize("line", [b"[1, 2]", b"null", b"hello", b"\x80\xff{}"],
                             ids=["list", "null", "not_json", "not_utf8"])
    def test_header_that_is_not_a_json_object_is_one_error_line(self, workspace, capsys, line):
        ws, log = workspace
        args = SMALL + ["--set", "epochs=1", "--set", f"data={log}"]
        assert main(["prepare-data"] + args) == 0
        assert main(["train"] + args) == 0
        ckpt = ws / "checkpoint.bin"
        ckpt.write_bytes(line + b"\n" + ckpt.read_bytes().split(b"\n", 1)[1])
        capsys.readouterr()
        assert main(["evaluate"] + args) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {ckpt}: not a checkpoint file"]

    def test_header_of_a_huge_model_is_one_error_line(self, workspace, capsys):
        ws, log = workspace
        args = SMALL + ["--set", "epochs=1", "--set", f"data={log}"]
        assert main(["prepare-data"] + args) == 0
        assert main(["train"] + args) == 0
        ckpt = ws / "checkpoint.bin"
        header = json.loads(ckpt.read_bytes().split(b"\n", 1)[0])
        header["config"]["vocab_size"] = 100_000_000_000
        ckpt.write_bytes(json.dumps(header).encode() + b"\n")
        capsys.readouterr()
        assert main(["evaluate"] + args) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {ckpt}: ")

    def test_bad_checkpoint_is_one_error_line(self, workspace, capsys):
        ws, log = workspace
        args = SMALL + ["--set", "epochs=1", "--set", f"data={log}"]
        assert main(["prepare-data"] + args) == 0
        assert main(["train"] + args) == 0
        ckpt = ws / "checkpoint.bin"
        ckpt.write_bytes(ckpt.read_bytes()[:-4])
        capsys.readouterr()
        assert main(["evaluate"] + args) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "out.b" in err[0]

    def test_nonfinite_checkpoint_is_one_error_line(self, workspace, capsys):
        ws, log = workspace
        args = SMALL + ["--set", "epochs=1", "--set", f"data={log}"]
        assert main(["prepare-data"] + args) == 0
        assert main(["train"] + args) == 0
        ckpt = ws / "checkpoint.bin"
        model = SequentialRecommender.load(ckpt)
        model.params["out.b"].data[0] = np.nan
        model.save(ckpt, model.vocab_digest)
        capsys.readouterr()
        assert main(["evaluate"] + args) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {ckpt}: tensor 'out.b' holds a non-finite value; run train again"]

    def test_diverged_training_is_one_error_line(self, workspace, capsys):
        # Adam moves every weight by about lr, so the first step diverges.
        ws, log = workspace
        args = SMALL + ["--set", "lr=1e30", "--set", f"data={log}"]
        assert main(["prepare-data"] + args) == 0
        capsys.readouterr()
        assert main(["train"] + args) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: training diverged at epoch 0, batch 1: ")
        assert re.search(r"'(emb|fusion|enc0|out)\.[a-z_0-9.]+'$", err[0])
        assert not (ws / "checkpoint.bin").exists()

    def test_unreadable_data_is_one_error_line(self, workspace, capsys):
        ws, log = workspace
        assert main(["prepare-data", "--set", f"data={log.parent}"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not (ws / "sequences.npz").exists()

    @pytest.mark.parametrize("last_k", ["0", "-3"])
    def test_export_last_k_below_one_is_one_error_line(self, workspace, capsys, last_k):
        ws, log = workspace
        args = SMALL + ["--set", "epochs=1", "--set", f"data={log}"]
        assert main(["prepare-data"] + args) == 0
        assert main(["train"] + args) == 0
        capsys.readouterr()
        assert main(["export-attention", "--last-k", last_k] + args) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "last_k" in err[0]
        assert not list(ws.glob("attention_*.csv"))

    @pytest.mark.parametrize("edit", [
        lambda c: c.pop("hours"),
        lambda c: c["hours"].__setitem__(1, 24),
        lambda c: [c[k].__setitem__(1, c[k][0]) for k in c],
        lambda c: c.update(hours=c["hours"] * 1.0),
        lambda c: c.update(cats=c["cats"][:-1]),
    ], ids=["two_fields", "hour_24", "repeated_triplet", "float_hours", "lengths"])
    def test_bad_context_vocab_is_one_error_line(self, workspace, capsys, edit):
        ws, log = workspace
        args = SMALL + ["--set", "epochs=1", "--set", f"data={log}"]
        assert main(["prepare-data"] + args) == 0
        path = ws / "context_vocab.npz"
        edit_archive(path, edit)
        capsys.readouterr()
        assert main(["train"] + args) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {path}: not a context vocabulary; run prepare-data again"]
        assert not (ws / "checkpoint.bin").exists()

    @pytest.mark.parametrize("name,edit,where", [
        ("sequences.npz", lambda c: c["items"].__setitem__(c["offsets"][3], 1000000), "'u3'"),
        ("sequences.npz", lambda c: c.pop("hours"), "run prepare-data again"),
        ("sequences.npz", lambda c: c["hours"].__setitem__(c["offsets"][5], 99), "'u5'"),
        ("item_vocab.npz", lambda c: c["items"].__setitem__(0, c["items"][1]), "not an item"),
        ("item_vocab.npz", lambda c: c.update(item_category=c["item_category"].astype(str)),
         "not an item"),
        ("item_vocab.npz", lambda c: c["categories"].__setitem__(1, c["categories"][0]),
         "not an item"),
        ("item_vocab.npz", lambda c: c["item_category"].__setitem__(0, 0), "not an item"),
        ("item_vocab.npz", lambda c: c["item_category"].__setitem__(
            c["item_category"] == 2, 3), "not an item"),
        ("item_vocab.npz", lambda c: c.update(item_category=c["item_category"][::-1].copy()),
         "not an item"),
        ("item_vocab.npz", lambda c: c.update(categories=np.append(c["categories"], "spare")),
         "not an item"),
        ("item_vocab.npz", lambda c: c.update(items=c["items"][:-1]), "not an item"),
    ], ids=["item_1e6", "no_hours", "hour_99", "index_1_twice", "index_zero_word",
            "repeated_category_name", "category_0", "category_gap", "categories_out_of_order",
            "unused_category_name", "lengths"])
    def test_bad_workspace_file_is_one_error_line(self, workspace, capsys, name, edit, where):
        ws, log = workspace
        args = SMALL + ["--set", "epochs=1", "--set", f"data={log}"]
        assert main(["prepare-data"] + args) == 0
        assert main(["train"] + args) == 0
        path = ws / name
        edit_archive(path, edit)
        capsys.readouterr()
        assert main(["evaluate"] + args) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert str(path) in err[0] and where in err[0]
        assert not list(ws.glob("metrics_*.json"))

    def test_categories_past_the_stored_count_still_load(self, workspace, capsys):
        # Item A is first seen in category X, so Y is no item's category and
        # gets no number: the workspace numbers X and Z, 1 and 2.
        ws, log = workspace
        rows = [("A", "X"), ("A", "Y"), ("B", "Z"), ("B", "Z"), ("C", "Z")]
        log.write_text("".join(f"u{u}\t{item}\t{cat}\t{5 * u + k}\n"
                               for u in range(6) for k, (item, cat) in enumerate(rows)))
        assert main(["prepare-data", "--set", f"data={log}"]) == 0
        assert max(s.cats.max() for s in load_sequences(ws / "sequences.npz")) == 2
        assert json.loads((ws / "dataset_stats.json").read_text())["n_categories"] == 2
        assert main(["count-params", "--set", "dim=8"]) == 0

    @pytest.mark.parametrize("command", ["evaluate", "export-attention"])
    def test_checkpoint_of_other_vocab_is_one_error_line(self, workspace, capsys, command):
        ws, log = workspace
        args = SMALL + ["--set", "epochs=1", "--set", f"data={log}"]
        assert main(["prepare-data"] + args) == 0
        assert main(["train"] + args) == 0
        other = log.parent / "other.tsv"
        make_log(other, n_users=30, n_items=30, length=20)
        assert main(["prepare-data"] + SMALL + ["--set", f"data={other}"]) == 0
        n_contexts = ContextVocab.load(ws / "context_vocab.npz").size
        capsys.readouterr()
        assert main([command] + args) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "trained on 12 items" in err[0]
        assert f"workspace has 30 items and {n_contexts} contexts" in err[0]
        assert not list(ws.glob("metrics_*.json")) and not list(ws.glob("attention_*.csv"))

    @pytest.mark.parametrize("command", ["evaluate", "export-attention"])
    def test_checkpoint_of_renumbered_vocab_is_one_error_line(self, workspace, capsys, command):
        # Same counts, other numbering: items renamed and the log's lines reversed.
        ws, log = workspace
        args = SMALL + ["--set", "epochs=1", "--set", f"data={log}"]
        assert main(["prepare-data"] + args) == 0
        assert main(["train"] + args) == 0
        other = log.parent / "renamed.tsv"
        other.write_text("".join(re.sub(r"\ti(\d+)\t", r"\tx\1\t", line) + "\n"
                                 for line in reversed(log.read_text().splitlines())))
        assert main(["prepare-data"] + SMALL + ["--set", f"data={other}"]) == 0
        with np.load(ws / "item_vocab.npz") as archive:
            assert archive["items"][0] == "x3"  # i0 was item 0
        capsys.readouterr()
        assert main([command] + args) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "item and context vocabularies; run train again" in err[0]
        assert not list(ws.glob("metrics_*.json")) and not list(ws.glob("attention_*.csv"))

    def test_checkpoint_without_vocab_digest_is_one_error_line(self, workspace, capsys):
        ws, log = workspace
        args = SMALL + ["--set", "epochs=1", "--set", f"data={log}"]
        assert main(["prepare-data"] + args) == 0
        assert main(["train"] + args) == 0
        ckpt = ws / "checkpoint.bin"
        SequentialRecommender.load(ckpt).save(ckpt)
        capsys.readouterr()
        assert main(["evaluate"] + args) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "records no digest" in err[0]

    def test_ablate_writes_all_variants(self, workspace, capsys):
        ws, log = workspace
        args = ["--set", "dim=6", "--set", "kernel_size=3", "--set", "heads=1",
                "--set", "max_len=10", "--set", "epochs=1",
                "--set", "batch_size=64", "--set", f"data={log}"]
        assert main(["prepare-data"] + args) == 0
        assert main(["ablate"] + args) == 0
        lines = (ws / "ablation.csv").read_text().strip().splitlines()
        variants = [line.split(",")[0] for line in lines[2:]]
        assert variants == ["full", "full_emb", "wo_dynamic", "plain_attn"]
