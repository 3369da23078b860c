import json
import re
from dataclasses import asdict

import numpy as np
import pytest

from twinrec.cli import main
from twinrec.config import (SCHEMA, ConfigError, config_hash, load_config, model_config,
                            train_config)
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


@pytest.fixture
def workspace(tmp_path, monkeypatch):
    ws = tmp_path / "out"
    monkeypatch.setenv("TWINREC_WORKSPACE", str(ws))
    log = tmp_path / "log.tsv"
    make_log(log)
    return ws, log


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
        assert (ws / "sequences.json").exists()
        assert (ws / "item_vocab.tsv").exists()
        assert (ws / "context_vocab.tsv").exists()

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
            blobs.append(((ws / "checkpoint.bin").read_bytes(),
                          (ws / "metrics_test.json").read_bytes(),
                          (ws / "sequences.json").read_bytes()))
        assert blobs[0] == blobs[1]

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

    def test_unreadable_data_is_one_error_line(self, workspace, capsys):
        ws, log = workspace
        assert main(["prepare-data", "--set", f"data={log.parent}"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not (ws / "sequences.json").exists()

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

    @pytest.mark.parametrize("line,message", [
        ("0\t1", "line 2 is not four integer fields"),
        ("0\t1\t3\t500", "line 2 gives (0, 1, 3) id 500"),
    ], ids=["two_fields", "id_500"])
    def test_bad_context_vocab_is_one_error_line(self, workspace, capsys, line, message):
        ws, log = workspace
        args = SMALL + ["--set", "epochs=1", "--set", f"data={log}"]
        assert main(["prepare-data"] + args) == 0
        path = ws / "context_vocab.tsv"
        first = path.read_text().splitlines()[0]
        path.write_text(f"{first}\n{line}\n")
        capsys.readouterr()
        assert main(["train"] + args) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert str(path) in err[0] and message in err[0]
        assert not (ws / "checkpoint.bin").exists()

    @pytest.mark.parametrize("name,pattern,repl,where", [
        ("sequences.json", r'"items":\[\d+', '"items":[1000000', "'u0'"),
        ("sequences.json", r'"hours":\[[\d,]*\],', "", "'u0'"),
        ("sequences.json", r'"hours":\[\d+', '"hours":[99', "'u0'"),
        ("item_vocab.tsv", r"\t0\t", "\t1\t", "line 1"),
        ("item_vocab.tsv", r"\t0\t", "\tzero\t", "line 1"),
    ], ids=["item_1e6", "no_hours", "hour_99", "index_1_twice", "index_zero_word"])
    def test_bad_workspace_file_is_one_error_line(self, workspace, capsys, name, pattern, repl,
                                                  where):
        ws, log = workspace
        args = SMALL + ["--set", "epochs=1", "--set", f"data={log}"]
        assert main(["prepare-data"] + args) == 0
        assert main(["train"] + args) == 0
        path = ws / name
        text, n = re.subn(pattern, repl, path.read_text(), count=1)
        assert n == 1
        path.write_text(text)
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
        assert max(max(r["cats"]) for r in json.loads((ws / "sequences.json").read_text())) == 2
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
        n_contexts = len((ws / "context_vocab.tsv").read_text().splitlines()) + 1
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
        assert (ws / "item_vocab.tsv").read_text().startswith("x3\t0\t")  # i0 was item 0
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
