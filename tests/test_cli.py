import json

import numpy as np
import pytest

from twinrec.cli import main
from twinrec.config import ConfigError, config_hash, load_config


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
