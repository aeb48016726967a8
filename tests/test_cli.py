import hashlib
import json

import numpy as np
import pytest

from zsat import checkpoint, cli
from zsat.config import ConfigError, PRESETS, load_config_file, resolve_config


# --- config resolution -----------------------------------------------------------

def test_all_presets_fully_resolve():
    for name, cfg in PRESETS.items():
        echo = cfg.echo()
        assert echo["version"].startswith("zsat-")
        assert echo["config"]["preset"] == name
        assert cfg.pretrain.epochs > 0
        assert cfg.projection.epochs > 0


def test_unknown_preset_raises():
    with pytest.raises(ConfigError):
        resolve_config("not-a-preset")


def test_override_nested_field():
    cfg = resolve_config("toy", {"pretrain": {"epochs": 3}, "seeds": [5, 6]})
    assert cfg.pretrain.epochs == 3
    assert cfg.seeds == (5, 6)
    assert cfg.projection.epochs == PRESETS["toy"].projection.epochs


def test_unknown_override_key_raises():
    with pytest.raises(ConfigError):
        resolve_config("toy", {"no_such_field": 1})


def test_unknown_backbone_kind_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match="resnet"):
        resolve_config("toy", {"backbone": "resnet"})
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"preset": "toy", "backbone": "resnet"}))
    # rejected before any corpus is read, so the missing corpus never matters
    missing = str(tmp_path / "missing")
    common = ["--config", str(cfg_path), "--corpus", missing]
    assert cli.main(["pretrain", *common, "--out", str(tmp_path / "b")]) == 2
    for cmd in (["train-projection", "--out", str(tmp_path / "p")],
                ["evaluate", "--projection", missing, "--out", str(tmp_path / "r")]):
        assert cli.main([*cmd, *common, "--backbone", missing]) == 2


def test_config_file_loading(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"preset": "toy", "projection_hidden": 32}))
    cfg = load_config_file(path)
    assert cfg.projection_hidden == 32
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config_file(bad)
    with pytest.raises(ConfigError):
        load_config_file(tmp_path / "missing.json")


# --- command-line pipeline ----------------------------------------------------------

@pytest.fixture(scope="module")
def cli_env(tmp_path_factory):
    """A tiny corpus plus a fast config file for exercising every subcommand."""
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps({
        "preset": "toy",
        "synthetic": {"clips_per_class": 10, "n_multilabel": 8},
        "pretrain": {"epochs": 2},
        "projection": {"epochs": 2, "decay_start_epoch": 1, "decay_end_epoch": 2},
        "seeds": [0],
    }))
    corpus = root / "corpus"
    rc = cli.main(["synth", "--config", str(cfg_path), "--out", str(corpus),
                   "--deterministic"])
    assert rc == 0
    return {"root": root, "config": str(cfg_path), "corpus": str(corpus)}


def test_synth_writes_config_echo(cli_env):
    info = json.loads((pytest.importorskip("pathlib").Path(cli_env["corpus"])
                       / "corpus_info.json").read_text())
    assert info["version"].startswith("zsat-")
    assert info["config"]["preset"] == "toy"


def test_pretrain_then_projection_then_evaluate(cli_env):
    root = cli_env["root"]
    bb = root / "bb.ckpt"
    rc = cli.main(["pretrain", "--config", cli_env["config"],
                   "--corpus", cli_env["corpus"], "--out", str(bb),
                   "--deterministic"])
    assert rc == 0
    model = checkpoint.load_backbone(str(bb))
    assert model.kind == "transformer"
    info = json.loads((root / "bb.ckpt.json").read_text())
    assert info["epochs_done"] == 2
    assert len(info["loss_history"]) == 2

    proj = root / "proj.ckpt"
    rc = cli.main(["train-projection", "--config", cli_env["config"],
                   "--corpus", cli_env["corpus"], "--backbone", str(bb),
                   "--out", str(proj), "--deterministic"])
    assert rc == 0
    sel = json.loads((root / "proj.ckpt.json").read_text())
    assert "best_epoch" in sel["selection"]

    report = root / "report.json"
    rc = cli.main(["evaluate", "--config", cli_env["config"],
                   "--corpus", cli_env["corpus"], "--backbone", str(bb),
                   "--projection", str(proj), "--task", "tagging",
                   "--out", str(report), "--deterministic"])
    assert rc == 0
    data = json.loads(report.read_text())
    assert data["per_seed"][0]["mean_ap"] is not None
    assert data["version"].startswith("zsat-")


def test_pretrain_resume_continues_epoch_counter(cli_env, tmp_path):
    cfg1 = tmp_path / "one_epoch.json"
    base = json.loads(open(cli_env["config"]).read())
    base["pretrain"]["epochs"] = 1
    cfg1.write_text(json.dumps(base))
    bb = tmp_path / "bb_r.ckpt"
    assert cli.main(["pretrain", "--config", str(cfg1), "--corpus",
                     cli_env["corpus"], "--out", str(bb), "--deterministic"]) == 0
    assert json.loads((tmp_path / "bb_r.ckpt.json").read_text())["epochs_done"] == 1
    assert cli.main(["pretrain", "--config", cli_env["config"], "--corpus",
                     cli_env["corpus"], "--out", str(bb), "--resume",
                     "--deterministic"]) == 0
    info = json.loads((tmp_path / "bb_r.ckpt.json").read_text())
    assert info["epochs_done"] == 2
    assert len(info["loss_history"]) == 2


def test_fold_split_command(tmp_path):
    counts = tmp_path / "counts.csv"
    counts.write_text("class_id,label,count\nA,Alpha,10\nB,Bravo,8\n"
                      "C,Charlie,6\nD,Delta,4\nE,Speech,2\n")
    out = tmp_path / "folds.json"
    assert cli.main(["fold-split", "--counts", str(counts), "--preset", "toy",
                     "--out", str(out), "--deterministic"]) == 0
    data = json.loads(out.read_text())
    assert data["pinned"] == ["E"]
    assert data["pinned_labels"] == ["Speech"]
    assert sorted(c for f in data["folds"] for c in f) == ["A", "B", "C", "D"]


def test_exit_code_config_error(tmp_path):
    assert cli.main(["synth", "--preset", "nope",
                     "--out", str(tmp_path / "x")]) == 2


def test_exit_code_data_error(tmp_path, cli_env):
    assert cli.main(["pretrain", "--config", cli_env["config"],
                     "--corpus", str(tmp_path / "missing"),
                     "--out", str(tmp_path / "x.ckpt")]) == 3


def test_exit_code_fold_id_out_of_range(cli_env, tmp_path):
    folds = tmp_path / "folds.json"
    folds.write_text(json.dumps({"folds": [["c00"], ["c01"]], "pinned": []}))
    assert cli.main(["pretrain", "--config", cli_env["config"],
                     "--corpus", cli_env["corpus"], "--folds", str(folds),
                     "--fold-id", "7", "--out", str(tmp_path / "x.ckpt")]) == 3


def _tree_hash(root):
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(p.relative_to(root).as_posix().encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def test_synth_is_hash_identical_across_runs(cli_env, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(["synth", "--config", cli_env["config"],
                         "--out", str(out), "--deterministic"]) == 0
        outs.append(_tree_hash(out))
    assert outs[0] == outs[1]
