import dataclasses
import hashlib
import importlib
import inspect
import json
import os
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import zsat
from zsat import backbones, checkpoint, cli, crossmodal, dsp, experiments, protocol
from zsat.backbones import ConvConfig
from zsat.config import PRESETS, load_config_file, resolve_config
from zsat.errors import ConfigError, DataError, NumericalError


# --- config resolution -----------------------------------------------------------

def test_all_presets_fully_resolve():
    for name, cfg in PRESETS.items():
        echo = cfg.echo()
        assert echo["version"].startswith("zsat-")
        assert echo["config"]["preset"] == name
        assert cfg.pretrain.epochs > 0
        assert cfg.projection.epochs > 0


def test_unknown_preset_raises():
    # the former per-dataset names of the one `paper` setup
    for name in ("not-a-preset", "audioset-fold", "esc50", "openmic-inst", "openmic-mic"):
        with pytest.raises(ConfigError):
            resolve_config(name)


def test_paper_preset_holds_the_paper_values():
    cfg = resolve_config("paper")
    t, pre = cfg.transformer, cfg.pretrain
    assert cfg.mel.n_mels == 128
    assert (t.d, t.n_layers, t.n_heads) == (768, 12, 12)
    assert (t.patch_f, t.patch_t, t.n_freq_drop, t.n_time_drop) == (16, 16, 2, 10)
    assert (pre.initial_lr, pre.warmup_epochs, pre.decay_start_epoch,
            pre.decay_end_epoch) == (2e-5, 5, 50, 100)
    assert (pre.batch_size, pre.epochs, cfg.projection.epochs) == (24, 130, 10)
    assert (cfg.projection_hidden, cfg.projection_dropout,
            cfg.projection_val_fraction) == (1024, 0.2, 0.1)
    assert cfg.augment.mixup_alpha == 0.3


def test_override_nested_field():
    cfg = resolve_config("toy", {"pretrain": {"epochs": 3}, "seeds": [5, 6]})
    assert cfg.pretrain.epochs == 3
    assert cfg.seeds == (5, 6)
    assert cfg.projection.epochs == PRESETS["toy"].projection.epochs
    # the VGGish window is checked against the mel bins once every override is in
    cfg = resolve_config("paper", {"backbone": "vggish", "conv": {"vggish_mels": 128}})
    assert (cfg.backbone, cfg.conv.vggish_mels) == ("vggish", 128)


def test_unknown_override_key_raises():
    # removed knobs: mixup is on when mixup_alpha > 0, nothing read the
    # training config's seed, and the projection's validation fraction is
    # the top-level projection_val_fraction
    for overrides in ({"no_such_field": 1}, {"augment": {"mixup_enabled": True}},
                      {"pretrain": {"seed": 0}},
                      {"pretrain": {"val_class_fraction": 0.1}},
                      {"projection": {"val_class_fraction": 0.1}},
                      {"synthetic": {"mel": {"n_melz": 3}}}):
        # the error names the unknown key by its dotted path, at any depth
        path, value = [], overrides
        while isinstance(value, dict):
            [(key, value)] = value.items()
            path.append(key)
        with pytest.raises(ConfigError, match=re.escape(repr(".".join(path)))):
            resolve_config("toy", overrides)


def _settings_blocks(block, path=()):
    """Dotted path of every settings block nested in `block`, at any depth."""
    for f in dataclasses.fields(block):
        sub = getattr(block, f.name)
        if dataclasses.is_dataclass(sub):
            yield (*path, f.name)
            yield from _settings_blocks(sub, (*path, f.name))


def test_settings_block_given_a_non_object_exits_2(tmp_path):
    blocks = list(_settings_blocks(PRESETS["toy"]))
    assert [".".join(b) for b in blocks] == [
        "mel", "augment", "transformer", "conv", "pretrain", "projection",
        "synthetic", "synthetic.mel"]
    for block in blocks:
        overrides = 5
        for key in reversed(block):
            overrides = {key: overrides}
        dotted = ".".join(block)
        with pytest.raises(ConfigError, match=f"^{re.escape(dotted)} must be an object"):
            resolve_config("toy", overrides)
        cfg_path = tmp_path / f"{dotted}.json"
        cfg_path.write_text(json.dumps({"preset": "toy", **overrides}))
        assert cli.main(["synth", "--config", str(cfg_path),
                         "--out", str(tmp_path / dotted)]) == 2
        assert not (tmp_path / dotted).exists()


def test_echoed_config_resolves_to_itself():
    for name, cfg in PRESETS.items():
        # through JSON, as an artifact stores it: every tuple comes back a list
        echoed = json.loads(json.dumps(cfg.echo()))["config"]
        assert resolve_config(cfg.preset, echoed) == cfg
    toy = PRESETS["toy"]
    cfg = resolve_config("toy", {"synthetic": {"mel": {"n_mels": 48}}})
    assert cfg.synthetic == dataclasses.replace(
        toy.synthetic, mel=dataclasses.replace(toy.synthetic.mel, n_mels=48))
    assert cfg.mel == toy.mel


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


def test_zero_epochs_is_a_config_error(tmp_path):
    missing = str(tmp_path / "missing")
    for stage, cmd in (("pretrain", ["pretrain"]),
                       ("projection", ["train-projection", "--backbone", missing])):
        cfg_path = tmp_path / f"{stage}.json"
        cfg_path.write_text(json.dumps({"preset": "toy", stage: {"epochs": 0}}))
        # rejected before any corpus is read, so the missing corpus never matters
        assert cli.main([*cmd, "--config", str(cfg_path), "--corpus", missing,
                         "--out", str(tmp_path / f"{stage}.ckpt")]) == 2


@pytest.mark.parametrize("override, message", [
    ({"projection_dropout": "x"}, "projection_dropout must be a number, not str 'x'"),
    ({"fold_k": 1.5}, "fold_k must be an integer, not float 1.5"),
    ({"fold_k": "x"}, "fold_k must be an integer, not str 'x'"),
    ({"projection_hidden": "x"}, "projection_hidden must be an integer, not str 'x'"),
    ({"projection_hidden": 0}, "projection_hidden must be a positive integer, not int 0"),
    ({"projection_val_fraction": "x"}, "projection_val_fraction must be a number, not str 'x'"),
    ({"projection_val_fraction": 2.0}, "projection_val_fraction must be a number in (0, 1)"),
    ({"pinned_labels": 5}, "pinned_labels must be a list, not int 5"),
])
def test_top_level_value_of_a_wrong_type_exits_2(tmp_path, capsys, override, message):
    """A top-level value that `ExperimentConfig`'s checks cannot use is a
    configuration error naming its key, raised before anything is written."""
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
        resolve_config("toy", override)
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"preset": "toy", **override}))
    for cmd in (["synth"], ["fold-split", "--counts", str(tmp_path / "counts.csv")]):
        _assert_exits([*cmd, "--config", str(cfg_path), "--out", str(tmp_path / "out")],
                      2, capsys)
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("dotted, value, noun", [
    ("pretrain.epochs", 2.5, "an integer"),
    ("pretrain.batch_size", 8.0, "an integer"),
    ("transformer.n_heads", 4.0, "an integer"),
    ("mel.n_mels", 64.0, "an integer"),
    ("transformer.n_freq_drop", True, "an integer"),
    ("augment.n_time_masks", 1.5, "an integer"),
    ("synthetic.test_classes", [2, "5"], "an integer"),
    ("conv.channels", [8, 16.0], "an integer"),
    ("synthetic.mel.n_mels", 64.0, "an integer"),
])
def test_nested_value_of_a_wrong_type_exits_2(tmp_path, capsys, dotted, value, noun):
    """A value of the wrong type inside a settings block, at any depth, is a
    configuration error naming the block and the field, or the list
    element at fault, raised before anything is written."""
    *block, key = dotted.split(".")
    overrides = {key: value}
    for name in reversed(block):
        overrides = {name: overrides}
    if isinstance(value, list):   # each list row's second element is the bad one
        key, value = f"{key}[1]", value[1]
    message = (f"bad override for {'.'.join(block)}: {key} must be {noun}, not "
               f"{type(value).__name__} {value!r}")
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        resolve_config("toy", overrides)
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"preset": "toy", **overrides}))
    _assert_exits(["synth", "--config", str(cfg_path), "--out", str(tmp_path / "out")],
                  2, capsys)
    assert not (tmp_path / "out").exists()


def test_every_settings_block_checks_its_types():
    """Code-built settings get the rule that config files get: an int field
    takes no bool or float, a float field takes an int but no bool, a tuple
    field takes a list and stores a tuple, and a nested block takes only its
    own class."""
    toy = PRESETS["toy"]
    assert dataclasses.replace(toy.pretrain, warmup_epochs=3).warmup_epochs == 3
    conv = dataclasses.replace(toy.conv, channels=[8, 16, 32, 32, 64, 64])
    assert conv.channels == (8, 16, 32, 32, 64, 64)
    for block, field, value in ((toy.transformer, "d", True), (toy.mel, "hop_len", 320.0),
                                (toy.pretrain, "initial_lr", False),
                                (toy.augment, "mixup_alpha", "0.5"),
                                (toy, "preset", None), (toy, "mel", toy.augment),
                                (toy.synthetic, "test_classes", (2, 5.0)),
                                (toy, "pinned_labels", "Speech")):
        with pytest.raises(ConfigError, match=rf"^{field}(\[1\])? must be "):
            dataclasses.replace(block, **{field: value})
    for value in (4.0, True):
        with pytest.raises(ConfigError, match="^n_classes must be an integer"):
            backbones.HeadConfig(n_classes=value, m=8)
    with pytest.raises(ConfigError, match="^n must be an integer"):
        crossmodal.ProjectionConfig(m=8, n=4.0, hidden=4, dropout_rate=0.1)


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
    rc = cli.main(["synth", "--config", str(cfg_path), "--out", str(corpus)])
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
                   "--corpus", cli_env["corpus"], "--out", str(bb)])
    assert rc == 0
    model = backbones.TransformerBackbone.load(bb)
    assert model.kind == "transformer"
    info = json.loads((root / "bb.ckpt.json").read_text())
    assert info["epochs_done"] == 2
    assert len(info["loss_history"]) == 2

    proj = root / "proj.ckpt"
    rc = cli.main(["train-projection", "--config", cli_env["config"],
                   "--corpus", cli_env["corpus"], "--backbone", str(bb),
                   "--out", str(proj)])
    assert rc == 0
    sel = json.loads((root / "proj.ckpt.json").read_text())
    assert "best_epoch" in sel["selection"]

    report = root / "report.json"
    rc = cli.main(["evaluate", "--config", cli_env["config"],
                   "--corpus", cli_env["corpus"], "--backbone", str(bb),
                   "--projection", str(proj),
                   "--out", str(report)])
    assert rc == 0
    data = json.loads(report.read_text())
    assert data["per_seed"][0]["mean_ap"] is not None
    assert data["version"].startswith("zsat-")


def _untrained_artifacts(cli_env, root):
    """An untrained backbone of the configured kind and a projection that
    fits it, written without any training."""
    cfg = load_config_file(cli_env["config"])
    rng = np.random.default_rng(0)
    bb, proj = root / "bb0.ckpt", root / "proj0.ckpt"
    experiments.build_backbone(cfg, rng).save(bb)
    crossmodal.Projection(crossmodal.ProjectionConfig(
        experiments.embed_dim(cfg), cfg.synthetic.semantic_dim, 16, 0.2), rng).save(proj)
    return cfg, bb, proj


def test_backbone_checked_against_config_on_load(cli_env, tmp_path, monkeypatch):
    """A transformer checkpoint run under another kind or embed dim is a
    data error, in train-projection and evaluate alike, found before any
    WAV is read."""
    _, bb, proj = _untrained_artifacts(cli_env, tmp_path)

    def no_wav(*args, **kwargs):
        raise AssertionError("WAV read before the backbone was checked")
    monkeypatch.setattr(dsp, "load_wav", no_wav)
    base = json.loads(open(cli_env["config"]).read())
    for name, override in (("kind", {"backbone": "cnn14"}),
                           ("dim", {"transformer": {"embed_dim": 16}})):
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps({**base, **override}))
        common = ["--config", str(cfg_path), "--corpus", cli_env["corpus"],
                  "--backbone", str(bb)]
        assert cli.main(["train-projection", *common,
                         "--out", str(tmp_path / f"p_{name}.ckpt")]) == 3
        assert cli.main(["evaluate", *common, "--projection", str(proj),
                         "--out", str(tmp_path / f"r_{name}.json")]) == 3
        assert not (tmp_path / f"p_{name}.ckpt").exists()


def test_evaluate_category_map(cli_env, tmp_path):
    """Per-category accuracy equals forced choice among each category's test
    classes, scored one clip at a time; a category with fewer than two test
    classes reports None."""
    cfg, bb, proj = _untrained_artifacts(cli_env, tmp_path)
    cats = {"c02": "a", "c05": "a", "c08": "a", "c11": "b", "c00": "c"}
    cat_path = tmp_path / "categories.json"
    cat_path.write_text(json.dumps(cats))
    report = tmp_path / "report.json"
    assert cli.main(["evaluate", "--config", cli_env["config"],
                     "--corpus", cli_env["corpus"], "--backbone", str(bb),
                     "--projection", str(proj), "--category-map", str(cat_path),
                     "--out", str(report)]) == 0
    got = json.loads(report.read_text())["per_seed"][0]["per_category_accuracy"]
    assert got["b"] is None and got["c"] is None

    corpus = experiments.load_corpus(cli_env["corpus"], cfg.mel)
    model = backbones.TransformerBackbone.load(bb)
    params = crossmodal.Projection.load(proj)
    ids = ["c02", "c05", "c08"]
    hits = []
    for r in corpus.records:
        if r.split == "test" and len(r.tags) == 1 and r.tags[0] in ids:
            emb, _ = model.embed_batch(corpus.spectrograms[r.clip_id][None])
            out, _ = crossmodal.project_batch(emb.astype(np.float64), params)
            logits = [float(out[0] @ corpus.class_embeddings[c]) for c in ids]
            hits.append(ids[int(np.argmax(logits))] == r.tags[0])
    assert len(hits) > 0
    assert got["a"] == pytest.approx(np.mean(hits), abs=1e-12)


@pytest.mark.parametrize("kind", ["transformer", "cnn14"])
def test_trained_modules_score_as_their_reloaded_checkpoints(cli_env, tmp_path, kind):
    """The backbone and projection an in-process run trains, and their
    reloaded checkpoints, give byte-identical projected test scores and the
    same zero-shot report: a module in memory is its checkpoint."""
    cfg = dataclasses.replace(load_config_file(cli_env["config"]), backbone=kind)
    corpus = experiments.load_corpus(cli_env["corpus"], cfg.mel)
    model, _, _ = experiments.run_pretrain(cfg, corpus, seed=0, epochs=1)
    proj, _ = experiments.run_projection(cfg, corpus, model, seed=0)
    model.save(tmp_path / "bb.ckpt")
    proj.save(tmp_path / "proj.ckpt")
    back = (type(model).load(tmp_path / "bb.ckpt"),
            crossmodal.Projection.load(tmp_path / "proj.ckpt"))
    test = [corpus.spectrograms[r.clip_id] for r in corpus.records if r.split == "test"]
    scores = [crossmodal.project_batch(m.embed(test), p)[0].tobytes()
              for m, p in ((model, proj), back)]
    assert scores[0] == scores[1]
    assert (experiments.evaluate_zero_shot(corpus, model, proj)
            == experiments.evaluate_zero_shot(corpus, *back))


def test_pretrain_resume_continues_epoch_counter(cli_env, tmp_path):
    cfg1 = tmp_path / "one_epoch.json"
    base = json.loads(open(cli_env["config"]).read())
    base["pretrain"]["epochs"] = 1
    cfg1.write_text(json.dumps(base))
    bb = tmp_path / "bb_r.ckpt"
    assert cli.main(["pretrain", "--config", str(cfg1), "--corpus",
                     cli_env["corpus"], "--out", str(bb)]) == 0
    assert json.loads((tmp_path / "bb_r.ckpt.json").read_text())["epochs_done"] == 1
    assert cli.main(["pretrain", "--config", cli_env["config"], "--corpus",
                     cli_env["corpus"], "--out", str(bb), "--resume"]) == 0
    info = json.loads((tmp_path / "bb_r.ckpt.json").read_text())
    assert info["epochs_done"] == 2
    assert len(info["loss_history"]) == 2


def test_pretrain_resume_rejects_a_backbone_its_info_file_does_not_describe(
        cli_env, tmp_path, monkeypatch, capsys):
    """A `--resume` killed after it writes the backbone and before the head
    leaves a 2-epoch backbone beside the 1-epoch head and info file; the
    next `--resume` is a data error naming the backbone file."""
    cfg1 = tmp_path / "one_epoch.json"
    base = json.loads(open(cli_env["config"]).read())
    base["pretrain"]["epochs"] = 1
    cfg1.write_text(json.dumps(base))
    bb = tmp_path / "bb_k.ckpt"
    assert cli.main(["pretrain", "--config", str(cfg1), "--corpus",
                     cli_env["corpus"], "--out", str(bb)]) == 0
    resume = ["pretrain", "--config", cli_env["config"], "--corpus",
              cli_env["corpus"], "--out", str(bb), "--resume"]

    class Killed(Exception):
        pass

    def killed(self, path):
        raise Killed
    with monkeypatch.context() as m:
        m.setattr(backbones.ClassifierHead, "save", killed)
        with pytest.raises(Killed):
            cli.main(resume)
    assert json.loads((tmp_path / "bb_k.ckpt.json").read_text())["epochs_done"] == 1
    capsys.readouterr()
    assert cli.main(resume) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and f"{bb} is not the file" in err


def test_multi_seed_aggregate_is_named_from_the_template(cli_env, tmp_path):
    """`{seed}` is the one field of a path template; other braces are kept
    as they are, in `--backbone` and `--out` alike."""
    _, bb, _ = _untrained_artifacts(cli_env, tmp_path)
    for seed in (0, 1):
        (tmp_path / f"bb{seed}_{{run}}.ckpt").write_bytes(bb.read_bytes())
    out = tmp_path / "out"
    out.mkdir()
    assert cli.main(["train-projection", "--config", cli_env["config"],
                     "--corpus", cli_env["corpus"], "--seed", "0", "--seed", "1",
                     "--backbone", str(tmp_path / "bb{seed}_{run}.ckpt"),
                     "--out", str(out / "proj{seed}_{run}.ckpt")]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "proj0_{run}.ckpt", "proj0_{run}.ckpt.json", "proj1_{run}.ckpt",
        "proj1_{run}.ckpt.json", "proj_{run}_aggregate.json"]
    assert not [p for p in tmp_path.rglob("*") if "{seed}" in str(p)]


def test_fold_split_command(tmp_path):
    counts = tmp_path / "counts.csv"
    counts.write_text("class_id,label,count\nA,Alpha,10\nB,Bravo,8\n"
                      "C,Charlie,6\nD,Delta,4\nE,Speech,2\n")
    out = tmp_path / "folds.json"
    assert cli.main(["fold-split", "--counts", str(counts), "--preset", "toy",
                     "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["pinned"] == ["E"]
    assert data["pinned_labels"] == ["Speech"]
    assert sorted(c for f in data["folds"] for c in f) == ["A", "B", "C", "D"]


# --- exit codes ---------------------------------------------------------------------

def _corpus_variant(cli_env, root, keep):
    """A copy of the test corpus whose manifest holds `keep(records)`; clip
    paths point back at the original audio."""
    src = Path(cli_env["corpus"])
    root.mkdir()
    for name in ("classes.json", "word_vectors.txt"):
        (root / name).write_bytes((src / name).read_bytes())
    recs = [json.loads(line) for line in
            (src / "manifest.jsonl").read_text().splitlines()]
    for r in recs:
        r["path"] = str(src / r["path"])
    (root / "manifest.jsonl").write_text(
        "".join(json.dumps(r) + "\n" for r in keep(recs)))
    return str(root)


def _exit_code_cases(cli_env, tmp_path):
    """(case, argv, expected exit code, fails before any WAV is read)."""
    cfg, corpus = cli_env["config"], cli_env["corpus"]
    base = json.loads(Path(cfg).read_text())
    cfg_obj, bb, proj = _untrained_artifacts(cli_env, tmp_path)
    model = backbones.TransformerBackbone.load(bb)
    no_cls_bb = tmp_path / "no_cls_bb.ckpt"
    checkpoint.save_checkpoint(no_cls_bb, model.kind, model.hyperparams(),
                               {k: v for k, v in model.params.items() if k != "cls"})
    bogus_bb = tmp_path / "bogus_bb.ckpt"
    checkpoint.save_checkpoint(bogus_bb, model.kind, {**model.hyperparams(), "bogus": 1},
                               {**model.params, **model.stats})
    vggish5_bb = tmp_path / "vggish5_bb.ckpt"
    checkpoint.save_checkpoint(vggish5_bb, "vggish", dataclasses.asdict(
        ConvConfig(channels=(2, 2, 3, 3, 4))), {})
    nan_bb = tmp_path / "nan_bb.ckpt"
    model.params["proj_w"][0, 0] = np.nan
    model.save(nan_bb)
    params = crossmodal.Projection.load(proj)
    no_w2_proj = tmp_path / "no_w2_proj.ckpt"
    checkpoint.save_checkpoint(no_w2_proj, "projection", params.hyperparams(),
                               {k: v for k, v in {**params.params, **params.stats}.items()
                                if k != "w2"})
    short_b1_proj = tmp_path / "short_b1_proj.ckpt"
    checkpoint.save_checkpoint(short_b1_proj, "projection", params.hyperparams(),
                               {**params.params, **params.stats, "b1": np.zeros(3)})
    float_heads_bb = tmp_path / "float_heads_bb.ckpt"
    checkpoint.save_checkpoint(float_heads_bb, model.kind,
                               {**model.hyperparams(), "n_heads": 4.0},
                               {**model.params, **model.stats})
    no_channels_bb = tmp_path / "no_channels_bb.ckpt"
    checkpoint.save_checkpoint(no_channels_bb, "cnn14", {
        **dataclasses.asdict(cfg_obj.conv), "channels": []}, {})

    def per_seed(name, *files):
        """A `{seed}` path template whose seed-i file is a copy of files[i]."""
        for i, src in enumerate(files):
            (tmp_path / f"{name}{i}.ckpt").write_bytes(src.read_bytes())
        return str(tmp_path / f"{name}{{seed}}.ckpt")

    def write(name, text):
        (tmp_path / name).write_text(text)
        return str(tmp_path / name)

    def resumable(name, head_tensors, hashed=True, **fields):
        """A backbone checkpoint at `name` with a one-epoch info file and a
        head holding `head_tensors` under the block its weight implies,
        ready for `pretrain --resume`. The info file records the two files'
        sha256 unless `hashed` is false; `fields` replace its entries."""
        out = tmp_path / name
        out.write_bytes(bb.read_bytes())
        n_classes, m = head_tensors["weight"].shape
        checkpoint.save_checkpoint(f"{out}.head", "head",
                                   {"n_classes": n_classes, "m": m}, head_tensors)
        info = {"epochs_done": 1, "loss_history": [0.7], "train_classes": train, **fields}
        if hashed:
            for key, path in (("backbone", out), ("head", Path(f"{out}.head"))):
                info[f"{key}_sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
        write(f"{name}.json", json.dumps(info))
        return str(out)

    train = json.loads((Path(corpus) / "classes.json").read_text())["train"]
    head = {"weight": np.zeros((len(train), experiments.embed_dim(cfg_obj))),
            "bias": np.zeros(len(train))}
    resumable("run0.ckpt", head)   # and no run1.ckpt

    def config(name, override):
        return write(f"{name}.json", json.dumps(
            override if not isinstance(override, dict) else {**base, **override}))

    dup = _corpus_variant(cli_env, tmp_path / "dup", lambda recs: recs + [
        {**recs[0], "path": recs[1]["path"]}])
    no_val = _corpus_variant(cli_env, tmp_path / "no_val", lambda recs: [
        r for r in recs if r["split"] != "val"])
    bad_split = _corpus_variant(cli_env, tmp_path / "bad_split", lambda recs: [
        {**r, "split": "Test"} if r is recs[-1] else r for r in recs])
    str_tags = _corpus_variant(cli_env, tmp_path / "str_tags", lambda recs: [
        {**r, "tags": "".join(r["tags"])} if r is recs[0] else r for r in recs])
    meta = json.loads((Path(corpus) / "classes.json").read_text())

    def classes(name, **fields):
        """A copy of the test corpus whose classes.json has `fields` replaced."""
        root = _corpus_variant(cli_env, tmp_path / name, lambda recs: recs)
        (Path(root) / "classes.json").write_text(json.dumps({**meta, **fields}))
        return root
    no_labels = classes("no_labels", labels={}, train=[], test=[])
    nan_vectors = _corpus_variant(cli_env, tmp_path / "nan_vectors", lambda recs: recs)
    vec_path = Path(nan_vectors) / "word_vectors.txt"
    first, *rest = vec_path.read_text().splitlines(keepends=True)
    vec_path.write_text(first.rsplit(" ", 1)[0] + " nan\n" + "".join(rest))
    out = str(tmp_path / "out")
    pretrain = ["pretrain", "--out", out]
    project = ["train-projection", "--backbone", str(bb), "--out", out]
    evaluate = ["evaluate", "--backbone", str(bb), "--projection", str(proj),
                "--out", out]
    fold_split = ["fold-split", "--config", cfg, "--out", out, "--counts"]
    resume = ["pretrain", "--config", cfg, "--corpus", corpus, "--resume", "--out"]
    held_out = [*pretrain, "--config", cfg, "--corpus", corpus, "--fold-id", "1", "--folds"]
    synonyms = [*pretrain, "--config", cfg, "--corpus", corpus, "--exclude",
                write("first.json", json.dumps([train[0]])), "--synonyms"]
    # seed 0's inputs are good and seed 1's are bad
    two_seeds = ["--seed", "0", "--seed", "1", "--config", cfg, "--corpus", corpus]
    return [
        ("duplicate clip id", [*pretrain, "--config", cfg, "--corpus", dup], 3, True),
        ("empty val split", [*project, "--config", cfg, "--corpus", no_val], 3, False),
        ("unknown split", [*evaluate, "--config", cfg, "--corpus", bad_split], 3, True),
        ("manifest tags a string", [*pretrain, "--config", cfg, "--corpus", str_tags],
         3, True),
        ("empty labels map", [*evaluate, "--config", cfg, "--corpus", no_labels],
         3, True),
        ("classes train an int",
         [*pretrain, "--config", cfg, "--corpus", classes("train_int", train=5)], 3, True),
        ("classes test an int",
         [*evaluate, "--config", cfg, "--corpus", classes("test_int", test=5)], 3, True),
        ("classes train holding a list",
         [*pretrain, "--config", cfg, "--corpus", classes("train_nested", train=[train])],
         3, True),
        ("classes label an int",
         [*evaluate, "--config", cfg, "--corpus", classes("label_int", labels={
             **meta["labels"], train[0]: 5})], 3, True),
        ("word vector not finite", [*project, "--config", cfg, "--corpus", nan_vectors],
         3, True),
        ("NaN backbone checkpoint", ["train-projection", "--backbone", str(nan_bb),
                                     "--out", out, "--config", cfg, "--corpus", corpus],
         3, True),
        ("short CSV row", [*fold_split, write("short.csv", "A,Alpha,3\nB,Bravo\n")],
         3, True),
        ("non-integer count", [*fold_split, write("count.csv", "A,Alpha,many\n")],
         3, True),
        ("vggish window of another mel resolution",
         [*pretrain, "--config", config("vggish128", {"backbone": "vggish",
                                                     "mel": {"n_mels": 128}}),
          "--corpus", corpus], 2, True),
        ("projection dropout out of range",
         [*project, "--config", config("dropout", {"projection_dropout": 1.5}),
          "--corpus", corpus], 2, True),
        ("settings block not an object",
         [*pretrain, "--config", config("block", {"pretrain": 5}), "--corpus", corpus],
         2, True),
        ("seeds not a list", [*pretrain, "--config", config("seeds", {"seeds": 5}),
                              "--corpus", corpus], 2, True),
        ("config file not an object", [*pretrain, "--config", config("five", 5),
                                       "--corpus", corpus], 2, True),
        ("--synonyms without --exclude",
         [*pretrain, "--config", cfg, "--corpus", corpus,
          "--synonyms", write("synonyms.json", "{}")], 2, True),
        ("category map a list", [*evaluate, "--config", cfg, "--corpus", corpus,
                                 "--category-map", write("cats.json", '["c02"]')],
         3, True),
        ("category map value a list",
         [*evaluate, "--config", cfg, "--corpus", corpus,
          "--category-map", write("cat_list.json", '{"c02": ["a"]}')], 3, True),
        ("category map of classes not in the corpus",
         [*evaluate, "--config", cfg, "--corpus", corpus,
          "--category-map", write("cat_unknown.json", '{"zz01": "a", "zz02": "a"}')],
         3, True),
        ("patchout drops as wide as the grid",
         [*pretrain, "--config", config("drop12", {"transformer": {"n_time_drop": 12}}),
          "--corpus", corpus], 3, True),
        ("vggish window smaller than its pooling",
         [*pretrain, "--config", config("vggish8", {"backbone": "vggish",
                                                   "conv": {"vggish_time": 8}}),
          "--corpus", corpus], 2, True),
        ("conv block without channels",
         ["train-projection", "--backbone", str(no_channels_bb), "--out", out,
          "--config", config("no_channels", {"backbone": "cnn14",
                                             "conv": {"channels": []}}),
          "--corpus", corpus], 2, True),
        ("backbone kind mismatch",
         [*project, "--config", config("kind", {"backbone": "cnn14"}),
          "--corpus", corpus], 3, True),
        ("backbone missing a tensor",
         ["evaluate", "--backbone", str(no_cls_bb), "--projection", str(proj),
          "--out", out, "--config", cfg, "--corpus", corpus], 3, True),
        ("backbone block with an unknown field",
         ["evaluate", "--backbone", str(bogus_bb), "--projection", str(proj),
          "--out", out, "--config", cfg, "--corpus", corpus], 3, True),
        ("backbone n_heads a float",
         ["evaluate", "--backbone", str(float_heads_bb), "--projection", str(proj),
          "--out", out, "--config", cfg, "--corpus", corpus], 3, True),
        ("vggish block with 5 channels",
         ["evaluate", "--backbone", str(vggish5_bb), "--projection", str(proj),
          "--out", out, "--config", config("vggish", {"backbone": "vggish"}),
          "--corpus", corpus], 3, True),
        ("projection missing a tensor",
         ["evaluate", "--backbone", str(bb), "--projection", str(no_w2_proj),
          "--out", out, "--config", cfg, "--corpus", corpus], 3, True),
        ("projection b1 disagrees with its hidden width",
         ["evaluate", "--backbone", str(bb), "--projection", str(short_b1_proj),
          "--out", out, "--config", cfg, "--corpus", corpus], 3, True),
        ("resume with other training classes",
         ["pretrain", "--config", cfg, "--corpus", corpus, "--resume",
          "--out", resumable("other.ckpt", head),
          "--exclude", write("exclude.json", json.dumps([train[0]]))], 3, True),
        ("resume head missing a tensor",
         ["pretrain", "--config", cfg, "--corpus", corpus, "--resume",
          "--out", resumable("no_bias.ckpt", {"weight": head["weight"]})], 3, True),
        ("resume head of another width",
         ["pretrain", "--config", cfg, "--corpus", corpus, "--resume",
          "--out", resumable("narrow.ckpt", {"weight": np.zeros((len(train), 5)),
                                             "bias": head["bias"]})], 3, True),
        ("resume info file without the files' sha256",
         ["pretrain", "--config", cfg, "--corpus", corpus, "--resume",
          "--out", resumable("unhashed.ckpt", head, hashed=False)], 3, True),
        ("resume epochs_done a string",
         [*resume, resumable("str_done.ckpt", head, epochs_done="1")], 3, True),
        ("resume epochs_done a bool",
         [*resume, resumable("bool_done.ckpt", head, epochs_done=True)], 3, True),
        ("resume epochs_done negative",
         [*resume, resumable("neg_done.ckpt", head, epochs_done=-1, loss_history=[])],
         3, True),
        ("resume loss history shorter than its epochs",
         [*resume, resumable("short_history.ckpt", head, loss_history=[])], 3, True),
        ("resume loss history not finite",
         [*resume, resumable("nan_history.ckpt", head, loss_history=[float("nan")])],
         3, True),
        ("resume loss history a string",
         [*resume, resumable("str_history.ckpt", head, loss_history="0.7")], 3, True),
        ("fold file folds an int",
         [*held_out, write("int_folds.json", json.dumps({"folds": 5}))], 3, True),
        ("fold file with a nested fold",
         [*held_out, write("nested_folds.json", json.dumps(
             {"folds": [[train[0]], [[train[1]]]]}))], 3, True),
        ("fold file pinned an int",
         [*held_out, write("int_pinned.json", json.dumps(
             {"folds": [[train[0]], [train[1]]], "pinned": 5}))], 3, True),
        ("exclusion entry an int",
         [*pretrain, "--config", cfg, "--corpus", corpus,
          "--exclude", write("int_exclude.json", "[5]")], 3, True),
        ("synonym value an int",
         [*synonyms, write("int_synonyms.json", json.dumps({train[0]: 5}))], 3, True),
        ("synonym value a string",
         [*synonyms, write("str_synonyms.json", json.dumps({train[0]: train[1]}))],
         3, True),
        ("output directory missing",
         ["pretrain", "--config", cfg, "--corpus", corpus,
          "--out", str(tmp_path / "missing_dir" / "bb.ckpt")], 3, True),
        ("seed 1 backbone missing",
         ["train-projection", *two_seeds, "--backbone", per_seed("lone_bb", bb),
          "--out", str(tmp_path / "trained{seed}.ckpt")], 3, True),
        ("seed 1 projection disagrees with its header",
         ["evaluate", *two_seeds, "--backbone", per_seed("pair_bb", bb, bb),
          "--projection", per_seed("pair_proj", proj, short_b1_proj), "--out", out],
         3, True),
        ("seed 1 has no run to resume",
         ["pretrain", *two_seeds, "--resume", "--out", str(tmp_path / "run{seed}.ckpt")],
         3, True),
        ("backbone dim mismatch",
         [*evaluate, "--config", config("dim", {"transformer": {"embed_dim": 16}}),
          "--corpus", corpus], 3, True),
        ("zero pretrain epochs",
         [*pretrain, "--config", config("e0", {"pretrain": {"epochs": 0}}),
          "--corpus", corpus], 2, True),
        ("zero projection epochs",
         [*project, "--config", config("p0", {"projection": {"epochs": 0}}),
          "--corpus", corpus], 2, True),
        ("cnn14 input with fewer mel bins than its pooling",
         [*pretrain, "--config", config("mel16", {"backbone": "cnn14",
                                                 "mel": {"n_mels": 16}}),
          "--corpus", corpus], 3, False),
        ("divergence",
         [*pretrain, "--config", config("lr", {"pretrain": {"initial_lr": 1e300}}),
          "--corpus", corpus], 4, False),
    ]


def _assert_exits(argv, code, capsys, case=None):
    """`cli.main(argv)` returns `code` and prints one stderr line under that
    kind's label, with no traceback."""
    labels = {k.exit_code: k.label for k in (ConfigError, DataError, NumericalError)}
    capsys.readouterr()
    with np.errstate(all="ignore"):
        assert cli.main(argv) == code, case
    err = capsys.readouterr().err
    assert err.startswith(f"{labels[code]}: ") and err.count("\n") == 1, (case, err)
    assert "Traceback" not in err, case


def test_exit_code_config_error(tmp_path, capsys):
    _assert_exits(["synth", "--preset", "nope", "--out", str(tmp_path / "x")],
                  2, capsys)


@pytest.mark.parametrize("threads", ["0", "-5"])
def test_threads_below_1_exits_2(tmp_path, capsys, monkeypatch, threads):
    """`--threads` below 1 is a configuration error naming the flag, raised
    before any thread cap is set or any file written."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "7")
    capsys.readouterr()
    assert cli.main(["synth", "--preset", "toy", "--threads", threads,
                     "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (f"configuration error: --threads must be "
                                       f">= 1, got {threads}\n")
    assert os.environ["OPENBLAS_NUM_THREADS"] == "7"
    assert not (tmp_path / "out").exists()


def test_exit_code_data_error(tmp_path, cli_env, capsys):
    _assert_exits(["pretrain", "--config", cli_env["config"],
                   "--corpus", str(tmp_path / "missing"),
                   "--out", str(tmp_path / "x.ckpt")], 3, capsys)


@pytest.mark.parametrize("command", [
    ["fold-split", "--counts", "counts.csv"],
    ["pretrain", "--corpus", "corpus"],
    ["train-projection", "--corpus", "corpus", "--backbone", "bb.ckpt"],
    ["evaluate", "--corpus", "corpus", "--backbone", "bb.ckpt", "--projection", "p.ckpt"],
])
def test_missing_output_directory_is_named_before_any_input(tmp_path, capsys, command):
    """Each command that writes `--out` names a missing output directory
    before it reads any input, none of which exists here."""
    missing = tmp_path / "missing"
    capsys.readouterr()
    assert cli.main([*command, "--preset", "toy", "--seed", "0",
                     "--out", str(missing / "out")]) == 3
    assert capsys.readouterr().err == (f"data error: output directory {missing} "
                                       f"does not exist\n")


def test_train_projection_checks_its_aggregate_directory_first(tmp_path, capsys):
    """With `{seed}` in a directory of `--out`, the aggregate goes to that
    directory with `{seed}` removed, which must exist before any input is read."""
    for seed in (0, 1):
        (tmp_path / f"runs{seed}").mkdir()
    capsys.readouterr()
    assert cli.main(["train-projection", "--preset", "toy", "--seed", "0", "--seed", "1",
                     "--corpus", "corpus", "--backbone", "bb{seed}.ckpt",
                     "--out", str(tmp_path / "runs{seed}" / "proj.ckpt")]) == 3
    assert capsys.readouterr().err == (f"data error: output directory "
                                       f"{tmp_path / 'runs'} does not exist\n")


@pytest.mark.parametrize("synthetic", [
    {"semantic_dim": 4},              # the generator's word vectors have 8 dims
    {"n_classes": 60},                # fundamentals closer than one mel bin
    {"clip_seconds": float("nan")},   # JSON's NaN
], ids=["semantic_dim", "n_classes", "clip_seconds"])
def test_synth_config_fault_writes_nothing(tmp_path, capsys, synthetic):
    """A synthetic spec the generator cannot render is a configuration error
    raised before any file is written."""
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"preset": "toy", "synthetic": synthetic}))
    _assert_exits(["synth", "--config", str(cfg_path), "--out", str(tmp_path / "out")],
                  2, capsys)
    assert not (tmp_path / "out").exists()


def test_exit_code_fold_id_out_of_range(cli_env, tmp_path, capsys):
    folds = tmp_path / "folds.json"
    folds.write_text(json.dumps({"folds": [["c00"], ["c01"]], "pinned": []}))
    _assert_exits(["pretrain", "--config", cli_env["config"],
                   "--corpus", cli_env["corpus"], "--folds", str(folds),
                   "--fold-id", "7", "--out", str(tmp_path / "x.ckpt")], 3, capsys)


def test_exit_code_names_the_kind_of_failure(cli_env, tmp_path, monkeypatch, capsys):
    """Each failure exits with its kind's code and prints one stderr line
    under its kind's label, with no traceback; a case marked early fails
    before any WAV is read and leaves every file as it was."""
    load_wav = dsp.load_wav

    def no_wav(*args, **kwargs):
        raise AssertionError("WAV read")
    for case, argv, code, early in _exit_code_cases(cli_env, tmp_path):
        monkeypatch.setattr(dsp, "load_wav", no_wav if early else load_wav)
        before = _tree_hash(tmp_path)
        _assert_exits(argv, code, capsys, case)
        if early:
            assert _tree_hash(tmp_path) == before, case


def test_each_command_reads_exactly_its_clips(cli_env, tmp_path, monkeypatch):
    """Each command reads each WAV it needs once and no other: `pretrain` the
    train-split clips that carry a training class, with or without
    `--exclude`; `train-projection` those and the val split; `evaluate` the
    test split."""
    corpus = Path(cli_env["corpus"])
    records = protocol.load_manifest(corpus / "manifest.jsonl")
    meta = json.loads((corpus / "classes.json").read_text())
    train = meta["train"]
    _, bb, proj = _untrained_artifacts(cli_env, tmp_path)
    cfg = tmp_path / "one_epoch.json"
    cfg.write_text(json.dumps({**json.loads(Path(cli_env["config"]).read_text()),
                               "pretrain": {"epochs": 1}}))
    exclude = tmp_path / "exclude.json"
    exclude.write_text(json.dumps([meta["labels"][train[0]]]))
    trained = protocol.training_records(records, train)
    kept = protocol.training_records(records, train[1:])
    assert len(kept) < len(trained)
    load_wav, read = dsp.load_wav, []

    def spy(path, *args, **kwargs):
        read.append(Path(path))
        return load_wav(path, *args, **kwargs)
    monkeypatch.setattr(dsp, "load_wav", spy)
    for argv, want in (
            (["pretrain", "--out", str(tmp_path / "all.ckpt")], trained),
            (["pretrain", "--exclude", str(exclude), "--out", str(tmp_path / "ex.ckpt")],
             kept),
            (["train-projection", "--backbone", str(bb), "--out", str(tmp_path / "p.ckpt")],
             trained + [r for r in records if r.split == "val"]),
            (["evaluate", "--backbone", str(bb), "--projection", str(proj),
              "--out", str(tmp_path / "r.json")], [r for r in records if r.split == "test"])):
        read.clear()
        assert cli.main([*argv, "--config", str(cfg), "--corpus", str(corpus)]) == 0
        assert sorted(read) == sorted(corpus / r.path for r in want), argv[0]


def test_bad_wav_fails_only_commands_that_read_its_split(cli_env, tmp_path):
    """`pretrain` reads the train-split clips that carry a training class;
    `train-projection` reads those and the val split, `evaluate` only test.
    So each fails on a malformed WAV only in a clip it reads."""
    _, bb, proj = _untrained_artifacts(cli_env, tmp_path)
    bad_wav = tmp_path / "bad.wav"
    bad_wav.write_bytes(b"RIFF0000WAVEnot a wave file")
    train = set(json.loads((Path(cli_env["corpus"]) / "classes.json").read_text())["train"])

    def corrupt(name, pick=None):
        """A corpus whose first clip that `pick` accepts (by default, the
        first clip of split `name`) reads `bad_wav`."""
        pick = pick or (lambda r: r["split"] == name)

        def keep(recs):
            first = next(r for r in recs if pick(r))
            return [{**r, "path": str(bad_wav)} if r is first else r for r in recs]
        return _corpus_variant(cli_env, tmp_path / f"bad_{name}", keep)

    def run(command, corpus, *extra):
        return cli.main([command, "--config", cli_env["config"], "--corpus", corpus,
                         *extra, "--out", str(tmp_path / f"{command}.out")])

    bad_test, bad_train = corrupt("test"), corrupt("train")
    bad_unread = corrupt("unread", lambda r: r["split"] == "train"
                         and not train.intersection(r["tags"]))
    project = ("--backbone", str(bb))
    evaluate = ("--backbone", str(bb), "--projection", str(proj))
    assert run("train-projection", bad_test, *project) == 0
    assert run("evaluate", bad_test, *evaluate) == 3
    assert run("pretrain", bad_train) == 3
    assert run("evaluate", bad_train, *evaluate) == 0
    assert run("pretrain", bad_test) == 0
    assert run("pretrain", bad_unread) == 0
    assert run("train-projection", bad_unread, *project) == 0
    assert run("evaluate", bad_unread, *evaluate) == 0


def test_a_bug_is_not_reported_as_a_kind_of_failure(cli_env, tmp_path, monkeypatch):
    """An exception outside the three kinds propagates out of `cli.main`."""
    _, bb, proj = _untrained_artifacts(cli_env, tmp_path)
    for exc in (KeyError("c02"), ValueError("shapes differ")):
        def bug(*args, **kwargs):
            raise exc
        monkeypatch.setattr(experiments, "evaluate_zero_shot", bug)
        with pytest.raises(type(exc)):
            cli.main(["evaluate", "--config", cli_env["config"],
                      "--corpus", cli_env["corpus"], "--backbone", str(bb),
                      "--projection", str(proj), "--out", str(tmp_path / "r.json")])


def test_every_error_class_is_one_of_the_three_kinds():
    kinds = (ConfigError, DataError, NumericalError)
    assert [k.exit_code for k in kinds] == [2, 3, 4]
    defined = set()
    for info in pkgutil.iter_modules(zsat.__path__):
        module = importlib.import_module(f"zsat.{info.name}")
        for obj in vars(module).values():
            if (inspect.isclass(obj) and issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__):
                defined.add(obj)
                assert issubclass(obj, kinds), obj
    assert set(kinds) <= defined


def test_failed_json_write_keeps_the_previous_file(tmp_path):
    """A payload that cannot be serialized leaves the file it would replace
    byte-identical and no temporary file behind."""
    cfg = resolve_config("toy")
    path = tmp_path / "run.ckpt.json"
    cli._write_json(path, {"epochs_done": 1}, cfg)
    before = path.read_bytes()
    with pytest.raises(TypeError):
        cli._write_json(path, {"epochs_done": 2, "x": object()}, cfg)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


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
                         "--out", str(out)]) == 0
        outs.append(_tree_hash(out))
    assert outs[0] == outs[1]
