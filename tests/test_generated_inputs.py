"""Generated inputs: config overrides drawn from the presets' own settings,
and byte-mutated checkpoints. No input makes `zsat` exit 1: each run ends
in success or in one of the three kinds of failure. The draws are
derandomized and their values small, so each test runs the same examples
every time, in seconds."""

import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from zsat import backbones, cli, crossmodal, experiments
from zsat.backbones import BACKBONE_KINDS
from zsat.config import PRESETS, load_config_file
from zsat.errors import ConfigError, DataError


def _leaves(block, path=()):
    """(key path, value) of every setting in `block` that is not itself a block."""
    for f in dataclasses.fields(block):
        value = getattr(block, f.name)
        if dataclasses.is_dataclass(value):
            yield from _leaves(value, (*path, f.name))
        else:
            yield (*path, f.name), value


LEAVES = dict(_leaves(PRESETS["toy"]))

# small values: a drawn config that resolves builds a model of a few MB at
# most and synthesizes a corpus in well under a second
_INTS = st.one_of(st.integers(-1, 4), st.sampled_from([8, 16, 64]))
_FLOATS = st.sampled_from([-1.0, 0.0, 0.25, 1.5, float("nan"), float("inf")])
_STRINGS = st.sampled_from(["", "x", "toy", "transformer", "cnn14", "vggish"])
_SCALARS = st.one_of(st.none(), st.booleans(), _INTS, _FLOATS, _STRINGS)
_ANY = st.one_of(_SCALARS, st.lists(_SCALARS, max_size=3),
                 st.dictionaries(st.sampled_from(["n_mels", "x"]), _SCALARS, max_size=1))


def _value(own):
    """A value for the setting whose preset value is `own`: three times in
    four of its own kind, so that drawn configs often resolve, else of any
    JSON kind."""
    if isinstance(own, tuple):
        kind = st.lists(_value(own[0]), max_size=6)
    else:
        kind = {int: _INTS, float: st.one_of(_FLOATS, _INTS), str: _STRINGS}[type(own)]
    return st.integers(0, 3).flatmap(lambda i: kind if i else _ANY)


_CHANGES = st.lists(st.sampled_from(sorted(LEAVES)).flatmap(
    lambda leaf: st.tuples(st.just(leaf), _value(LEAVES[leaf]))), min_size=1, max_size=3)

# the corpus every drawn config synthesizes unless it overrides these
_TINY = {"synthetic": {"clips_per_class": 1, "n_multilabel": 2, "clip_seconds": 0.25}}


def _nest(changes: list) -> dict:
    """[(("a", "b"), v)] as {"a": {"b": v}}, over a copy of `_TINY`."""
    out = json.loads(json.dumps(_TINY))
    for path, value in changes:
        block = out
        for key in path[:-1]:
            block = block.setdefault(key, {})
        block[path[-1]] = value
    return out


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(st.sampled_from(sorted(BACKBONE_KINDS)), _CHANGES)
def test_drawn_config_exits_with_a_known_code(kind, changes):
    """A drawn config makes `synth` exit 0, 2, 3 or 4, and an exit 2 leaves
    no output directory. A config that resolves builds its backbone, which
    embeds a small input or refuses it as a data error."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path, out = Path(tmp) / "c.json", Path(tmp) / "corpus"
        cfg_path.write_text(json.dumps({"preset": "toy", "backbone": kind,
                                        **_nest(changes)}))
        with np.errstate(all="ignore"):
            code = cli.main(["synth", "--config", str(cfg_path), "--out", str(out)])
        assert code in (0, 2, 3, 4)
        if code == 2:
            assert not out.exists()
        try:
            cfg = load_config_file(cfg_path)
        except ConfigError:
            assert code == 2
            return
    model = experiments.build_backbone(cfg, np.random.default_rng(0))
    x = np.random.default_rng(1).standard_normal((1, cfg.mel.n_mels, 100))
    try:
        emb, _ = model.embed_batch(x)
    except DataError:
        return
    assert emb.shape == (1, experiments.embed_dim(cfg))


def _small_modules() -> list:
    """One small module of every kind a checkpoint holds."""
    rng = np.random.default_rng(0)
    conv = backbones.ConvConfig(channels=(2, 2, 3, 3, 4, 4), fc_units=6, embed_dim=4,
                                vggish_time=16, vggish_mels=16)
    return [
        backbones.TransformerBackbone(backbones.TransformerConfig(
            d=4, n_heads=2, n_layers=1, patch_f=4, patch_t=4, max_f_patches=2,
            max_t_patches=3, embed_dim=3, ffn_mult=1), rng),
        backbones.Cnn14Backbone(conv, rng), backbones.VggishBackbone(conv, rng),
        backbones.ClassifierHead(backbones.HeadConfig(n_classes=3, m=4), rng),
        crossmodal.Projection(crossmodal.ProjectionConfig(4, 3, 5, 0.1), rng)]


MODULES = _small_modules()
# a u32 length, count or rank field set to one of these reads past the file,
# asks for an empty tensor or for a rank numpy cannot build
_FIELDS = [0, 1, 4, 32, 33, 65, 2 ** 31, 2 ** 32 - 1]


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.sampled_from(MODULES), st.data())
def test_mutated_checkpoint_loads_or_is_a_data_error(module, data):
    """A checkpoint with bytes overwritten, a field replaced or its tail cut
    off loads through `Module.load`, or is refused as a data error."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.ckpt"
        module.save(path)
        raw = bytearray(path.read_bytes())
        # the header (magic, kind, hyperparameters, first tensor's name and
        # rank) is where one changed byte reaches furthest
        header = raw.index(b"}") + 32
        for _ in range(data.draw(st.integers(1, 4))):
            at = data.draw(st.integers(0, header))
            if data.draw(st.booleans()):
                raw[at] = data.draw(st.integers(0, 255))
            else:
                raw[at:at + 4] = data.draw(st.sampled_from(_FIELDS)).to_bytes(4, "little")
        if data.draw(st.booleans()):
            raw = raw[:data.draw(st.integers(0, len(raw)))]
        path.write_bytes(raw)
        try:
            type(module).load(path)
        except DataError:
            pass
