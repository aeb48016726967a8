"""Experiment configuration: named presets resolving every hyperparameter,
plus JSON config-file loading with per-field overrides."""

from __future__ import annotations

import dataclasses
import json

from . import __version__
from .backbones import BACKBONE_KINDS, ConvConfig, TransformerConfig
from .crossmodal import TrainConfig, check_dropout_rate
from .dsp import AugmentConfig, MelConfig
from .errors import ConfigError, Count, settings
from .protocol import SyntheticSpec


@settings
class ExperimentConfig:
    preset: str
    backbone: str                       # transformer|cnn14|vggish
    mel: MelConfig
    augment: AugmentConfig
    transformer: TransformerConfig
    conv: ConvConfig
    pretrain: TrainConfig
    projection: TrainConfig
    projection_hidden: Count
    projection_dropout: float
    projection_val_fraction: float      # training classes held out to select an epoch
    synthetic: SyntheticSpec
    fold_k: int = 5
    pinned_labels: tuple[str, ...] = ("Speech", "Music")
    seeds: tuple[int, ...] = (0, 1, 2)

    def __post_init__(self):
        if self.backbone not in BACKBONE_KINDS:
            raise ConfigError(f"unknown backbone kind {self.backbone!r}; choose "
                              f"from {sorted(BACKBONE_KINDS)}")
        if not self.seeds or min(self.seeds) < 0:
            raise ConfigError("seeds must be a non-empty list of integers >= 0")
        check_dropout_rate(self.projection_dropout, "projection_dropout")
        if not 0 < self.projection_val_fraction < 1:
            raise ConfigError(f"projection_val_fraction must be a number in (0, 1), "
                              f"not {self.projection_val_fraction!r}")
        if self.backbone == "vggish" and self.conv.vggish_mels != self.mel.n_mels:
            raise ConfigError(f"vggish_mels {self.conv.vggish_mels} must equal the "
                              f"frontend's n_mels {self.mel.n_mels}")
        # the backbone's own rules, such as VGGish's six conv layers
        BACKBONE_KINDS[self.backbone].blank(self.backbone_settings()).tensors()

    def backbone_settings(self):
        """The settings block of the configured backbone kind."""
        return getattr(self, BACKBONE_KINDS[self.backbone].config_key)

    def echo(self) -> dict:
        """Resolved config + version string, embedded in output artifacts."""
        return {"version": f"zsat-{__version__}", "config": dataclasses.asdict(self)}


# every preset is the dataclass defaults plus what is written here
_TOY_MEL = MelConfig(n_mels=64)

_PAPER_AUG = AugmentConfig(mixup_alpha=0.3, n_time_masks=2, n_freq_masks=2,
                           max_mask_width=8, max_time_shift=50, max_freq_shift=4,
                           gain_range_db=6.0)

_TOY_PRETRAIN = TrainConfig(initial_lr=1e-3, warmup_epochs=2, decay_start_epoch=20,
                            decay_end_epoch=30, final_lr=1e-5, epochs=30, batch_size=8)
_TOY_PROJECTION = dataclasses.replace(_TOY_PRETRAIN, epochs=10, warmup_epochs=1,
                                      decay_start_epoch=6, decay_end_epoch=10)
_TOY_AUG = AugmentConfig(mixup_alpha=0.5, max_time_shift=8, max_freq_shift=3,
                         gain_range_db=3.0)
_TOY_SYNTH = SyntheticSpec(clips_per_class=30, fmax_hz=2400.0, mel=_TOY_MEL)
# graded variant: a contiguous block of held-out classes, so some test classes
# sit close to surviving training classes and some far
_TOY_SYNTH_GRADED = dataclasses.replace(_TOY_SYNTH, test_classes=(1, 4, 5, 6))

_TOY_TRANSFORMER = TransformerConfig(d=64, n_heads=4, n_layers=2, patch_f=8,
                                     patch_t=8, max_t_patches=13, embed_dim=32,
                                     n_freq_drop=1, n_time_drop=2)

_TOY_CONV = ConvConfig(channels=(8, 16, 32, 32, 64, 64), fc_units=64, embed_dim=32)


def _toy_preset(name: str, synth: SyntheticSpec) -> ExperimentConfig:
    return ExperimentConfig(
        preset=name, backbone="transformer", mel=_TOY_MEL, augment=_TOY_AUG,
        transformer=_TOY_TRANSFORMER, conv=_TOY_CONV, pretrain=_TOY_PRETRAIN,
        projection=_TOY_PROJECTION, projection_hidden=64, projection_dropout=0.1,
        projection_val_fraction=0.13, synthetic=synth, fold_k=3)


PRESETS = {
    "toy": _toy_preset("toy", _TOY_SYNTH),
    "toy-graded": _toy_preset("toy-graded", _TOY_SYNTH_GRADED),
    # the paper's dataset comes from --corpus
    "paper": ExperimentConfig(
        preset="paper", backbone="transformer", mel=MelConfig(), augment=_PAPER_AUG,
        transformer=TransformerConfig(n_freq_drop=2, n_time_drop=10),
        conv=ConvConfig(vggish_mels=128), pretrain=TrainConfig(), projection=TrainConfig(epochs=10),
        projection_hidden=1024, projection_dropout=0.2, projection_val_fraction=0.1,
        synthetic=_TOY_SYNTH),
}


def resolve_config(preset: str, overrides: dict | None = None) -> ExperimentConfig:
    """Look up a preset and apply nested override dicts (from a config file)."""
    if not isinstance(preset, str) or preset not in PRESETS:
        raise ConfigError(f"unknown preset {preset!r}; choose from "
                          f"{sorted(PRESETS)}")
    return _override(PRESETS[preset], {k: v for k, v in (overrides or {}).items()
                                       if k != "preset"})


def _override(block, changes: dict, path: str = ""):
    """`block` with `changes` applied at any depth, inner blocks first: one
    replace per level, so the checks across fields see every override."""
    names, new = {f.name for f in dataclasses.fields(block)}, {}
    for key, value in changes.items():
        where = path + key
        if key not in names:
            raise ConfigError(f"unknown config key {where!r}")
        if dataclasses.is_dataclass(getattr(block, key)):
            if not isinstance(value, dict):
                raise ConfigError(f"{where} must be an object of settings, not {value!r}")
            value = _override(getattr(block, key), value, where + ".")
        new[key] = value
    try:
        return dataclasses.replace(block, **new)
    except ConfigError as exc:
        if not path:
            raise
        raise ConfigError(f"bad override for {path[:-1]}: {exc}") from exc


def load_config_file(path) -> ExperimentConfig:
    """JSON config file: {"preset": "toy", ...field overrides...}."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or "preset" not in data:
        raise ConfigError(f"config file {path} must be a JSON object naming a preset")
    return resolve_config(data["preset"], data)
