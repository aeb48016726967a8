"""Experiment configuration: named presets resolving every hyperparameter,
plus JSON config-file loading with per-field overrides."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

from . import __version__
from .backbones import BACKBONE_KINDS, ConvConfig, TransformerConfig
from .crossmodal import TrainConfig
from .dsp import AugmentConfig, MelConfig
from .protocol import SyntheticSpec


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    preset: str
    backbone: str                       # transformer|cnn14|vggish
    mel: MelConfig
    augment: AugmentConfig
    transformer: TransformerConfig
    conv: ConvConfig
    pretrain: TrainConfig
    projection: TrainConfig
    projection_hidden: int
    projection_dropout: float
    synthetic: SyntheticSpec
    fold_k: int = 5
    pinned_labels: tuple = ("Speech", "Music")
    seeds: tuple = (0, 1, 2)

    def __post_init__(self):
        if self.backbone not in BACKBONE_KINDS:
            raise ConfigError(f"unknown backbone kind {self.backbone!r}; choose "
                              f"from {sorted(BACKBONE_KINDS)}")

    def echo(self) -> dict:
        """Resolved config + version string, embedded in output artifacts."""
        return {"version": f"zsat-{__version__}", "config": _to_plain(self)}


def _to_plain(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _to_plain(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, (list, tuple)):
        return [_to_plain(v) for v in obj]
    return obj


_TOY_MEL = MelConfig(sample_rate=32000, window_len=800, hop_len=320, n_mels=64,
                     fmin=0.0, fmax=16000.0, log_floor=1e-5)
_PAPER_MEL = MelConfig(sample_rate=32000, window_len=800, hop_len=320, n_mels=128,
                       fmin=0.0, fmax=16000.0, log_floor=1e-5)
_PAPER_MEL_VGG = dataclasses.replace(_PAPER_MEL, n_mels=64)

_PAPER_PRETRAIN = TrainConfig(initial_lr=2e-5, warmup_epochs=5, decay_start_epoch=50,
                              decay_end_epoch=100, final_lr=1e-7, epochs=130,
                              batch_size=24, beta1=0.9, beta2=0.99, epsilon=1e-8,
                              weight_decay=1e-4, val_class_fraction=0.1)
_PAPER_PROJECTION = dataclasses.replace(_PAPER_PRETRAIN, epochs=10)

_PAPER_AUG = AugmentConfig(mixup_alpha=0.3, n_time_masks=2, n_freq_masks=2,
                           max_mask_width=8, max_time_shift=50, max_freq_shift=4,
                           gain_range_db=6.0, mixup_enabled=True)

_TOY_PRETRAIN = TrainConfig(initial_lr=1e-3, warmup_epochs=2, decay_start_epoch=20,
                            decay_end_epoch=30, final_lr=1e-5, epochs=30,
                            batch_size=8, beta1=0.9, beta2=0.99, epsilon=1e-8,
                            weight_decay=1e-4, val_class_fraction=0.13)
_TOY_PROJECTION = dataclasses.replace(_TOY_PRETRAIN, epochs=10, warmup_epochs=1,
                                      decay_start_epoch=6, decay_end_epoch=10)
_TOY_AUG = AugmentConfig(mixup_alpha=0.5, max_time_shift=8, max_freq_shift=3,
                         gain_range_db=3.0, mixup_enabled=True)
_TOY_SYNTH = SyntheticSpec(n_classes=12, clips_per_class=30, n_multilabel=24,
                           clip_seconds=1.0, sample_rate=32000, fmin_hz=300.0,
                           fmax_hz=2400.0, noise_level=0.01, semantic_dim=8,
                           mel=_TOY_MEL, test_classes=(2, 5, 8, 11))
# graded variant: a contiguous block of held-out classes, so some test classes
# sit close to surviving training classes and some far
_TOY_SYNTH_GRADED = dataclasses.replace(_TOY_SYNTH, test_classes=(1, 4, 5, 6))

_TOY_TRANSFORMER = TransformerConfig(d=64, n_heads=4, n_layers=2, patch_f=8,
                                     patch_t=8, max_f_patches=8, max_t_patches=13,
                                     embed_dim=32, n_freq_drop=1, n_time_drop=2)
_PAPER_TRANSFORMER = TransformerConfig(d=768, n_heads=12, n_layers=12, patch_f=16,
                                       patch_t=16, max_f_patches=8, max_t_patches=64,
                                       embed_dim=768, n_freq_drop=2, n_time_drop=10)

_TOY_CONV = ConvConfig(channels=(8, 16, 32, 32, 64, 64), fc_units=64,
                       embed_dim=32, vggish_time=96, vggish_mels=64)
_PAPER_CNN14 = ConvConfig(channels=(64, 128, 256, 512, 1024, 2048),
                          fc_units=2048, embed_dim=768)
_PAPER_VGGISH = ConvConfig(channels=(64, 128, 256, 256, 512, 512),
                           fc_units=4096, embed_dim=768, vggish_time=96,
                           vggish_mels=64)


def _paper_preset(name: str, backbone: str = "transformer") -> ExperimentConfig:
    mel = _PAPER_MEL_VGG if backbone == "vggish" else _PAPER_MEL
    conv = _PAPER_VGGISH if backbone == "vggish" else _PAPER_CNN14
    batch = 24 if backbone == "transformer" else 32
    pre = dataclasses.replace(_PAPER_PRETRAIN, batch_size=batch)
    return ExperimentConfig(
        preset=name, backbone=backbone, mel=mel, augment=_PAPER_AUG,
        transformer=_PAPER_TRANSFORMER, conv=conv, pretrain=pre,
        projection=dataclasses.replace(_PAPER_PROJECTION, batch_size=batch),
        projection_hidden=1024, projection_dropout=0.2,
        synthetic=_TOY_SYNTH, fold_k=5)


def _toy_preset(name: str, synth: SyntheticSpec) -> ExperimentConfig:
    return ExperimentConfig(
        preset=name, backbone="transformer", mel=_TOY_MEL, augment=_TOY_AUG,
        transformer=_TOY_TRANSFORMER, conv=_TOY_CONV, pretrain=_TOY_PRETRAIN,
        projection=_TOY_PROJECTION, projection_hidden=64, projection_dropout=0.1,
        synthetic=synth, fold_k=3)


PRESETS = {
    "toy": _toy_preset("toy", _TOY_SYNTH),
    "toy-graded": _toy_preset("toy-graded", _TOY_SYNTH_GRADED),
    "audioset-fold": _paper_preset("audioset-fold"),
    "esc50": _paper_preset("esc50"),
    "openmic-inst": _paper_preset("openmic-inst"),
    "openmic-mic": _paper_preset("openmic-mic"),
}

_SUBCONFIG_TYPES = {
    "mel": MelConfig, "augment": AugmentConfig,
    "transformer": TransformerConfig, "conv": ConvConfig,
    "pretrain": TrainConfig, "projection": TrainConfig,
    "synthetic": SyntheticSpec,
}


def resolve_config(preset: str, overrides: dict | None = None) -> ExperimentConfig:
    """Look up a preset and apply nested override dicts (from a config file)."""
    if preset not in PRESETS:
        raise ConfigError(f"unknown preset {preset!r}; choose from "
                          f"{sorted(PRESETS)}")
    cfg = PRESETS[preset]
    for key, value in (overrides or {}).items():
        if key == "preset":
            continue
        if key not in {f.name for f in dataclasses.fields(cfg)}:
            raise ConfigError(f"unknown config key {key!r}")
        if key in _SUBCONFIG_TYPES and isinstance(value, dict):
            sub = getattr(cfg, key)
            if key == "synthetic" and "mel" in value and isinstance(value["mel"], dict):
                value = dict(value)
                value["mel"] = dataclasses.replace(sub.mel, **value["mel"])
            try:
                value = dataclasses.replace(sub, **_tupled(value))
            except TypeError as exc:
                raise ConfigError(f"bad override for {key}: {exc}") from exc
        elif isinstance(value, list):
            value = tuple(value)
        cfg = dataclasses.replace(cfg, **{key: value})
    return cfg


def _tupled(d: dict) -> dict:
    return {k: tuple(v) if isinstance(v, list) else v for k, v in d.items()}


def load_config_file(path) -> ExperimentConfig:
    """JSON config file: {"preset": "toy", ...field overrides...}."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if "preset" not in data:
        raise ConfigError(f"config file {path} must name a preset")
    return resolve_config(data["preset"], data)
