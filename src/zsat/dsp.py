"""Waveform ingestion, log-mel spectrograms, and training-time augmentations."""

from __future__ import annotations

import struct
import wave
from dataclasses import dataclass

import numpy as np


class AudioFormatError(ValueError):
    """Raised for unsupported or malformed audio files."""


class SampleRateMismatch(ValueError):
    """Raised when a file's sample rate disagrees with the configured rate."""


@dataclass
class Waveform:
    samples: np.ndarray  # float in [-1, 1]
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.size == 0:
            raise ValueError("empty waveform")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("non-finite samples")


@dataclass(frozen=True)
class MelConfig:
    sample_rate: int = 32000
    window_len: int = 800
    hop_len: int = 320
    n_mels: int = 128
    fmin: float = 0.0
    fmax: float = 16000.0
    log_floor: float = 1e-5

    def __post_init__(self):
        if not (self.window_len >= self.hop_len > 0):
            raise ValueError("require window_len >= hop_len > 0")
        if not (0 <= self.fmin < self.fmax <= self.sample_rate / 2):
            raise ValueError("require 0 <= fmin < fmax <= sample_rate/2")
        if self.n_mels <= 0:
            raise ValueError("n_mels must be positive")
        if self.log_floor <= 0:
            raise ValueError("log_floor must be positive")


@dataclass
class MelSpectrogram:
    values: np.ndarray  # (n_mels, frames) log-energies
    config: MelConfig

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.ndim != 2 or self.values.shape[0] != self.config.n_mels:
            raise ValueError("values must be (n_mels, frames)")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("non-finite spectrogram values")

    @property
    def n_frames(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class AugmentConfig:
    mixup_alpha: float = 0.3
    n_time_masks: int = 0
    n_freq_masks: int = 0
    max_mask_width: int = 0
    max_time_shift: int = 0
    max_freq_shift: int = 0
    gain_range_db: float = 0.0
    mixup_enabled: bool = False
    specaugment_enabled: bool = True
    shift_enabled: bool = True
    gain_enabled: bool = True

    def __post_init__(self):
        for name in ("n_time_masks", "n_freq_masks", "max_mask_width",
                     "max_time_shift", "max_freq_shift"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.gain_range_db < 0:
            raise ValueError("gain_range_db must be >= 0")


def n_frames(n_samples: int, window_len: int, hop_len: int) -> int:
    """Frame count of a hopped analysis: floor((N - window)/hop) + 1."""
    if n_samples < window_len:
        raise ValueError("input shorter than one analysis window")
    return (n_samples - window_len) // hop_len + 1


def load_wav(path, expected_rate: int | None = None) -> Waveform:
    """Read a RIFF/WAVE file (PCM 16-bit mono) and scale samples by 1/32768."""
    try:
        with wave.open(str(path), "rb") as wf:
            n_channels = wf.getnchannels()
            sampwidth = wf.getsampwidth()
            comptype = wf.getcomptype()
            rate = wf.getframerate()
            raw = wf.readframes(wf.getnframes())
    except (wave.Error, EOFError, struct.error) as exc:
        raise AudioFormatError(f"malformed WAV file {path}: {exc}") from exc
    if comptype != "NONE":
        raise AudioFormatError(f"unsupported encoding {comptype!r} in {path}")
    if sampwidth != 2:
        raise AudioFormatError(f"expected 16-bit PCM, got {8 * sampwidth}-bit in {path}")
    if n_channels != 1:
        raise AudioFormatError(f"expected mono, got {n_channels} channels in {path}")
    if expected_rate is not None and rate != expected_rate:
        raise SampleRateMismatch(
            f"{path}: sample rate {rate} != configured {expected_rate} (no resampling)")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    return Waveform(samples=samples, sample_rate=rate)


def save_wav(path, w: Waveform) -> None:
    """Write a PCM16 mono WAV; samples are clipped to [-1, 1)."""
    ints = np.clip(np.round(w.samples * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(w.sample_rate)
        wf.writeframes(ints.tobytes())


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(cfg: MelConfig, n_fft: int | None = None) -> np.ndarray:
    """Triangular mel filters, peak-normalized to 1, shape (n_mels, n_fft//2+1)."""
    if n_fft is None:
        n_fft = cfg.window_len
    fft_freqs = np.arange(n_fft // 2 + 1) * (cfg.sample_rate / n_fft)
    mel_pts = np.linspace(hz_to_mel(cfg.fmin), hz_to_mel(cfg.fmax), cfg.n_mels + 2)
    hz_pts = mel_to_hz(mel_pts)
    fb = np.zeros((cfg.n_mels, fft_freqs.size))
    for k in range(cfg.n_mels):
        lo, center, hi = hz_pts[k], hz_pts[k + 1], hz_pts[k + 2]
        up = (fft_freqs - lo) / max(center - lo, 1e-12)
        down = (hi - fft_freqs) / max(hi - center, 1e-12)
        fb[k] = np.maximum(0.0, np.minimum(up, down))
    return fb


def mel_center_frequencies(cfg: MelConfig) -> np.ndarray:
    """Center (peak) frequency in Hz of each mel filter."""
    mel_pts = np.linspace(hz_to_mel(cfg.fmin), hz_to_mel(cfg.fmax), cfg.n_mels + 2)
    return mel_to_hz(mel_pts)[1:-1]


def compute_logmel(w: Waveform, cfg: MelConfig) -> MelSpectrogram:
    """Hann-window power STFT -> mel filterbank -> log(x + log_floor)."""
    if w.sample_rate != cfg.sample_rate:
        raise SampleRateMismatch(
            f"waveform rate {w.sample_rate} != config rate {cfg.sample_rate}")
    n = w.samples.size
    t = n_frames(n, cfg.window_len, cfg.hop_len)
    window = np.hanning(cfg.window_len)
    idx = np.arange(cfg.window_len)[None, :] + cfg.hop_len * np.arange(t)[:, None]
    frames = w.samples[idx] * window
    power = np.abs(np.fft.rfft(frames, n=cfg.window_len, axis=1)) ** 2
    fb = mel_filterbank(cfg)
    mel = power @ fb.T  # (t, n_mels)
    return MelSpectrogram(values=np.log(mel.T + cfg.log_floor), config=cfg)


def mixup(a: MelSpectrogram, b: MelSpectrogram, ya: np.ndarray, yb: np.ndarray,
          lam: float):
    """Convex combination of two spectrograms and their multi-hot targets."""
    if a.values.shape != b.values.shape:
        raise ValueError("mixup requires equal spectrogram shapes")
    ya = np.asarray(ya, dtype=np.float64)
    yb = np.asarray(yb, dtype=np.float64)
    if ya.shape != yb.shape:
        raise ValueError("mixup requires equal target shapes")
    out = MelSpectrogram(values=lam * a.values + (1.0 - lam) * b.values,
                         config=a.config)
    return out, lam * ya + (1.0 - lam) * yb


def apply_spec_augmentations(x: MelSpectrogram, cfg: AugmentConfig,
                             rng: np.random.Generator) -> MelSpectrogram:
    """Time/freq rolls, specaugment stripes filled with the mean, log-domain gain.

    Deterministic given the generator state; order is fixed: time roll,
    frequency roll, time masks, frequency masks, gain.
    """
    v = x.values.copy()
    f, t = v.shape
    if cfg.max_mask_width >= min(f, t) and (cfg.n_time_masks or cfg.n_freq_masks):
        raise ValueError("mask width must be smaller than both dimensions")
    if cfg.shift_enabled:
        if cfg.max_time_shift > 0:
            v = np.roll(v, int(rng.integers(-cfg.max_time_shift, cfg.max_time_shift + 1)), axis=1)
        if cfg.max_freq_shift > 0:
            v = np.roll(v, int(rng.integers(-cfg.max_freq_shift, cfg.max_freq_shift + 1)), axis=0)
    if cfg.specaugment_enabled and cfg.max_mask_width > 0:
        fill = v.mean()
        for _ in range(cfg.n_time_masks):
            width = int(rng.integers(1, cfg.max_mask_width + 1))
            start = int(rng.integers(0, t - width + 1))
            v[:, start:start + width] = fill
        for _ in range(cfg.n_freq_masks):
            width = int(rng.integers(1, cfg.max_mask_width + 1))
            start = int(rng.integers(0, f - width + 1))
            v[start:start + width, :] = fill
    if cfg.gain_enabled and cfg.gain_range_db > 0:
        gain_db = rng.uniform(-cfg.gain_range_db, cfg.gain_range_db)
        v = v + gain_db * (np.log(10.0) / 10.0)
    return MelSpectrogram(values=v, config=x.config)
