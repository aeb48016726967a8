"""Waveform ingestion, log-mel spectrograms, and training-time augmentations."""

from __future__ import annotations

import functools
import math
import struct
import wave

import numpy as np

from .errors import ConfigError, Count, DataError, Positive, settings


@settings
class MelConfig:
    sample_rate: Count = 32000
    window_len: Count = 800
    hop_len: Count = 320
    n_mels: Count = 128
    fmin: float = 0.0
    fmax: float = 16000.0
    log_floor: Positive = 1e-5

    def __post_init__(self):
        if self.window_len < self.hop_len:
            raise ConfigError("require window_len >= hop_len")
        if not (0 <= self.fmin < self.fmax <= self.sample_rate / 2):
            raise ConfigError("require 0 <= fmin < fmax <= sample_rate/2")


@settings
class AugmentConfig:
    mixup_alpha: float = 0.0            # 0 turns mixup off
    n_time_masks: int = 0
    n_freq_masks: int = 0
    max_mask_width: int = 0
    max_time_shift: int = 0
    max_freq_shift: int = 0
    gain_range_db: float = 0.0

    def __post_init__(self):
        for name, value in vars(self).items():
            if value < 0:
                raise ConfigError(f"{name} must be >= 0")


def n_frames(n_samples: int, window_len: int, hop_len: int) -> int:
    """Frame count of a hopped analysis: floor((N - window)/hop) + 1."""
    if n_samples < window_len:
        raise DataError("input shorter than one analysis window")
    return (n_samples - window_len) // hop_len + 1


def _read_wav(path, expected_rate: int | None, samples: bool):
    """(sample count from the header, the PCM bytes or None) of a 16-bit mono
    WAV file; `samples=False` reads the header only."""
    try:
        with wave.open(str(path), "rb") as wf:
            n_channels = wf.getnchannels()
            sampwidth = wf.getsampwidth()
            comptype = wf.getcomptype()
            rate = wf.getframerate()
            n = wf.getnframes()
            raw = wf.readframes(n) if samples else None
    except (wave.Error, EOFError, struct.error, RuntimeError) as exc:
        # the wave module raises a bare RuntimeError on some bad chunk headers
        raise DataError(f"malformed WAV file {path}: {exc}") from exc
    if comptype != "NONE":
        raise DataError(f"unsupported encoding {comptype!r} in {path}")
    if sampwidth != 2:
        raise DataError(f"expected 16-bit PCM, got {8 * sampwidth}-bit in {path}")
    if n_channels != 1:
        raise DataError(f"expected mono, got {n_channels} channels in {path}")
    if expected_rate is not None and rate != expected_rate:
        raise DataError(
            f"{path}: sample rate {rate} != configured {expected_rate} (no resampling)")
    if not n or (samples and not raw):
        raise DataError(f"empty waveform in {path}")
    return n, raw


def wav_length(path, expected_rate: int | None = None) -> int:
    """The sample count in a WAV file's header, checked as `load_wav` checks
    the file; reads no sample."""
    return _read_wav(path, expected_rate, samples=False)[0]


def load_wav(path, expected_rate: int | None = None) -> np.ndarray:
    """Read a RIFF/WAVE file (PCM 16-bit mono) as float64 samples / 32768."""
    _, raw = _read_wav(path, expected_rate, samples=True)
    return np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0


def save_wav(path, samples: np.ndarray, sample_rate: int) -> None:
    """Write a PCM16 mono WAV; samples are clipped to [-1, 1)."""
    ints = np.clip(np.round(samples * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(sample_rate)
        wf.writeframes(ints.tobytes())


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@functools.lru_cache
def mel_filterbank(cfg: MelConfig) -> np.ndarray:
    """Triangular mel filters, peak-normalized to 1, shape (n_mels, n_fft//2+1).

    Built once per config; the cached array is read-only, since every caller
    shares it."""
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
    fb.setflags(write=False)
    return fb


def mel_center_frequencies(cfg: MelConfig) -> np.ndarray:
    """Center (peak) frequency in Hz of each mel filter."""
    mel_pts = np.linspace(hz_to_mel(cfg.fmin), hz_to_mel(cfg.fmax), cfg.n_mels + 2)
    return mel_to_hz(mel_pts)[1:-1]


class LogmelWork:
    """The float64 work buffers `compute_logmel` writes a clip's windowed
    frames, their spectrum and its power into. They hold the most frames
    asked for so far, and a shorter clip uses their first rows (`buf[:t]`),
    so one set serves clips of every length."""

    def __init__(self):
        self.frames = self.spec = self.power = np.empty((0, 0))

    def rows(self, t: int, window_len: int):
        """(frames, spectrum, power) views of `t` rows for `window_len`."""
        if t > self.frames.shape[0] or self.frames.shape[1] != window_len:
            n_bins = window_len // 2 + 1
            self.frames = np.empty((t, window_len))
            self.spec = np.empty((t, n_bins), dtype=np.complex128)
            self.power = np.empty((t, n_bins))
        return self.frames[:t], self.spec[:t], self.power[:t]


def compute_logmel(samples: np.ndarray, cfg: MelConfig,
                   work: LogmelWork | None = None) -> np.ndarray:
    """Hann-window power STFT -> mel filterbank -> log(x + log_floor): a
    C-contiguous float32 (n_mels, t) array.

    Every step runs in float64, and the log-mel is rounded to float32 once,
    at the end. The frames, spectrum and power are written into `work`'s
    buffers, sliced to this clip's t frames; pass one `LogmelWork` to every
    call of a loop so that they are allocated once. Without one, the call
    makes its own."""
    t = n_frames(samples.size, cfg.window_len, cfg.hop_len)  # raises below one window
    frames, spec, power = (work or LogmelWork()).rows(t, cfg.window_len)
    np.multiply(np.lib.stride_tricks.sliding_window_view(
        samples, cfg.window_len)[::cfg.hop_len], np.hanning(cfg.window_len), out=frames)
    np.fft.rfft(frames, n=cfg.window_len, axis=1, out=spec)
    np.square(np.abs(spec, out=power), out=power)
    mel = power @ mel_filterbank(cfg).T  # (t, n_mels)
    mel += cfg.log_floor
    return np.log(mel, out=mel).T.astype(np.float32, order="C")


def mixup(x: np.ndarray, y: np.ndarray, lam: float, perm: np.ndarray):
    """Convex combination of each clip of the batch `x` (N, f, t) and its
    multi-hot targets `y` (N, K) with the clip `perm` pairs it with."""
    return lam * x + (1.0 - lam) * x[perm], lam * y + (1.0 - lam) * y[perm]


def apply_spec_augmentations(x: np.ndarray, cfg: AugmentConfig,
                             rng: np.random.Generator) -> np.ndarray:
    """Time/freq rolls, specaugment stripes filled with the mean, log-domain gain.

    Deterministic given the generator state; order is fixed: time roll,
    frequency roll, time masks, frequency masks, gain.
    """
    v = x.copy()
    f, t = v.shape
    if cfg.max_mask_width >= min(f, t) and (cfg.n_time_masks or cfg.n_freq_masks):
        raise DataError("mask width must be smaller than both dimensions")
    if cfg.max_time_shift > 0:
        v = np.roll(v, int(rng.integers(-cfg.max_time_shift, cfg.max_time_shift + 1)), axis=1)
    if cfg.max_freq_shift > 0:
        v = np.roll(v, int(rng.integers(-cfg.max_freq_shift, cfg.max_freq_shift + 1)), axis=0)
    if cfg.max_mask_width > 0:
        fill = v.mean()
        for _ in range(cfg.n_time_masks):
            width = int(rng.integers(1, cfg.max_mask_width + 1))
            start = int(rng.integers(0, t - width + 1))
            v[:, start:start + width] = fill
        for _ in range(cfg.n_freq_masks):
            width = int(rng.integers(1, cfg.max_mask_width + 1))
            start = int(rng.integers(0, f - width + 1))
            v[start:start + width, :] = fill
    if cfg.gain_range_db > 0:
        gain_db = rng.uniform(-cfg.gain_range_db, cfg.gain_range_db)
        v += gain_db * (math.log(10.0) / 10.0)  # a Python float keeps v's dtype
    return v
