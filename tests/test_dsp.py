import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zsat import dsp


# --- framing ---------------------------------------------------------------

def frames_oracle(n, window, hop):
    count = 0
    start = 0
    while start + window <= n:
        count += 1
        start += hop
    return count


@given(st.integers(1, 5000), st.integers(1, 400), st.integers(1, 200))
@settings(max_examples=200)
def test_n_frames_matches_counting_oracle(n, window, hop):
    if n < window:
        with pytest.raises(ValueError):
            dsp.n_frames(n, window, hop)
    else:
        assert dsp.n_frames(n, window, hop) == frames_oracle(n, window, hop)


# --- wav io ----------------------------------------------------------------

def test_wav_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    w = dsp.Waveform(rng.uniform(-0.9, 0.9, 4000), 32000)
    path = tmp_path / "x.wav"
    dsp.save_wav(path, w)
    back = dsp.load_wav(path, expected_rate=32000)
    assert back.sample_rate == 32000
    # 16-bit quantization bounds the round-trip error
    assert np.max(np.abs(back.samples - w.samples)) < 1.0 / 32768 + 1e-9
    assert np.max(np.abs(back.samples)) <= 1.0


def test_wav_sample_rate_mismatch(tmp_path):
    path = tmp_path / "x.wav"
    dsp.save_wav(path, dsp.Waveform(np.zeros(100), 16000))
    with pytest.raises(dsp.SampleRateMismatch):
        dsp.load_wav(path, expected_rate=32000)


def test_wav_rejects_stereo(tmp_path):
    import wave
    path = tmp_path / "stereo.wav"
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(2)
        wf.setsampwidth(2)
        wf.setframerate(32000)
        wf.writeframes(b"\x00\x00" * 200)
    with pytest.raises(dsp.AudioFormatError):
        dsp.load_wav(path)


# --- mel scale and filterbank ------------------------------------------------

def test_mel_scale_inverse():
    f = np.linspace(0, 16000, 50)
    assert np.allclose(dsp.mel_to_hz(dsp.hz_to_mel(f)), f, atol=1e-6)


def test_filterbank_shape_and_triangles():
    cfg = dsp.MelConfig(n_mels=32)
    fb = dsp.mel_filterbank(cfg)
    assert fb.shape == (32, cfg.window_len // 2 + 1)
    assert np.all(fb >= 0)
    # triangles have unit height; the sampled max can fall between FFT bins
    assert np.all(fb.max(axis=1) <= 1.0 + 1e-12)
    assert np.all(fb.max(axis=1) > 0.5)
    assert np.all(fb.sum(axis=1) > 0)


def test_pure_tone_peaks_at_nearest_mel_band():
    cfg = dsp.MelConfig(n_mels=64)
    centers = dsp.mel_center_frequencies(cfg)
    for freq in (440.0, 1000.0, 3000.0):
        t = np.arange(32000) / 32000
        w = dsp.Waveform(0.5 * np.sin(2 * np.pi * freq * t), 32000)
        spec = dsp.compute_logmel(w, cfg)
        band = int(np.argmax(spec.values.mean(axis=1)))
        assert band == int(np.argmin(np.abs(centers - freq)))


def test_logmel_shape_and_finiteness():
    cfg = dsp.MelConfig(n_mels=64)
    w = dsp.Waveform(np.zeros(32000), 32000)
    spec = dsp.compute_logmel(w, cfg)
    t = dsp.n_frames(32000, cfg.window_len, cfg.hop_len)
    assert spec.values.shape == (64, t)
    assert np.all(np.isfinite(spec.values))  # log floor prevents -inf


# --- augmentation -------------------------------------------------------------

def _spec(shape=(16, 20), seed=0):
    rng = np.random.default_rng(seed)
    return dsp.MelSpectrogram(rng.standard_normal(shape), dsp.MelConfig(n_mels=shape[0]))


def test_mixup_is_convex_combination():
    a, b = _spec(seed=1), _spec(seed=2)
    ya = np.array([1.0, 0.0])
    yb = np.array([0.0, 1.0])
    out, y = dsp.mixup(a, b, ya, yb, 0.25)
    assert np.allclose(out.values, 0.25 * a.values + 0.75 * b.values)
    assert np.allclose(y, [0.25, 0.75])


def test_mixup_shape_mismatch():
    with pytest.raises(ValueError):
        dsp.mixup(_spec((8, 8)), _spec((8, 9)), np.zeros(2), np.zeros(2), 0.5)


def test_augment_preserves_shape_and_is_deterministic():
    cfg = dsp.AugmentConfig(n_time_masks=2, n_freq_masks=1, max_mask_width=3,
                            max_time_shift=4, max_freq_shift=2, gain_range_db=6.0)
    x = _spec()
    a = dsp.apply_spec_augmentations(x, cfg, np.random.default_rng(7))
    b = dsp.apply_spec_augmentations(x, cfg, np.random.default_rng(7))
    assert a.values.shape == x.values.shape
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, x.values)


def test_masks_filled_with_mean():
    cfg = dsp.AugmentConfig(n_time_masks=1, max_mask_width=3,
                            shift_enabled=False, gain_enabled=False)
    x = _spec()
    out = dsp.apply_spec_augmentations(x, cfg, np.random.default_rng(0))
    changed = np.where(np.any(out.values != x.values, axis=0))[0]
    assert changed.size >= 1
    assert np.allclose(out.values[:, changed], x.values.mean())


def test_gain_is_constant_log_offset():
    cfg = dsp.AugmentConfig(gain_range_db=6.0, shift_enabled=False,
                            specaugment_enabled=False)
    x = _spec()
    out = dsp.apply_spec_augmentations(x, cfg, np.random.default_rng(3))
    diff = out.values - x.values
    assert np.allclose(diff, diff[0, 0])
    assert abs(diff[0, 0]) <= 6.0 * np.log(10.0) / 10.0


def test_rolls_permute_values():
    cfg = dsp.AugmentConfig(max_time_shift=5, max_freq_shift=2,
                            specaugment_enabled=False, gain_enabled=False)
    x = _spec()
    out = dsp.apply_spec_augmentations(x, cfg, np.random.default_rng(11))
    assert np.allclose(np.sort(out.values.ravel()), np.sort(x.values.ravel()))
