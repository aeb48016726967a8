import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zsat import dsp
from zsat.errors import ConfigError, DataError


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
        with pytest.raises(DataError, match="shorter than one analysis window"):
            dsp.n_frames(n, window, hop)
    else:
        assert dsp.n_frames(n, window, hop) == frames_oracle(n, window, hop)


# --- wav io ----------------------------------------------------------------

def test_wav_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    samples = rng.uniform(-0.9, 0.9, 4000)
    path = tmp_path / "x.wav"
    dsp.save_wav(path, samples, 32000)
    # the file's rate must equal expected_rate, or load_wav raises
    back = dsp.load_wav(path, expected_rate=32000)
    assert back.dtype == np.float64
    # 16-bit quantization bounds the round-trip error
    assert np.max(np.abs(back - samples)) < 1.0 / 32768 + 1e-9
    assert np.max(np.abs(back)) <= 1.0


def test_wav_sample_rate_mismatch(tmp_path):
    path = tmp_path / "x.wav"
    dsp.save_wav(path, np.zeros(100), 16000)
    with pytest.raises(DataError, match="sample rate 16000 != configured 32000"):
        dsp.load_wav(path, expected_rate=32000)


def test_wav_rejects_stereo(tmp_path):
    import wave
    path = tmp_path / "stereo.wav"
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(2)
        wf.setsampwidth(2)
        wf.setframerate(32000)
        wf.writeframes(b"\x00\x00" * 200)
    with pytest.raises(DataError, match="expected mono, got 2 channels"):
        dsp.load_wav(path)


def test_wav_without_samples_is_a_data_error(tmp_path):
    path = tmp_path / "empty.wav"
    dsp.save_wav(path, np.zeros(0), 32000)
    with pytest.raises(DataError, match="empty waveform"):
        dsp.load_wav(path, expected_rate=32000)


def test_wav_with_a_chunk_past_the_end_is_a_data_error(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"RIFF0000WAVEnot a wave file")
    with pytest.raises(DataError, match="malformed WAV"):
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


def test_filterbank_is_built_once_per_config_and_read_only():
    cfg = dsp.MelConfig(n_mels=32)
    fb = dsp.mel_filterbank(cfg)
    assert dsp.mel_filterbank(dsp.MelConfig(n_mels=32)) is fb
    assert np.array_equal(fb, dsp.mel_filterbank.__wrapped__(cfg))
    with pytest.raises(ValueError):
        fb[0, 0] = 1.0
    other = dsp.mel_filterbank(dsp.MelConfig(n_mels=32, fmax=8000.0))
    assert other.shape == fb.shape and not np.array_equal(other, fb)


def test_pure_tone_peaks_at_nearest_mel_band():
    cfg = dsp.MelConfig(n_mels=64)
    centers = dsp.mel_center_frequencies(cfg)
    for freq in (440.0, 1000.0, 3000.0):
        t = np.arange(32000) / 32000
        spec = dsp.compute_logmel(0.5 * np.sin(2 * np.pi * freq * t), cfg)
        band = int(np.argmax(spec.mean(axis=1)))
        assert band == int(np.argmin(np.abs(centers - freq)))


def test_logmel_shape_and_finiteness():
    cfg = dsp.MelConfig(n_mels=64)
    spec = dsp.compute_logmel(np.zeros(32000), cfg)
    t = dsp.n_frames(32000, cfg.window_len, cfg.hop_len)
    assert spec.shape == (64, t)
    assert np.all(np.isfinite(spec))  # log floor prevents -inf


def _logmel_by_index(samples, cfg):
    """The float64 log-mel with its frames gathered by a fancy index."""
    t = dsp.n_frames(samples.size, cfg.window_len, cfg.hop_len)
    idx = np.arange(cfg.window_len)[None, :] + cfg.hop_len * np.arange(t)[:, None]
    frames = samples[idx] * np.hanning(cfg.window_len)
    power = np.abs(np.fft.rfft(frames, n=cfg.window_len, axis=1)) ** 2
    mel = power @ dsp.mel_filterbank(cfg).T
    return np.log(mel.T + cfg.log_floor)


@given(st.integers(1, 256), st.data())
@settings(max_examples=60, deadline=None)
def test_logmel_frames_equal_a_fancy_index_gather(window, data):
    """Every window, hop up to the window and length from one window to many
    hops plus a remainder gives the bytes of the fancy-index reference rounded
    once to float32; input shorter than one window is a data error."""
    hop = data.draw(st.integers(1, window), label="hop")
    n = (window + hop * data.draw(st.integers(0, 40), label="hops")
         + data.draw(st.integers(0, hop - 1), label="remainder"))
    cfg = dsp.MelConfig(window_len=window, hop_len=hop, n_mels=8)
    samples = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                              label="seed")).uniform(-1, 1, n)
    got = dsp.compute_logmel(samples, cfg)
    assert got.shape == (8, dsp.n_frames(n, window, hop))
    assert got.tobytes() == _logmel_by_index(samples, cfg).astype(np.float32).tobytes()
    with pytest.raises(DataError, match="shorter than one analysis window"):
        dsp.compute_logmel(samples[:window - 1], cfg)


# --- augmentation -------------------------------------------------------------

def _spec(shape=(16, 20), seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape)


def test_mixup_is_convex_combination():
    a, b = _spec(seed=1), _spec(seed=2)
    y = np.array([[1.0, 0.0], [0.0, 1.0]])
    out, y_mix = dsp.mixup(np.stack([a, b]), y, 0.25, np.array([1, 0]))
    assert np.allclose(out[0], 0.25 * a + 0.75 * b)
    assert np.allclose(out[1], 0.25 * b + 0.75 * a)
    assert np.allclose(y_mix, [[0.25, 0.75], [0.75, 0.25]])


def test_negative_mixup_alpha_raises():
    dsp.AugmentConfig(mixup_alpha=0.0)
    with pytest.raises(ConfigError, match="mixup_alpha"):
        dsp.AugmentConfig(mixup_alpha=-0.1)


def test_augment_preserves_shape_and_is_deterministic():
    cfg = dsp.AugmentConfig(n_time_masks=2, n_freq_masks=1, max_mask_width=3,
                            max_time_shift=4, max_freq_shift=2, gain_range_db=6.0)
    x = _spec()
    a = dsp.apply_spec_augmentations(x, cfg, np.random.default_rng(7))
    b = dsp.apply_spec_augmentations(x, cfg, np.random.default_rng(7))
    assert a.shape == x.shape
    assert np.array_equal(a, b)
    assert not np.array_equal(a, x)


def test_masks_filled_with_mean():
    cfg = dsp.AugmentConfig(n_time_masks=1, max_mask_width=3,
                            max_time_shift=0, max_freq_shift=0, gain_range_db=0.0)
    x = _spec()
    out = dsp.apply_spec_augmentations(x, cfg, np.random.default_rng(0))
    changed = np.where(np.any(out != x, axis=0))[0]
    assert changed.size >= 1
    assert np.allclose(out[:, changed], x.mean())


def test_gain_is_constant_log_offset():
    cfg = dsp.AugmentConfig(gain_range_db=6.0, max_time_shift=0,
                            max_freq_shift=0, n_time_masks=0, n_freq_masks=0)
    x = _spec()
    out = dsp.apply_spec_augmentations(x, cfg, np.random.default_rng(3))
    diff = out - x
    assert np.allclose(diff, diff[0, 0])
    assert abs(diff[0, 0]) <= 6.0 * np.log(10.0) / 10.0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_augmentation_and_mixup_keep_the_input_dtype(dtype):
    cfg = dsp.AugmentConfig(n_time_masks=2, n_freq_masks=1, max_mask_width=3,
                            max_time_shift=4, max_freq_shift=2, gain_range_db=6.0)
    x = _spec().astype(dtype)
    assert dsp.apply_spec_augmentations(x, cfg, np.random.default_rng(7)).dtype == dtype
    mixed, _ = dsp.mixup(np.stack([x, 2 * x]), np.eye(2), 0.25, np.array([1, 0]))
    assert mixed.dtype == dtype


def test_rolls_permute_values():
    cfg = dsp.AugmentConfig(max_time_shift=5, max_freq_shift=2,
                            n_time_masks=0, n_freq_masks=0, gain_range_db=0.0)
    x = _spec()
    out = dsp.apply_spec_augmentations(x, cfg, np.random.default_rng(11))
    assert np.allclose(np.sort(out.ravel()), np.sort(x.ravel()))
