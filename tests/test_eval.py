import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zsat import crossmodal, dsp, evaluation, experiments, protocol


# --- average precision ---------------------------------------------------------

def ap_oracle(scores, labels):
    """Brute-force precision-recall walk in stable descending score order."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    n_pos = sum(labels)
    if n_pos == 0:
        return None
    hits = 0
    total = 0.0
    for k, i in enumerate(order, start=1):
        if labels[i] == 1:
            hits += 1
            total += hits / k
    return total / n_pos


def test_ap_hand_example():
    ap = evaluation.average_precision([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0])
    assert ap == pytest.approx(0.5 * (1 + 2 / 3), abs=1e-12)


def test_ap_perfect_ranking():
    assert evaluation.average_precision([3, 2, 1, 0], [1, 1, 0, 0]) == 1.0


def test_ap_all_positive():
    assert evaluation.average_precision([0.5, 0.1, 0.9], [1, 1, 1]) == 1.0


def test_ap_zero_positives_is_skipped():
    assert evaluation.average_precision([1.0, 2.0], [0, 0]) is None


@given(st.integers(2, 64), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=100)
def test_ap_matches_oracle(n, seed):
    rng = np.random.default_rng(seed)
    scores = rng.standard_normal(n)
    labels = rng.integers(0, 2, n).tolist()
    got = evaluation.average_precision(scores, labels)
    want = ap_oracle(scores.tolist(), labels)
    if want is None:
        assert got is None
    else:
        assert got == pytest.approx(want, abs=1e-12)


def test_ap_tie_handling_is_stable():
    # equal scores rank by original index
    ap = evaluation.average_precision([0.5, 0.5, 0.5], [0, 1, 0])
    assert ap == pytest.approx(1 / 2, abs=1e-12)


# --- mean AP -------------------------------------------------------------------

def test_mean_ap_arithmetic():
    assert evaluation.mean_ap([1.0, 0.5]) == (0.75, 0)


def test_mean_ap_skips():
    assert evaluation.mean_ap([None, 0.4, 0.6]) == (0.5, 1)


def test_mean_ap_all_skipped_raises():
    with pytest.raises(ValueError):
        evaluation.mean_ap([None, None])


# --- accuracy -------------------------------------------------------------------

def test_top1_accuracy():
    assert evaluation.top1_accuracy(["a", "b", "c"], ["a", "b", "b"]) == pytest.approx(2 / 3)


def test_top1_restriction_guards_truth():
    with pytest.raises(ValueError):
        evaluation.top1_accuracy(["a"], ["z"], restriction=["a", "b"])


# --- baselines --------------------------------------------------------------------

def test_random_baseline_ap_is_prevalence():
    assert evaluation.random_baseline_ap(3, 12) == pytest.approx(0.25)


def test_random_baseline_classification():
    """The zero-shot evaluation reports chance accuracy as 1/|candidates|."""
    rng = np.random.default_rng(0)
    mel = dsp.MelConfig(n_mels=4)
    test_ids = ["t0", "t1", "t2", "t3"]
    records, specs = [], {}
    for c in test_ids:
        for j in range(2):
            cid = f"{c}_{j}"
            records.append(protocol.ClipRecord(cid, f"{cid}.wav", (c,), "test"))
            specs[cid] = dsp.MelSpectrogram(rng.standard_normal((4, 3)), mel)
    all_ids = test_ids + ["r0"]
    corpus = experiments.Corpus(
        root="", records=records, labels={c: c for c in all_ids},
        train_ids=["r0"], test_ids=test_ids,
        class_embeddings={c: rng.standard_normal(3) for c in all_ids},
        spectrograms=specs)

    class MeanFrame:
        def embed(self, x):
            return x.values.mean(axis=1)

    proj = crossmodal.ProjectionParams.init(4, 3, 5, rng)
    result = experiments.evaluate_zero_shot(corpus, MeanFrame(), proj)
    assert result["n_classified"] == 8
    assert result["random_accuracy"] == pytest.approx(1 / 4)
    result = experiments.evaluate_zero_shot(corpus, MeanFrame(), proj,
                                            candidate_ids=test_ids[:3])
    assert result["n_classified"] == 6
    assert result["random_accuracy"] == pytest.approx(1 / 3)


# --- pearson r -------------------------------------------------------------------

def pearson_oracle(x, y):
    x, y = np.asarray(x, float), np.asarray(y, float)
    xc, yc = x - x.mean(), y - y.mean()
    return float((xc * yc).sum() / np.sqrt((xc ** 2).sum() * (yc ** 2).sum()))


@given(st.integers(3, 40), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=100)
def test_pearson_matches_covariance_oracle(n, seed):
    rng = np.random.default_rng(seed)
    x, y = rng.standard_normal(n), rng.standard_normal(n)
    assert evaluation.pearson_r(x, y) == pytest.approx(pearson_oracle(x, y), abs=1e-12)


def test_pearson_zero_variance_is_none():
    assert evaluation.pearson_r([1.0, 1.0, 1.0], [0.0, 1.0, 2.0]) is None


# --- proximity --------------------------------------------------------------------

def test_proximity_correlation_sign():
    rng = np.random.default_rng(0)
    train = {f"t{i}": rng.standard_normal(4) for i in range(3)}
    # test classes at graded distances from train class t0
    base = train["t0"]
    test = {"near": base + 0.01 * rng.standard_normal(4),
            "mid": base + 0.5 * rng.standard_normal(4),
            "far": -base}
    aps = {"near": 0.9, "mid": 0.5, "far": 0.1}
    rand = {k: 0.1 for k in aps}
    rep = evaluation.proximity_correlation(aps, rand, train, test)
    assert rep.r is not None and -1.0 <= rep.r <= 1.0
    assert rep.r > 0.5  # gain tracks proximity by construction


def test_proximity_needs_three_classes():
    with pytest.raises(ValueError):
        evaluation.proximity_correlation({"a": 0.5, "b": 0.5}, {"a": 0.1, "b": 0.1},
                                         {"t": np.ones(2)},
                                         {"a": np.ones(2), "b": np.ones(2)})
