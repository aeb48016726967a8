import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zsat import crossmodal, dsp, evaluation, experiments, protocol
from zsat.errors import DataError


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
    with pytest.raises(DataError, match="every class was skipped"):
        evaluation.mean_ap([None, None])


# --- accuracy -------------------------------------------------------------------

def test_top1_accuracy():
    assert evaluation.top1_accuracy(["a", "b", "c"], ["a", "b", "b"]) == pytest.approx(2 / 3)


# --- baselines --------------------------------------------------------------------

def test_random_baseline_ap_is_prevalence():
    assert evaluation.random_baseline_ap(3, 12) == pytest.approx(0.25)


def test_random_baseline_classification(tmp_path):
    """The zero-shot evaluation reports chance accuracy as 1/|candidates|."""
    rng = np.random.default_rng(0)
    test_ids = ["t0", "t1", "t2", "t3"]
    records, specs = [], {}
    for c in test_ids:
        for j in range(2):
            cid = f"{c}_{j}"
            records.append(protocol.ClipRecord(cid, f"{cid}.wav", (c,), "test"))
            specs[cid] = rng.standard_normal((4, 3))
    all_ids = test_ids + ["r0"]
    corpus = experiments.Corpus(
        records=records, labels={c: c for c in all_ids},
        train_ids=["r0"], test_ids=test_ids,
        class_embeddings={c: rng.standard_normal(3) for c in all_ids},
        spectrograms=specs, root=tmp_path)

    class MeanFrame:
        def embed(self, specs):
            return np.stack([s.mean(axis=1) for s in specs])

    proj = crossmodal.Projection(crossmodal.ProjectionConfig(4, 3, 5, 0.2), rng)
    result = experiments.evaluate_zero_shot(corpus, MeanFrame(), proj)
    assert result["n_classified"] == 8
    assert result["random_accuracy"] == pytest.approx(1 / 4)
    three = dataclasses.replace(corpus, test_ids=test_ids[:3])
    result = experiments.evaluate_zero_shot(three, MeanFrame(), proj)
    assert result["n_classified"] == 6
    assert result["random_accuracy"] == pytest.approx(1 / 3)


def test_load_corpus_computes_only_the_requested_splits(tiny_corpus, monkeypatch):
    """One log-mel per clip of the requested splits, equal to a full load's,
    and none for `splits=()`; of the train split, only the clips that carry
    a training class. Records, labels and class embeddings stay whole."""
    mel = tiny_corpus["spec"].mel
    full = experiments.load_corpus(tiny_corpus["root"], mel)
    compute, calls = dsp.compute_logmel, []

    def counting(samples, cfg):
        calls.append(cfg)
        return compute(samples, cfg)
    monkeypatch.setattr(dsp, "compute_logmel", counting)
    test_ids = [r.clip_id for r in full.records if r.split == "test"]
    assert 0 < len(test_ids) < len(full.records)
    train_ids = [r.clip_id for r in
                 protocol.training_records(full.records, full.train_ids)]
    assert 0 < len(train_ids) < sum(r.split == "train" for r in full.records)
    for splits, ids in ((("test",), test_ids), (("train",), train_ids), ((), [])):
        calls.clear()
        part = experiments.load_corpus(tiny_corpus["root"], mel, splits=splits)
        assert len(calls) == len(ids)
        assert sorted(part.spectrograms) == sorted(ids)
        for c in ids:
            got, want = part.spectrograms[c], full.spectrograms[c]
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert part.records == full.records and part.labels == full.labels
        assert part.train_ids == full.train_ids and part.test_ids == full.test_ids
        assert part.class_embeddings.keys() == full.class_embeddings.keys()
        for c, v in full.class_embeddings.items():
            assert part.class_embeddings[c].tobytes() == v.tobytes()


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

def test_nearest_similarity_is_the_cosine_to_the_nearest_training_class():
    train = {"x": np.array([1.0, 0.0]), "y": np.array([0.0, 2.0])}
    assert evaluation.nearest_similarity(np.array([3.0, 4.0]), train) == pytest.approx(0.8)
    assert evaluation.nearest_similarity(np.array([-1.0, 0.0]), train) == pytest.approx(0.0)


def proximities(train, test):
    return {c: evaluation.nearest_similarity(v, train) for c, v in test.items()}


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
    rep = evaluation.proximity_correlation(aps, rand, proximities(train, test))
    r = rep["pearson_r"]
    assert r is not None and -1.0 <= r <= 1.0
    assert r > 0.5  # gain tracks proximity by construction


def test_proximity_skips_classes_without_positives():
    rng = np.random.default_rng(0)
    train = {"t": rng.standard_normal(4)}
    prox = proximities(train, {c: rng.standard_normal(4) for c in "abcd"})
    aps = {"a": 0.9, "b": 0.5, "c": None, "d": 0.1}
    rand = {c: 0.1 for c in aps}
    rep = evaluation.proximity_correlation(aps, rand, prox)
    assert [row["class_id"] for row in rep["per_class"]] == ["a", "b", "d"]
    kept = {c: aps[c] for c in "abd"}
    assert rep == evaluation.proximity_correlation(kept, rand, prox)
    with pytest.raises(DataError, match="at least 3 test classes"):
        evaluation.proximity_correlation({**aps, "d": None}, rand, prox)


def test_proximity_needs_three_classes():
    train = {"t": np.ones(2)}
    with pytest.raises(DataError, match="at least 3 test classes"):
        evaluation.proximity_correlation({"a": 0.5, "b": 0.5}, {"a": 0.1, "b": 0.1},
                                         proximities(train, {"a": np.ones(2),
                                                             "b": np.ones(2)}))


# --- seed aggregate ---------------------------------------------------------------

def test_aggregate_results_averages_seeds_before_the_proximity_analysis():
    """Per-class APs are averaged over seeds, class "c" (no positive clip)
    stays None, and a seed without an accuracy is left out of its mean.
    `proximity_r` is the Pearson r of the seed-mean gains over chance
    against seed 0's proximities, over the classes with a positive clip."""
    rand = {"a": 0.125, "b": 0.25, "c": 0.0, "d": 0.125, "e": 0.25}
    prox = {"a": 0.875, "b": 0.25, "d": 0.5, "e": 0.625}

    def seed(s, accuracy, aps):
        kept = [c for c in sorted(aps) if aps[c] is not None]
        return {"seed": s, "accuracy": accuracy, "random_accuracy": 0.25,
                "per_class_ap": aps, "random_ap": rand,
                "mean_ap": float(np.mean([aps[c] for c in kept])),
                "random_mean_ap": 0.15,
                "proximity": {"per_class": [
                    {"class_id": c, "ap": aps[c], "random_ap": rand[c],
                     "proximity": prox[c]} for c in kept]}}
    results = [seed(3, 0.5, {"a": 1.0, "b": 0.5, "c": None, "d": 0.25, "e": 0.75}),
               seed(7, None, {"a": 0.5, "b": 0.25, "c": None, "d": 0.75, "e": 0.25})]
    agg = experiments.aggregate_results(results)
    mean = {"a": 0.75, "b": 0.375, "c": None, "d": 0.5, "e": 0.5}
    assert agg["per_class_mean_ap"] == mean
    assert agg["mean_ap"] == pytest.approx((0.625 + 0.4375) / 2)
    assert agg["mean_accuracy"] == 0.5
    assert agg["seeds"] == [3, 7]
    assert (agg["random_mean_ap"], agg["random_accuracy"]) == (0.15, 0.25)
    kept = ["a", "b", "d", "e"]
    assert agg["proximity_r"] == evaluation.pearson_r(
        [mean[c] - rand[c] for c in kept], [prox[c] for c in kept])
