"""Ranking metrics (AP, mAP, top-1 accuracy), the analytic random AP
baseline, and the AP-vs-semantic-proximity correlation."""

from __future__ import annotations

import itertools

import numpy as np

from .errors import DataError
from .semantics import cosine


def average_precision(scores, labels) -> float | None:
    """Non-interpolated AP: sort by score descending (stable over instance
    index on ties), AP = (1/P) * sum of precision@k at positive ranks.

    Returns None ("skipped") when there are no positive labels.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise ValueError("scores/labels length mismatch")
    n_pos = int(labels.sum())
    if n_pos == 0:
        return None
    order = np.argsort(-scores, kind="stable")
    ranked = labels[order]
    cum_pos = np.cumsum(ranked)
    ks = np.arange(1, scores.size + 1)
    prec_at_pos = cum_pos[ranked == 1] / ks[ranked == 1]
    return float(prec_at_pos.sum() / n_pos)


def mean_ap(per_class) -> tuple:
    """(mAP over non-skipped classes, skip count). All-skipped is an error."""
    kept = [a for a in per_class if a is not None]
    skipped = len(per_class) - len(kept)
    if not kept:
        raise DataError("every class was skipped (no positives anywhere)")
    return float(np.mean(kept)), skipped


def top1_accuracy(predictions, truths) -> float:
    """Fraction of predictions equal to the truth."""
    if len(predictions) != len(truths):
        raise ValueError("predictions/truths length mismatch")
    return float(np.mean([p == t for p, t in zip(predictions, truths)]))


def random_baseline_ap(n_pos: int, n_total: int) -> float:
    """Expected AP of a uniformly random ranking ~ class prevalence P/N."""
    if n_total == 0:
        raise ValueError("empty evaluation set")
    return n_pos / n_total


def pearson_r(x, y) -> float | None:
    """Pearson correlation via direct covariance; None when either variable
    has zero variance."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size != y.size or x.size < 2:
        raise ValueError("need two equally sized samples of length >= 2")
    xc, yc = x - x.mean(), y - y.mean()
    sx, sy = np.sqrt((xc * xc).mean()), np.sqrt((yc * yc).mean())
    if sx == 0 or sy == 0:
        return None
    return float((xc * yc).mean() / (sx * sy))


def nearest_similarity(vec, train: dict) -> float:
    """Cosine similarity of `vec` to its nearest training-class embedding."""
    return max(cosine(vec, train[t]) for t in sorted(train))


# The permutation p is exact over all n! orderings up to EXACT_ORDERINGS_MAX_N
# classes (8! = 40,320); above, it is estimated from DRAWN_ORDERINGS orderings
# drawn from a generator of its own, so no run's random stream moves it.
EXACT_ORDERINGS_MAX_N = 8
DRAWN_ORDERINGS = 10_000


def permutation_p(x, y) -> tuple:
    """(one-sided permutation p of `pearson_r(x, y)`, orderings counted).

    p is the share of the orderings of `y` whose r with `x` is at least the
    observed r, allowing 1e-12 for rounding; None when r is None."""
    r = pearson_r(x, y)
    n = len(y)
    if n <= EXACT_ORDERINGS_MAX_N:
        orders = np.array(list(itertools.permutations(range(n))))
    else:
        orders = np.random.default_rng(0).permuted(
            np.tile(np.arange(n), (DRAWN_ORDERINGS, 1)), axis=1)
    if r is None:
        return None, len(orders)
    xc = np.asarray(x, dtype=np.float64) - np.mean(x)
    yc = np.asarray(y, dtype=np.float64) - np.mean(y)
    rs = (yc[orders] * xc).mean(axis=1) / np.sqrt((xc * xc).mean() * (yc * yc).mean())
    return float(np.mean(rs >= r - 1e-12)), len(orders)


def proximity_correlation(test_aps: dict, test_random_aps: dict, proximity: dict) -> dict:
    """Correlate AP improvement over the random baseline with each class's
    `proximity` to the training classes (`nearest_similarity`). Classes whose
    AP is None (no positive test clip) are skipped, as in `mean_ap`. Returns
    the "per_class" rows, "pearson_r" (None when either variable has zero
    variance), the "n" classes kept, and `permutation_p`'s "p" of that r with
    the count of "orderings" it was taken over."""
    kept = sorted(c for c, ap in test_aps.items() if ap is not None)
    if len(kept) < 3:
        raise DataError("need at least 3 test classes with a positive test clip")
    rows = [{"class_id": c, "ap": test_aps[c], "random_ap": test_random_aps[c],
             "proximity": proximity[c]} for c in kept]
    improvements = [r["ap"] - r["random_ap"] for r in rows]
    proximities = [r["proximity"] for r in rows]
    p, orderings = permutation_p(improvements, proximities)
    return {"per_class": rows, "pearson_r": pearson_r(improvements, proximities),
            "n": len(kept), "p": p, "orderings": orderings}
