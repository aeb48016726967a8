"""End-to-end acceptance suite.

Each criterion prints a single PASS/FAIL line (bypassing output capture so it
is always visible in the run log) and asserts the same condition.
"""

import dataclasses
import time

import numpy as np
import pytest

from conftest import fd_gradcheck
from zsat import backbones, checkpoint, cli, crossmodal, dsp, evaluation, protocol
from zsat.config import resolve_config
from zsat import experiments


@pytest.fixture
def report(capfd):
    """One visible PASS/FAIL line per criterion, bypassing output capture."""
    def emit(criterion: str, ok: bool, detail: str) -> None:
        line = f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}"
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line
    return emit


# ---------------------------------------------------------------------------
# 1. Metric oracle equivalence


def ap_oracle(scores, labels):
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    n_pos = sum(labels)
    if n_pos == 0:
        return None
    hits, total = 0, 0.0
    for k, i in enumerate(order, start=1):
        if labels[i] == 1:
            hits += 1
            total += hits / k
    return total / n_pos


def pearson_oracle(x, y):
    x, y = np.asarray(x, float), np.asarray(y, float)
    xc, yc = x - x.mean(), y - y.mean()
    return float((xc * yc).sum() / np.sqrt((xc ** 2).sum() * (yc ** 2).sum()))


def test_criterion_1_metric_oracles(report):
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst_ap = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 65))
        scores = rng.standard_normal(n)
        # quantized scores force ties so stable ordering is exercised too
        if rng.random() < 0.3:
            scores = np.round(scores)
        labels = rng.integers(0, 2, n).tolist()
        got = evaluation.average_precision(scores, labels)
        want = ap_oracle(scores.tolist(), labels)
        if want is None:
            assert got is None
        else:
            worst_ap = max(worst_ap, abs(got - want))
    worst_r = 0.0
    for _ in range(200):
        n = int(rng.integers(3, 64))
        x, y = rng.standard_normal(n), rng.standard_normal(n)
        worst_r = max(worst_r, abs(evaluation.pearson_r(x, y) - pearson_oracle(x, y)))
    elapsed = time.perf_counter() - t0
    ok = worst_ap < 1e-12 and worst_r < 1e-12 and elapsed < 5.0
    report("1", ok, f"AP err {worst_ap:.2e}, Pearson err {worst_r:.2e} "
                    f"(tol 1e-12), {elapsed:.2f}s (< 5s)")


# ---------------------------------------------------------------------------
# 2. Gradient correctness


def test_criterion_2_gradients(report):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)

    # projection network: all four trained tensors plus the normalizer path
    p = crossmodal.Projection(crossmodal.ProjectionConfig(6, 4, 10, dropout_rate=0.0), rng,
                              dtype=np.float64)
    p.stats = {"mean": rng.standard_normal(6), "std": 0.5 + rng.random(6)}
    a = rng.standard_normal((3, 6))
    e = rng.standard_normal((5, 4))
    y = (rng.random((3, 5)) < 0.4).astype(float)
    tensors = {**p.params, **p.stats}

    def fwd_p():
        out, _ = crossmodal.project_batch(a, p)
        return crossmodal.bce_loss(out @ e.T, y)

    def grads_p():
        out, cache = crossmodal.project_batch(a, p)
        dlog = crossmodal.bce_loss_backward(out @ e.T, y)
        _, g = crossmodal.project_backward(dlog @ e, p, cache)
        return g

    worst_proj = fd_gradcheck(tensors, fwd_p, grads_p, n_coords=100, seed=2)

    # one transformer block end to end in double precision
    cfg = backbones.TransformerConfig(d=8, n_heads=2, n_layers=1, patch_f=4,
                                      patch_t=4, max_f_patches=3,
                                      max_t_patches=4, embed_dim=5)
    model = backbones.TransformerBackbone(cfg, rng, dtype=np.float64)
    x = rng.standard_normal((2, 12, 16))
    w = rng.standard_normal(5)

    # with no patchout drops, the train forward is the eval function; only a
    # train-mode cache goes to `backward`
    def fwd_t():
        emb, _ = model.embed_batch(x, train=True)
        return float(np.sum(emb * w) + 0.5 * np.sum(emb ** 2))

    def grads_t():
        emb, cache = model.embed_batch(x, train=True)
        return model.backward((w + emb).astype(np.float64), cache)

    worst_tr = fd_gradcheck(model.params, fwd_t, grads_t, n_coords=100, seed=3)
    elapsed = time.perf_counter() - t0
    ok = worst_proj < 1e-4 and worst_tr < 1e-4 and elapsed < 60.0
    report("2", ok, f"projection rel err {worst_proj:.2e}, transformer rel "
                    f"err {worst_tr:.2e} (tol 1e-4), {elapsed:.1f}s (< 60s)")


# ---------------------------------------------------------------------------
# 3. Hand-computed optimizer/loss/schedule values


def test_criterion_3_hand_values(report):
    # AdamW with lr=1, eps=0, first step: mhat/sqrt(vhat) = g/|g| = 1
    base = dict(initial_lr=1.0, warmup_epochs=0.5, decay_start_epoch=1,
                decay_end_epoch=2, final_lr=1.0, epochs=1, batch_size=1,
                epsilon=0.0)
    cfg = crossmodal.TrainConfig(weight_decay=0.0, **base)
    params = {"w": np.array([1.9])}
    state = crossmodal.init_adamw_state(params)
    crossmodal.adamw_step(params, {"w": np.array([1.0])}, state, 1.0, cfg)
    err_a = abs(params["w"][0] - 0.9)

    # decoupled decay additionally subtracts lr*wd*theta: 1.9 - 0.01 - 1 = 0.89
    cfg_wd = crossmodal.TrainConfig(weight_decay=0.01 / 1.9, **base)
    params = {"w": np.array([1.9])}
    state = crossmodal.init_adamw_state(params)
    crossmodal.adamw_step(params, {"w": np.array([1.0])}, state, 1.0, cfg_wd)
    err_b = abs(params["w"][0] - 0.89)

    err_bce = abs(crossmodal.bce_loss(np.array([0.0]), np.array([1.0])) - np.log(2.0))

    sched = crossmodal.TrainConfig()  # reference preset schedule
    exact = (crossmodal.lr_at(5, sched) == 2e-5
             and abs(crossmodal.lr_at(75, sched) - (2e-5 + 1e-7) / 2) < 1e-20
             and crossmodal.lr_at(100, sched) == 1e-7
             and crossmodal.lr_at(130, sched) == 1e-7)
    ok = err_a < 1e-12 and err_b < 1e-12 and err_bce < 1e-12 and exact
    report("3", ok, f"AdamW errs {err_a:.1e}/{err_b:.1e}, BCE err "
                    f"{err_bce:.1e} (tol 1e-12), schedule checkpoints exact={exact}")


# ---------------------------------------------------------------------------
# 4. Structural invariants


def test_criterion_4_structural_invariants(report):
    rng = np.random.default_rng(4)

    # patch grid / patchout token counts over 1000 random configurations, on
    # the transformer's own token sequence (class token + surviving patches)
    patch_ok = True
    for _ in range(1000):
        fp = int(rng.integers(1, 6))
        tp = int(rng.integers(1, 6))
        gf = int(rng.integers(2, 10))
        gt = int(rng.integers(2, 10))
        fd = int(rng.integers(0, gf))
        td = int(rng.integers(0, gt))
        cfg = backbones.TransformerConfig(
            d=2, n_heads=1, n_layers=1, patch_f=fp, patch_t=tp,
            max_f_patches=gf, max_t_patches=gt, embed_dim=2,
            n_freq_drop=fd, n_time_drop=td)
        model = backbones.TransformerBackbone(cfg, np.random.default_rng(0))
        x = np.zeros((1, gf * fp, gt * tp), np.float32)
        out, _ = model._token_sequence(x, True, rng)
        patch_ok &= out.shape[1] == 1 + (gf - fd) * (gt - td)
        ev, _ = model._token_sequence(x, False, rng)
        patch_ok &= ev.shape[1] == 1 + gf * gt

    # frame counts over 1000 random (N, window, hop)
    frame_ok = True
    for _ in range(1000):
        window = int(rng.integers(1, 400))
        hop = int(rng.integers(1, 200))
        n = int(rng.integers(window, 5000))
        count, start = 0, 0
        while start + window <= n:
            count += 1
            start += hop
        frame_ok &= dsp.n_frames(n, window, hop) == count

    # fold balancing bound over 1000 random count tables + the hand example
    fold_ok = True
    for _ in range(1000):
        n_cls = int(rng.integers(2, 30))
        counts = {f"c{i:02d}": int(rng.integers(0, 1000)) for i in range(n_cls)}
        k = int(rng.integers(2, min(5, n_cls) + 1))
        split = protocol.balance_folds(counts, k)
        fold_ok &= max(split.totals) - min(split.totals) <= max(counts.values())
        fold_ok &= sorted(c for f in split.folds for c in f) == sorted(counts)
    hand = protocol.balance_folds({"A": 10, "B": 8, "C": 6, "D": 4, "E": 2}, 2)
    fold_ok &= hand.totals == [16, 14]
    fold_ok &= hand.folds == [["A", "D", "E"], ["B", "C"]]

    # VGGish chunk-mean identity
    ccfg = backbones.ConvConfig(channels=(4, 4, 8, 8, 8, 8),
                                fc_units=16, embed_dim=6, vggish_time=16,
                                vggish_mels=32)
    vm = backbones.VggishBackbone(ccfg, np.random.default_rng(0))
    full = np.random.default_rng(1).standard_normal((32, 37))
    whole, *parts = vm.embed([full, full[:, :16], full[:, 16:32]])
    vgg_ok = bool(np.allclose(whole, np.mean(parts, axis=0), atol=1e-6))

    ok = patch_ok and frame_ok and fold_ok and vgg_ok
    report("4", ok, f"patchout tokens {patch_ok}, frame counts {frame_ok}, "
                    f"fold bound+hand example {fold_ok}, chunk-mean {vgg_ok} "
                    f"(1000 random configs each)")


# ---------------------------------------------------------------------------
# 5 & 6. Synthetic zero-shot end to end


def run_experiment(cfg, corpus, seed: int) -> dict:
    """Full per-seed pipeline: pretrain, projection, zero-shot evaluation."""
    model, head, history = experiments.run_pretrain(cfg, corpus, seed)
    proj, selection = experiments.run_projection(cfg, corpus, model, seed)
    result = experiments.evaluate_zero_shot(corpus, model, proj)
    result["seed"] = seed
    result["pretrain_loss"] = history
    result["projection_selection"] = selection
    return result


@pytest.fixture(scope="module")
def toy_results(tmp_path_factory):
    cfg = resolve_config("toy")
    root = tmp_path_factory.mktemp("toy_corpus")
    protocol.generate_synthetic_corpus(cfg.synthetic, root, seed=0)
    corpus = experiments.load_corpus(root, cfg.mel)
    t0 = time.perf_counter()
    results = [run_experiment(cfg, corpus, s) for s in cfg.seeds]
    return {"cfg": cfg, "results": results,
            "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def graded_results(tmp_path_factory):
    cfg = resolve_config("toy-graded")
    root = tmp_path_factory.mktemp("graded_corpus")
    protocol.generate_synthetic_corpus(cfg.synthetic, root, seed=0)
    corpus = experiments.load_corpus(root, cfg.mel)
    results = [run_experiment(cfg, corpus, s) for s in cfg.seeds]
    # the ablation removes the training classes acoustically and semantically
    # nearest the held-out block c01/c04-c06
    near = ("c00", "c02", "c03", "c07")
    ablated = dataclasses.replace(
        corpus, train_ids=[c for c in corpus.train_ids if c not in near])
    ab_results = [run_experiment(cfg, ablated, s) for s in cfg.seeds]
    return {"cfg": cfg, "results": results, "ablated": ab_results}


def test_criterion_5a_classification_accuracy(toy_results, report):
    accs = [r["accuracy"] for r in toy_results["results"]]
    mean_acc = float(np.mean(accs))
    in_time = toy_results["elapsed"] < 900.0
    ok = mean_acc >= 0.50 and in_time
    report("5a", ok, f"zero-shot 4-way accuracy {mean_acc:.3f} "
                     f"(chance 0.25, need >= 0.50) over seeds "
                     f"{[r['seed'] for r in toy_results['results']]}, "
                     f"pipeline {toy_results['elapsed']:.0f}s (< 900s)")


def test_criterion_5b_tagging_map_vs_baseline(toy_results, report):
    maps = [r["mean_ap"] for r in toy_results["results"]]
    mean_map = float(np.mean(maps))
    baseline = toy_results["results"][0]["random_mean_ap"]
    ok = mean_map >= 2.0 * baseline
    report("5b", ok, f"zero-shot tagging mAP {mean_map:.3f} vs random "
                     f"baseline {baseline:.3f} (need >= 2x)")


def test_criterion_5c_proximity_correlation(graded_results, report):
    agg = experiments.aggregate_results(graded_results["results"])
    r = agg["proximity_r"]
    ok = r is not None and r > 0.0
    report("5c", ok, f"proximity correlation r {r:+.3f} on the graded corpus "
                     f"(3-seed mean per-class AP, need > 0)")


def test_criterion_6_ablation_direction(graded_results, report):
    included = experiments.aggregate_results(graded_results["results"])["mean_ap"]
    excluded = experiments.aggregate_results(graded_results["ablated"])["mean_ap"]
    ok = included >= excluded
    report("6", ok, f"mAP with nearby training classes included {included:.3f} "
                    f">= excluded {excluded:.3f} (3-seed mean)")


# ---------------------------------------------------------------------------
# 7. CLI determinism


def _tree_hash(root):
    import hashlib
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(p.relative_to(root).as_posix().encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def test_criterion_7_cli_determinism(tmp_path, report):
    import json
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "preset": "toy",
        "synthetic": {"clips_per_class": 10, "n_multilabel": 8},
        "pretrain": {"epochs": 2},
        "projection": {"epochs": 2, "decay_start_epoch": 1,
                       "decay_end_epoch": 2},
        "seeds": [0],
    }))
    counts = tmp_path / "counts.csv"
    counts.write_text("class_id,label,count\nA,Alpha,10\nB,Bravo,8\n"
                      "C,Charlie,6\nD,Delta,4\nE,Speech,2\n")
    hashes = []
    for run in ("one", "two"):
        out = tmp_path / run
        out.mkdir()
        corpus = out / "corpus"
        common = ["--config", str(cfg_path), "--seed", "0"]
        assert cli.main(["synth", *common, "--out", str(corpus)]) == 0
        assert cli.main(["fold-split", *common, "--counts", str(counts),
                         "--out", str(out / "folds.json")]) == 0
        assert cli.main(["pretrain", *common, "--corpus", str(corpus),
                         "--out", str(out / "bb.ckpt")]) == 0
        assert cli.main(["train-projection", *common, "--corpus", str(corpus),
                         "--backbone", str(out / "bb.ckpt"),
                         "--out", str(out / "proj.ckpt")]) == 0
        assert cli.main(["evaluate", *common, "--corpus", str(corpus),
                         "--backbone", str(out / "bb.ckpt"),
                         "--projection", str(out / "proj.ckpt"),
                         "--out", str(out / "report.json")]) == 0
        hashes.append(_tree_hash(out))
    ok = hashes[0] == hashes[1]
    report("7", ok, f"all five CLI commands hash-identical across two runs "
                    f"({hashes[0][:16]}...)")
