"""Command-line experiment driver.

Subcommands: synth, fold-split, pretrain, train-projection, evaluate.
Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="zsat",
                                     description=__doc__.splitlines()[0])
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file (overrides a preset)")
    common.add_argument("--preset", default="toy", help="named preset")
    common.add_argument("--seed", type=int, action="append",
                        help="seed; repeat for multi-seed (default: preset seeds)")
    common.add_argument("--out", required=True, help="output path")
    common.add_argument("--threads", type=int, default=1,
                        help="BLAS/OpenMP thread cap")
    common.add_argument("--deterministic", action="store_true",
                        help="force single-threaded numerics")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[common],
                       help="generate a synthetic corpus")

    p = sub.add_parser("fold-split", parents=[common],
                       help="greedy class-fold balancing from a tag-count CSV")
    p.add_argument("--counts", required=True, help="CSV class_id,label,count")

    p = sub.add_parser("pretrain", parents=[common],
                       help="supervised multi-label backbone pretraining")
    p.add_argument("--corpus", required=True)
    p.add_argument("--folds", help="fold-split JSON; hold out one fold")
    p.add_argument("--fold-id", type=int, help="index of the held-out fold")
    p.add_argument("--exclude", help="JSON list of labels to exclude from C_trn")
    p.add_argument("--synonyms", help="JSON {label: [class ids]} synonym map")
    p.add_argument("--resume", action="store_true",
                   help="continue a previous run from --out")

    p = sub.add_parser("train-projection", parents=[common],
                       help="train the cross-modal projection (backbone frozen)")
    p.add_argument("--corpus", required=True)
    p.add_argument("--backbone", required=True,
                   help="backbone checkpoint; may contain {seed}")

    p = sub.add_parser("evaluate", parents=[common],
                       help="zero-shot evaluation on the test split")
    p.add_argument("--corpus", required=True)
    p.add_argument("--backbone", required=True, help="may contain {seed}")
    p.add_argument("--projection", required=True, help="may contain {seed}")
    p.add_argument("--task", choices=("tagging", "classification"),
                   default="tagging")
    p.add_argument("--category-map",
                   help="JSON {class id: category} for per-category accuracy")
    return parser


def _limit_threads(n: int) -> None:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = str(n)


def _resolve(args):
    from .config import load_config_file, resolve_config
    if args.config:
        cfg = load_config_file(args.config)
    else:
        cfg = resolve_config(args.preset)
    seeds = tuple(args.seed) if args.seed else cfg.seeds
    return cfg, seeds


def _write_json(path, payload: dict, cfg) -> None:
    payload = {**cfg.echo(), **payload}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _seed_path(template: str, seed: int, multi: bool) -> Path:
    if "{seed}" in template:
        return Path(template.format(seed=seed))
    if multi:
        p = Path(template)
        return p.with_name(f"{p.stem}_seed{seed}{p.suffix}")
    return Path(template)


def cmd_synth(args) -> int:
    from . import protocol
    cfg, seeds = _resolve(args)
    records, labels, vec_path = protocol.generate_synthetic_corpus(
        cfg.synthetic, args.out, seed=seeds[0])
    _write_json(Path(args.out) / "corpus_info.json",
                {"n_records": len(records), "seed": seeds[0],
                 "word_vectors": Path(vec_path).name}, cfg)
    print(f"wrote {len(records)} clips to {args.out}")
    return 0


def cmd_fold_split(args) -> int:
    from . import protocol
    cfg, _ = _resolve(args)
    table = protocol.load_tag_counts(args.counts)
    labels = {cid: lab for cid, (lab, _) in table.items()}
    pinned = [cid for cid, lab in labels.items() if lab in cfg.pinned_labels]
    split = protocol.balance_folds({c: n for c, (_, n) in table.items()},
                                   cfg.fold_k, pinned=pinned)
    _write_json(args.out, {**split.to_json(),
                           "pinned_labels": [labels[c] for c in split.pinned]},
                cfg)
    print(f"wrote {cfg.fold_k}-fold split to {args.out}")
    return 0


def _select_train_ids(args, corpus):
    """C_trn from the corpus metadata, a held-out fold, or an exclusion list."""
    from . import protocol
    from .experiments import DataError
    train_ids = list(corpus.train_ids)
    if (args.folds is None) != (args.fold_id is None):
        raise DataError("--folds and --fold-id must be given together")
    if args.folds:
        with open(args.folds, "r", encoding="utf-8") as fh:
            split = json.load(fh)
        folds = split["folds"]
        if not 0 <= args.fold_id < len(folds):
            raise DataError(f"fold id {args.fold_id} out of range "
                            f"(have {len(folds)} folds)")
        held_out = set(folds[args.fold_id])
        all_ids = [c for f in folds for c in f] + list(split.get("pinned", []))
        train_ids = [c for c in all_ids if c not in held_out]
    if args.exclude:
        with open(args.exclude, "r", encoding="utf-8") as fh:
            exclusion = json.load(fh)
        synonyms = None
        if args.synonyms:
            with open(args.synonyms, "r", encoding="utf-8") as fh:
                synonyms = json.load(fh)
        labels = {c: corpus.labels[c] for c in train_ids}
        train_ids, removed = protocol.exclude_overlap(labels, exclusion, synonyms)
        print(f"excluded {len(removed)} classes: "
              f"{[r['class_id'] for r in removed]}")
    return train_ids


def cmd_pretrain(args) -> int:
    import dataclasses

    from . import backbones, checkpoint, experiments
    cfg, seeds = _resolve(args)
    corpus = experiments.load_corpus(args.corpus, cfg.mel)
    train_ids = _select_train_ids(args, corpus)
    corpus = dataclasses.replace(corpus, train_ids=train_ids)
    multi = len(seeds) > 1
    for seed in seeds:
        out = _seed_path(args.out, seed, multi)
        head_path = out.with_suffix(out.suffix + ".head")
        info_path = out.with_suffix(out.suffix + ".json")
        model = head = None
        done, history = 0, []
        if args.resume:
            if not out.exists():
                raise experiments.DataError(f"--resume: no checkpoint at {out}")
            model = checkpoint.load_backbone(str(out))
            _, hp, tensors = checkpoint.load_checkpoint(str(head_path), "head")
            head = backbones.ClassifierHead(weight=tensors["weight"],
                                            bias=tensors["bias"])
            with open(info_path, "r", encoding="utf-8") as fh:
                prev = json.load(fh)
            done, history = prev["epochs_done"], prev["loss_history"]
        remaining = cfg.pretrain.epochs - done
        if remaining > 0:
            model, head, hist = experiments.run_pretrain(
                cfg, corpus, seed, model=model, head=head, epochs=remaining)
            history = history + hist
            done += remaining
        checkpoint.save_backbone(str(out), model)
        checkpoint.save_checkpoint(str(head_path), "head",
                                   {"n_classes": int(head.weight.shape[0]),
                                    "m": int(head.weight.shape[1])},
                                   {"weight": head.weight, "bias": head.bias})
        _write_json(info_path, {"seed": seed, "epochs_done": done,
                                "train_classes": train_ids,
                                "loss_history": history}, cfg)
        print(f"seed {seed}: {done} epochs, final loss {history[-1]:.4f} -> {out}")
    return 0


def cmd_train_projection(args) -> int:
    from . import checkpoint, crossmodal, experiments
    cfg, seeds = _resolve(args)
    corpus = experiments.load_corpus(args.corpus, cfg.mel)
    n = next(iter(corpus.class_embeddings.values())).shape[0]
    multi = len(seeds) > 1
    best_maps = {}
    for seed in seeds:
        bb_path = _seed_path(args.backbone, seed, multi)
        model = checkpoint.load_backbone(str(bb_path))
        m = experiments.embed_dim(cfg)
        model_m = model.hyperparams().get("embed_dim", m)
        if model_m != m:
            raise experiments.DataError(
                f"backbone {bb_path} embeds into {model_m} dims but the config "
                f"expects {m}")
        out = _seed_path(args.out, seed, multi)
        proj, report = experiments.run_projection(cfg, corpus, model, seed)
        if proj.w2.shape[0] != n:
            raise experiments.DataError(
                f"projection output dim {proj.w2.shape[0]} != word-vector "
                f"dim {n}")
        crossmodal.save_projection(str(out), proj)
        _write_json(out.with_suffix(out.suffix + ".json"),
                    {"seed": seed, "selection": report}, cfg)
        best_maps[seed] = report["best_val_map"]
        print(f"seed {seed}: best epoch {report['best_epoch']} "
              f"val mAP {report['best_val_map']:.4f} -> {out}")
    if multi:
        import numpy as np
        agg = Path(args.out)
        agg = agg.with_name(f"{agg.stem}_aggregate.json")
        _write_json(agg, {"seeds": list(best_maps),
                          "best_val_map_per_seed": best_maps,
                          "mean_best_val_map": float(np.mean(list(best_maps.values())))},
                    cfg)
        print(f"aggregate -> {agg}")
    return 0


def cmd_evaluate(args) -> int:
    import numpy as np

    from . import checkpoint, crossmodal, experiments
    cfg, seeds = _resolve(args)
    corpus = experiments.load_corpus(args.corpus, cfg.mel)
    category_map = None
    if args.category_map:
        with open(args.category_map, "r", encoding="utf-8") as fh:
            category_map = json.load(fh)
    multi = len(seeds) > 1
    results = []
    for seed in seeds:
        model = checkpoint.load_backbone(str(_seed_path(args.backbone, seed, multi)))
        proj = crossmodal.load_projection(str(_seed_path(args.projection, seed, multi)))
        n = next(iter(corpus.class_embeddings.values())).shape[0]
        if proj.w2.shape[0] != n:
            raise experiments.DataError(
                f"projection output dim {proj.w2.shape[0]} != word-vector dim {n}")
        r = experiments.evaluate_zero_shot(corpus, model, proj)
        r["seed"] = seed
        if category_map:
            r["per_category_accuracy"] = _category_accuracy(
                corpus, model, proj, category_map)
        results.append(r)
    report = {"task": args.task, "per_seed": results}
    if multi:
        report["aggregate"] = experiments.aggregate_results(results)
    _write_json(args.out, report, cfg)
    if args.task == "classification":
        accs = [r["accuracy"] for r in results]
        print(f"accuracy per seed {['%.3f' % a for a in accs]} "
              f"mean {np.mean(accs):.3f} chance {results[0]['random_accuracy']:.3f}")
    else:
        maps = [r["mean_ap"] for r in results]
        print(f"mAP per seed {['%.3f' % m for m in maps]} "
              f"mean {np.mean(maps):.3f} baseline {results[0]['random_mean_ap']:.3f}")
    return 0


def _category_accuracy(corpus, model, proj, category_map: dict) -> dict:
    """Forced-choice accuracy restricted to each category's test classes."""
    from . import crossmodal, evaluation, semantics
    out = {}
    test_recs = [r for r in corpus.records if r.split == "test"
                 and len(r.tags) == 1]
    for cat in sorted(set(category_map.values())):
        cands_ids = [c for c in corpus.test_ids if category_map.get(c) == cat]
        recs = [r for r in test_recs if r.tags[0] in cands_ids]
        if not recs or len(cands_ids) < 2:
            out[cat] = None
            continue
        cands = [semantics.SemanticEmbedding(corpus.class_embeddings[c], c)
                 for c in sorted(cands_ids)]
        preds = [crossmodal.classify(
            model.embed(corpus.spectrograms[r.clip_id]).astype(float),
            cands, proj) for r in recs]
        out[cat] = evaluation.top1_accuracy(preds, [r.tags[0] for r in recs],
                                            restriction=cands_ids)
    return out


_COMMANDS = {
    "synth": cmd_synth,
    "fold-split": cmd_fold_split,
    "pretrain": cmd_pretrain,
    "train-projection": cmd_train_projection,
    "evaluate": cmd_evaluate,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    _limit_threads(1 if args.deterministic else max(1, args.threads))

    from . import checkpoint, dsp, protocol, semantics
    from .backbones import DivergenceError
    from .config import ConfigError
    from .crossmodal import GradientError
    from .experiments import DataError
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, protocol.ExclusionError, semantics.VectorFileError,
            semantics.UnembeddableLabel, checkpoint.CheckpointError,
            dsp.AudioFormatError, dsp.SampleRateMismatch, OSError,
            json.JSONDecodeError, KeyError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (GradientError, DivergenceError, FloatingPointError,
            ZeroDivisionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
