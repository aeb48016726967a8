"""Command-line experiment driver.

Subcommands: synth, fold-split, pretrain, train-projection, evaluate.
Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

from .errors import ConfigError, DataError, NumericalError


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
    p.add_argument("--category-map",
                   help="JSON {class id: category} for per-category accuracy")
    return parser


def _limit_threads(n: int) -> None:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = str(n)


def _resolve(args):
    from .config import load_config_file, resolve_config
    cfg = load_config_file(args.config) if args.config else resolve_config(args.preset)
    if args.seed and min(args.seed) < 0:
        raise ConfigError(f"--seed must be >= 0, got {min(args.seed)}")
    seeds = tuple(args.seed) if args.seed else cfg.seeds
    return cfg, seeds


def _write_json(path, payload: dict, cfg) -> None:
    """The payload with the config echo, written through `write_atomic`."""
    from .checkpoint import write_atomic
    payload = {**cfg.echo(), **payload}
    write_atomic(path, lambda fh: fh.write(
        (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")))


def _seed_paths(template: str, seeds) -> list:
    """Each seed's path: `template` with `{seed}` replaced by the seed; without
    `{seed}`, the path itself for one seed, or `_seed<N>` added to its stem."""
    if "{seed}" in template:
        return [Path(template.replace("{seed}", str(s))) for s in seeds]
    p = Path(template)
    if len(seeds) == 1:
        return [p]
    return [p.with_name(f"{p.stem}_seed{s}{p.suffix}") for s in seeds]


def _sidecars(out: Path):
    """The head and info file that `pretrain` writes beside its backbone `out`."""
    return out.with_name(out.name + ".head"), out.with_name(out.name + ".json")


def _check_known(path, class_ids, corpus) -> None:
    """Every class id that the file at `path` names must be in the corpus."""
    if unknown := sorted(set(class_ids) - set(corpus.labels)):
        raise DataError(f"{path}: classes {unknown} are not in the corpus")


def _check_out_dirs(paths) -> None:
    """The directory of each output path must exist: checked before any
    input is read, so a run does not end on a missing one after its work."""
    for p in map(Path, paths):
        if not p.parent.is_dir():
            raise DataError(f"output directory {p.parent} does not exist")


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
    _check_out_dirs([args.out])
    table = protocol.load_tag_counts(args.counts)
    labels = {cid: lab for cid, (lab, _) in table.items()}
    pinned = [cid for cid, lab in labels.items() if lab in cfg.pinned_labels]
    split = protocol.balance_folds({c: n for c, (_, n) in table.items()},
                                   cfg.fold_k, pinned=pinned)
    _write_json(args.out, {**vars(split),
                           "pinned_labels": [labels[c] for c in split.pinned]},
                cfg)
    print(f"wrote {cfg.fold_k}-fold split to {args.out}")
    return 0


def _select_train_ids(args, corpus):
    """C_trn from the corpus metadata, a held-out fold, or an exclusion list."""
    from . import protocol
    train_ids = list(corpus.train_ids)
    if args.folds:
        split = protocol.load_json(args.folds, {"folds": tuple[tuple[str, ...], ...],
                                                "pinned": tuple[str, ...]}, pinned=[])
        folds, pinned = split["folds"], split["pinned"]
        if not 0 <= args.fold_id < len(folds):
            raise DataError(f"fold id {args.fold_id} out of range "
                            f"(have {len(folds)} folds)")
        held_out = set(folds[args.fold_id])
        all_ids = [c for f in folds for c in f] + pinned
        _check_known(args.folds, all_ids, corpus)
        train_ids = [c for c in all_ids if c not in held_out]
    if args.exclude:
        exclusion = protocol.load_json(args.exclude, tuple[str, ...])
        synonyms = (protocol.load_json(args.synonyms, dict[str, tuple[str, ...]])
                    if args.synonyms else None)
        labels = {c: corpus.labels[c] for c in train_ids}
        train_ids, removed = protocol.exclude_overlap(labels, exclusion, synonyms)
        print(f"excluded {len(removed)} classes: "
              f"{[r['class_id'] for r in removed]}")
    return train_ids


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _read_resume(out: Path, cfg, train_ids: list):
    """The backbone, head, epochs done and loss history that `pretrain --resume`
    continues from `out`, checked against this run's classes and head width.
    The backbone and head files must be the ones whose sha256 the info file,
    written after both, records."""
    from . import backbones, experiments, protocol
    if not out.exists():
        raise DataError(f"--resume: no checkpoint at {out}")
    head_path, info_path = _sidecars(out)
    prev = protocol.load_json(info_path, {
        "epochs_done": int, "loss_history": tuple[float, ...],
        "train_classes": tuple[str, ...], "backbone_sha256": str, "head_sha256": str})
    done, history = prev["epochs_done"], prev["loss_history"]
    if len(history) != done:
        raise DataError(f"--resume: {info_path} must record one loss per epoch done")
    if prev["train_classes"] != train_ids:
        raise DataError(f"--resume: {info_path} trained on classes "
                        f"{prev['train_classes']}, this run selects {train_ids}")
    for path, key in ((out, "backbone_sha256"), (head_path, "head_sha256")):
        if _sha256(path) != prev[key]:
            raise DataError(f"--resume: {path} is not the file {info_path} "
                            f"describes (its sha256 differs)")
    model = _read_backbone(out, cfg)
    head = backbones.ClassifierHead.load(head_path, n_classes=len(train_ids),
                                         m=experiments.embed_dim(cfg))
    return model, head, done, history


def _check_patch_grids(cfg, corpus) -> None:
    """Checks the transformer's patchout drops against the patch grid of each
    clip pretraining reads, from its WAV header alone."""
    from . import dsp, protocol
    if cfg.backbone != "transformer":
        return
    mel = cfg.mel
    for r in protocol.training_records(corpus.records, corpus.train_ids):
        n = dsp.wav_length(corpus.root / r.path, expected_rate=mel.sample_rate)
        cfg.transformer.grid(mel.n_mels, dsp.n_frames(n, mel.window_len, mel.hop_len),
                             train=True)


def cmd_pretrain(args) -> int:
    from . import experiments
    cfg, seeds = _resolve(args)
    if (args.folds is None) != (args.fold_id is None):
        raise ConfigError("--folds and --fold-id must be given together")
    if args.synonyms and not args.exclude:
        raise ConfigError("--synonyms needs --exclude")
    outs = _seed_paths(args.out, seeds)
    _check_out_dirs(outs)
    corpus = experiments.load_corpus(args.corpus, cfg.mel, splits=())
    corpus.train_ids = train_ids = _select_train_ids(args, corpus)
    starts = [_read_resume(out, cfg, train_ids) if args.resume else (None, None, 0, [])
              for out in outs]
    # a patchout as wide as the grid fails here, before any log-mel
    _check_patch_grids(cfg, corpus)
    experiments.compute_spectrograms(corpus, cfg.mel, ("train",))
    for seed, out, (model, head, done, history) in zip(seeds, outs, starts):
        remaining = cfg.pretrain.epochs - done
        if remaining > 0:
            model, head, hist = experiments.run_pretrain(
                cfg, corpus, seed, model=model, head=head, epochs=remaining)
            history = history + hist
            done += remaining
        head_path, info_path = _sidecars(out)
        model.save(out)
        head.save(head_path)
        # last, so it describes only files that are whole on disk
        _write_json(info_path,
                    {"seed": seed, "epochs_done": done, "train_classes": train_ids,
                     "loss_history": history, "backbone_sha256": _sha256(out),
                     "head_sha256": _sha256(head_path)}, cfg)
        print(f"seed {seed}: {done} epochs, final loss {history[-1]:.4f} -> {out}")
    return 0


def _read_backbone(path, cfg):
    """The backbone checkpoint at `path`, of the config's kind and embed dim."""
    from . import backbones, experiments
    return backbones.BACKBONE_KINDS[cfg.backbone].load(
        path, embed_dim=experiments.embed_dim(cfg))


def cmd_train_projection(args) -> int:
    from . import experiments
    cfg, seeds = _resolve(args)
    outs = _seed_paths(args.out, seeds)
    agg = Path(args.out.replace("{seed}", ""))
    agg = agg.with_name(f"{agg.stem}_aggregate.json")
    _check_out_dirs(outs + [agg] * (len(seeds) > 1))
    corpus = experiments.load_corpus(args.corpus, cfg.mel, splits=())
    models = [_read_backbone(p, cfg) for p in _seed_paths(args.backbone, seeds)]
    # the projection trains on the train split and selects its epoch on val
    experiments.compute_spectrograms(corpus, cfg.mel, ("train", "val"))
    best_maps = {}
    for seed, model, out in zip(seeds, models, outs):
        proj, report = experiments.run_projection(cfg, corpus, model, seed)
        proj.save(out)
        _write_json(out.with_suffix(out.suffix + ".json"),
                    {"seed": seed, "selection": report}, cfg)
        best_maps[seed] = report["best_val_map"]
        print(f"seed {seed}: best epoch {report['best_epoch']} "
              f"val mAP {report['best_val_map']:.4f} -> {out}")
    if len(seeds) > 1:
        import numpy as np
        _write_json(agg, {"seeds": list(best_maps),
                          "best_val_map_per_seed": best_maps,
                          "mean_best_val_map": float(np.mean(list(best_maps.values())))},
                    cfg)
        print(f"aggregate -> {agg}")
    return 0


def cmd_evaluate(args) -> int:
    import numpy as np

    from . import crossmodal, experiments, protocol
    cfg, seeds = _resolve(args)
    _check_out_dirs([args.out])
    corpus = experiments.load_corpus(args.corpus, cfg.mel, splits=())
    n = next(iter(corpus.class_embeddings.values())).shape[0]
    models = [_read_backbone(p, cfg) for p in _seed_paths(args.backbone, seeds)]
    projs = [crossmodal.Projection.load(p, m=experiments.embed_dim(cfg), n=n)
             for p in _seed_paths(args.projection, seeds)]
    category_map = (protocol.load_json(args.category_map, dict[str, str])
                    if args.category_map else None)
    _check_known(args.category_map, category_map or (), corpus)
    # zero-shot evaluation reads only the test split's clips
    experiments.compute_spectrograms(corpus, cfg.mel, ("test",))
    results = []
    for seed, model, proj in zip(seeds, models, projs):
        r = experiments.evaluate_zero_shot(corpus, model, proj, category_map)
        r["seed"] = seed
        results.append(r)
    report = {"per_seed": results}
    if len(seeds) > 1:
        report["aggregate"] = experiments.aggregate_results(results)
    _write_json(args.out, report, cfg)
    maps = [r["mean_ap"] for r in results]
    print(f"mAP per seed {['%.3f' % m for m in maps]} "
          f"mean {np.mean(maps):.3f} baseline {results[0]['random_mean_ap']:.3f}")
    accs = [r["accuracy"] for r in results if r["accuracy"] is not None]
    if accs:   # None when the test split has no single-label clip
        print(f"accuracy per seed {['%.3f' % a for a in accs]} "
              f"mean {np.mean(accs):.3f} chance {results[0]['random_accuracy']:.3f}")
    # the seed-mean analysis when there are several seeds, else the one seed's
    agg = report.get("aggregate")
    r, n, p = ((agg["proximity_r"], agg["proximity_n"], agg["proximity_p"]) if agg
               else (results[0]["proximity"][k] for k in ("pearson_r", "n", "p")))
    print("proximity r " + ("n/a" if r is None else f"{r:+.3f}") + f" over {n} classes, "
          "permutation p " + ("n/a" if p is None else f"{p:.3f}"))
    return 0


_COMMANDS = {
    "synth": cmd_synth,
    "fold-split": cmd_fold_split,
    "pretrain": cmd_pretrain,
    "train-projection": cmd_train_projection,
    "evaluate": cmd_evaluate,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        _limit_threads(args.threads)
        return _COMMANDS[args.command](args)
    except (ConfigError, DataError, NumericalError) as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        # an input file that cannot be read or decoded
        print(f"{DataError.label}: {exc}", file=sys.stderr)
        return DataError.exit_code


if __name__ == "__main__":
    sys.exit(main())
